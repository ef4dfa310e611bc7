//! The frontier-sharded Proof of Separability checker: the production
//! explorer and checker.
//!
//! [`ParallelSeparabilityChecker`] produces a [`CheckReport`] **identical**
//! to [`crate::check::SeparabilityChecker`]'s over the reference explorer
//! [`crate::explore::reachable_states`] — same states, same per-condition
//! check counts, same violations in the same order with the same witness
//! text — for every shard count, whenever no reduction is installed.
//! Determinism is engineered, not hoped for:
//!
//! * **Exploration** is level-synchronised BFS. The frontier is sharded by
//!   state hash across N expander threads; successors are routed over
//!   channels to the N *owner* threads of their own hash shard (each state
//!   has exactly one owning seen-shard, so no two threads ever disagree
//!   about whether it is new). Every successor carries a `(parent, input)`
//!   tag, and the merge replays survivors in tag order — exactly the
//!   discovery order of the reference explorer, including its truncation
//!   rule (checked before each parent expands).
//! * **Condition checking** fans each phase out over worker threads that
//!   emit violation *candidates* keyed by their position in the sequential
//!   checker's encounter order `(abstraction, phase, major, minor)`. The
//!   merge sorts candidates by key and replays them through the global
//!   per-condition cap, reproducing the sequential violation list bit for
//!   bit. Check counts are order-independent sums.
//!
//! The sharded checker is also *algorithmically* cheaper than the
//! sequential one: each `(state, op)` successor and each `(state, input)`
//! consumption is computed once and shared across all N abstractions (the
//! sequential checker recomputes them per colour), and condition 2/3/4
//! comparisons use [`Abstraction::phi_eq`] —
//! an in-place view comparison that skips materialising the abstract state
//! except when a violation needs a witness. On the kernel's workloads this
//! is what makes verification of an N-regime system scale like the state
//! space instead of N × the state space.
//!
//! This is the only explorer that reduces: the symmetry and partial-order
//! hooks of [`crate::canon`] and the Bloom pre-filter of [`Dedup::Bloom`]
//! apply here and nowhere else. Seen-sets hold 128-bit state
//! **fingerprints** ([`crate::fp`]): ownership routing and dedup work on
//! 16-byte keys computed once per successor, so exploration memory scales
//! with key count rather than state size. Fingerprint membership is
//! probabilistic only in the cryptographic sense (a collision of two
//! independently-seeded 64-bit hashes); the differential suites pin the
//! unreduced sharded explorer to the exact-dedup reference.

use crate::abstraction::Abstraction;
use crate::canon::{Reduction, ReductionStats};
use crate::check::{CheckReport, Condition, Violation};
use crate::fp::{fingerprint, Bloom, Dedup};
use crate::system::{Finite, Projected, SharedSystem};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::mpsc;

/// `(parent position in frontier, input index)`: the discovery tag that
/// totally orders a level's successor candidates into sequential BFS order.
type Tag = (usize, usize);

/// A successor candidate in flight: discovery tag, the state's 128-bit
/// key (computed once, at expansion, and reused for routing and dedup), and
/// the state itself.
type Cand<T> = (Tag, u128, T);

/// `(abstraction, phase, major, minor)`: a candidate violation's position
/// in the sequential checker's encounter order. Phases: 0 = conditions 1/2
/// (major = state, minor = op), 1 = condition 3 (state, input), 2 =
/// condition 4 (input, state), 3 = condition 5 (state), 4 = condition 6
/// (state).
type Key = (usize, u8, usize, usize);

/// Deterministic shard ownership: key → shard. Equal states have equal
/// keys, so every distinct state has exactly one owner.
#[inline]
fn shard_of(fp: u128, shards: usize) -> usize {
    (fp % shards as u128) as usize
}

/// Per-shard exploration counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// States this shard owns in the seen-set (committed discoveries).
    pub owned: usize,
    /// Frontier states this shard expanded.
    pub expanded: usize,
    /// Successor candidates routed to this shard for dedup.
    pub routed: usize,
}

/// Aggregate exploration statistics from a sharded BFS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Number of shards (worker/owner thread pairs).
    pub shards: usize,
    /// Total states discovered.
    pub states: usize,
    /// BFS levels processed.
    pub levels: usize,
    /// Levels whose expansion and dedup ran on worker threads. Levels with
    /// fewer than `shards * 8` successor candidates (and every level at one
    /// shard) run inline; this counter proves the threaded path engaged.
    pub threaded_levels: usize,
    /// Widest frontier seen.
    pub max_frontier: usize,
    /// Whether exploration hit the state limit.
    pub truncated: bool,
    /// Seen-set key bytes (16 per state) — the footprint a full-state
    /// seen-set would instead spend on whole resident states.
    pub fp_bytes: u64,
    /// State-space reduction counters (symmetry, ample sets, Bloom). The
    /// sums are shard-count-invariant: within a level each distinct key is
    /// examined exactly once, by its owner shard, against a Bloom filter
    /// frozen at the level boundary.
    pub reduction: ReductionStats,
    /// Per-shard counters, indexed by shard.
    pub per_shard: Vec<ShardStats>,
}

/// Keeps the first (minimum-tag) occurrence of each distinct key, then
/// drops everything the owning shard has already seen, preserving tag
/// order.
///
/// When a Bloom pre-filter is supplied (read-only during this per-level
/// pass; it is grown only at the single-threaded merge), a "definitely
/// absent" answer skips the precise probe, and the candidate is novel by
/// construction, since every committed key was inserted into the filter.
/// Returns the novel candidates plus the (shard-count-invariant) Bloom
/// negative / false-positive counts.
fn dedup_candidates<T>(
    seen: &HashSet<u128>,
    bloom: Option<&Bloom>,
    mut cands: Vec<Cand<T>>,
) -> (Vec<Cand<T>>, u64, u64) {
    cands.sort_by_key(|(tag, _, _)| *tag);
    let mut firsts: HashSet<u128> = HashSet::with_capacity(cands.len());
    let (mut negatives, mut false_positives) = (0u64, 0u64);
    cands.retain(|(_, key, _)| {
        if !firsts.insert(*key) {
            return false;
        }
        match bloom {
            Some(filter) if !filter.may_contain(*key) => {
                negatives += 1;
                true
            }
            Some(_) if !seen.contains(key) => {
                false_positives += 1;
                true
            }
            _ => !seen.contains(key),
        }
    });
    (cands, negatives, false_positives)
}

/// The seen-set key of a state: its orbit key under a canon hook, its own
/// fingerprint otherwise.
#[inline]
fn key_of<S: SharedSystem + ?Sized>(reduction: &Reduction<S>, s: &S::State) -> u128 {
    match reduction.canon {
        Some(canon) => canon(s),
        None => fingerprint(s),
    }
}

/// The input indices to expand at frontier position `p`: the ample list
/// when an ample hook chose one, the whole alphabet (`all`) otherwise.
#[inline]
fn expansion<'a>(all: &'a [usize], lists: Option<&'a [Vec<usize>]>, p: usize) -> &'a [usize] {
    lists.map_or(all, |l| l[p].as_slice())
}

/// Expands one frontier level on `shards` worker threads, routing each
/// successor over a channel to its owner shard. Returns per-owner candidate
/// lists (arrival order; the dedup pass re-sorts by tag).
///
/// `lists` (when present) holds the ample input indices per frontier
/// state; candidates keep their *original* input index as the tag, so
/// under an ample-set reduction the merged order stays a subsequence of
/// the unreduced discovery order.
fn expand_level<S>(
    sys: &S,
    frontier: &[S::State],
    inputs: &[S::Input],
    all: &[usize],
    lists: Option<&[Vec<usize>]>,
    reduction: &Reduction<S>,
    shards: usize,
) -> Vec<Vec<Cand<S::State>>>
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    let mut senders = Vec::with_capacity(shards);
    let mut receivers = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::channel::<Cand<S::State>>();
        senders.push(tx);
        receivers.push(rx);
    }
    std::thread::scope(|scope| {
        let owners: Vec<_> = receivers
            .into_iter()
            .map(|rx| scope.spawn(move || rx.into_iter().collect::<Vec<Cand<S::State>>>()))
            .collect();
        for w in 0..shards {
            let senders = senders.clone();
            scope.spawn(move || {
                // Round-robin expansion assignment, matching the
                // `expanded` counters.
                for (p, s) in frontier.iter().enumerate().skip(w).step_by(shards) {
                    for &i_idx in expansion(all, lists, p) {
                        let (_, next) = sys.step(s, &inputs[i_idx]);
                        let key = key_of(reduction, &next);
                        let _ = senders[shard_of(key, shards)].send(((p, i_idx), key, next));
                    }
                }
            });
        }
        drop(senders);
        owners
            .into_iter()
            .map(|h| h.join().expect("owner thread panicked"))
            .collect()
    })
}

/// Frontier-sharded BFS with the discovery order and truncation semantics
/// of [`crate::explore::reachable_states`], under a seen-set policy
/// (optionally a Bloom pre-filter) and threaded through the state-space
/// reduction hooks of [`crate::canon`]. Returns the explored states and
/// the full exploration statistics (including [`ReductionStats`]).
///
/// With `Reduction::none()` this returns exactly the reference states for
/// either policy and every shard count; the shard-invariance of the output
/// and the stats projection is pinned by `explore_determinism`.
pub fn par_explore<S>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    shards: usize,
    dedup: Dedup,
    reduction: &Reduction<S>,
) -> (Vec<S::State>, ExploreStats)
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    let shards = shards.max(1);
    let mut bloom = dedup.bloom_params().map(Bloom::new);
    let mut seen: Vec<HashSet<u128>> = vec![HashSet::new(); shards];
    let mut stats = ExploreStats {
        shards,
        per_shard: vec![ShardStats::default(); shards],
        reduction: ReductionStats {
            canon: reduction.canon.is_some(),
            ample: reduction.ample.is_some(),
            ..ReductionStats::default()
        },
        ..ExploreStats::default()
    };
    let mut order: Vec<S::State> = Vec::new();
    let all: Vec<usize> = (0..inputs.len()).collect();

    let finish = |order: Vec<S::State>, mut stats: ExploreStats| {
        stats.states = order.len();
        stats.fp_bytes = 16 * order.len() as u64;
        (order, stats)
    };

    // Initial states are always admitted; the limit applies when a state
    // is taken up for expansion, exactly as in the reference explorer.
    for s in initial {
        let key = key_of(reduction, s);
        let owner = shard_of(key, shards);
        if seen[owner].insert(key) {
            if let Some(filter) = bloom.as_mut() {
                filter.insert(key);
            }
            stats.per_shard[owner].owned += 1;
            order.push(s.clone());
        }
    }

    let mut cursor = 0usize;
    while cursor < order.len() {
        if order.len() >= limit {
            // Unexpanded states remain: the reference explorer would stop
            // at its next pop.
            stats.truncated = true;
            break;
        }
        stats.levels += 1;
        let level = cursor..order.len();
        let width = level.len();
        stats.max_frontier = stats.max_frontier.max(width);

        // Round-robin expansion assignment: which worker *expands* a parent
        // is pure load balancing (ownership of the successors is decided by
        // their keys), so no hash is needed here.
        for p in 0..width {
            stats.per_shard[p % shards].expanded += 1;
        }

        let frontier = &order[level];

        // Ample-set selection happens up front, single-threaded and in
        // frontier order, so skip counters and expansion lists are
        // identical for every shard count.
        let lists: Option<Vec<Vec<usize>>> = reduction.ample.map(|ample| {
            frontier
                .iter()
                .map(|s| ample(s, inputs).indices(inputs.len()))
                .collect()
        });
        if let Some(lists) = &lists {
            stats.reduction.ample_skips += lists
                .iter()
                .map(|l| (inputs.len() - l.len()) as u64)
                .sum::<u64>();
        }

        // Expand. Tiny levels (a chain-shaped state space, or fewer
        // successors than threads) run inline: same candidates, same tags,
        // no spawn cost.
        let threaded = shards > 1 && width * inputs.len() >= shards * 8;
        if threaded {
            stats.threaded_levels += 1;
        }
        let routed: Vec<Vec<Cand<S::State>>> = if threaded {
            expand_level(
                sys,
                frontier,
                inputs,
                &all,
                lists.as_deref(),
                reduction,
                shards,
            )
        } else {
            let mut per_owner: Vec<Vec<Cand<S::State>>> = vec![Vec::new(); shards];
            for (p, s) in frontier.iter().enumerate() {
                for &i_idx in expansion(&all, lists.as_deref(), p) {
                    let (_, next) = sys.step(s, &inputs[i_idx]);
                    let key = key_of(reduction, &next);
                    per_owner[shard_of(key, shards)].push(((p, i_idx), key, next));
                }
            }
            per_owner
        };
        for (owner, cands) in routed.iter().enumerate() {
            stats.per_shard[owner].routed += cands.len();
        }

        // Dedup against each owner's shard of the seen-set. The Bloom
        // filter is read-only here (grown only at the merge below), so the
        // negative/false-positive tallies are level-deterministic and
        // shard-count-invariant.
        let bloom_ref = bloom.as_ref();
        // (surviving candidates, bloom negatives, bloom false positives)
        // per owner shard.
        type Deduped<T> = Vec<(Vec<Cand<T>>, u64, u64)>;
        let deduped: Deduped<S::State> = if threaded {
            std::thread::scope(|scope| {
                let handles: Vec<_> = routed
                    .into_iter()
                    .zip(seen.iter())
                    .map(|(cands, shard)| {
                        scope.spawn(move || dedup_candidates(shard, bloom_ref, cands))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("dedup thread panicked"))
                    .collect()
            })
        } else {
            routed
                .into_iter()
                .zip(seen.iter())
                .map(|(cands, shard)| dedup_candidates(shard, bloom_ref, cands))
                .collect()
        };
        let mut novel: Vec<Cand<S::State>> = Vec::new();
        for (cands, negatives, false_positives) in deduped {
            stats.reduction.bloom_negatives += negatives;
            stats.reduction.bloom_false_positives += false_positives;
            novel.extend(cands);
        }

        // Deterministic merge: commit survivors in (parent, input) order,
        // re-applying the reference truncation rule before each parent.
        // Each survivor is moved into `order` and the seen-set keeps only
        // its 16-byte key, so a discovered state is allocated exactly once.
        novel.sort_by_key(|(tag, _, _)| *tag);
        let mut it = novel.into_iter().peekable();
        for p in 0..width {
            if order.len() >= limit {
                stats.truncated = true;
                return finish(order, stats);
            }
            cursor += 1;
            while it.peek().is_some_and(|(tag, _, _)| tag.0 == p) {
                let (_, key, s) = it.next().expect("peeked");
                let owner = shard_of(key, shards);
                seen[owner].insert(key);
                if let Some(filter) = bloom.as_mut() {
                    filter.insert(key);
                }
                stats.per_shard[owner].owned += 1;
                order.push(s);
            }
        }
    }
    finish(order, stats)
}

/// The sharded analogue of [`crate::explore::reachable_states`]: same
/// returned state order and truncation flag for every `shards` value.
pub fn par_reachable_states<S>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    shards: usize,
) -> (Vec<S::State>, bool)
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    let (order, stats) = par_explore(
        sys,
        initial,
        inputs,
        limit,
        shards,
        Dedup::default(),
        &Reduction::none(),
    );
    (order, stats.truncated)
}

/// Bounded, order-preserving buffer of violation candidates: per condition,
/// the `cap` candidates with the smallest keys a worker has seen. The
/// global merge replays the union through the global cap, so a worker never
/// needs more than `cap` survivors per condition regardless of its
/// iteration order.
struct CapBuf {
    cap: usize,
    per: [Vec<(Key, Violation)>; 6],
}

impl CapBuf {
    fn new(cap: usize) -> CapBuf {
        CapBuf {
            cap,
            per: Default::default(),
        }
    }

    fn push(&mut self, condition: Condition, key: Key, colour: &str, witness: String) {
        let v = &mut self.per[condition.index()];
        if v.len() >= self.cap {
            match v.last() {
                Some((last, _)) if key > *last => return,
                _ => {}
            }
        }
        let pos = v.partition_point(|(k, _)| *k < key);
        v.insert(
            pos,
            (
                key,
                Violation {
                    condition,
                    colour: colour.to_string(),
                    witness,
                },
            ),
        );
        v.truncate(self.cap);
    }

    fn drain(self) -> Vec<(Key, Violation)> {
        self.per.into_iter().flatten().collect()
    }
}

/// Evenly-sized contiguous chunk ranges.
fn chunk_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `f` over chunk ranges of `0..len` on up to `workers` scoped
/// threads, returning results in chunk order (deterministic).
fn par_chunks<R, F>(workers: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, workers);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| scope.spawn(move || f(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker worker panicked"))
            .collect()
    })
}

/// The frontier-sharded Proof of Separability checker.
///
/// Report-identical to [`crate::check::SeparabilityChecker`] for every
/// shard count (see the `differential_checker` test suite), and faster:
/// work is sharded across threads, and per-`(state, op)` successors are
/// shared across abstractions instead of recomputed per colour.
#[derive(Debug, Clone)]
pub struct ParallelSeparabilityChecker {
    /// Worker/owner thread pairs (1 = single-threaded, still using the
    /// sharded data path).
    pub shards: usize,
    /// Stop recording violations of a condition after this many (checking
    /// continues, counting only). Must match the sequential checker's cap
    /// for differential comparisons.
    pub max_violations_per_condition: usize,
    /// Seen-set policy during exploration: fingerprints (default),
    /// optionally behind a Bloom pre-filter.
    pub dedup: Dedup,
}

impl ParallelSeparabilityChecker {
    /// A checker with `shards` workers and the default violation cap.
    pub fn new(shards: usize) -> ParallelSeparabilityChecker {
        ParallelSeparabilityChecker {
            shards: shards.max(1),
            max_violations_per_condition: 3,
            dedup: Dedup::default(),
        }
    }

    /// Selects the exploration seen-set policy.
    pub fn with_dedup(mut self, dedup: Dedup) -> ParallelSeparabilityChecker {
        self.dedup = dedup;
        self
    }

    /// Checks all six conditions over the system's own (finite) state set,
    /// like [`SeparabilityChecker::check`](crate::check::SeparabilityChecker::check).
    pub fn check<S, A>(&self, sys: &S, abstractions: &[A]) -> CheckReport
    where
        S: Finite + Projected + Sync,
        S::State: Send + Sync,
        S::Colour: Send + Sync,
        S::Input: Sync,
        S::Op: Sync,
        A: Abstraction<S> + Sync,
        A::AState: Send + Sync,
    {
        let states = sys.states();
        let inputs = sys.inputs();
        let ops = sys.ops();
        self.check_states(sys, abstractions, &states, &inputs, &ops)
    }

    /// Explores reachable states with the sharded BFS, then checks the six
    /// conditions over them. Returns the report plus exploration statistics
    /// (frontier depth, per-shard ownership, reduction counters).
    ///
    /// The caller decides what truncation means for it; the report covers
    /// whatever prefix was explored, exactly like the sequential checker
    /// run over a truncated `reachable_states` result.
    pub fn check_explored<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        initial: &[S::State],
        limit: usize,
    ) -> (CheckReport, ExploreStats)
    where
        S: Finite + Projected + Sync,
        S::State: Send + Sync,
        S::Colour: Send + Sync,
        S::Input: Sync,
        S::Op: Sync,
        A: Abstraction<S> + Sync,
        A::AState: Send + Sync,
    {
        self.check_explored_reduced(sys, abstractions, initial, limit, &Reduction::none())
    }

    /// [`Self::check_explored`] threaded through the state-space reduction
    /// hooks: exploration prunes by orbit key and ample sets, but every
    /// explored state is still checked against the full input and op
    /// alphabets — reductions shrink the state list, never the per-state
    /// condition coverage.
    pub fn check_explored_reduced<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        initial: &[S::State],
        limit: usize,
        reduction: &Reduction<S>,
    ) -> (CheckReport, ExploreStats)
    where
        S: Finite + Projected + Sync,
        S::State: Send + Sync,
        S::Colour: Send + Sync,
        S::Input: Sync,
        S::Op: Sync,
        A: Abstraction<S> + Sync,
        A::AState: Send + Sync,
    {
        let inputs = sys.inputs();
        let (states, stats) = par_explore(
            sys,
            initial,
            &inputs,
            limit,
            self.shards,
            self.dedup,
            reduction,
        );
        let ops = sys.ops();
        let report = self.check_states(sys, abstractions, &states, &inputs, &ops);
        (report, stats)
    }

    /// The six conditions over an explicit state list. Violation candidates
    /// from every worker carry sequential-encounter-order keys; the final
    /// sort-and-replay reproduces the sequential checker's violation list
    /// exactly.
    fn check_states<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        states: &[S::State],
        inputs: &[S::Input],
        ops: &[S::Op],
    ) -> CheckReport
    where
        S: Projected + Sync,
        S::State: Send + Sync,
        S::Colour: Send + Sync,
        S::Input: Sync,
        S::Op: Sync,
        A: Abstraction<S> + Sync,
        A::AState: Send + Sync,
    {
        let cap = self.max_violations_per_condition;
        let shards = self.shards.max(1);
        let mut report = CheckReport {
            states: states.len(),
            ops: ops.len(),
            inputs: inputs.len(),
            ..CheckReport::default()
        };

        let colours_of: Vec<S::Colour> = par_chunks(shards, states.len(), |r| {
            states[r].iter().map(|s| sys.colour(s)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let a_colours: Vec<S::Colour> = abstractions.iter().map(|a| a.colour()).collect();
        let colour_strs: Vec<String> = a_colours.iter().map(|c| format!("{c:?}")).collect();

        // Input-consumption successors, one per (state, input), shared by
        // every abstraction across conditions 3 and 4. The sequential
        // checker recomputes these per colour; on systems where `consume`
        // clones real machine state this — together with the shared
        // (state, op) successors below — is the bulk of the parallel
        // checker's algorithmic advantage. Costs `inputs.len()` extra
        // resident copies of the state list.
        let mids: Vec<S::State> = par_chunks(shards, states.len(), |r| {
            let mut out = Vec::with_capacity(r.len() * inputs.len());
            for s in &states[r] {
                for i in inputs {
                    out.push(sys.consume(s, i));
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
        let mid = |s_idx: usize, i_idx: usize| &mids[s_idx * inputs.len() + i_idx];

        let mut cands: Vec<(Key, Violation)> = Vec::new();

        // Conditions 1 and 2, all abstractions at once: each (state, op)
        // successor is computed once and shared across the N colours.
        let partials = par_chunks(shards, states.len(), |range| {
            let mut checks = [0u64; 6];
            let mut buf = CapBuf::new(cap);
            for idx in range {
                let s = &states[idx];
                let mut phi_cache: Vec<Option<A::AState>> = vec![None; abstractions.len()];
                for (op_idx, op) in ops.iter().enumerate() {
                    let after = sys.apply(op, s);
                    for (a_idx, a) in abstractions.iter().enumerate() {
                        if colours_of[idx] == a_colours[a_idx] {
                            checks[Condition::OpRespectsAbstraction.index()] += 1;
                            let phi_s = phi_cache[a_idx].get_or_insert_with(|| a.phi(sys, s));
                            let phi_after = a.phi(sys, &after);
                            let abstract_after = a.apply_abstract(sys, &a.abop(sys, op), phi_s);
                            if phi_after != abstract_after {
                                buf.push(
                                    Condition::OpRespectsAbstraction,
                                    (a_idx, 0, idx, op_idx),
                                    &colour_strs[a_idx],
                                    format!(
                                        "state {s:?}, op {op:?}: Φ(op(s)) = {phi_after:?} but ABOP(op)(Φ(s)) = {abstract_after:?}"
                                    ),
                                );
                            }
                        } else {
                            checks[Condition::OpInvisibleToInactive.index()] += 1;
                            if !a.phi_eq(sys, &after, s) {
                                let phi_after = a.phi(sys, &after);
                                let phi_s = a.phi(sys, s);
                                buf.push(
                                    Condition::OpInvisibleToInactive,
                                    (a_idx, 0, idx, op_idx),
                                    &colour_strs[a_idx],
                                    format!(
                                        "state {s:?} (active colour {:?}), op {op:?}: view changed from {:?} to {phi_after:?}",
                                        colours_of[idx], phi_s
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            (checks, buf)
        });
        for (checks, buf) in partials {
            for (i, c) in checks.iter().enumerate() {
                report.checks[i] += c;
            }
            cands.extend(buf.drain());
        }

        for (a_idx, a) in abstractions.iter().enumerate() {
            let c = &a_colours[a_idx];
            let colour_str = &colour_strs[a_idx];

            let phis: Vec<A::AState> = par_chunks(shards, states.len(), |r| {
                states[r].iter().map(|s| a.phi(sys, s)).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

            // View groups in first-index order — the same representative
            // construction as the sequential checker.
            let mut reps: HashMap<&A::AState, usize> = HashMap::new();
            let mut members: Vec<(usize, usize)> = Vec::new();
            for (idx, phi) in phis.iter().enumerate() {
                let rep = *reps.entry(phi).or_insert(idx);
                if rep != idx {
                    members.push((idx, rep));
                }
            }

            // Condition 3.
            let partials = par_chunks(shards, members.len(), |range| {
                let mut checks = 0u64;
                let mut buf = CapBuf::new(cap);
                for m in range {
                    let (idx, rep) = members[m];
                    for (i_idx, i) in inputs.iter().enumerate() {
                        checks += 1;
                        let via_s_state = mid(idx, i_idx);
                        let via_rep_state = mid(rep, i_idx);
                        if !a.phi_eq(sys, via_s_state, via_rep_state) {
                            let via_s = a.phi(sys, via_s_state);
                            let via_rep = a.phi(sys, via_rep_state);
                            buf.push(
                                Condition::InputDependsOnlyOnView,
                                (a_idx, 1, idx, i_idx),
                                colour_str,
                                format!(
                                    "states {:?} and {:?} share view {:?} but input {i:?} yields views {via_s:?} vs {via_rep:?}",
                                    states[idx], states[rep], phis[idx]
                                ),
                            );
                        }
                    }
                }
                (checks, buf)
            });
            for (checks, buf) in partials {
                report.checks[Condition::InputDependsOnlyOnView.index()] += checks;
                cands.extend(buf.drain());
            }

            // Condition 4: input groups by EXTRACT(c, i), the sequential
            // checker's exact (order-sensitive) representative choice.
            let views: Vec<S::View> = inputs.iter().map(|i| sys.extract_input(c, i)).collect();
            let mut input_reps: Vec<usize> = Vec::with_capacity(inputs.len());
            {
                let mut seen_views: Vec<(usize, &S::View)> = Vec::new();
                for view in views.iter() {
                    let rep = seen_views
                        .iter()
                        .find(|(_, v)| *v == view)
                        .map(|(idx, _)| *idx);
                    match rep {
                        Some(r) => input_reps.push(r),
                        None => {
                            seen_views.push((input_reps.len(), view));
                            input_reps.push(input_reps.len());
                        }
                    }
                }
            }
            let imembers: Vec<(usize, usize)> = input_reps
                .iter()
                .enumerate()
                .filter(|(i, r)| **r != *i)
                .map(|(i, r)| (i, *r))
                .collect();
            if !imembers.is_empty() {
                let partials = par_chunks(shards, states.len(), |range| {
                    let mut checks = 0u64;
                    let mut buf = CapBuf::new(cap);
                    for s_idx in range {
                        let s = &states[s_idx];
                        for &(i_idx, rep) in &imembers {
                            checks += 1;
                            let via_i_state = mid(s_idx, i_idx);
                            let via_rep_state = mid(s_idx, rep);
                            if !a.phi_eq(sys, via_i_state, via_rep_state) {
                                let via_i = a.phi(sys, via_i_state);
                                let via_rep = a.phi(sys, via_rep_state);
                                buf.push(
                                    Condition::InputDependsOnlyOnOwnComponent,
                                    (a_idx, 2, i_idx, s_idx),
                                    colour_str,
                                    format!(
                                        "inputs {:?} and {:?} agree on colour's component but state {s:?} yields views {via_i:?} vs {via_rep:?}",
                                        inputs[i_idx], inputs[rep]
                                    ),
                                );
                            }
                        }
                    }
                    (checks, buf)
                });
                for (checks, buf) in partials {
                    report.checks[Condition::InputDependsOnlyOnOwnComponent.index()] += checks;
                    cands.extend(buf.drain());
                }
            }

            // Condition 5 (same view groups as condition 3).
            let partials = par_chunks(shards, members.len(), |range| {
                let mut checks = 0u64;
                let mut buf = CapBuf::new(cap);
                let mut out_reps: HashMap<usize, S::View> = HashMap::new();
                for m in range {
                    let (idx, rep) = members[m];
                    checks += 1;
                    let out_s = sys.extract_output(c, &sys.output(&states[idx]));
                    let out_rep = out_reps
                        .entry(rep)
                        .or_insert_with(|| sys.extract_output(c, &sys.output(&states[rep])));
                    if out_s != *out_rep {
                        buf.push(
                            Condition::OutputDependsOnlyOnView,
                            (a_idx, 3, idx, 0),
                            colour_str,
                            format!(
                                "states {:?} and {:?} share view {:?} but outputs project to {out_s:?} vs {out_rep:?}",
                                states[idx], states[rep], phis[idx]
                            ),
                        );
                    }
                }
                (checks, buf)
            });
            for (checks, buf) in partials {
                report.checks[Condition::OutputDependsOnlyOnView.index()] += checks;
                cands.extend(buf.drain());
            }

            // Condition 6: colour-filtered view groups.
            let mut reps6: HashMap<&A::AState, usize> = HashMap::new();
            let mut members6: Vec<(usize, usize)> = Vec::new();
            for (idx, phi) in phis.iter().enumerate() {
                if &colours_of[idx] != c {
                    continue;
                }
                let rep = *reps6.entry(phi).or_insert(idx);
                if rep != idx {
                    members6.push((idx, rep));
                }
            }
            let partials = par_chunks(shards, members6.len(), |range| {
                let mut checks = 0u64;
                let mut buf = CapBuf::new(cap);
                for m in range {
                    let (idx, rep) = members6[m];
                    checks += 1;
                    let op_s = sys.next_op(&states[idx]);
                    let op_rep = sys.next_op(&states[rep]);
                    if op_s != op_rep {
                        buf.push(
                            Condition::NextOpDependsOnlyOnView,
                            (a_idx, 4, idx, 0),
                            colour_str,
                            format!(
                                "states {:?} and {:?} share view {:?} but NEXTOP differs: {op_s:?} vs {op_rep:?}",
                                states[idx], states[rep], phis[idx]
                            ),
                        );
                    }
                }
                (checks, buf)
            });
            for (checks, buf) in partials {
                report.checks[Condition::NextOpDependsOnlyOnView.index()] += checks;
                cands.extend(buf.drain());
            }
        }

        // Deterministic merge: replay every worker's candidates in
        // sequential encounter order through the global per-condition cap.
        cands.sort_by_key(|(key, _)| *key);
        for (_key, v) in cands {
            if report.violations_of(v.condition).count() < cap {
                report.violations.push(v);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SeparabilityChecker;
    use crate::demo::{DemoMachine, Leak};
    use crate::explore::reachable_states;
    use crate::system::Finite;

    #[test]
    fn parallel_matches_sequential_on_demo() {
        for leak in [Leak::None, Leak::OpWritesForeign, Leak::OutputReadsForeign] {
            let m = DemoMachine::leaky(4, leak);
            let seq = SeparabilityChecker::new().check(&m, &m.abstractions());
            for shards in [1, 2, 4] {
                let par = ParallelSeparabilityChecker::new(shards).check(&m, &m.abstractions());
                assert_eq!(seq, par, "leak {leak:?}, shards {shards}");
            }
        }
    }

    #[test]
    fn par_reachable_matches_sequential_order_and_truncation() {
        let m = DemoMachine::secure(4);
        let inputs = m.inputs();
        let (full, t) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
        assert!(!t);
        for shards in [1, 2, 4, 8] {
            let (par, t) = par_reachable_states(&m, &[m.initial()], &inputs, 100_000, shards);
            assert!(!t);
            assert_eq!(full, par, "shards {shards}");
            // Limit boundaries mirror the sequential flag exactly.
            for limit in [0, 1, full.len() - 1, full.len(), full.len() + 1] {
                let (s_seq, t_seq) = reachable_states(&m, &[m.initial()], &inputs, limit);
                let (s_par, t_par) =
                    par_reachable_states(&m, &[m.initial()], &inputs, limit, shards);
                assert_eq!(s_seq, s_par, "limit {limit}, shards {shards}");
                assert_eq!(t_seq, t_par, "limit {limit}, shards {shards}");
            }
        }
    }

    #[test]
    fn explored_check_matches_the_reference_state_set() {
        let m = DemoMachine::secure(4);
        let inputs = m.inputs();
        let (reference, _) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
        for shards in [1, 2, 4] {
            let (report, stats) = ParallelSeparabilityChecker::new(shards).check_explored(
                &m,
                &m.abstractions(),
                &[m.initial()],
                100_000,
            );
            assert!(report.is_separable(), "shards {shards}: {report}");
            assert_eq!(report.states, reference.len(), "shards {shards}");
            assert_eq!(stats.states, reference.len(), "shards {shards}");
            // The seen-set costs 16 bytes per state.
            assert_eq!(stats.fp_bytes, 16 * reference.len() as u64);
        }
    }

    #[test]
    fn bloom_dedup_matches_the_reference_order() {
        let m = DemoMachine::secure(4);
        let inputs = m.inputs();
        let (reference, _) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
        for shards in [1, 4] {
            let (par, stats) = par_explore(
                &m,
                &[m.initial()],
                &inputs,
                100_000,
                shards,
                Dedup::Bloom(crate::fp::BloomParams::default()),
                &Reduction::none(),
            );
            assert!(!stats.truncated);
            assert_eq!(reference, par, "shards {shards}");
            assert!(stats.reduction.bloom_negatives > 0, "Bloom never engaged");
        }
    }
}

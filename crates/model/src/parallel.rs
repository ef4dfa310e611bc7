//! The frontier-sharded Proof of Separability checker: the production
//! explorer and checker.
//!
//! [`ParallelSeparabilityChecker`] produces a [`CheckReport`] **identical**
//! to [`crate::check::SeparabilityChecker`]'s over the reference explorer
//! [`crate::explore::reachable_states`] — same states, same per-condition
//! check counts, same violations in the same order with the same witness
//! text — for every worker count, whenever no reduction is installed.
//! Determinism is engineered, not hoped for:
//!
//! * **Exploration** is level-synchronised BFS. Each level's frontier is
//!   cut into contiguous chunks, one per worker; a worker computes the
//!   successors of its own parents and their seen-set keys. The chunk
//!   outputs concatenate in `(parent, input)` order, so the calling thread
//!   commits them in that order into one seen-set — exactly the discovery
//!   order of the reference explorer, including its truncation rule
//!   (checked before each parent's successors commit).
//! * **Condition checking** runs in two sweeps over the states: the first
//!   computes every per-state fact the conditions read, the second checks
//!   conditions 1–6 per state. Workers emit violation *candidates* keyed by
//!   their position in the sequential checker's encounter order
//!   `(abstraction, phase, major, minor)`. The merge sorts candidates by
//!   key and replays them through the global per-condition cap, reproducing
//!   the sequential violation list bit for bit. Check counts are
//!   order-independent sums.
//!
//! [`par_chunks`] is the only place in this module that spawns threads.
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
//! apply here and nowhere else. The seen-set holds 128-bit state
//! **fingerprints** ([`crate::fp`]) computed once per successor, so
//! exploration memory scales with key count rather than state size.
//! Fingerprint membership is probabilistic only in the cryptographic sense
//! (a collision of two independently-seeded 64-bit hashes); the
//! differential suites pin the unreduced sharded explorer to the
//! exact-dedup reference.

use crate::abstraction::Abstraction;
use crate::canon::{Reduction, ReductionStats};
use crate::check::{CheckReport, Condition, Violation};
use crate::fp::{fingerprint, Bloom, Dedup};
use crate::system::{Finite, Projected, SharedSystem};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// `(abstraction, phase, major, minor)`: a candidate violation's position
/// in the sequential checker's encounter order. Phases: 0 = conditions 1/2
/// (major = state, minor = op), 1 = condition 3 (state, input), 2 =
/// condition 4 (input, state), 3 = condition 5 (state), 4 = condition 6
/// (state).
type Key = (usize, u8, usize, usize);

/// One parent's successors: `(seen-set key, state)` per expanded input, in
/// input order.
type Successors<T> = Vec<(u128, T)>;

/// [`par_chunks`] runs inline, on the calling thread, below this many
/// items: a thread spawn costs more than a few states' work.
const SPAWN_THRESHOLD: usize = 8;

/// Whether [`par_chunks`] spawns threads for `len` items on `workers`.
fn spawns(workers: usize, len: usize) -> bool {
    workers > 1 && len >= SPAWN_THRESHOLD
}

/// Per-worker exploration counters. Worker `w` expands the `w`-th
/// contiguous chunk of every level's frontier; only parents that were
/// committed before any truncation count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Discovered states whose seen-set key is `w` modulo the worker count:
    /// how evenly the key space splits, whichever worker found the state.
    /// Nothing routes on it.
    pub owned: usize,
    /// Frontier states this worker expanded.
    pub expanded: usize,
    /// Successor candidates this worker produced.
    pub routed: usize,
}

/// Aggregate exploration statistics from a sharded BFS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Number of worker threads.
    pub shards: usize,
    /// Total states discovered.
    pub states: usize,
    /// BFS levels processed.
    pub levels: usize,
    /// Levels whose expansion ran on worker threads: at more than one
    /// worker, those at least 8 parents wide. This counter proves the
    /// threaded path engaged.
    pub threaded_levels: usize,
    /// Widest frontier seen.
    pub max_frontier: usize,
    /// Whether exploration hit the state limit.
    pub truncated: bool,
    /// Seen-set key bytes (16 per state) — the footprint a full-state
    /// seen-set would instead spend on whole resident states.
    pub fp_bytes: u64,
    /// State-space reduction counters (symmetry, ample sets, Bloom), over
    /// the committed parents. The sums are worker-count-invariant: every
    /// candidate is committed in the same order at every worker count, and
    /// the Bloom filter grows only at commit.
    pub reduction: ReductionStats,
    /// Per-worker counters, indexed by worker.
    pub per_shard: Vec<ShardStats>,
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

/// Sharded BFS with the discovery order and truncation semantics of
/// [`crate::explore::reachable_states`], under a seen-set policy
/// (optionally a Bloom pre-filter) and threaded through the state-space
/// reduction hooks of [`crate::canon`]. Returns the explored states and
/// the full exploration statistics (including [`ReductionStats`]).
///
/// With `Reduction::none()` this returns exactly the reference states for
/// either policy and every worker count; the worker-invariance of the
/// output and the stats projection is pinned by `explore_determinism`.
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
    let mut seen: HashSet<u128> = HashSet::new();
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
    let residue = |key: u128| (key % shards as u128) as usize;

    let finish = |order: Vec<S::State>, mut stats: ExploreStats| {
        stats.states = order.len();
        stats.fp_bytes = 16 * order.len() as u64;
        (order, stats)
    };

    // Initial states are always admitted; the limit applies when a state
    // is taken up for expansion, exactly as in the reference explorer.
    for s in initial {
        let key = key_of(reduction, s);
        if seen.insert(key) {
            if let Some(filter) = bloom.as_mut() {
                filter.insert(key);
            }
            stats.per_shard[residue(key)].owned += 1;
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
        let width = order.len() - cursor;
        stats.max_frontier = stats.max_frontier.max(width);
        if spawns(shards, width) {
            stats.threaded_levels += 1;
        }

        // Expand: per parent, the (key, successor) pairs of its ample
        // inputs, in input order. Ample lists are ascending, so the
        // concatenated chunks are a subsequence of the unreduced
        // (parent, input) discovery order.
        let frontier = &order[cursor..];
        let chunks: Vec<Vec<Successors<S::State>>> = par_chunks(shards, width, |range| {
            frontier[range]
                .iter()
                .map(|s| {
                    // `step` without the output it would build and the
                    // explorer would discard.
                    let expand = |i: &S::Input| {
                        let mid = sys.consume(s, i);
                        let next = sys.apply(&sys.next_op(&mid), &mid);
                        (key_of(reduction, &next), next)
                    };
                    match reduction.ample {
                        Some(ample) => ample(s, inputs)
                            .indices(inputs.len())
                            .into_iter()
                            .map(|i| expand(&inputs[i]))
                            .collect(),
                        None => inputs.iter().map(expand).collect(),
                    }
                })
                .collect()
        });

        // Commit in (parent, input) order, re-applying the reference
        // truncation rule before each parent. A discovered state is moved
        // into `order` and the seen-set keeps only its 16-byte key. The
        // Bloom filter grows with the seen-set; for each novel key it
        // answered either "definitely absent" (a negative) or "maybe seen"
        // (a false positive).
        for (worker, parents) in chunks.into_iter().enumerate() {
            for successors in parents {
                if order.len() >= limit {
                    stats.truncated = true;
                    return finish(order, stats);
                }
                cursor += 1;
                stats.per_shard[worker].expanded += 1;
                stats.per_shard[worker].routed += successors.len();
                stats.reduction.ample_skips += (inputs.len() - successors.len()) as u64;
                for (key, next) in successors {
                    if !seen.insert(key) {
                        continue;
                    }
                    if let Some(filter) = bloom.as_mut() {
                        if filter.may_contain(key) {
                            stats.reduction.bloom_false_positives += 1;
                        } else {
                            stats.reduction.bloom_negatives += 1;
                        }
                        filter.insert(key);
                    }
                    stats.per_shard[residue(key)].owned += 1;
                    order.push(next);
                }
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

/// One worker's condition tally: check counts, and per condition the `cap`
/// violation candidates with the smallest keys it has seen. The global
/// merge replays the union through the global cap, so a worker never needs
/// more than `cap` survivors per condition regardless of its iteration
/// order.
struct Tally {
    cap: usize,
    checks: [u64; 6],
    per: [Vec<(Key, Violation)>; 6],
}

impl Tally {
    fn new(cap: usize) -> Tally {
        Tally {
            cap,
            checks: [0; 6],
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

/// Runs `f` over the chunk ranges of `0..len` for `workers`, returning
/// results in chunk order (deterministic). Each chunk gets a scoped thread
/// when [`spawns`] says so; otherwise the chunks run inline, in order.
fn par_chunks<R, F>(workers: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, workers);
    if !spawns(workers, len) {
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
/// worker count (see the `differential_checker` test suite), and faster:
/// work is split across threads, and per-`(state, op)` successors are
/// shared across abstractions instead of recomputed per colour.
#[derive(Debug, Clone)]
pub struct ParallelSeparabilityChecker {
    /// Worker threads (1 = single-threaded, still using the sharded data
    /// path).
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
        S::View: Send + Sync,
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
    /// (frontier depth, per-worker counters, reduction counters).
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
        S::View: Send + Sync,
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
        S::View: Send + Sync,
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

    /// The six conditions over an explicit state list, in two sweeps.
    /// Violation candidates from every worker carry sequential-encounter-order
    /// keys; the final sort-and-replay reproduces the sequential checker's
    /// violation list exactly.
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
        S::View: Send + Sync,
        A: Abstraction<S> + Sync,
        A::AState: Send + Sync,
    {
        let cap = self.max_violations_per_condition;
        let workers = self.shards.max(1);
        let (n_in, n_ab) = (inputs.len(), abstractions.len());
        let a_colours: Vec<S::Colour> = abstractions.iter().map(|a| a.colour()).collect();
        let colour_strs: Vec<String> = a_colours.iter().map(|c| format!("{c:?}")).collect();

        // Sweep 1: every per-state fact the conditions read. `mids` holds
        // the input-consumption successors, one per (state, input), shared
        // by every abstraction across conditions 3 and 4 (the sequential
        // checker recomputes these per colour). `phis` and `outs` hold Φ and
        // the output view per (state, abstraction).
        let mut colours: Vec<S::Colour> = Vec::with_capacity(states.len());
        let mut mids: Vec<S::State> = Vec::with_capacity(states.len() * n_in);
        let mut phis: Vec<A::AState> = Vec::with_capacity(states.len() * n_ab);
        let mut outs: Vec<S::View> = Vec::with_capacity(states.len() * n_ab);
        for (c, m, p, o) in par_chunks(workers, states.len(), |range| {
            let (mut c, mut m, mut p, mut o) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for s in &states[range] {
                c.push(sys.colour(s));
                m.extend(inputs.iter().map(|i| sys.consume(s, i)));
                p.extend(abstractions.iter().map(|a| a.phi(sys, s)));
                let out = sys.output(s);
                o.extend(a_colours.iter().map(|c| sys.extract_output(c, &out)));
            }
            (c, m, p, o)
        }) {
            colours.extend(c);
            mids.extend(m);
            phis.extend(p);
            outs.extend(o);
        }
        let mid = |s: usize, i: usize| &mids[s * n_in + i];

        // View groups in first-index order — the sequential checker's
        // representative choices. `reps[s * n_ab + a]` is state s's
        // representative under abstraction a (s itself for a
        // representative); `reps6` groups only the states of the
        // abstraction's own colour (condition 6), and maps every other
        // state to itself.
        let mut reps = vec![0usize; phis.len()];
        let mut reps6 = vec![0usize; phis.len()];
        for a in 0..n_ab {
            let mut all: HashMap<&A::AState, usize> = HashMap::new();
            let mut own: HashMap<&A::AState, usize> = HashMap::new();
            for s in 0..states.len() {
                let phi = &phis[s * n_ab + a];
                reps[s * n_ab + a] = *all.entry(phi).or_insert(s);
                reps6[s * n_ab + a] = if colours[s] == a_colours[a] {
                    *own.entry(phi).or_insert(s)
                } else {
                    s
                };
            }
        }
        // Input groups by EXTRACT(c, i), per abstraction: `(input, rep)` for
        // every input that is not its group's first member.
        let imembers: Vec<Vec<(usize, usize)>> = a_colours
            .iter()
            .map(|c| {
                let views: Vec<S::View> = inputs.iter().map(|i| sys.extract_input(c, i)).collect();
                (0..n_in)
                    .filter_map(|i| {
                        let rep = views.iter().position(|v| *v == views[i]).unwrap_or(i);
                        (rep != i).then_some((i, rep))
                    })
                    .collect()
            })
            .collect();

        // Sweep 2: conditions 1–6 per state.
        let tallies = par_chunks(workers, states.len(), |range| {
            let mut t = Tally::new(cap);
            for idx in range {
                let s = &states[idx];
                // Conditions 1 and 2: each (state, op) successor is
                // computed once and shared across the N abstractions.
                for (op_idx, op) in ops.iter().enumerate() {
                    let after = sys.apply(op, s);
                    for (a_idx, a) in abstractions.iter().enumerate() {
                        let phi_s = &phis[idx * n_ab + a_idx];
                        if colours[idx] == a_colours[a_idx] {
                            t.checks[Condition::OpRespectsAbstraction.index()] += 1;
                            let phi_after = a.phi(sys, &after);
                            let abstract_after = a.apply_abstract(sys, &a.abop(sys, op), phi_s);
                            if phi_after != abstract_after {
                                t.push(
                                    Condition::OpRespectsAbstraction,
                                    (a_idx, 0, idx, op_idx),
                                    &colour_strs[a_idx],
                                    format!(
                                        "state {s:?}, op {op:?}: Φ(op(s)) = {phi_after:?} but ABOP(op)(Φ(s)) = {abstract_after:?}"
                                    ),
                                );
                            }
                        } else {
                            t.checks[Condition::OpInvisibleToInactive.index()] += 1;
                            if !a.phi_eq(sys, &after, s) {
                                let phi_after = a.phi(sys, &after);
                                t.push(
                                    Condition::OpInvisibleToInactive,
                                    (a_idx, 0, idx, op_idx),
                                    &colour_strs[a_idx],
                                    format!(
                                        "state {s:?} (active colour {:?}), op {op:?}: view changed from {phi_s:?} to {phi_after:?}",
                                        colours[idx]
                                    ),
                                );
                            }
                        }
                    }
                }
                for (a_idx, a) in abstractions.iter().enumerate() {
                    let at = idx * n_ab + a_idx;
                    let colour_str = &colour_strs[a_idx];
                    let rep = reps[at];
                    if rep != idx {
                        // Condition 3.
                        for (i_idx, i) in inputs.iter().enumerate() {
                            t.checks[Condition::InputDependsOnlyOnView.index()] += 1;
                            let (via_s_state, via_rep_state) = (mid(idx, i_idx), mid(rep, i_idx));
                            if !a.phi_eq(sys, via_s_state, via_rep_state) {
                                let via_s = a.phi(sys, via_s_state);
                                let via_rep = a.phi(sys, via_rep_state);
                                t.push(
                                    Condition::InputDependsOnlyOnView,
                                    (a_idx, 1, idx, i_idx),
                                    colour_str,
                                    format!(
                                        "states {:?} and {:?} share view {:?} but input {i:?} yields views {via_s:?} vs {via_rep:?}",
                                        s, states[rep], phis[at]
                                    ),
                                );
                            }
                        }
                        // Condition 5 (same view groups as condition 3).
                        t.checks[Condition::OutputDependsOnlyOnView.index()] += 1;
                        let (out_s, out_rep) = (&outs[at], &outs[rep * n_ab + a_idx]);
                        if out_s != out_rep {
                            t.push(
                                Condition::OutputDependsOnlyOnView,
                                (a_idx, 3, idx, 0),
                                colour_str,
                                format!(
                                    "states {:?} and {:?} share view {:?} but outputs project to {out_s:?} vs {out_rep:?}",
                                    s, states[rep], phis[at]
                                ),
                            );
                        }
                    }
                    // Condition 4.
                    for &(i_idx, i_rep) in &imembers[a_idx] {
                        t.checks[Condition::InputDependsOnlyOnOwnComponent.index()] += 1;
                        let (via_i_state, via_rep_state) = (mid(idx, i_idx), mid(idx, i_rep));
                        if !a.phi_eq(sys, via_i_state, via_rep_state) {
                            let via_i = a.phi(sys, via_i_state);
                            let via_rep = a.phi(sys, via_rep_state);
                            t.push(
                                Condition::InputDependsOnlyOnOwnComponent,
                                (a_idx, 2, i_idx, idx),
                                colour_str,
                                format!(
                                    "inputs {:?} and {:?} agree on colour's component but state {s:?} yields views {via_i:?} vs {via_rep:?}",
                                    inputs[i_idx], inputs[i_rep]
                                ),
                            );
                        }
                    }
                    // Condition 6: colour-filtered view groups.
                    let rep6 = reps6[at];
                    if rep6 != idx {
                        t.checks[Condition::NextOpDependsOnlyOnView.index()] += 1;
                        let (op_s, op_rep) = (sys.next_op(s), sys.next_op(&states[rep6]));
                        if op_s != op_rep {
                            t.push(
                                Condition::NextOpDependsOnlyOnView,
                                (a_idx, 4, idx, 0),
                                colour_str,
                                format!(
                                    "states {:?} and {:?} share view {:?} but NEXTOP differs: {op_s:?} vs {op_rep:?}",
                                    s, states[rep6], phis[at]
                                ),
                            );
                        }
                    }
                }
            }
            t
        });

        // Deterministic merge: replay every worker's candidates in
        // sequential encounter order through the global per-condition cap.
        let mut report = CheckReport {
            states: states.len(),
            ops: ops.len(),
            inputs: n_in,
            ..CheckReport::default()
        };
        let mut cands: Vec<(Key, Violation)> = Vec::new();
        for t in tallies {
            for (total, c) in report.checks.iter_mut().zip(t.checks) {
                *total += c;
            }
            cands.extend(t.per.into_iter().flatten());
        }
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

    #[test]
    fn chunks_partition_in_order_and_spawn_only_from_the_threshold() {
        let gen = |g: &mut crate::prop::Gen| {
            let len = if g.bool() {
                g.int(0..=2 * SPAWN_THRESHOLD)
            } else {
                g.int(0..=10_000usize)
            };
            (len, g.int(1..=16usize))
        };
        crate::prop::check(64, gen, |(len, workers)| {
            let ranges = chunk_ranges(len, workers);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges leave a gap or overlap");
                next = r.end;
            }
            assert_eq!(next, len, "ranges do not cover 0..len");
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "uneven chunks {sizes:?}");

            let caller = std::thread::current().id();
            let out = par_chunks(workers, len, |r| (r, std::thread::current().id()));
            let got: Vec<Range<usize>> = out.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(got, ranges, "results out of chunk order");
            let inline = out.iter().filter(|(_, id)| *id == caller).count();
            if workers == 1 || len < SPAWN_THRESHOLD {
                assert_eq!(inline, out.len(), "spawned below the threshold");
            } else {
                assert_eq!(inline, 0, "a chunk ran inline at or above the threshold");
            }
        });
    }
}

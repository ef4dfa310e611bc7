//! Proof of Separability for the real kernel.
//!
//! This module casts a booted [`SeparationKernel`] as a
//! [`sep_model::SharedSystem`] and supplies, for each regime, the
//! abstraction the paper requires: the regime's *abstract machine* is a
//! **single-regime copy of the same kernel** — literally the private,
//! physically isolated machine the regime believes it owns. Condition 1 is
//! then checked by *running* that private machine and comparing; conditions
//! 2–6 are checked on projections.
//!
//! The two-stage step of the formal model maps onto the kernel as:
//!
//! * `INPUT(s, i)` = the **consume phase**: device time advances, host
//!   bytes arrive on serial lines, raised interrupts are fielded into
//!   per-regime pending queues;
//! * `NEXTOP`/`op` = the **execute phase**: one instruction (or interrupt
//!   delivery, or context switch) on behalf of `COLOUR(s)` — the scheduled
//!   regime.
//!
//! Verified configurations must have their channels **cut** (the paper's
//! wire-cutting argument), no preemption quantum (the SUE has none), no DMA,
//! and machine-code regimes only.

use crate::config::{KernelConfig, Mutation, ProgramSpec, RegimeSpec, SchedPolicy};
use crate::kernel::{KernelError, SeparationKernel};
use crate::regime::{RegimeStatus, SaveArea, PARTITION_SIZE};
use sep_machine::asm::assemble;
use sep_machine::dev::InterruptRequest;
use sep_machine::psw::{Mode, Psw};
use sep_machine::types::Word;
use sep_model::abstraction::Abstraction;
use sep_model::canon::{Ample, Reduction};
use sep_model::check::{CheckReport, SeparabilityChecker};
use sep_model::explore::reachable_states;
use sep_model::fp::{fingerprint, Dedup};
use sep_model::parallel::{ExploreStats, ParallelSeparabilityChecker};
use sep_model::system::{Finite, Projected, SharedSystem};
use std::hash::{Hash, Hasher};

/// A kernel state, hashable and comparable through its canonical state
/// vector.
#[derive(Clone)]
pub struct KernelState {
    /// The full kernel (machine, regimes, channels).
    pub kernel: SeparationKernel,
    vector: Vec<u64>,
}

impl KernelState {
    /// Wraps a kernel, capturing its state vector.
    pub fn new(kernel: SeparationKernel) -> KernelState {
        let vector = kernel.state_vector();
        KernelState { kernel, vector }
    }
}

impl PartialEq for KernelState {
    fn eq(&self, other: &Self) -> bool {
        self.vector == other.vector
    }
}

impl Eq for KernelState {}

impl Hash for KernelState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.vector.hash(state);
    }
}

impl core::fmt::Debug for KernelState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "KernelState(current={}, pcs=[{}])",
            self.kernel.current(),
            self.kernel
                .regimes
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let pc = if i == self.kernel.current() {
                        self.kernel.machine.cpu.pc
                    } else {
                        r.save.pc
                    };
                    format!("{pc:o}")
                })
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// One step of input: at most one serial byte per regime.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KInput(pub Vec<Option<u8>>);

/// The colour-generic operations of the kernel system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KOp {
    /// One execute phase on behalf of the scheduled regime.
    Step,
    /// The scheduled regime faults (as if it had trapped or been hit by an
    /// injected fault). Only in the op set when
    /// [`KernelSystem::with_fault_ops`] enabled it.
    Fault,
}

/// The kernel as a shared system over regime colours.
pub struct KernelSystem {
    /// The booted initial kernel.
    pub template: SeparationKernel,
    config: KernelConfig,
    /// The input alphabet used for exploration and conditions 3/4.
    pub inputs: Vec<KInput>,
    /// Bound on reachable-state enumeration.
    pub state_limit: usize,
    /// Whether [`KOp::Fault`] is in the op set and exploration additionally
    /// starts from each per-regime pre-faulted initial state.
    pub fault_ops: bool,
    /// Seen-set policy of the sharded checker: 128-bit fingerprints
    /// (default), optionally behind a Bloom pre-filter. The reference
    /// checker ([`CheckerSelect::Sequential`]) always deduplicates by full
    /// state and ignores it.
    pub dedup: Dedup,
    /// Regime-symmetry reduction: when the configuration is rotation
    /// symmetric (see [`KernelSystem::valid_rotations`]), explore orbit
    /// representatives only — states equal up to a cyclic relabelling of
    /// identical-image regimes collapse to one canonical fingerprint.
    pub symmetry: bool,
    /// Partial-order reduction: at each state, defer serial-byte inputs
    /// whose footprint is independent of the scheduled regime's step (see
    /// [`KernelSystem::ample_of`]), exploring an ample subset of the input
    /// alphabet. Conditions are still checked over the *full* alphabet at
    /// every explored state.
    pub por: bool,
}

impl KernelSystem {
    /// Builds the verification adapter. The configuration must be a
    /// *verifiable* one: channels cut (or absent), no quantum, no DMA, and
    /// no native regimes.
    pub fn new(config: KernelConfig) -> Result<KernelSystem, KernelError> {
        assert!(
            config.channels.is_empty() || config.channels_cut,
            "verified configurations must cut their channels first \
             (KernelConfig::cut_channels) — that is the wire-cutting argument"
        );
        assert!(
            config.sched.verifiable(),
            "verified configurations need a cooperative scheduling policy \
             (round-robin or static-cyclic): a preemptive policy switches \
             or pads without the regime executing, while its single-regime \
             abstract machine executes — condition 1 cannot hold"
        );
        assert!(!config.allow_dma, "verified configurations exclude DMA");
        assert!(
            config
                .regimes
                .iter()
                .all(|r| !matches!(r.program, crate::config::ProgramSpec::Native(_))),
            "verified configurations use machine-code regimes"
        );
        let template = SeparationKernel::boot(config.clone())?;
        let n = config.regimes.len();
        Ok(KernelSystem {
            template,
            config,
            inputs: vec![KInput(vec![None; n])],
            state_limit: 200_000,
            fault_ops: false,
            dedup: Dedup::default(),
            symmetry: false,
            por: false,
        })
    }

    /// Selects the sharded checker's seen-set policy (plain fingerprints
    /// or fingerprints behind a Bloom pre-filter).
    pub fn with_dedup(mut self, dedup: Dedup) -> KernelSystem {
        self.dedup = dedup;
        self
    }

    /// Toggles the regime-symmetry reduction. Safe to enable
    /// unconditionally: when [`KernelSystem::valid_rotations`] is empty the
    /// knob is inert and exploration is unreduced.
    pub fn with_symmetry(mut self, on: bool) -> KernelSystem {
        self.symmetry = on;
        self
    }

    /// Toggles the partial-order (ample-set) reduction. Like symmetry it
    /// applies to the sharded explorer only.
    pub fn with_por(mut self, on: bool) -> KernelSystem {
        self.por = on;
        self
    }

    /// Adds [`KOp::Fault`] to the op set, so the Proof of Separability
    /// additionally quantifies over "the scheduled regime faults here" at
    /// every reachable state, and seeds exploration with each per-regime
    /// pre-faulted initial state so post-fault trajectories (backoff,
    /// re-imaging, exhausted budgets) are themselves explored under `Step`.
    pub fn with_fault_ops(mut self) -> KernelSystem {
        self.fault_ops = true;
        self
    }

    /// The initial states exploration starts from: the booted kernel, plus
    /// (with fault ops) one variant per regime in which that regime has
    /// already faulted.
    pub fn initial_states(&self) -> Vec<KernelState> {
        let mut states = vec![self.initial()];
        if self.fault_ops {
            for r in 0..self.config.regimes.len() {
                let mut k = self.template.clone();
                k.inject_fault(r);
                states.push(KernelState::new(k));
            }
        }
        states
    }

    /// Extends the input alphabet: for each regime and each byte, an input
    /// delivering that byte to that regime's serial line.
    pub fn with_input_bytes(mut self, bytes: &[u8]) -> KernelSystem {
        let n = self.config.regimes.len();
        for r in 0..n {
            for &b in bytes {
                let mut v = vec![None; n];
                v[r] = Some(b);
                self.inputs.push(KInput(v));
            }
        }
        self
    }

    /// The initial state.
    pub fn initial(&self) -> KernelState {
        KernelState::new(self.template.clone())
    }

    /// One abstraction per regime, each owning a single-regime copy of the
    /// kernel as its abstract machine.
    pub fn abstractions(&self) -> Vec<RegimeAbstraction> {
        (0..self.config.regimes.len())
            .map(|r| RegimeAbstraction::new(&self.config, r).expect("sub-configuration boots"))
            .collect()
    }
}

/// The set of regimes and channels a transition can read or write, as
/// bitmasks over configuration indices. Two transitions with disjoint
/// footprints commute — *because* the kernel is a separation kernel:
/// regimes own their partitions, devices, and (cut) channel ends
/// exclusively, so the only coupling between a step and an input delivery
/// is through the resources both name. The separability being verified is
/// itself what justifies the independence relation the partial-order
/// reduction leans on; the reduction differential suite pins the circle
/// closed empirically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Bitmask of regime indices touched.
    pub regimes: u32,
    /// Bitmask of channel indices touched.
    pub channels: u32,
}

impl Footprint {
    /// Whether two footprints share any regime or channel.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        self.regimes & other.regimes != 0 || self.channels & other.channels != 0
    }
}

impl KernelSystem {
    /// The footprint of an input: the regimes whose serial lines it feeds.
    /// Inputs never touch channels.
    pub fn input_footprint(&self, i: &KInput) -> Footprint {
        let mut regimes = 0u32;
        for (r, b) in i.0.iter().enumerate() {
            if b.is_some() {
                regimes |= 1 << r;
            }
        }
        Footprint {
            regimes,
            channels: 0,
        }
    }

    /// The footprint of the execute phase at `s`: the scheduled regime
    /// (its registers, partition, devices, pending queue) plus the cut
    /// channels it sends on — a cut channel's queue is written by its
    /// sender alone.
    pub fn step_footprint(&self, s: &KernelState) -> Footprint {
        let current = s.kernel.current();
        let logical = self.config.regimes[current].logical.unwrap_or(current);
        let mut channels = 0u32;
        for (c, ch) in self.config.channels.iter().enumerate() {
            if ch.from == logical {
                channels |= 1 << c;
            }
        }
        Footprint {
            regimes: 1 << current,
            channels,
        }
    }

    /// The rotations `k` under which this configuration is symmetric: every
    /// regime's *image* (program, devices, fault policy, watchdog) equals
    /// the image `k` slots ahead, and nothing in the configuration pins a
    /// slot identity. Rotations — not arbitrary permutations — because the
    /// round-robin scheduler distinguishes regime *order*: only a cyclic
    /// relabelling maps "the regime after r" onto "the regime after
    /// rot(r)".
    ///
    /// Requirements, each of which otherwise breaks the automorphism:
    /// * at least two regimes and no channels (channel endpoints name
    ///   slots);
    /// * effective round-robin scheduling (a static-cyclic table names
    ///   slots);
    /// * no [`Mutation::ScratchInPartition`] (it pins slot 0 as scratch);
    /// * assembly programs only, pairwise equal under the rotation, with no
    ///   assembled `TRAP 4` word (MYID answers the slot identity) and no
    ///   `logical` override;
    /// * the input alphabet closed under the rotation, so every explored
    ///   trajectory's relabelling is again a trajectory.
    pub fn valid_rotations(&self) -> Vec<usize> {
        let n = self.config.regimes.len();
        if n < 2
            || !self.config.channels.is_empty()
            || !matches!(self.config.sched, SchedPolicy::RoundRobin)
            || self.config.mutation == Mutation::ScratchInPartition
        {
            return Vec::new();
        }
        (1..n)
            .filter(|&k| {
                (0..n).all(|i| {
                    rotation_equal(&self.config.regimes[i], &self.config.regimes[(i + k) % n])
                }) && self.inputs_closed_under(k)
            })
            .collect()
    }

    /// Whether rotating every input vector by `k` lands back in the
    /// alphabet (`w[(i+k) % n] = v[i]`).
    fn inputs_closed_under(&self, k: usize) -> bool {
        let n = self.config.regimes.len();
        self.inputs.iter().all(|v| {
            let mut w = vec![None; n];
            for (i, b) in v.0.iter().enumerate() {
                w[(i + k) % n] = *b;
            }
            self.inputs.contains(&KInput(w))
        })
    }

    /// The ample input set at `s`: the indices of inputs that are *not*
    /// deferrable. An input is deferrable when it feeds only regimes
    /// independent of the scheduled regime's step — disjoint
    /// [`Footprint`]s, every fed regime `Ready` (so the delivery cannot
    /// flip a status the scheduler is about to read), and every fed regime
    /// actually schedulable (so the deferred delivery is eventually
    /// explored from a later state). The null input is never deferrable,
    /// so the ample set is never empty and exploration never stalls.
    pub fn ample_of(&self, s: &KernelState, inputs: &[KInput]) -> Ample {
        let step = self.step_footprint(s);
        let mut keep = Vec::new();
        let mut deferred = false;
        for (idx, i) in inputs.iter().enumerate() {
            if self.deferrable(s, i, &step) {
                deferred = true;
            } else {
                keep.push(idx);
            }
        }
        if deferred {
            Ample::Subset(keep)
        } else {
            Ample::All
        }
    }

    fn deferrable(&self, s: &KernelState, i: &KInput, step: &Footprint) -> bool {
        let fp = self.input_footprint(i);
        if fp.regimes == 0 || fp.overlaps(step) {
            return false;
        }
        (0..self.config.regimes.len())
            .filter(|r| fp.regimes & (1 << r) != 0)
            .all(|r| s.kernel.regimes[r].status == RegimeStatus::Ready && self.schedulable(r))
    }

    /// Whether the scheduler can ever offer regime `r` a slot.
    fn schedulable(&self, r: usize) -> bool {
        match &self.config.sched {
            SchedPolicy::RoundRobin => true,
            SchedPolicy::StaticCyclic { table } => table.contains(&r),
            // `new` rejects preemptive policies outright.
            _ => false,
        }
    }

    /// Builds the [`Reduction`] the knobs select and hands it to `f`.
    /// Scoped because the reduction borrows its closures.
    fn with_reduction<R>(&self, f: impl FnOnce(&Reduction<'_, KernelSystem>) -> R) -> R {
        let rotations = if self.symmetry {
            self.valid_rotations()
        } else {
            Vec::new()
        };
        let canon_fn = |s: &KernelState| canon_key(&rotations, s);
        let ample_fn = |s: &KernelState, inputs: &[KInput]| self.ample_of(s, inputs);
        let mut reduction: Reduction<'_, KernelSystem> = Reduction::none();
        if !rotations.is_empty() {
            reduction.canon = Some(&canon_fn);
        }
        if self.por {
            reduction.ample = Some(&ample_fn);
        }
        f(&reduction)
    }

    /// Enumerates the reachable state space with the sharded explorer,
    /// reduced as the symmetry, partial-order and dedup knobs select; the
    /// returned [`ExploreStats`] carry the reduction counters.
    pub fn explore_sharded(&self, shards: usize) -> (Vec<KernelState>, ExploreStats) {
        self.with_reduction(|red| {
            let (states, stats) = sep_model::parallel::par_explore(
                self,
                &self.initial_states(),
                &self.inputs,
                self.state_limit,
                shards,
                self.dedup,
                red,
            );
            assert!(
                !stats.truncated,
                "kernel state space exceeded limit {}",
                self.state_limit
            );
            (states, stats)
        })
    }
}

/// Whether regime image `a` may be relabelled as `b` under a rotation:
/// identical assembly source (that never asks MYID), identical devices,
/// fault policy and watchdog, and no logical-identity override.
fn rotation_equal(a: &RegimeSpec, b: &RegimeSpec) -> bool {
    let (ProgramSpec::Assembly(sa), ProgramSpec::Assembly(sb)) = (&a.program, &b.program) else {
        return false;
    };
    sa == sb
        && !program_asks_identity(sa)
        && a.logical.is_none()
        && b.logical.is_none()
        && a.devices == b.devices
        && a.fault_policy == b.fault_policy
        && a.watchdog == b.watchdog
}

/// The assembled `TRAP 4` instruction: the MYID syscall.
const TRAP_MYID: Word = 0o104404;

/// Whether a program may ask MYID, decided on the assembled words so that
/// mnemonic case and label operands cannot hide a `TRAP 4`: any
/// `0o104404` word disqualifies the program from symmetry, data included,
/// and so does source that fails to assemble.
fn program_asks_identity(src: &str) -> bool {
    match assemble(src) {
        Ok(program) => program.words.contains(&TRAP_MYID),
        Err(_) => true,
    }
}

/// The canonical orbit fingerprint of a state: the minimum, over the
/// identity and every valid rotation `k`, of the fingerprint of the
/// kernel's rotation-invariant [`SeparationKernel::symmetry_vector`].
/// States equal up to a valid rotation share this key, so the sharded
/// explorer's seen-sets collapse each orbit to its first-discovered member.
pub fn canon_key(rotations: &[usize], s: &KernelState) -> u128 {
    let mut best = fingerprint(&s.kernel.symmetry_vector(0));
    for &k in rotations {
        best = best.min(fingerprint(&s.kernel.symmetry_vector(k)));
    }
    best
}

impl SharedSystem for KernelSystem {
    type State = KernelState;
    type Input = KInput;
    type Output = Vec<Vec<Word>>;
    type Colour = usize;
    type Op = KOp;

    fn colours(&self) -> Vec<usize> {
        (0..self.config.regimes.len()).collect()
    }

    fn colour(&self, s: &KernelState) -> usize {
        s.kernel.current()
    }

    fn output(&self, s: &KernelState) -> Vec<Vec<Word>> {
        // Each regime's output is the externally visible state of its
        // devices (line levels, last transmitted bytes, printed characters
        // in flight) — its environment's entire window onto it.
        s.kernel
            .regimes
            .iter()
            .map(|rec| {
                let mut out = Vec::new();
                for b in &rec.devices {
                    if let Some(d) = s.kernel.machine.devices.get(b.machine_index) {
                        out.extend(d.snapshot());
                    }
                }
                out
            })
            .collect()
    }

    fn consume(&self, s: &KernelState, i: &KInput) -> KernelState {
        let mut kernel = s.kernel.clone();
        let _ = kernel.consume_phase(&i.0);
        KernelState::new(kernel)
    }

    fn next_op(&self, _s: &KernelState) -> KOp {
        // Constant, hence trivially a function of the current regime's own
        // view (condition 6): regimes step; faults *happen to* them, so
        // Fault is never the scheduled next op.
        KOp::Step
    }

    fn apply(&self, op: &KOp, s: &KernelState) -> KernelState {
        let mut kernel = s.kernel.clone();
        match op {
            KOp::Step => {
                let _ = kernel.exec_phase();
            }
            KOp::Fault => {
                let current = kernel.current();
                let _ = kernel.inject_fault(current);
            }
        }
        KernelState::new(kernel)
    }
}

impl Projected for KernelSystem {
    type View = Vec<Word>;

    fn extract_input(&self, c: &usize, i: &KInput) -> Vec<Word> {
        match i.0.get(*c).copied().flatten() {
            Some(b) => vec![1, b as Word],
            None => Vec::new(),
        }
    }

    fn extract_output(&self, c: &usize, o: &Vec<Vec<Word>>) -> Vec<Word> {
        o.get(*c).cloned().unwrap_or_default()
    }
}

impl Finite for KernelSystem {
    /// The reference state set: every reachable state, found by the naive
    /// exact-dedup explorer. The symmetry, partial-order and dedup knobs
    /// do not apply here — the sequential checker always covers the
    /// unreduced space, which is what makes it the oracle for the sharded
    /// checker's reductions.
    fn states(&self) -> Vec<KernelState> {
        let (states, truncated) =
            reachable_states(self, &self.initial_states(), &self.inputs, self.state_limit);
        assert!(
            !truncated,
            "kernel state space exceeded limit {}",
            self.state_limit
        );
        states
    }

    fn inputs(&self) -> Vec<KInput> {
        self.inputs.clone()
    }

    fn ops(&self) -> Vec<KOp> {
        if self.fault_ops {
            vec![KOp::Step, KOp::Fault]
        } else {
            vec![KOp::Step]
        }
    }
}

/// Which Proof of Separability checker to run over a [`KernelSystem`].
///
/// With the reductions off, both selections produce an *identical*
/// [`CheckReport`] — same check counts, same violations in the same order —
/// which the differential test suite
/// (`crates/model/tests/differential_checker.rs`) pins for every workload,
/// mutation, and shard count. With symmetry or partial order on, the
/// sharded checker covers a reduced state set and must reach the same
/// verdict and violated conditions as the reference
/// (`crates/model/tests/reduction_differential.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckerSelect {
    /// The single-threaded reference checker over the unreduced state set
    /// of the naive exact-dedup explorer, whatever the symmetry, partial
    /// order and dedup knobs say.
    Sequential,
    /// The frontier-sharded checker with `shards` worker threads: the
    /// production path, reduced as the knobs select.
    Sharded {
        /// Worker/owner thread pairs.
        shards: usize,
    },
}

impl KernelSystem {
    /// Runs the Proof of Separability with the selected checker.
    pub fn check_with(&self, sel: &CheckerSelect) -> CheckReport {
        self.check_with_stats(sel).0
    }

    /// Like [`KernelSystem::check_with`], additionally returning the
    /// exploration statistics (frontier depth, per-shard ownership,
    /// reduction counters) when the sharded checker ran.
    pub fn check_with_stats(&self, sel: &CheckerSelect) -> (CheckReport, Option<ExploreStats>) {
        let abstractions = self.abstractions();
        let shards = match sel {
            CheckerSelect::Sequential => {
                return (SeparabilityChecker::new().check(self, &abstractions), None)
            }
            CheckerSelect::Sharded { shards } => *shards,
        };
        let checker = ParallelSeparabilityChecker::new(shards).with_dedup(self.dedup);
        let (report, stats) = self.with_reduction(|red| {
            checker.check_explored_reduced(
                self,
                &abstractions,
                &self.initial_states(),
                self.state_limit,
                red,
            )
        });
        assert!(
            !stats.truncated,
            "kernel state space exceeded limit {}",
            self.state_limit
        );
        (report, Some(stats))
    }
}

/// A regime's view of the concrete machine: exactly the contents of its
/// private abstract machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegimeProjection {
    /// Scheduling status.
    pub status: RegimeStatus,
    /// The execution context as the regime can see it (the live CPU when it
    /// is current, its save area otherwise).
    pub context: SaveArea,
    /// Its partition's bytes.
    pub partition: Vec<u8>,
    /// Its devices' snapshots, in binding order.
    pub devices: Vec<Vec<Word>>,
    /// Interrupts pending for it.
    pub pending: Vec<(usize, InterruptRequest)>,
    /// Queues of the (cut) channels it is an endpoint of, in channel order.
    pub channels: Vec<Vec<Vec<u8>>>,
    /// Sticky backpressure bits of those channels (constant `false` under
    /// the live and quantized depth policies).
    pub latches: Vec<bool>,
    /// Restarts consumed from this regime's [`crate::regime::FaultPolicy`]
    /// budget. Regime-local recovery state: it determines whether another
    /// fault is survivable, so it is part of the regime's view.
    pub restarts_used: u32,
    /// Scheduler offers left before a pending restart re-images.
    pub backoff_left: u32,
    /// Instructions since the last voluntary yield (moves only under an
    /// armed watchdog).
    pub instr_since_yield: u64,
}

/// Φ^c and the abstract machine for one regime.
pub struct RegimeAbstraction {
    regime: usize,
    /// The regime's private machine: a single-regime kernel booted from the
    /// same specification.
    template: SeparationKernel,
    /// Channel indices (in the full system) this regime may observe.
    visible_channels: Vec<usize>,
}

impl RegimeAbstraction {
    /// Builds the abstraction for `regime` of `config`.
    pub fn new(config: &KernelConfig, regime: usize) -> Result<RegimeAbstraction, KernelError> {
        let logical = config.regimes[regime].logical.unwrap_or(regime);
        let mut spec = config.regimes[regime].clone();
        spec.logical = Some(logical);
        // A *cut* channel's queue is written only by its sender; it is part
        // of the sender's view and nobody else's (the receiver of a cut
        // channel sees a constant empty end).
        let visible_channels: Vec<usize> = config
            .channels
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.from == logical)
            .map(|(i, _)| i)
            .collect();
        // The sub-configuration keeps the *entire* channel list so channel
        // ids mean the same thing on the abstract machine.
        let sub = KernelConfig {
            regimes: vec![spec],
            channels: config.channels.clone(),
            channels_cut: true,
            // The single-regime machine always schedules its one regime;
            // round-robin expresses that under every verifiable policy.
            sched: crate::config::SchedPolicy::RoundRobin,
            allow_dma: false,
            mutation: crate::config::Mutation::None,
            // Abstract machines never trace: their job is state equality,
            // and traces are not modelled state anyway.
            trace: None,
        };
        let template = SeparationKernel::boot(sub)?;
        Ok(RegimeAbstraction {
            regime,
            template,
            visible_channels,
        })
    }

    /// Projects regime `r`'s view out of a kernel (`r` is an index into
    /// `kernel.regimes`).
    fn project(
        kernel: &SeparationKernel,
        r: usize,
        visible_channels: &[usize],
    ) -> RegimeProjection {
        let rec = &kernel.regimes[r];
        let context = if kernel.current() == r {
            SaveArea {
                r: kernel.machine.cpu.r,
                sp: kernel.machine.cpu.sp_of(Mode::User),
                pc: kernel.machine.cpu.pc,
                cc: kernel.machine.cpu.psw.cc_bits(),
            }
        } else {
            rec.save
        };
        let partition = kernel
            .machine
            .mem
            .range(rec.partition_base, PARTITION_SIZE)
            .to_vec();
        let devices = rec
            .devices
            .iter()
            .map(|b| {
                // A binding's machine index is valid by construction; a
                // stale one is a kernel bug that an empty default snapshot
                // would mask as "two devices agree".
                kernel
                    .machine
                    .devices
                    .get(b.machine_index)
                    .expect("bound device present")
                    .snapshot()
            })
            .collect();
        let channels = visible_channels
            .iter()
            .filter_map(|&i| kernel.channels.get(i))
            .map(|c| c.queue().iter().cloned().collect())
            .collect();
        let latches = visible_channels
            .iter()
            .filter_map(|&i| kernel.channels.get(i))
            .map(|c| c.latched_full)
            .collect();
        RegimeProjection {
            status: rec.status,
            context,
            partition,
            devices,
            pending: rec.pending_irqs.iter().copied().collect(),
            channels,
            latches,
            restarts_used: rec.restarts_used,
            backoff_left: rec.backoff_left,
            instr_since_yield: rec.instr_since_yield,
        }
    }

    /// Imposes a projection onto the private machine (regime index 0).
    fn impose(&self, a: &RegimeProjection) -> SeparationKernel {
        let mut k = self.template.clone();
        k.regimes[0].status = a.status;
        // Context: the single regime is always current, so load it live.
        k.machine.cpu.r = a.context.r;
        k.machine.cpu.set_sp_of(Mode::User, a.context.sp);
        k.machine.cpu.pc = a.context.pc;
        let mut psw = Psw::user();
        psw.set_cc_bits(a.context.cc);
        k.machine.cpu.psw = psw;
        // Partition contents.
        let base = k.regimes[0].partition_base;
        for (i, b) in a.partition.iter().enumerate() {
            k.machine.mem.write_byte(base + i as u32, *b);
        }
        // Devices.
        let bindings = k.regimes[0].devices.clone();
        for (binding, snap) in bindings.iter().zip(&a.devices) {
            if let Some(d) = k.machine.devices.get_mut(binding.machine_index) {
                d.restore(snap);
            }
        }
        // Fault-recovery state.
        k.regimes[0].restarts_used = a.restarts_used;
        k.regimes[0].backoff_left = a.backoff_left;
        k.regimes[0].instr_since_yield = a.instr_since_yield;
        // Pending interrupts and channels.
        k.regimes[0].pending_irqs = a.pending.iter().copied().collect();
        for (&idx, msgs) in self.visible_channels.iter().zip(&a.channels) {
            k.channels[idx].restore_queue(msgs.clone());
        }
        for (&idx, &latched) in self.visible_channels.iter().zip(&a.latches) {
            k.channels[idx].latched_full = latched;
        }
        k
    }
}

impl Abstraction<KernelSystem> for RegimeAbstraction {
    type AState = RegimeProjection;
    type AOp = KOp;

    fn colour(&self) -> usize {
        self.regime
    }

    fn phi(&self, _sys: &KernelSystem, s: &KernelState) -> RegimeProjection {
        RegimeAbstraction::project(&s.kernel, self.regime, &self.visible_channels)
    }

    fn abop(&self, _sys: &KernelSystem, op: &KOp) -> KOp {
        *op
    }

    fn apply_abstract(
        &self,
        _sys: &KernelSystem,
        aop: &KOp,
        a: &RegimeProjection,
    ) -> RegimeProjection {
        let mut k = self.impose(a);
        match aop {
            KOp::Step => {
                let _ = k.exec_phase();
            }
            // On the private machine "the scheduled regime faults" is
            // simply "my regime faults": same containment code, one regime.
            KOp::Fault => {
                let _ = k.inject_fault(0);
            }
        }
        // The sub-configuration keeps the full channel list, so the visible
        // indices carry over unchanged.
        RegimeAbstraction::project(&k, 0, &self.visible_channels)
    }

    /// In-place `Φ^c(s1) = Φ^c(s2)`: compares every component the
    /// projection would capture — status, context, partition bytes, device
    /// snapshots, pending interrupts, visible channel queues — without
    /// cloning the 8 KiB partition into a [`RegimeProjection`]. Agrees
    /// exactly with `phi(s1) == phi(s2)` (pinned by a test below); the
    /// parallel checker leans on this for conditions 2–4, materialising
    /// views only when it needs a violation witness.
    fn phi_eq(&self, _sys: &KernelSystem, s1: &KernelState, s2: &KernelState) -> bool {
        let (k1, k2) = (&s1.kernel, &s2.kernel);
        let r = self.regime;
        let (r1, r2) = (&k1.regimes[r], &k2.regimes[r]);
        if r1.status != r2.status {
            return false;
        }
        if r1.restarts_used != r2.restarts_used
            || r1.backoff_left != r2.backoff_left
            || r1.instr_since_yield != r2.instr_since_yield
        {
            return false;
        }
        let c1 = if k1.current() == r {
            SaveArea {
                r: k1.machine.cpu.r,
                sp: k1.machine.cpu.sp_of(Mode::User),
                pc: k1.machine.cpu.pc,
                cc: k1.machine.cpu.psw.cc_bits(),
            }
        } else {
            r1.save
        };
        let c2 = if k2.current() == r {
            SaveArea {
                r: k2.machine.cpu.r,
                sp: k2.machine.cpu.sp_of(Mode::User),
                pc: k2.machine.cpu.pc,
                cc: k2.machine.cpu.psw.cc_bits(),
            }
        } else {
            r2.save
        };
        if c1 != c2 {
            return false;
        }
        if k1.machine.mem.range(r1.partition_base, PARTITION_SIZE)
            != k2.machine.mem.range(r2.partition_base, PARTITION_SIZE)
        {
            return false;
        }
        if r1.devices.len() != r2.devices.len() {
            return false;
        }
        for (b1, b2) in r1.devices.iter().zip(&r2.devices) {
            // Same invariant as `project`: a binding always resolves, and
            // defaulting both sides to empty would turn a kernel bug into a
            // spurious equality.
            let d1 = k1
                .machine
                .devices
                .get(b1.machine_index)
                .expect("bound device present")
                .snapshot();
            let d2 = k2
                .machine
                .devices
                .get(b2.machine_index)
                .expect("bound device present")
                .snapshot();
            if d1 != d2 {
                return false;
            }
        }
        if !r1.pending_irqs.iter().eq(r2.pending_irqs.iter()) {
            return false;
        }
        for &i in &self.visible_channels {
            let q1 = k1.channels.get(i).map(|c| c.queue());
            let q2 = k2.channels.get(i).map(|c| c.queue());
            if q1 != q2 {
                return false;
            }
            let l1 = k1.channels.get(i).map(|c| c.latched_full);
            let l2 = k2.channels.get(i).map(|c| c.latched_full);
            if l1 != l2 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelConfig, RegimeSpec};

    fn two_counters() -> KernelConfig {
        // Two regimes, each incrementing a private counter then yielding.
        let prog = "
start:  INC counter
        MOV #3, R3
        TRAP 0          ; SWAP
        BR start
counter: .word 0
";
        let prog2 = "
start:  ADD #2, counter
        MOV #5, R3
        TRAP 0
        BR start
counter: .word 0
";
        KernelConfig::new(vec![
            RegimeSpec::assembly("red", prog),
            RegimeSpec::assembly("black", prog2),
        ])
    }

    #[test]
    fn projection_roundtrip_through_impose() {
        let sys = KernelSystem::new(two_counters()).unwrap();
        let abstractions = sys.abstractions();
        let s0 = sys.initial();
        for a in &abstractions {
            let phi = a.phi(&sys, &s0);
            let imposed = a.impose(&phi);
            let back = RegimeAbstraction::project(&imposed, 0, &a.visible_channels);
            assert_eq!(back, phi);
        }
    }

    /// Like [`two_counters`] but with the counters masked down to three
    /// bits, so the reachable state space is small enough to enumerate.
    /// (`two_counters` itself runs its counters through the full word
    /// range — fine for single-state tests, hopeless for exploration.)
    fn two_bounded_counters() -> KernelConfig {
        let prog = "
start:  INC R1
        BIC #0o177770, R1
        MOV #3, R3
        TRAP 0          ; SWAP
        BR start
";
        let prog2 = "
start:  ADD #2, R1
        BIC #0o177770, R1
        MOV #5, R3
        TRAP 0
        BR start
";
        KernelConfig::new(vec![
            RegimeSpec::assembly("red", prog),
            RegimeSpec::assembly("black", prog2),
        ])
    }

    #[test]
    fn phi_eq_agrees_with_materialised_phi() {
        // The in-place override must agree with `phi(s1) == phi(s2)` on
        // every pair of reachable states — the parallel checker's
        // correctness rests on this equivalence.
        let sys = KernelSystem::new(two_bounded_counters()).unwrap();
        let states = sys.states();
        for a in &sys.abstractions() {
            let phis: Vec<RegimeProjection> = states.iter().map(|s| a.phi(&sys, s)).collect();
            for (i, s1) in states.iter().enumerate() {
                for (j, s2) in states.iter().enumerate() {
                    assert_eq!(
                        a.phi_eq(&sys, s1, s2),
                        phis[i] == phis[j],
                        "phi_eq diverges from phi at pair ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn checker_selection_is_report_identical() {
        let sys = KernelSystem::new(two_bounded_counters()).unwrap();
        let (seq, no_stats) = sys.check_with_stats(&CheckerSelect::Sequential);
        assert!(no_stats.is_none());
        for shards in [1, 2] {
            let (par, stats) = sys.check_with_stats(&CheckerSelect::Sharded { shards });
            assert_eq!(seq, par, "shards {shards}");
            let stats = stats.expect("sharded runs report stats");
            assert_eq!(stats.states, seq.states);
        }
    }

    #[test]
    fn consume_then_apply_matches_full_step() {
        let sys = KernelSystem::new(two_counters()).unwrap();
        let s0 = sys.initial();
        let i = KInput(vec![None, None]);
        let (_, s1) = sys.step(&s0, &i);
        let mut direct = sys.template.clone();
        direct.step();
        assert_eq!(KernelState::new(direct), s1);
    }
}

//! Static kernel configuration.
//!
//! Everything about a SUE-style system is fixed at generation time: the
//! regimes, their programs, the devices each owns, and the channels between
//! them. There is no dynamic creation of anything — which is precisely what
//! makes the kernel small and its verification tractable.

use crate::regime::{FaultPolicy, NativeRegime};
use crate::sched::{FixedTimeSlice, Lottery, RoundRobin, Scheduler, StaticCyclic};
use sep_machine::types::Word;

/// How a regime's program is supplied.
pub enum ProgramSpec {
    /// Assembly source, assembled at boot (origin 0 in the partition).
    Assembly(String),
    /// Pre-assembled words, loaded at partition offset 0.
    Words(Vec<Word>),
    /// A native (Rust) regime — see [`NativeRegime`]. Used for trusted
    /// components too large to write in machine code; confined to the same
    /// interface a machine-code regime has.
    Native(Box<dyn NativeRegime>),
}

impl Clone for ProgramSpec {
    fn clone(&self) -> Self {
        match self {
            ProgramSpec::Assembly(s) => ProgramSpec::Assembly(s.clone()),
            ProgramSpec::Words(w) => ProgramSpec::Words(w.clone()),
            ProgramSpec::Native(n) => ProgramSpec::Native(n.boxed_clone()),
        }
    }
}

impl core::fmt::Debug for ProgramSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProgramSpec::Assembly(_) => f.write_str("Assembly(..)"),
            ProgramSpec::Words(w) => write!(f, "Words({} words)", w.len()),
            ProgramSpec::Native(_) => f.write_str("Native(..)"),
        }
    }
}

/// A device to instantiate for a regime. The kernel chooses register
/// addresses (within the regime's private I/O window) and vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceSpec {
    /// A DL11-style serial line.
    Serial,
    /// A serial line whose receive queue holds at most `capacity` bytes —
    /// a line with little or no buffering, where overruns fall on the
    /// floor. Verification workloads use a capacity of 1 to keep the
    /// host-input state space small.
    SerialRx {
        /// Receive-queue bound in bytes.
        capacity: usize,
    },
    /// A line-time clock with the given period in machine steps.
    Clock {
        /// Steps between monitor-bit assertions.
        period: u32,
    },
    /// A line printer.
    Printer,
    /// An XTEA crypto unit.
    Crypto,
    /// A DMA disk — attaching one documents a *threat*; the kernel refuses
    /// to boot with one unless `allow_dma` is set, reproducing the SUE's
    /// exclusion of DMA.
    DmaDisk,
}

/// One regime of the system.
#[derive(Debug, Clone)]
pub struct RegimeSpec {
    /// Display name (also the trace colour).
    pub name: String,
    /// The program it runs.
    pub program: ProgramSpec,
    /// Devices owned exclusively by this regime, mapped into its address
    /// space.
    pub devices: Vec<DeviceSpec>,
    /// Logical identity override. `None` means "my position in the regime
    /// list". Single-regime sub-configurations built by the verification
    /// adapter preserve the original identity here, so MYID answers
    /// identically on the abstract machine.
    pub logical: Option<usize>,
    /// What the kernel does when this regime faults. The default parks it
    /// forever; [`FaultPolicy::Restart`] re-images and resumes it.
    pub fault_policy: FaultPolicy,
    /// Instruction-budget watchdog: fault the regime after this many
    /// instructions without a voluntary yield (a runaway becomes an
    /// ordinary fault, recoverable under the fault policy).
    pub watchdog: Option<u64>,
}

impl RegimeSpec {
    /// An assembly-programmed regime.
    pub fn assembly(name: &str, source: &str) -> RegimeSpec {
        RegimeSpec {
            name: name.to_string(),
            program: ProgramSpec::Assembly(source.to_string()),
            devices: Vec::new(),
            logical: None,
            fault_policy: FaultPolicy::Halt,
            watchdog: None,
        }
    }

    /// A native regime.
    pub fn native(name: &str, regime: Box<dyn NativeRegime>) -> RegimeSpec {
        RegimeSpec {
            name: name.to_string(),
            program: ProgramSpec::Native(regime),
            devices: Vec::new(),
            logical: None,
            fault_policy: FaultPolicy::Halt,
            watchdog: None,
        }
    }

    /// Adds a device, builder-style.
    pub fn with_device(mut self, d: DeviceSpec) -> RegimeSpec {
        self.devices.push(d);
        self
    }

    /// Sets the fault policy, builder-style.
    pub fn with_fault_policy(mut self, p: FaultPolicy) -> RegimeSpec {
        self.fault_policy = p;
        self
    }

    /// Arms the instruction-budget watchdog, builder-style.
    pub fn with_watchdog(mut self, budget: u64) -> RegimeSpec {
        self.watchdog = Some(budget);
        self
    }
}

/// What a channel's *sender* learns about queue depth — the backpressure
/// policy. Bounded queues need backpressure, but the live depth doubles as
/// a covert channel: the receiver modulates its drain rate and the sender
/// reads it off `POLL`. The coarser policies trade feedback resolution for
/// bandwidth (ablation A1 measures the trade).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepthPolicy {
    /// The sender polls the live queue length (full resolution; the
    /// pre-policy behaviour).
    #[default]
    Live,
    /// The sender sees the depth rounded up to a multiple of `step`.
    Quantized {
        /// Quantization step in messages.
        step: usize,
    },
    /// The sender sees only a Full/NotFull bit, latched at its own slot
    /// boundaries (context switches in and out of the sender). Mid-slot
    /// drains are invisible; a send against a stale NotFull bit that meets
    /// a physically full queue is accepted-and-dropped, like a lossy wire,
    /// so send statuses leak nothing either.
    Sticky,
}

/// A statically configured unidirectional channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Sending regime index.
    pub from: usize,
    /// Receiving regime index.
    pub to: usize,
    /// Maximum queued messages.
    pub capacity: usize,
    /// What the sender learns about queue depth.
    pub depth: DepthPolicy,
}

impl ChannelSpec {
    /// A channel with the default live-depth backpressure.
    pub fn new(from: usize, to: usize, capacity: usize) -> ChannelSpec {
        ChannelSpec {
            from,
            to,
            capacity,
            depth: DepthPolicy::Live,
        }
    }

    /// Sets the backpressure policy, builder-style.
    pub fn with_depth(mut self, depth: DepthPolicy) -> ChannelSpec {
        self.depth = depth;
        self
    }
}

/// Deliberate kernel sabotage, for experiment E2: each mutation introduces
/// exactly the class of bug Proof of Separability is supposed to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The correct kernel.
    #[default]
    None,
    /// The context switch forgets to save/restore general register R3: the
    /// incoming regime sees the outgoing regime's value.
    SkipR3Save,
    /// The context switch does not restore the condition codes: the
    /// incoming regime sees the outgoing regime's N/Z/V/C.
    LeakConditionCodes,
    /// The MMU is programmed so each regime can also read the *next*
    /// regime's partition.
    OverlapPartitions,
    /// Interrupts are forwarded to the regime after the owner.
    MisrouteInterrupts,
    /// The kernel uses a word of regime 0's partition as scratch during
    /// every context switch (stores the outgoing PC there).
    ScratchInPartition,
}

/// The scheduling policy of a configuration. See [`crate::sched`] for the
/// policies and for which of them the verification adapter accepts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Voluntary round-robin — the SUE's policy and the default.
    #[default]
    RoundRobin,
    /// Preemptive time slices, optionally padded (fixed slots).
    FixedTimeSlice {
        /// Steps per slice.
        quantum: u64,
        /// Pad early-yielded slots to full length.
        padded: bool,
    },
    /// Seeded lottery scheduling (deterministic, preemptive).
    Lottery {
        /// Steps per slice.
        quantum: u64,
        /// SplitMix64 seed.
        seed: u64,
    },
    /// Cooperative MILS-style cyclic table of regime indices.
    StaticCyclic {
        /// The rotation table.
        table: Vec<usize>,
    },
}

impl SchedPolicy {
    /// Instantiates the scheduler for this policy.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedPolicy::RoundRobin => Box::new(RoundRobin),
            SchedPolicy::FixedTimeSlice { quantum, padded } => Box::new(FixedTimeSlice {
                quantum: *quantum,
                padded: *padded,
            }),
            SchedPolicy::Lottery { quantum, seed } => Box::new(Lottery::new(*quantum, *seed)),
            SchedPolicy::StaticCyclic { table } => Box::new(StaticCyclic::new(table.clone())),
        }
    }

    /// Whether the Proof of Separability adapter accepts this policy
    /// (preemptive policies cannot satisfy condition 1 — see
    /// [`crate::sched`]).
    pub fn verifiable(&self) -> bool {
        matches!(
            self,
            SchedPolicy::RoundRobin | SchedPolicy::StaticCyclic { .. }
        )
    }

    /// Stable lowercase policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "round-robin",
            SchedPolicy::FixedTimeSlice { .. } => "fixed-time-slice",
            SchedPolicy::Lottery { .. } => "lottery",
            SchedPolicy::StaticCyclic { .. } => "static-cyclic",
        }
    }
}

/// The complete static configuration of a separation-kernel system.
#[derive(Debug, Clone, Default)]
pub struct KernelConfig {
    /// The regimes, in round-robin order.
    pub regimes: Vec<RegimeSpec>,
    /// The permitted channels.
    pub channels: Vec<ChannelSpec>,
    /// When set, cut channels (the wire-cutting argument): `SEND` feeds a
    /// private never-drained stub, `RECV` always reports empty.
    pub channels_cut: bool,
    /// The scheduling policy.
    pub sched: SchedPolicy,
    /// Honour DMA requests (the SUE never does).
    pub allow_dma: bool,
    /// Deliberate sabotage for the verification experiments.
    pub mutation: Mutation,
    /// Event-trace ring capacity. `None` (the default) leaves tracing off;
    /// counters are collected either way. Traces are not modelled state, so
    /// this knob cannot affect a verification verdict.
    pub trace: Option<usize>,
}

impl KernelConfig {
    /// A configuration with the given regimes and no channels.
    pub fn new(regimes: Vec<RegimeSpec>) -> KernelConfig {
        KernelConfig {
            regimes,
            ..KernelConfig::default()
        }
    }

    /// Adds a channel with the default live-depth backpressure,
    /// builder-style.
    pub fn with_channel(mut self, from: usize, to: usize, capacity: usize) -> KernelConfig {
        self.channels.push(ChannelSpec::new(from, to, capacity));
        self
    }

    /// Sets the scheduling policy, builder-style.
    pub fn with_sched(mut self, sched: SchedPolicy) -> KernelConfig {
        self.sched = sched;
        self
    }

    /// Enables event tracing into a ring of `capacity` events,
    /// builder-style.
    pub fn with_trace(mut self, capacity: usize) -> KernelConfig {
        self.trace = Some(capacity);
        self
    }

    /// The "cut the wires" transformation: same system, channels severed
    /// into private ends. Proving the cut system separable establishes that
    /// the configured channels were the only channels.
    pub fn cut_channels(mut self) -> KernelConfig {
        self.channels_cut = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("red", "HALT").with_device(DeviceSpec::Serial),
            RegimeSpec::assembly("black", "HALT"),
        ])
        .with_channel(0, 1, 4);
        assert_eq!(cfg.regimes.len(), 2);
        assert_eq!(cfg.regimes[0].devices, vec![DeviceSpec::Serial]);
        assert_eq!(cfg.channels, vec![ChannelSpec::new(0, 1, 4)]);
        assert!(!cfg.channels_cut);
        assert!(cfg.cut_channels().channels_cut);
    }

    #[test]
    fn program_spec_clones() {
        let p = ProgramSpec::Assembly("NOP".into());
        let q = p.clone();
        assert!(matches!(q, ProgramSpec::Assembly(_)));
        let w = ProgramSpec::Words(vec![0o240]).clone();
        assert!(matches!(w, ProgramSpec::Words(ref v) if v.len() == 1));
    }
}

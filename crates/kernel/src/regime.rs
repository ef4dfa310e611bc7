//! Per-regime state and the native-regime interface.

use crate::channel::ChannelStatus;
use core::any::Any;
use sep_machine::dev::InterruptRequest;
use sep_machine::exec::Trap;
use sep_machine::types::{PhysAddr, Word};
use std::sync::Arc;

/// Virtual address of a regime's interrupt vector table (inside its own
/// partition). Slot `k` occupies two words at `VEC_BASE + 4k`: the handler
/// PC and the condition codes loaded on entry. A handler PC of 0 means the
/// interrupt is discarded.
pub const VEC_BASE: Word = 0o100;

/// Virtual base address of a regime's device window (segment 7).
pub const DEV_WINDOW: Word = 0o160000;

/// Size of each regime's partition in bytes (one MMU segment).
pub const PARTITION_SIZE: u32 = 8 * 1024;

/// Initial user stack pointer (top of the partition).
pub const INITIAL_SP: Word = (PARTITION_SIZE - 2) as Word;

/// Why a regime faulted. Traps come from the machine; the watchdog and
/// injection causes are kernel-side, so containment and recovery treat a
/// runaway or deliberately injected failure exactly like a hardware trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCause {
    /// A machine trap (MMU abort, illegal instruction, ...).
    Trap(Trap),
    /// The instruction-budget watchdog expired: the regime ran too long
    /// without a voluntary yield.
    Watchdog,
    /// Injected by the host-side fault harness.
    Injected,
}

impl FaultCause {
    /// The coarse class for observability events: 0 = trap, 1 = watchdog,
    /// 2 = injected.
    pub fn class(&self) -> u8 {
        match self {
            FaultCause::Trap(_) => 0,
            FaultCause::Watchdog => 1,
            FaultCause::Injected => 2,
        }
    }

    /// A canonical word for state vectors: distinct causes map to distinct
    /// codes, so two kernels faulted for different reasons never hash as
    /// the same state.
    pub fn code(&self) -> u64 {
        match self {
            FaultCause::Watchdog => 1,
            FaultCause::Injected => 2,
            FaultCause::Trap(t) => {
                let (variant, operand): (u64, u64) = match t {
                    Trap::Mmu(_) => (0, 0),
                    Trap::OddAddress { vaddr } => (1, *vaddr as u64),
                    Trap::BusError { addr } => (2, *addr as u64),
                    Trap::Illegal { word } => (3, *word as u64),
                    Trap::Emt(n) => (4, *n as u64),
                    Trap::TrapInstr(n) => (5, *n as u64),
                    Trap::Bpt => (6, 0),
                    Trap::Iot => (7, 0),
                    Trap::Halt => (8, 0),
                };
                16 + (variant << 32 | operand)
            }
        }
    }
}

/// A regime's scheduling status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegimeStatus {
    /// Runnable.
    Ready,
    /// Executed WAIT; becomes Ready when an interrupt is queued for it.
    Waiting,
    /// Stopped by a fault (the cause is recorded). Whether the stop is
    /// permanent depends on the regime's [`FaultPolicy`].
    Faulted(FaultCause),
    /// Stopped voluntarily (native regimes only).
    Halted,
}

impl RegimeStatus {
    /// True when the regime may be given the CPU.
    pub fn runnable(self) -> bool {
        self == RegimeStatus::Ready
    }
}

/// What the kernel does with a faulted regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPolicy {
    /// Park it in [`RegimeStatus::Faulted`] forever (the pre-recovery
    /// behaviour, and the default).
    #[default]
    Halt,
    /// Re-image the partition from its boot image and resume, up to
    /// `budget` times, after `backoff_slots` whole scheduler slots. The
    /// backoff is slot-aligned — recovery consumes entire slots, never a
    /// fraction of one — so a restarting regime cannot modulate the timing
    /// other regimes observe (the same argument that makes the sticky
    /// channel latch safe).
    Restart {
        /// Maximum restarts before the regime is parked for good.
        budget: u32,
        /// Whole scheduler slots to sit out before re-imaging.
        backoff_slots: u32,
    },
}

/// The saved execution context of a regime — exactly what the SWAP
/// operation must move, and exactly what IFA cannot verify the moving of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaveArea {
    /// R0–R5.
    pub r: [Word; 6],
    /// The user stack pointer.
    pub sp: Word,
    /// The program counter.
    pub pc: Word,
    /// The condition-code nibble.
    pub cc: Word,
}

impl SaveArea {
    /// The boot context: PC 0, stack at the top of the partition.
    pub fn boot() -> SaveArea {
        SaveArea {
            r: [0; 6],
            sp: INITIAL_SP,
            pc: 0,
            cc: 0,
        }
    }
}

/// A device owned by a regime.
#[derive(Debug, Clone)]
pub struct DeviceBinding {
    /// Index in the machine's device set.
    pub machine_index: usize,
    /// Virtual address of its first register in the regime's window.
    pub virtual_base: Word,
    /// Register block length in bytes.
    pub reg_len: u32,
    /// Base interrupt vector assigned to the device.
    pub vector: Word,
}

/// The kernel's record of one regime.
///
/// The name and device bindings are fixed at boot and shared through
/// `Arc`s, so cloning a kernel (as every checker successor does) bumps
/// refcounts for them instead of allocating.
pub struct RegimeRecord {
    /// Display name.
    pub name: Arc<str>,
    /// The regime's logical identity (stable across sub-configurations, so
    /// a single-regime abstract machine answers MYID identically).
    pub logical_id: usize,
    /// Scheduling status.
    pub status: RegimeStatus,
    /// Saved context (valid when the regime is not loaded on the CPU).
    pub save: SaveArea,
    /// Physical base of its partition.
    pub partition_base: PhysAddr,
    /// Physical base of its device window in the I/O page.
    pub window_base: PhysAddr,
    /// Its devices.
    pub devices: Arc<[DeviceBinding]>,
    /// Interrupts fielded by the kernel, waiting for delivery to this
    /// regime (vector slot, request). Each device owns two vector slots,
    /// `2 * i` for its first vector and `2 * i + 1` for its second, so the
    /// owning binding is `devices[slot / 2]`.
    pub pending_irqs: std::collections::VecDeque<(usize, InterruptRequest)>,
    /// The native program, if this is a native regime.
    pub native: Option<Box<dyn NativeRegime>>,
    /// What to do when this regime faults.
    pub fault_policy: FaultPolicy,
    /// Instruction-budget watchdog: fault the regime after this many
    /// instructions without a voluntary yield. `None` disables it (and the
    /// counter below then never moves, so watchdog-free configurations keep
    /// their pre-watchdog state spaces).
    pub watchdog: Option<u64>,
    /// The partition's page as loaded at boot, shared (not duplicated) by
    /// every clone of the kernel; what a restart re-images from.
    pub boot_image: Arc<sep_machine::Page>,
    /// A pristine copy of the native program for restarts (present only
    /// when the policy is Restart and the regime is native).
    pub native_boot: Option<Box<dyn NativeRegime>>,
    /// Restarts consumed from the budget.
    pub restarts_used: u32,
    /// Scheduler slots still to sit out before re-imaging.
    pub backoff_left: u32,
    /// Instructions retired since the last voluntary yield (tracked only
    /// when `watchdog` is set).
    pub instr_since_yield: u64,
}

impl RegimeRecord {
    /// True when this regime is faulted but will restart: it still takes
    /// scheduler slots (to burn backoff and then re-image), unlike a
    /// permanently parked regime.
    pub fn restart_pending(&self) -> bool {
        matches!(self.status, RegimeStatus::Faulted(_))
            && match self.fault_policy {
                FaultPolicy::Halt => false,
                FaultPolicy::Restart { budget, .. } => self.restarts_used < budget,
            }
    }
}

impl Clone for RegimeRecord {
    fn clone(&self) -> Self {
        RegimeRecord {
            name: self.name.clone(),
            logical_id: self.logical_id,
            status: self.status,
            save: self.save,
            partition_base: self.partition_base,
            window_base: self.window_base,
            devices: self.devices.clone(),
            pending_irqs: self.pending_irqs.clone(),
            native: self.native.as_ref().map(|n| n.boxed_clone()),
            fault_policy: self.fault_policy,
            watchdog: self.watchdog,
            boot_image: self.boot_image.clone(),
            native_boot: self.native_boot.as_ref().map(|n| n.boxed_clone()),
            restarts_used: self.restarts_used,
            backoff_left: self.backoff_left,
            instr_since_yield: self.instr_since_yield,
        }
    }
}

impl core::fmt::Debug for RegimeRecord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RegimeRecord")
            .field("name", &self.name)
            .field("status", &self.status)
            .field("save", &self.save)
            .field("pending_irqs", &self.pending_irqs.len())
            .field("native", &self.native.is_some())
            .finish_non_exhaustive()
    }
}

/// What a native regime asks for at the end of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeAction {
    /// Keep the CPU.
    Continue,
    /// Yield (the SWAP call).
    Swap,
    /// Stop permanently.
    Halt,
}

/// The world as a native regime sees it: its own partition, its own
/// devices, and the kernel's channel interface. Nothing else — the same
/// confinement the MMU imposes on machine-code regimes.
pub trait RegimeIo {
    /// This regime's logical identity (the MYID syscall).
    fn regime_id(&self) -> usize;

    /// Sends a message on a channel (must be its declared sender).
    fn send(&mut self, channel: usize, msg: &[u8]) -> ChannelStatus;

    /// Receives a message from a channel (must be its declared receiver).
    fn recv(&mut self, channel: usize) -> Result<Vec<u8>, ChannelStatus>;

    /// Number of messages waiting on a channel this regime may observe:
    /// `Invalid` when it is neither end, `PeerDown` when it receives on a
    /// drained channel whose sender is permanently down (the POLL call).
    fn poll(&self, channel: usize) -> Result<usize, ChannelStatus>;

    /// Reads a register of this regime's device `slot`.
    fn read_device(&mut self, slot: usize, offset: u32) -> Option<Word>;

    /// Writes a register of this regime's device `slot`.
    fn write_device(&mut self, slot: usize, offset: u32, value: Word) -> bool;

    /// Reads a byte of this regime's partition.
    fn read_mem(&mut self, vaddr: Word) -> Option<u8>;

    /// Writes a byte of this regime's partition.
    fn write_mem(&mut self, vaddr: Word, value: u8) -> bool;

    /// Takes the interrupts pending for this regime (native regimes poll
    /// instead of vectoring).
    fn take_interrupts(&mut self) -> Vec<(usize, Word)>;
}

/// A regime implemented in Rust rather than machine code.
///
/// Native regimes exist because writing a multilevel file-server in PDP-11
/// assembly is out of scope (see DESIGN.md, substitution 3); they are
/// confined to the [`RegimeIo`] interface, which exposes exactly what the
/// MMU would.
pub trait NativeRegime: Send + Sync {
    /// Executes one step; the returned action plays the role of the
    /// instruction stream's TRAP/WAIT.
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction;

    /// Object-safe clone (the kernel is cloneable for verification).
    fn boxed_clone(&self) -> Box<dyn NativeRegime>;

    /// Host-side introspection for tests.
    fn as_any(&mut self) -> &mut dyn Any;

    /// A stable snapshot of internal state for kernel state vectors.
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_save_area() {
        let s = SaveArea::boot();
        assert_eq!(s.pc, 0);
        assert_eq!(s.sp, 0o17776);
        assert_eq!(s.cc, 0);
    }

    #[test]
    fn status_runnable() {
        assert!(RegimeStatus::Ready.runnable());
        assert!(!RegimeStatus::Waiting.runnable());
        assert!(!RegimeStatus::Halted.runnable());
        assert!(!RegimeStatus::Faulted(FaultCause::Trap(Trap::Halt)).runnable());
    }

    #[test]
    fn fault_cause_codes_are_distinct() {
        let causes = [
            FaultCause::Watchdog,
            FaultCause::Injected,
            FaultCause::Trap(Trap::Halt),
            FaultCause::Trap(Trap::Emt(1)),
            FaultCause::Trap(Trap::Emt(2)),
            FaultCause::Trap(Trap::TrapInstr(1)),
            FaultCause::Trap(Trap::OddAddress { vaddr: 3 }),
        ];
        for (i, a) in causes.iter().enumerate() {
            for (j, b) in causes.iter().enumerate() {
                assert_eq!(a.code() == b.code(), i == j, "{a:?} vs {b:?}");
            }
        }
    }
}

//! The metrics registry: per-regime and per-device counters plus system
//! totals.
//!
//! Increment paths are `#[inline]` field bumps — cheap enough to leave on
//! always, unlike tracing. Regime and device slots are registered by the
//! embedder at boot (index → name); incrementing an unregistered index
//! grows the table with a placeholder name so hot paths never check.
//! Names are shared `Arc<str>`s, so cloning a registry (every checker
//! successor clones its kernel's) bumps refcounts instead of copying them.

use std::sync::Arc;

/// Counters for one regime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegimeCounters {
    /// Machine instructions retired while this regime held the CPU.
    pub instructions: u64,
    /// Steps taken by a native (Rust) regime.
    pub native_steps: u64,
    /// Traps raised (all kinds, including kernel calls).
    pub traps: u64,
    /// Kernel calls serviced.
    pub syscalls: u64,
    /// MMU faults (subset of `traps`).
    pub mmu_faults: u64,
    /// Times control switched away from this regime.
    pub switches_out: u64,
    /// Times control switched to this regime.
    pub switches_in: u64,
    /// Interrupts fielded on this regime's behalf.
    pub interrupts_fielded: u64,
    /// Interrupts delivered into this regime's handlers.
    pub interrupts_delivered: u64,
    /// Interrupts discarded because this regime's vector slot was empty.
    pub interrupts_discarded: u64,
    /// Times this regime faulted and was stopped.
    pub faults: u64,
    /// Times this regime was re-imaged from its boot image and resumed.
    pub restarts: u64,
    /// Frames this node retransmitted (distributed realization only).
    pub retransmissions: u64,
    /// Messages this regime sent on channels.
    pub messages_sent: u64,
    /// Messages this regime received from channels.
    pub messages_received: u64,
    /// Channel bytes copied out of this regime's partition.
    pub channel_bytes_sent: u64,
    /// Channel bytes copied into this regime's partition.
    pub channel_bytes_received: u64,
}

/// Counters for one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Interrupts this device raised that the kernel fielded.
    pub interrupts: u64,
    /// DMA attempts refused.
    pub dma_blocked: u64,
}

/// Counters for the machine's fast-path caches.
///
/// These measure *how* a result was computed, never *what* was computed:
/// the decode table, the software TLB and the superblock tier
/// are semantically invisible. They are
/// therefore kept out of the default run-report serialization
/// ([`crate::report::metrics_json`]) — a report must be byte-identical
/// with the fast path on and off — and surfaced explicitly by the E10
/// bench via [`crate::report::hotpath_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotPathCounters {
    /// Fast-path instruction decodes served by the process-wide decode
    /// table: one per instruction the decode path retires, so with the
    /// superblock tier off it equals the instruction count.
    pub icache_hits: u64,
    /// Always 0: the decode table has no misses. Kept only because
    /// layerbench's `machine.icache_hit_pm` reads it.
    pub icache_misses: u64,
    /// Software-TLB hits (translation served without walking PAR/PDR).
    pub tlb_hits: u64,
    /// Software-TLB misses (full translate; entry refilled on success).
    pub tlb_misses: u64,
    /// Generation bumps that invalidated the whole TLB (PAR/PDR loads,
    /// i.e. every regime switch and partition re-image).
    pub tlb_invalidations: u64,
    /// Superblocks compiled (hot straight-line runs translated).
    pub sb_compiles: u64,
    /// Superblock executions (full runs entered through the tier).
    pub sb_hits: u64,
    /// Direct block-to-block transitions that skipped the dispatcher.
    pub sb_chains: u64,
    /// Wholesale superblock-cache drops (generation bump, code store,
    /// image mismatch, or tier shutdown).
    pub sb_flushes: u64,
    /// Instructions retired inside superblocks (subset of the run total).
    pub sb_instructions: u64,
}

/// System-wide totals (also the cross-check for the per-regime tables).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Machine instructions retired.
    pub instructions: u64,
    /// Traps raised.
    pub traps: u64,
    /// Context switches.
    pub switches: u64,
    /// Interrupts fielded.
    pub interrupts_fielded: u64,
    /// Interrupts delivered.
    pub interrupts_delivered: u64,
    /// Interrupts discarded (fielded, but the owner had no handler).
    pub interrupts_discarded: u64,
    /// Channel messages accepted.
    pub messages: u64,
    /// Channel bytes copied between partitions.
    pub channel_bytes: u64,
    /// Regime faults.
    pub faults: u64,
    /// Regime restarts (re-imaged from boot after a fault).
    pub restarts: u64,
    /// Frame retransmissions (distributed realization only).
    pub retransmissions: u64,
    /// Policy mediations (conventional baseline only — always zero for the
    /// separation kernel, which is the paper's point).
    pub policy_mediations: u64,
    /// Wire messages (distributed realization only).
    pub wire_messages: u64,
    /// Wire bytes (distributed realization only).
    pub wire_bytes: u64,
}

/// The registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// System totals.
    pub totals: Totals,
    /// Fast-path cache counters (excluded from the default report
    /// serialization; see [`HotPathCounters`]).
    pub hotpath: HotPathCounters,
    regimes: Vec<(Arc<str>, RegimeCounters)>,
    devices: Vec<(Arc<str>, DeviceCounters)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Registers (or renames) regime `idx`.
    pub fn register_regime(&mut self, idx: usize, name: impl Into<Arc<str>>) {
        self.grow_regimes(idx);
        self.regimes[idx].0 = name.into();
    }

    /// Registers (or renames) device `idx`.
    pub fn register_device(&mut self, idx: usize, name: impl Into<Arc<str>>) {
        self.grow_devices(idx);
        self.devices[idx].0 = name.into();
    }

    fn grow_regimes(&mut self, idx: usize) {
        while self.regimes.len() <= idx {
            let placeholder = format!("regime{}", self.regimes.len());
            self.regimes
                .push((placeholder.into(), RegimeCounters::default()));
        }
    }

    fn grow_devices(&mut self, idx: usize) {
        while self.devices.len() <= idx {
            let placeholder = format!("device{}", self.devices.len());
            self.devices
                .push((placeholder.into(), DeviceCounters::default()));
        }
    }

    /// Mutable counters for regime `idx`, growing the table on demand.
    #[inline]
    pub fn regime_mut(&mut self, idx: usize) -> &mut RegimeCounters {
        if idx >= self.regimes.len() {
            self.grow_regimes(idx);
        }
        &mut self.regimes[idx].1
    }

    /// Mutable counters for device `idx`, growing the table on demand.
    #[inline]
    pub fn device_mut(&mut self, idx: usize) -> &mut DeviceCounters {
        if idx >= self.devices.len() {
            self.grow_devices(idx);
        }
        &mut self.devices[idx].1
    }

    /// Registered regimes as `(name, counters)`, in index order.
    pub fn regimes(&self) -> &[(Arc<str>, RegimeCounters)] {
        &self.regimes
    }

    /// Registered devices as `(name, counters)`, in index order.
    pub fn devices(&self) -> &[(Arc<str>, DeviceCounters)] {
        &self.devices
    }

    /// Counters for regime `idx`, if registered.
    pub fn regime(&self, idx: usize) -> Option<&RegimeCounters> {
        self.regimes.get(idx).map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_on_demand_with_placeholder_names() {
        let mut m = Metrics::new();
        m.regime_mut(2).instructions += 1;
        assert_eq!(m.regimes().len(), 3);
        assert_eq!(&*m.regimes()[2].0, "regime2");
        assert_eq!(m.regime(2).unwrap().instructions, 1);
    }

    #[test]
    fn register_names_slots() {
        let mut m = Metrics::new();
        m.register_regime(0, "red");
        m.register_regime(1, "black");
        m.register_device(0, "red-tty0");
        m.regime_mut(1).channel_bytes_sent += 7;
        assert_eq!(&*m.regimes()[1].0, "black");
        assert_eq!(&*m.devices()[0].0, "red-tty0");
        assert_eq!(m.regime(1).unwrap().channel_bytes_sent, 7);
    }

    #[test]
    fn totals_accumulate_independently() {
        let mut m = Metrics::new();
        m.totals.instructions += 10;
        m.totals.channel_bytes += 4;
        assert_eq!(m.totals.instructions, 10);
        assert_eq!(m.totals.channel_bytes, 4);
    }
}

//! The machine: CPU + MMU + memory + devices, executing unprivileged code.
//!
//! [`Machine::step`] advances time by one unit: devices tick, DMA requests
//! are honoured or refused, a pending interrupt above the CPU priority is
//! surfaced, or one instruction executes. Everything privileged — trap
//! handling, interrupt dispatch, register save/restore, MMU loading — is the
//! embedder's job: the separation kernel in `sep-kernel` receives each
//! [`Event`] and manipulates the machine as the SUE's handlers would.

use crate::cpu::Cpu;
use crate::dev::{DeviceSet, DmaOp, InterruptRequest};
use crate::hotpath::{decoded, Cached, FetchWin, Tlb};
use crate::isa::{decode, BinOp, BranchCond, Instr, Operand, UnOp};
use crate::mem::{Memory, IO_BASE};
use crate::mmu::{Access, Mmu, MmuAbort};
use crate::psw::Psw;
use crate::superblock::{
    SbOp, SbTerm, SuperBlock, SuperCache, HOT_THRESHOLD, MAX_BLOCK_OPS, NO_SUCC,
};
use crate::types::{is_neg_b, sign_extend_byte, PhysAddr, Word, SIGN_B, SIGN_W};
use sep_obs::{ObsEvent, Recorder, TrapKind, NO_CONTEXT};

/// A condition that transfers control to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Memory-management abort.
    Mmu(MmuAbort),
    /// Word access to an odd address.
    OddAddress {
        /// The offending virtual address.
        vaddr: Word,
    },
    /// Reference to an I/O-page address with no device (bus timeout).
    BusError {
        /// The offending physical address.
        addr: PhysAddr,
    },
    /// Reserved or unimplemented instruction.
    Illegal {
        /// The instruction word.
        word: Word,
    },
    /// EMT instruction with its operand byte.
    Emt(u8),
    /// TRAP instruction with its operand byte — the kernel-call vehicle.
    TrapInstr(u8),
    /// Breakpoint trap.
    Bpt,
    /// I/O trap instruction.
    Iot,
    /// HALT attempted in user mode (privilege violation).
    Halt,
}

/// What one call to [`Machine::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One instruction executed normally.
    Ran,
    /// The CPU executed WAIT: it idles until an interrupt.
    Wait,
    /// A device interrupt is pending above the CPU priority. The kernel must
    /// field it (and acknowledge the device).
    Interrupt {
        /// Index of the requesting device.
        device: usize,
        /// The request (vector and priority).
        request: InterruptRequest,
    },
    /// A trap transferred control to the kernel.
    Trap(Trap),
    /// A device attempted DMA while DMA is excluded from the system.
    DmaBlocked {
        /// Index of the offending device.
        device: usize,
    },
}

/// The complete machine.
#[derive(Debug)]
pub struct Machine {
    /// CPU registers and PSW.
    pub cpu: Cpu,
    /// Memory management unit.
    pub mmu: Mmu,
    /// Physical RAM.
    pub mem: Memory,
    /// Attached peripherals.
    pub devices: DeviceSet,
    /// Whether DMA transfers are honoured. The SUE's answer is `false`.
    pub allow_dma: bool,
    /// Machine steps taken.
    pub steps: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Observability recorder. Counters are always on; event tracing is
    /// off unless the embedder enables it. Not part of machine state: the
    /// verification adapter's state vector never reads it.
    pub obs: Recorder,
    /// Whether the fast path (the process-wide decode table, the TLB and
    /// the fetch window) is used. On by default; the differential test
    /// suite runs both settings and pins them identical.
    hotpath: bool,
    /// Software TLB, invalidated wholesale whenever the MMU generation
    /// moves (every PAR/PDR load).
    tlb: Tlb,
    /// One-entry instruction-fetch window in front of the TLB.
    win: FetchWin,
    /// Whether the superblock tier compiles and chains hot straight-line
    /// runs. Meaningful only while `hotpath` is also on.
    superblocks: bool,
    /// Compiled superblocks plus the hotness profile that feeds them.
    sb: SuperCache,
    /// Write guard over the physical span of compiled code: a machine-path
    /// store into `[sb_guard_lo, sb_guard_hi)` sets `sb_dirty`, which drops
    /// every block before the tier runs again. Kept directly on the machine
    /// (not in [`SuperCache`]) so the store hot path pays two compares.
    sb_guard_lo: PhysAddr,
    sb_guard_hi: PhysAddr,
    sb_dirty: bool,
}

/// Cloning resets the per-machine caches (TLB, fetch window, superblocks):
/// they memoize pure functions, so an empty cache is always a valid (and
/// cheap) starting point, and a cloned machine — a verify-template snapshot
/// or a `FaultPolicy::Restart` re-image source — must behave
/// byte-identically to a fresh boot. Decoding needs no reset: the decode
/// table is process-wide. RAM is shared copy-on-write with the original
/// until either side stores.
impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
            cpu: self.cpu,
            mmu: self.mmu.clone(),
            mem: self.mem.clone(),
            devices: self.devices.clone(),
            allow_dma: self.allow_dma,
            steps: self.steps,
            instructions: self.instructions,
            obs: self.obs.clone(),
            hotpath: self.hotpath,
            tlb: Tlb::new(),
            win: FetchWin::new(),
            superblocks: self.superblocks,
            sb: SuperCache::default(),
            sb_guard_lo: PhysAddr::MAX,
            sb_guard_hi: 0,
            sb_dirty: false,
        }
    }
}

/// Where an operand lives after addressing-mode resolution.
#[derive(Debug, Clone, Copy)]
enum Place {
    Reg(u8),
    Mem(Word),
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// A machine with zeroed CPU, empty MMU, zero RAM, and no devices.
    pub fn new() -> Machine {
        Machine {
            cpu: Cpu::new(),
            mmu: Mmu::new(),
            mem: Memory::new(),
            devices: DeviceSet::new(),
            allow_dma: false,
            steps: 0,
            instructions: 0,
            obs: Recorder::disabled(),
            hotpath: true,
            tlb: Tlb::new(),
            win: FetchWin::new(),
            superblocks: true,
            sb: SuperCache::default(),
            sb_guard_lo: PhysAddr::MAX,
            sb_guard_hi: 0,
            sb_dirty: false,
        }
    }

    /// Enables or disables the fast path (decode table + software TLB +
    /// batched stepping). Turning the fast path off also drops the
    /// machine's cached translations and superblocks, so a subsequent
    /// re-enable starts cold.
    pub fn set_hotpath(&mut self, on: bool) {
        self.hotpath = on;
        if !on {
            self.tlb = Tlb::new();
            self.win = FetchWin::new();
            self.sb_drop_all();
        }
    }

    /// Whether the fast-path caches are in use.
    pub fn hotpath(&self) -> bool {
        self.hotpath
    }

    /// Enables or disables the superblock tier (hot-run compilation and
    /// chaining on top of the decode table). On by default, but inert
    /// unless the fast path is also on. Turning it off drops all compiled
    /// blocks and the hotness profile, so a re-enable starts cold.
    pub fn set_superblocks(&mut self, on: bool) {
        self.superblocks = on;
        if !on {
            self.sb_drop_all();
        }
    }

    /// Whether the superblock tier is in use.
    pub fn superblocks(&self) -> bool {
        self.superblocks
    }

    /// Drops every compiled superblock, the hotness profile, and the write
    /// guard — the tier's "forget everything" switch.
    fn sb_drop_all(&mut self) {
        self.sb = SuperCache::default();
        self.sb_guard_lo = PhysAddr::MAX;
        self.sb_guard_hi = 0;
        self.sb_dirty = false;
    }

    /// Advances the machine one step: the tick phase (device time and DMA)
    /// followed by the execution phase (interrupt surfacing or one
    /// instruction).
    pub fn step(&mut self) -> Event {
        if let Some(ev) = self.tick_phase() {
            return ev;
        }
        self.exec_phase()
    }

    /// The tick phase: devices advance one time unit and DMA requests are
    /// honoured or refused. In the formal model of `sep-model` this phase is
    /// the `INPUT` stage — autonomous device activity — and is kept separate
    /// from instruction execution so the Proof of Separability adapter can
    /// drive the two stages independently.
    ///
    /// Returns `Some(event)` only when a DMA attempt was blocked.
    pub fn tick_phase(&mut self) -> Option<Event> {
        self.steps += 1;
        self.devices.tick_all();
        let dma_ops = self.devices.collect_dma();
        for (device, op) in dma_ops {
            if !self.allow_dma {
                self.obs.metrics.device_mut(device).dma_blocked += 1;
                let ts = self.instructions;
                self.obs.emit(
                    ts,
                    ObsEvent::DmaBlocked {
                        device: device as u16,
                    },
                );
                return Some(Event::DmaBlocked { device });
            }
            match op {
                // DMA reaches RAM only: bytes addressed at or above the I/O
                // page are dropped on a write and read back as 0.
                DmaOp::WriteMem { addr, data } => {
                    for (i, b) in data.iter().enumerate() {
                        let a = addr.saturating_add(i as u32);
                        if !Memory::is_io(a) {
                            self.mem.write_byte(a, *b);
                        }
                    }
                }
                DmaOp::ReadMem { addr, len } => {
                    let data: Vec<u8> = (0..len)
                        .map(|i| addr.saturating_add(i))
                        .map(|a| {
                            if Memory::is_io(a) {
                                0
                            } else {
                                self.mem.read_byte(a)
                            }
                        })
                        .collect();
                    if let Some(d) = self.devices.get_mut(device) {
                        d.dma_complete(data);
                    }
                }
            }
        }
        None
    }

    /// The execution phase: surface a pending interrupt above the CPU
    /// priority, or execute one instruction.
    pub fn exec_phase(&mut self) -> Event {
        if let Some((device, request)) = self.devices.highest_pending(self.cpu.psw.priority()) {
            return Event::Interrupt { device, request };
        }
        let event = match self.execute_one() {
            Ok(ev) => ev,
            Err(t) => Event::Trap(t),
        };
        if let Event::Trap(trap) = &event {
            self.note_trap(*trap);
        }
        event
    }

    /// Records a trap in the observability registry: totals, per-context
    /// attribution, and (with tracing on) a trap event plus MMU detail.
    fn note_trap(&mut self, trap: Trap) {
        self.obs.metrics.totals.traps += 1;
        let ctx = self.obs.context();
        if ctx != NO_CONTEXT {
            self.obs.metrics.regime_mut(ctx as usize).traps += 1;
        }
        let ts = self.instructions;
        self.obs.emit(
            ts,
            ObsEvent::Trap {
                regime: ctx,
                kind: trap_kind(trap),
            },
        );
        if let Trap::Mmu(abort) = trap {
            if ctx != NO_CONTEXT {
                self.obs.metrics.regime_mut(ctx as usize).mmu_faults += 1;
            }
            self.obs.emit(
                ts,
                ObsEvent::MmuFault {
                    regime: ctx,
                    vaddr: abort.vaddr,
                    write: abort.write,
                },
            );
        }
    }

    /// Runs until the next non-[`Event::Ran`] event, bounded by `max_steps`.
    /// Returns the event and the number of steps taken, or `None` if the
    /// bound was reached.
    pub fn run_until_event(&mut self, max_steps: u64) -> Option<(Event, u64)> {
        for n in 1..=max_steps {
            let ev = self.step();
            if ev != Event::Ran {
                return Some((ev, n));
            }
        }
        None
    }

    /// Runs up to `n` steps, returning the number of steps taken and the
    /// first non-[`Event::Ran`] event if one cut the batch short.
    ///
    /// Semantically identical to calling [`Machine::step`] `n` times and
    /// stopping at the first non-`Ran` result — with devices attached (or
    /// DMA allowed) it does exactly that, since device time must advance
    /// step by step. A deviceless machine takes a batched loop instead:
    /// the per-step device scan disappears and the per-instruction recorder
    /// dispatch collapses into one bump at the end (the context cannot
    /// change mid-batch — only the embedder switches context, between
    /// calls), so instruction-count benches measure the engine rather than
    /// the bookkeeping.
    pub fn step_n(&mut self, n: u64) -> (u64, Option<Event>) {
        if !self.devices.is_empty() || self.allow_dma {
            for k in 1..=n {
                let ev = self.step();
                if ev != Event::Ran {
                    return (k, Some(ev));
                }
            }
            return (n, None);
        }
        let retired_before = self.instructions;
        let mut taken = 0;
        let mut outcome = None;
        let sb_tier = self.hotpath && self.superblocks;
        if sb_tier {
            self.sb_begin_batch();
        }
        // The tier is entered right after a backward control transfer (the
        // only place hot entries live) — and once at batch start, since the
        // PC may be resuming a compiled loop from the previous batch.
        let mut try_tier = sb_tier && self.sb.has_blocks();
        while taken < n {
            if try_tier {
                try_tier = false;
                let (advanced, tier_outcome) = self.run_superblocks(n - taken);
                taken += advanced;
                if tier_outcome.is_some() {
                    outcome = tier_outcome;
                    break;
                }
                if taken >= n {
                    break;
                }
            }
            self.steps += 1;
            taken += 1;
            let pc_before = self.cpu.pc;
            match self.execute_inner(false) {
                Ok(Event::Ran) => {
                    if sb_tier && self.cpu.pc <= pc_before {
                        try_tier = self.sb_note_backward_edge();
                    }
                }
                Ok(ev) => {
                    outcome = Some(ev);
                    break;
                }
                Err(t) => {
                    outcome = Some(Event::Trap(t));
                    break;
                }
            }
        }
        let retired = self.instructions - retired_before;
        if retired > 0 {
            self.obs.instructions_retired(retired);
        }
        if let Some(Event::Trap(trap)) = &outcome {
            self.note_trap(*trap);
        }
        (taken, outcome)
    }

    // ------------------------------------------------------------------
    // The superblock tier (see the `superblock` module docs).
    // ------------------------------------------------------------------

    /// Batch prologue for the tier: drop every block if the MMU generation
    /// or enable flag moved since the blocks were compiled, or if a guarded
    /// store landed in compiled code, then open a new validation batch.
    fn sb_begin_batch(&mut self) {
        let generation = self.mmu.generation();
        let enabled = self.mmu.enabled;
        if self.sb.stale(generation, enabled) || self.sb_dirty {
            let had = self.sb.has_blocks();
            self.sb.flush(generation, enabled);
            self.sb_guard_lo = PhysAddr::MAX;
            self.sb_guard_hi = 0;
            self.sb_dirty = false;
            if had {
                self.obs.metrics.hotpath.sb_flushes += 1;
            }
        }
        self.sb.batch += 1;
    }

    /// Profiles a backward control transfer that just landed on
    /// `self.cpu.pc`: bump the target's heat and compile it when it crosses
    /// the threshold. Returns true when a compiled block now exists at the
    /// PC, i.e. the tier is worth entering.
    fn sb_note_backward_edge(&mut self) -> bool {
        let pc = self.cpu.pc;
        let mode = self.cpu.psw.mode();
        if self.sb.lookup(pc, mode).is_some() {
            return true;
        }
        if self.sb.has_failed(pc, mode) || self.sb.heat_bump(pc, mode) != HOT_THRESHOLD {
            return false;
        }
        let Some(block) = self.compile_superblock(pc) else {
            self.sb.mark_failed(pc, mode);
            return false;
        };
        let Some(idx) = self.sb.insert(mode, block) else {
            return false; // cache full; wait for the next flush
        };
        self.obs.metrics.hotpath.sb_compiles += 1;
        // The block was compiled from live memory, so it is valid for the
        // rest of this batch without a memcmp.
        let batch = self.sb.batch;
        let b = &mut self.sb.blocks[idx as usize];
        b.validated_batch = batch;
        let (lo, hi) = (b.phys, b.phys + b.image.len() as u32);
        self.sb_guard_lo = self.sb_guard_lo.min(lo);
        self.sb_guard_hi = self.sb_guard_hi.max(hi);
        true
    }

    /// Runs compiled superblocks starting at the current PC until the step
    /// budget runs low, a side exit fires, or control leaves compiled code.
    /// Returns the steps consumed and the event that cut execution short,
    /// if any. The cache is moved out of `self` for the duration so block
    /// data and the mutable machine can coexist; the write guard lives on
    /// `self` and stays armed throughout.
    fn run_superblocks(&mut self, budget: u64) -> (u64, Option<Event>) {
        let mut sb = std::mem::take(&mut self.sb);
        let result = self.superblock_loop(&mut sb, budget);
        self.sb = sb;
        result
    }

    fn superblock_loop(&mut self, sb: &mut SuperCache, budget: u64) -> (u64, Option<Event>) {
        let mode = self.cpu.psw.mode();
        // A guarded store earlier in this batch (per-instruction path)
        // poisons every block: drop them all before trusting any image.
        if self.sb_dirty {
            sb.flush(self.mmu.generation(), self.mmu.enabled);
            self.sb_guard_lo = PhysAddr::MAX;
            self.sb_guard_hi = 0;
            self.sb_dirty = false;
            self.obs.metrics.hotpath.sb_flushes += 1;
            return (0, None);
        }
        let Some(first) = sb.lookup(self.cpu.pc, mode) else {
            return (0, None);
        };
        let mut idx = first;
        let mut advanced: u64 = 0;
        let mut outcome = None;
        let (mut hits, mut chains, mut compiles, mut flushes) = (0u64, 0u64, 0u64, 0u64);
        'outer: loop {
            let block = &sb.blocks[idx as usize];
            if block.cost > budget - advanced {
                break; // not enough budget for a full run; step singly
            }
            // Once per batch, prove the block's instruction bytes are still
            // exactly what was compiled (re-imaging, kernel copies, DMA and
            // host pokes all happen between batches; in-batch stores trip
            // the write guard instead). Interior ops never write memory, so
            // a block can never invalidate itself mid-flight.
            if block.validated_batch != sb.batch {
                if *self.mem.range(block.phys, block.image.len() as u32) != block.image[..] {
                    sb.flush(self.mmu.generation(), self.mmu.enabled);
                    self.sb_guard_lo = PhysAddr::MAX;
                    self.sb_guard_hi = 0;
                    flushes += 1;
                    break;
                }
                sb.blocks[idx as usize].validated_batch = sb.batch;
            }
            let block = &sb.blocks[idx as usize];
            let term = block.term;
            let cost = block.cost;
            let entry = block.entry;
            let ops = &block.ops;
            if block.pure {
                // Pure blocks cannot trap and cannot touch memory: hand the
                // CPU alone to the specialized executor, which follows the
                // self-chain internally at register speed and returns how
                // many complete runs it retired (at least one — the budget
                // check above guarantees headroom for the first).
                let runs =
                    run_pure_block(&mut self.cpu, ops, term, entry, (budget - advanced) / cost);
                advanced += runs * cost;
                hits += runs;
                chains += runs - 1;
                if matches!(term, SbTerm::FallThrough { .. }) {
                    break; // control left compiled code
                }
            } else {
                // Run the block, and rerun it in place while its terminator
                // lands back on its own entry (the tight-loop steady state):
                // the self-chain needs no new validation — memory cannot change
                // under it — and touches no cache structure at all.
                loop {
                    // Interiors. The pure register forms skip PC maintenance
                    // entirely (they cannot trap and cannot observe the PC —
                    // classification admits only R0–R5) and hit the register
                    // file directly; generic forms get the PC pre-set to its
                    // post-fetch value so extension-word fetches, PC-relative
                    // operands, and traps behave exactly as on the
                    // per-instruction path.
                    let mut exit: Option<(u64, Result<Event, Trap>)> = None;
                    for (k, op) in ops.iter().enumerate() {
                        let r = match *op {
                            SbOp::RegReg { op, src, dst } => {
                                let s = self.cpu.r[src as usize];
                                let d = self.cpu.r[dst as usize];
                                let (wb, (n, z, v, c)) = alu2::<false>(op, s, d, self.cpu.psw.c());
                                if let Some(r) = wb {
                                    self.cpu.r[dst as usize] = r;
                                }
                                self.cpu.psw.set_nzvc(n, z, v, c);
                                continue;
                            }
                            SbOp::ImmReg { op, imm, dst } => {
                                let d = self.cpu.r[dst as usize];
                                let (wb, (n, z, v, c)) =
                                    alu2::<false>(op, imm, d, self.cpu.psw.c());
                                if let Some(r) = wb {
                                    self.cpu.r[dst as usize] = r;
                                }
                                self.cpu.psw.set_nzvc(n, z, v, c);
                                continue;
                            }
                            SbOp::OneReg { op, reg } => {
                                let d = self.cpu.r[reg as usize];
                                let (wb, (n, z, v, c)) =
                                    alu1::<false>(op, d, self.cpu.psw.n(), self.cpu.psw.c());
                                if let Some(r) = wb {
                                    self.cpu.r[reg as usize] = r;
                                }
                                self.cpu.psw.set_nzvc(n, z, v, c);
                                continue;
                            }
                            SbOp::Generic {
                                word,
                                instr,
                                pc_after,
                            } => {
                                self.cpu.pc = pc_after;
                                self.dispatch(word, instr)
                            }
                        };
                        match r {
                            Ok(Event::Ran) => {}
                            other => {
                                // Side exit mid-block: op k ran (and trapped).
                                // The trapping instruction counts as retired,
                                // exactly as `execute_inner` counts before
                                // dispatching.
                                exit = Some((k as u64 + 1, other));
                                break;
                            }
                        }
                    }
                    if let Some((done, r)) = exit {
                        advanced += done;
                        outcome = Some(match r {
                            Ok(ev) => ev,
                            Err(t) => Event::Trap(t),
                        });
                        break 'outer;
                    }
                    // Full block: run the terminator and account exactly.
                    match term {
                        SbTerm::Branch {
                            cond,
                            offset,
                            pc_after,
                        } => {
                            self.cpu.pc = pc_after;
                            self.exec_branch(cond, offset);
                        }
                        SbTerm::Sob {
                            reg,
                            offset,
                            pc_after,
                            ..
                        } => {
                            self.cpu.pc = pc_after;
                            let v = self.cpu.reg(reg).wrapping_sub(1);
                            self.cpu.set_reg(reg, v);
                            if v != 0 {
                                self.cpu.pc = self.cpu.pc.wrapping_sub(2 * offset as Word);
                            }
                        }
                        SbTerm::FallThrough { next_pc } => {
                            self.cpu.pc = next_pc;
                        }
                    }
                    advanced += cost;
                    hits += 1;
                    if matches!(term, SbTerm::FallThrough { .. }) {
                        break 'outer; // control left compiled code
                    }
                    if self.cpu.pc == entry && cost <= budget - advanced {
                        chains += 1;
                        continue;
                    }
                    break;
                }
            }
            // Chain to the successor block: the memo first, then the index,
            // then chain-compilation — a terminator target reached from a
            // hot block is hot by construction, so it skips the heat count.
            let next_pc = self.cpu.pc;
            if next_pc == entry {
                break; // the self-loop stopped only because the budget ran out
            }
            let b = &sb.blocks[idx as usize];
            let next_idx = if b.succ_idx != NO_SUCC && b.succ_pc == next_pc {
                b.succ_idx
            } else if let Some(i) = sb.lookup(next_pc, mode) {
                let b = &mut sb.blocks[idx as usize];
                b.succ_pc = next_pc;
                b.succ_idx = i;
                i
            } else {
                if sb.has_failed(next_pc, mode) {
                    break;
                }
                let Some(nb) = self.compile_superblock(next_pc) else {
                    sb.mark_failed(next_pc, mode);
                    break;
                };
                let Some(i) = sb.insert(mode, nb) else {
                    break; // cache full; wait for the next flush
                };
                compiles += 1;
                let batch = sb.batch;
                let nb = &mut sb.blocks[i as usize];
                nb.validated_batch = batch;
                let (lo, hi) = (nb.phys, nb.phys + nb.image.len() as u32);
                self.sb_guard_lo = self.sb_guard_lo.min(lo);
                self.sb_guard_hi = self.sb_guard_hi.max(hi);
                let b = &mut sb.blocks[idx as usize];
                b.succ_pc = next_pc;
                b.succ_idx = i;
                i
            };
            chains += 1;
            idx = next_idx;
        }
        // Deviceless batches equate steps and instructions, and nothing
        // inside the tier reads either counter, so both flush once here —
        // including the instructions of a partially retired block, so
        // `step_n`'s recorder accounting stays exact across side exits.
        self.steps += advanced;
        self.instructions += advanced;
        let h = &mut self.obs.metrics.hotpath;
        h.sb_hits += hits;
        h.sb_chains += chains;
        h.sb_compiles += compiles;
        h.sb_flushes += flushes;
        h.sb_instructions += advanced;
        (advanced, outcome)
    }

    /// Compiles the straight-line run starting at `entry` into a
    /// [`SuperBlock`], or `None` when nothing worth compiling starts there.
    ///
    /// The instruction-stream span is translated **once, here**: under the
    /// MMU the entry's whole segment must be resident and lie entirely in
    /// RAM (never the I/O page, so a block can never shadow live device
    /// registers); with the MMU off the identity-mapped RAM region plays
    /// that role. Compilation stops at the segment limit, so a PDR length
    /// boundary bisects a run and the instruction beyond it traps on the
    /// per-instruction path exactly as it would have without the tier.
    /// Reads are pure (`Mmu::translate` + direct RAM reads) — compiling
    /// perturbs no cache or counter.
    fn compile_superblock(&self, entry: Word) -> Option<SuperBlock> {
        if entry & 1 != 0 {
            return None;
        }
        let mode = self.cpu.psw.mode();
        // The virtual window [lo, hi) the run may occupy and the physical
        // base it maps to.
        let (lo, hi, base) = if self.mmu.enabled {
            let seg = entry >> 13;
            let d = self.mmu.segment(mode, seg as usize);
            if d.is_empty() {
                return None;
            }
            if d.base() + d.len() > IO_BASE {
                return None;
            }
            (seg << 13, ((seg as u32) << 13) + d.len(), d.base())
        } else {
            // 16-bit compatibility map: everything below 0o160000 is RAM
            // identity-mapped; the top segment is the I/O page.
            (0, 0o160000, 0)
        };
        let phys_of = |v: u32| base + (v - lo as u32);
        let mut v = entry as u32; // fetch cursor, one past Word range at most
        let mut ops: Vec<SbOp> = Vec::new();
        let (term, img_end) = loop {
            if ops.len() >= MAX_BLOCK_OPS || v + 2 > hi || v < lo as u32 {
                break (SbTerm::FallThrough { next_pc: v as Word }, v);
            }
            let word = self.mem.read_word(phys_of(v));
            let Some(instr) = decode(word) else {
                break (SbTerm::FallThrough { next_pc: v as Word }, v);
            };
            let pc_after = (v + 2) as Word;
            match classify(instr) {
                Class::Pure(op) => {
                    ops.push(op);
                    v += 2;
                }
                Class::PureImm { op, dst } => {
                    if v + 4 > hi {
                        break (SbTerm::FallThrough { next_pc: v as Word }, v);
                    }
                    let imm = self.mem.read_word(phys_of(v + 2));
                    ops.push(SbOp::ImmReg { op, imm, dst });
                    v += 4;
                }
                Class::Slow(exts) => {
                    let end = v + 2 + 2 * exts;
                    if end > hi {
                        break (SbTerm::FallThrough { next_pc: v as Word }, v);
                    }
                    ops.push(SbOp::Generic {
                        word,
                        instr,
                        pc_after,
                    });
                    v = end;
                }
                Class::Term => {
                    let t = match instr {
                        Instr::Branch { cond, offset } => SbTerm::Branch {
                            cond,
                            offset,
                            pc_after,
                        },
                        Instr::Sob { reg, offset } => SbTerm::Sob {
                            word,
                            reg,
                            offset,
                            pc_after,
                        },
                        _ => unreachable!("only branches and SOB terminate"),
                    };
                    break (t, v + 2);
                }
                Class::Stop => {
                    break (SbTerm::FallThrough { next_pc: v as Word }, v);
                }
            }
        };
        let term_cost = !matches!(term, SbTerm::FallThrough { .. }) as u64;
        let cost = ops.len() as u64 + term_cost;
        // Not worth a block: nothing compiled, or a fall-through so short
        // the dispatcher does as well without the entry overhead.
        if cost == 0 || (term_cost == 0 && cost < 2) {
            return None;
        }
        let phys = phys_of(entry as u32);
        let pure = !ops.iter().any(|o| matches!(o, SbOp::Generic { .. }));
        Some(SuperBlock {
            entry,
            phys,
            image: self.mem.range(phys, img_end - entry as u32).into(),
            ops: ops.into(),
            term,
            pure,
            cost,
            validated_batch: 0,
            succ_pc: 0,
            succ_idx: NO_SUCC,
        })
    }

    // ------------------------------------------------------------------
    // Bus access (virtual, through the MMU, routed to RAM or devices).
    // ------------------------------------------------------------------

    fn translate(&mut self, vaddr: Word, write: bool) -> Result<PhysAddr, Trap> {
        let mode = self.cpu.psw.mode();
        if self.hotpath && self.mmu.enabled {
            let generation = self.mmu.generation();
            if self.tlb.stale(generation) {
                self.tlb.reset(generation);
                self.obs.metrics.hotpath.tlb_invalidations += 1;
            }
            let seg = (vaddr >> 13) as usize;
            let offset = (vaddr & 0o17777) as u32;
            if let Some(p) = self.tlb.lookup(mode, seg, offset, write) {
                self.obs.metrics.hotpath.tlb_hits += 1;
                return Ok(p);
            }
            self.obs.metrics.hotpath.tlb_misses += 1;
            let p = self.mmu.translate(vaddr, mode, write).map_err(Trap::Mmu)?;
            let d = self.mmu.segment(mode, seg);
            self.tlb
                .fill(mode, seg, d.base(), d.len(), d.access == Access::ReadWrite);
            return Ok(p);
        }
        self.mmu.translate(vaddr, mode, write).map_err(Trap::Mmu)
    }

    /// Reads a word at a virtual address in the current mode.
    pub fn read_word_v(&mut self, vaddr: Word) -> Result<Word, Trap> {
        if vaddr & 1 != 0 {
            return Err(Trap::OddAddress { vaddr });
        }
        let p = self.translate(vaddr, false)?;
        self.read_word_p(p)
    }

    /// Writes a word at a virtual address in the current mode.
    pub fn write_word_v(&mut self, vaddr: Word, value: Word) -> Result<(), Trap> {
        if vaddr & 1 != 0 {
            return Err(Trap::OddAddress { vaddr });
        }
        let p = self.translate(vaddr, true)?;
        self.write_word_p(p, value)
    }

    /// Reads a byte at a virtual address in the current mode.
    pub fn read_byte_v(&mut self, vaddr: Word) -> Result<u8, Trap> {
        let p = self.translate(vaddr, false)?;
        if Memory::is_io(p) {
            let word = self.read_word_p(p & !1)?;
            Ok(if p & 1 == 0 {
                (word & 0xFF) as u8
            } else {
                (word >> 8) as u8
            })
        } else {
            Ok(self.mem.read_byte(p))
        }
    }

    /// Writes a byte at a virtual address in the current mode.
    pub fn write_byte_v(&mut self, vaddr: Word, value: u8) -> Result<(), Trap> {
        let p = self.translate(vaddr, true)?;
        if Memory::is_io(p) {
            let aligned = p & !1;
            let old = self.read_word_p(aligned)?;
            let new = if p & 1 == 0 {
                (old & 0xFF00) | value as Word
            } else {
                (old & 0x00FF) | ((value as Word) << 8)
            };
            self.write_word_p(aligned, new)
        } else {
            if p < self.sb_guard_hi && p.wrapping_add(1) > self.sb_guard_lo {
                self.sb_dirty = true;
            }
            self.mem.write_byte(p, value);
            Ok(())
        }
    }

    /// Reads a word at a *physical* address (RAM or device register).
    pub fn read_word_p(&mut self, addr: PhysAddr) -> Result<Word, Trap> {
        if Memory::is_io(addr) {
            match self.devices.by_addr(addr) {
                Some(d) => {
                    let off = addr - d.base();
                    Ok(d.read_reg(off))
                }
                None => Err(Trap::BusError { addr }),
            }
        } else {
            Ok(self.mem.read_word(addr))
        }
    }

    /// Writes a word at a *physical* address (RAM or device register).
    pub fn write_word_p(&mut self, addr: PhysAddr, value: Word) -> Result<(), Trap> {
        if Memory::is_io(addr) {
            match self.devices.by_addr(addr) {
                Some(d) => {
                    let off = addr - d.base();
                    d.write_reg(off, value);
                    Ok(())
                }
                None => Err(Trap::BusError { addr }),
            }
        } else {
            if addr < self.sb_guard_hi && addr.wrapping_add(2) > self.sb_guard_lo {
                self.sb_dirty = true;
            }
            self.mem.write_word(addr, value);
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Instruction execution.
    // ------------------------------------------------------------------

    fn fetch_word(&mut self) -> Result<Word, Trap> {
        let pc = self.cpu.pc;
        if self.hotpath && self.mmu.enabled {
            if let Some(p) = self
                .win
                .lookup(pc, self.mmu.generation(), self.cpu.psw.mode())
            {
                self.obs.metrics.hotpath.tlb_hits += 1;
                self.cpu.pc = pc.wrapping_add(2);
                return Ok(self.mem.read_word(p));
            }
        }
        let w = self.read_word_v(pc)?;
        self.cpu.pc = pc.wrapping_add(2);
        if self.hotpath && self.mmu.enabled {
            self.fill_fetch_window(pc);
        }
        Ok(w)
    }

    /// Caches the PC's segment as the fetch window. Called only after a
    /// successful instruction-stream read, so the segment is known readable
    /// under the current generation; the whole span must lie in RAM so the
    /// window's direct memory read can never shadow a device register.
    fn fill_fetch_window(&mut self, pc: Word) {
        let mode = self.cpu.psw.mode();
        let seg = pc >> 13;
        let d = self.mmu.segment(mode, seg as usize);
        let base = d.base();
        let len = d.len();
        if len > 0 && base + len <= IO_BASE {
            let lo = seg << 13;
            self.win.fill(
                self.mmu.generation(),
                mode,
                lo,
                ((seg as u32) << 13) + len,
                base,
            );
        } else {
            self.win.clear();
        }
    }

    /// Reads an immediate operand (addressing mode 2 on the PC) through the
    /// fetch window. The slow path advances the PC past the literal *before*
    /// reading it — `resolve` increments first — so a trapping read must
    /// leave the PC beyond the operand; this preserves that order.
    #[inline]
    fn read_imm(&mut self) -> Result<Word, Trap> {
        let a = self.cpu.pc;
        self.cpu.pc = a.wrapping_add(2);
        if self.mmu.enabled {
            if let Some(p) = self
                .win
                .lookup(a, self.mmu.generation(), self.cpu.psw.mode())
            {
                self.obs.metrics.hotpath.tlb_hits += 1;
                return Ok(self.mem.read_word(p));
            }
        }
        self.read_word_v(a)
    }

    fn execute_one(&mut self) -> Result<Event, Trap> {
        self.execute_inner(true)
    }

    /// Fetches, decodes (through the decode table when the fast path is
    /// on), and dispatches one instruction. With `count_obs` false the
    /// recorder bump is skipped — [`Machine::step_n`] batches it after the
    /// loop.
    ///
    /// The hot path runs the specialized register-direct forms inline with
    /// the same ALU helpers the generic dispatcher uses, so the two paths
    /// cannot drift; everything else falls through to [`Machine::dispatch`].
    fn execute_inner(&mut self, count_obs: bool) -> Result<Event, Trap> {
        let word = self.fetch_word()?;
        if !self.hotpath {
            let instr = decode(word).ok_or(Trap::Illegal { word })?;
            self.instructions += 1;
            if count_obs {
                self.obs.instruction_retired();
            }
            return self.dispatch(word, instr);
        }
        let cached = decoded(word).ok_or(Trap::Illegal { word })?;
        self.obs.metrics.hotpath.icache_hits += 1;
        self.instructions += 1;
        if count_obs {
            self.obs.instruction_retired();
        }
        match cached {
            Cached::RegReg { op, src, dst } => {
                let s = self.cpu.reg(src);
                let d = self.cpu.reg(dst);
                let (wb, (n, z, v, c)) = alu2::<false>(op, s, d, self.cpu.psw.c());
                if let Some(r) = wb {
                    self.cpu.set_reg(dst, r);
                }
                self.cpu.psw.set_nzvc(n, z, v, c);
                Ok(Event::Ran)
            }
            Cached::ImmReg { op, dst } => {
                let s = self.read_imm()?;
                let d = self.cpu.reg(dst);
                let (wb, (n, z, v, c)) = alu2::<false>(op, s, d, self.cpu.psw.c());
                if let Some(r) = wb {
                    self.cpu.set_reg(dst, r);
                }
                self.cpu.psw.set_nzvc(n, z, v, c);
                Ok(Event::Ran)
            }
            Cached::OneReg { op, reg } => {
                let d = self.cpu.reg(reg);
                let (wb, (n, z, v, c)) = alu1::<false>(op, d, self.cpu.psw.n(), self.cpu.psw.c());
                if let Some(r) = wb {
                    self.cpu.set_reg(reg, r);
                }
                self.cpu.psw.set_nzvc(n, z, v, c);
                Ok(Event::Ran)
            }
            Cached::Branch { cond, offset } => {
                self.exec_branch(cond, offset);
                Ok(Event::Ran)
            }
            Cached::Generic(instr) => self.dispatch(word, instr),
        }
    }

    fn dispatch(&mut self, word: Word, instr: Instr) -> Result<Event, Trap> {
        match instr {
            Instr::Double { op, byte, src, dst } => {
                if byte {
                    self.exec_double::<true>(op, src, dst)?
                } else {
                    self.exec_double::<false>(op, src, dst)?
                }
            }
            // SWAB and SXT are word-only: their byte bit selects nothing.
            Instr::Single { op, byte, dst } => {
                if byte && !matches!(op, UnOp::Swab | UnOp::Sxt) {
                    self.exec_single::<true>(op, dst)?
                } else {
                    self.exec_single::<false>(op, dst)?
                }
            }
            Instr::Branch { cond, offset } => self.exec_branch(cond, offset),
            Instr::Jmp { dst } => {
                let place = self.resolve(dst, false)?;
                match place {
                    Place::Reg(_) => return Err(Trap::Illegal { word }),
                    Place::Mem(addr) => self.cpu.pc = addr,
                }
            }
            Instr::Jsr { reg, dst } => {
                let place = self.resolve(dst, false)?;
                let target = match place {
                    Place::Reg(_) => return Err(Trap::Illegal { word }),
                    Place::Mem(addr) => addr,
                };
                self.push(self.cpu.reg(reg))?;
                let return_pc = self.cpu.pc;
                self.cpu.set_reg(reg, return_pc);
                self.cpu.pc = target;
            }
            Instr::Rts { reg } => {
                self.cpu.pc = self.cpu.reg(reg);
                let v = self.pop()?;
                self.cpu.set_reg(reg, v);
            }
            Instr::Sob { reg, offset } => {
                let v = self.cpu.reg(reg).wrapping_sub(1);
                self.cpu.set_reg(reg, v);
                if v != 0 {
                    self.cpu.pc = self.cpu.pc.wrapping_sub(2 * offset as Word);
                }
            }
            Instr::Mul { reg, src } => self.exec_mul(reg, src)?,
            Instr::Div { reg, src } => self.exec_div(reg, src)?,
            Instr::Ash { reg, src } => self.exec_ash(reg, src)?,
            Instr::Xor { reg, dst } => {
                let place = self.resolve(dst, false)?;
                let v = self.read_place::<false>(place)? ^ self.cpu.reg(reg);
                self.write_place::<false>(place, v)?;
                let c = self.cpu.psw.c();
                self.cpu.psw.set_nz_w(v, false, c);
            }
            Instr::Emt(n) => return Ok(Event::Trap(Trap::Emt(n))),
            Instr::Trap(n) => return Ok(Event::Trap(Trap::TrapInstr(n))),
            Instr::Bpt => return Ok(Event::Trap(Trap::Bpt)),
            Instr::Iot => return Ok(Event::Trap(Trap::Iot)),
            Instr::Halt => return Ok(Event::Trap(Trap::Halt)),
            Instr::Wait => return Ok(Event::Wait),
            Instr::Reset => {} // No-op in user mode, as on the hardware.
            Instr::Rti | Instr::Rtt => {
                let pc = self.pop()?;
                let saved = self.pop()?;
                self.cpu.pc = pc;
                // In user mode only the condition codes can be restored;
                // mode and priority are protected.
                self.cpu.psw.set_cc_bits(saved);
            }
            Instr::CondCode { set, mask } => {
                let bits = self.cpu.psw.cc_bits();
                let new = if set {
                    bits | mask as Word
                } else {
                    bits & !(mask as Word)
                };
                self.cpu.psw.set_cc_bits(new);
            }
        }
        Ok(Event::Ran)
    }

    fn push(&mut self, value: Word) -> Result<(), Trap> {
        let sp = self.cpu.reg(6).wrapping_sub(2);
        self.cpu.set_reg(6, sp);
        self.write_word_v(sp, value)
    }

    fn pop(&mut self) -> Result<Word, Trap> {
        let sp = self.cpu.reg(6);
        let v = self.read_word_v(sp)?;
        self.cpu.set_reg(6, sp.wrapping_add(2));
        Ok(v)
    }

    fn resolve(&mut self, op: Operand, byte: bool) -> Result<Place, Trap> {
        let delta: Word = if byte && op.reg < 6 { 1 } else { 2 };
        Ok(match op.mode {
            0 => Place::Reg(op.reg),
            1 => Place::Mem(self.cpu.reg(op.reg)),
            2 => {
                let a = self.cpu.reg(op.reg);
                self.cpu.set_reg(op.reg, a.wrapping_add(delta));
                Place::Mem(a)
            }
            3 => {
                let a = self.cpu.reg(op.reg);
                self.cpu.set_reg(op.reg, a.wrapping_add(2));
                Place::Mem(self.read_word_v(a)?)
            }
            4 => {
                let a = self.cpu.reg(op.reg).wrapping_sub(delta);
                self.cpu.set_reg(op.reg, a);
                Place::Mem(a)
            }
            5 => {
                let a = self.cpu.reg(op.reg).wrapping_sub(2);
                self.cpu.set_reg(op.reg, a);
                Place::Mem(self.read_word_v(a)?)
            }
            6 => {
                let x = self.fetch_word()?;
                Place::Mem(self.cpu.reg(op.reg).wrapping_add(x))
            }
            _ => {
                let x = self.fetch_word()?;
                let a = self.cpu.reg(op.reg).wrapping_add(x);
                Place::Mem(self.read_word_v(a)?)
            }
        })
    }

    /// Reads an operand at width `B` (byte when true), zero-extended.
    fn read_place<const B: bool>(&mut self, p: Place) -> Result<Word, Trap> {
        match p {
            Place::Reg(r) if B => Ok(self.cpu.reg(r) & 0xFF),
            Place::Reg(r) => Ok(self.cpu.reg(r)),
            Place::Mem(a) if B => self.read_byte_v(a).map(Word::from),
            Place::Mem(a) => self.read_word_v(a),
        }
    }

    /// Writes an operand at width `B`; a byte write to a register leaves
    /// its high byte alone.
    fn write_place<const B: bool>(&mut self, p: Place, v: Word) -> Result<(), Trap> {
        match p {
            Place::Reg(r) => {
                let v = if B { (self.cpu.reg(r) & 0xFF00) | v } else { v };
                self.cpu.set_reg(r, v);
                Ok(())
            }
            Place::Mem(a) if B => self.write_byte_v(a, v as u8),
            Place::Mem(a) => self.write_word_v(a, v),
        }
    }

    /// A double-operand op at width `B` (byte when true).
    fn exec_double<const B: bool>(
        &mut self,
        op: BinOp,
        src: Operand,
        dst: Operand,
    ) -> Result<(), Trap> {
        let s = {
            let sp = self.resolve(src, B)?;
            self.read_place::<B>(sp)?
        };
        let dp = self.resolve(dst, B)?;
        // MOV writes without reading its destination — significant when the
        // destination is a memory operand with read side effects.
        let d = if op == BinOp::Mov {
            0
        } else {
            self.read_place::<B>(dp)?
        };
        let (wb, (n, z, v, c)) = alu2::<B>(op, s, d, self.cpu.psw.c());
        match (wb, dp) {
            // MOVB to a register sign-extends, per the hardware.
            (Some(r), Place::Reg(reg)) if B && op == BinOp::Mov => {
                self.cpu.set_reg(reg, sign_extend_byte(r as u8));
            }
            (Some(r), _) => self.write_place::<B>(dp, r)?,
            (None, _) => {}
        }
        self.cpu.psw.set_nzvc(n, z, v, c);
        Ok(())
    }

    /// A single-operand op at width `B` (byte when true).
    fn exec_single<const B: bool>(&mut self, op: UnOp, dst: Operand) -> Result<(), Trap> {
        let dp = self.resolve(dst, B)?;
        // CLR and SXT write without reading — significant for memory
        // operands with read side effects.
        let d = if matches!(op, UnOp::Clr | UnOp::Sxt) {
            0
        } else {
            self.read_place::<B>(dp)?
        };
        let (wb, (n, z, v, c)) = alu1::<B>(op, d, self.cpu.psw.n(), self.cpu.psw.c());
        if let Some(r) = wb {
            self.write_place::<B>(dp, r)?;
        }
        self.cpu.psw.set_nzvc(n, z, v, c);
        Ok(())
    }

    fn exec_branch(&mut self, cond: BranchCond, offset: i8) {
        if branch_taken(self.cpu.psw, cond) {
            self.cpu.pc = self
                .cpu
                .pc
                .wrapping_add((offset as i16 as Word).wrapping_mul(2));
        }
    }

    fn exec_mul(&mut self, reg: u8, src: Operand) -> Result<(), Trap> {
        let sp = self.resolve(src, false)?;
        let s = self.read_place::<false>(sp)? as i16 as i32;
        let r = self.cpu.reg(reg) as i16 as i32;
        let product = r * s;
        if reg & 1 == 0 {
            self.cpu.set_reg(reg, (product >> 16) as Word);
            self.cpu.set_reg(reg + 1, (product & 0xFFFF) as Word);
        } else {
            self.cpu.set_reg(reg, (product & 0xFFFF) as Word);
        }
        let c = !(-(1 << 15)..(1 << 15)).contains(&product);
        self.cpu.psw.set_nzvc(product < 0, product == 0, false, c);
        Ok(())
    }

    fn exec_div(&mut self, reg: u8, src: Operand) -> Result<(), Trap> {
        let sp = self.resolve(src, false)?;
        let s = self.read_place::<false>(sp)? as i16 as i32;
        if reg & 1 != 0 {
            // Odd register: undefined on the hardware; we trap it as illegal
            // to keep programs honest.
            return Err(Trap::Illegal { word: 0o071000 });
        }
        let dividend = ((self.cpu.reg(reg) as u32) << 16 | self.cpu.reg(reg + 1) as u32) as i32;
        if s == 0 {
            self.cpu.psw.set_nzvc(false, false, true, true);
            return Ok(());
        }
        let q = dividend / s;
        let rem = dividend % s;
        if !(-(1 << 15)..(1 << 15)).contains(&q) {
            self.cpu.psw.set_nzvc(q < 0, false, true, false);
            return Ok(());
        }
        self.cpu.set_reg(reg, q as i16 as Word);
        self.cpu.set_reg(reg + 1, rem as i16 as Word);
        self.cpu.psw.set_nzvc(q < 0, q == 0, false, false);
        Ok(())
    }

    fn exec_ash(&mut self, reg: u8, src: Operand) -> Result<(), Trap> {
        let sp = self.resolve(src, false)?;
        let count = (self.read_place::<false>(sp)? & 0o77) as i8;
        // Six-bit signed shift count.
        let count = if count >= 32 { count - 64 } else { count };
        let v = self.cpu.reg(reg) as i16;
        let (r, c) = if count >= 0 {
            let shifted = (v as i32) << count;
            (shifted as i16, count > 0 && (shifted & 0x1_0000) != 0)
        } else {
            let n = (-count) as u32;
            let r = v >> n.min(15);
            let c = n <= 16 && (v >> (n - 1).min(15)) & 1 != 0;
            (r, c)
        };
        self.cpu.set_reg(reg, r as Word);
        let v_flag = (r < 0) != (v < 0);
        self.cpu.psw.set_nzvc(r < 0, r == 0, v_flag, c);
        Ok(())
    }
}

/// Evaluates a branch condition against unpacked condition codes.
#[inline]
fn cond_taken(cond: BranchCond, n: bool, z: bool, v: bool, c: bool) -> bool {
    match cond {
        BranchCond::Br => true,
        BranchCond::Bne => !z,
        BranchCond::Beq => z,
        BranchCond::Bge => n == v,
        BranchCond::Blt => n != v,
        BranchCond::Bgt => !z && (n == v),
        BranchCond::Ble => z || (n != v),
        BranchCond::Bpl => !n,
        BranchCond::Bmi => n,
        BranchCond::Bhi => !c && !z,
        BranchCond::Blos => c || z,
        BranchCond::Bvc => !v,
        BranchCond::Bvs => v,
        BranchCond::Bcc => !c,
        BranchCond::Bcs => c,
    }
}

/// Evaluates a branch condition against the condition codes.
#[inline]
fn branch_taken(p: Psw, cond: BranchCond) -> bool {
    cond_taken(cond, p.n(), p.z(), p.v(), p.c())
}

/// Executes a pure superblock (no `Generic` interiors) up to `max_runs`
/// times, following the self-chain while the terminator lands back on the
/// block's own entry. A pure block cannot trap and cannot touch memory, so
/// it runs against the CPU alone — no machine state is reachable — and the
/// condition codes live in four locals for the whole run (host registers
/// instead of a packed PSW read-modify-write per op), folded back into the
/// PSW exactly once on the way out. Returns the number of complete runs
/// retired (at least one when `max_runs >= 1`).
#[inline]
fn run_pure_block(cpu: &mut Cpu, ops: &[SbOp], term: SbTerm, entry: Word, max_runs: u64) -> u64 {
    let mut runs = 0;
    let p = cpu.psw;
    let (mut n, mut z, mut v, mut c) = (p.n(), p.z(), p.v(), p.c());
    while runs < max_runs {
        for op in ops {
            match *op {
                SbOp::RegReg { op, src, dst } => {
                    let s = cpu.r[src as usize];
                    let d = cpu.r[dst as usize];
                    let (wb, f) = alu2::<false>(op, s, d, c);
                    if let Some(r) = wb {
                        cpu.r[dst as usize] = r;
                    }
                    (n, z, v, c) = f;
                }
                SbOp::ImmReg { op, imm, dst } => {
                    let d = cpu.r[dst as usize];
                    let (wb, f) = alu2::<false>(op, imm, d, c);
                    if let Some(r) = wb {
                        cpu.r[dst as usize] = r;
                    }
                    (n, z, v, c) = f;
                }
                SbOp::OneReg { op, reg } => {
                    let d = cpu.r[reg as usize];
                    let (wb, f) = alu1::<false>(op, d, n, c);
                    if let Some(r) = wb {
                        cpu.r[reg as usize] = r;
                    }
                    (n, z, v, c) = f;
                }
                SbOp::Generic { .. } => unreachable!("generic interior in a pure block"),
            }
        }
        runs += 1;
        match term {
            SbTerm::Branch {
                cond,
                offset,
                pc_after,
            } => {
                cpu.pc = pc_after;
                if cond_taken(cond, n, z, v, c) {
                    cpu.pc = cpu.pc.wrapping_add((offset as i16 as Word).wrapping_mul(2));
                }
            }
            SbTerm::Sob {
                reg,
                offset,
                pc_after,
                ..
            } => {
                cpu.pc = pc_after;
                let count = cpu.reg(reg).wrapping_sub(1);
                cpu.set_reg(reg, count);
                if count != 0 {
                    cpu.pc = cpu.pc.wrapping_sub(2 * offset as Word);
                }
            }
            SbTerm::FallThrough { next_pc } => {
                cpu.pc = next_pc;
                cpu.psw.set_nzvc(n, z, v, c);
                return runs;
            }
        }
        if cpu.pc != entry {
            break;
        }
    }
    cpu.psw.set_nzvc(n, z, v, c);
    runs
}

/// The operand mask and sign bit of ALU width `B` (byte when true).
#[inline]
const fn width<const B: bool>() -> (Word, Word) {
    if B {
        (0xFF, SIGN_B as Word)
    } else {
        (0xFFFF, SIGN_W)
    }
}

/// Double-operand ALU semantics at width `B` (byte when true), shared by
/// the generic dispatcher, the specialized register-direct fast path and
/// both superblock executors, so no two paths or widths can drift. Operands
/// arrive zero-extended within the width. Returns the value to write back
/// (`None` for the non-writing CMP/BIT) and the resulting condition codes.
/// `d` is ignored for MOV — callers must not *read* a MOV destination, only
/// write it.
#[inline]
fn alu2<const B: bool>(
    op: BinOp,
    s: Word,
    d: Word,
    c: bool,
) -> (Option<Word>, (bool, bool, bool, bool)) {
    let (mask, sign) = width::<B>();
    let neg = |x: Word| x & sign != 0;
    match op {
        BinOp::Mov => (Some(s), (neg(s), s == 0, false, c)),
        BinOp::Cmp => {
            let r = s.wrapping_sub(d) & mask;
            let v = (neg(s) != neg(d)) && (neg(r) == neg(d));
            (None, (neg(r), r == 0, v, s < d))
        }
        BinOp::Bit => {
            let r = s & d;
            (None, (neg(r), r == 0, false, c))
        }
        BinOp::Bic => {
            let r = d & !s;
            (Some(r), (neg(r), r == 0, false, c))
        }
        BinOp::Bis => {
            let r = d | s;
            (Some(r), (neg(r), r == 0, false, c))
        }
        BinOp::Add => {
            let r = d.wrapping_add(s) & mask;
            let v = (neg(s) == neg(d)) && (neg(r) != neg(d));
            let carry = d as u32 + s as u32 > mask as u32;
            (Some(r), (neg(r), r == 0, v, carry))
        }
        BinOp::Sub => {
            let r = d.wrapping_sub(s) & mask;
            let v = (neg(s) != neg(d)) && (neg(r) == neg(s));
            (Some(r), (neg(r), r == 0, v, d < s))
        }
    }
}

/// Single-operand ALU semantics at width `B`, shared like [`alu2`]. `n_in`
/// is the incoming N flag (SXT materializes it); `d` is ignored for CLR and
/// SXT — callers must not *read* their destination, only write it. SWAB
/// and SXT are word-only: callers instantiate them at word width.
#[inline]
fn alu1<const B: bool>(
    op: UnOp,
    d: Word,
    n_in: bool,
    c: bool,
) -> (Option<Word>, (bool, bool, bool, bool)) {
    let (mask, sign) = width::<B>();
    let neg = |x: Word| x & sign != 0;
    match op {
        UnOp::Clr => (Some(0), (false, true, false, false)),
        UnOp::Com => {
            let r = !d & mask;
            (Some(r), (neg(r), r == 0, false, true))
        }
        UnOp::Inc => {
            let r = d.wrapping_add(1) & mask;
            (Some(r), (neg(r), r == 0, d == sign - 1, c))
        }
        UnOp::Dec => {
            let r = d.wrapping_sub(1) & mask;
            (Some(r), (neg(r), r == 0, d == sign, c))
        }
        UnOp::Neg => {
            let r = d.wrapping_neg() & mask;
            (Some(r), (neg(r), r == 0, r == sign, r != 0))
        }
        UnOp::Adc => {
            let r = d.wrapping_add(c as Word) & mask;
            (
                Some(r),
                (neg(r), r == 0, d == sign - 1 && c, d == mask && c),
            )
        }
        UnOp::Sbc => {
            let r = d.wrapping_sub(c as Word) & mask;
            (Some(r), (neg(r), r == 0, d == sign, !(d == 0 && c)))
        }
        UnOp::Tst => (None, (neg(d), d == 0, false, false)),
        UnOp::Ror | UnOp::Rol | UnOp::Asr | UnOp::Asl => {
            let (r, new_c) = match op {
                UnOp::Ror => ((d >> 1) | if c { sign } else { 0 }, d & 1 != 0),
                UnOp::Rol => (((d << 1) | c as Word) & mask, neg(d)),
                UnOp::Asr => ((d >> 1) | (d & sign), d & 1 != 0),
                _ => ((d << 1) & mask, neg(d)),
            };
            let n = neg(r);
            (Some(r), (n, r == 0, n ^ new_c, new_c))
        }
        UnOp::Swab => {
            let r = d.rotate_left(8);
            let low = (r & 0xFF) as u8;
            (Some(r), (is_neg_b(low), low == 0, false, false))
        }
        UnOp::Sxt => {
            let r = if n_in { 0o177777 } else { 0 };
            (Some(r), (n_in, !n_in, false, c))
        }
    }
}

/// How the superblock compiler treats one decoded instruction.
enum Class {
    /// Register-only op with no extension words: runs without the
    /// dispatcher and without PC maintenance.
    Pure(SbOp),
    /// Immediate-source register op: one extension word, captured into the
    /// block at compile time.
    PureImm { op: BinOp, dst: u8 },
    /// Includable but dispatched generically, consuming `n` extension
    /// words from the instruction stream.
    Slow(u32),
    /// Terminates the block (branch or SOB): the chaining point.
    Term,
    /// Not includable (writes memory or the PC, transfers control, or
    /// leaves user-mode execution): the block ends before it.
    Stop,
}

/// Classifies an instruction for superblock inclusion.
///
/// The interior invariant is **no memory writes and no PC writes**: memory
/// stays constant while a block runs (so the once-per-batch image check
/// plus the write guard make stale code impossible), and the next
/// instruction is statically known (so the run really is straight-line).
/// Operand *reads* of any addressing mode are fine — they go through the
/// generic dispatcher with an exact PC and side-exit on traps.
fn classify(instr: Instr) -> Class {
    // The pure forms mirror `Cached::specialize`'s fast shapes, restricted
    // to R0–R5: reading the PC needs the maintained value only the generic
    // path has (and writing it ends the run), and the SP is banked by
    // processor mode, so excluding both lets the tier index the register
    // file directly instead of resolving through `Cpu::reg`.
    match Cached::specialize(instr) {
        Cached::RegReg { op, src, dst } if src < 6 && dst < 6 => {
            return Class::Pure(SbOp::RegReg { op, src, dst });
        }
        Cached::ImmReg { op, dst } if dst < 6 => return Class::PureImm { op, dst },
        Cached::OneReg { op, reg } if reg < 6 => {
            return Class::Pure(SbOp::OneReg { op, reg });
        }
        _ => {}
    }
    let ext = |o: Operand| u32::from(o.has_extension_word());
    // Auto-decrement through the PC rewrites it: never straight-line.
    let hostile = |o: Operand| o.reg == 7 && matches!(o.mode, 4 | 5);
    match instr {
        Instr::Double { op, src, dst, .. } => {
            let writes = !matches!(op, BinOp::Cmp | BinOp::Bit);
            if hostile(src) || hostile(dst) || (writes && (dst.mode != 0 || dst.reg == 7)) {
                Class::Stop
            } else {
                Class::Slow(ext(src) + ext(dst))
            }
        }
        Instr::Single { op, dst, .. } => {
            let writes = !matches!(op, UnOp::Tst);
            if hostile(dst) || (writes && (dst.mode != 0 || dst.reg == 7)) {
                Class::Stop
            } else {
                Class::Slow(ext(dst))
            }
        }
        Instr::Branch { .. } | Instr::Sob { .. } => Class::Term,
        // MUL/DIV write reg (and reg|1 / reg+1): keep them clear of SP/PC.
        Instr::Mul { reg, src } | Instr::Div { reg, src } if reg < 6 && !hostile(src) => {
            Class::Slow(ext(src))
        }
        Instr::Ash { reg, src } if reg != 7 && !hostile(src) => Class::Slow(ext(src)),
        Instr::Xor { reg: _, dst } if dst.mode == 0 && dst.reg != 7 => Class::Slow(0),
        Instr::CondCode { .. } => Class::Slow(0),
        // Control transfers, trap instructions, WAIT/HALT/RESET, RTI/RTT,
        // and everything else privileged or PC-writing.
        _ => Class::Stop,
    }
}

/// The observability classification of a [`Trap`].
fn trap_kind(trap: Trap) -> TrapKind {
    match trap {
        Trap::Mmu(_) => TrapKind::Mmu,
        Trap::OddAddress { .. } => TrapKind::OddAddress,
        Trap::BusError { .. } => TrapKind::BusError,
        Trap::Illegal { .. } => TrapKind::Illegal,
        Trap::Emt(_) => TrapKind::Emt,
        Trap::TrapInstr(_) => TrapKind::TrapInstr,
        Trap::Bpt => TrapKind::Bpt,
        Trap::Iot => TrapKind::Iot,
        Trap::Halt => TrapKind::Halt,
    }
}

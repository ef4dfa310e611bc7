//! The superblock compilation tier: pre-translated straight-line runs.
//!
//! The decode table specializes one instruction at a time; this tier
//! compiles *runs* of them. A hot basic block — detected by counting how
//! often a backward control transfer lands on its entry — is translated
//! once into a [`SuperBlock`]: a sequence of pre-specialized ops whose
//! instruction-stream fetch is MMU-checked **once per block** at compile
//! time, plus a terminator that records where control goes next. When the
//! successor of a terminator is itself compiled, execution chains directly
//! from block to block and the fetch/decode dispatcher is skipped entirely
//! on warm traces.
//!
//! Like the decode table and TLB, compiled blocks are derivable state,
//! never modelled state. Three guards keep them semantically invisible:
//!
//! * **Generation.** A block's fetch span was translated under one MMU
//!   generation; any PAR/PDR load bumps the generation and drops every
//!   block (the PR 5 invalidation scheme, verbatim). The MMU enable flag
//!   is checked alongside, since it is a plain field that does not bump
//!   the generation.
//! * **Image validation.** A block stores the bytes it was compiled from
//!   and compares them against RAM once per `step_n` batch, so code
//!   rewritten between batches (kernel copies, re-imaging, DMA, host
//!   pokes) can never execute stale. Within a batch only the machine
//!   itself can write memory, and …
//! * **Write guard.** … every machine-path store is checked against the
//!   span of compiled code; a hit drops all blocks before the next block
//!   runs. Interior ops never write memory (see [`SbOp`]), so a block can
//!   never invalidate itself mid-flight.
//!
//! `Machine::clone`, `set_hotpath(false)`, and `set_superblocks(false)`
//! drop everything, so snapshots and re-imaged partitions stay
//! byte-identical to fresh boots.

use std::collections::{HashMap, HashSet};

use crate::isa::{BinOp, BranchCond, Instr, UnOp};
use crate::psw::Mode;
use crate::types::{PhysAddr, Word};

/// Executions of a backward-branch target before it is compiled.
pub(crate) const HOT_THRESHOLD: u32 = 8;

/// Interior ops per block (terminator excluded).
pub(crate) const MAX_BLOCK_OPS: usize = 32;

/// Compiled blocks held at once; further compilation waits for a flush.
pub(crate) const MAX_BLOCKS: usize = 512;

/// Heat-map entries kept before the profile is reset (bounds the memory a
/// branchy cold program can pin).
const MAX_HEAT_ENTRIES: usize = 1024;

/// Successor-memo sentinel: no memoized successor block.
pub(crate) const NO_SUCC: u32 = u32::MAX;

/// One pre-specialized interior instruction of a superblock.
///
/// Interior ops are restricted to forms that write registers and condition
/// codes but **never memory and never the PC**: the pure register shapes
/// name only R0–R5 (the PC needs the maintained value, the SP is banked by
/// mode — excluding both lets the executor index the register file
/// directly), carry their operands (and, for `ImmReg`, the immediate word
/// captured at compile time — sound because the word is part of the image),
/// and everything else runs through the generic dispatcher with the PC
/// pre-set to its post-fetch value, so memory reads, register side
/// effects, and traps behave exactly as on the slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SbOp {
    /// Word double-operand op, both operands register-direct.
    RegReg {
        /// The operation.
        op: BinOp,
        /// Source register.
        src: u8,
        /// Destination register.
        dst: u8,
    },
    /// Word double-operand op with the immediate captured at compile time.
    ImmReg {
        /// The operation.
        op: BinOp,
        /// The immediate word (part of the validated block image).
        imm: Word,
        /// Destination register.
        dst: u8,
    },
    /// Word single-operand op on a register.
    OneReg {
        /// The operation.
        op: UnOp,
        /// The register.
        reg: u8,
    },
    /// Any other includable instruction, run through the dispatcher.
    Generic {
        /// The instruction word (for the dispatcher's trap reporting).
        word: Word,
        /// The decoded instruction.
        instr: Instr,
        /// The PC value after fetching the opcode word — the dispatcher
        /// resolves extension words relative to this, exactly as the
        /// per-instruction engine would.
        pc_after: Word,
    },
}

/// How a superblock ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SbTerm {
    /// A conditional (or unconditional) branch: the chaining point.
    Branch {
        /// The condition.
        cond: BranchCond,
        /// Signed word offset.
        offset: i8,
        /// PC after fetching the branch word.
        pc_after: Word,
    },
    /// Subtract-one-and-branch: the other chaining point.
    Sob {
        /// The instruction word.
        word: Word,
        /// Counter register.
        reg: u8,
        /// Backward word offset.
        offset: u8,
        /// PC after fetching the SOB word.
        pc_after: Word,
    },
    /// The block ended before a non-includable instruction; execution
    /// continues per-instruction at `next_pc`.
    FallThrough {
        /// Virtual address of the first instruction not in the block.
        next_pc: Word,
    },
}

/// One compiled straight-line run.
#[derive(Debug)]
pub(crate) struct SuperBlock {
    /// Virtual entry PC.
    pub entry: Word,
    /// Physical address of the entry word (fetch span resolved at compile
    /// time — the once-per-block MMU check).
    pub phys: PhysAddr,
    /// The instruction-stream bytes the block was compiled from, compared
    /// against RAM once per batch before the block may run.
    pub image: Box<[u8]>,
    /// Interior ops.
    pub ops: Box<[SbOp]>,
    /// The terminator.
    pub term: SbTerm,
    /// True when no interior is `SbOp::Generic`: the whole block (and any
    /// self-chained reruns) touches only R0–R5, the PSW, and the PC — it
    /// cannot trap, cannot read memory, and runs on the register-file fast
    /// path.
    pub pure: bool,
    /// Machine steps one full execution consumes (interiors + terminator).
    pub cost: u64,
    /// Batch id of the last successful image validation.
    pub validated_batch: u64,
    /// Memoized successor: the last post-terminator PC …
    pub succ_pc: Word,
    /// … and the block index it chained to ([`NO_SUCC`] when none).
    pub succ_idx: u32,
}

/// The compiled-block cache plus the hotness profile that feeds it.
///
/// `seen_gen`/`seen_enabled` play the TLB role: blocks are valid exactly
/// while the MMU generation and enable flag both match. The heat map is a
/// profile, not compiled state — it survives block flushes (a re-imaged
/// loop is still a loop) and dies only with the tier itself.
#[derive(Debug, Default)]
pub(crate) struct SuperCache {
    seen_gen: u64,
    seen_enabled: bool,
    /// Current `step_n` batch id (bumped per batch; forces one image
    /// validation per block per batch).
    pub batch: u64,
    /// Compiled blocks, indexed by the map below.
    pub blocks: Vec<SuperBlock>,
    index: HashMap<(Word, u8), u32>,
    heat: HashMap<(Word, u8), u32>,
    failed: HashSet<(Word, u8)>,
}

impl SuperCache {
    /// True when any block is compiled (cheap gate for the lookup path).
    #[inline]
    pub(crate) fn has_blocks(&self) -> bool {
        !self.blocks.is_empty()
    }

    /// True when the cache was filled under a different MMU generation or
    /// enable flag and must be flushed before use.
    #[inline]
    pub(crate) fn stale(&self, generation: u64, enabled: bool) -> bool {
        self.seen_gen != generation || self.seen_enabled != enabled
    }

    /// Drops all compiled blocks (keeping the heat profile) and adopts the
    /// given MMU generation and enable flag.
    pub(crate) fn flush(&mut self, generation: u64, enabled: bool) {
        self.seen_gen = generation;
        self.seen_enabled = enabled;
        self.blocks.clear();
        self.index.clear();
        self.failed.clear();
    }

    /// The compiled block for `(pc, mode)`, if any.
    #[inline]
    pub(crate) fn lookup(&self, pc: Word, mode: Mode) -> Option<u32> {
        self.index.get(&(pc, mode_tag(mode))).copied()
    }

    /// Inserts a compiled block, returning its index, or `None` when the
    /// cache is full.
    pub(crate) fn insert(&mut self, mode: Mode, block: SuperBlock) -> Option<u32> {
        if self.blocks.len() >= MAX_BLOCKS {
            return None;
        }
        let idx = self.blocks.len() as u32;
        self.index.insert((block.entry, mode_tag(mode)), idx);
        self.blocks.push(block);
        Some(idx)
    }

    /// Bumps the heat of a backward-branch target, returning the new
    /// count. Saturates; the map resets when it outgrows its bound.
    pub(crate) fn heat_bump(&mut self, pc: Word, mode: Mode) -> u32 {
        if self.heat.len() >= MAX_HEAT_ENTRIES {
            self.heat.clear();
        }
        let c = self.heat.entry((pc, mode_tag(mode))).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }

    /// Records that compilation at `(pc, mode)` produced nothing, so the
    /// chain-compiler does not retry it every loop iteration.
    pub(crate) fn mark_failed(&mut self, pc: Word, mode: Mode) {
        self.failed.insert((pc, mode_tag(mode)));
    }

    /// True when compilation at `(pc, mode)` already failed.
    #[inline]
    pub(crate) fn has_failed(&self, pc: Word, mode: Mode) -> bool {
        self.failed.contains(&(pc, mode_tag(mode)))
    }
}

#[inline]
fn mode_tag(mode: Mode) -> u8 {
    match mode {
        Mode::Kernel => 0,
        Mode::User => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(entry: Word) -> SuperBlock {
        SuperBlock {
            entry,
            phys: entry as PhysAddr,
            image: Box::from(&[0u8, 0][..]),
            ops: Box::from(&[][..]),
            term: SbTerm::FallThrough { next_pc: entry },
            pure: true,
            cost: 1,
            validated_batch: 0,
            succ_pc: 0,
            succ_idx: NO_SUCC,
        }
    }

    #[test]
    fn lookup_is_keyed_by_pc_and_mode() {
        let mut c = SuperCache::default();
        let idx = c.insert(Mode::User, block(0o1000)).unwrap();
        assert_eq!(c.lookup(0o1000, Mode::User), Some(idx));
        assert_eq!(c.lookup(0o1000, Mode::Kernel), None);
        assert_eq!(c.lookup(0o1002, Mode::User), None);
    }

    #[test]
    fn flush_drops_blocks_and_failures_but_keeps_heat() {
        let mut c = SuperCache::default();
        c.insert(Mode::User, block(0o1000));
        c.mark_failed(0o2000, Mode::User);
        for _ in 0..3 {
            c.heat_bump(0o1000, Mode::User);
        }
        c.flush(7, true);
        assert!(!c.has_blocks());
        assert_eq!(c.lookup(0o1000, Mode::User), None);
        assert!(!c.has_failed(0o2000, Mode::User));
        assert_eq!(c.heat_bump(0o1000, Mode::User), 4, "profile survives");
        assert!(!c.stale(7, true));
        assert!(c.stale(8, true));
        assert!(c.stale(7, false));
    }

    #[test]
    fn fresh_cache_is_stale_for_any_real_generation() {
        // The MMU generation starts at 1, so a default cache (seen_gen 0)
        // can never serve a block before its first flush-adopt.
        let c = SuperCache::default();
        assert!(c.stale(1, false));
        assert!(c.stale(1, true));
    }

    #[test]
    fn insert_refuses_past_the_block_cap() {
        let mut c = SuperCache::default();
        for i in 0..MAX_BLOCKS {
            assert!(c.insert(Mode::User, block(2 * i as Word)).is_some());
        }
        assert_eq!(c.insert(Mode::User, block(0o177776)), None);
    }

    #[test]
    fn heat_counts_per_target_and_resets_when_outgrown() {
        let mut c = SuperCache::default();
        assert_eq!(c.heat_bump(0o100, Mode::User), 1);
        assert_eq!(c.heat_bump(0o100, Mode::User), 2);
        assert_eq!(c.heat_bump(0o100, Mode::Kernel), 1, "modes are distinct");
        for i in 0..MAX_HEAT_ENTRIES as Word {
            c.heat_bump(i * 2, Mode::User);
        }
        // The map was reset at the bound; the original target restarts.
        assert_eq!(c.heat_bump(0o100, Mode::User), 1);
    }
}

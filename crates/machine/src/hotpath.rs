//! Fast-path tables for the execution engine: the process-wide decode
//! table and a software TLB.
//!
//! Both are *semantically invisible*: they memoize pure functions of
//! architectural state and are consulted only when provably fresh.
//! `decode` is a pure function of the 16-bit instruction word, so one
//! table serves every machine in the process and never invalidates; a
//! translation is a pure function of the segment descriptors, so TLB
//! entries are valid exactly while the MMU's generation counter (bumped on
//! every PAR/PDR load) is unchanged. Neither is part of modelled machine
//! state — `Machine::clone` resets the TLB and shares the decode table, so
//! a snapshot or a re-imaged partition behaves byte-identically to a fresh
//! boot.

use std::sync::OnceLock;

use crate::isa::{decode, BinOp, BranchCond, Instr, Operand, UnOp};
use crate::psw::Mode;
use crate::types::{PhysAddr, Word};

/// Instruction words per decode-table chunk, and chunks in the table.
const CHUNK: usize = 256;

/// A decoded instruction pre-specialized for execution.
///
/// The common register-direct forms carry their operands unpacked so the
/// execution engine can run them without addressing-mode resolution; every
/// other shape falls back to [`Cached::Generic`] and the full dispatcher.
/// Specialization is a pure function of the decoded [`Instr`], so cached
/// forms are as timeless as the decode itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cached {
    /// Word-size double-operand op, both operands register-direct.
    RegReg { op: BinOp, src: u8, dst: u8 },
    /// Word-size double-operand op, immediate source (mode 2 on the PC),
    /// register-direct destination.
    ImmReg { op: BinOp, dst: u8 },
    /// Word-size single-operand op on a register.
    OneReg { op: UnOp, reg: u8 },
    /// Conditional branch.
    Branch { cond: BranchCond, offset: i8 },
    /// Everything else: run through the generic dispatcher.
    Generic(Instr),
}

impl Cached {
    /// Specializes a decoded instruction into its fast executable form.
    pub(crate) fn specialize(instr: Instr) -> Cached {
        let reg_direct = |o: Operand| o.mode == 0;
        let immediate = |o: Operand| o.mode == 2 && o.reg == 7;
        match instr {
            Instr::Double {
                op,
                byte: false,
                src,
                dst,
            } if reg_direct(dst) => {
                if reg_direct(src) {
                    Cached::RegReg {
                        op,
                        src: src.reg,
                        dst: dst.reg,
                    }
                } else if immediate(src) {
                    Cached::ImmReg { op, dst: dst.reg }
                } else {
                    Cached::Generic(instr)
                }
            }
            Instr::Single {
                op,
                byte: false,
                dst,
            } if reg_direct(dst) => Cached::OneReg { op, reg: dst.reg },
            Instr::Branch { cond, offset } => Cached::Branch { cond, offset },
            _ => Cached::Generic(instr),
        }
    }
}

/// The specialized decode of every instruction word, `None` for a word
/// that does not decode. Built lazily one 256-word chunk at a time, so the
/// process keeps resident only the opcode ranges its programs execute
/// rather than all 65,536 entries.
static DECODED: [OnceLock<Box<[Option<Cached>; CHUNK]>>; CHUNK] =
    [const { OnceLock::new() }; CHUNK];

/// `decode(word).map(Cached::specialize)`, served from the process-wide
/// table.
#[inline]
pub(crate) fn decoded(word: Word) -> Option<Cached> {
    let hi = (word >> 8) as usize;
    DECODED[hi].get_or_init(|| decode_chunk(hi))[word as usize % CHUNK]
}

/// Decodes and specializes the 256 words whose high byte is `hi`.
#[cold]
fn decode_chunk(hi: usize) -> Box<[Option<Cached>; CHUNK]> {
    Box::new(std::array::from_fn(|lo| {
        decode((hi * CHUNK + lo) as Word).map(Cached::specialize)
    }))
}

/// One cached translation: the segment's resolved base, length, and write
/// permission. Validity is implicit — the whole table is cleared whenever
/// the MMU generation moves.
#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    valid: bool,
    writable: bool,
    base: PhysAddr,
    len: u32,
}

/// A software TLB: one entry per (mode, segment).
///
/// `seen_gen` records the MMU generation the entries were filled under;
/// a lookup under any other generation first drops the whole table. The
/// generation starts at 0, below any real MMU generation, so a fresh TLB
/// can never hit.
#[derive(Debug, Default)]
pub(crate) struct Tlb {
    seen_gen: u64,
    entries: [[TlbEntry; 8]; 2],
}

impl Tlb {
    pub(crate) fn new() -> Tlb {
        Tlb::default()
    }

    /// True when the table was filled under a different MMU generation and
    /// must be dropped before use.
    #[inline]
    pub(crate) fn stale(&self, generation: u64) -> bool {
        self.seen_gen != generation
    }

    /// Drops every entry and adopts `generation`.
    #[inline]
    pub(crate) fn reset(&mut self, generation: u64) {
        self.seen_gen = generation;
        self.entries = Default::default();
    }

    /// The cached physical address for `(mode, seg, offset)`, or `None` on
    /// a miss. A write through a read-only entry misses (the slow path then
    /// raises the abort), as does any offset at or past the cached length.
    #[inline]
    pub(crate) fn lookup(
        &self,
        mode: Mode,
        seg: usize,
        offset: u32,
        write: bool,
    ) -> Option<PhysAddr> {
        let e = &self.entries[mode_index(mode)][seg];
        if e.valid && offset < e.len && (!write || e.writable) {
            Some(e.base + offset)
        } else {
            None
        }
    }

    /// Caches a successful translation's segment parameters.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        mode: Mode,
        seg: usize,
        base: PhysAddr,
        len: u32,
        writable: bool,
    ) {
        self.entries[mode_index(mode)][seg] = TlbEntry {
            valid: true,
            writable,
            base,
            len,
        };
    }
}

/// A one-entry instruction-fetch window (an L0 I-TLB): the RAM span of the
/// segment the PC last fetched from.
///
/// While the MMU generation and CPU mode are unchanged and the (even) PC
/// stays inside `[lo, hi)`, a fetch is a direct RAM read at
/// `base + (pc - lo)` with no translate call at all. Only spans that lie
/// entirely in RAM are cached, so a fetch that could touch the I/O page
/// always takes the slow path and sees live device state. `hi` is a `u32`
/// exclusive bound because segment 7 ends at `0o200000`, one past `Word`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchWin {
    valid: bool,
    gen: u64,
    mode: Mode,
    lo: Word,
    hi: u32,
    base: PhysAddr,
}

impl FetchWin {
    pub(crate) fn new() -> FetchWin {
        FetchWin {
            valid: false,
            gen: 0,
            mode: Mode::Kernel,
            lo: 0,
            hi: 0,
            base: 0,
        }
    }

    /// The physical address of the instruction word at `pc`, or `None` when
    /// the window is stale (generation or mode moved), `pc` is outside it,
    /// or `pc` is odd (the slow path raises the odd-address trap).
    #[inline]
    pub(crate) fn lookup(&self, pc: Word, generation: u64, mode: Mode) -> Option<PhysAddr> {
        if self.valid
            && self.gen == generation
            && self.mode == mode
            && pc & 1 == 0
            && pc >= self.lo
            && (pc as u32) < self.hi
        {
            Some(self.base + (pc - self.lo) as PhysAddr)
        } else {
            None
        }
    }

    /// Adopts a new window.
    #[inline]
    pub(crate) fn fill(&mut self, generation: u64, mode: Mode, lo: Word, hi: u32, base: PhysAddr) {
        *self = FetchWin {
            valid: true,
            gen: generation,
            mode,
            lo,
            hi,
            base,
        };
    }

    /// Drops the window.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.valid = false;
    }
}

#[inline]
fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::Kernel => 0,
        Mode::User => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_table_matches_decode_for_every_word() {
        for word in 0..=Word::MAX {
            assert_eq!(
                decoded(word),
                decode(word).map(Cached::specialize),
                "word {word:o}"
            );
        }
    }

    #[test]
    fn specialization_picks_the_fast_forms_exactly() {
        let spec = |word| Cached::specialize(decode(word).unwrap());
        // ADD R1, R2 — both register-direct.
        assert_eq!(
            spec(0o060102),
            Cached::RegReg {
                op: BinOp::Add,
                src: 1,
                dst: 2
            }
        );
        // ADD (R2)+, R3 — autoincrement on anything but the PC is generic.
        assert!(matches!(spec(0o062203), Cached::Generic(_)));
        // ADD #imm, R3 — mode 2 on the PC is the immediate form.
        assert_eq!(
            spec(0o062703),
            Cached::ImmReg {
                op: BinOp::Add,
                dst: 3
            }
        );
        // ADD R1, (R2) — memory destination is generic.
        assert!(matches!(spec(0o060112), Cached::Generic(_)));
        // INC R1 — register-direct single op.
        assert_eq!(
            spec(0o005201),
            Cached::OneReg {
                op: UnOp::Inc,
                reg: 1
            }
        );
        // INCB R1 — byte ops stay generic.
        assert!(matches!(spec(0o105201), Cached::Generic(_)));
        // BR .-2 — branches carry their condition and offset.
        assert_eq!(
            spec(0o000776),
            Cached::Branch {
                cond: BranchCond::Br,
                offset: -2
            }
        );
    }

    #[test]
    fn fetch_window_respects_bounds_generation_mode_and_alignment() {
        let mut w = FetchWin::new();
        assert_eq!(w.lookup(0, 1, Mode::User), None);
        // Segment 7 of user space: [0o160000, 0o200000) — the high bound
        // only representable as a u32.
        w.fill(3, Mode::User, 0o160000, 0o200000, 0o40000);
        assert_eq!(w.lookup(0o160000, 3, Mode::User), Some(0o40000));
        assert_eq!(w.lookup(0o177776, 3, Mode::User), Some(0o57776));
        assert_eq!(w.lookup(0o157776, 3, Mode::User), None, "below the window");
        assert_eq!(w.lookup(0o160001, 3, Mode::User), None, "odd PC");
        assert_eq!(w.lookup(0o160000, 4, Mode::User), None, "stale generation");
        assert_eq!(w.lookup(0o160000, 3, Mode::Kernel), None, "other mode");
        w.clear();
        assert_eq!(w.lookup(0o160000, 3, Mode::User), None);
    }

    #[test]
    fn tlb_respects_length_write_and_generation() {
        let mut t = Tlb::new();
        assert!(t.stale(1));
        t.reset(1);
        t.fill(Mode::User, 0, 0o40000, 0o1000, false);
        assert_eq!(t.lookup(Mode::User, 0, 0o777, false), Some(0o40777));
        assert_eq!(t.lookup(Mode::User, 0, 0o1000, false), None);
        assert_eq!(t.lookup(Mode::User, 0, 0, true), None);
        assert_eq!(t.lookup(Mode::Kernel, 0, 0, false), None);
        assert!(t.stale(2));
        t.reset(2);
        assert_eq!(t.lookup(Mode::User, 0, 0, false), None);
    }
}

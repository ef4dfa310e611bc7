//! Property tests for the machine substrate: arithmetic flags against a
//! reference model, assembler data fidelity, and MMU bounds.

use sep_machine::isa::{decode, Instr, Opcode, Shape, OPCODES};
use sep_machine::mmu::{Access, Mmu, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::{assemble, Event, Machine, Trap};
use sep_model::prop::{check, Gen};

/// Builds a machine executing `ADD src, dst` (both immediate/register) and
/// returns (result, n, z, v, c).
fn run_binop(op: &str, a: u16, b: u16) -> (u16, bool, bool, bool, bool) {
    let src = format!(
        "
        MOV #{a}, R1
        MOV #{b}, R2
        {op} R1, R2
        HALT
"
    );
    let prog = assemble(&src).unwrap();
    let mut m = Machine::new();
    m.mem.load_words(0, &prog.words);
    m.cpu.set_reg(6, 0o10000);
    assert_eq!(m.run_until_event(100).unwrap().0, Event::Trap(Trap::Halt));
    let p = m.cpu.psw;
    (m.cpu.reg(2), p.n(), p.z(), p.v(), p.c())
}

fn word(g: &mut Gen) -> u16 {
    g.int(..)
}

fn pair(g: &mut Gen) -> (u16, u16) {
    (g.int(..), g.int(..))
}

#[test]
fn add_matches_reference() {
    check(64, pair, |(a, b)| {
        let (r, n, z, v, c) = run_binop("ADD", a, b);
        let expected = b.wrapping_add(a);
        assert_eq!(r, expected);
        assert_eq!(n, (expected as i16) < 0);
        assert_eq!(z, expected == 0);
        // Signed overflow: operands same sign, result different.
        let ov =
            ((a as i16) < 0) == ((b as i16) < 0) && ((expected as i16) < 0) != ((b as i16) < 0);
        assert_eq!(v, ov);
        assert_eq!(c, (a as u32 + b as u32) > 0xFFFF);
    });
}

#[test]
fn sub_matches_reference() {
    check(64, pair, |(a, b)| {
        // SUB R1, R2: R2 = R2 - R1.
        let (r, n, z, _v, c) = run_binop("SUB", a, b);
        let expected = b.wrapping_sub(a);
        assert_eq!(r, expected);
        assert_eq!(n, (expected as i16) < 0);
        assert_eq!(z, expected == 0);
        assert_eq!(c, (b as u32) < (a as u32)); // borrow
    });
}

#[test]
fn cmp_sets_codes_without_writing() {
    check(64, pair, |(a, b)| {
        let (r, n, z, _v, c) = run_binop("CMP", a, b);
        // CMP src,dst computes src - dst and leaves dst alone.
        assert_eq!(r, b);
        let diff = a.wrapping_sub(b);
        assert_eq!(n, (diff as i16) < 0);
        assert_eq!(z, diff == 0);
        assert_eq!(c, (a as u32) < (b as u32));
    });
}

#[test]
fn bitwise_ops_match() {
    check(64, pair, |(a, b)| {
        let (r, ..) = run_binop("BIC", a, b);
        assert_eq!(r, b & !a);
        let (r, ..) = run_binop("BIS", a, b);
        assert_eq!(r, b | a);
    });
}

#[test]
fn word_directive_roundtrip() {
    check(
        64,
        |g| g.vec(1..40, word),
        |words| {
            let body: Vec<String> = words.iter().map(|w| format!(".word {w}")).collect();
            let prog = assemble(&body.join("\n")).unwrap();
            assert_eq!(prog.words, words);
        },
    );
}

#[test]
fn byte_directive_roundtrip() {
    check(
        64,
        |g| g.vec(2..40, |g| g.int::<u8>(..)),
        |bytes| {
            let list: Vec<String> = bytes.iter().map(|b| b.to_string()).collect();
            let src = format!(".byte {}", list.join(", "));
            let prog = assemble(&src).unwrap();
            let mut out: Vec<u8> = prog.words.iter().flat_map(|w| w.to_le_bytes()).collect();
            out.truncate(bytes.len());
            assert_eq!(out, bytes);
        },
    );
}

#[test]
fn mmu_translation_stays_in_segment() {
    let gen = |g: &mut Gen| (g.int(0u32..0o700) * 64, g.int(1u32..=128), word(g));
    check(64, gen, |(seg_base, len_blocks, vaddr)| {
        let mut mmu = Mmu::new();
        mmu.enabled = true;
        let len = len_blocks * 64;
        mmu.set_segment(
            Mode::User,
            0,
            SegmentDescriptor::mapping(seg_base, len, Access::ReadWrite),
        );
        match mmu.translate(vaddr, Mode::User, false) {
            Ok(p) => {
                // Only segment 0 is mapped; any successful translation must
                // land inside [base, base+len).
                assert!(vaddr >> 13 == 0);
                assert!(p >= seg_base && p < seg_base + len);
                assert_eq!(p - seg_base, (vaddr & 0o17777) as u32);
            }
            Err(abort) => {
                let in_seg0 = vaddr >> 13 == 0;
                let off = (vaddr & 0o17777) as u32;
                assert!(!in_seg0 || off >= len, "{abort:?}");
            }
        }
    });
}

#[test]
fn memory_word_byte_consistency() {
    check(
        64,
        |g| (g.int(0u32..0o37776) * 2, word(g)),
        |(addr, w)| {
            let mut m = Machine::new();
            m.mem.write_word(addr, w);
            let [lo, hi] = w.to_le_bytes();
            assert_eq!(m.mem.read_byte(addr), lo);
            assert_eq!(m.mem.read_byte(addr + 1), hi);
        },
    );
}

fn swab_swaps_one(w: u16) {
    let src = format!("MOV #{w}, R0\nSWAB R0\nHALT");
    let prog = assemble(&src).unwrap();
    let mut m = Machine::new();
    m.mem.load_words(0, &prog.words);
    m.cpu.set_reg(6, 0o10000);
    m.run_until_event(100).unwrap();
    assert_eq!(m.cpu.reg(0), w.rotate_left(8));
}

#[test]
fn swab_swaps() {
    // `w = 0` is a recorded past failure of this suite: it runs first.
    swab_swaps_one(0);
    check(64, word, swab_swaps_one);
}

#[test]
fn decode_never_panics() {
    let decode = |w| {
        let _ = sep_machine::isa::decode(w);
    };
    decode(0); // the recorded `w = 0` failure, as in `swab_swaps`
    check(64, word, decode);
}

/// Disassembling a word window and reassembling the text at the same
/// origin reproduces the original encoding exactly.
fn disassembler_roundtrips_on(words: [u16; 3]) {
    use sep_machine::disasm::disassemble_at;
    let origin = 0o2000u16;
    let (listing, used) = disassemble_at(&words, 0, origin);
    let src = format!(".org {origin}\n{}", listing.text);
    let prog = assemble(&src).unwrap_or_else(|e| panic!("{}: {e}", listing.text));
    let skip = (origin / 2) as usize;
    assert_eq!(
        &prog.words[skip..],
        &words[..used],
        "text: {}",
        listing.text
    );
    assert_eq!(listing.words, &words[..used]);
}

#[test]
fn disassembler_roundtrips() {
    // SCC with an empty mask: once disassembled as `NOP` (0o000240).
    disassembler_roundtrips_on([0o000260, 0, 0]);
    // Every base word, with zero extension words and with extension words
    // that make PC-relative targets wrap around the address space.
    for w in 0..=u16::MAX {
        disassembler_roundtrips_on([w, 0, 0]);
        disassembler_roundtrips_on([w, 0o1234, 0o177776]);
    }
}

/// The shape `decode` gives an instruction, to hold the opcode table to.
fn decoded_shape(instr: Instr) -> Shape {
    match instr {
        Instr::Double { .. } => Shape::Double,
        Instr::Single { .. } | Instr::Jmp { .. } => Shape::Single,
        Instr::Branch { .. } => Shape::Branch,
        Instr::Jsr { .. } | Instr::Xor { .. } => Shape::RegDst,
        Instr::Mul { .. } | Instr::Div { .. } | Instr::Ash { .. } => Shape::RegSrc,
        Instr::Rts { .. } => Shape::Rts,
        Instr::Sob { .. } => Shape::Sob,
        Instr::Emt(_) | Instr::Trap(_) => Shape::Trap,
        _ => Shape::NoOperand,
    }
}

#[test]
fn opcode_table_agrees_with_decode() {
    for w in 0..=u16::MAX {
        let named: Vec<&Opcode> = OPCODES
            .iter()
            .filter(|o| w & !o.shape.field_mask() == o.base)
            .collect();
        assert!(named.len() <= 1, "{w:#o} has two names: {named:?}");
        match (Opcode::of_word(w), decode(w)) {
            (Some(op), Some(instr)) => {
                assert_eq!(decoded_shape(instr), op.shape, "{w:#o} {op:?} {instr:?}");
                // The name is the decoded operation's (`MOVB` is `Mov` with
                // `byte`); condition codes are pinned below.
                let byte = matches!(
                    instr,
                    Instr::Double { byte: true, .. } | Instr::Single { byte: true, .. }
                );
                let stem = match op.mnemonic.strip_suffix('B') {
                    Some(stem) if byte => stem,
                    _ => {
                        assert!(!byte, "{w:#o}: {} is a byte operation", op.mnemonic);
                        op.mnemonic
                    }
                };
                let debug = format!("{instr:?}").to_ascii_uppercase();
                if !matches!(instr, Instr::CondCode { .. }) {
                    assert!(
                        debug.contains(&format!(": {stem},"))
                            || debug.starts_with(&format!("{stem} "))
                            || debug.starts_with(&format!("{stem}("))
                            || debug == stem,
                        "{w:#o}: {} is not {instr:?}",
                        op.mnemonic
                    );
                }
            }
            (Some(op), None) => panic!("{w:#o}: {} names a word decode rejects", op.mnemonic),
            // Only condition-code combinations without a name go unnamed.
            (None, Some(instr)) => {
                assert!(matches!(instr, Instr::CondCode { .. }), "{w:#o} {instr:?}")
            }
            (None, None) => {}
        }
    }
    let cc = [
        ("NOP", false, 0),
        ("CLC", false, 1),
        ("CLV", false, 2),
        ("CLZ", false, 4),
        ("CLN", false, 8),
        ("CCC", false, 15),
        ("SEC", true, 1),
        ("SEV", true, 2),
        ("SEZ", true, 4),
        ("SEN", true, 8),
        ("SCC", true, 15),
    ];
    for (name, set, mask) in cc {
        let base = Opcode::named(name).unwrap().base;
        assert_eq!(decode(base), Some(Instr::CondCode { set, mask }), "{name}");
    }
}

#[test]
fn xtea_roundtrips() {
    let gen = |g: &mut Gen| {
        (
            [g.int(..), g.int(..)],
            [g.int(..), g.int(..), g.int(..), g.int(..)],
        )
    };
    check(64, gen, |(block, key): ([u32; 2], [u32; 4])| {
        use sep_machine::dev::crypto::{xtea_decrypt, xtea_encrypt};
        assert_eq!(xtea_decrypt(xtea_encrypt(block, key), key), block);
    });
}

/// The byte-width double-operand ops (ADD and SUB have no byte form).
const DOUBLE_B: [&str; 5] = ["MOV", "CMP", "BIT", "BIC", "BIS"];
/// The single-operand ops with a byte form (SWAB and SXT are word-only).
const SINGLE_B: [&str; 12] = [
    "CLR", "COM", "INC", "DEC", "NEG", "ADC", "SBC", "TST", "ROR", "ROL", "ASR", "ASL",
];
/// Where the ALU oracle keeps its memory operand (even; the odd case is +1).
const DATA: u16 = 0o1000;

/// Reference semantics of one ALU op at `bits` width, written in `i32`
/// arithmetic from the processor handbook rather than from the machine's
/// own formulas. `op` is the word mnemonic; `s` and `d` are unsigned
/// operands within the width. Returns the value written back (`None` for
/// the ops that only set codes) and the resulting N, Z, V, C.
fn alu_ref(op: &str, bits: u32, s: i32, d: i32, cc: u16) -> (Option<i32>, [bool; 4]) {
    let mask = (1 << bits) - 1;
    let min = -(1 << (bits - 1));
    let max = (1 << (bits - 1)) - 1;
    let signed = |x: i32| if x > max { x - (1 << bits) } else { x };
    let overflows = |x: i32| x < min || x > max;
    let msb = |x: i32| x >> (bits - 1) & 1 == 1;
    let (n_in, c_in) = (cc & 8 != 0, cc & 1 != 0);
    let c = c_in as i32;
    // (result, V, C) for the ops whose N and Z follow the result.
    let (r, v, c_out) = match op {
        "MOV" => (s, false, c_in),
        "CMP" => {
            let r = (s - d) & mask;
            let flags = [msb(r), r == 0, overflows(signed(s) - signed(d)), s < d];
            return (None, flags);
        }
        "BIT" => {
            let r = s & d;
            return (None, [msb(r), r == 0, false, c_in]);
        }
        "BIC" => (d & !s & mask, false, c_in),
        "BIS" => (d | s, false, c_in),
        "ADD" => (
            (s + d) & mask,
            overflows(signed(s) + signed(d)),
            s + d > mask,
        ),
        "SUB" => ((d - s) & mask, overflows(signed(d) - signed(s)), d < s),
        "CLR" => (0, false, false),
        "COM" => (!d & mask, false, true),
        "INC" => ((d + 1) & mask, overflows(signed(d) + 1), c_in),
        "DEC" => ((d - 1) & mask, overflows(signed(d) - 1), c_in),
        "NEG" => ((-d) & mask, overflows(-signed(d)), d != 0),
        "ADC" => ((d + c) & mask, overflows(signed(d) + c), d + c > mask),
        // The handbook's SBC: V whenever the operand was the most negative
        // value, C unless a set carry was borrowed from zero.
        "SBC" => ((d - c) & mask, signed(d) == min, !(d == 0 && c_in)),
        "TST" => return (None, [msb(d), d == 0, false, false]),
        "ROR" | "ROL" | "ASR" | "ASL" => {
            let (r, c_out) = match op {
                "ROR" => ((d >> 1) | c << (bits - 1), d & 1 == 1),
                "ROL" => (((d << 1) | c) & mask, msb(d)),
                "ASR" => ((signed(d) >> 1) & mask, d & 1 == 1),
                _ => ((d << 1) & mask, msb(d)),
            };
            (r, msb(r) != c_out, c_out)
        }
        "SWAB" => {
            let r = (d >> 8 | d << 8) & mask;
            let low = r & 0xFF;
            return (Some(r), [low & 0x80 != 0, low == 0, false, false]);
        }
        "SXT" => {
            return (
                Some(if n_in { mask } else { 0 }),
                [n_in, !n_in, false, c_in],
            )
        }
        _ => unreachable!("{op}"),
    };
    (Some(r), [msb(r), r == 0, v, c_out])
}

/// Where an oracle case puts its destination operand.
#[derive(Clone, Copy, Debug)]
enum Dst {
    /// R2.
    Reg,
    /// The memory word or byte at `DATA + offset`, addressed through R3.
    Mem(u16),
}

impl Dst {
    /// The destination operand in assembly.
    fn operand(self) -> &'static str {
        match self {
            Dst::Reg => "R2",
            Dst::Mem(_) => "(R3)",
        }
    }

    /// The destination word whose addressed byte is `d` and whose other
    /// byte is `other`.
    fn word_with(self, d: u16, other: u16) -> u16 {
        match self {
            Dst::Mem(1) => d << 8 | other,
            _ => other << 8 | d,
        }
    }
}

/// One machine executing one instruction at address 0, reused for every
/// case of an op: each case loads the operands and condition codes, runs
/// one step, and reads back the destination and codes.
struct AluRig {
    m: Machine,
    dst: Dst,
}

impl AluRig {
    /// `text` is the instruction, with R1 as source and R2 or (R3) as
    /// destination.
    fn new(text: &str, dst: Dst, hotpath: bool) -> AluRig {
        let prog = assemble(&format!("{text}\nHALT\n")).unwrap();
        let mut m = Machine::new();
        m.set_hotpath(hotpath);
        m.mem.load_words(0, &prog.words);
        if let Dst::Mem(offset) = dst {
            m.cpu.set_reg(3, DATA + offset);
        }
        AluRig { m, dst }
    }

    /// Runs the instruction with R1 = `src`, the destination word = `dst`
    /// and the incoming codes `cc`; returns the destination word after and
    /// the codes as N, Z, V, C.
    fn run(&mut self, src: u16, dst: u16, cc: u16) -> (u16, [bool; 4]) {
        let m = &mut self.m;
        m.cpu.pc = 0;
        m.cpu.set_reg(1, src);
        match self.dst {
            Dst::Reg => m.cpu.set_reg(2, dst),
            Dst::Mem(_) => m.mem.write_word(DATA as u32, dst),
        }
        m.cpu.psw.set_cc_bits(cc);
        assert_eq!(m.step(), Event::Ran);
        let after = match self.dst {
            Dst::Reg => m.cpu.reg(2),
            Dst::Mem(_) => m.mem.read_word(DATA as u32),
        };
        let p = m.cpu.psw;
        (after, [p.n(), p.z(), p.v(), p.c()])
    }
}

/// The destination word expected after a byte op writes `r` (or nothing),
/// given the word before: only the addressed byte changes, except that
/// MOVB into a register sign-extends into the whole register.
fn byte_writeback(op: &str, dst: Dst, before: u16, r: Option<i32>) -> u16 {
    let Some(r) = r else { return before };
    let r = r as u16;
    match dst {
        Dst::Reg if op == "MOV" => r as u8 as i8 as i16 as u16,
        Dst::Reg | Dst::Mem(0) => (before & 0xFF00) | r,
        Dst::Mem(_) => (before & 0x00FF) | r << 8,
    }
}

const BYTE_DSTS: [Dst; 3] = [Dst::Reg, Dst::Mem(0), Dst::Mem(1)];

/// Every byte op, exhaustively over its operand bytes, into a register and
/// into even and odd memory bytes, on both engines: the result, the bytes
/// it must leave alone, MOVB's sign extension and N/Z/V/C all match
/// [`alu_ref`]. Double ops see every (source, destination) byte pair with
/// the 16 incoming code states spread across the pairs; single ops see
/// every operand byte under every incoming state.
#[test]
fn byte_ops_match_the_reference_alu() {
    for hotpath in [false, true] {
        for dst in BYTE_DSTS {
            let (s_hi, d_hi) = (0o252_u16 << 8, 0o125_u16);
            for op in DOUBLE_B {
                let mut rig = AluRig::new(&format!("{op}B R1, {}", dst.operand()), dst, hotpath);
                for s in 0..256_u16 {
                    for d in 0..256_u16 {
                        let cc = ((s * 5) ^ d ^ (d >> 4)) & 15;
                        let before = dst.word_with(d, d_hi);
                        let got = rig.run(s_hi | s, before, cc);
                        let (r, flags) = alu_ref(op, 8, s as i32, d as i32, cc);
                        let want = (byte_writeback(op, dst, before, r), flags);
                        assert_eq!(
                            got, want,
                            "{op}B {s:o},{d:o} cc {cc:o} {dst:?} hot {hotpath}"
                        );
                    }
                }
            }
            for op in SINGLE_B {
                let mut rig = AluRig::new(&format!("{op}B {}", dst.operand()), dst, hotpath);
                for d in 0..256_u16 {
                    for cc in 0..16 {
                        let before = dst.word_with(d, d_hi);
                        let got = rig.run(0, before, cc);
                        let (r, flags) = alu_ref(op, 8, 0, d as i32, cc);
                        let want = (byte_writeback(op, dst, before, r), flags);
                        assert_eq!(got, want, "{op}B {d:o} cc {cc:o} {dst:?} hot {hotpath}");
                    }
                }
            }
        }
    }
}

/// Every word op on sampled operands, into a register (the fast path's
/// register forms when the hot path is on) and into memory, on both
/// engines, against [`alu_ref`].
#[test]
fn word_ops_match_the_reference_alu() {
    let double = ["MOV", "CMP", "BIT", "BIC", "BIS", "ADD", "SUB"];
    let single = [&SINGLE_B[..], &["SWAB", "SXT"]].concat();
    let ops = double
        .iter()
        .map(|op| (*op, true))
        .chain(single.iter().map(|op| (*op, false)));
    for (op, two) in ops {
        for hotpath in [false, true] {
            for dst in [Dst::Reg, Dst::Mem(0)] {
                let text = if two {
                    format!("{op} R1, {}", dst.operand())
                } else {
                    format!("{op} {}", dst.operand())
                };
                let mut rig = AluRig::new(&text, dst, hotpath);
                let mut g = Gen::new(0xA1u64);
                for _ in 0..4000 {
                    let (s, d, cc): (u16, u16, u16) = (g.int(..), g.int(..), g.int(..16));
                    let got = rig.run(s, d, cc);
                    let (r, flags) = alu_ref(op, 16, s as i32, d as i32, cc);
                    let want = (r.map_or(d, |r| r as u16), flags);
                    assert_eq!(got, want, "{text} {s:o},{d:o} cc {cc:o} hot {hotpath}");
                }
            }
        }
    }
}

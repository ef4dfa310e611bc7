//! Property tests for the machine substrate: arithmetic flags against a
//! reference model, assembler data fidelity, and MMU bounds.

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

/// Disassembling a word window and reassembling the text reproduces the
/// original encoding exactly.
fn disassembler_roundtrips_on(words: [u16; 3]) {
    use sep_machine::disasm::disassemble_at;
    let origin = 0o2000u16;
    let (listing, used) = disassemble_at(&words, 0, origin);
    let src = format!(".org {origin}\n{}", listing.text);
    match assemble(&src) {
        Ok(prog) => {
            let skip = (origin / 2) as usize;
            assert_eq!(
                &prog.words[skip..],
                &words[..used],
                "text: {}",
                listing.text
            );
        }
        Err(e) => {
            // The only legitimate reassembly failures are branch/SOB
            // targets that wrapped around the 16-bit space.
            assert!(
                e.message.contains("out of range") || e.message.contains("odd distance"),
                "{}: {e}",
                listing.text
            );
        }
    }
}

#[test]
fn disassembler_roundtrips() {
    // SCC with an empty mask: once disassembled as `NOP` (0o000240).
    disassembler_roundtrips_on([0o000260, 0, 0]);
    check(
        64,
        |g| [word(g), word(g), word(g)],
        disassembler_roundtrips_on,
    );
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

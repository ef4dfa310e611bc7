//! Property tests for copy-on-write RAM and the partition fingerprint.
//!
//! A cloned [`Memory`] shares its parent's buffer until either side
//! stores. Random interleavings of every mutator on a clone and on its
//! original must leave each side byte-equal to an independent `Vec<u8>`
//! model, fingerprinting like a fresh unshared copy of that model, and
//! sharing storage exactly while neither side has stored since the fork.

use sep_machine::{Memory, IO_BASE};
use sep_model::prop::{check, Gen};

/// One mutator call, on the original (`false`) or the clone (`true`).
#[derive(Debug, Clone)]
enum Op {
    Byte(bool, u32, u8),
    Word(bool, u32, u16),
    Range(bool, u32, Vec<u8>),
    Words(bool, u32, Vec<u16>),
    /// Re-fork: the clone becomes a fresh clone of the original.
    Fork,
}

/// Addresses cluster in a 16 KiB window so the two sides keep writing the
/// same bytes; one draw in eight lands anywhere in RAM.
fn addr(g: &mut Gen, room: u32) -> u32 {
    let top = if g.int(0..8u8) == 0 { IO_BASE } else { 0o40000 };
    g.int(0..top - room)
}

fn op(g: &mut Gen) -> Op {
    let side = g.bool();
    match g.int(0..9u8) {
        0..=1 => Op::Byte(side, addr(g, 1), g.int(..)),
        2..=3 => Op::Word(side, addr(g, 2) & !1, g.int(..)),
        4..=5 => {
            let bytes = g.vec(1..80, |g| g.int(..));
            Op::Range(side, addr(g, bytes.len() as u32), bytes)
        }
        6..=7 => {
            let words = g.vec(1..24, |g| g.int(..));
            Op::Words(side, addr(g, 2 * words.len() as u32) & !1, words)
        }
        _ => Op::Fork,
    }
}

/// A fresh, unshared memory holding `model`'s bytes.
fn fresh(model: &[u8]) -> Memory {
    let mut m = Memory::new();
    m.write_range(0, model);
    m
}

fn apply(m: &mut Memory, model: &mut [u8], op: &Op) {
    match op {
        Op::Byte(_, a, v) => {
            m.write_byte(*a, *v);
            model[*a as usize] = *v;
        }
        Op::Word(_, a, v) => {
            m.write_word(*a, *v);
            model[*a as usize..*a as usize + 2].copy_from_slice(&v.to_le_bytes());
        }
        Op::Range(_, a, bytes) => {
            m.write_range(*a, bytes);
            model[*a as usize..*a as usize + bytes.len()].copy_from_slice(bytes);
        }
        Op::Words(_, a, words) => {
            m.load_words(*a, words);
            for (i, w) in words.iter().enumerate() {
                let at = *a as usize + 2 * i;
                model[at..at + 2].copy_from_slice(&w.to_le_bytes());
            }
        }
        Op::Fork => unreachable!("forks are handled by the driver"),
    }
}

#[test]
fn clones_are_isolated_from_their_original() {
    check(
        48,
        |g| {
            let fork_after = g.int(0..8usize);
            (fork_after, g.vec(1..40, op))
        },
        |(fork_after, ops)| {
            let mut orig = Memory::new();
            let mut orig_model = vec![0u8; IO_BASE as usize];
            // Writes before the first fork land on the original only.
            for o in ops.iter().take(fork_after) {
                if !matches!(o, Op::Fork) {
                    apply(&mut orig, &mut orig_model, o);
                }
            }
            let mut copy = orig.clone();
            let mut copy_model = orig_model.clone();
            let mut shared = true;
            for o in ops.iter().skip(fork_after) {
                match o {
                    Op::Fork => {
                        copy = orig.clone();
                        copy_model.clone_from(&orig_model);
                        shared = true;
                    }
                    Op::Byte(false, ..)
                    | Op::Word(false, ..)
                    | Op::Range(false, ..)
                    | Op::Words(false, ..) => apply(&mut orig, &mut orig_model, o),
                    _ => apply(&mut copy, &mut copy_model, o),
                }
                if !matches!(o, Op::Fork) {
                    shared = false;
                }
                assert_eq!(orig.shares_storage_with(&copy), shared, "after {o:?}");
                assert!(
                    orig.range(0, IO_BASE) == &orig_model[..],
                    "original after {o:?}"
                );
                assert!(
                    copy.range(0, IO_BASE) == &copy_model[..],
                    "clone after {o:?}"
                );
            }
            // Fingerprints agree with fresh unshared copies of the models,
            // over the 8 KiB partitions the kernel hashes.
            let (orig_ref, copy_ref) = (fresh(&orig_model), fresh(&copy_model));
            for base in (0..0o40000).step_by(0o20000) {
                assert_eq!(
                    orig.fingerprint(base, 0o20000),
                    orig_ref.fingerprint(base, 0o20000)
                );
                assert_eq!(
                    copy.fingerprint(base, 0o20000),
                    copy_ref.fingerprint(base, 0o20000)
                );
            }
        },
    );
}

#[test]
fn a_clone_shares_until_the_first_store() {
    let mut a = Memory::new();
    a.write_word(0o1000, 0o123);
    let b = a.clone();
    assert!(a.shares_storage_with(&b));
    let c = b.clone();
    assert!(a.shares_storage_with(&c) && b.shares_storage_with(&c));
    a.write_byte(0o1000, 0o123);
    assert!(
        !a.shares_storage_with(&b),
        "a store copies out, even of equal bytes"
    );
    assert!(b.shares_storage_with(&c), "the other clones keep sharing");
    assert_eq!(a, b);
    assert!(!Memory::new().shares_storage_with(&Memory::new()));
}

#[test]
fn every_single_bit_flip_in_a_partition_changes_its_fingerprint() {
    const BASE: u32 = 0o20000;
    const LEN: u32 = 0o20000;
    let mut g = Gen::new(0xF11F);
    let mut m = Memory::new();
    let content: Vec<u8> = (0..LEN).map(|_| g.int(..)).collect();
    m.write_range(BASE, &content);
    let clean = m.fingerprint(BASE, LEN);
    for at in BASE..BASE + LEN {
        let b = m.read_byte(at);
        for bit in 0..8 {
            m.write_byte(at, b ^ (1 << bit));
            assert_ne!(
                m.fingerprint(BASE, LEN),
                clean,
                "flip of bit {bit} at {at:o}"
            );
        }
        m.write_byte(at, b);
    }
    assert_eq!(m.fingerprint(BASE, LEN), clean);
}

#[test]
fn odd_ranges_hash_by_contents_alone() {
    // Odd starts and lengths that are not a multiple of the 32-byte stripe
    // exercise the word and byte tails. Equal contents hash alike at any
    // base; bytes just outside the range never count; a change to any byte
    // inside always does.
    check(
        128,
        |g| {
            let len = g.int(0..300u32);
            let a = 2 * g.int(1..1000u32) + 1;
            let b = g.int(1..3000u32);
            (
                a,
                b,
                g.vec(len as usize..len as usize + 1, |g| g.int::<u8>(..)),
            )
        },
        |(a, b, bytes)| {
            let len = bytes.len() as u32;
            let mut m = Memory::new();
            m.write_range(a, &bytes);
            let mut n = Memory::new();
            n.write_range(0o100000 + b, &bytes);
            let fp = m.fingerprint(a, len);
            assert_eq!(fp, n.fingerprint(0o100000 + b, len));
            m.write_byte(a - 1, 0xA5);
            m.write_byte(a + len, 0x5A);
            assert_eq!(m.fingerprint(a, len), fp, "bytes outside the range");
            for at in a..a + len {
                let b = m.read_byte(at);
                m.write_byte(at, b ^ 0x80);
                assert_ne!(m.fingerprint(a, len), fp, "byte {} changed", at - a);
                m.write_byte(at, b);
            }
        },
    );
}

#[test]
fn the_length_is_part_of_the_fingerprint() {
    // All-zero ranges differ only in length; every length hashes apart.
    let m = Memory::new();
    let mut seen: Vec<u64> = (0..=200).map(|len| m.fingerprint(0o1001, len)).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 201);
}

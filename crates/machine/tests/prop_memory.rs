//! Property tests for page-granular copy-on-write RAM and the cached page
//! fingerprint.
//!
//! A cloned [`Memory`] shares its parent's pages until either side stores.
//! Random interleavings of every mutator and of fingerprint reads (which
//! fill the per-page cache) on a clone and on its original must leave each
//! side byte-equal to an independent `Vec<u8>` model, fingerprinting like a
//! fresh unshared copy of that model, and sharing storage exactly while
//! neither side has stored since the fork. Writes are drawn to straddle
//! page boundaries, so a store that misses a page's cache shows up.

use sep_machine::mem::PAGES;
use sep_machine::{Memory, IO_BASE, PAGE_SIZE};
use sep_model::prop::{check, Gen};
use std::sync::Arc;

/// One mutator call, on the original (`false`) or the clone (`true`).
#[derive(Debug, Clone)]
enum Op {
    Byte(bool, u32, u8),
    Word(bool, u32, u16),
    Range(bool, u32, Vec<u8>),
    Words(bool, u32, Vec<u16>),
    /// Fingerprint `len` bytes at an address: a whole page (filling its
    /// cache) or any range, possibly crossing pages.
    Fp(bool, u32, u32),
    /// Re-fork: the clone becomes a fresh clone of the original.
    Fork,
}

/// Addresses cluster in a 16 KiB window so the two sides keep writing the
/// same bytes; one draw in four ends just past a page boundary, so the
/// write straddles it; one in eight lands anywhere in RAM.
fn addr(g: &mut Gen, room: u32) -> u32 {
    match g.int(0..8u8) {
        0 => g.int(0..IO_BASE - room),
        1..=2 => (PAGE_SIZE * g.int(1..PAGES as u32))
            .saturating_sub(g.int(1..=room))
            .min(IO_BASE - room),
        _ => g.int(0..0o40000 - room),
    }
}

fn op(g: &mut Gen) -> Op {
    let side = g.bool();
    match g.int(0..12u8) {
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
        8..=9 => Op::Fp(side, PAGE_SIZE * g.int(0..2), PAGE_SIZE),
        10 => {
            let len = g.int(0..2 * PAGE_SIZE);
            Op::Fp(side, addr(g, len.max(1)), len)
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

/// The fingerprint of `bytes` copied to a fresh memory at an odd address,
/// where it is hashed from the bytes, never from a page's cache.
fn reference_fp(bytes: &[u8]) -> u64 {
    let mut m = Memory::new();
    m.write_range(1, bytes);
    m.fingerprint(1, bytes.len() as u32)
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
        Op::Fp(_, a, len) => {
            let (a, len) = (*a, *len);
            let bytes = &model[a as usize..(a + len) as usize];
            assert_eq!(m.fingerprint(a, len), reference_fp(bytes), "{len} at {a:o}");
        }
        Op::Fork => unreachable!("forks are handled by the driver"),
    }
}

fn side(op: &Op) -> bool {
    match op {
        Op::Byte(s, ..) | Op::Word(s, ..) | Op::Range(s, ..) | Op::Words(s, ..) => *s,
        Op::Fp(s, ..) => *s,
        Op::Fork => unreachable!("forks have no side"),
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
                    o if side(o) => apply(&mut copy, &mut copy_model, o),
                    o => apply(&mut orig, &mut orig_model, o),
                }
                if !matches!(o, Op::Fork | Op::Fp(..)) {
                    shared = false;
                }
                assert_eq!(orig.shares_storage_with(&copy), shared, "after {o:?}");
                assert!(
                    *orig.range(0, IO_BASE) == orig_model[..],
                    "original after {o:?}"
                );
                assert!(
                    *copy.range(0, IO_BASE) == copy_model[..],
                    "clone after {o:?}"
                );
            }
            // Every page fingerprints like a fresh unshared copy of the
            // model, whatever the caches held along the way.
            let (orig_ref, copy_ref) = (fresh(&orig_model), fresh(&copy_model));
            for base in (0..IO_BASE).step_by(PAGE_SIZE as usize) {
                assert_eq!(
                    orig.fingerprint(base, PAGE_SIZE),
                    orig_ref.fingerprint(base, PAGE_SIZE)
                );
                assert_eq!(
                    copy.fingerprint(base, PAGE_SIZE),
                    copy_ref.fingerprint(base, PAGE_SIZE)
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
fn a_store_copies_only_the_page_it_touches() {
    let fresh = Memory::new();
    for base in (0..IO_BASE).step_by(PAGE_SIZE as usize) {
        assert!(
            Arc::ptr_eq(fresh.page(base), fresh.page(0)),
            "one zero page fills every slot"
        );
    }
    let mut m = fresh.clone();
    m.write_word(3 * PAGE_SIZE + 6, 1);
    for base in (0..IO_BASE).step_by(PAGE_SIZE as usize) {
        assert_eq!(
            Arc::ptr_eq(m.page(base), fresh.page(base)),
            base != 3 * PAGE_SIZE,
            "page at {base:o}"
        );
    }
}

#[test]
fn writes_straddling_every_page_boundary_refresh_both_caches() {
    let mut m = Memory::new();
    let mut model = vec![0u8; IO_BASE as usize];
    let check = |m: &Memory, model: &[u8], edge: u32| {
        for base in [edge - PAGE_SIZE, edge] {
            let page = &model[base as usize..(base + PAGE_SIZE) as usize];
            assert_eq!(
                m.fingerprint(base, PAGE_SIZE),
                reference_fp(page),
                "{base:o}"
            );
        }
        let across = &model[edge as usize - 100..edge as usize + 100];
        assert_eq!(m.fingerprint(edge - 100, 200), reference_fp(across));
        assert!(*m.range(edge - 100, 200) == *across);
    };
    for edge in (PAGE_SIZE..IO_BASE).step_by(PAGE_SIZE as usize) {
        // Both neighbours' fingerprints are cached before every store.
        check(&m, &model, edge);
        let bytes = [edge as u8, 1, 2, 3, 4];
        m.write_range(edge - 3, &bytes);
        model[edge as usize - 3..edge as usize + 2].copy_from_slice(&bytes);
        check(&m, &model, edge);
        let words = [edge as u16, 0o177777, 0o123456, 7];
        m.load_words(edge - 4, &words);
        for (i, w) in words.iter().enumerate() {
            let at = edge as usize - 4 + 2 * i;
            model[at..at + 2].copy_from_slice(&w.to_le_bytes());
        }
        check(&m, &model, edge);
    }
}

#[test]
fn every_single_bit_flip_in_two_adjacent_pages_changes_its_fingerprint() {
    // A flip in either page changes that page's fingerprint and leaves the
    // neighbour's cached one alone; restoring the byte restores it.
    const BASE: u32 = PAGE_SIZE;
    let mut g = Gen::new(0xF11F);
    let mut m = Memory::new();
    let content: Vec<u8> = (0..2 * PAGE_SIZE).map(|_| g.int(..)).collect();
    m.write_range(BASE, &content);
    let fps = |m: &Memory| [0, 1].map(|p| m.fingerprint(BASE + p * PAGE_SIZE, PAGE_SIZE));
    let clean = fps(&m);
    for at in BASE..BASE + 2 * PAGE_SIZE {
        let page = ((at - BASE) / PAGE_SIZE) as usize;
        let b = m.read_byte(at);
        for bit in 0..8 {
            m.write_byte(at, b ^ (1 << bit));
            let now = fps(&m);
            assert_ne!(now[page], clean[page], "flip of bit {bit} at {at:o}");
            assert_eq!(now[1 - page], clean[1 - page], "neighbour of {at:o}");
        }
        m.write_byte(at, b);
        assert_eq!(fps(&m), clean, "restored {at:o}");
    }
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

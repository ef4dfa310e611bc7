//! Physical memory: 18-bit byte-addressed space with a memory-mapped I/O
//! page at the top.
//!
//! The top 8 KiB of the physical address space (`0o760000..=0o777777`) is
//! the **I/O page**: reads and writes there are routed to device registers
//! by the machine, never to RAM. This is the property the SUE exploits —
//! "the memory management of a PDP-11 allows device registers to be
//! protected just like ordinary memory locations."
//!
//! RAM is **copy-on-write**: cloning a [`Memory`] shares the parent's
//! buffer, and the first store into either side copies the whole RAM
//! once. A checker state that never stores therefore costs no RAM of its
//! own, and a cloned kernel pays for its memory only when it writes.

use crate::types::{PhysAddr, Word};
use std::sync::Arc;

/// Total physical address space in bytes (18-bit addressing).
pub const PHYS_SIZE: u32 = 1 << 18;

/// First byte address of the I/O page.
pub const IO_BASE: u32 = PHYS_SIZE - 8 * 1024;

/// Physical RAM (the I/O page portion is never stored here), shared
/// copy-on-write between clones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    bytes: Arc<[u8]>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// All-zero RAM covering the full non-I/O physical space.
    pub fn new() -> Memory {
        // Collected straight into the shared buffer: one allocation, no
        // copy through a temporary `Vec`.
        Memory {
            bytes: std::iter::repeat_n(0, IO_BASE as usize).collect(),
        }
    }

    /// True when the address falls in the I/O page.
    pub fn is_io(addr: PhysAddr) -> bool {
        addr >= IO_BASE
    }

    /// Whether `self` and `other` still share one RAM buffer: neither has
    /// stored since one was cloned from the other (or from a common
    /// ancestor).
    pub fn shares_storage_with(&self, other: &Memory) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// The RAM for writing, copied out of any shared buffer first.
    fn bytes_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.bytes)
    }

    /// Reads a byte of RAM.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is in the I/O page (the machine must route such
    /// accesses to devices) or beyond physical memory.
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.bytes[addr as usize]
    }

    /// Writes a byte of RAM (same panics as [`Memory::read_byte`]).
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.bytes_mut()[addr as usize] = value;
    }

    /// Reads a little-endian word from an even RAM address.
    pub fn read_word(&self, addr: PhysAddr) -> Word {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        u16::from_le_bytes([self.bytes[addr as usize], self.bytes[addr as usize + 1]])
    }

    /// Writes a little-endian word to an even RAM address.
    pub fn write_word(&mut self, addr: PhysAddr, value: Word) {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let a = addr as usize;
        self.bytes_mut()[a..a + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies a slice of words into RAM starting at `addr` (must be even).
    pub fn load_words(&mut self, addr: PhysAddr, words: &[Word]) {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let a = addr as usize;
        let dst = &mut self.bytes_mut()[a..a + 2 * words.len()];
        for (d, w) in dst.chunks_exact_mut(2).zip(words) {
            d.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Reads `len` words starting at `addr` (must be even).
    pub fn dump_words(&self, addr: PhysAddr, len: usize) -> Vec<Word> {
        (0..len)
            .map(|i| self.read_word(addr + 2 * i as u32))
            .collect()
    }

    /// A 64-bit fingerprint of the *contents* of a physical range (not its
    /// address, so equal partitions at different bases hash alike), used
    /// by state snapshots: a four-lane word-at-a-time hash that mixes every
    /// byte and the length, and always sees a single flipped bit.
    pub fn fingerprint(&self, start: PhysAddr, len: u32) -> u64 {
        fingerprint_bytes(self.range(start, len))
    }

    /// The raw bytes of a physical range (for snapshot equality in the
    /// verification adapters).
    pub fn range(&self, start: PhysAddr, len: u32) -> &[u8] {
        &self.bytes[start as usize..(start + len) as usize]
    }

    /// Overwrites a physical range with `bytes` (bulk re-imaging: restarts,
    /// partition-content rotation in the symmetry layer).
    pub fn write_range(&mut self, start: PhysAddr, bytes: &[u8]) {
        let s = start as usize;
        self.bytes_mut()[s..s + bytes.len()].copy_from_slice(bytes);
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane round: bijective in both `acc` and `word`, so changing any
/// single input word always changes the lane.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn word_at(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// A 64-bit hash of a byte string, four `u64` lanes at a time.
///
/// Every byte is mixed: 32-byte stripes feed four independent lanes, the
/// lanes fold one by one into a length-seeded accumulator, then the
/// remaining whole words and tail bytes follow, and a final avalanche
/// spreads every input bit over the output. Each input (stripe word, lane,
/// tail word or tail byte) is consumed exactly once by a step that is a
/// bijection in it and in the accumulator, so two strings of the same
/// length that differ in just one of those inputs never collide; any
/// single flipped bit is always seen. The lanes are independent, so the
/// CPU overlaps their multiplies: an 8 KiB partition hashes in a fraction
/// of a microsecond, against ~11 µs for a byte-serial loop.
fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let (mut v0, mut v1, mut v2, mut v3) = (P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1));
    for s in &mut stripes {
        v0 = round(v0, word_at(&s[0..]));
        v1 = round(v1, word_at(&s[8..]));
        v2 = round(v2, word_at(&s[16..]));
        v3 = round(v3, word_at(&s[24..]));
    }
    let fold = |h: u64, x: u64| {
        (h ^ round(0, x))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4)
    };
    let mut h = P5.wrapping_add(bytes.len() as u64);
    if bytes.len() >= 32 {
        for lane in [v0, v1, v2, v3] {
            h = fold(h, lane);
        }
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = fold(h, word_at(w));
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_page_location() {
        assert_eq!(IO_BASE, 0o760000);
        assert!(Memory::is_io(0o777560));
        assert!(!Memory::is_io(0o757777));
    }

    #[test]
    fn words_are_little_endian() {
        let mut m = Memory::new();
        m.write_word(0o1000, 0o123456);
        assert_eq!(m.read_byte(0o1000), (0o123456u16 & 0xFF) as u8);
        assert_eq!(m.read_word(0o1000), 0o123456);
    }

    #[test]
    fn load_and_dump_roundtrip() {
        let mut m = Memory::new();
        let words = [1, 2, 3, 0o177777];
        m.load_words(0o2000, &words);
        assert_eq!(m.dump_words(0o2000, 4), words);
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        let mut a = Memory::new();
        let b = Memory::new();
        assert_eq!(a.fingerprint(0, 1024), b.fingerprint(0, 1024));
        a.write_byte(100, 7);
        assert_ne!(a.fingerprint(0, 1024), b.fingerprint(0, 1024));
        // Change outside the range does not affect it.
        assert_eq!(a.fingerprint(200, 100), b.fingerprint(200, 100));
    }

    #[test]
    fn range_returns_bytes() {
        let mut m = Memory::new();
        m.write_byte(10, 0xAB);
        assert_eq!(m.range(10, 2), &[0xAB, 0]);
    }
}

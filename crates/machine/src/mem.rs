//! Physical memory: 18-bit byte-addressed space with a memory-mapped I/O
//! page at the top.
//!
//! The top 8 KiB of the physical address space (`0o760000..=0o777777`) is
//! the **I/O page**: reads and writes there are routed to device registers
//! by the machine, never to RAM. This is the property the SUE exploits —
//! "the memory management of a PDP-11 allows device registers to be
//! protected just like ordinary memory locations."
//!
//! RAM is **page-granular copy-on-write**: 31 pages of [`PAGE_SIZE`] bytes,
//! each its own reference-counted [`Page`]. Cloning a [`Memory`] shares
//! every page, and the first store into a shared page copies that one page
//! (8 KiB), never the rest of RAM. A fresh memory shares a single zero page
//! across all of its slots. A checker state therefore owns only the pages
//! its history wrote, and a cloned kernel pays for the pages it touches.
//!
//! Each page caches its content [`Page::fingerprint`] beside its bytes,
//! computed on first use and cleared by every store into the page. A kernel
//! partition is exactly one page, so hashing an unchanged partition is a
//! cached read, and copying a partition between machines (a restart's
//! re-imaging, a symmetry rotation, a regime's view of the machine) is a
//! page swap rather than a byte copy.

use crate::types::{PhysAddr, Word};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Total physical address space in bytes (18-bit addressing).
pub const PHYS_SIZE: u32 = 1 << 18;

/// First byte address of the I/O page.
pub const IO_BASE: u32 = PHYS_SIZE - 8 * 1024;

/// Bytes per RAM page: the unit of copy-on-write sharing and of
/// fingerprint caching.
pub const PAGE_SIZE: u32 = 8 * 1024;

/// Number of RAM pages: everything below the I/O page.
pub const PAGES: usize = (IO_BASE / PAGE_SIZE) as usize;

const _: () = assert!(IO_BASE.is_multiple_of(PAGE_SIZE));

/// The index of the page holding `addr`.
#[inline(always)]
fn page_index(addr: PhysAddr) -> usize {
    (addr / PAGE_SIZE) as usize
}

/// `addr`'s byte offset within its page.
#[inline(always)]
fn page_offset(addr: PhysAddr) -> usize {
    (addr % PAGE_SIZE) as usize
}

/// One page of RAM and the cached fingerprint of its contents.
///
/// Two pages are equal when they are the same allocation or hold the same
/// bytes; a page hashes as its fingerprint, which equal bytes share.
#[derive(Clone)]
pub struct Page {
    bytes: [u8; PAGE_SIZE as usize],
    fp: OnceLock<u64>,
}

impl Page {
    /// The content fingerprint of the page, as [`Memory::fingerprint`]
    /// gives it for the page's range: hashed on first use, then cached
    /// until the next store into the page.
    fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| fingerprint_bytes(&self.bytes))
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        // Cached fingerprints that differ prove the bytes differ.
        if let (Some(a), Some(b)) = (self.fp.get(), other.fp.get()) {
            if a != b {
                return false;
            }
        }
        self.bytes == other.bytes
    }
}

impl Eq for Page {}

impl std::hash::Hash for Page {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

/// Prints the bytes, as a byte slice prints.
impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.bytes[..].fmt(f)
    }
}

/// Physical RAM (the I/O page portion is never stored here), shared
/// copy-on-write between clones one page at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    pages: [Arc<Page>; PAGES],
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// All-zero RAM covering the full non-I/O physical space: one zero
    /// page, shared by every slot until each is first stored to.
    pub fn new() -> Memory {
        let zero = Arc::new(Page {
            bytes: [0; PAGE_SIZE as usize],
            fp: OnceLock::new(),
        });
        Memory {
            pages: std::array::from_fn(|_| zero.clone()),
        }
    }

    /// True when the address falls in the I/O page.
    pub fn is_io(addr: PhysAddr) -> bool {
        addr >= IO_BASE
    }

    /// Whether `self` and `other` share every page: neither has stored
    /// since one was cloned from the other (or from a common ancestor).
    pub fn shares_storage_with(&self, other: &Memory) -> bool {
        self.pages
            .iter()
            .zip(&other.pages)
            .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The page starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or not below [`IO_BASE`].
    pub fn page(&self, base: PhysAddr) -> &Arc<Page> {
        assert_eq!(page_offset(base), 0, "unaligned page base {base:o}");
        &self.pages[page_index(base)]
    }

    /// Replaces the page starting at `base` (same panics as
    /// [`Memory::page`]): bulk re-imaging shares the new page instead of
    /// copying its bytes.
    pub fn set_page(&mut self, base: PhysAddr, page: Arc<Page>) {
        assert_eq!(page_offset(base), 0, "unaligned page base {base:o}");
        self.pages[page_index(base)] = page;
    }

    /// The bytes of the page holding `addr`, for writing: copied out of any
    /// sharing first, with the page's cached fingerprint cleared.
    fn page_mut(&mut self, addr: PhysAddr) -> &mut [u8; PAGE_SIZE as usize] {
        let page = Arc::make_mut(&mut self.pages[page_index(addr)]);
        page.fp = OnceLock::new();
        &mut page.bytes
    }

    /// Reads a byte of RAM.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is in the I/O page (the machine must route such
    /// accesses to devices) or beyond physical memory.
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.pages[page_index(addr)].bytes[page_offset(addr)]
    }

    /// Writes a byte of RAM (same panics as [`Memory::read_byte`]).
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.page_mut(addr)[page_offset(addr)] = value;
    }

    /// Reads a little-endian word from an even RAM address (an even word
    /// never straddles two pages).
    pub fn read_word(&self, addr: PhysAddr) -> Word {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let (bytes, o) = (&self.pages[page_index(addr)].bytes, page_offset(addr));
        u16::from_le_bytes([bytes[o], bytes[o + 1]])
    }

    /// Writes a little-endian word to an even RAM address.
    pub fn write_word(&mut self, addr: PhysAddr, value: Word) {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let o = page_offset(addr);
        self.page_mut(addr)[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies a slice of words into RAM starting at `addr` (must be even).
    pub fn load_words(&mut self, addr: PhysAddr, words: &[Word]) {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.write_range(addr, &bytes);
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
    /// byte and the length, and always sees a single flipped bit. A whole,
    /// aligned page answers from its cache.
    pub fn fingerprint(&self, start: PhysAddr, len: u32) -> u64 {
        if len == PAGE_SIZE && page_offset(start) == 0 {
            self.page(start).fingerprint()
        } else {
            fingerprint_bytes(&self.range(start, len))
        }
    }

    /// The raw bytes of a physical range: borrowed when the range lies
    /// within one page, copied out when it crosses pages.
    pub fn range(&self, start: PhysAddr, len: u32) -> Cow<'_, [u8]> {
        let (o, len) = (page_offset(start), len as usize);
        if o + len <= PAGE_SIZE as usize {
            return Cow::Borrowed(&self.pages[page_index(start)].bytes[o..o + len]);
        }
        let mut out = Vec::with_capacity(len);
        let mut addr = start;
        while out.len() < len {
            let o = page_offset(addr);
            let n = (len - out.len()).min(PAGE_SIZE as usize - o);
            out.extend_from_slice(&self.pages[page_index(addr)].bytes[o..o + n]);
            addr += n as u32;
        }
        Cow::Owned(out)
    }

    /// Overwrites a physical range with `bytes`, page by page.
    pub fn write_range(&mut self, start: PhysAddr, bytes: &[u8]) {
        let (mut addr, mut rest) = (start, bytes);
        while !rest.is_empty() {
            let o = page_offset(addr);
            let n = rest.len().min(PAGE_SIZE as usize - o);
            self.page_mut(addr)[o..o + n].copy_from_slice(&rest[..n]);
            (addr, rest) = (addr + n as u32, &rest[n..]);
        }
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
        assert_eq!(&*m.range(10, 2), &[0xAB, 0]);
    }
}

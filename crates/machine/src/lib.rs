//! A PDP-11/34-flavoured machine simulator.
//!
//! Rushby's separation kernel (the RSRE "Secure User Environment") ran on a
//! PDP-11/34 and leaned on three properties of that hardware:
//!
//! 1. memory management that protects *device registers* exactly like
//!    ordinary memory (so whole devices can be given to regimes);
//! 2. vectored interrupts that trap through kernel space (so the kernel can
//!    field and forward them);
//! 3. the possibility of excluding DMA (so the MMU's word is final).
//!
//! This crate reproduces that substrate: a 16-bit CPU with a real subset of
//! the PDP-11 instruction set ([`isa`], [`cpu`]), a PAR/PDR-style MMU
//! ([`mmu`]), byte-addressable physical memory with a memory-mapped I/O page
//! ([`mem`]), a device framework with serial lines, clock, printer, crypto
//! unit, and a (deliberately dangerous) DMA disk ([`dev`]), and a two-pass
//! assembler ([`asm`]) for writing regime programs.
//!
//! The machine executes *unprivileged* code only: every trap, fault, and
//! interrupt is surfaced to the embedder as an [`exec::Event`]. The
//! separation kernel in `sep-kernel` plays the role of the privileged
//! mode — exactly the "abstract interpreter" position the paper assigns it.

#![forbid(unsafe_code)]

pub mod asm;
pub mod cpu;
pub mod dev;
pub mod disasm;
pub mod exec;
mod hotpath;
pub mod isa;
pub mod mem;
pub mod mmu;
pub mod psw;
mod superblock;
pub mod types;

pub use asm::{assemble, AsmError};
pub use cpu::Cpu;
pub use dev::{Device, DeviceSet, InterruptRequest};
pub use disasm::{disassemble, Listing};
pub use exec::{Event, Machine, Trap};
pub use mem::{Memory, Page, IO_BASE, PAGE_SIZE, PHYS_SIZE};
pub use mmu::{Access, Mmu, MmuAbort, SegmentDescriptor};
pub use psw::{Mode, Psw};
pub use types::{PhysAddr, Word};

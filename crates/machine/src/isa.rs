//! Instruction set: the encoding of the PDP-11 subset the machine executes.
//!
//! Encodings are the real PDP-11 ones (word opcodes in octal), covering the
//! double-operand group, the single-operand group, branches, subroutine
//! linkage, `SOB`, EIS `MUL`/`DIV`/`ASH`/`XOR`, traps, and condition-code
//! operates — enough to write real programs, which the examples do.
//!
//! This module is the only place the encoding is spelled. [`OPCODES`] maps
//! every mnemonic to its base word and operand [`Shape`]; the assembler
//! encodes and the disassembler names words through it, and [`decode`]
//! (hand-written, as it sits on the execution hot path) is checked against
//! it over all 65,536 words by the machine's property tests.

use crate::types::Word;
use core::fmt;

/// An addressing-mode/register pair (one six-bit operand field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    /// Addressing mode 0–7.
    pub mode: u8,
    /// Register 0–7 (6 = SP, 7 = PC).
    pub reg: u8,
}

impl Operand {
    pub(crate) fn from_bits(bits: Word) -> Operand {
        Operand {
            mode: ((bits >> 3) & 0o7) as u8,
            reg: (bits & 0o7) as u8,
        }
    }

    /// The operand's six-bit field value.
    pub(crate) fn bits(self) -> Word {
        ((self.mode as Word) << 3) | self.reg as Word
    }

    /// Whether the operand takes an extension word from the instruction
    /// stream: the index modes 6 and 7, and the PC's autoincrement modes
    /// (immediate `#x` and absolute `@#x`).
    pub fn has_extension_word(self) -> bool {
        self.mode >= 6 || (self.reg == 7 && matches!(self.mode, 2 | 3))
    }
}

/// The assembler name of register `r` (`R0`–`R5`, `SP`, `PC`).
pub fn reg_name(r: u8) -> &'static str {
    ["R0", "R1", "R2", "R3", "R4", "R5", "SP", "PC"][(r & 0o7) as usize]
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = reg_name(self.reg);
        match self.mode {
            0 => write!(f, "{r}"),
            1 => write!(f, "({r})"),
            2 => write!(f, "({r})+"),
            3 => write!(f, "@({r})+"),
            4 => write!(f, "-({r})"),
            5 => write!(f, "@-({r})"),
            6 => write!(f, "X({r})"),
            _ => write!(f, "@X({r})"),
        }
    }
}

/// Double-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Move source to destination.
    Mov,
    /// Compare (source − destination, codes only).
    Cmp,
    /// Bit test (source ∧ destination, codes only).
    Bit,
    /// Bit clear (destination ∧ ¬source).
    Bic,
    /// Bit set (destination ∨ source).
    Bis,
    /// Add (word only).
    Add,
    /// Subtract (word only).
    Sub,
}

/// Single-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Clear.
    Clr,
    /// Ones complement.
    Com,
    /// Increment.
    Inc,
    /// Decrement.
    Dec,
    /// Twos complement negate.
    Neg,
    /// Add carry.
    Adc,
    /// Subtract carry.
    Sbc,
    /// Test (codes only).
    Tst,
    /// Rotate right through carry.
    Ror,
    /// Rotate left through carry.
    Rol,
    /// Arithmetic shift right.
    Asr,
    /// Arithmetic shift left.
    Asl,
    /// Swap bytes (word only).
    Swab,
    /// Sign extend from condition code N (word only).
    Sxt,
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchCond {
    /// Always.
    Br,
    /// Z = 0.
    Bne,
    /// Z = 1.
    Beq,
    /// N ⊕ V = 0.
    Bge,
    /// N ⊕ V = 1.
    Blt,
    /// Z ∨ (N ⊕ V) = 0.
    Bgt,
    /// Z ∨ (N ⊕ V) = 1.
    Ble,
    /// N = 0.
    Bpl,
    /// N = 1.
    Bmi,
    /// C ∨ Z = 0 (unsigned higher).
    Bhi,
    /// C ∨ Z = 1 (unsigned lower or same).
    Blos,
    /// V = 0.
    Bvc,
    /// V = 1.
    Bvs,
    /// C = 0.
    Bcc,
    /// C = 1.
    Bcs,
}

/// A decoded instruction (operand-extension words are fetched at execution
/// time by the addressing-mode machinery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Double-operand group; `byte` selects the byte variant.
    Double {
        /// The operation.
        op: BinOp,
        /// Byte-sized variant.
        byte: bool,
        /// Source operand.
        src: Operand,
        /// Destination operand.
        dst: Operand,
    },
    /// Single-operand group.
    Single {
        /// The operation.
        op: UnOp,
        /// Byte-sized variant.
        byte: bool,
        /// Destination operand.
        dst: Operand,
    },
    /// Conditional branch with signed word offset.
    Branch {
        /// The condition.
        cond: BranchCond,
        /// Signed offset in words from the updated PC.
        offset: i8,
    },
    /// Jump.
    Jmp {
        /// Destination (mode 0 is illegal at execution time).
        dst: Operand,
    },
    /// Jump to subroutine.
    Jsr {
        /// Linkage register.
        reg: u8,
        /// Destination.
        dst: Operand,
    },
    /// Return from subroutine.
    Rts {
        /// Linkage register.
        reg: u8,
    },
    /// Subtract one and branch (backwards) if not zero.
    Sob {
        /// Counter register.
        reg: u8,
        /// Backward offset in words.
        offset: u8,
    },
    /// EIS multiply.
    Mul {
        /// Destination register (pair if even).
        reg: u8,
        /// Source operand.
        src: Operand,
    },
    /// EIS divide.
    Div {
        /// Destination register pair.
        reg: u8,
        /// Source operand.
        src: Operand,
    },
    /// EIS arithmetic shift.
    Ash {
        /// Register shifted.
        reg: u8,
        /// Shift-count operand.
        src: Operand,
    },
    /// Exclusive or (register with destination).
    Xor {
        /// Source register.
        reg: u8,
        /// Destination operand.
        dst: Operand,
    },
    /// Emulator trap with operand byte.
    Emt(u8),
    /// Trap instruction with operand byte.
    Trap(u8),
    /// Breakpoint trap.
    Bpt,
    /// I/O trap.
    Iot,
    /// Halt (privileged; traps in user mode).
    Halt,
    /// Wait for interrupt.
    Wait,
    /// Reset external bus (no-op in user mode).
    Reset,
    /// Return from interrupt.
    Rti,
    /// Return from interrupt, inhibiting trace traps.
    Rtt,
    /// Condition-code operate: set or clear the codes in `mask` (N=8, Z=4,
    /// V=2, C=1). `mask == 0` is NOP.
    CondCode {
        /// True to set, false to clear.
        set: bool,
        /// Which codes to affect.
        mask: u8,
    },
}

/// One operand field of an instruction's base word, in source order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field {
    /// A six-bit mode/register [`Operand`] at this bit offset.
    Operand(u32),
    /// A bare register number at this bit offset.
    Reg(u32),
    /// A branch target: signed 8-bit word offset from the updated PC.
    Branch,
    /// A `SOB` target: 6-bit word offset back from the updated PC.
    Sob,
    /// An 8-bit literal (trap number).
    Byte,
}

impl Field {
    fn shift(self) -> u32 {
        match self {
            Field::Operand(s) | Field::Reg(s) => s,
            Field::Branch | Field::Sob | Field::Byte => 0,
        }
    }

    /// The bits the field occupies in the word.
    fn mask(self) -> Word {
        let width: Word = match self {
            Field::Operand(_) | Field::Sob => 0o77,
            Field::Reg(_) => 0o7,
            Field::Branch | Field::Byte => 0o377,
        };
        width << self.shift()
    }

    /// The field's value in `word`.
    pub(crate) fn get(self, word: Word) -> Word {
        (word & self.mask()) >> self.shift()
    }

    /// `value` placed in the field's bits (excess high bits are dropped).
    pub(crate) fn put(self, value: Word) -> Word {
        (value << self.shift()) & self.mask()
    }
}

/// An instruction's operand layout around its base opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `op src, dst`: source in bits 11–6, destination in bits 5–0.
    Double,
    /// `op dst`: destination in bits 5–0.
    Single,
    /// `op target`: signed 8-bit word offset.
    Branch,
    /// `op reg, dst`: register in bits 8–6, destination in bits 5–0 (`JSR`,
    /// `XOR`).
    RegDst,
    /// `op src, reg`: register in bits 8–6, source in bits 5–0 (`MUL`,
    /// `DIV`, `ASH`).
    RegSrc,
    /// `op reg`: register in bits 2–0 (`RTS`).
    Rts,
    /// `op reg, target`: register in bits 8–6, backward offset in 5–0.
    Sob,
    /// `op n`: 8-bit trap number.
    Trap,
    /// No operands.
    NoOperand,
}

impl Shape {
    /// The operand fields in source order; their count is the arity.
    pub(crate) fn fields(self) -> &'static [Field] {
        match self {
            Shape::Double => &[Field::Operand(6), Field::Operand(0)],
            Shape::Single => &[Field::Operand(0)],
            Shape::Branch => &[Field::Branch],
            Shape::RegDst => &[Field::Reg(6), Field::Operand(0)],
            Shape::RegSrc => &[Field::Operand(0), Field::Reg(6)],
            Shape::Rts => &[Field::Reg(0)],
            Shape::Sob => &[Field::Reg(6), Field::Sob],
            Shape::Trap => &[Field::Byte],
            Shape::NoOperand => &[],
        }
    }

    /// The bits the operand fields occupy; the rest is the opcode.
    pub fn field_mask(self) -> Word {
        self.fields().iter().fold(0, |m, f| m | f.mask())
    }
}

/// One named encoding: `mnemonic` is `base` with its operand fields filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opcode {
    /// Upper-case mnemonic.
    pub mnemonic: &'static str,
    /// The word with every operand field zero.
    pub base: Word,
    /// The operand layout.
    pub shape: Shape,
}

const fn op(mnemonic: &'static str, base: Word, shape: Shape) -> Opcode {
    Opcode {
        mnemonic,
        base,
        shape,
    }
}

/// Every mnemonic the machine knows. Condition-code operates are exact
/// entries, so a combination with no name (`0o000260`) has no entry.
pub const OPCODES: &[Opcode] = &[
    op("MOV", 0o010000, Shape::Double),
    op("MOVB", 0o110000, Shape::Double),
    op("CMP", 0o020000, Shape::Double),
    op("CMPB", 0o120000, Shape::Double),
    op("BIT", 0o030000, Shape::Double),
    op("BITB", 0o130000, Shape::Double),
    op("BIC", 0o040000, Shape::Double),
    op("BICB", 0o140000, Shape::Double),
    op("BIS", 0o050000, Shape::Double),
    op("BISB", 0o150000, Shape::Double),
    op("ADD", 0o060000, Shape::Double),
    op("SUB", 0o160000, Shape::Double),
    op("CLR", 0o005000, Shape::Single),
    op("CLRB", 0o105000, Shape::Single),
    op("COM", 0o005100, Shape::Single),
    op("COMB", 0o105100, Shape::Single),
    op("INC", 0o005200, Shape::Single),
    op("INCB", 0o105200, Shape::Single),
    op("DEC", 0o005300, Shape::Single),
    op("DECB", 0o105300, Shape::Single),
    op("NEG", 0o005400, Shape::Single),
    op("NEGB", 0o105400, Shape::Single),
    op("ADC", 0o005500, Shape::Single),
    op("ADCB", 0o105500, Shape::Single),
    op("SBC", 0o005600, Shape::Single),
    op("SBCB", 0o105600, Shape::Single),
    op("TST", 0o005700, Shape::Single),
    op("TSTB", 0o105700, Shape::Single),
    op("ROR", 0o006000, Shape::Single),
    op("RORB", 0o106000, Shape::Single),
    op("ROL", 0o006100, Shape::Single),
    op("ROLB", 0o106100, Shape::Single),
    op("ASR", 0o006200, Shape::Single),
    op("ASRB", 0o106200, Shape::Single),
    op("ASL", 0o006300, Shape::Single),
    op("ASLB", 0o106300, Shape::Single),
    op("SWAB", 0o000300, Shape::Single),
    op("SXT", 0o006700, Shape::Single),
    op("JMP", 0o000100, Shape::Single),
    op("BR", 0o000400, Shape::Branch),
    op("BNE", 0o001000, Shape::Branch),
    op("BEQ", 0o001400, Shape::Branch),
    op("BGE", 0o002000, Shape::Branch),
    op("BLT", 0o002400, Shape::Branch),
    op("BGT", 0o003000, Shape::Branch),
    op("BLE", 0o003400, Shape::Branch),
    op("BPL", 0o100000, Shape::Branch),
    op("BMI", 0o100400, Shape::Branch),
    op("BHI", 0o101000, Shape::Branch),
    op("BLOS", 0o101400, Shape::Branch),
    op("BVC", 0o102000, Shape::Branch),
    op("BVS", 0o102400, Shape::Branch),
    op("BCC", 0o103000, Shape::Branch),
    op("BCS", 0o103400, Shape::Branch),
    op("JSR", 0o004000, Shape::RegDst),
    op("XOR", 0o074000, Shape::RegDst),
    op("MUL", 0o070000, Shape::RegSrc),
    op("DIV", 0o071000, Shape::RegSrc),
    op("ASH", 0o072000, Shape::RegSrc),
    op("RTS", 0o000200, Shape::Rts),
    op("SOB", 0o077000, Shape::Sob),
    op("EMT", 0o104000, Shape::Trap),
    op("TRAP", 0o104400, Shape::Trap),
    op("HALT", 0o000000, Shape::NoOperand),
    op("WAIT", 0o000001, Shape::NoOperand),
    op("RTI", 0o000002, Shape::NoOperand),
    op("BPT", 0o000003, Shape::NoOperand),
    op("IOT", 0o000004, Shape::NoOperand),
    op("RESET", 0o000005, Shape::NoOperand),
    op("RTT", 0o000006, Shape::NoOperand),
    op("NOP", 0o000240, Shape::NoOperand),
    op("CLC", 0o000241, Shape::NoOperand),
    op("CLV", 0o000242, Shape::NoOperand),
    op("CLZ", 0o000244, Shape::NoOperand),
    op("CLN", 0o000250, Shape::NoOperand),
    op("CCC", 0o000257, Shape::NoOperand),
    op("SEC", 0o000261, Shape::NoOperand),
    op("SEV", 0o000262, Shape::NoOperand),
    op("SEZ", 0o000264, Shape::NoOperand),
    op("SEN", 0o000270, Shape::NoOperand),
    op("SCC", 0o000277, Shape::NoOperand),
];

impl Opcode {
    /// The entry for an upper-case mnemonic.
    pub fn named(mnemonic: &str) -> Option<&'static Opcode> {
        OPCODES.iter().find(|o| o.mnemonic == mnemonic)
    }

    /// The entry that spells `word`: `None` for reserved words and for
    /// condition-code combinations with no name.
    pub fn of_word(word: Word) -> Option<&'static Opcode> {
        OPCODES
            .iter()
            .find(|o| word & !o.shape.field_mask() == o.base)
    }
}

/// Decodes the base word of an instruction. Returns `None` for reserved or
/// unimplemented encodings (which trap as illegal instructions).
pub fn decode(word: Word) -> Option<Instr> {
    let byte = word & 0o100000 != 0;
    let top = (word >> 12) & 0o7;

    // Double-operand group (opcodes 1–6 in bits 14-12).
    if (1..=6).contains(&top) {
        let src = Operand::from_bits(word >> 6);
        let dst = Operand::from_bits(word);
        let op = match (top, byte) {
            (1, _) => BinOp::Mov,
            (2, _) => BinOp::Cmp,
            (3, _) => BinOp::Bit,
            (4, _) => BinOp::Bic,
            (5, _) => BinOp::Bis,
            (6, false) => BinOp::Add,
            (6, true) => BinOp::Sub,
            _ => unreachable!(),
        };
        // ADD/SUB have no byte variant; `byte` is part of the opcode there.
        let is_byte = byte && top != 6;
        return Some(Instr::Double {
            op,
            byte: is_byte,
            src,
            dst,
        });
    }

    // EIS group: 070–074.
    if top == 7 && !byte {
        let sub = (word >> 9) & 0o7;
        let reg = ((word >> 6) & 0o7) as u8;
        let opnd = Operand::from_bits(word);
        return match sub {
            0 => Some(Instr::Mul { reg, src: opnd }),
            1 => Some(Instr::Div { reg, src: opnd }),
            2 => Some(Instr::Ash { reg, src: opnd }),
            4 => Some(Instr::Xor { reg, dst: opnd }),
            7 => Some(Instr::Sob {
                reg,
                offset: (word & 0o77) as u8,
            }),
            _ => None,
        };
    }

    // Remaining opcodes have 00 or 10 in the top four bits.
    let op15_6 = word >> 6; // opcode field for single-operand group

    match word {
        0o000000 => return Some(Instr::Halt),
        0o000001 => return Some(Instr::Wait),
        0o000002 => return Some(Instr::Rti),
        0o000003 => return Some(Instr::Bpt),
        0o000004 => return Some(Instr::Iot),
        0o000005 => return Some(Instr::Reset),
        0o000006 => return Some(Instr::Rtt),
        _ => {}
    }

    if word & 0o177770 == 0o000200 {
        return Some(Instr::Rts {
            reg: (word & 0o7) as u8,
        });
    }

    if (0o000240..=0o000277).contains(&word) {
        // Condition-code operates: 00024x–00025x clear, 00026x–00027x set.
        let set = word & 0o20 != 0;
        return Some(Instr::CondCode {
            set,
            mask: (word & 0o17) as u8,
        });
    }

    if word & 0o177700 == 0o000100 {
        return Some(Instr::Jmp {
            dst: Operand::from_bits(word),
        });
    }

    if word & 0o177000 == 0o004000 {
        return Some(Instr::Jsr {
            reg: ((word >> 6) & 0o7) as u8,
            dst: Operand::from_bits(word),
        });
    }

    if word & 0o177400 == 0o104000 {
        return Some(Instr::Emt((word & 0o377) as u8));
    }
    if word & 0o177400 == 0o104400 {
        return Some(Instr::Trap((word & 0o377) as u8));
    }

    // Branches.
    let offset = (word & 0o377) as u8 as i8;
    let cond = match word & 0o177400 {
        0o000400 => Some(BranchCond::Br),
        0o001000 => Some(BranchCond::Bne),
        0o001400 => Some(BranchCond::Beq),
        0o002000 => Some(BranchCond::Bge),
        0o002400 => Some(BranchCond::Blt),
        0o003000 => Some(BranchCond::Bgt),
        0o003400 => Some(BranchCond::Ble),
        0o100000 => Some(BranchCond::Bpl),
        0o100400 => Some(BranchCond::Bmi),
        0o101000 => Some(BranchCond::Bhi),
        0o101400 => Some(BranchCond::Blos),
        0o102000 => Some(BranchCond::Bvc),
        0o102400 => Some(BranchCond::Bvs),
        0o103000 => Some(BranchCond::Bcc),
        0o103400 => Some(BranchCond::Bcs),
        _ => None,
    };
    if let Some(cond) = cond {
        return Some(Instr::Branch { cond, offset });
    }

    // Single-operand group: 0050DD–0063DD (and byte variants 1050DD–1063DD),
    // plus SWAB 0003DD and SXT 0067DD.
    if word & 0o177700 == 0o000300 {
        return Some(Instr::Single {
            op: UnOp::Swab,
            byte: false,
            dst: Operand::from_bits(word),
        });
    }
    if word & 0o177700 == 0o006700 {
        return Some(Instr::Single {
            op: UnOp::Sxt,
            byte: false,
            dst: Operand::from_bits(word),
        });
    }
    let un = match op15_6 & 0o777 {
        0o050 => Some(UnOp::Clr),
        0o051 => Some(UnOp::Com),
        0o052 => Some(UnOp::Inc),
        0o053 => Some(UnOp::Dec),
        0o054 => Some(UnOp::Neg),
        0o055 => Some(UnOp::Adc),
        0o056 => Some(UnOp::Sbc),
        0o057 => Some(UnOp::Tst),
        0o060 => Some(UnOp::Ror),
        0o061 => Some(UnOp::Rol),
        0o062 => Some(UnOp::Asr),
        0o063 => Some(UnOp::Asl),
        _ => None,
    };
    if let Some(op) = un {
        return Some(Instr::Single {
            op,
            byte,
            dst: Operand::from_bits(word),
        });
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_mov() {
        // MOV R0, R1 = 010001.
        match decode(0o010001).unwrap() {
            Instr::Double { op, byte, src, dst } => {
                assert_eq!(op, BinOp::Mov);
                assert!(!byte);
                assert_eq!((src.mode, src.reg), (0, 0));
                assert_eq!((dst.mode, dst.reg), (0, 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_movb_and_sub() {
        assert!(matches!(
            decode(0o110001).unwrap(),
            Instr::Double {
                op: BinOp::Mov,
                byte: true,
                ..
            }
        ));
        assert!(matches!(
            decode(0o160001).unwrap(),
            Instr::Double {
                op: BinOp::Sub,
                byte: false,
                ..
            }
        ));
        assert!(matches!(
            decode(0o060001).unwrap(),
            Instr::Double { op: BinOp::Add, .. }
        ));
    }

    #[test]
    fn decode_single_ops() {
        assert!(matches!(
            decode(0o005000).unwrap(),
            Instr::Single {
                op: UnOp::Clr,
                byte: false,
                ..
            }
        ));
        assert!(matches!(
            decode(0o105000).unwrap(),
            Instr::Single {
                op: UnOp::Clr,
                byte: true,
                ..
            }
        ));
        assert!(matches!(
            decode(0o005201).unwrap(),
            Instr::Single { op: UnOp::Inc, .. }
        ));
        assert!(matches!(
            decode(0o000301).unwrap(),
            Instr::Single { op: UnOp::Swab, .. }
        ));
    }

    #[test]
    fn decode_branches() {
        assert!(matches!(
            decode(0o000401).unwrap(),
            Instr::Branch {
                cond: BranchCond::Br,
                offset: 1
            }
        ));
        assert!(matches!(
            decode(0o001377).unwrap(),
            Instr::Branch {
                cond: BranchCond::Bne,
                offset: -1
            }
        ));
        assert!(matches!(
            decode(0o103400).unwrap(),
            Instr::Branch {
                cond: BranchCond::Bcs,
                offset: 0
            }
        ));
    }

    #[test]
    fn decode_control_flow() {
        assert!(matches!(decode(0o000111).unwrap(), Instr::Jmp { .. }));
        assert!(matches!(
            decode(0o004711).unwrap(),
            Instr::Jsr { reg: 7, .. }
        ));
        assert!(matches!(decode(0o000207).unwrap(), Instr::Rts { reg: 7 }));
        assert!(matches!(
            decode(0o077102).unwrap(),
            Instr::Sob { reg: 1, offset: 2 }
        ));
    }

    #[test]
    fn decode_traps_and_misc() {
        assert!(matches!(decode(0o104001).unwrap(), Instr::Emt(1)));
        assert!(matches!(decode(0o104401).unwrap(), Instr::Trap(1)));
        assert!(matches!(decode(0o000000).unwrap(), Instr::Halt));
        assert!(matches!(decode(0o000001).unwrap(), Instr::Wait));
        assert!(matches!(decode(0o000002).unwrap(), Instr::Rti));
        assert!(matches!(decode(0o000006).unwrap(), Instr::Rtt));
    }

    #[test]
    fn decode_condition_codes() {
        // NOP.
        assert!(matches!(
            decode(0o000240).unwrap(),
            Instr::CondCode {
                set: false,
                mask: 0
            }
        ));
        // CLC.
        assert!(matches!(
            decode(0o000241).unwrap(),
            Instr::CondCode {
                set: false,
                mask: 1
            }
        ));
        // SEZ.
        assert!(matches!(
            decode(0o000264).unwrap(),
            Instr::CondCode { set: true, mask: 4 }
        ));
    }

    #[test]
    fn decode_eis() {
        assert!(matches!(
            decode(0o070001).unwrap(),
            Instr::Mul { reg: 0, .. }
        ));
        assert!(matches!(
            decode(0o071001).unwrap(),
            Instr::Div { reg: 0, .. }
        ));
        assert!(matches!(
            decode(0o072001).unwrap(),
            Instr::Ash { reg: 0, .. }
        ));
        assert!(matches!(
            decode(0o074001).unwrap(),
            Instr::Xor { reg: 0, .. }
        ));
    }

    #[test]
    fn reserved_encodings_are_none() {
        assert_eq!(decode(0o000007), None);
        assert_eq!(decode(0o007000), None);
        assert_eq!(decode(0o075000), None);
    }

    #[test]
    fn operand_display() {
        let op = |mode, reg| Operand { mode, reg };
        assert_eq!(op(0, 0).to_string(), "R0");
        assert_eq!(op(1, 6).to_string(), "(SP)");
        assert_eq!(op(2, 7).to_string(), "(PC)+");
        assert_eq!(op(4, 6).to_string(), "-(SP)");
        assert_eq!(op(6, 2).to_string(), "X(R2)");
    }
}

//! A disassembler for the machine's instruction subset.
//!
//! Produces MACRO-11-flavoured text from memory words, consuming operand
//! extension words as the hardware would. Round-trips with the assembler
//! for every encodable instruction (see the property tests), and renders
//! reserved words as `.word` directives so any memory image can be listed.

use crate::isa::{decode, BinOp, BranchCond, Instr, Operand, UnOp};
use crate::types::Word;

/// One disassembled instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listing {
    /// Byte address of the instruction's first word.
    pub addr: Word,
    /// The words consumed (1–3).
    pub words: Vec<Word>,
    /// The rendered text.
    pub text: String,
}

/// Disassembles one instruction starting at `words[idx]`; returns the
/// listing and the number of words consumed.
pub fn disassemble_at(words: &[Word], idx: usize, addr: Word) -> (Listing, usize) {
    let word = words[idx];
    let Some(instr) = decode(word) else {
        return (
            Listing {
                addr,
                words: vec![word],
                text: format!(".word {word:#08o}"),
            },
            1,
        );
    };
    let mut used = 1usize;
    let next_extra = |used: &mut usize| -> Word {
        let w = words.get(idx + *used).copied().unwrap_or(0);
        *used += 1;
        w
    };

    // Renders an operand, consuming its extension word if needed. `pc_now`
    // is the PC *after* this operand's extension word, needed for relative
    // modes.
    let operand = |op: Operand, used: &mut usize| -> String {
        let needs_extra = matches!(op.mode, 6 | 7) || (op.reg == 7 && matches!(op.mode, 2 | 3));
        if !needs_extra {
            return op.to_string();
        }
        let x = next_extra(used);
        match (op.mode, op.reg) {
            (2, 7) => format!("#{x:#o}"),
            (3, 7) => format!("@#{x:#o}"),
            (6, 7) => {
                let target = (addr as i32 + 2 * *used as i32 + x as i16 as i32) as u16;
                format!("{target:#o}") // PC-relative rendered as the target
            }
            (7, 7) => {
                let target = (addr as i32 + 2 * *used as i32 + x as i16 as i32) as u16;
                format!("@{target:#o}")
            }
            (6, r) => format!("{:#o}({})", x, reg_name(r)),
            (7, r) => format!("@{:#o}({})", x, reg_name(r)),
            _ => unreachable!(),
        }
    };

    let text = match instr {
        Instr::Double { op, byte, src, dst } => {
            let mnem = match (op, byte) {
                (BinOp::Mov, false) => "MOV",
                (BinOp::Mov, true) => "MOVB",
                (BinOp::Cmp, false) => "CMP",
                (BinOp::Cmp, true) => "CMPB",
                (BinOp::Bit, false) => "BIT",
                (BinOp::Bit, true) => "BITB",
                (BinOp::Bic, false) => "BIC",
                (BinOp::Bic, true) => "BICB",
                (BinOp::Bis, false) => "BIS",
                (BinOp::Bis, true) => "BISB",
                (BinOp::Add, _) => "ADD",
                (BinOp::Sub, _) => "SUB",
            };
            let s = operand(src, &mut used);
            let d = operand(dst, &mut used);
            format!("{mnem} {s}, {d}")
        }
        Instr::Single { op, byte, dst } => {
            let stem = match op {
                UnOp::Clr => "CLR",
                UnOp::Com => "COM",
                UnOp::Inc => "INC",
                UnOp::Dec => "DEC",
                UnOp::Neg => "NEG",
                UnOp::Adc => "ADC",
                UnOp::Sbc => "SBC",
                UnOp::Tst => "TST",
                UnOp::Ror => "ROR",
                UnOp::Rol => "ROL",
                UnOp::Asr => "ASR",
                UnOp::Asl => "ASL",
                UnOp::Swab => "SWAB",
                UnOp::Sxt => "SXT",
            };
            let mnem = if byte {
                format!("{stem}B")
            } else {
                stem.to_string()
            };
            let d = operand(dst, &mut used);
            format!("{mnem} {d}")
        }
        Instr::Branch { cond, offset } => {
            let mnem = match cond {
                BranchCond::Br => "BR",
                BranchCond::Bne => "BNE",
                BranchCond::Beq => "BEQ",
                BranchCond::Bge => "BGE",
                BranchCond::Blt => "BLT",
                BranchCond::Bgt => "BGT",
                BranchCond::Ble => "BLE",
                BranchCond::Bpl => "BPL",
                BranchCond::Bmi => "BMI",
                BranchCond::Bhi => "BHI",
                BranchCond::Blos => "BLOS",
                BranchCond::Bvc => "BVC",
                BranchCond::Bvs => "BVS",
                BranchCond::Bcc => "BCC",
                BranchCond::Bcs => "BCS",
            };
            let target = (addr as i32 + 2 + 2 * offset as i32) as u16;
            format!("{mnem} {target:#o}")
        }
        Instr::Jmp { dst } => format!("JMP {}", operand(dst, &mut used)),
        Instr::Jsr { reg, dst } => {
            format!("JSR {}, {}", reg_name(reg), operand(dst, &mut used))
        }
        Instr::Rts { reg } => format!("RTS {}", reg_name(reg)),
        Instr::Sob { reg, offset } => {
            let target = (addr as i32 + 2 - 2 * offset as i32) as u16;
            format!("SOB {}, {target:#o}", reg_name(reg))
        }
        Instr::Mul { reg, src } => format!("MUL {}, {}", operand(src, &mut used), reg_name(reg)),
        Instr::Div { reg, src } => format!("DIV {}, {}", operand(src, &mut used), reg_name(reg)),
        Instr::Ash { reg, src } => format!("ASH {}, {}", operand(src, &mut used), reg_name(reg)),
        Instr::Xor { reg, dst } => format!("XOR {}, {}", reg_name(reg), operand(dst, &mut used)),
        Instr::Emt(n) => format!("EMT {n:#o}"),
        Instr::Trap(n) => format!("TRAP {n:#o}"),
        Instr::Bpt => "BPT".into(),
        Instr::Iot => "IOT".into(),
        Instr::Halt => "HALT".into(),
        Instr::Wait => "WAIT".into(),
        Instr::Reset => "RESET".into(),
        Instr::Rti => "RTI".into(),
        Instr::Rtt => "RTT".into(),
        Instr::CondCode { set, mask } => cc_name(set, mask),
    };
    (
        Listing {
            addr,
            words: words[idx..idx + used].to_vec(),
            text,
        },
        used,
    )
}

/// Disassembles a word slice into a listing, starting at byte address
/// `origin`.
pub fn disassemble(words: &[Word], origin: Word) -> Vec<Listing> {
    let mut out = Vec::new();
    let mut idx = 0usize;
    while idx < words.len() {
        let addr = origin.wrapping_add(2 * idx as Word);
        let (listing, used) = disassemble_at(words, idx, addr);
        out.push(listing);
        idx += used;
    }
    out
}

fn reg_name(r: u8) -> &'static str {
    match r {
        0 => "R0",
        1 => "R1",
        2 => "R2",
        3 => "R3",
        4 => "R4",
        5 => "R5",
        6 => "SP",
        _ => "PC",
    }
}

fn cc_name(set: bool, mask: u8) -> String {
    match (set, mask) {
        (false, 0) => "NOP".into(),
        (false, 0o1) => "CLC".into(),
        (false, 0o2) => "CLV".into(),
        (false, 0o4) => "CLZ".into(),
        (false, 0o10) => "CLN".into(),
        (false, 0o17) => "CCC".into(),
        (true, 0o1) => "SEC".into(),
        (true, 0o2) => "SEV".into(),
        (true, 0o4) => "SEZ".into(),
        (true, 0o10) => "SEN".into(),
        (true, 0o17) => "SCC".into(),
        (s, m) => format!(".word {:#08o}", 0o000240 | ((s as Word) << 4) | m as Word),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn dis(src: &str) -> Vec<String> {
        let prog = assemble(src).unwrap();
        disassemble(&prog.words, 0)
            .into_iter()
            .map(|l| l.text)
            .collect()
    }

    #[test]
    fn simple_instructions() {
        assert_eq!(dis("MOV R0, R1"), vec!["MOV R0, R1"]);
        assert_eq!(dis("HALT\nWAIT\nRTI"), vec!["HALT", "WAIT", "RTI"]);
        assert_eq!(dis("CLRB (R2)+"), vec!["CLRB (R2)+"]);
        assert_eq!(dis("TRAP 3"), vec!["TRAP 0o3"]);
    }

    #[test]
    fn immediate_and_absolute() {
        assert_eq!(dis("MOV #5, R0"), vec!["MOV #0o5, R0"]);
        assert_eq!(dis("MOV @#0o177560, R1"), vec!["MOV @#0o177560, R1"]);
        assert_eq!(dis("MOV 4(R1), R0"), vec!["MOV 0o4(R1), R0"]);
    }

    #[test]
    fn branches_render_targets() {
        let texts = dis("loop: NOP\nBR loop");
        assert_eq!(texts, vec!["NOP", "BR 0o0"]);
    }

    #[test]
    fn relative_mode_renders_target_address() {
        // `MOV counter, R0` at 0, counter at byte 6.
        let texts = dis("MOV counter, R0\nHALT\ncounter: .word 42");
        assert_eq!(texts[0], "MOV 0o6, R0");
    }

    #[test]
    fn reserved_words_become_data() {
        let texts = disassemble(&[0o000007], 0);
        assert_eq!(texts[0].text, ".word 0o000007");
    }

    #[test]
    fn sob_renders_backward_target() {
        let texts = dis("loop: NOP\nSOB R1, loop");
        assert_eq!(texts[1], "SOB R1, 0o0");
    }

    #[test]
    fn roundtrip_reassembles_identically() {
        let src = "
start:  MOV #10, R0
        CLR R1
loop:   ADD R0, R1
        SOB R0, loop
        CMP R1, #55
        BNE start
        JSR PC, 0o40
        TRAP 1
        HALT
";
        let prog = assemble(src).unwrap();
        let listing = disassemble(&prog.words, 0);
        let round: Vec<String> = listing.iter().map(|l| l.text.clone()).collect();
        let reassembled = assemble(&round.join("\n")).unwrap();
        assert_eq!(reassembled.words, prog.words, "{round:?}");
    }
}

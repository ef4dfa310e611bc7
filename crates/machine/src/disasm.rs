//! A disassembler for the machine's instruction subset.
//!
//! Produces MACRO-11-flavoured text from memory words, consuming operand
//! extension words as the hardware would, and renders reserved words as
//! `.word` directives so any memory image can be listed. Names and operand
//! layouts come from [`OPCODES`](crate::isa::OPCODES), the same table the
//! assembler encodes with, so the two cannot drift: the machine's property
//! suite reassembles the listing of every one of the 65,536 base words and
//! checks it reproduces the original encoding.

use crate::isa::{reg_name, Field, Opcode, Operand};
use crate::types::Word;

/// One disassembled instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listing {
    /// Byte address of the instruction's first word.
    pub addr: Word,
    /// The words consumed (1–3; fewer if `words` ends first).
    pub words: Vec<Word>,
    /// The rendered text.
    pub text: String,
}

/// Disassembles one instruction starting at `words[idx]`; returns the
/// listing and the number of words consumed. Extension words past the end
/// of `words` read as zero.
pub fn disassemble_at(words: &[Word], idx: usize, addr: Word) -> (Listing, usize) {
    let word = words[idx];
    let mut used = 1usize;
    let text = match Opcode::of_word(word) {
        None => format!(".word {word:#08o}"),
        Some(opcode) => {
            let next = addr.wrapping_add(2);
            let fields: Vec<String> = opcode
                .shape
                .fields()
                .iter()
                .map(|&field| {
                    let v = field.get(word);
                    match field {
                        Field::Operand(_) => {
                            let op = Operand::from_bits(v);
                            if !op.has_extension_word() {
                                return op.to_string();
                            }
                            let x = words.get(idx + used).copied().unwrap_or(0);
                            used += 1;
                            let pc = addr.wrapping_add(2 * used as Word);
                            extended_operand(op, x, pc)
                        }
                        Field::Reg(_) => reg_name(v as u8).to_string(),
                        Field::Branch => {
                            let target = next.wrapping_add((v as u8 as i8 as Word) << 1);
                            format!("{target:#o}")
                        }
                        Field::Sob => format!("{:#o}", next.wrapping_sub(v << 1)),
                        Field::Byte => format!("{v:#o}"),
                    }
                })
                .collect();
            if fields.is_empty() {
                opcode.mnemonic.to_string()
            } else {
                format!("{} {}", opcode.mnemonic, fields.join(", "))
            }
        }
    };
    let end = (idx + used).min(words.len());
    (
        Listing {
            addr,
            words: words[idx..end].to_vec(),
            text,
        },
        used,
    )
}

/// Renders an operand that takes extension word `x`, with the PC `pc` past
/// it: PC-relative forms are rendered as their target address.
fn extended_operand(op: Operand, x: Word, pc: Word) -> String {
    let at = if op.mode % 2 == 1 { "@" } else { "" };
    match (op.mode, op.reg) {
        (2 | 3, _) => format!("{at}#{x:#o}"),
        (_, 7) => format!("{at}{:#o}", pc.wrapping_add(x)),
        (_, r) => format!("{at}{x:#o}({})", reg_name(r)),
    }
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
    fn missing_extension_words_read_as_zero() {
        // `MOV #x, R0` whose immediate word lies past the slice.
        let listing = disassemble(&[0o012700], 0);
        assert_eq!(listing[0].text, "MOV #0o0, R0");
        assert_eq!(listing[0].words, vec![0o012700]);
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

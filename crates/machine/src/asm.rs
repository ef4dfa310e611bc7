//! A two-pass assembler for the machine's PDP-11 subset.
//!
//! Regime programs in the examples and tests are written in assembly and
//! assembled with [`assemble`]. The syntax follows MACRO-11 conventions
//! closely enough to be familiar:
//!
//! ```text
//! ; comments run to end of line
//! start:  MOV #10, R0          ; immediate
//!         MOVB (R1)+, R2       ; autoincrement
//! loop:   DEC R0
//!         BNE loop
//!         TRAP 1               ; kernel call
//!         .word 0x1234, start  ; data
//!         .ascii "hi"
//!         .even
//!         .blkw 4              ; four zero words
//! ```
//!
//! Numbers are decimal by default, with `0o` (octal), `0x` (hex), and `'c`
//! (character) literals. Registers are `R0`–`R7`, `SP` (= R6), `PC` (= R7).
//! Bare symbols as operands use PC-relative addressing; `#sym` is immediate
//! and `@#sym` absolute.
//!
//! The encoding is owned by [`crate::isa`]: each mnemonic's base word and
//! operand fields come from [`OPCODES`](crate::isa::OPCODES), which also
//! fixes its operand count, and [`Operand::has_extension_word`] decides
//! which operands take an extension word. This module only parses source
//! and lays out words; the machine's exhaustive round-trip test pins it to
//! the disassembler over every instruction word.

use crate::isa::{Field, Opcode, Operand};
use crate::types::Word;
use std::collections::HashMap;

/// Assembly error with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// The result of assembling a source file: words to load at the origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Load origin in bytes (virtual).
    pub origin: Word,
    /// The assembled words.
    pub words: Vec<Word>,
    /// The symbol table (labels → byte addresses).
    pub symbols: HashMap<String, Word>,
}

impl Program {
    /// The address of a label.
    pub fn symbol(&self, name: &str) -> Option<Word> {
        self.symbols.get(name).copied()
    }

    /// Program size in bytes.
    pub fn byte_len(&self) -> Word {
        (self.words.len() * 2) as Word
    }
}

/// Assembles source text (origin 0).
///
/// # Examples
///
/// ```
/// use sep_machine::isa::{decode, Instr};
///
/// let prog = sep_machine::assemble("MOV #5, R0\nHALT").unwrap();
/// // The MOV, its immediate operand's extension word, then HALT.
/// assert_eq!(prog.words.len(), 3);
/// assert_eq!(prog.words[1], 5);
/// assert_eq!(decode(prog.words[2]), Some(Instr::Halt));
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_at(source, 0)
}

/// Assembles source text with a given load origin.
pub fn assemble_at(source: &str, origin: Word) -> Result<Program, AsmError> {
    let asm = Assembler::parse(source, origin)?;
    asm.emit()
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Expr {
    Num(i32),
    Sym(String, i32), // symbol + addend
    Here(i32),        // '.' + addend
}

/// One instruction operand, parsed as its [`Field`] directs.
#[derive(Debug, Clone)]
enum Arg {
    /// An operand or register, already in its bits, with the expression for
    /// its extension word if it takes one.
    Placed(Word, Option<Expr>),
    /// A branch or `SOB` target or a trap number, resolved in pass 2.
    Late(Field, Expr),
}

#[derive(Debug, Clone)]
struct Item {
    line: usize,
    addr: Word,
    kind: ItemKind,
}

#[derive(Debug, Clone)]
enum ItemKind {
    Instr {
        opcode: &'static Opcode,
        args: Vec<Arg>,
    },
    Word(Vec<Expr>),
    Byte(Vec<Expr>),
    Ascii(Vec<u8>),
}

struct Assembler {
    origin: Word,
    items: Vec<Item>,
    symbols: HashMap<String, Word>,
    /// One past the last byte: at most the top of the address space.
    end: u32,
}

/// The end of the 16-bit address space: the location counter may reach it
/// but nothing may be placed there.
const ADDR_LIMIT: u32 = 1 << 16;

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn past_end(line: usize) -> AsmError {
    err(line, "location counter past the end of the address space")
}

/// The address of the location counter, for placing a label or an item.
fn here(loc: u32, line: usize) -> Result<Word, AsmError> {
    Word::try_from(loc).map_err(|_| past_end(line))
}

/// The location counter after `bytes` more bytes.
fn advance(loc: u32, bytes: usize, line: usize) -> Result<u32, AsmError> {
    let next = loc as usize + bytes;
    if next > ADDR_LIMIT as usize {
        return Err(past_end(line));
    }
    Ok(next as u32)
}

fn parse_reg(tok: &str) -> Option<u8> {
    match tok.to_ascii_uppercase().as_str() {
        "R0" => Some(0),
        "R1" => Some(1),
        "R2" => Some(2),
        "R3" => Some(3),
        "R4" => Some(4),
        "R5" => Some(5),
        "R6" | "SP" => Some(6),
        "R7" | "PC" => Some(7),
        _ => None,
    }
}

fn parse_number(tok: &str) -> Option<i32> {
    let (neg, t) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(h, 16).ok()?
    } else if let Some(o) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        i64::from_str_radix(o, 8).ok()?
    } else if let Some(c) = t.strip_prefix('\'') {
        let mut chars = c.chars();
        let ch = chars.next()?;
        if chars.next().is_some() {
            return None;
        }
        ch as i64
    } else {
        t.parse::<i64>().ok()?
    };
    let v = if neg { -v } else { v };
    (-65536..=65535).contains(&v).then_some(v as i32)
}

fn is_sym_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$'
}

fn parse_expr(tok: &str, line: usize) -> Result<Expr, AsmError> {
    let tok = tok.trim();
    if tok.is_empty() {
        return Err(err(line, "empty expression"));
    }
    if let Some(n) = parse_number(tok) {
        return Ok(Expr::Num(n));
    }
    // sym, sym+n, sym-n, ., .+n, .-n
    let (base, addend) = {
        // Find a +/- separator after the first character.
        let mut split = None;
        for (i, c) in tok.char_indices().skip(1) {
            if c == '+' || c == '-' {
                split = Some(i);
                break;
            }
        }
        match split {
            Some(i) => {
                let (b, rest) = tok.split_at(i);
                let n = parse_number(rest)
                    .or_else(|| {
                        parse_number(&rest[1..]).map(|v| if rest.starts_with('-') { -v } else { v })
                    })
                    .ok_or_else(|| err(line, format!("bad addend in expression: {tok}")))?;
                (b.trim(), n)
            }
            None => (tok, 0),
        }
    };
    if base == "." {
        return Ok(Expr::Here(addend));
    }
    if !base.is_empty()
        && base.chars().all(is_sym_char)
        && !base.chars().next().unwrap().is_ascii_digit()
    {
        return Ok(Expr::Sym(base.to_string(), addend));
    }
    Err(err(line, format!("cannot parse expression: {tok}")))
}

/// Parses one addressing-mode operand, with the expression for its
/// extension word. A deferred form (`@…`) is its plain form's mode + 1.
fn parse_operand(tok: &str, line: usize) -> Result<(Operand, Option<Expr>), AsmError> {
    let t = tok.trim();
    let (deferred, body): (u8, &str) = match t.strip_prefix('@') {
        Some(rest) => (1, rest.trim()),
        None => (0, t),
    };
    let at = |mode: u8, reg: u8| Operand {
        mode: mode + deferred,
        reg,
    };
    let reg = |s: &str| parse_reg(s).ok_or_else(|| err(line, format!("bad register: {s}")));
    if let (0, Some(r)) = (deferred, parse_reg(body)) {
        return Ok((at(0, r), None));
    }
    if let Some(imm) = body.strip_prefix('#') {
        // #x immediate, @#x absolute.
        return Ok((at(2, 7), Some(parse_expr(imm, line)?)));
    }
    if let Some(inner) = body.strip_prefix("-(").and_then(|s| s.strip_suffix(')')) {
        return Ok((at(4, reg(inner)?), None));
    }
    if let Some(inner) = body.strip_prefix('(').and_then(|s| s.strip_suffix(")+")) {
        return Ok((at(2, reg(inner)?), None));
    }
    if let (0, Some(inner)) = (
        deferred,
        body.strip_prefix('(').and_then(|s| s.strip_suffix(')')),
    ) {
        return Ok((at(1, reg(inner)?), None));
    }
    if let Some(open) = body.find('(') {
        // X(Rn)
        let reg_part = body[open + 1..]
            .strip_suffix(')')
            .ok_or_else(|| err(line, format!("missing ')': {t}")))?;
        let r = reg(reg_part)?;
        return Ok((at(6, r), Some(parse_expr(&body[..open], line)?)));
    }
    // Bare expression: PC-relative.
    Ok((at(6, 7), Some(Expr::relative(parse_expr(body, line)?))))
}

/// Parses one instruction operand into the field it fills.
fn parse_arg(field: Field, text: &str, line: usize) -> Result<Arg, AsmError> {
    match field {
        Field::Operand(_) => {
            let (op, extra) = parse_operand(text, line)?;
            // Only `(PC)+` and `@(PC)+` spelled out can disagree: the word
            // they read from the stream must be written as `#x` or `@#x`.
            if op.has_extension_word() != extra.is_some() {
                return Err(err(
                    line,
                    format!("{text}: write the operand's extension word as #x or @#x"),
                ));
            }
            Ok(Arg::Placed(field.put(op.bits()), extra))
        }
        Field::Reg(_) => {
            let r = parse_reg(text).ok_or_else(|| err(line, "expected a register"))?;
            Ok(Arg::Placed(field.put(r as Word), None))
        }
        Field::Branch | Field::Sob | Field::Byte => Ok(Arg::Late(field, parse_expr(text, line)?)),
    }
}

impl Expr {
    /// Marker wrapper: relative operands are resolved as `target − (addr of
    /// extra word + 2)` during emission. We tag them by wrapping in a
    /// special symbol namespace.
    fn relative(e: Expr) -> Expr {
        match e {
            Expr::Sym(s, a) => Expr::Sym(format!("\u{1}rel\u{1}{s}"), a),
            Expr::Num(n) => Expr::Sym("\u{1}relnum\u{1}".to_string(), n),
            Expr::Here(a) => Expr::Here(a),
        }
    }
}

/// Splits an operand field on commas that are not inside parentheses or
/// character literals.
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

impl Assembler {
    fn parse(source: &str, origin: Word) -> Result<Assembler, AsmError> {
        let mut asm = Assembler {
            origin,
            items: Vec::new(),
            symbols: HashMap::new(),
            end: origin as u32,
        };
        let mut loc = origin as u32;
        for (lineno, raw) in source.lines().enumerate() {
            let line = lineno + 1;
            let mut text = raw;
            if let Some(i) = text.find(';') {
                text = &text[..i];
            }
            let mut text = text.trim();
            // Labels (possibly several).
            while let Some(i) = text.find(':') {
                let label = text[..i].trim();
                if label.is_empty() || !label.chars().all(is_sym_char) {
                    return Err(err(line, format!("bad label: {label}")));
                }
                if asm
                    .symbols
                    .insert(label.to_string(), here(loc, line)?)
                    .is_some()
                {
                    return Err(err(line, format!("duplicate label: {label}")));
                }
                text = text[i + 1..].trim();
            }
            if text.is_empty() {
                continue;
            }
            let (head, rest) = match text.find(char::is_whitespace) {
                Some(i) => (&text[..i], text[i..].trim()),
                None => (text, ""),
            };
            let mnemonic = head.to_ascii_uppercase();
            let (kind, bytes) = match mnemonic.as_str() {
                ".ORG" => {
                    let e = parse_expr(rest, line)?;
                    match e {
                        Expr::Num(n) => {
                            let n = n as Word as u32;
                            if n < loc {
                                return Err(err(line, ".org moves backwards"));
                            }
                            loc = n;
                        }
                        _ => return Err(err(line, ".org requires a numeric operand")),
                    }
                    continue;
                }
                ".EVEN" => {
                    loc = (loc + 1) & !1;
                    continue;
                }
                ".BLKW" => {
                    let n = parse_number(rest).ok_or_else(|| err(line, "bad .blkw count"))?;
                    if !(0..=0o37777).contains(&n) {
                        return Err(err(line, format!(".blkw count out of range: {n}")));
                    }
                    (
                        ItemKind::Word(vec![Expr::Num(0); n as usize]),
                        2 * n as usize,
                    )
                }
                ".WORD" => {
                    if loc & 1 != 0 {
                        return Err(err(line, ".word at odd address"));
                    }
                    let exprs = split_args(rest)
                        .iter()
                        .map(|a| parse_expr(a, line))
                        .collect::<Result<Vec<_>, _>>()?;
                    let n = exprs.len();
                    (ItemKind::Word(exprs), 2 * n)
                }
                ".BYTE" => {
                    let exprs = split_args(rest)
                        .iter()
                        .map(|a| parse_expr(a, line))
                        .collect::<Result<Vec<_>, _>>()?;
                    let n = exprs.len();
                    (ItemKind::Byte(exprs), n)
                }
                ".ASCII" | ".ASCIZ" => {
                    let s = rest.trim();
                    let inner = s
                        .strip_prefix('"')
                        .and_then(|x| x.strip_suffix('"'))
                        .ok_or_else(|| err(line, "string must be double-quoted"))?;
                    let mut bytes = inner.as_bytes().to_vec();
                    if mnemonic == ".ASCIZ" {
                        bytes.push(0);
                    }
                    let n = bytes.len();
                    (ItemKind::Ascii(bytes), n)
                }
                _ => {
                    if loc & 1 != 0 {
                        return Err(err(line, "instruction at odd address"));
                    }
                    let opcode = Opcode::named(&mnemonic)
                        .ok_or_else(|| err(line, format!("unknown mnemonic: {mnemonic}")))?;
                    let fields = opcode.shape.fields();
                    let texts = split_args(rest);
                    if texts.len() != fields.len() {
                        return Err(err(
                            line,
                            format!(
                                "{mnemonic} takes {} operand(s), found {}",
                                fields.len(),
                                texts.len()
                            ),
                        ));
                    }
                    let args = fields
                        .iter()
                        .zip(&texts)
                        .map(|(&f, t)| parse_arg(f, t, line))
                        .collect::<Result<Vec<_>, _>>()?;
                    let extension_words = args
                        .iter()
                        .filter(|a| matches!(a, Arg::Placed(_, Some(_))))
                        .count();
                    (ItemKind::Instr { opcode, args }, 2 + 2 * extension_words)
                }
            };
            asm.items.push(Item {
                line,
                addr: here(loc, line)?,
                kind,
            });
            loc = advance(loc, bytes, line)?;
        }
        asm.end = loc;
        Ok(asm)
    }

    fn resolve(&self, e: &Expr, extra_addr: Word, line: usize) -> Result<Word, AsmError> {
        match e {
            Expr::Num(n) => Ok(*n as Word),
            Expr::Here(a) => Ok((extra_addr as i32 + a) as Word),
            Expr::Sym(s, a) => {
                if let Some(rest) = s.strip_prefix("\u{1}rel\u{1}") {
                    let target = self
                        .symbols
                        .get(rest)
                        .copied()
                        .ok_or_else(|| err(line, format!("undefined symbol: {rest}")))?;
                    let target = (target as i32 + a) as Word;
                    Ok(target.wrapping_sub(extra_addr.wrapping_add(2)))
                } else if s == "\u{1}relnum\u{1}" {
                    Ok((*a as Word).wrapping_sub(extra_addr.wrapping_add(2)))
                } else {
                    let v = self
                        .symbols
                        .get(s)
                        .copied()
                        .ok_or_else(|| err(line, format!("undefined symbol: {s}")))?;
                    Ok((v as i32 + a) as Word)
                }
            }
        }
    }

    fn emit(self) -> Result<Program, AsmError> {
        let len_words = ((self.end - self.origin as u32) as usize).div_ceil(2);
        let mut words = vec![0u16; len_words];
        let mut bytes_written: HashMap<usize, u8> = HashMap::new();
        let put_word = |words: &mut Vec<Word>, addr: Word, w: Word| {
            let idx = ((addr - self.origin) / 2) as usize;
            words[idx] = w;
        };
        for item in &self.items {
            match &item.kind {
                ItemKind::Word(exprs) => {
                    for (i, e) in exprs.iter().enumerate() {
                        let a = item.addr + 2 * i as Word;
                        let v = self.resolve(e, a, item.line)?;
                        put_word(&mut words, a, v);
                    }
                }
                ItemKind::Byte(exprs) => {
                    for (i, e) in exprs.iter().enumerate() {
                        let a = item.addr + i as Word;
                        let v = self.resolve(e, a, item.line)? as u8;
                        bytes_written.insert((a - self.origin) as usize, v);
                    }
                }
                ItemKind::Ascii(bytes) => {
                    for (i, b) in bytes.iter().enumerate() {
                        let a = item.addr + i as Word;
                        bytes_written.insert((a - self.origin) as usize, *b);
                    }
                }
                ItemKind::Instr { opcode, args } => {
                    let ws = self.encode(opcode, args, item.addr, item.line)?;
                    for (i, w) in ws.iter().enumerate() {
                        put_word(&mut words, item.addr + 2 * i as Word, *w);
                    }
                }
            }
        }
        // Merge byte writes into the word array.
        for (offset, b) in bytes_written {
            let idx = offset / 2;
            if offset % 2 == 0 {
                words[idx] = (words[idx] & 0xFF00) | b as Word;
            } else {
                words[idx] = (words[idx] & 0x00FF) | ((b as Word) << 8);
            }
        }
        Ok(Program {
            origin: self.origin,
            words,
            symbols: self
                .symbols
                .into_iter()
                .filter(|(k, _)| !k.starts_with('\u{1}'))
                .collect(),
        })
    }

    /// The instruction's words: the base word with every field filled, then
    /// the operands' extension words in operand order.
    fn encode(
        &self,
        opcode: &Opcode,
        args: &[Arg],
        addr: Word,
        line: usize,
    ) -> Result<Vec<Word>, AsmError> {
        let mut out = vec![opcode.base];
        for arg in args {
            match arg {
                Arg::Placed(bits, extra) => {
                    out[0] |= bits;
                    if let Some(e) = extra {
                        let extra_addr = addr + 2 * out.len() as Word;
                        out.push(self.resolve(e, extra_addr, line)?);
                    }
                }
                Arg::Late(field, e) => {
                    let v = self.resolve(e, addr, line)? as i32;
                    out[0] |= field.put(late_value(*field, v, addr, line)?);
                }
            }
        }
        Ok(out)
    }
}

/// The field value of a branch or `SOB` target `v`, or of trap number `v`,
/// for an instruction at `addr`.
fn late_value(field: Field, v: i32, addr: Word, line: usize) -> Result<Word, AsmError> {
    let next = addr as i32 + 2;
    match field {
        Field::Branch => {
            let diff = v - next;
            if diff % 2 != 0 {
                return Err(err(line, "branch target at odd distance"));
            }
            let off = diff / 2;
            if !(-128..=127).contains(&off) {
                return Err(err(line, format!("branch out of range: {off} words")));
            }
            Ok(off as u8 as Word)
        }
        Field::Sob => {
            let diff = next - v;
            if diff % 2 != 0 || !(0..=126).contains(&diff) {
                return Err(err(line, "backward branch target out of range"));
            }
            Ok((diff / 2) as Word)
        }
        Field::Byte => {
            if !(0..=255).contains(&v) {
                return Err(err(line, "trap number out of range"));
            }
            Ok(v as Word)
        }
        Field::Operand(_) | Field::Reg(_) => unreachable!("placed when parsed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_simple_moves() {
        let p = assemble("MOV R0, R1").unwrap();
        assert_eq!(p.words, vec![0o010001]);
        let p = assemble("MOV #5, R0").unwrap();
        assert_eq!(p.words, vec![0o012700, 5]);
        let p = assemble("MOVB (R1)+, R2").unwrap();
        assert_eq!(p.words, vec![0o112102]);
    }

    #[test]
    fn assembles_absolute_and_indexed() {
        let p = assemble("MOV @#0o177560, R0").unwrap();
        assert_eq!(p.words, vec![0o013700, 0o177560]);
        let p = assemble("MOV 4(R1), R0").unwrap();
        assert_eq!(p.words, vec![0o016100, 4]);
        let p = assemble("MOV -(SP), R0").unwrap();
        assert_eq!(p.words, vec![0o014600]);
    }

    #[test]
    fn labels_and_branches() {
        let src = "
start:  CLR R0
loop:   INC R0
        CMP #3, R0
        BNE loop
        HALT
";
        let p = assemble(src).unwrap();
        assert_eq!(p.symbol("start"), Some(0));
        assert_eq!(p.symbol("loop"), Some(2));
        // BNE is at byte 8; offset = (2 - 10)/2 = -4.
        assert_eq!(p.words[4], 0o001000 | (-4i8 as u8 as Word));
    }

    #[test]
    fn pc_relative_data_reference() {
        let src = "
        MOV counter, R0
        HALT
counter: .word 42
";
        let p = assemble(src).unwrap();
        // MOV rel, R0 = 0o016700, then offset: counter(6) - (2+2) = 2.
        assert_eq!(p.words[0], 0o016700);
        assert_eq!(p.words[1], 2);
        assert_eq!(p.words[3], 42);
    }

    #[test]
    fn word_and_byte_directives() {
        let p = assemble(".word 1, 2, 0x10\n.byte 7, 8\n.even\n.word 9").unwrap();
        assert_eq!(p.words, vec![1, 2, 16, 0x0807, 9]);
    }

    #[test]
    fn ascii_directive() {
        let p = assemble(".ascii \"AB\"\n.even\n.word 1").unwrap();
        assert_eq!(p.words[0], u16::from_le_bytes([b'A', b'B']));
        assert_eq!(p.words[1], 1);
    }

    #[test]
    fn trap_and_emt() {
        let p = assemble("TRAP 3\nEMT 0o20").unwrap();
        assert_eq!(p.words, vec![0o104403, 0o104020]);
    }

    #[test]
    fn sob_encodes_backward_offset() {
        let src = "
loop:   NOP
        SOB R1, loop
";
        let p = assemble(src).unwrap();
        // SOB at byte 2: offset = (2+2-0)/2 = 2.
        assert_eq!(p.words[1], 0o077102);
    }

    #[test]
    fn jsr_and_rts() {
        let src = "
        JSR PC, sub
        HALT
sub:    RTS PC
";
        let p = assemble(src).unwrap();
        assert_eq!(p.words[0], 0o004767);
        assert_eq!(p.words[3], 0o000207);
    }

    #[test]
    fn undefined_symbol_errors() {
        let e = assemble("MOV nowhere, R0").unwrap_err();
        assert!(e.message.contains("undefined symbol"));
    }

    #[test]
    fn duplicate_label_errors() {
        let e = assemble("a: NOP\na: NOP").unwrap_err();
        assert!(e.message.contains("duplicate label"));
    }

    #[test]
    fn branch_out_of_range_errors() {
        let mut src = String::from("start: NOP\n");
        for _ in 0..200 {
            src.push_str("NOP\n");
        }
        src.push_str("BR start\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn blkw_bounds_are_checked() {
        assert!(assemble(".blkw -1")
            .unwrap_err()
            .message
            .contains("out of range"));
        assert!(assemble(".blkw 99999").is_err());
        assert_eq!(assemble(".blkw 3").unwrap().words, vec![0, 0, 0]);
    }

    #[test]
    fn origin_offsets_symbols() {
        let p = assemble_at("x: .word 1", 0o1000).unwrap();
        assert_eq!(p.symbol("x"), Some(0o1000));
        assert_eq!(p.origin, 0o1000);
    }

    #[test]
    fn numbers_in_all_bases() {
        let p = assemble(".word 10, 0o10, 0x10, 'A, -1").unwrap();
        assert_eq!(p.words, vec![10, 8, 16, 65, 0o177777]);
    }

    #[test]
    fn location_counter_past_the_address_space_errors() {
        let ascii = format!(".org 65500\n.ascii \"{}\"", "x".repeat(100));
        for src in [
            ".blkw 0o37777\n.blkw 0o37777\n.blkw 0o37777",
            &ascii,
            ".org 0o177776\nNOP\nNOP",
            ".org 65534\nMOV #1, R0",
            ".org 0o177776\nNOP\nend:",
        ] {
            let e = assemble(src).unwrap_err();
            assert!(e.message.contains("past the end"), "{src}: {e}");
        }
        // The last word of the address space can still be filled.
        let p = assemble_at("NOP", 0o177776).unwrap();
        assert_eq!(p.words, vec![0o000240]);
    }

    #[test]
    fn operand_counts_are_checked() {
        for src in ["RTS", "HALT R0", "MOV R0", "TRAP", "SOB R1", "NOP R0"] {
            let e = assemble(src).unwrap_err();
            assert!(e.message.contains("operand"), "{src}: {e}");
        }
        let e = assemble("MOV (PC)+, R0").unwrap_err();
        assert!(e.message.contains("extension word"), "{e}");
    }
}

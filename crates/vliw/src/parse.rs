//! Parser for the [`VliwProgram`] disassembly format — the inverse of the
//! [`Display`](std::fmt::Display) rendering in [`crate::disasm`].
//!
//! Mainly a test vehicle: round-tripping `program -> text -> program`
//! pins the disassembly syntax and catches silent formatting drift. The
//! textual form does not carry memory-op `tag`s, so only tag-0 programs
//! round-trip exactly.
//!
//! ```
//! use smarq_vliw::{parse_vliw, Bundle, ExitTarget, VliwOp, VliwProgram};
//! let p = VliwProgram {
//!     bundles: vec![Bundle {
//!         ops: vec![
//!             VliwOp::IConst { rd: 1, value: 7 },
//!             VliwOp::Exit { exit_id: 0, cond: None },
//!         ],
//!     }],
//!     exits: vec![ExitTarget { guest_block: None }],
//! };
//! assert_eq!(parse_vliw(&p.to_string()).unwrap(), p);
//! ```

use crate::isa::{AliasAnnot, Bundle, CondExit, ExitTarget, VliwOp, VliwProgram};
use smarq_guest::{AluOp, CmpOp, FpuOp};

fn alu_from(m: &str) -> Option<AluOp> {
    Some(match m {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "slt" => AluOp::Slt,
        _ => return None,
    })
}

fn fpu_from(m: &str) -> Option<FpuOp> {
    Some(match m {
        "fadd" => FpuOp::Add,
        "fsub" => FpuOp::Sub,
        "fmul" => FpuOp::Mul,
        "fdiv" => FpuOp::Div,
        "fmin" => FpuOp::Min,
        "fmax" => FpuOp::Max,
        _ => return None,
    })
}

fn cmp_from(m: &str) -> Option<CmpOp> {
    Some(match m {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

/// Registers per file (`r0..r63`, `f0..f63`), as in [`VliwState`](crate::VliwState).
const NUM_REGS: u8 = 64;

fn reg(tok: &str, prefix: char) -> Result<u8, String> {
    let tok = tok.trim();
    let r: u8 = tok
        .strip_prefix(prefix)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("expected {prefix}-register, got `{tok}`"))?;
    if r >= NUM_REGS {
        return Err(format!(
            "register `{tok}` out of range ({prefix}0..{prefix}{})",
            NUM_REGS - 1
        ));
    }
    Ok(r)
}

fn num<T: std::str::FromStr>(tok: &str) -> Result<T, String> {
    tok.trim()
        .parse()
        .map_err(|_| format!("bad number `{}`", tok.trim()))
}

/// Splits `rest` into exactly `n` comma-separated operands.
fn operands(rest: &str, n: usize) -> Result<Vec<&str>, String> {
    let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
    if parts.len() == n {
        Ok(parts)
    } else {
        Err(format!("expected {n} operands in `{rest}`"))
    }
}

fn parse_annot(s: &str) -> Result<AliasAnnot, String> {
    if let Some(e) = s.strip_prefix("alat#") {
        return Ok(AliasAnnot::AlatSet { entry: num(e)? });
    }
    if let Some((bits, off)) = s.split_once('@') {
        let (p, c) = match bits {
            "PC" => (true, true),
            "P" => (true, false),
            "C" => (false, true),
            "-" => (false, false),
            _ => return Err(format!("bad P/C bits `{bits}`")),
        };
        return Ok(AliasAnnot::Smarq {
            p,
            c,
            offset: num(off)?,
        });
    }
    // Efficeon: `set#N`, `chk0xM`, `set#N,chk0xM`, or empty (neither).
    let mut set = None;
    let mut check_mask = 0;
    for part in s.split(',').filter(|p| !p.is_empty()) {
        if let Some(v) = part.strip_prefix("set#") {
            set = Some(num(v)?);
        } else if let Some(v) = part.strip_prefix("chk0x") {
            check_mask = u64::from_str_radix(v, 16).map_err(|_| format!("bad mask `{part}`"))?;
        } else {
            return Err(format!("bad annotation `{s}`"));
        }
    }
    Ok(AliasAnnot::Efficeon { set, check_mask })
}

/// Parses `rX, [rY+D]` with an optional trailing `{annotation}`, yielding
/// `(data reg, base, disp, annot)`.
fn parse_mem(rest: &str, prefix: char) -> Result<(u8, u8, i64, AliasAnnot), String> {
    let (addr_part, alias) = match rest.split_once('{') {
        Some((head, tail)) => {
            let inner = tail
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated annotation in `{rest}`"))?;
            (head.trim_end(), parse_annot(inner)?)
        }
        None => (rest, AliasAnnot::None),
    };
    let ops = operands(addr_part, 2)?;
    let data = reg(ops[0], prefix)?;
    let inner = ops[1]
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected [rN+D] address, got `{}`", ops[1]))?;
    let (b, d) = inner
        .split_once('+')
        .ok_or_else(|| format!("bad address `{inner}`"))?;
    Ok((data, reg(b, 'r')?, num(d)?, alias))
}

fn parse_op(s: &str) -> Result<VliwOp, String> {
    let s = s.trim();
    if s == "nop" {
        return Ok(VliwOp::Nop);
    }
    let (mn, rest) = s.split_once(' ').unwrap_or((s, ""));
    let rest = rest.trim();
    if let Some(op) = alu_from(mn) {
        let o = operands(rest, 3)?;
        return Ok(VliwOp::Alu {
            op,
            rd: reg(o[0], 'r')?,
            ra: reg(o[1], 'r')?,
            rb: reg(o[2], 'r')?,
        });
    }
    if let Some(op) = mn.strip_suffix('i').and_then(alu_from) {
        let o = operands(rest, 3)?;
        return Ok(VliwOp::AluImm {
            op,
            rd: reg(o[0], 'r')?,
            ra: reg(o[1], 'r')?,
            imm: num(o[2])?,
        });
    }
    if let Some(op) = fpu_from(mn) {
        let o = operands(rest, 3)?;
        return Ok(VliwOp::Fpu {
            op,
            fd: reg(o[0], 'f')?,
            fa: reg(o[1], 'f')?,
            fb: reg(o[2], 'f')?,
        });
    }
    if let Some(c) = mn.strip_prefix("exit") {
        let cond = match c.strip_prefix('.') {
            None if c.is_empty() => None,
            Some(name) => Some(cmp_from(name).ok_or_else(|| format!("bad condition `{name}`"))?),
            _ => return Err(format!("unknown op `{mn}`")),
        };
        let o = operands(rest, if cond.is_some() { 3 } else { 1 })?;
        let exit_id = num(o[0]
            .strip_prefix('#')
            .ok_or_else(|| format!("expected #exit-id, got `{}`", o[0]))?)?;
        return Ok(VliwOp::Exit {
            exit_id,
            cond: match cond {
                None => None,
                Some(op) => Some(CondExit {
                    op,
                    ra: reg(o[1], 'r')?,
                    rb: reg(o[2], 'r')?,
                }),
            },
        });
    }
    match mn {
        "iconst" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::IConst {
                rd: reg(o[0], 'r')?,
                value: num(o[1])?,
            })
        }
        "fconst" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::FConst {
                fd: reg(o[0], 'f')?,
                value: num(o[1])?,
            })
        }
        "mov" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::Copy {
                rd: reg(o[0], 'r')?,
                ra: reg(o[1], 'r')?,
            })
        }
        "fmov" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::FCopy {
                fd: reg(o[0], 'f')?,
                fa: reg(o[1], 'f')?,
            })
        }
        "itof" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::ItoF {
                fd: reg(o[0], 'f')?,
                ra: reg(o[1], 'r')?,
            })
        }
        "ftoi" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::FtoI {
                rd: reg(o[0], 'r')?,
                fa: reg(o[1], 'f')?,
            })
        }
        "ld" => {
            let (rd, base, disp, alias) = parse_mem(rest, 'r')?;
            Ok(VliwOp::Load {
                rd,
                base,
                disp,
                alias,
                tag: 0,
            })
        }
        "st" => {
            let (rs, base, disp, alias) = parse_mem(rest, 'r')?;
            Ok(VliwOp::Store {
                rs,
                base,
                disp,
                alias,
                tag: 0,
            })
        }
        "fld" => {
            let (fd, base, disp, alias) = parse_mem(rest, 'f')?;
            Ok(VliwOp::FLoad {
                fd,
                base,
                disp,
                alias,
                tag: 0,
            })
        }
        "fst" => {
            let (fs, base, disp, alias) = parse_mem(rest, 'f')?;
            Ok(VliwOp::FStore {
                fs,
                base,
                disp,
                alias,
                tag: 0,
            })
        }
        "alat.clear" => Ok(VliwOp::AlatClear {
            entry: num(rest
                .strip_prefix('#')
                .ok_or_else(|| format!("expected #entry, got `{rest}`"))?)?,
        }),
        "ar.rotate" => Ok(VliwOp::Rotate { amount: num(rest)? }),
        "ar.amov" => {
            let o = operands(rest, 2)?;
            Ok(VliwOp::Amov {
                src: num(o[0])?,
                dst: num(o[1])?,
            })
        }
        _ => Err(format!("unknown op `{mn}`")),
    }
}

/// Parses `exit #N -> guest block BM` / `exit #N -> halt` table lines.
fn parse_exit_target(line: &str, index: usize) -> Result<ExitTarget, String> {
    let (head, tail) = line
        .split_once("->")
        .ok_or_else(|| format!("bad exit line `{line}`"))?;
    let id: usize = num(head
        .trim()
        .strip_prefix("exit #")
        .ok_or_else(|| format!("bad exit head `{head}`"))?)?;
    if id != index {
        return Err(format!("exit #{id} out of order (expected #{index})"));
    }
    let tail = tail.trim();
    let guest_block = if tail == "halt" {
        None
    } else {
        Some(num(tail
            .strip_prefix("guest block B")
            .ok_or_else(|| format!("bad exit target `{tail}`"))?)?)
    };
    Ok(ExitTarget { guest_block })
}

/// Parses the disassembly of a [`VliwProgram`] back into a program.
///
/// Accepts exactly the output of the program's `Display` impl: numbered
/// bundle lines with `|`-separated slots followed by the exit table.
/// Memory-op tags are not part of the textual form and parse as `0`; an
/// empty bundle renders as `nop` and parses back as a one-`Nop` bundle.
///
/// # Errors
/// Returns a message naming the offending line on any syntax error.
pub fn parse_vliw(src: &str) -> Result<VliwProgram, String> {
    let mut program = VliwProgram::default();
    for raw in src.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |e: String| format!("line `{line}`: {e}");
        if line.starts_with("exit #") && line.contains("->") {
            let t = parse_exit_target(line, program.exits.len()).map_err(err)?;
            program.exits.push(t);
            continue;
        }
        let (index, ops) = line
            .split_once(':')
            .ok_or_else(|| err("missing bundle index".into()))?;
        let index: usize = num(index).map_err(err)?;
        if index != program.bundles.len() {
            return Err(err(format!(
                "bundle #{index} out of order (expected #{})",
                program.bundles.len()
            )));
        }
        if !program.exits.is_empty() {
            return Err(err("bundle after exit table".into()));
        }
        let ops = ops
            .split(" | ")
            .map(parse_op)
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        program.bundles.push(Bundle { ops });
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_parse_back() {
        for (text, want) in [
            ("nop", VliwOp::Nop),
            (
                "subi r3, r4, -12",
                VliwOp::AluImm {
                    op: AluOp::Sub,
                    rd: 3,
                    ra: 4,
                    imm: -12,
                },
            ),
            (
                "ld r2, [r1+-8]  {PC@3}",
                VliwOp::Load {
                    rd: 2,
                    base: 1,
                    disp: -8,
                    alias: AliasAnnot::Smarq {
                        p: true,
                        c: true,
                        offset: 3,
                    },
                    tag: 0,
                },
            ),
            (
                "fst f7, [r2+16]  {set#2,chk0x5}",
                VliwOp::FStore {
                    fs: 7,
                    base: 2,
                    disp: 16,
                    alias: AliasAnnot::Efficeon {
                        set: Some(2),
                        check_mask: 5,
                    },
                    tag: 0,
                },
            ),
            (
                "exit.ge #1, r5, r6",
                VliwOp::Exit {
                    exit_id: 1,
                    cond: Some(CondExit {
                        op: CmpOp::Ge,
                        ra: 5,
                        rb: 6,
                    }),
                },
            ),
        ] {
            assert_eq!(parse_op(text).unwrap(), want, "{text}");
            // And the rendering is the canonical form we accept.
            assert_eq!(parse_op(&want.to_string()).unwrap(), want);
        }
    }

    #[test]
    fn malformed_ops_error_with_context() {
        for bad in [
            "frob r1, r2",
            "ld r1, r2+8",
            "exit.gt #0, r1, r2",
            "iconst r1",
            "ld r1, [r2+8]  {Q@0}",
        ] {
            assert!(parse_op(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(parse_vliw("   0: nop\n   2: nop\n").is_err());
        assert!(parse_vliw("exit #1 -> halt\n").is_err());
    }

    /// Both tiers index 64-entry register files, so a register number
    /// past them is a parse error naming the line, not a program that
    /// one tier wraps and the other panics on.
    #[test]
    fn registers_past_the_file_are_rejected() {
        for (line, tok) in [
            ("   0: iconst r64, 5", "r64"),
            ("   0: fconst f64, 1.5", "f64"),
            ("   0: add r1, r2, r255", "r255"),
            ("   0: fld f1, [r200+0]", "r200"),
        ] {
            let src = format!("{line}\n   1: exit #0\nexit #0 -> halt\n");
            let err = parse_vliw(&src).expect_err(line);
            assert!(err.contains(line.trim()), "{err}");
            assert!(err.contains(tok) && err.contains("out of range"), "{err}");
        }
        let ok =
            parse_vliw("   0: iconst r63, 5 | fconst f63, 1.5\n   1: exit #0\nexit #0 -> halt\n")
                .expect("r63/f63 are the last registers");
        assert_eq!(ok.bundles.len(), 2);
    }
}

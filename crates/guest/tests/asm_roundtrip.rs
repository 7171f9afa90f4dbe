//! Property test: the assembler and disassembler are inverse up to label
//! naming, and parsing never panics on random printable input.
//!
//! Random programs are drawn from the in-repo seeded [`Prng`] (the
//! workspace builds offline, without proptest); failures reproduce from the
//! printed seed.

use smarq::prng::Prng;
use smarq_guest::{disassemble, parse_program, AluOp, CmpOp, FReg, FpuOp, Instr, Reg};

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Slt,
];

const FPU_OPS: [FpuOp; 6] = [
    FpuOp::Add,
    FpuOp::Sub,
    FpuOp::Mul,
    FpuOp::Div,
    FpuOp::Min,
    FpuOp::Max,
];

fn reg(rng: &mut Prng) -> Reg {
    Reg(rng.range_u32(0, 32) as u8)
}

fn freg(rng: &mut Prng) -> FReg {
    FReg(rng.range_u32(0, 32) as u8)
}

fn instr(rng: &mut Prng) -> Instr {
    match rng.bounded(11) {
        0 => Instr::IConst {
            rd: reg(rng),
            value: rng.next_u64() as u32 as i32 as i64, // any i32, sign-extended
        },
        1 => Instr::FConst {
            fd: freg(rng),
            value: f64::from(rng.range_i64(-1000, 1000) as i32) / 8.0,
        },
        2 => Instr::Alu {
            op: *rng.pick(&ALU_OPS),
            rd: reg(rng),
            ra: reg(rng),
            rb: reg(rng),
        },
        3 => Instr::AluImm {
            op: *rng.pick(&ALU_OPS),
            rd: reg(rng),
            ra: reg(rng),
            imm: i64::from(rng.next_u64() as u16 as i16), // any i16
        },
        4 => Instr::Fpu {
            op: *rng.pick(&FPU_OPS),
            fd: freg(rng),
            fa: freg(rng),
            fb: freg(rng),
        },
        5 => Instr::ItoF {
            fd: freg(rng),
            ra: reg(rng),
        },
        6 => Instr::FtoI {
            rd: reg(rng),
            fa: freg(rng),
        },
        7 => Instr::Ld {
            rd: reg(rng),
            base: reg(rng),
            disp: rng.range_i64(0, 512),
        },
        8 => Instr::St {
            rs: reg(rng),
            base: reg(rng),
            disp: rng.range_i64(0, 512),
        },
        9 => Instr::FLd {
            fd: freg(rng),
            base: reg(rng),
            disp: rng.range_i64(0, 512),
        },
        _ => Instr::FSt {
            fs: freg(rng),
            base: reg(rng),
            disp: rng.range_i64(0, 512),
        },
    }
}

/// Builds a multi-block program from instruction bodies: block i branches
/// or jumps forward, the last halts.
fn program_from(bodies: &[Vec<Instr>]) -> smarq_guest::Program {
    let mut b = smarq_guest::ProgramBuilder::new();
    let blocks: Vec<_> = bodies.iter().map(|_| b.block()).collect();
    for (i, body) in bodies.iter().enumerate() {
        for ins in body {
            b.push(blocks[i], *ins);
        }
        if i + 1 < bodies.len() {
            if i % 2 == 0 {
                b.jump(blocks[i], blocks[i + 1]);
            } else {
                b.branch(
                    blocks[i],
                    CmpOp::Lt,
                    Reg(1),
                    Reg(2),
                    blocks[0],
                    blocks[i + 1],
                );
            }
        } else {
            b.halt(blocks[i]);
        }
    }
    b.finish(blocks[0])
}

#[test]
fn random_programs_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = Prng::new(seed);
        let bodies: Vec<Vec<Instr>> = (0..rng.range_usize(1, 5))
            .map(|_| {
                (0..rng.range_usize(0, 12))
                    .map(|_| instr(&mut rng))
                    .collect()
            })
            .collect();
        let p1 = program_from(&bodies);
        let text = disassemble(&p1);
        let p2 = parse_program(&text).unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}"));
        assert_eq!(&p1, &p2, "seed {seed}: roundtrip changed the program");
        // Idempotence: disassembling again is stable.
        assert_eq!(text, disassemble(&p2), "seed {seed}: unstable disassembly");
    }
}

#[test]
fn parser_never_panics() {
    for seed in 0..512u64 {
        let mut rng = Prng::new(seed ^ 0xA5A5_A5A5);
        let len = rng.range_usize(0, 201);
        let src: String = (0..len)
            .map(|_| {
                // Random printable ASCII or newline, like the proptest
                // regex class `[ -~\n]` this replaces.
                let c = rng.range_u32(0x20, 0x7F + 1);
                if c == 0x7F {
                    '\n'
                } else {
                    char::from_u32(c).unwrap()
                }
            })
            .collect();
        let _ = parse_program(&src);
    }
    // Seeded byte mutations of real inputs: every corpus repro and the
    // example program. Each mutant must parse to `Ok` or `Err`.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut inputs: Vec<_> = std::fs::read_dir(format!("{root}/tests/corpus"))
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    inputs.sort();
    inputs.push(format!("{root}/examples/hoist_loop.s").into());
    let (mut ok, mut err) = (0, 0);
    for (i, path) in inputs.iter().enumerate() {
        let text = std::fs::read(path).expect("readable input");
        assert!(
            parse_program(&String::from_utf8_lossy(&text)).is_ok(),
            "{path:?}"
        );
        for m in 0..MUTANTS_PER_INPUT {
            let mut rng = Prng::new((i as u64) << 32 | m);
            let mut bytes = text.clone();
            for _ in 0..rng.range_u32(1, 5) {
                rng.mutate_bytes(&mut bytes);
            }
            match parse_program(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    }
    assert!(inputs.len() > 1 && ok > 0 && err > 0, "{ok} ok, {err} err");
}

/// Mutants parsed per real input in [`parser_never_panics`].
const MUTANTS_PER_INPUT: u64 = 256;

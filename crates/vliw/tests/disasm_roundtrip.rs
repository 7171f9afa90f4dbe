//! Property test mirroring `crates/guest/tests/asm_roundtrip.rs` for the
//! VLIW side: the disassembler and [`parse_vliw`] are inverse on tag-0
//! programs, and the parser never panics on random printable input.
//!
//! Random programs are drawn from the in-repo seeded [`Prng`] (the
//! workspace builds offline, without proptest); failures reproduce from the
//! printed seed.

use smarq::prng::Prng;
use smarq_guest::{AluOp, CmpOp, FpuOp};
use smarq_vliw::{parse_vliw, AliasAnnot, Bundle, CondExit, ExitTarget, VliwOp, VliwProgram};

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

const CMP_OPS: [CmpOp; 4] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge];

fn reg(rng: &mut Prng) -> u8 {
    rng.range_u32(0, 64) as u8
}

fn annot(rng: &mut Prng) -> AliasAnnot {
    match rng.bounded(4) {
        0 => AliasAnnot::None,
        1 => AliasAnnot::Smarq {
            p: rng.bounded(2) == 0,
            c: rng.bounded(2) == 0,
            offset: rng.range_u32(0, 64),
        },
        2 => AliasAnnot::Efficeon {
            set: (rng.bounded(2) == 0).then(|| rng.range_u32(0, 48) as u8),
            check_mask: rng.next_u64() & 0xFFFF,
        },
        _ => AliasAnnot::AlatSet {
            entry: rng.range_u32(0, 32),
        },
    }
}

/// A random op. The textual form carries neither memory tags nor NaN
/// payloads, so tags are 0 and FP constants finite.
fn op(rng: &mut Prng, num_exits: u32) -> VliwOp {
    let disp = rng.range_i64(-64, 512);
    match rng.bounded(17) {
        0 => VliwOp::Nop,
        1 => VliwOp::IConst {
            rd: reg(rng),
            value: rng.next_u64() as u32 as i32 as i64,
        },
        2 => VliwOp::Alu {
            op: *rng.pick(&ALU_OPS),
            rd: reg(rng),
            ra: reg(rng),
            rb: reg(rng),
        },
        3 => VliwOp::AluImm {
            op: *rng.pick(&ALU_OPS),
            rd: reg(rng),
            ra: reg(rng),
            imm: i64::from(rng.next_u64() as u16 as i16),
        },
        4 => VliwOp::Copy {
            rd: reg(rng),
            ra: reg(rng),
        },
        5 => VliwOp::FConst {
            fd: reg(rng),
            value: f64::from(rng.range_i64(-8000, 8000) as i32) / 8.0,
        },
        6 => VliwOp::Fpu {
            op: *rng.pick(&FPU_OPS),
            fd: reg(rng),
            fa: reg(rng),
            fb: reg(rng),
        },
        7 => VliwOp::FCopy {
            fd: reg(rng),
            fa: reg(rng),
        },
        8 => VliwOp::ItoF {
            fd: reg(rng),
            ra: reg(rng),
        },
        9 => VliwOp::FtoI {
            rd: reg(rng),
            fa: reg(rng),
        },
        10 => VliwOp::Load {
            rd: reg(rng),
            base: reg(rng),
            disp,
            alias: annot(rng),
            tag: 0,
        },
        11 => VliwOp::Store {
            rs: reg(rng),
            base: reg(rng),
            disp,
            alias: annot(rng),
            tag: 0,
        },
        12 => VliwOp::FLoad {
            fd: reg(rng),
            base: reg(rng),
            disp,
            alias: annot(rng),
            tag: 0,
        },
        13 => VliwOp::FStore {
            fs: reg(rng),
            base: reg(rng),
            disp,
            alias: annot(rng),
            tag: 0,
        },
        14 => VliwOp::AlatClear {
            entry: rng.range_u32(0, 32),
        },
        15 => VliwOp::Rotate {
            amount: rng.range_u32(1, 8),
        },
        _ => VliwOp::Exit {
            exit_id: rng.range_u32(0, num_exits),
            cond: (rng.bounded(2) == 0).then(|| CondExit {
                op: *rng.pick(&CMP_OPS),
                ra: reg(rng),
                rb: reg(rng),
            }),
        },
    }
}

fn program(rng: &mut Prng) -> VliwProgram {
    let num_exits = rng.range_u32(1, 4);
    let bundles = (0..rng.range_usize(1, 8))
        .map(|_| Bundle {
            // Non-empty: an empty bundle renders as `nop` and parses back
            // as a one-Nop bundle, which is fine for the machine but not
            // structurally equal.
            ops: (0..rng.range_usize(1, 5))
                .map(|_| op(rng, num_exits))
                .collect(),
        })
        .collect();
    let exits = (0..num_exits)
        .map(|_| ExitTarget {
            guest_block: (rng.bounded(3) > 0).then(|| rng.range_u32(0, 100)),
        })
        .collect();
    VliwProgram { bundles, exits }
}

#[test]
fn random_programs_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = Prng::new(seed);
        let p1 = program(&mut rng);
        let text = p1.to_string();
        let p2 = parse_vliw(&text).unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}"));
        assert_eq!(p1, p2, "seed {seed}: roundtrip changed the program");
        // Idempotence: disassembling again is stable.
        assert_eq!(text, p2.to_string(), "seed {seed}: unstable disassembly");
    }
}

#[test]
fn parser_never_panics() {
    for seed in 0..512u64 {
        let mut rng = Prng::new(seed ^ 0x5A5A_5A5A);
        let len = rng.range_usize(0, 201);
        let src: String = (0..len)
            .map(|_| {
                let c = rng.range_u32(0x20, 0x7F + 1);
                if c == 0x7F {
                    '\n'
                } else {
                    char::from_u32(c).unwrap()
                }
            })
            .collect();
        let _ = parse_vliw(&src);
    }
    // Seeded byte mutations of real disassembly: each random program's
    // text, mutated, must parse to `Ok` or `Err`.
    let (mut ok, mut err) = (0, 0);
    for seed in 0..256u64 {
        let text = program(&mut Prng::new(seed)).to_string().into_bytes();
        for m in 0..MUTANTS_PER_INPUT {
            let mut rng = Prng::new(seed << 32 | m);
            let mut bytes = text.clone();
            for _ in 0..rng.range_u32(1, 5) {
                rng.mutate_bytes(&mut bytes);
            }
            match parse_vliw(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    }
    assert!(ok > 0 && err > 0, "{ok} ok, {err} err");
}

/// Mutants parsed per random program in [`parser_never_panics`].
const MUTANTS_PER_INPUT: u64 = 16;

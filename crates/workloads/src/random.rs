//! Random workload generation.
//!
//! Complements the 14 named kernels with arbitrarily many pseudo-random
//! loop workloads: random bodies over a small pool of base addresses, so
//! some pointer pairs truly alias at runtime while others only *may*
//! alias to the analysis (exercising speculation). The pointers are fixed
//! for the whole run, so a truly aliasing pair aliases while the loop
//! warms up and the runtime never speculates on it. Generation is
//! deterministic in the seed.

use crate::kernels::Workload;
use smarq::prng::Prng;
use smarq_guest::{AluOp, CmpOp, FReg, FpuOp, Program, ProgramBuilder, Reg};

/// Parameters for [`random_workload_with`].
#[derive(Clone, Copy, Debug)]
pub struct RandomParams {
    /// Straight-line operations per loop body.
    pub body_ops: usize,
    /// Loop trip count.
    pub iters: i64,
    /// Number of distinct base addresses the six pointer registers are
    /// drawn from; smaller pools mean more genuine runtime aliasing.
    pub address_pool: u64,
}

impl Default for RandomParams {
    fn default() -> Self {
        RandomParams {
            body_ops: 24,
            iters: 400,
            address_pool: 4,
        }
    }
}

/// Generates a random loop workload from `seed` with default parameters.
///
/// ```
/// use smarq_workloads::random_workload;
/// let a = random_workload(7);
/// let b = random_workload(7);
/// assert_eq!(a.program, b.program, "deterministic in the seed");
/// ```
pub fn random_workload(seed: u64) -> Workload {
    random_workload_with(seed, RandomParams::default())
}

/// Generates a random loop workload from `seed` and explicit parameters.
pub fn random_workload_with(seed: u64, params: RandomParams) -> Workload {
    Workload {
        name: "random",
        program: build(seed, params),
        description: "pseudo-random loop workload (seeded)",
    }
}

fn build(seed: u64, params: RandomParams) -> Program {
    let mut rng = Prng::new(seed);
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();

    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), params.iters);
    // Pointer registers r10..r15 over a small address pool.
    for r in 10u8..16 {
        let slot = rng.bounded(params.address_pool.max(1));
        b.iconst(entry, Reg(r), 0x1000 + slot as i64 * 128);
    }
    // Seed value registers.
    for r in 16u8..22 {
        b.iconst(entry, Reg(r), rng.range_i64(-8, 32));
    }
    for f in 8u8..16 {
        b.fconst(entry, FReg(f), f64::from(rng.range_u32(1, 32)) * 0.25);
    }
    b.jump(entry, body);

    let alu = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor, AluOp::And];
    let fpu = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Max];
    for _ in 0..params.body_ops {
        let base = Reg(rng.range_u32(10, 16) as u8);
        let disp = i64::from(rng.range_u32(0, 8)) * 8;
        match rng.bounded(6) {
            0 => b.ld(body, Reg(rng.range_u32(16, 22) as u8), base, disp),
            1 => b.st(body, Reg(rng.range_u32(16, 22) as u8), base, disp),
            2 => b.fld(body, FReg(rng.range_u32(8, 16) as u8), base, disp),
            3 => b.fst(body, FReg(rng.range_u32(8, 16) as u8), base, disp),
            4 => b.alu(
                body,
                *rng.pick(&alu),
                Reg(rng.range_u32(16, 22) as u8),
                Reg(rng.range_u32(16, 22) as u8),
                Reg(rng.range_u32(16, 22) as u8),
            ),
            _ => b.fpu(
                body,
                *rng.pick(&fpu),
                FReg(rng.range_u32(8, 16) as u8),
                FReg(rng.range_u32(8, 16) as u8),
                FReg(rng.range_u32(8, 16) as u8),
            ),
        }
    }
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::{Interpreter, RunOutcome};

    #[test]
    fn deterministic_and_halting() {
        for seed in 0..8 {
            let w1 = random_workload(seed);
            let w2 = random_workload(seed);
            assert_eq!(w1.program, w2.program);
            let mut i = Interpreter::new();
            assert_eq!(i.run(&w1.program, 10_000_000), RunOutcome::Halted);
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(random_workload(1).program, random_workload(2).program);
    }

    #[test]
    fn params_control_shape() {
        let small = random_workload_with(
            3,
            RandomParams {
                body_ops: 4,
                iters: 10,
                address_pool: 1,
            },
        );
        let big = random_workload_with(
            3,
            RandomParams {
                body_ops: 64,
                iters: 10,
                address_pool: 1,
            },
        );
        assert!(big.program.static_instrs() > small.program.static_instrs());
    }
}

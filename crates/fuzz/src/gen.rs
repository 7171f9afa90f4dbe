//! Structured guest-program generation.
//!
//! Richer than `smarq_workloads::random_workload_with` along exactly the
//! axes the optimizer's hard paths care about:
//!
//! * **Partial-overlap access widths** — pointer pools laid out at 4-byte
//!   stride with 4-byte-granular displacements, so syntactically distinct
//!   `(base, disp)` pairs fold onto the same 8-byte word at runtime while
//!   the analysis can only say *may* alias.
//! * **Loop nests** — an optional inner counted loop inside the hot body,
//!   exercising superblock formation across nested back edges.
//! * **Elimination bait** — deliberate `ld/ld`, `st/ld` and `st/st` pairs
//!   to the same address with may-aliasing stores in between, feeding the
//!   speculative load/store elimination paths and their extended
//!   dependences.
//! * **Branchy bodies** — diamond control flow inside the loop so region
//!   formation has side exits to deal with.
//! * **Register pressure** — up to six live pointers with mid-loop bumps
//!   plus hoisted-load bursts, stressing AMOV cycle-breaking and the
//!   8-register SMARQ configuration's overflow fallback.
//! * **Late aliasing** — in about half the programs one pointer reads a
//!   word of its own while the loop warms up and moves onto a pool slot
//!   at a random trip count past the hot threshold. The runtime never
//!   speculates on a pair it saw aliasing during warm-up, so this is what
//!   reaches alias exceptions, rollback and retranslation.
//!
//! Generation is deterministic in the seed.

use crate::oracle::OracleParams;
use smarq::prng::Prng;
use smarq_guest::{AluOp, BlockId, CmpOp, FReg, FpuOp, Program, ProgramBuilder, Reg};

/// Bounds for [`generate`]. Shape decisions (nesting, diamonds, bait) are
/// drawn from the seed within these bounds.
#[derive(Clone, Copy, Debug)]
pub struct FuzzParams {
    /// Maximum straight-line operations in the hot loop body.
    pub max_body_ops: usize,
    /// Maximum trip count of the outer loop.
    pub max_iters: i64,
    /// Maximum number of distinct pool slots pointers are drawn from
    /// (smaller pools mean more genuine runtime aliasing).
    pub max_pool: u64,
}

impl Default for FuzzParams {
    fn default() -> Self {
        FuzzParams {
            max_body_ops: 32,
            max_iters: 96,
            max_pool: 5,
        }
    }
}

/// Register conventions: r1/r2 outer loop counter/limit, r3/r4 inner loop
/// counter/limit — never touched by random ops.
const PTR_LO: u32 = 10;
const PTR_HI: u32 = 16;
const VAL_LO: u32 = 16;
const VAL_HI: u32 = 24;
const FREG_LO: u32 = 8;
const FREG_HI: u32 = 16;
/// Late aliasing: r5 holds the flip iteration, r6 is scratch, r7 the
/// warm-up offset and r8 the pool slot address.
const FLIP: Reg = Reg(5);
const FLIP_TMP: Reg = Reg(6);
const FLIP_OFFSET: Reg = Reg(7);
const FLIP_SLOT: Reg = Reg(8);
/// How far above its pool slot a late-aliasing pointer sits during
/// warm-up: past every pool slot and every pointer bump of a run.
const WARM_UP_OFFSET: i64 = 0x8000;
/// Mixed into the seed for the late-aliasing draws, which use a stream of
/// their own so the rest of a seed's program does not depend on them.
const LATE_SEED: u64 = 0x1a7e_a11a_5000_0001;

struct Gen<'a> {
    rng: &'a mut Prng,
    b: ProgramBuilder,
    /// 4-byte-granular displacements make distinct `(base, disp)` pairs
    /// overlap within one 8-byte word.
    fine_grained: bool,
}

impl Gen<'_> {
    fn ptr(&mut self) -> Reg {
        Reg(self.rng.range_u32(PTR_LO, PTR_HI) as u8)
    }

    fn val(&mut self) -> Reg {
        Reg(self.rng.range_u32(VAL_LO, VAL_HI) as u8)
    }

    fn freg(&mut self) -> FReg {
        FReg(self.rng.range_u32(FREG_LO, FREG_HI) as u8)
    }

    fn disp(&mut self) -> i64 {
        let unit = if self.fine_grained { 4 } else { 8 };
        i64::from(self.rng.range_u32(0, 10)) * unit
    }

    /// One random straight-line operation into `blk`.
    fn random_op(&mut self, blk: BlockId) {
        let alu = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor, AluOp::Or];
        let fpu = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Min, FpuOp::Max];
        match self.rng.bounded(10) {
            0 | 1 => {
                let (d, p, disp) = (self.val(), self.ptr(), self.disp());
                self.b.ld(blk, d, p, disp);
            }
            2 | 3 => {
                let (s, p, disp) = (self.val(), self.ptr(), self.disp());
                self.b.st(blk, s, p, disp);
            }
            4 => {
                let (d, p, disp) = (self.freg(), self.ptr(), self.disp());
                self.b.fld(blk, d, p, disp);
            }
            5 => {
                let (s, p, disp) = (self.freg(), self.ptr(), self.disp());
                self.b.fst(blk, s, p, disp);
            }
            6 => {
                let op = *self.rng.pick(&alu);
                let (d, a, c) = (self.val(), self.val(), self.val());
                self.b.alu(blk, op, d, a, c);
            }
            7 => {
                let op = *self.rng.pick(&fpu);
                let (d, a, c) = (self.freg(), self.freg(), self.freg());
                self.b.fpu(blk, op, d, a, c);
            }
            8 => {
                // Pointer bump: +4 keeps partial overlap alive; +8 moves a
                // whole word. Redefining the base splits the analysis'
                // value version, turning Must/No relations into May.
                let p = self.ptr();
                let bump = if self.rng.chance(1, 2) { 4 } else { 8 };
                self.b.alu_imm(blk, AluOp::Add, p, p, bump);
            }
            _ => {
                let d = self.val();
                let v = self.rng.range_i64(-16, 64);
                self.b.iconst(blk, d, v);
            }
        }
    }

    /// Elimination bait: pairs of memory ops to the *same* address, with
    /// an optional may-aliasing store wedged between them (the wedge is
    /// what turns the elimination speculative and induces extended
    /// dependences).
    fn bait(&mut self, blk: BlockId) {
        let p = self.ptr();
        let disp = self.disp();
        let wedge = self.rng.chance(2, 3);
        match self.rng.bounded(3) {
            0 => {
                // Redundant load pair.
                let (d1, d2) = (self.val(), self.val());
                self.b.ld(blk, d1, p, disp);
                if wedge {
                    let (s, q, wd) = (self.val(), self.ptr(), self.disp());
                    self.b.st(blk, s, q, wd);
                }
                self.b.ld(blk, d2, p, disp);
            }
            1 => {
                // Store→load forwarding.
                let (s, d) = (self.val(), self.val());
                self.b.st(blk, s, p, disp);
                if wedge {
                    let (s2, q, wd) = (self.val(), self.ptr(), self.disp());
                    self.b.st(blk, s2, q, wd);
                }
                self.b.ld(blk, d, p, disp);
            }
            _ => {
                // Dead store overwritten by a later store; a may-aliasing
                // load between them is the hazard store elimination must
                // guard with EXTENDED-DEPENDENCE 2.
                let (s1, s2) = (self.val(), self.val());
                self.b.st(blk, s1, p, disp);
                if wedge {
                    let (d, q, wd) = (self.val(), self.ptr(), self.disp());
                    self.b.ld(blk, d, q, wd);
                }
                self.b.st(blk, s2, p, disp);
            }
        }
    }
}

/// Generates one structured program from `seed` within `params`.
pub fn generate(seed: u64, params: &FuzzParams) -> Program {
    let mut rng = Prng::new(seed);
    let fine_grained = rng.chance(2, 3);
    let pool = rng.range_u64(1, params.max_pool.max(1) + 1);
    let iters = rng.range_i64(8, params.max_iters.max(9));
    let body_ops = rng.range_usize(4, params.max_body_ops.max(5));
    let nest = rng.chance(1, 3);
    let diamonds = rng.range_u32(0, 3);

    let mut g = Gen {
        rng: &mut rng,
        b: ProgramBuilder::new(),
        fine_grained,
    };

    let entry = g.b.block();
    let body = g.b.block();
    let done = g.b.block();

    // Late aliasing: pointer `p` reads `slot + WARM_UP_OFFSET` while
    // `i < flip` and `slot` from then on (recomputed at the loop head);
    // `flip` lies past the oracle's hot threshold.
    let mut late_rng = Prng::new(seed ^ LATE_SEED);
    let first_flip = OracleParams::default().hot_threshold as i64 + 1;
    let late = (iters > first_flip && late_rng.chance(1, 2)).then(|| {
        let flip = late_rng.range_i64(first_flip, iters);
        let p = Reg(late_rng.range_u32(PTR_LO, PTR_HI) as u8);
        let slot = late_rng.bounded(pool) as i64;
        (flip, p, slot)
    });

    g.b.iconst(entry, Reg(1), 0);
    g.b.iconst(entry, Reg(2), iters);
    // Pool stride 4 (fine-grained) straddles word boundaries between
    // slots; stride 64 keeps slots disjoint unless displacements collide.
    let stride = if fine_grained { 4 } else { 64 };
    for r in PTR_LO..PTR_HI {
        let slot = g.rng.bounded(pool) as i64;
        g.b.iconst(entry, Reg(r as u8), 0x1000 + slot * stride);
    }
    for r in VAL_LO..VAL_HI {
        let v = g.rng.range_i64(-8, 32);
        g.b.iconst(entry, Reg(r as u8), v);
    }
    for f in FREG_LO..FREG_HI {
        let v = f64::from(g.rng.range_u32(1, 32)) * 0.5;
        g.b.fconst(entry, FReg(f as u8), v);
    }
    if let Some((flip, p, slot)) = late {
        g.b.iconst(entry, FLIP, flip);
        g.b.iconst(entry, FLIP_OFFSET, WARM_UP_OFFSET);
        g.b.iconst(entry, FLIP_SLOT, 0x1000 + slot * stride);
        g.b.alu(body, AluOp::Slt, FLIP_TMP, Reg(1), FLIP);
        g.b.alu(body, AluOp::Mul, FLIP_TMP, FLIP_TMP, FLIP_OFFSET);
        g.b.alu(body, AluOp::Add, p, FLIP_SLOT, FLIP_TMP);
    }
    g.b.jump(entry, body);

    // Body: straight-line ops interleaved with bait, diamonds and at most
    // one inner counted loop.
    let mut cur = body;
    let mut remaining_diamonds = diamonds;
    let mut inner_pending = nest;
    let mut ops = 0usize;
    while ops < body_ops {
        if g.rng.chance(1, 5) {
            g.bait(cur);
            ops += 2;
        } else {
            g.random_op(cur);
            ops += 1;
        }
        if remaining_diamonds > 0 && g.rng.chance(1, 4) {
            remaining_diamonds -= 1;
            let t = g.b.block();
            let f = g.b.block();
            let join = g.b.block();
            let (a, c) = (g.val(), g.val());
            let cmp = *g.rng.pick(&[CmpOp::Lt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne]);
            g.b.branch(cur, cmp, a, c, t, f);
            for blk in [t, f] {
                for _ in 0..g.rng.range_usize(1, 4) {
                    g.random_op(blk);
                }
                g.b.jump(blk, join);
            }
            cur = join;
        } else if inner_pending && g.rng.chance(1, 4) {
            inner_pending = false;
            let inner = g.b.block();
            let after = g.b.block();
            let trip = g.rng.range_i64(2, 6);
            g.b.iconst(cur, Reg(3), 0);
            g.b.iconst(cur, Reg(4), trip);
            g.b.jump(cur, inner);
            for _ in 0..g.rng.range_usize(2, 6) {
                g.random_op(inner);
            }
            g.b.alu_imm(inner, AluOp::Add, Reg(3), Reg(3), 1);
            g.b.branch(inner, CmpOp::Lt, Reg(3), Reg(4), inner, after);
            cur = after;
        }
    }
    g.b.alu_imm(cur, AluOp::Add, Reg(1), Reg(1), 1);
    g.b.branch(cur, CmpOp::Lt, Reg(1), Reg(2), body, done);
    g.b.halt(done);
    g.b.finish(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::{Interpreter, RunOutcome};

    #[test]
    fn deterministic_in_the_seed() {
        for seed in 0..16 {
            let a = generate(seed, &FuzzParams::default());
            let b = generate(seed, &FuzzParams::default());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn generated_programs_halt() {
        // Pointer bumps never touch the loop counters, so every generated
        // program terminates; the budget is a backstop.
        for seed in 0..64 {
            let p = generate(seed, &FuzzParams::default());
            let mut i = Interpreter::new();
            assert_eq!(
                i.run(&p, 20_000_000),
                RunOutcome::Halted,
                "seed {seed} did not halt"
            );
        }
    }

    #[test]
    fn about_half_the_programs_alias_late() {
        let late = (0..64)
            .filter(|&seed| {
                let p = generate(seed, &FuzzParams::default());
                let head = &p.block(BlockId(1)).instrs;
                matches!(head.first(), Some(smarq_guest::Instr::Alu { op: AluOp::Slt, rd, .. }) if *rd == FLIP_TMP)
            })
            .count();
        assert!((16..48).contains(&late), "{late} of 64 programs alias late");
    }

    #[test]
    fn shapes_vary_across_seeds() {
        let mut multi_block = 0;
        for seed in 0..32 {
            let p = generate(seed, &FuzzParams::default());
            if p.num_blocks() > 3 {
                multi_block += 1;
            }
        }
        assert!(multi_block > 0, "no seed produced diamonds or nests");
        assert!(multi_block < 32, "every seed produced extra blocks");
    }
}

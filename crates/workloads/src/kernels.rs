//! The kernel generator and the 14 benchmark configurations.

use smarq_guest::{AluOp, CmpOp, FReg, FpuOp, Program, ProgramBuilder, Reg};

/// A named benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (SPECFP2000 benchmark it stands in for).
    pub name: &'static str,
    /// The guest program.
    pub program: Program,
    /// One-line description of the modeled behavior.
    pub description: &'static str,
}

/// The benchmark names, in the paper's presentation order.
pub const WORKLOAD_NAMES: [&str; 14] = [
    "wupwise", "swim", "mgrid", "applu", "mesa", "galgel", "art", "equake", "facerec", "ammp",
    "lucas", "fma3d", "sixtrack", "apsi",
];

/// Knobs of the common loop-kernel shape.
///
/// The loop body is:
/// 1. a *late chain*: `chain_divs` dependent FP divides (a long-latency
///    producer);
/// 2. `late_stores` stores of the chain result through base `r5` — their
///    value arrives late, so anything ordered after them serializes without
///    speculation;
/// 3. `strands` independent strands `fld [r6+8i] → muls → (fst [r7+8i])`
///    that *can* all hoist above the late stores when the hardware allows
///    speculation (each strand-load may-alias every `r5` store to the
///    analysis, but never truly aliases);
/// 4. optional special patterns (redundant loads, dead stores, a
///    must-alias consumer of an early store, a truly aliasing pair).
#[derive(Clone, Copy, Debug)]
struct Kernel {
    iters: i64,
    /// Serialized phases per loop body. Each group runs its own late
    /// chain, late stores and strands; the chain carrier serializes the
    /// groups, so alias registers of earlier groups can be released by
    /// rotation before later groups allocate theirs (paper §3.2).
    groups: u32,
    chain_divs: u32,
    late_stores: u32,
    strands: u32,
    strand_muls: u32,
    strand_store: bool,
    /// Add a redundant-load pair per `n` strands (speculative load elim).
    redundant_loads: bool,
    /// Add a dead-store pair (speculative store elimination).
    dead_stores: bool,
    /// mesa pattern: early store pinned behind the late stores feeds a
    /// must-alias load chain (benefits from store-store reordering).
    pinned_early_store: bool,
    /// equake pattern: one strand's pointer *truly* equals the store base
    /// from the first iteration, so the runtime sees the pair alias while
    /// the loop warms up and never speculates on it (no rollback).
    true_alias_strand: bool,
    /// Figure 3 pattern: a load/store pair that truly aliases but is never
    /// reordered. SMARQ's anti-constraints keep it silent; the ALAT's
    /// check-everything stores raise a *false positive*.
    alat_fp_pair: bool,
    /// ammp pattern (paper Figure 16 note): an early-value store that
    /// store-reordering would hoist above a late store it *truly* aliases.
    /// The pair aliases from the first iteration, so the runtime sees it
    /// while the loop warms up and keeps the stores in order.
    reordered_true_alias_stores: bool,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            iters: 20_000,
            groups: 2,
            chain_divs: 2,
            late_stores: 4,
            strands: 6,
            strand_muls: 2,
            strand_store: true,
            redundant_loads: false,
            dead_stores: false,
            pinned_early_store: false,
            true_alias_strand: false,
            alat_fp_pair: false,
            reordered_true_alias_stores: false,
        }
    }
}

// Register conventions inside kernels:
//   r1: induction variable     r2: iteration bound
//   r5: "output" array base (late stores)    0x2000
//   r6: "input" array base (strand loads)    0x8000
//   r7: "result" array base (strand stores)  0x20000
//   r8: scratch base for special patterns    0x40000
//   r9: truly-aliasing pointer (== r5's address) for `true_alias_strand`
//   f3: FP constant near 1; f1: chain carrier; f2: chain result
//   f4/f5: strand temporaries; f6: early-store value; f7: accumulator

/// Where the entry block passes the array bases (below every array).
const DESCRIPTOR: i64 = 0x800;

fn build(k: &Kernel) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();

    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), k.iters);
    // The array bases reach the loop through memory, as a compiled caller
    // passes arrays by reference: the entry block writes them to a
    // descriptor at DESCRIPTOR and loads them back. No static range
    // analysis sees through the loads, so the loop's pairs stay may-alias
    // to the optimizer, the premise of the paper's alias hardware (§1).
    let bases = [
        (5, 0x2000),
        (6, 0x8000),
        (7, 0x20000),
        (8, 0x40000),
        (9, 0x2000),  // same address as r5, distinct register
        (10, 0x5000), // FP-pattern load pointer
        (11, 0x5000), // same address, used by its stores
    ];
    for (slot, &(r, addr)) in (0..).zip(&bases) {
        b.iconst_via_memory(entry, Reg(r), addr, DESCRIPTOR + slot * 8);
    }
    b.fconst(entry, FReg(1), 3.5);
    b.fconst(entry, FReg(3), 1.0001);
    b.fconst(entry, FReg(6), 2.25);
    b.fconst(entry, FReg(7), 0.0);
    // Seed the input array so strand loads read interesting data.
    for i in 0..(k.strands * k.groups) {
        b.fconst(entry, FReg(4), 1.0 + f64::from(i) * 0.125);
        b.fst(entry, FReg(4), Reg(6), i64::from(i) * 8);
    }
    // Per-strand temporary registers (f8..f31) so strands are genuinely
    // independent; wrapping after 24 strands recreates a mild WAR chain.
    let strand_reg = |i: u32| FReg(8 + (i % 24) as u8);
    b.jump(entry, body);

    for g in 0..k.groups {
        // 4d. Figure 3 pattern (paper §2.3): W is a store whose value
        // comes from a long ALU-only chain; the critical load L_t (it
        // feeds the group's chain carrier) hoists above W, so W must
        // check L_t. S_t truly aliases L_t (r11 == r10 at run time) but
        // is never reordered with it (value + must-alias dependences make
        // it critical too, so it executes long before W releases L_t's
        // entry). SMARQ's ordered checking and anti-constraints stay
        // silent; the ALAT's check-everything stores raise a false
        // positive the moment S_t executes.
        if k.alat_fp_pair && g == 0 {
            for _ in 0..5 {
                b.fpu(body, FpuOp::Mul, FReg(5), FReg(5), FReg(3));
            }
            b.fst(body, FReg(5), Reg(11), 8); // W: late value, checker of L_t
            b.fld(body, FReg(0), Reg(10), 0); // L_t (hoists above W)
            b.fpu(body, FpuOp::Mul, FReg(0), FReg(0), FReg(3));
            b.fpu(body, FpuOp::Add, FReg(1), FReg(1), FReg(0)); // critical
            b.fst(body, FReg(0), Reg(11), 0); // S_t: truly aliases L_t
            b.fpu(body, FpuOp::Mul, FReg(0), FReg(0), FReg(3)); // block fwd
            b.fld(body, FReg(4), Reg(11), 0); // must-alias reload
            b.fpu(body, FpuOp::Add, FReg(1), FReg(1), FReg(4)); // critical
        }

        // 1. Late chain (the f1 carrier serializes the groups).
        for _ in 0..k.chain_divs {
            b.fpu(body, FpuOp::Div, FReg(2), FReg(1), FReg(3));
            b.fpu(body, FpuOp::Add, FReg(1), FReg(2), FReg(3));
        }

        // 2. Late stores through r5 (value arrives after the chain).
        for i in 0..k.late_stores {
            let disp = i64::from(g * k.late_stores + i) * 8;
            b.fst(body, FReg(2), Reg(5), disp);
        }

        // 4a. mesa pattern: an early-value store that store-store
        // reordering can hoist above the late stores; a must-alias load
        // consumes it (its value register is clobbered in between, so
        // forwarding cannot remove the load).
        if k.pinned_early_store && g == 0 {
            b.fst(body, FReg(6), Reg(8), 0);
            b.fpu(body, FpuOp::Mul, FReg(6), FReg(6), FReg(3)); // clobber f6
            b.fld(body, FReg(7), Reg(8), 0); // must-alias the early store
            for _ in 0..7 {
                b.fpu(body, FpuOp::Mul, FReg(7), FReg(7), FReg(3));
            }
            b.fst(body, FReg(7), Reg(7), 8 * 62);
        }

        // 3. Independent strands.
        for i in 0..k.strands {
            let disp = i64::from(g * k.strands + i) * 8;
            let t = strand_reg(i);
            if k.true_alias_strand && g == 0 && i == 0 {
                // Truly aliases the late stores at runtime (r9 == r5).
                b.fld(body, t, Reg(9), 0);
            } else {
                b.fld(body, t, Reg(6), disp);
            }
            for _ in 0..k.strand_muls {
                b.fpu(body, FpuOp::Mul, t, t, FReg(3));
            }
            if k.strand_store {
                b.fst(body, t, Reg(7), disp);
            } else {
                b.fpu(body, FpuOp::Add, FReg(7), FReg(7), t);
            }
            if k.true_alias_strand && g == 0 && i == 0 {
                // Keep the truly aliasing strand on the critical path so
                // the scheduler genuinely hoists it (and faults at run
                // time — the rollback/blacklist path).
                b.fpu(body, FpuOp::Add, FReg(1), FReg(1), t);
            }
        }

        // 4b. Redundant load pair: the second load of [r6+..] re-reads
        // across may-alias stores — speculative load elimination.
        if k.redundant_loads && g == 0 {
            b.fld(body, FReg(5), Reg(6), 0);
            b.fpu(body, FpuOp::Add, FReg(7), FReg(7), FReg(5));
        }

        // 4c. Dead store pair: [r8+8] written twice across a may-alias
        // load.
        if k.dead_stores && g == 0 {
            b.fst(body, FReg(2), Reg(8), 8);
            b.fld(body, FReg(5), Reg(7), 0); // may-alias to the analysis
            b.fpu(body, FpuOp::Add, FReg(7), FReg(7), FReg(5));
            b.fst(body, FReg(7), Reg(8), 8);
        }

        // 4e. A store that truly aliases a late store: hoisting it (store
        // reordering) faults at runtime; keeping program order is silent.
        if k.reordered_true_alias_stores && g == 0 {
            b.fst(body, FReg(6), Reg(9), 8);
        }
    }

    // Induction + loop.
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);

    // Consume results so nothing is trivially dead.
    b.fld(done, FReg(0), Reg(7), 0);
    b.halt(done);
    b.finish(entry)
}

fn mk(name: &'static str, description: &'static str, k: Kernel) -> Workload {
    Workload {
        name,
        program: build(&k),
        description,
    }
}

/// The 14 kernel configurations, by name.
fn config_of(name: &str) -> Option<(&'static str, &'static str, Kernel)> {
    all_configs().into_iter().find(|(n, _, _)| *n == name)
}

/// Like [`by_name`], but with the loop trip count overridden — handy for
/// fast correctness tests that still exercise the full pipeline.
pub fn scaled(name: &str, iters: i64) -> Option<Workload> {
    let (n, d, mut k) = config_of(name)?;
    k.iters = iters;
    Some(mk(n, d, k))
}

/// All 14 benchmark workloads, in the paper's order.
pub fn all() -> Vec<Workload> {
    all_configs()
        .into_iter()
        .map(|(n, d, k)| mk(n, d, k))
        .collect()
}

#[allow(clippy::vec_init_then_push)]
fn all_configs() -> Vec<(&'static str, &'static str, Kernel)> {
    vec![
        (
            "wupwise",
            "dense linear algebra: moderate strands, deep FP chains",
            Kernel {
                strands: 4,
                strand_muls: 3,
                chain_divs: 2,
                groups: 2,
                ..Kernel::default()
            },
        ),
        (
            "swim",
            "shallow-water stencil: wide strands, shallow chains",
            Kernel {
                strands: 5,
                late_stores: 4,
                strand_muls: 1,
                groups: 2,
                ..Kernel::default()
            },
        ),
        (
            "mgrid",
            "multigrid stencil: many neighbor loads per point",
            Kernel {
                strands: 6,
                late_stores: 3,
                strand_muls: 2,
                groups: 2,
                ..Kernel::default()
            },
        ),
        (
            "applu",
            "SSOR solver: larger bodies, mixed chains",
            Kernel {
                strands: 6,
                late_stores: 4,
                chain_divs: 2,
                groups: 2,
                alat_fp_pair: true,
                ..Kernel::default()
            },
        ),
        (
            "mesa",
            "3D rasterization: store-reorder-bound pipeline (Figure 16)",
            Kernel {
                strands: 3,
                late_stores: 4,
                chain_divs: 3,
                groups: 1,
                pinned_early_store: true,
                alat_fp_pair: true,
                strand_muls: 1,
                ..Kernel::default()
            },
        ),
        (
            "galgel",
            "Galerkin FEM: redundant loads across may-alias stores",
            Kernel {
                strands: 5,
                groups: 2,
                redundant_loads: true,
                ..Kernel::default()
            },
        ),
        (
            "art",
            "neural net: small superblocks, few memory ops",
            Kernel {
                strands: 2,
                late_stores: 2,
                strand_muls: 1,
                chain_divs: 1,
                groups: 1,
                ..Kernel::default()
            },
        ),
        (
            "equake",
            "earthquake FEM: a truly aliasing strand pointer, seen during warm-up",
            Kernel {
                strands: 4,
                groups: 2,
                true_alias_strand: true,
                ..Kernel::default()
            },
        ),
        (
            "facerec",
            "face recognition: moderate strands, light chains",
            Kernel {
                strands: 3,
                late_stores: 2,
                strand_muls: 2,
                chain_divs: 1,
                groups: 2,
                ..Kernel::default()
            },
        ),
        (
            "ammp",
            "molecular dynamics: very large superblocks (Figure 14); needs >16 alias registers",
            Kernel {
                strands: 20,
                late_stores: 7,
                chain_divs: 4,
                strand_muls: 3,
                groups: 2,
                iters: 10_000,
                reordered_true_alias_stores: true,
                ..Kernel::default()
            },
        ),
        (
            "lucas",
            "primality FFT: dead stores across may-alias loads",
            Kernel {
                strands: 4,
                groups: 2,
                dead_stores: true,
                ..Kernel::default()
            },
        ),
        (
            "fma3d",
            "crash simulation: elimination-rich bodies",
            Kernel {
                strands: 5,
                groups: 2,
                redundant_loads: true,
                dead_stores: true,
                late_stores: 3,
                ..Kernel::default()
            },
        ),
        (
            "sixtrack",
            "particle tracking: long bodies, many stores",
            Kernel {
                strands: 7,
                late_stores: 4,
                chain_divs: 2,
                strand_muls: 2,
                groups: 2,
                iters: 15_000,
                ..Kernel::default()
            },
        ),
        (
            "apsi",
            "pollution modeling: balanced mix",
            Kernel {
                strands: 5,
                late_stores: 3,
                strand_muls: 2,
                groups: 2,
                alat_fp_pair: true,
                ..Kernel::default()
            },
        ),
    ]
}

/// Looks up one workload by benchmark name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::Interpreter;

    #[test]
    fn all_fourteen_build_and_halt() {
        let ws = all();
        assert_eq!(ws.len(), 14);
        for w in &ws {
            let mut i = Interpreter::new();
            let out = i.run(&w.program, 50_000_000);
            assert_eq!(out, smarq_guest::RunOutcome::Halted, "{} must halt", w.name);
            assert!(i.executed_instrs() > 10_000, "{} is hot enough", w.name);
        }
    }

    #[test]
    fn names_match_the_paper_suite() {
        let ws = all();
        let names: Vec<_> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names.as_slice(), WORKLOAD_NAMES.as_slice());
        assert!(by_name("ammp").is_some());
        assert!(by_name("nosuch").is_none());
    }

    #[test]
    fn ammp_has_much_larger_bodies_than_art() {
        let ammp = by_name("ammp").unwrap();
        let art = by_name("art").unwrap();
        // Compare hot-block sizes (block 1 is the loop body by construction).
        let ammp_body = ammp.program.block(smarq_guest::BlockId(1)).instrs.len();
        let art_body = art.program.block(smarq_guest::BlockId(1)).instrs.len();
        assert!(
            ammp_body > 3 * art_body,
            "ammp {ammp_body} vs art {art_body}"
        );
    }

    #[test]
    fn deterministic_construction() {
        let a = by_name("swim").unwrap();
        let b = by_name("swim").unwrap();
        assert_eq!(a.program, b.program);
    }
}

//! Speculative load and store elimination (paper §4.1, Figures 5 and 9).
//!
//! * **Load elimination**: a load whose address provably equals an earlier
//!   load/store is replaced with a register copy. Intervening *may*-alias
//!   stores make the elimination *speculative*: it is recorded in the
//!   [`RegionSpec`] so `EXTENDED-DEPENDENCE 1` forces those stores to check
//!   the forwarding source's alias register.
//! * **Store elimination**: a store provably overwritten by a later store
//!   (with no intervening exit) is removed. Intervening *may*-alias loads
//!   make it speculative (`EXTENDED-DEPENDENCE 2`).
//!
//! Safety interactions handled here (see the inline comments):
//! speculative forwarding sources are *pinned* against store elimination
//! (their alias register must be set for the extended checks to work), and
//! eliminated loads inside a store-elimination window block it (their
//! extended dependences would otherwise silently disappear).

use crate::blacklist::AliasBlacklist;
use crate::config::OptConfig;
use smarq::RegionSpec;
use smarq_ir::{AliasAnalysis, AliasRel, IrOp, RegionMap, Superblock};

/// The outcome of the elimination pass.
#[derive(Clone, Debug)]
pub struct Eliminations {
    /// Per superblock op index: the copy that replaces an eliminated load.
    pub replaced: Vec<Option<IrOp>>,
    /// Per superblock op index: `true` for removed (eliminated) stores.
    pub removed: Vec<bool>,
    /// Speculative load eliminations.
    pub spec_load_elims: usize,
    /// Speculative store eliminations.
    pub spec_store_elims: usize,
    /// Non-speculative eliminations (fully disambiguated).
    pub nonspec_elims: usize,
}

impl Eliminations {
    /// `true` if op `i` was eliminated (load replaced or store removed).
    pub fn is_eliminated(&self, i: usize) -> bool {
        self.replaced[i].is_some() || self.removed[i]
    }
}

/// Runs both eliminations, recording them in `spec` so the dependence
/// computation derives the paper's extended dependences.
///
/// `taint` flags per superblock op index the memory operations whose
/// address can touch an unspeculatable range (see
/// [`smarq_ir::nospec_taint`]). Tainted ops take part in **no**
/// elimination, speculative or not: not as the eliminated op, not as the
/// forwarding source / overwriter, and not as a window op that would have
/// to carry an extended-dependence check bit.
pub fn run_eliminations(
    sb: &Superblock,
    analysis: &AliasAnalysis,
    spec: &mut RegionSpec,
    map: &RegionMap,
    config: &OptConfig,
    blacklist: &AliasBlacklist,
    taint: &[bool],
) -> Eliminations {
    let n = sb.ops.len();
    let mut out = Eliminations {
        replaced: vec![None; n],
        removed: vec![false; n],
        spec_load_elims: 0,
        spec_store_elims: 0,
        nonspec_elims: 0,
    };

    // Redefinition queries over the *original* op list (a replacing copy
    // defines the same register as the load it replaces).
    let redefined_int =
        |reg: u8, lo: usize, hi: usize| sb.ops[lo + 1..hi].iter().any(|o| o.int_def() == Some(reg));
    let redefined_fp =
        |reg: u8, lo: usize, hi: usize| sb.ops[lo + 1..hi].iter().any(|o| o.fp_def() == Some(reg));

    // Per op index: the ultimate forwarding source of an eliminated load.
    let mut fwd: Vec<Option<usize>> = vec![None; n];
    // Per op index: a store that must keep executing because a speculative
    // load elimination relies on its alias register.
    let mut pinned: Vec<bool> = vec![false; n];

    // ---- Load elimination (backward scan per load) ----
    for l in 0..n {
        let (l_fp, l_dst) = match sb.ops[l] {
            IrOp::Ld { rd, .. } => (false, rd),
            IrOp::FLd { fd, .. } => (true, fd),
            _ => continue,
        };
        // (source index for the window, value register)
        let mut found: Option<(usize, u8)> = None;
        let mut may_stores: Vec<usize> = Vec::new();
        for j in (0..l).rev() {
            if !sb.ops[j].is_mem() {
                continue;
            }
            match analysis.relation(j, l) {
                AliasRel::No => {}
                AliasRel::May => {
                    if sb.ops[j].is_store() {
                        may_stores.push(j);
                    }
                }
                AliasRel::Must => {
                    match sb.ops[j] {
                        IrOp::St { rs, .. } if !l_fp && !redefined_int(rs, j, l) => {
                            found = Some((j, rs));
                        }
                        IrOp::FSt { fs, .. } if l_fp && !redefined_fp(fs, j, l) => {
                            found = Some((j, fs));
                        }
                        IrOp::Ld { rd, .. } if !l_fp && !redefined_int(rd, j, l) => {
                            // A previously eliminated load resolves to its
                            // own ultimate source: the alias checks must
                            // guard the *original* window.
                            let src = fwd[j].unwrap_or(j);
                            found = Some((src, rd));
                        }
                        IrOp::FLd { fd, .. } if l_fp && !redefined_fp(fd, j, l) => {
                            let src = fwd[j].unwrap_or(j);
                            found = Some((src, fd));
                        }
                        _ => {} // cross-file must-alias: blocker
                    }
                    break; // a must-alias memop always ends the scan
                }
            }
        }

        let Some((src, value_reg)) = found else {
            continue;
        };
        // Only may-stores inside the (possibly widened) window matter.
        let window_stores: Vec<usize> = may_stores
            .iter()
            .copied()
            .filter(|&s| s > src)
            .chain(
                // Widened window (forwarding through an eliminated load):
                // re-scan the extra range.
                (src..l)
                    .filter(|&s| {
                        sb.ops[s].is_store()
                            && analysis.relation(s, l) == AliasRel::May
                            && !may_stores.contains(&s)
                    })
                    .collect::<Vec<_>>(),
            )
            .collect();
        if taint[l] || taint[src] || window_stores.iter().any(|&s| taint[s]) {
            continue; // unspeculatable ops take part in no elimination
        }
        let speculative = !window_stores.is_empty();
        if speculative {
            if !config.allow_spec_load_elim || !config.supports_spec_elim() {
                continue;
            }
            let risky = window_stores.iter().any(|&s| {
                blacklist.contains(sb.origins[s], sb.origins[l])
                    || blacklist.contains(sb.origins[s], sb.origins[src])
            });
            if risky {
                continue;
            }
        }

        out.replaced[l] = Some(if l_fp {
            IrOp::FCopy {
                fd: l_dst,
                fa: value_reg,
            }
        } else {
            IrOp::Copy {
                rd: l_dst,
                ra: value_reg,
            }
        });
        fwd[l] = Some(src);
        spec.add_load_elim(
            map.mem_id(src).expect("source is a memory op"),
            map.mem_id(l).expect("load is a memory op"),
        );
        if speculative {
            out.spec_load_elims += 1;
            if sb.ops[src].is_store() {
                pinned[src] = true;
            }
        } else {
            out.nonspec_elims += 1;
        }
    }

    // ---- Store elimination (forward scan per store) ----
    for i in 0..n {
        if !sb.ops[i].is_store() || pinned[i] || out.removed[i] {
            continue;
        }
        let mut overwriter: Option<usize> = None;
        let mut blocked = false;
        let mut may_loads: Vec<usize> = Vec::new();
        for j in (i + 1)..n {
            if sb.ops[j].is_exit() {
                // A committed side exit must observe the store: no
                // elimination across exits.
                blocked = true;
                break;
            }
            if !sb.ops[j].is_mem() || out.removed[j] {
                continue;
            }
            let rel = analysis.relation(i, j);
            if sb.ops[j].is_store() {
                if rel == AliasRel::Must {
                    overwriter = Some(j);
                    break;
                }
                // May/no-alias stores do not affect the elimination's
                // correctness (paper §4.1, Figure 9 discussion).
            } else {
                match rel {
                    AliasRel::Must => {
                        if out.replaced[j].is_none() {
                            blocked = true; // a live load reads the value
                            break;
                        }
                        // An eliminated must-alias load forwards from this
                        // store (or later): it never reads memory.
                    }
                    AliasRel::May => {
                        if out.replaced[j].is_some() {
                            // An eliminated load here would need extended
                            // dependences that the dependence computation
                            // skips for eliminated ops: block conservatively.
                            blocked = true;
                            break;
                        }
                        may_loads.push(j);
                    }
                    AliasRel::No => {}
                }
            }
        }

        let Some(z) = overwriter else { continue };
        if blocked {
            continue;
        }
        if taint[i] || taint[z] || may_loads.iter().any(|&y| taint[y]) {
            continue; // unspeculatable ops take part in no elimination
        }
        let speculative = !may_loads.is_empty();
        if speculative {
            if !config.allow_spec_store_elim || !config.supports_spec_elim() {
                continue;
            }
            let risky = may_loads.iter().any(|&y| {
                blacklist.contains(sb.origins[y], sb.origins[z])
                    || blacklist.contains(sb.origins[y], sb.origins[i])
            });
            if risky {
                continue;
            }
        }
        out.removed[i] = true;
        pinned[z] = true; // the overwriter must not be eliminated in turn
        spec.add_store_elim(
            map.mem_id(i).expect("store is a memory op"),
            map.mem_id(z).expect("overwriter is a memory op"),
        );
        if speculative {
            out.spec_store_elims += 1;
        } else {
            out.nonspec_elims += 1;
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::BlockId;
    use smarq_ir::{IrExit, OpOrigin};

    fn mk_sb(ops: Vec<IrOp>) -> Superblock {
        let n = ops.len();
        let mut ops = ops;
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: (0..n as u32 + 1)
                .map(|i| OpOrigin {
                    block: BlockId(0),
                    instr: i,
                })
                .collect(),
            ops,
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
        }
    }

    fn run(sb: &Superblock, config: &OptConfig) -> (Eliminations, RegionSpec) {
        let analysis = AliasAnalysis::new(sb);
        let (mut spec, map) = smarq_ir::build_region_spec(sb, &analysis);
        let e = run_eliminations(
            sb,
            &analysis,
            &mut spec,
            &map,
            config,
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        );
        (e, spec)
    }

    #[test]
    fn nonspeculative_store_to_load_forwarding() {
        // st [r1+0]=r2 ; ld r3=[r1+0] with nothing between.
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert_eq!(e.replaced[1], Some(IrOp::Copy { rd: 3, ra: 2 }));
        assert_eq!(e.nonspec_elims, 1);
        assert_eq!(e.spec_load_elims, 0);
    }

    #[test]
    fn speculative_forwarding_across_may_store() {
        // ld r3=[r1]; st [r4]=r5 (may alias); ld r6=[r1]  (Figure 5 shape).
        let sb = mk_sb(vec![
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 4,
                disp: 0,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, spec) = run(&sb, &OptConfig::smarq(64));
        assert_eq!(e.replaced[2], Some(IrOp::Copy { rd: 6, ra: 3 }));
        assert_eq!(e.spec_load_elims, 1);
        assert_eq!(spec.load_elims().len(), 1);
        // Without speculative-elim support nothing happens.
        let (e2, _) = run(&sb, &OptConfig::alat());
        assert_eq!(e2.replaced[2], None);
    }

    #[test]
    fn must_alias_store_blocks_forwarding() {
        // ld r3=[r1]; st [r1]=r5 ; ld r6=[r1]: forwards from the STORE.
        let sb = mk_sb(vec![
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert_eq!(e.replaced[2], Some(IrOp::Copy { rd: 6, ra: 5 }));
    }

    #[test]
    fn redefined_value_register_blocks_forwarding() {
        // ld r3=[r1]; r3 = r3+1 ; ld r6=[r1]: r3 no longer holds the value.
        let sb = mk_sb(vec![
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::AluImm {
                op: smarq_guest::AluOp::Add,
                rd: 3,
                ra: 3,
                imm: 1,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert_eq!(e.replaced[2], None);
    }

    #[test]
    fn chained_forwarding_uses_ultimate_window() {
        // ld A; st may; ld A (elim, spec); st may2; ld A (elim from the
        // eliminated load — window must reach the first ld).
        let sb = mk_sb(vec![
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 4,
                disp: 0,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 7,
                base: 8,
                disp: 0,
            },
            IrOp::Ld {
                rd: 9,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, spec) = run(&sb, &OptConfig::smarq(64));
        assert!(e.replaced[2].is_some());
        assert!(e.replaced[4].is_some());
        assert_eq!(e.spec_load_elims, 2);
        // Both eliminations resolve to the first load as source.
        for le in spec.load_elims() {
            assert_eq!(le.source.index(), 0);
        }
    }

    #[test]
    fn dead_store_elimination_speculative_and_not() {
        // st [r1]=r2 ; ld r3=[r4] (may) ; st [r1]=r5  -> speculative.
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 4,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, spec) = run(&sb, &OptConfig::smarq(64));
        assert!(e.removed[0]);
        assert_eq!(e.spec_store_elims, 1);
        assert_eq!(spec.store_elims().len(), 1);

        // With a no-alias load between: non-speculative.
        let sb2 = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 8,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
        ]);
        let (e2, _) = run(&sb2, &OptConfig::smarq(64));
        assert!(e2.removed[0]);
        assert_eq!(e2.nonspec_elims, 1);
    }

    #[test]
    fn forwarded_must_alias_load_unlocks_store_elimination() {
        // st [r1]=r2 ; ld [r1] ; st [r1]=r5: the load forwards from the
        // first store (register copy), so the first store becomes dead and
        // both optimizations compose.
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert_eq!(e.replaced[1], Some(IrOp::Copy { rd: 3, ra: 2 }));
        assert!(e.removed[0], "the forwarded load no longer reads memory");
        assert_eq!(e.nonspec_elims, 2);
    }

    #[test]
    fn live_must_alias_load_blocks_store_elimination() {
        // Same shape, but the stored register is clobbered before the load,
        // so forwarding is impossible and the load genuinely reads memory.
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::AluImm {
                op: smarq_guest::AluOp::Add,
                rd: 2,
                ra: 2,
                imm: 1,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert_eq!(e.replaced[2], None, "forwarding blocked by clobber");
        assert!(!e.removed[0], "the live load reads the first store's value");
    }

    #[test]
    fn exits_block_store_elimination() {
        let mut sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
        ]);
        // Insert a conditional exit between the stores.
        sb.exits.push(IrExit { target: None });
        sb.ops.insert(
            1,
            IrOp::Exit {
                exit_id: 1,
                cond: Some((smarq_guest::CmpOp::Eq, 1, 2)),
            },
        );
        sb.origins.insert(1, OpOrigin::terminator(BlockId(0)));
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert!(!e.removed[0]);
    }

    #[test]
    fn speculative_forwarding_source_store_is_pinned() {
        // st [r1]=r2 ; st may ; ld [r1] (spec elim from the first store) ;
        // st [r1]=r9 — the first store would be dead, but it is pinned.
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 4,
                disp: 0,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 9,
                base: 1,
                disp: 0,
            },
        ]);
        let (e, _) = run(&sb, &OptConfig::smarq(64));
        assert!(e.replaced[2].is_some(), "load forwards speculatively");
        assert!(
            !e.removed[0],
            "forwarding source must stay alive for the extended checks"
        );
    }

    #[test]
    fn blacklisted_pairs_disable_speculative_elims() {
        let sb = mk_sb(vec![
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 4,
                disp: 0,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
        ]);
        let analysis = AliasAnalysis::new(&sb);
        let (mut spec, map) = smarq_ir::build_region_spec(&sb, &analysis);
        let mut bl = AliasBlacklist::new();
        bl.insert(sb.origins[1], sb.origins[2]);
        let e = run_eliminations(
            &sb,
            &analysis,
            &mut spec,
            &map,
            &OptConfig::smarq(64),
            &bl,
            &vec![false; sb.ops.len()],
        );
        assert_eq!(e.replaced[2], None, "blacklisted pair is never speculated");
    }

    #[test]
    fn tainted_ops_take_part_in_no_elimination() {
        // st [r1]=r2 ; ld r3=[r1]: trivially forwardable — unless tainted.
        let sb = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
        ]);
        let analysis = AliasAnalysis::new(&sb);
        let config = OptConfig::smarq(64);
        for hot in [0usize, 1] {
            let (mut spec, map) = smarq_ir::build_region_spec(&sb, &analysis);
            let mut taint = vec![false; sb.ops.len()];
            taint[hot] = true;
            let e = run_eliminations(
                &sb,
                &analysis,
                &mut spec,
                &map,
                &config,
                &AliasBlacklist::new(),
                &taint,
            );
            assert_eq!(e.replaced[1], None, "taint on op {hot} blocks forwarding");
            assert_eq!(e.nonspec_elims, 0);
        }

        // Tainted may-store inside a speculative forwarding window also
        // blocks (it would have to carry a check bit).
        let sb2 = mk_sb(vec![
            IrOp::Ld {
                rd: 3,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 4,
                disp: 0,
            },
            IrOp::Ld {
                rd: 6,
                base: 1,
                disp: 0,
            },
        ]);
        let analysis2 = AliasAnalysis::new(&sb2);
        let (mut spec2, map2) = smarq_ir::build_region_spec(&sb2, &analysis2);
        let mut taint2 = vec![false; sb2.ops.len()];
        taint2[1] = true;
        let e2 = run_eliminations(
            &sb2,
            &analysis2,
            &mut spec2,
            &map2,
            &config,
            &AliasBlacklist::new(),
            &taint2,
        );
        assert_eq!(
            e2.replaced[2], None,
            "tainted window store blocks spec elim"
        );

        // Store elimination is blocked the same way.
        let sb3 = mk_sb(vec![
            IrOp::St {
                rs: 2,
                base: 1,
                disp: 0,
            },
            IrOp::St {
                rs: 5,
                base: 1,
                disp: 0,
            },
        ]);
        let analysis3 = AliasAnalysis::new(&sb3);
        let (mut spec3, map3) = smarq_ir::build_region_spec(&sb3, &analysis3);
        let mut taint3 = vec![false; sb3.ops.len()];
        taint3[0] = true;
        let e3 = run_eliminations(
            &sb3,
            &analysis3,
            &mut spec3,
            &map3,
            &config,
            &AliasBlacklist::new(),
            &taint3,
        );
        assert!(!e3.removed[0], "tainted dead store must still execute");
    }
}

/// Straight-line dead-code elimination over the post-elimination op list.
///
/// A non-memory, non-exit operation is dead when its destination register
/// is redefined before any read *within its exit-delimited segment* —
/// side exits observe all guest registers, so a value that survives to an
/// exit is live. Memory operations are never removed here (their identity
/// is fixed by the region spec; loads/stores are handled by the
/// speculative eliminations above). Runs to a fixpoint: removing one op
/// can make its producers dead in turn.
pub fn dce(sb: &Superblock, elims: &mut Eliminations) {
    let n = sb.ops.len();
    let effective = |i: usize, elims: &Eliminations| -> Option<IrOp> {
        if elims.removed[i] {
            None
        } else {
            Some(elims.replaced[i].unwrap_or(sb.ops[i]))
        }
    };
    loop {
        let mut changed = false;
        for i in 0..n {
            let Some(op) = effective(i, elims) else {
                continue;
            };
            if op.is_mem() || op.is_exit() {
                continue;
            }
            let (int_def, fp_def) = (op.int_def(), op.fp_def());
            if int_def.is_none() && fp_def.is_none() {
                continue;
            }
            let mut dead = false;
            let mut decided = false;
            for j in (i + 1)..n {
                let Some(later) = effective(j, elims) else {
                    continue;
                };
                if later.is_exit() {
                    break; // the exit observes the register: live
                }
                let read = int_def.is_some_and(|d| later.int_uses().contains(&d))
                    || fp_def.is_some_and(|d| later.fp_uses().contains(&d));
                if read {
                    decided = true;
                    break;
                }
                let redef = (int_def.is_some() && later.int_def() == int_def)
                    || (fp_def.is_some() && later.fp_def() == fp_def);
                if redef {
                    dead = true;
                    decided = true;
                    break;
                }
            }
            let _ = decided;
            if dead {
                elims.removed[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod dce_tests {
    use super::*;
    use smarq_guest::{AluOp, BlockId, CmpOp};
    use smarq_ir::{IrExit, OpOrigin};

    fn mk_sb(ops: Vec<IrOp>, exits: usize) -> Superblock {
        let n = ops.len();
        let mut ops = ops;
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: (0..n as u32 + 1)
                .map(|i| OpOrigin {
                    block: BlockId(0),
                    instr: i,
                })
                .collect(),
            ops,
            exits: vec![IrExit { target: None }; exits.max(1)],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
        }
    }

    fn fresh(sb: &Superblock) -> Eliminations {
        Eliminations {
            replaced: vec![None; sb.ops.len()],
            removed: vec![false; sb.ops.len()],
            spec_load_elims: 0,
            spec_store_elims: 0,
            nonspec_elims: 0,
        }
    }

    #[test]
    fn overwritten_def_is_removed_and_chains() {
        // r1 = 1; r2 = r1+1 (dead: r2 overwritten before any read);
        // r2 = 7; r1 = 9 (so the first r1 def can die once its only
        // reader is gone); r3 = r2.
        let sb = mk_sb(
            vec![
                IrOp::IConst { rd: 1, value: 1 },
                IrOp::AluImm {
                    op: AluOp::Add,
                    rd: 2,
                    ra: 1,
                    imm: 1,
                },
                IrOp::IConst { rd: 2, value: 7 },
                IrOp::IConst { rd: 1, value: 9 },
                IrOp::Copy { rd: 3, ra: 2 },
            ],
            1,
        );
        let mut e = fresh(&sb);
        dce(&sb, &mut e);
        assert!(e.removed[1], "r2=r1+1 is overwritten before any read");
        assert!(
            e.removed[0],
            "after removing its only reader, r1=1 dies too"
        );
        assert!(!e.removed[2]);
        assert!(!e.removed[3]);
        assert!(!e.removed[4]);
    }

    #[test]
    fn exits_keep_values_alive() {
        let mut sb = mk_sb(
            vec![
                IrOp::IConst { rd: 1, value: 1 },
                IrOp::IConst { rd: 1, value: 2 },
            ],
            2,
        );
        // Insert a conditional exit between the two defs: the first value
        // is observable if the exit is taken.
        sb.ops.insert(
            1,
            IrOp::Exit {
                exit_id: 1,
                cond: Some((CmpOp::Eq, 4, 5)),
            },
        );
        sb.origins.insert(1, OpOrigin::terminator(BlockId(0)));
        let mut e = fresh(&sb);
        dce(&sb, &mut e);
        assert!(!e.removed[0], "live at the side exit");
    }

    #[test]
    fn memory_ops_and_reads_are_kept() {
        let sb = mk_sb(
            vec![
                IrOp::Ld {
                    rd: 1,
                    base: 2,
                    disp: 0,
                }, // never removed here even if dead
                IrOp::IConst { rd: 1, value: 3 },
                IrOp::St {
                    rs: 1,
                    base: 2,
                    disp: 8,
                },
            ],
            1,
        );
        let mut e = fresh(&sb);
        dce(&sb, &mut e);
        assert!(!e.removed[0], "loads keep their region identity");
        assert!(!e.removed[1], "read by the store");
        assert!(!e.removed[2]);
    }

    #[test]
    fn dead_replacement_copies_are_removed() {
        // A load eliminated into a copy whose value is then overwritten.
        let sb = mk_sb(
            vec![
                IrOp::St {
                    rs: 2,
                    base: 1,
                    disp: 0,
                },
                IrOp::Ld {
                    rd: 3,
                    base: 1,
                    disp: 0,
                },
                IrOp::IConst { rd: 3, value: 0 },
            ],
            1,
        );
        let mut e = fresh(&sb);
        e.replaced[1] = Some(IrOp::Copy { rd: 3, ra: 2 });
        dce(&sb, &mut e);
        assert!(e.removed[1], "the forwarding copy is dead");
    }
}

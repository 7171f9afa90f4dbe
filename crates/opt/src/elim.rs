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
//!
//! Both eliminations are forward passes ([`run_eliminations`]). Two
//! memory ops must-alias exactly when they share a memory reference (base
//! register, its definition version, displacement), so a table keyed by
//! reference names each load's only possible forwarding source, and the
//! chain of ops with one reference names each store's only possible
//! overwriter. Redefinition of a value register is a comparison of
//! definition counts. A window (the stores between a source and its load,
//! the loads between a store and its overwriter) is read from per
//! location class op lists: ops of different classes are range-disjoint,
//! so only the class's own ops can be in it. The policy is asked only
//! about window ops, not about every earlier or later memory op.

use crate::config::OptConfig;
use crate::pairs::{PairPolicy, Verdict};
use smarq::hash::FastMap;
use smarq::RegionSpec;
use smarq_ir::{AliasRel, IrOp, MemRef, RegionMap, Superblock};

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

/// Working memory of [`run_eliminations`], reused across regions: every
/// buffer is reset by length at the start of a run.
#[derive(Clone, Debug, Default)]
pub struct ElimScratch {
    /// Per op index: the ultimate forwarding source of an eliminated load.
    fwd: Vec<Option<u32>>,
    /// Per op index: a store that must keep executing, because a
    /// speculative load elimination relies on its alias register or a
    /// store elimination made it the overwriter.
    pinned: Vec<bool>,
    /// Per memory op index: the definition count of its value register
    /// just after it (a load counts its own definition).
    value_version: Vec<u32>,
    /// Per memory op index: the exits before it.
    segment: Vec<u32>,
    /// Per memory op index: its location class.
    class: Vec<u32>,
    /// Per memory op index: the previous op with the same memory
    /// reference.
    prev_same: Vec<u32>,
    /// Per memory op index: the next op with the same memory reference.
    next_same: Vec<u32>,
    /// Memory reference → the latest op with it so far.
    last: FastMap<MemRef, u32>,
    /// `(loc_class, op index)` of every store, sorted.
    stores: Vec<(u32, u32)>,
    /// `(loc_class, op index)` of every load, sorted.
    loads: Vec<(u32, u32)>,
}

/// No next op.
const NONE: u32 = u32::MAX;

/// The ops of `class` strictly between `lo` and `hi` in a sorted
/// `(class, index)` list.
fn between(list: &[(u32, u32)], class: u32, lo: usize, hi: usize) -> &[(u32, u32)] {
    let from = list.partition_point(|&k| k <= (class, lo as u32));
    let to = list.partition_point(|&k| k < (class, hi as u32));
    &list[from..to.max(from)]
}

/// Runs both eliminations, recording them in `spec` so the dependence
/// computation derives the paper's extended dependences.
///
/// Both passes read the region's [`PairPolicy`]. An op it pins
/// ([`PairPolicy::pinned_op`]) takes part in **no** elimination,
/// speculative or not: not as the eliminated op, not as the forwarding
/// source / overwriter, and not as a window op that would have to carry an
/// extended-dependence check bit. A speculative elimination speculates
/// only across window pairs whose verdict is [`Verdict::Speculate`].
///
/// Two forward passes, each touching only the ops that can matter:
///
/// * **Loads.** A table keyed by memory reference (base register, its
///   definition version, displacement) links each op to the previous op
///   with its reference: for a load that is the nearest earlier
///   must-alias op, the only possible forwarding source. Redefinition of
///   the value register is a comparison of its definition count at the load with the count
///   just after the source. The window is the stores of the load's
///   location class between the ultimate source and the load that may
///   alias it; one that is not [`Verdict::Speculate`] with both ends
///   refuses the speculative elimination.
/// * **Stores.** The overwriter is found along the chain of later ops
///   with the same reference: an eliminated load on it is skipped, a live
///   one blocks, and an exit before the overwriter blocks. The window is
///   the loads of the class between the two stores that may alias them;
///   an eliminated one blocks (its extended dependences would vanish).
///
/// Ops of different location classes are range-disjoint, so no window
/// reaches outside the class.
///
/// `scratch` holds the passes' working buffers, reused across regions.
pub fn run_eliminations(
    sb: &Superblock,
    pairs: &PairPolicy,
    spec: &mut RegionSpec,
    map: &RegionMap,
    config: &OptConfig,
    scratch: &mut ElimScratch,
) -> Eliminations {
    let n = sb.ops.len();
    let mut out = Eliminations {
        replaced: vec![None; n],
        removed: vec![false; n],
        spec_load_elims: 0,
        spec_store_elims: 0,
        nonspec_elims: 0,
    };
    let ElimScratch {
        fwd,
        pinned,
        value_version,
        segment,
        class,
        prev_same,
        next_same,
        last,
        stores,
        loads,
    } = scratch;
    fwd.clear();
    fwd.resize(n, None);
    pinned.clear();
    pinned.resize(n, false);
    for v in [
        &mut *value_version,
        &mut *segment,
        &mut *class,
        &mut *prev_same,
        &mut *next_same,
    ] {
        v.clear();
        v.resize(n, NONE);
    }
    last.clear();
    stores.clear();
    loads.clear();
    // Forward pass 0: the class lists, the reference chains, the exit
    // segments and the value versions.
    let (mut int_defs, mut fp_defs) = ([0u32; 64], [0u32; 64]);
    let mut exits = 0u32;
    for (i, op) in sb.ops.iter().enumerate() {
        if let Some(r) = op.int_def() {
            int_defs[r as usize] += 1;
        }
        if let Some(r) = op.fp_def() {
            fp_defs[r as usize] += 1;
        }
        if op.is_exit() {
            exits += 1;
        }
        let Some(r) = pairs.mem_ref(i) else { continue };
        value_version[i] = match *op {
            IrOp::St { rs, .. } => int_defs[rs as usize],
            IrOp::Ld { rd, .. } => int_defs[rd as usize],
            IrOp::FSt { fs, .. } => fp_defs[fs as usize],
            IrOp::FLd { fd, .. } => fp_defs[fd as usize],
            _ => unreachable!("a memory op"),
        };
        segment[i] = exits;
        class[i] = spec.op(map.mem_id(i).expect("a memory op")).loc_class;
        if let Some(prev) = last.insert(r, i as u32) {
            prev_same[i] = prev;
            next_same[prev as usize] = i as u32;
        }
        let list = if op.is_store() {
            &mut *stores
        } else {
            &mut *loads
        };
        list.push((class[i], i as u32));
    }
    stores.sort_unstable();
    loads.sort_unstable();

    // ---- Load elimination (forward) ----
    // Definition counts before the op being visited.
    let (mut int_defs, mut fp_defs) = ([0u32; 64], [0u32; 64]);
    for (l, op) in sb.ops.iter().enumerate() {
        let load = match *op {
            IrOp::Ld { rd, .. } => Some((false, rd)),
            IrOp::FLd { fd, .. } => Some((true, fd)),
            _ => None,
        };
        if let Some((l_fp, l_dst)) = load {
            // The nearest earlier must-alias op, and its value register
            // if nothing redefined it since.
            let prev = prev_same[l];
            let found = (prev != NONE).then_some(prev as usize).and_then(|j| {
                debug_assert_eq!(pairs.verdict(j, l), Verdict::MustAlias);
                let live = |defs: &[u32; 64], reg: u8| defs[reg as usize] == value_version[j];
                match sb.ops[j] {
                    IrOp::St { rs, .. } if !l_fp && live(&int_defs, rs) => Some((j, rs)),
                    IrOp::FSt { fs, .. } if l_fp && live(&fp_defs, fs) => Some((j, fs)),
                    // A previously eliminated load resolves to its own
                    // ultimate source: the alias checks must guard the
                    // *original* window.
                    IrOp::Ld { rd, .. } if !l_fp && live(&int_defs, rd) => {
                        Some((fwd[j].map_or(j, |s| s as usize), rd))
                    }
                    IrOp::FLd { fd, .. } if l_fp && live(&fp_defs, fd) => {
                        Some((fwd[j].map_or(j, |s| s as usize), fd))
                    }
                    _ => None, // cross-file must-alias or redefined: blocker
                }
            });
            if let Some((src, value_reg)) = found {
                // The may-alias stores of the window, and whether one of
                // them cannot be speculated across.
                let (mut window, mut refused) = (false, false);
                for &(_, s) in between(stores, class[l], src, l) {
                    let s = s as usize;
                    let v = pairs.verdict(s, l);
                    if v.relation() != AliasRel::May {
                        continue;
                    }
                    window = true;
                    // The elimination's two ends share an address, so each
                    // window op has the same relation (may-alias) with
                    // both; the policy must consent to both pairs.
                    if pairs.pinned_op(s)
                        || v != Verdict::Speculate
                        || pairs.verdict(s, src) != Verdict::Speculate
                    {
                        refused = true;
                        break;
                    }
                }
                let eligible = !pairs.pinned_op(l)
                    && !pairs.pinned_op(src)
                    && (!window
                        || (!refused
                            && config.allow_spec_load_elim
                            && config.supports_spec_elim()));
                if eligible {
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
                    fwd[l] = Some(src as u32);
                    spec.add_load_elim(
                        map.mem_id(src).expect("source is a memory op"),
                        map.mem_id(l).expect("load is a memory op"),
                    );
                    if window {
                        out.spec_load_elims += 1;
                        if sb.ops[src].is_store() {
                            pinned[src] = true;
                        }
                    } else {
                        out.nonspec_elims += 1;
                    }
                }
            }
        }
        if let Some(r) = op.int_def() {
            int_defs[r as usize] += 1;
        }
        if let Some(r) = op.fp_def() {
            fp_defs[r as usize] += 1;
        }
    }

    // ---- Store elimination (forward) ----
    // In program order: an elimination pins its overwriter against the
    // later ones.
    for (i, op) in sb.ops.iter().enumerate() {
        if !op.is_store() || pinned[i] {
            continue;
        }
        // The overwriter: the next store with the same reference, before
        // any exit and with no live load of the value in between. An
        // eliminated must-alias load forwards from this store (or later):
        // it never reads memory.
        let mut k = next_same[i];
        let z = loop {
            if k == NONE || segment[k as usize] != segment[i] {
                break None; // a committed side exit must observe the store
            }
            let j = k as usize;
            if sb.ops[j].is_store() {
                break Some(j);
            }
            if out.replaced[j].is_none() {
                break None; // a live load reads the value
            }
            k = next_same[j];
        };
        let Some(z) = z else { continue };
        if pairs.pinned_op(i) || pairs.pinned_op(z) {
            continue; // unspeculatable ops take part in no elimination
        }
        // May/no-alias stores in the window do not affect the
        // elimination's correctness (paper §4.1, Figure 9 discussion);
        // may-alias loads make it speculative.
        let (mut window, mut refused) = (false, false);
        for &(_, y) in between(loads, class[i], i, z) {
            let y = y as usize;
            let v = pairs.verdict(i, y);
            if v.relation() != AliasRel::May {
                continue;
            }
            window = true;
            // An eliminated load here would need extended dependences
            // that the dependence computation skips for eliminated ops:
            // block conservatively.
            if out.replaced[y].is_some()
                || pairs.pinned_op(y)
                || v != Verdict::Speculate
                || pairs.verdict(y, z) != Verdict::Speculate
            {
                refused = true;
                break;
            }
        }
        if window && (refused || !config.allow_spec_store_elim || !config.supports_spec_elim()) {
            continue;
        }
        out.removed[i] = true;
        pinned[z] = true; // the overwriter must not be eliminated in turn
        spec.add_store_elim(
            map.mem_id(i).expect("store is a memory op"),
            map.mem_id(z).expect("overwriter is a memory op"),
        );
        if window {
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

    /// The two scans [`run_eliminations`] replaced: a backward scan per
    /// load and a forward scan per store, asking the policy about every
    /// memory op on the way. Kept as the differential test's reference.
    ///
    /// Both scans read the region's [`PairPolicy`]. An op it pins
    /// ([`PairPolicy::pinned_op`]) takes part in **no** elimination,
    /// speculative or not: not as the eliminated op, not as the forwarding
    /// source / overwriter, and not as a window op that would have to carry an
    /// extended-dependence check bit. A speculative elimination speculates
    /// only across window pairs whose verdict is [`Verdict::Speculate`].
    fn run_eliminations_reference(
        sb: &Superblock,
        pairs: &PairPolicy,
        spec: &mut RegionSpec,
        map: &RegionMap,
        config: &OptConfig,
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
        let redefined_int = |reg: u8, lo: usize, hi: usize| {
            sb.ops[lo + 1..hi].iter().any(|o| o.int_def() == Some(reg))
        };
        let redefined_fp = |reg: u8, lo: usize, hi: usize| {
            sb.ops[lo + 1..hi].iter().any(|o| o.fp_def() == Some(reg))
        };

        let relation = |i: usize, j: usize| pairs.verdict(i, j).relation();
        // Speculating across a window pair needs the policy's consent. The
        // elimination's two ends share an address, so each window op has the
        // same relation (may-alias) with both.
        let refused = |x: usize, y: usize| pairs.verdict(x, y) != Verdict::Speculate;

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
                match relation(j, l) {
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
                                && relation(s, l) == AliasRel::May
                                && !may_stores.contains(&s)
                        })
                        .collect::<Vec<_>>(),
                )
                .collect();
            if [l, src]
                .iter()
                .chain(&window_stores)
                .any(|&i| pairs.pinned_op(i))
            {
                continue; // unspeculatable ops take part in no elimination
            }
            let speculative = !window_stores.is_empty();
            if speculative {
                if !config.allow_spec_load_elim || !config.supports_spec_elim() {
                    continue;
                }
                let risky = window_stores
                    .iter()
                    .any(|&s| refused(s, l) || refused(s, src));
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
                let rel = relation(i, j);
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
            if [i, z].iter().chain(&may_loads).any(|&k| pairs.pinned_op(k)) {
                continue; // unspeculatable ops take part in no elimination
            }
            let speculative = !may_loads.is_empty();
            if speculative {
                if !config.allow_spec_store_elim || !config.supports_spec_elim() {
                    continue;
                }
                let risky = may_loads.iter().any(|&y| refused(y, z) || refused(y, i));
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
    use crate::blacklist::AliasBlacklist;
    use smarq_guest::BlockId;
    use smarq_ir::{AliasAnalysis, IrExit, OpOrigin};

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
            profiled_aliases: Vec::new(),
        }
    }

    fn run_with(
        sb: &Superblock,
        config: &OptConfig,
        blacklist: &AliasBlacklist,
        taint: &[bool],
    ) -> (Eliminations, RegionSpec) {
        let analysis = AliasAnalysis::new(sb);
        let (mut spec, map) = smarq_ir::build_region_spec(sb, &analysis);
        let pairs = PairPolicy::new(sb, &analysis, taint, blacklist, config.hw);
        let e = run_eliminations(
            sb,
            &pairs,
            &mut spec,
            &map,
            config,
            &mut ElimScratch::default(),
        );
        (e, spec)
    }

    fn run(sb: &Superblock, config: &OptConfig) -> (Eliminations, RegionSpec) {
        run_with(
            sb,
            config,
            &AliasBlacklist::new(),
            &vec![false; sb.ops.len()],
        )
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

    /// `ld A; st B; ld A` (load elimination across the store) and
    /// `st A; ld B; st A` (store elimination across the load), with
    /// origins 0, 1, 2: both speculative only across their middle op.
    fn spec_elim_shapes() -> [Superblock; 2] {
        [
            mk_sb(vec![
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
            ]),
            mk_sb(vec![
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
            ]),
        ]
    }

    #[test]
    fn blacklisted_pairs_disable_speculative_elims() {
        let [sb, _] = spec_elim_shapes();
        let mut bl = AliasBlacklist::new();
        bl.insert(sb.origins[1], sb.origins[2]);
        let (e, _) = run_with(&sb, &OptConfig::smarq(64), &bl, &vec![false; sb.ops.len()]);
        assert_eq!(e.replaced[2], None, "blacklisted pair is never speculated");
    }

    #[test]
    fn profiled_pairs_disable_speculative_elims() {
        let config = OptConfig::smarq(64);
        let [loads, stores] = spec_elim_shapes();
        let clean = vec![false; 4];
        let eliminated = |sb: &Superblock, bl: &AliasBlacklist| {
            let (e, _) = run_with(sb, &config, bl, &clean);
            e.spec_load_elims + e.spec_store_elims
        };
        assert_eq!(eliminated(&loads, &AliasBlacklist::new()), 1);
        assert_eq!(eliminated(&stores, &AliasBlacklist::new()), 1);
        // The (window store, load) and (may-load, overwriter) pairs
        // aliased during warm-up.
        for sb in [&loads, &stores] {
            let mut profiled = sb.clone();
            profiled.profiled_aliases = vec![(sb.origins[1], sb.origins[2])];
            assert_eq!(eliminated(&profiled, &AliasBlacklist::new()), 0);
        }
        // The middle op faulted with an op outside the region: a member
        // of the blacklist, but in no pair of the window.
        let mut bl = AliasBlacklist::new();
        let outside = OpOrigin {
            block: BlockId(9),
            instr: 0,
        };
        bl.insert(loads.origins[1], outside);
        assert_eq!(eliminated(&loads, &bl), 1);
        assert_eq!(eliminated(&stores, &bl), 1);
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
        let config = OptConfig::smarq(64);
        let none = AliasBlacklist::new();
        for hot in [0usize, 1] {
            let mut taint = vec![false; sb.ops.len()];
            taint[hot] = true;
            let (e, _) = run_with(&sb, &config, &none, &taint);
            assert_eq!(e.replaced[1], None, "taint on op {hot} blocks forwarding");
            assert_eq!(e.nonspec_elims, 0);
        }

        // Tainted may-store inside a speculative forwarding window also
        // blocks (it would have to carry a check bit).
        let [sb2, _] = spec_elim_shapes();
        let mut taint2 = vec![false; sb2.ops.len()];
        taint2[1] = true;
        let (e2, _) = run_with(&sb2, &config, &none, &taint2);
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
        let mut taint3 = vec![false; sb3.ops.len()];
        taint3[0] = true;
        let (e3, _) = run_with(&sb3, &config, &none, &taint3);
        assert!(!e3.removed[0], "tainted dead store must still execute");
    }

    /// A random loop body over two base registers, three displacements
    /// and three integer and FP value registers, so references repeat,
    /// must-alias pairs cross register files, value and base registers
    /// get redefined, and exits cut store windows.
    fn random_body(rng: &mut smarq::prng::Prng, len: usize) -> Vec<IrOp> {
        (0..len)
            .map(|_| {
                let base = rng.range_u32(1, 3) as u8;
                let disp = [0, 8, 4][rng.bounded(3) as usize];
                let v = rng.range_u32(4, 7) as u8;
                match rng.bounded(16) {
                    0..=3 => IrOp::Ld { rd: v, base, disp },
                    4..=6 => IrOp::St { rs: v, base, disp },
                    7 => IrOp::FLd { fd: v, base, disp },
                    8 => IrOp::FSt { fs: v, base, disp },
                    9 | 10 => IrOp::AluImm {
                        op: smarq_guest::AluOp::Add,
                        rd: v,
                        ra: v,
                        imm: 1,
                    },
                    11 => IrOp::FConst { fd: v, value: 1.0 },
                    12 => IrOp::AluImm {
                        op: smarq_guest::AluOp::Add,
                        rd: base,
                        ra: base,
                        imm: 64,
                    },
                    13 => IrOp::Exit {
                        exit_id: 0,
                        cond: Some((smarq_guest::CmpOp::Lt, v, base)),
                    },
                    _ => IrOp::Copy { rd: v, ra: base },
                }
            })
            .collect()
    }

    /// A random superblock: a body unrolled up to three times (the copies
    /// repeat their origins), with random blacklisted and profiled origin
    /// pairs among its memory ops.
    fn random_region(rng: &mut smarq::prng::Prng) -> (Superblock, AliasBlacklist) {
        let len = rng.range_usize(1, 16);
        let body = random_body(rng, len);
        let copies = rng.range_usize(1, 4);
        let ops: Vec<IrOp> = (0..copies).flat_map(|_| body.iter().copied()).collect();
        let mut sb = mk_sb(ops);
        for (k, o) in sb.origins.iter_mut().enumerate().take(body.len() * copies) {
            o.instr = (k % body.len()) as u32;
        }
        let mem: Vec<OpOrigin> = (0..sb.ops.len())
            .filter(|&i| sb.ops[i].is_mem())
            .map(|i| sb.origins[i])
            .collect();
        let mut bl = AliasBlacklist::new();
        if !mem.is_empty() {
            let pick = |rng: &mut smarq::prng::Prng| mem[rng.bounded(mem.len() as u64) as usize];
            for _ in 0..rng.bounded(3) {
                let (a, b) = (pick(rng), pick(rng));
                bl.insert(a, b);
            }
            for _ in 0..rng.bounded(3) {
                let pair = (pick(rng), pick(rng));
                sb.profiled_aliases.push(pair);
            }
        }
        (sb, bl)
    }

    #[test]
    fn forward_passes_match_the_reference_scans() {
        let configs = [
            OptConfig::smarq(64),
            OptConfig::alat(),
            OptConfig {
                allow_spec_load_elim: false,
                ..OptConfig::smarq(64)
            },
            OptConfig {
                allow_spec_store_elim: false,
                ..OptConfig::smarq(64)
            },
        ];
        let mut scratch = ElimScratch::default();
        let (mut spec_elims, mut nonspec_elims, mut ranged_classes) = (0, 0, 0);
        for seed in 0..600u64 {
            let mut rng = smarq::prng::Prng::new(seed);
            let (sb, bl) = random_region(&mut rng);
            let config = &configs[seed as usize % configs.len()];
            let taint: Vec<bool> = (0..sb.ops.len())
                .map(|i| sb.ops[i].is_mem() && rng.chance(1, 12))
                .collect();
            // Odd seeds: an entry state with exact or bounded base
            // registers, so range classes split the region.
            let ranges = (seed % 2 == 1).then(|| {
                let mut entry = smarq::range::top_state();
                for base in &mut entry[1..3] {
                    let at = 0x1000 * rng.range_i64(1, 3) + 4 * rng.range_i64(0, 3);
                    *base = if rng.chance(1, 2) {
                        smarq::Interval::exact(at)
                    } else {
                        smarq::Interval::of(at, at + 8)
                    };
                }
                smarq_ir::address_intervals(&sb, &entry)
            });
            let analysis = match &ranges {
                Some(r) => AliasAnalysis::with_ranges(&sb, r.clone()),
                None => AliasAnalysis::new(&sb),
            };
            let pairs = PairPolicy::new(&sb, &analysis, &taint, &bl, config.hw);
            let (spec0, map) = smarq_ir::build_region_spec(&sb, &analysis);
            if spec0.iter().any(|(_, op)| op.loc_class > 0) {
                ranged_classes += 1;
            }
            let (mut fast_spec, mut ref_spec) = (spec0.clone(), spec0);
            let fast = run_eliminations(&sb, &pairs, &mut fast_spec, &map, config, &mut scratch);
            let reference = run_eliminations_reference(&sb, &pairs, &mut ref_spec, &map, config);
            let ctx = || format!("seed {seed}: {:?}", sb.ops);
            assert_eq!(fast.replaced, reference.replaced, "{}", ctx());
            assert_eq!(fast.removed, reference.removed, "{}", ctx());
            assert_eq!(
                (
                    fast.spec_load_elims,
                    fast.spec_store_elims,
                    fast.nonspec_elims
                ),
                (
                    reference.spec_load_elims,
                    reference.spec_store_elims,
                    reference.nonspec_elims
                ),
                "{}",
                ctx()
            );
            assert_eq!(fast_spec.load_elims(), ref_spec.load_elims(), "{}", ctx());
            assert_eq!(fast_spec.store_elims(), ref_spec.store_elims(), "{}", ctx());
            spec_elims += fast.spec_load_elims + fast.spec_store_elims;
            nonspec_elims += fast.nonspec_elims;
        }
        assert!(
            spec_elims > 100 && nonspec_elims > 300 && ranged_classes > 100,
            "the regions must exercise both kinds of elimination and split classes: \
             {spec_elims} speculative, {nonspec_elims} proven, {ranged_classes} ranged"
        );
    }
}

/// Straight-line dead-code elimination over the post-elimination op list.
///
/// A non-memory, non-exit operation is dead when its destination register
/// is redefined before any read *within its exit-delimited segment* —
/// side exits observe all guest registers, so a value that survives to an
/// exit is live. Memory operations are never removed here (their identity
/// is fixed by the region spec; loads/stores are handled by the
/// speculative eliminations above). One backward liveness pass: an op is
/// judged against the ops after it that survive, so removing one op makes
/// its producers dead in the same pass.
pub fn dce(sb: &Superblock, elims: &mut Eliminations) {
    // Live registers after the op being visited, one bit per register
    // (IR registers are guest registers, below 64). Past the last op, as
    // at every exit, all are live.
    let (mut live_int, mut live_fp) = (u64::MAX, u64::MAX);
    for i in (0..sb.ops.len()).rev() {
        if elims.removed[i] {
            continue;
        }
        let op = elims.replaced[i].unwrap_or(sb.ops[i]);
        if op.is_exit() {
            (live_int, live_fp) = (u64::MAX, u64::MAX);
            continue;
        }
        let (int_def, fp_def) = (op.int_def(), op.fp_def());
        if !op.is_mem() && (int_def.is_some() || fp_def.is_some()) {
            let live = int_def.is_some_and(|r| live_int & (1 << r) != 0)
                || fp_def.is_some_and(|r| live_fp & (1 << r) != 0);
            if !live {
                elims.removed[i] = true;
                continue;
            }
        }
        if let Some(r) = int_def {
            live_int &= !(1 << r);
        }
        if let Some(r) = fp_def {
            live_fp &= !(1 << r);
        }
        for r in op.int_uses() {
            live_int |= 1 << r;
        }
        for r in op.fp_uses() {
            live_fp |= 1 << r;
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
            profiled_aliases: Vec::new(),
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

    /// The fixpoint formulation `dce` replaced: rescan forward from every
    /// definition for its first read or redefinition, until nothing
    /// changes.
    fn dce_fixpoint(sb: &Superblock, elims: &mut Eliminations) {
        let n = sb.ops.len();
        let effective = |i: usize, elims: &Eliminations| -> Option<IrOp> {
            (!elims.removed[i]).then(|| elims.replaced[i].unwrap_or(sb.ops[i]))
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
                for j in (i + 1)..n {
                    let Some(later) = effective(j, elims) else {
                        continue;
                    };
                    if later.is_exit() {
                        break;
                    }
                    let read = int_def.is_some_and(|d| later.int_uses().contains(&d))
                        || fp_def.is_some_and(|d| later.fp_uses().contains(&d));
                    if read {
                        break;
                    }
                    if (int_def.is_some() && later.int_def() == int_def)
                        || (fp_def.is_some() && later.fp_def() == fp_def)
                    {
                        dead = true;
                        break;
                    }
                }
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

    /// A random op over four integer and four FP registers, so defs are
    /// often overwritten before a read.
    fn random_op(rng: &mut smarq::prng::Prng) -> IrOp {
        let mut r = || rng.bounded(4) as u8;
        let (a, b, c) = (r(), r(), r());
        match rng.bounded(13) {
            0 => IrOp::IConst { rd: a, value: 1 },
            1 => IrOp::Alu {
                op: AluOp::Add,
                rd: a,
                ra: b,
                rb: c,
            },
            2 => IrOp::AluImm {
                op: AluOp::Add,
                rd: a,
                ra: b,
                imm: 1,
            },
            3 => IrOp::Copy { rd: a, ra: b },
            4 => IrOp::FConst { fd: a, value: 1.0 },
            5 => IrOp::Fpu {
                op: smarq_guest::FpuOp::Add,
                fd: a,
                fa: b,
                fb: c,
            },
            6 => IrOp::FCopy { fd: a, fa: b },
            7 => IrOp::ItoF { fd: a, ra: b },
            8 => IrOp::FtoI { rd: a, fa: b },
            9 => IrOp::Ld {
                rd: a,
                base: b,
                disp: 0,
            },
            10 => IrOp::St {
                rs: a,
                base: b,
                disp: 0,
            },
            11 => IrOp::FSt {
                fs: a,
                base: b,
                disp: 8,
            },
            _ => IrOp::Exit {
                exit_id: 0,
                cond: Some((CmpOp::Lt, a, b)),
            },
        }
    }

    #[test]
    fn backward_pass_matches_the_fixpoint() {
        let mut dead = 0;
        for seed in 0..500 {
            let mut rng = smarq::prng::Prng::new(seed);
            let len = rng.range_usize(1, 40);
            let sb = mk_sb((0..len).map(|_| random_op(&mut rng)).collect(), 1);
            let mut before = fresh(&sb);
            // Earlier eliminations: removed stores and loads replaced by
            // copies.
            for (i, op) in sb.ops.iter().enumerate() {
                match *op {
                    IrOp::St { .. } if rng.chance(1, 4) => before.removed[i] = true,
                    IrOp::Ld { rd, .. } if rng.chance(1, 4) => {
                        before.replaced[i] = Some(IrOp::Copy {
                            rd,
                            ra: rng.bounded(4) as u8,
                        })
                    }
                    _ => {}
                }
            }
            let (mut pass, mut fixpoint) = (before.clone(), before.clone());
            dce(&sb, &mut pass);
            dce_fixpoint(&sb, &mut fixpoint);
            assert_eq!(pass.removed, fixpoint.removed, "seed {seed}: {:?}", sb.ops);
            dead += pass
                .removed
                .iter()
                .zip(&before.removed)
                .filter(|(a, b)| a != b)
                .count();
        }
        assert!(
            dead > 500,
            "the random blocks must exercise removal: {dead}"
        );
    }
}

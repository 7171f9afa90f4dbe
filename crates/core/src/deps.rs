//! Memory dependence computation — the paper's `DEPENDENCE` and
//! `EXTENDED-DEPENDENCE 1/2` rules (§4.1).
//!
//! A dependence `X →dep Y` is the raw material from which check- and
//! anti-constraints are derived once the schedule is known:
//!
//! * **`DEPENDENCE`**: `X →dep Y` when `X` precedes `Y` in original order,
//!   they may access the same memory, and at least one is a store.
//! * **`EXTENDED-DEPENDENCE 1`** (load elimination): when load `Z` is
//!   eliminated by forwarding from an earlier op `X`, every *store* `Y`
//!   between `X` and `Z` that may alias `X` gets a *backward* dependence
//!   `Y →dep X` — so the alias between `Y` and the (now invisible) load is
//!   detected through `X`'s alias register even if nothing is reordered.
//!   (The paper's text prints "loads Y" here, but its own example —
//!   Figures 5/8/10, where the stores check the forwarding load — shows the
//!   intent is intervening *stores*; an intervening aliasing load cannot
//!   break the forwarding. See DESIGN.md "OCR resolutions".)
//! * **`EXTENDED-DEPENDENCE 2`** (store elimination): when store `X` is
//!   eliminated because the later store `Z` overwrites it, every *load* `Y`
//!   between `X` and `Z` that may alias `Z` gets a backward dependence
//!   `Z →dep Y`. Aliasing *stores* between `X` and `Z` are deliberately
//!   exempt — they do not affect the elimination's correctness.

use crate::ids::MemOpId;
use crate::region::{RegionSpec, SealedRegion};

/// Which rule produced a dependence.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// The plain `DEPENDENCE` rule (forward, program order).
    Plain,
    /// `EXTENDED-DEPENDENCE 1` — load elimination (backward).
    ExtendedLoadElim,
    /// `EXTENDED-DEPENDENCE 2` — store elimination (backward).
    ExtendedStoreElim,
}

/// A dependence edge `src →dep dst`.
///
/// `src` is the operation written on the left of the paper's `X →dep Y`
/// notation. For plain dependences `src` precedes `dst` in original order;
/// for extended dependences the direction is backward.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Dep {
    /// Dependence source (`X` in `X →dep Y`).
    pub src: MemOpId,
    /// Dependence target (`Y` in `X →dep Y`).
    pub dst: MemOpId,
    /// Producing rule.
    pub kind: DepKind,
}

/// All dependences of a region, indexed for the allocator's access pattern:
/// "when scheduling `Y`, walk every `X →dep Y`".
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Sorted by `(src, dst)`, one dependence per pair.
    deps: Vec<Dep>,
    /// `deps[from[x]..from[x + 1]]` are the dependences with `src == x`
    /// (`n + 1` offsets, a CSR row index).
    from: Vec<u32>,
    /// `into_deps[into[y]..into[y + 1]]` are the indices into `deps` with
    /// `dst == y`, in `deps` order (a counting sort by `dst`).
    into: Vec<u32>,
    into_deps: Vec<u32>,
}

impl DepGraph {
    /// Computes all plain and extended dependences for `region`.
    ///
    /// Eliminated operations take no part in dependences themselves — they
    /// are absent from the optimized code — but their eliminations induce
    /// the extended dependences described in the module docs.
    ///
    /// Seals the region (see [`SealedRegion`]) and runs the
    /// output-sensitive enumeration: instead of testing all n² pairs
    /// against the `HashMap`-backed relation, candidate pairs are drawn
    /// from the `loc_class` buckets plus the explicit override list — the
    /// only places aliasing pairs can come from. [`DepGraph::compute_naive`]
    /// is the retained all-pairs reference; the two produce identical
    /// graphs (enforced by differential tests).
    pub fn compute(region: &RegionSpec) -> Self {
        Self::compute_sealed(&region.sealed())
    }

    /// [`DepGraph::compute`] on an already-sealed region view (callers that
    /// keep the sealed view around avoid re-sealing).
    pub fn compute_sealed(sealed: &SealedRegion<'_>) -> Self {
        let region = sealed.spec();
        let n = region.len();
        let mut deps = Vec::new();
        let live = |id: MemOpId| !sealed.is_eliminated(id);

        // DEPENDENCE: forward, program order, may-alias, at least one
        // store. Candidate pairs: same-`loc_class` pairs (aliasing by
        // default; the bit-matrix probe rejects overridden-false ones) plus
        // cross-class pairs forced aliasing by an override.
        let inject_drop = crate::fault::drop_plain_deps_enabled();
        let mut plain = |i: u32, j: u32| {
            debug_assert!(i < j);
            if inject_drop && crate::fault::drops_pair(i, j) {
                return;
            }
            let (x, y) = (MemOpId::new(i as usize), MemOpId::new(j as usize));
            if !live(x) || !live(y) {
                return;
            }
            let (kx, ky) = (region.op(x).kind, region.op(y).kind);
            if (kx.is_store() || ky.is_store()) && sealed.may_alias(x, y) {
                deps.push(Dep {
                    src: x,
                    dst: y,
                    kind: DepKind::Plain,
                });
            }
        };
        for bucket in sealed.class_buckets() {
            for (k, &i) in bucket.iter().enumerate() {
                for &j in &bucket[k + 1..] {
                    plain(i, j);
                }
            }
        }
        for &(lo, hi, may) in sealed.overrides() {
            let cross_class = region.op(MemOpId::new(lo as usize)).loc_class
                != region.op(MemOpId::new(hi as usize)).loc_class;
            if may && cross_class {
                plain(lo, hi);
            }
        }

        // NOSPEC-DEPENDENCE: an unspeculatable op keeps program order
        // against every other live memory op (at least one of the pair a
        // store), even when the pair is provably disjoint — speculation
        // across the configured address ranges is never scheduled. These
        // candidate pairs are enumerated separately because disjoint
        // cross-class pairs never appear in the bucket/override scans;
        // duplicates of plain edges are folded by `index`. The edges are
        // deliberately exempt from the drop-deps fault injection.
        for &i in sealed.nospec_ops() {
            let x = MemOpId::new(i as usize);
            if !live(x) {
                continue;
            }
            for j in 0..n as u32 {
                if j == i {
                    continue;
                }
                let y = MemOpId::new(j as usize);
                if !live(y) {
                    continue;
                }
                let (kx, ky) = (region.op(x).kind, region.op(y).kind);
                if !(kx.is_store() || ky.is_store()) {
                    continue;
                }
                let (src, dst) = if i < j { (x, y) } else { (y, x) };
                deps.push(Dep {
                    src,
                    dst,
                    kind: DepKind::Plain,
                });
            }
        }

        // EXTENDED-DEPENDENCE 1: load Z eliminated, forwarded from X.
        // For every *store* Y strictly between X and Z (original order) that
        // may alias X: add Y ->dep X.
        for le in region.load_elims() {
            let (x, z) = (le.source, le.eliminated);
            for j in (x.index() + 1)..z.index() {
                let y = MemOpId::new(j);
                if !live(y) {
                    continue;
                }
                if region.op(y).kind.is_store() && sealed.may_alias(y, x) {
                    deps.push(Dep {
                        src: y,
                        dst: x,
                        kind: DepKind::ExtendedLoadElim,
                    });
                }
            }
        }

        // EXTENDED-DEPENDENCE 2: store X eliminated, overwritten by Z.
        // For every *load* Y strictly between X and Z that may alias Z:
        // add Z ->dep Y.
        for se in region.store_elims() {
            let (x, z) = (se.eliminated, se.overwriter);
            for j in (x.index() + 1)..z.index() {
                let y = MemOpId::new(j);
                if !live(y) {
                    continue;
                }
                if region.op(y).kind.is_load() && sealed.may_alias(z, y) {
                    deps.push(Dep {
                        src: z,
                        dst: y,
                        kind: DepKind::ExtendedStoreElim,
                    });
                }
            }
        }

        Self::index(n, deps)
    }

    /// The retained all-pairs reference implementation of
    /// [`DepGraph::compute`]: O(n²) pair enumeration against the spec's
    /// `HashMap`-backed relation and linear-scan elimination checks. Kept
    /// as the oracle for differential tests and the benchmark baseline;
    /// produces a graph identical to the fast path.
    pub fn compute_naive(region: &RegionSpec) -> Self {
        let n = region.len();
        let mut deps = Vec::new();
        let live = |id: MemOpId| !region.is_eliminated(id);

        // DEPENDENCE: forward, program order, may-alias (or either op
        // unspeculatable — NOSPEC-DEPENDENCE), at least one store.
        for i in 0..n {
            let x = MemOpId::new(i);
            if !live(x) {
                continue;
            }
            for j in (i + 1)..n {
                let y = MemOpId::new(j);
                if !live(y) {
                    continue;
                }
                let (kx, ky) = (region.op(x).kind, region.op(y).kind);
                let ordered = region.may_alias(x, y) || region.is_nospec(x) || region.is_nospec(y);
                if (kx.is_store() || ky.is_store()) && ordered {
                    deps.push(Dep {
                        src: x,
                        dst: y,
                        kind: DepKind::Plain,
                    });
                }
            }
        }

        // EXTENDED-DEPENDENCE 1: load Z eliminated, forwarded from X.
        // For every *store* Y strictly between X and Z (original order) that
        // may alias X: add Y ->dep X.
        for le in region.load_elims() {
            let (x, z) = (le.source, le.eliminated);
            for j in (x.index() + 1)..z.index() {
                let y = MemOpId::new(j);
                if !live(y) {
                    continue;
                }
                if region.op(y).kind.is_store() && region.may_alias(y, x) {
                    deps.push(Dep {
                        src: y,
                        dst: x,
                        kind: DepKind::ExtendedLoadElim,
                    });
                }
            }
        }

        // EXTENDED-DEPENDENCE 2: store X eliminated, overwritten by Z.
        // For every *load* Y strictly between X and Z that may alias Z:
        // add Z ->dep Y.
        for se in region.store_elims() {
            let (x, z) = (se.eliminated, se.overwriter);
            for j in (x.index() + 1)..z.index() {
                let y = MemOpId::new(j);
                if !live(y) {
                    continue;
                }
                if region.op(y).kind.is_load() && region.may_alias(z, y) {
                    deps.push(Dep {
                        src: z,
                        dst: y,
                        kind: DepKind::ExtendedStoreElim,
                    });
                }
            }
        }

        Self::index(n, deps)
    }

    /// Shared tail of both computations: canonical sort, deduplication (a
    /// pair may be produced by several elimination records; `Plain` wins
    /// over extended kinds because it sorts first), and per-op indexing.
    fn index(n: usize, mut deps: Vec<Dep>) -> Self {
        deps.sort_by_key(|d| (d.src, d.dst, d.kind as u8));
        deps.dedup_by_key(|d| (d.src, d.dst));

        // Row offsets by counting: `from` over `deps` directly, `into`
        // over a stable counting sort of the dependence indices.
        let mut from = vec![0u32; n + 1];
        let mut into = vec![0u32; n + 1];
        for d in &deps {
            from[d.src.index() + 1] += 1;
            into[d.dst.index() + 1] += 1;
        }
        for i in 0..n {
            from[i + 1] += from[i];
            into[i + 1] += into[i];
        }
        let mut next = into.clone();
        let mut into_deps = vec![0u32; deps.len()];
        for (i, d) in deps.iter().enumerate() {
            let slot = &mut next[d.dst.index()];
            into_deps[*slot as usize] = i as u32;
            *slot += 1;
        }
        DepGraph {
            deps,
            from,
            into,
            into_deps,
        }
    }

    /// All dependences.
    pub fn iter(&self) -> impl Iterator<Item = Dep> + '_ {
        self.deps.iter().copied()
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// `true` when there are no dependences.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Dependences `X →dep y` ending at `y` (the allocator walks these when
    /// the list scheduler schedules `y`).
    pub fn deps_into(&self, y: MemOpId) -> impl Iterator<Item = Dep> + '_ {
        let (lo, hi) = (self.into[y.index()], self.into[y.index() + 1]);
        self.into_deps[lo as usize..hi as usize]
            .iter()
            .map(move |&i| self.deps[i as usize])
    }

    /// Dependences `x →dep Y` starting at `x`.
    pub fn deps_from(&self, x: MemOpId) -> impl Iterator<Item = Dep> + '_ {
        let (lo, hi) = (self.from[x.index()], self.from[x.index() + 1]);
        self.deps[lo as usize..hi as usize].iter().copied()
    }

    /// `true` if `src →dep dst` exists.
    pub fn has_dep(&self, src: MemOpId, dst: MemOpId) -> bool {
        self.deps_from(src).any(|d| d.dst == dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::MemKind;

    /// Paper Figure 2 / Figure 4: M0 st, M1 ld, M2 st, M3 ld.
    /// Aliasing: M1↔M2 may alias, M3↔{M0, M2} may alias;
    /// the compiler disambiguates M0↔M2 (same base, disjoint offsets).
    fn figure2_region() -> (RegionSpec, [MemOpId; 4]) {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 2);
        let m3 = r.push(MemKind::Load, 3);
        r.set_may_alias(m1, m2, true);
        r.set_may_alias(m3, m0, true);
        r.set_may_alias(m3, m2, true);
        (r, [m0, m1, m2, m3])
    }

    #[test]
    fn plain_dependences_follow_program_order() {
        let (r, [m0, m1, m2, m3]) = figure2_region();
        let deps = DepGraph::compute(&r);
        assert!(deps.has_dep(m1, m2));
        assert!(deps.has_dep(m0, m3));
        assert!(deps.has_dep(m2, m3));
        // No store-store dep: compiler disambiguated M0/M2.
        assert!(!deps.has_dep(m0, m2));
        // Never backward for plain deps.
        assert!(!deps.has_dep(m2, m1));
        assert_eq!(deps.len(), 3);
    }

    #[test]
    fn load_load_pairs_never_depend() {
        let mut r = RegionSpec::new();
        let a = r.push(MemKind::Load, 0);
        let b = r.push(MemKind::Load, 0); // same loc class => may alias
        let deps = DepGraph::compute(&r);
        assert!(!deps.has_dep(a, b));
        assert!(deps.is_empty());
    }

    #[test]
    fn nospec_ops_depend_despite_disjoint_aliasing() {
        // st A, ld B with A/B provably disjoint: normally no dependence,
        // but marking either op unspeculatable forces one. Both compute
        // paths must agree (the sealed path enumerates nospec pairs
        // separately from the bucket/override scans).
        let mut r = RegionSpec::new();
        let s = r.push(MemKind::Store, 0);
        let l = r.push(MemKind::Load, 1);
        assert!(DepGraph::compute(&r).is_empty());
        r.set_nospec(l);
        let fast = DepGraph::compute(&r);
        let naive = DepGraph::compute_naive(&r);
        assert!(fast.has_dep(s, l));
        assert!(naive.has_dep(s, l));
        assert_eq!(fast.len(), 1);
        assert_eq!(naive.len(), 1);
        // Load-load pairs still never depend, nospec or not.
        let mut r2 = RegionSpec::new();
        let a = r2.push(MemKind::Load, 0);
        let b = r2.push(MemKind::Load, 1);
        r2.set_nospec(a);
        r2.set_nospec(b);
        assert!(DepGraph::compute(&r2).is_empty());
        assert!(DepGraph::compute_naive(&r2).is_empty());
        // Eliminated nospec ops take no part.
        let mut r3 = RegionSpec::new();
        let src = r3.push(MemKind::Store, 0);
        let z = r3.push(MemKind::Load, 0);
        let other = r3.push(MemKind::Load, 1);
        r3.set_nospec(z);
        r3.add_load_elim(src, z);
        let d3 = DepGraph::compute(&r3);
        assert!(!d3.has_dep(src, z) && !d3.has_dep(z, other));
        assert_eq!(
            DepGraph::compute_naive(&r3)
                .iter()
                .collect::<Vec<_>>()
                .len(),
            d3.len()
        );
    }

    /// Paper Figure 5: M1 ld [r1], M2 ld [r0+4], M3 st [r0], M4 st [r1],
    /// M5 ld [r0+4] eliminated by forwarding from M2.
    /// M3 may alias M2/M5 ([r0] vs [r0+4] conservatively may-alias in the
    /// paper's example); M4 may alias M1.
    fn figure5_region() -> (RegionSpec, [MemOpId; 5]) {
        let mut r = RegionSpec::new();
        let m1 = r.push(MemKind::Load, 1); // [r1]
        let m2 = r.push(MemKind::Load, 2); // [r0+4]
        let m3 = r.push(MemKind::Store, 3); // [r0]
        let m4 = r.push(MemKind::Store, 4); // [r1]
        let m5 = r.push(MemKind::Load, 2); // [r0+4] == m2's location
        r.set_may_alias(m3, m2, true);
        r.set_may_alias(m3, m5, true);
        r.set_may_alias(m4, m1, true);
        r.add_load_elim(m2, m5);
        (r, [m1, m2, m3, m4, m5])
    }

    #[test]
    fn extended_dep_1_adds_backward_store_edges() {
        let (r, [m1, m2, m3, m4, _m5]) = figure5_region();
        let deps = DepGraph::compute(&r);
        // Plain: m3 ->dep m5 would exist but m5 is eliminated; m4 ->dep m1? m1
        // precedes m4 so dep is m1 ->dep m4.
        assert!(deps.has_dep(m1, m4));
        assert!(deps.has_dep(m2, m3)); // plain ld-then-st may-alias
                                       // Extended: store m3 (between m2 and m5, may-alias m2) gets m3 ->dep m2.
        let ext: Vec<_> = deps
            .iter()
            .filter(|d| d.kind == DepKind::ExtendedLoadElim)
            .collect();
        assert_eq!(ext.len(), 1);
        assert_eq!((ext[0].src, ext[0].dst), (m3, m2));
        // m4 does not alias m2, so no extended edge from m4.
        assert!(!deps.has_dep(m4, m2));
    }

    #[test]
    fn extended_dep_1_skips_intervening_loads() {
        // st A; ld A; ld A(eliminated, forwarded from the store)
        let mut r = RegionSpec::new();
        let s = r.push(MemKind::Store, 0);
        let mid = r.push(MemKind::Load, 0);
        let z = r.push(MemKind::Load, 0);
        r.add_load_elim(s, z);
        let deps = DepGraph::compute(&r);
        // The intervening *load* `mid` creates no extended dep onto `s`
        // (only its plain dep s ->dep mid exists).
        assert!(deps.has_dep(s, mid));
        assert!(!deps
            .iter()
            .any(|d| d.kind == DepKind::ExtendedLoadElim && d.src == mid));
    }

    /// Paper Figure 9: store elimination. M0 st [r0+4] eliminated because
    /// M4 st [r0+4]... we model: M0 st A (eliminated), M1 ld B, M2 st C,
    /// M3 st A (overwriter), with B may-alias A.
    #[test]
    fn extended_dep_2_adds_backward_load_edges_only() {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 2);
        let m3 = r.push(MemKind::Store, 0);
        r.set_may_alias(m1, m0, true);
        r.set_may_alias(m1, m3, true);
        r.set_may_alias(m2, m0, true);
        r.set_may_alias(m2, m3, true);
        r.add_store_elim(m0, m3);
        let deps = DepGraph::compute(&r);
        let ext: Vec<_> = deps
            .iter()
            .filter(|d| d.kind == DepKind::ExtendedStoreElim)
            .collect();
        // Only the load m1 gets Z ->dep Y; the store m2 is exempt.
        assert_eq!(ext.len(), 1);
        assert_eq!((ext[0].src, ext[0].dst), (m3, m1));
        assert!(!deps.has_dep(m3, m2));
    }

    #[test]
    fn eliminated_ops_take_no_part_in_plain_deps() {
        let (r, [_m1, _m2, m3, _m4, m5]) = figure5_region();
        let deps = DepGraph::compute(&r);
        // m3 ->dep m5 (st then aliasing ld) must NOT exist: m5 is gone.
        assert!(!deps.has_dep(m3, m5));
        assert!(deps.deps_into(m5).next().is_none());
        assert!(deps.deps_from(m5).next().is_none());
    }

    #[test]
    fn duplicate_pairs_are_deduplicated() {
        // Two load elims with the same source produce the same extended edge.
        let mut r = RegionSpec::new();
        let x = r.push(MemKind::Load, 0);
        let y = r.push(MemKind::Store, 0);
        let z1 = r.push(MemKind::Load, 0);
        let z2 = r.push(MemKind::Load, 0);
        r.add_load_elim(x, z1);
        r.add_load_elim(x, z2);
        let deps = DepGraph::compute(&r);
        let count = deps.iter().filter(|d| d.src == y && d.dst == x).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn both_directions_can_coexist_via_extension() {
        // Paper §4.1: "there are both dependence M1 ->dep M3 and extended
        // dependence M3 ->dep M1" — a pair connected in both directions.
        let (r, [_m1, m2, m3, _m4, _m5]) = figure5_region();
        let deps = DepGraph::compute(&r);
        assert!(deps.has_dep(m2, m3));
        assert!(deps.has_dep(m3, m2));
    }
}

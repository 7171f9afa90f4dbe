//! Independent re-derivation of the paper's §4 dependence and constraint
//! sets — the validator's *facts* about a region.
//!
//! This is deliberately a from-first-principles second implementation. It
//! shares **no derivation code** with `smarq::deps` or `smarq::constraints`:
//! where the production path enumerates candidate pairs from sealed
//! location-class buckets and stores edge lists plus hash sets, this module
//! walks every pair with plain loops against the spec's public `may_alias`
//! relation and stores dense `n × n` boolean matrices. The two
//! implementations must agree on every region the optimizer ever forms;
//! divergence in either direction is a bug in one of them, which is exactly
//! the point of keeping both.
//!
//! The rules implemented, straight from the paper:
//!
//! * **DEPENDENCE** — `X →dep Y` when `X` precedes `Y` in original order,
//!   both survive elimination, they may alias, and at least one is a store.
//! * **NOSPEC-DEPENDENCE** — when either op is marked *unspeculatable*
//!   (its address can touch a configured nospec range), the pair is a
//!   dependence regardless of the alias relation, as long as one is a
//!   store: tainted accesses keep exact program order.
//! * **EXTENDED-DEPENDENCE 1** — load `Z` eliminated by forwarding from
//!   `X`: every surviving *store* `Y` strictly between `X` and `Z` that may
//!   alias `X` gets `Y →dep X` (the forwarding source's register stands in
//!   for the invisible load).
//! * **EXTENDED-DEPENDENCE 2** — store `X` eliminated because `Z`
//!   overwrites it: every surviving *load* `Y` strictly between that may
//!   alias `Z` gets `Z →dep Y`.
//! * **CHECK-CONSTRAINT** — `X →check Y` for every `X →dep Y` where the
//!   schedule moved `Y` above `X`; `X` gains the `C` requirement, `Y` the
//!   `P` requirement.
//! * **ANTI-CONSTRAINT** — `X →anti Y` for every `X →dep Y` kept in
//!   original order where `Y` is not already required to check `X`, `X`
//!   must produce and `Y` must check: `X`'s register must leave `Y`'s scan
//!   window before `Y` executes, or a genuine runtime alias raises a false
//!   positive exception.

use smarq::{MemOpId, RegionSpec};

/// The required protection sets for one region under one schedule,
/// independently derived. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct RegionFacts {
    n: usize,
    /// `dep[x * n + y]` ⇔ `X →dep Y`.
    dep: Vec<bool>,
    /// `check[x * n + y]` ⇔ `X →check Y` (`X` must examine `Y`'s register).
    check: Vec<bool>,
    /// `anti[x * n + y]` ⇔ `X →anti Y`.
    anti: Vec<bool>,
    /// Op must set an alias register (`P`).
    p_req: Vec<bool>,
    /// Op must check alias registers (`C`).
    c_req: Vec<bool>,
    /// Position of each surviving op in the schedule.
    pos: Vec<Option<usize>>,
}

impl RegionFacts {
    /// Derives all facts for `region` under `schedule`.
    pub fn derive(region: &RegionSpec, schedule: &[MemOpId]) -> Self {
        let n = region.len();
        let mut f = RegionFacts {
            n,
            dep: vec![false; n * n],
            check: vec![false; n * n],
            anti: vec![false; n * n],
            p_req: vec![false; n],
            c_req: vec![false; n],
            pos: vec![None; n],
        };
        // Survivors and unspeculatable ops, read once off the spec's
        // records rather than probed per pair.
        let mut survives = vec![true; n];
        for le in region.load_elims() {
            survives[le.eliminated.index()] = false;
        }
        for se in region.store_elims() {
            survives[se.eliminated.index()] = false;
        }
        let live = |i: usize| survives[i];
        let nospec: Vec<bool> = (0..n).map(|i| region.is_nospec(MemOpId::new(i))).collect();

        // DEPENDENCE: all-pairs walk, original order.
        for i in 0..n {
            if !live(i) {
                continue;
            }
            for j in (i + 1)..n {
                if !live(j) {
                    continue;
                }
                let (x, y) = (MemOpId::new(i), MemOpId::new(j));
                let a_store = region.op(x).kind.is_store();
                let b_store = region.op(y).kind.is_store();
                let ordered = region.may_alias(x, y) || nospec[i] || nospec[j];
                if (a_store || b_store) && ordered {
                    f.dep[i * n + j] = true;
                }
            }
        }

        // EXTENDED-DEPENDENCE 1: backward Y ->dep X per load elimination.
        for le in region.load_elims() {
            let (src, elim) = (le.source.index(), le.eliminated.index());
            for y in (src + 1)..elim {
                if live(y)
                    && region.op(MemOpId::new(y)).kind.is_store()
                    && region.may_alias(MemOpId::new(y), le.source)
                {
                    f.dep[y * n + src] = true;
                }
            }
        }

        // EXTENDED-DEPENDENCE 2: backward Z ->dep Y per store elimination.
        for se in region.store_elims() {
            let (elim, over) = (se.eliminated.index(), se.overwriter.index());
            for y in (elim + 1)..over {
                if live(y)
                    && region.op(MemOpId::new(y)).kind.is_load()
                    && region.may_alias(se.overwriter, MemOpId::new(y))
                {
                    f.dep[over * n + y] = true;
                }
            }
        }

        for (k, &op) in schedule.iter().enumerate() {
            f.pos[op.index()] = Some(k);
        }

        // CHECK-CONSTRAINT pass: needs only deps + schedule positions.
        for x in 0..n {
            for y in 0..n {
                if !f.dep[x * n + y] {
                    continue;
                }
                if let (Some(px), Some(py)) = (f.pos[x], f.pos[y]) {
                    if py < px {
                        f.check[x * n + y] = true;
                        f.c_req[x] = true;
                        f.p_req[y] = true;
                    }
                }
            }
        }

        // ANTI-CONSTRAINT pass: needs the *final* P/C requirement bits, so
        // it runs strictly after the check pass.
        for x in 0..n {
            for y in 0..n {
                if !f.dep[x * n + y] {
                    continue;
                }
                if let (Some(px), Some(py)) = (f.pos[x], f.pos[y]) {
                    if px < py && !f.check[y * n + x] && f.p_req[x] && f.c_req[y] {
                        f.anti[x * n + y] = true;
                    }
                }
            }
        }
        f
    }

    /// Number of ops in the region.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the region has no ops.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `X →dep Y`?
    pub fn has_dep(&self, x: MemOpId, y: MemOpId) -> bool {
        self.dep[x.index() * self.n + y.index()]
    }

    /// Is `checker →check checkee` required?
    pub fn is_required_check(&self, checker: MemOpId, checkee: MemOpId) -> bool {
        self.check[checker.index() * self.n + checkee.index()]
    }

    /// Is `X →anti Y` required?
    pub fn has_anti(&self, x: MemOpId, y: MemOpId) -> bool {
        self.anti[x.index() * self.n + y.index()]
    }

    /// Must `op` set an alias register?
    pub fn requires_p(&self, op: MemOpId) -> bool {
        self.p_req[op.index()]
    }

    /// Must `op` check alias registers?
    pub fn requires_c(&self, op: MemOpId) -> bool {
        self.c_req[op.index()]
    }

    /// Schedule position of `op`, if it was scheduled.
    pub fn position(&self, op: MemOpId) -> Option<usize> {
        self.pos[op.index()]
    }

    /// All required checks `(checker, checkee)`.
    pub fn required_checks(&self) -> impl Iterator<Item = (MemOpId, MemOpId)> + '_ {
        pairs(&self.check, self.n)
    }

    /// All required anti-constraints `(producer, checker)`.
    pub fn anti_constraints(&self) -> impl Iterator<Item = (MemOpId, MemOpId)> + '_ {
        pairs(&self.anti, self.n)
    }

    /// `(checks, antis)` counts.
    pub fn counts(&self) -> (usize, usize) {
        (
            self.check.iter().filter(|&&b| b).count(),
            self.anti.iter().filter(|&&b| b).count(),
        )
    }
}

fn pairs(matrix: &[bool], n: usize) -> impl Iterator<Item = (MemOpId, MemOpId)> + '_ {
    matrix
        .iter()
        .enumerate()
        .filter(|&(_, &set)| set)
        .map(move |(idx, _)| (MemOpId::new(idx / n), MemOpId::new(idx % n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq::MemKind;

    /// Paper Figure 2: two hoisted loads, two stores checking them.
    fn figure2() -> (RegionSpec, Vec<MemOpId>) {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 2);
        let m3 = r.push(MemKind::Load, 3);
        r.set_may_alias(m1, m2, true);
        r.set_may_alias(m3, m0, true);
        r.set_may_alias(m3, m2, true);
        (r, vec![m3, m1, m2, m0])
    }

    #[test]
    fn figure2_checks_match_paper() {
        let (r, sched) = figure2();
        let f = RegionFacts::derive(&r, &sched);
        let (m0, m1, m2, m3) = (
            MemOpId::new(0),
            MemOpId::new(1),
            MemOpId::new(2),
            MemOpId::new(3),
        );
        assert!(f.is_required_check(m2, m3));
        assert!(f.is_required_check(m0, m3));
        assert!(
            !f.is_required_check(m2, m1),
            "m1 stays above m2: no reordering, no check"
        );
        assert!(!f.is_required_check(m3, m2));
        assert_eq!(f.counts(), (2, 0), "figure 2: two checks, no antis");
        assert!(f.requires_p(m3) && !f.requires_p(m1));
        assert!(f.requires_c(m0) && f.requires_c(m2));
    }

    #[test]
    fn anti_appears_when_checker_follows_producer() {
        // The validate.rs anti fixture: l hoisted above s0, s1 checks l2;
        // l ->dep s1 stays in order, so l ->anti s1 is required.
        let mut r = RegionSpec::new();
        let s0 = r.push(MemKind::Store, 9);
        let l = r.push(MemKind::Load, 1);
        let s1 = r.push(MemKind::Store, 2);
        let l2 = r.push(MemKind::Load, 3);
        r.set_may_alias(s0, l, true);
        r.set_may_alias(s1, l2, true);
        r.set_may_alias(l, s1, true);
        let f = RegionFacts::derive(&r, &[l, l2, s0, s1]);
        assert!(f.is_required_check(s0, l));
        assert!(f.is_required_check(s1, l2));
        assert!(f.has_anti(l, s1));
        assert_eq!(f.counts(), (2, 1));
    }

    #[test]
    fn load_elim_extends_protection_to_forwarding_source() {
        // Paper Figure 5 shape: m2's load is eliminated (forwarded from
        // m0); the intervening store m1 must check the forwarding source.
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Load, 0);
        let m1 = r.push(MemKind::Store, 1);
        let m2 = r.push(MemKind::Load, 0);
        r.set_may_alias(m1, m0, true);
        r.set_may_alias(m1, m2, true);
        r.add_load_elim(m0, m2);
        let f = RegionFacts::derive(&r, &[m0, m1]);
        assert!(f.has_dep(m1, m0), "extended dep M1 ->dep M0");
        assert!(
            f.is_required_check(m1, m0),
            "store must check the forwarding source"
        );
    }

    #[test]
    fn store_elim_extends_protection_to_overwriter() {
        // Store m0 eliminated (overwritten by m2); the intervening load m1
        // aliasing m2 gets the backward dep m2 ->dep m1 — so even with no
        // reordering at all the overwriter must check the load (the
        // eliminated store's effect logically moved down to m2).
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 0);
        r.set_may_alias(m2, m1, true);
        r.set_may_alias(m0, m1, false);
        r.add_store_elim(m0, m2);
        let f = RegionFacts::derive(&r, &[m1, m2]);
        assert!(f.has_dep(m2, m1), "extended dep M2 ->dep M1");
        assert!(
            f.is_required_check(m2, m1),
            "overwriter checks the intervening load even in original order"
        );
        // Scheduling the overwriter above the load flips the protection:
        // the extended dep is satisfied by order, but the plain dep
        // m1 ->dep m2 is now reordered, so the load checks the store.
        let f2 = RegionFacts::derive(&r, &[m2, m1]);
        assert!(!f2.is_required_check(m2, m1));
        assert!(f2.is_required_check(m1, m2));
        assert_eq!(f2.counts(), (1, 0));
    }

    #[test]
    fn eliminated_ops_take_no_part_in_plain_deps() {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 0);
        let m2 = r.push(MemKind::Load, 0);
        r.add_load_elim(m1, m2);
        let f = RegionFacts::derive(&r, &[m1, m0]);
        assert!(!f.has_dep(m0, m2), "eliminated op has no plain dep");
        assert!(f.has_dep(m0, m1));
        assert!(f.is_required_check(m0, m1));
    }
}

//! Independent re-derivation of the paper's §4 dependence and constraint
//! sets — the validator's *facts* about a region.
//!
//! This is deliberately a from-first-principles second implementation. It
//! shares **no derivation code** with `smarq::deps` or `smarq::constraints`:
//! where the production path enumerates candidate pairs from sealed
//! location-class buckets and stores edge lists plus hash sets, this module
//! reads the spec's stored alias relation (its `loc_class` default plus
//! the explicit overrides) into one may-alias bit row per op and derives
//! every rule below as word-wide operations on those rows. The two
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
//!
//! The relations are kept as bit rows for membership queries, and the
//! check and anti sets also as `(x, y)` lists in row-major order, which is
//! the order every consumer reports its findings in.

use smarq::hash::FastMap;
use smarq::{MemOpId, RegionSpec};

/// An `n × n` relation over a region's ops: row `x` holds bit `y` when
/// the pair is in the relation, `⌈n / 64⌉` words per row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// The empty relation over `n` ops.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            words,
            bits: vec![0; n * words],
        }
    }

    fn row(&self, x: usize) -> &[u64] {
        &self.bits[x * self.words..(x + 1) * self.words]
    }

    fn row_mut(&mut self, x: usize) -> &mut [u64] {
        &mut self.bits[x * self.words..(x + 1) * self.words]
    }

    /// Adds `(x, y)`.
    pub(crate) fn set(&mut self, x: usize, y: usize) {
        self.bits[x * self.words + y / 64] |= 1 << (y % 64);
    }

    /// Removes `(x, y)`.
    fn clear(&mut self, x: usize, y: usize) {
        self.bits[x * self.words + y / 64] &= !(1 << (y % 64));
    }

    /// Is `(x, y)` in the relation?
    pub(crate) fn get(&self, x: usize, y: usize) -> bool {
        self.bits[x * self.words + y / 64] >> (y % 64) & 1 == 1
    }

    /// Every `(x, y)` in the relation, row-major.
    fn pairs(&self) -> Vec<(MemOpId, MemOpId)> {
        let count = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(count);
        if self.words == 0 {
            return out;
        }
        for (x, row) in self.bits.chunks_exact(self.words).enumerate() {
            for_each_one(row, |y| out.push((MemOpId::new(x), MemOpId::new(y))));
        }
        out
    }
}

/// Calls `f` with the index of each set bit of `row`, ascending.
fn for_each_one(row: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in row.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// The bits of word `w` whose op index `k` satisfies `lo <= k < hi`.
fn span(w: usize, lo: usize, hi: usize) -> u64 {
    let base = w * 64;
    let lo = lo.clamp(base, base + 64) - base;
    let hi = hi.clamp(base, base + 64) - base;
    if lo >= hi {
        return 0;
    }
    let below_hi = if hi == 64 { !0 } else { (1u64 << hi) - 1 };
    below_hi & !((1u64 << lo) - 1)
}

/// The required protection sets for one region under one schedule,
/// independently derived. See the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionFacts {
    n: usize,
    /// The spec's may-alias relation (reflexive and symmetric).
    alias: BitMatrix,
    /// `X →dep Y`.
    dep: BitMatrix,
    /// `X →check Y` (`X` must examine `Y`'s register).
    check: BitMatrix,
    /// `X →anti Y`.
    anti: BitMatrix,
    /// The pairs of `check`, row-major.
    checks: Vec<(MemOpId, MemOpId)>,
    /// The pairs of `anti`, row-major.
    antis: Vec<(MemOpId, MemOpId)>,
    /// Ops that must set an alias register (`P`), one bit per op.
    p_req: Vec<u64>,
    /// Ops that must check alias registers (`C`), one bit per op.
    c_req: Vec<u64>,
    /// Position of each surviving op in the schedule.
    pos: Vec<Option<usize>>,
}

impl RegionFacts {
    /// Derives all facts for `region` under `schedule`.
    pub fn derive(region: &RegionSpec, schedule: &[MemOpId]) -> Self {
        let n = region.len();
        let words = n.div_ceil(64);
        let bit = |i: usize| (i / 64, 1u64 << (i % 64));

        // Per-op sets, read once off the spec's records: the survivors,
        // the stores and the unspeculatable ops.
        let mut live: Vec<u64> = (0..words).map(|w| span(w, 0, n)).collect();
        for i in region
            .load_elims()
            .iter()
            .map(|le| le.eliminated)
            .chain(region.store_elims().iter().map(|se| se.eliminated))
        {
            let (w, b) = bit(i.index());
            live[w] &= !b;
        }
        let mut stores = vec![0u64; words];
        let mut nospec = vec![0u64; words];
        for (id, op) in region.iter() {
            let (w, b) = bit(id.index());
            if op.kind.is_store() {
                stores[w] |= b;
            }
            if region.has_nospec() && region.is_nospec(id) {
                nospec[w] |= b;
            }
        }
        let is = |set: &[u64], i: usize| {
            let (w, b) = bit(i);
            set[w] & b != 0
        };

        // MAY-ALIAS rows: ops of one `loc_class` alias by default, then
        // the explicit overrides win.
        let mut alias = BitMatrix::new(n);
        let mut class_of: FastMap<u32, usize> = FastMap::default();
        let mut members: Vec<Vec<u64>> = Vec::new();
        let class: Vec<usize> = region
            .iter()
            .map(|(id, op)| {
                let c = *class_of.entry(op.loc_class).or_insert_with(|| {
                    members.push(vec![0; words]);
                    members.len() - 1
                });
                let (w, b) = bit(id.index());
                members[c][w] |= b;
                c
            })
            .collect();
        for (x, &c) in class.iter().enumerate() {
            alias.row_mut(x).copy_from_slice(&members[c]);
        }
        for (a, b, may) in region.may_alias_overrides() {
            let (a, b) = (a.index(), b.index());
            if b >= n {
                continue; // names no op of this region: never consulted
            }
            if may {
                alias.set(a, b);
                alias.set(b, a);
            } else {
                alias.clear(a, b);
                alias.clear(b, a);
            }
        }

        // DEPENDENCE (and NOSPEC-DEPENDENCE): for each survivor `x`, every
        // later survivor that may alias it, or any later survivor when
        // either is unspeculatable, with at least one of the pair a store.
        let mut dep = BitMatrix::new(n);
        for x in (0..n).filter(|&x| is(&live, x)) {
            let (x_nospec, x_store) = (is(&nospec, x), is(&stores, x));
            let alias_x = alias.row(x);
            let row = dep.row_mut(x);
            for w in 0..words {
                let ordered = if x_nospec { !0 } else { alias_x[w] | nospec[w] };
                let partner = if x_store { !0 } else { stores[w] };
                row[w] = ordered & partner & live[w] & span(w, x + 1, n);
            }
        }

        // EXTENDED-DEPENDENCE 1: `Y →dep source` for every surviving store
        // `Y` strictly between the source and the eliminated load that may
        // alias the source.
        for le in region.load_elims() {
            let (src, elim) = (le.source.index(), le.eliminated.index());
            let alias_src = alias.row(src);
            let between: Vec<u64> = (0..words)
                .map(|w| alias_src[w] & live[w] & stores[w] & span(w, src + 1, elim))
                .collect();
            for_each_one(&between, |y| dep.set(y, src));
        }

        // EXTENDED-DEPENDENCE 2: `overwriter →dep Y` for every surviving
        // load `Y` strictly between the eliminated store and its
        // overwriter that may alias the overwriter.
        for se in region.store_elims() {
            let (elim, over) = (se.eliminated.index(), se.overwriter.index());
            for w in 0..words {
                let add = alias.row(over)[w] & live[w] & !stores[w] & span(w, elim + 1, over);
                dep.row_mut(over)[w] |= add;
            }
        }

        let mut pos = vec![None; n];
        for (k, &op) in schedule.iter().enumerate() {
            pos[op.index()] = Some(k);
        }
        // Each scheduled op once, at the position it was last scheduled
        // at, in schedule order.
        let order: Vec<usize> = schedule
            .iter()
            .enumerate()
            .filter(|&(k, op)| pos[op.index()] == Some(k))
            .map(|(_, op)| op.index())
            .collect();

        // CHECK-CONSTRAINT: `X →check Y` for each `X →dep Y` with `Y`
        // scheduled above `X`.
        let mut check = BitMatrix::new(n);
        let mut p_req = vec![0u64; words];
        let mut c_req = vec![0u64; words];
        let mut before = vec![0u64; words];
        for &x in &order {
            let mut any = 0;
            for w in 0..words {
                let c = dep.row(x)[w] & before[w];
                check.row_mut(x)[w] = c;
                p_req[w] |= c;
                any |= c;
            }
            let (w, b) = bit(x);
            if any != 0 {
                c_req[w] |= b;
            }
            before[w] |= b;
        }
        let checks = check.pairs();

        // ANTI-CONSTRAINT: needs the *final* P/C requirement bits, so it
        // runs strictly after the check pass. `X →anti Y` for each
        // `X →dep Y` kept in order where `X` must produce, `Y` must check
        // and `Y` is not already required to check `X`.
        let mut checked_by = BitMatrix::new(n);
        for &(x, y) in &checks {
            checked_by.set(y.index(), x.index());
        }
        let mut anti = BitMatrix::new(n);
        let mut after = vec![0u64; words];
        for &x in order.iter().rev() {
            if is(&p_req, x) {
                for w in 0..words {
                    anti.row_mut(x)[w] =
                        dep.row(x)[w] & after[w] & c_req[w] & !checked_by.row(x)[w];
                }
            }
            let (w, b) = bit(x);
            after[w] |= b;
        }
        let antis = anti.pairs();

        RegionFacts {
            n,
            alias,
            dep,
            check,
            anti,
            checks,
            antis,
            p_req,
            c_req,
            pos,
        }
    }

    /// Number of ops in the region.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the region has no ops.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// May `x` and `y` access the same memory? The spec's relation as
    /// this derivation read it: reflexive, and symmetric.
    pub fn may_alias(&self, x: MemOpId, y: MemOpId) -> bool {
        self.alias.get(x.index(), y.index())
    }

    /// `X →dep Y`?
    pub fn has_dep(&self, x: MemOpId, y: MemOpId) -> bool {
        self.dep.get(x.index(), y.index())
    }

    /// Is `checker →check checkee` required?
    pub fn is_required_check(&self, checker: MemOpId, checkee: MemOpId) -> bool {
        self.check.get(checker.index(), checkee.index())
    }

    /// Is `X →anti Y` required?
    pub fn has_anti(&self, x: MemOpId, y: MemOpId) -> bool {
        self.anti.get(x.index(), y.index())
    }

    /// Must `op` set an alias register?
    pub fn requires_p(&self, op: MemOpId) -> bool {
        self.p_req[op.index() / 64] >> (op.index() % 64) & 1 == 1
    }

    /// Must `op` check alias registers?
    pub fn requires_c(&self, op: MemOpId) -> bool {
        self.c_req[op.index() / 64] >> (op.index() % 64) & 1 == 1
    }

    /// Schedule position of `op`, if it was scheduled.
    pub fn position(&self, op: MemOpId) -> Option<usize> {
        self.pos[op.index()]
    }

    /// All required checks `(checker, checkee)`, row-major.
    pub fn required_checks(&self) -> impl Iterator<Item = (MemOpId, MemOpId)> + '_ {
        self.checks.iter().copied()
    }

    /// All required anti-constraints `(producer, checker)`, row-major.
    pub fn anti_constraints(&self) -> impl Iterator<Item = (MemOpId, MemOpId)> + '_ {
        self.antis.iter().copied()
    }

    /// `(checks, antis)` counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.checks.len(), self.antis.len())
    }
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

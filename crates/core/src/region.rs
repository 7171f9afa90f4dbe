//! The allocator's view of an optimization region.
//!
//! SMARQ operates inside *superblock* regions formed by the dynamic
//! optimizer. For alias-register purposes the only information that matters
//! about a region is:
//!
//! * the memory operations, in **original program execution order**;
//! * which pairs **may alias** (the optimizer's — deliberately simple —
//!   alias analysis result);
//! * which speculative **load/store eliminations** were applied, since those
//!   create the paper's *extended dependences*.
//!
//! Everything else (non-memory instructions, values, addressing modes) is
//! irrelevant here and stays in the front-end IR crate.

use crate::csr::group_by_key;
use crate::hash::{FastMap, FastSet};
use crate::ids::MemOpId;
use std::fmt;

/// Whether a memory operation reads or writes memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemKind {
    /// A memory read.
    Load,
    /// A memory write.
    Store,
}

impl MemKind {
    /// `true` for [`MemKind::Store`].
    pub fn is_store(self) -> bool {
        matches!(self, MemKind::Store)
    }

    /// `true` for [`MemKind::Load`].
    pub fn is_load(self) -> bool {
        matches!(self, MemKind::Load)
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Load => f.write_str("ld"),
            MemKind::Store => f.write_str("st"),
        }
    }
}

/// A memory operation inside a region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemOp {
    /// Load or store.
    pub kind: MemKind,
    /// An opaque location class used by the *default* may-alias relation:
    /// two operations with the same class are assumed to **must** alias,
    /// different classes to **not** alias, unless overridden with
    /// [`RegionSpec::set_may_alias`]. A front end that runs a real alias
    /// analysis can give every op the same class and record only its
    /// disjoint pairs as `false` overrides (the optimizer's
    /// `smarq_ir::build_region_spec` does), which keeps the override map
    /// as small as the analysis's no-alias answers.
    pub loc_class: u32,
}

/// A speculative load elimination record.
///
/// The load `eliminated` was removed by forwarding the value produced or
/// loaded by the earlier operation `source` (paper §4.1,
/// `EXTENDED-DEPENDENCE 1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadElim {
    /// The earlier operation (load or store) whose value is forwarded.
    pub source: MemOpId,
    /// The eliminated load. It no longer appears in the schedule.
    pub eliminated: MemOpId,
}

/// A speculative store elimination record.
///
/// The store `eliminated` was removed because the later store `overwriter`
/// writes the same location (paper §4.1, `EXTENDED-DEPENDENCE 2`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreElim {
    /// The eliminated (earlier) store. It no longer appears in the schedule.
    pub eliminated: MemOpId,
    /// The later store that overwrites the same location.
    pub overwriter: MemOpId,
}

/// A region description: memory operations in original order, the may-alias
/// relation, and the speculative eliminations that were applied.
///
/// ```
/// use smarq::{RegionSpec, MemKind};
/// let mut r = RegionSpec::new();
/// let a = r.push(MemKind::Store, 0);
/// let b = r.push(MemKind::Load, 1);
/// r.set_may_alias(a, b, true);
/// assert!(r.may_alias(a, b));
/// // Self-pairs always may-alias (an op trivially overlaps its own
/// // location) and cannot be overridden — see `may_alias` for the
/// // contract.
/// assert!(r.may_alias(a, a));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RegionSpec {
    ops: Vec<MemOp>,
    /// Upper-triangle may-alias overrides, keyed by (min, max) index.
    overrides: FastMap<(u32, u32), bool>,
    load_elims: Vec<LoadElim>,
    store_elims: Vec<StoreElim>,
    /// Ops whose address may fall in an *unspeculatable* range (see
    /// [`crate::range::NospecRanges`]): they must keep program order
    /// against every other memory op, regardless of the alias relation.
    nospec: FastSet<u32>,
}

impl RegionSpec {
    /// Creates an empty region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty region with room for `ops` memory operations.
    pub fn with_capacity(ops: usize) -> Self {
        RegionSpec {
            ops: Vec::with_capacity(ops),
            ..Self::default()
        }
    }

    /// Appends a memory operation in original program order and returns its
    /// id. `loc_class` feeds the default may-alias relation (see
    /// [`MemOp::loc_class`]).
    pub fn push(&mut self, kind: MemKind, loc_class: u32) -> MemOpId {
        let id = MemOpId::new(self.ops.len());
        self.ops.push(MemOp { kind, loc_class });
        id
    }

    /// Number of memory operations (including eliminated ones).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the region has no memory operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation record for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn op(&self, id: MemOpId) -> MemOp {
        self.ops[id.index()]
    }

    /// Iterates over `(id, op)` pairs in original program order.
    pub fn iter(&self) -> impl Iterator<Item = (MemOpId, MemOp)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, &op)| (MemOpId::new(i), op))
    }

    /// Overrides the may-alias relation for a pair of operations.
    ///
    /// The relation is symmetric; the order of `a` and `b` does not matter.
    ///
    /// # Panics
    /// Panics if `a == b` — self-aliasing is meaningless here.
    pub fn set_may_alias(&mut self, a: MemOpId, b: MemOpId, may: bool) {
        assert_ne!(a, b, "self may-alias override is meaningless");
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.overrides.insert(key, may);
    }

    /// Whether two operations may access the same memory.
    ///
    /// Defaults to `loc_class` equality; explicit overrides from
    /// [`RegionSpec::set_may_alias`] win.
    ///
    /// **Self-alias contract:** `may_alias(a, a)` is always `true` — an
    /// operation trivially accesses its own location. Self-pairs cannot be
    /// overridden ([`RegionSpec::set_may_alias`] panics on `a == b`); the
    /// dependence rules never *need* to ask about self-pairs, but callers
    /// that do (e.g. the validator probing arbitrary pairs) get the
    /// reflexive answer.
    pub fn may_alias(&self, a: MemOpId, b: MemOpId) -> bool {
        if a == b {
            return true;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        match self.overrides.get(&key) {
            Some(&m) => m,
            None => self.ops[a.index()].loc_class == self.ops[b.index()].loc_class,
        }
    }

    /// The explicit overrides recorded by [`RegionSpec::set_may_alias`],
    /// one `(lo, hi, may)` per overridden pair with `lo < hi`, in no
    /// particular order. Every pair not listed takes the `loc_class`
    /// default.
    pub fn may_alias_overrides(&self) -> impl Iterator<Item = (MemOpId, MemOpId, bool)> + '_ {
        self.overrides
            .iter()
            .map(|(&(lo, hi), &may)| (MemOpId(lo), MemOpId(hi), may))
    }

    /// Records a speculative load elimination (see [`LoadElim`]).
    ///
    /// # Panics
    /// Panics if `eliminated` is not a load, or does not come after `source`
    /// in original order.
    pub fn add_load_elim(&mut self, source: MemOpId, eliminated: MemOpId) {
        assert!(
            self.op(eliminated).kind.is_load(),
            "eliminated op must be a load"
        );
        assert!(
            source < eliminated,
            "forwarding source must precede the eliminated load"
        );
        self.load_elims.push(LoadElim { source, eliminated });
    }

    /// Records a speculative store elimination (see [`StoreElim`]).
    ///
    /// # Panics
    /// Panics if either op is not a store, or `overwriter` does not come
    /// after `eliminated` in original order.
    pub fn add_store_elim(&mut self, eliminated: MemOpId, overwriter: MemOpId) {
        assert!(
            self.op(eliminated).kind.is_store() && self.op(overwriter).kind.is_store(),
            "store elimination involves two stores"
        );
        assert!(
            eliminated < overwriter,
            "overwriting store must follow the eliminated store"
        );
        self.store_elims.push(StoreElim {
            eliminated,
            overwriter,
        });
    }

    /// Marks `id` as *unspeculatable*: its address may fall inside a
    /// configured [`crate::range::NospecRanges`] range, so the dependence
    /// rules order it against every other memory operation (at least one
    /// of the pair a store) even when the alias analysis proves the pair
    /// disjoint — speculation across the range is never scheduled.
    pub fn set_nospec(&mut self, id: MemOpId) {
        assert!(id.index() < self.ops.len(), "nospec op out of range");
        self.nospec.insert(id.0);
    }

    /// `true` when `id` was marked unspeculatable.
    pub fn is_nospec(&self, id: MemOpId) -> bool {
        self.nospec.contains(&id.0)
    }

    /// `true` when any op is marked unspeculatable.
    pub fn has_nospec(&self) -> bool {
        !self.nospec.is_empty()
    }

    /// The recorded load eliminations.
    pub fn load_elims(&self) -> &[LoadElim] {
        &self.load_elims
    }

    /// The recorded store eliminations.
    pub fn store_elims(&self) -> &[StoreElim] {
        &self.store_elims
    }

    /// `true` if `id` was removed by a load or store elimination and is
    /// therefore absent from the schedule.
    pub fn is_eliminated(&self, id: MemOpId) -> bool {
        self.load_elims.iter().any(|e| e.eliminated == id)
            || self.store_elims.iter().any(|e| e.eliminated == id)
    }

    /// Builds the sealed (finalized) view of this region: a dense
    /// bit-matrix alias relation, an eliminated bitvec, and per-`loc_class`
    /// op buckets. See [`SealedRegion`].
    pub fn sealed(&self) -> SealedRegion<'_> {
        SealedRegion::build(self)
    }
}

/// A build-once, query-fast view of a [`RegionSpec`].
///
/// The mutable spec answers `may_alias` with a `HashMap` probe and
/// `is_eliminated` with a linear scan over the elimination records — both
/// are hit O(n²) times per region by dependence computation, constraint
/// derivation, validation and the baselines. Sealing materializes:
///
/// * an **upper-triangle bit-matrix** of the full may-alias relation
///   (`n·(n-1)/2` bits), so `may_alias` is one shift-and-mask;
/// * an **eliminated bitvec**, so `is_eliminated` is O(1);
/// * **`loc_class` buckets** (op indices grouped by class) plus the sorted
///   explicit override list, so dependence computation can enumerate only
///   the pairs that can possibly alias instead of all n² pairs.
///
/// The view borrows the spec; build it once per region after the spec
/// stops changing (further `set_may_alias` calls on the spec are *not*
/// reflected — reseal instead).
#[derive(Clone, Debug)]
pub struct SealedRegion<'a> {
    spec: &'a RegionSpec,
    n: usize,
    /// Upper-triangle may-alias bits: pair `(i, j)` with `i < j` lives at
    /// bit `i·(2n−i−1)/2 + (j−i−1)`.
    alias_bits: Vec<u64>,
    /// Bit `i` set ⇔ op `i` was eliminated.
    eliminated: Vec<u64>,
    /// Op indices grouped by `loc_class` (classes in first-seen order;
    /// indices within a bucket ascending).
    buckets: Vec<u32>,
    /// `buckets[bucket_start[b]..bucket_start[b + 1]]` is bucket `b`.
    bucket_start: Vec<u32>,
    /// Explicit overrides as sorted `(lo, hi, may)` triples.
    overrides: Vec<(u32, u32, bool)>,
    /// Unspeculatable op indices, sorted ascending.
    nospec: Vec<u32>,
}

impl<'a> SealedRegion<'a> {
    fn build(spec: &'a RegionSpec) -> Self {
        let n = spec.ops.len();

        // Bucket ops by loc_class (first-seen class order, ascending
        // indices within each bucket): number the classes as they are
        // first seen, then group the ops by that number. The map starts
        // with room for eight classes, so a region with at most that many
        // allocates it once.
        let mut class_of: FastMap<u32, u32> =
            FastMap::with_capacity_and_hasher(n.min(8), Default::default());
        let numbered: Vec<(u32, u32)> = (0..n as u32)
            .zip(&spec.ops)
            .map(|(i, op)| {
                let next = class_of.len() as u32;
                (*class_of.entry(op.loc_class).or_insert(next), i)
            })
            .collect();
        let (mut bucket_start, mut buckets) = (Vec::new(), Vec::new());
        group_by_key(class_of.len(), &numbered, &mut bucket_start, &mut buckets);

        // Default relation: within-bucket pairs alias. Cost is
        // Σ|bucket|² — output-sensitive, not n², when classes are spread;
        // one class covering every op sets every bit a word at a time.
        let pairs = n * n.saturating_sub(1) / 2;
        let mut alias_bits = vec![0u64; pairs.div_ceil(64)];
        if bucket_start.len() == 2 {
            alias_bits.fill(u64::MAX);
            if !pairs.is_multiple_of(64) {
                *alias_bits.last_mut().expect("pairs > 0") = (1u64 << (pairs % 64)) - 1;
            }
        } else {
            for w in bucket_start.windows(2) {
                let bucket = &buckets[w[0] as usize..w[1] as usize];
                for (k, &i) in bucket.iter().enumerate() {
                    for &j in &bucket[k + 1..] {
                        let idx = Self::pair_index(n, i, j);
                        alias_bits[idx >> 6] |= 1u64 << (idx & 63);
                    }
                }
            }
        }

        // Explicit overrides win over the default.
        let mut overrides: Vec<(u32, u32, bool)> = spec
            .overrides
            .iter()
            .map(|(&(lo, hi), &may)| (lo, hi, may))
            .collect();
        overrides.sort_unstable();
        for &(lo, hi, may) in &overrides {
            let idx = Self::pair_index(n, lo, hi);
            if may {
                alias_bits[idx >> 6] |= 1u64 << (idx & 63);
            } else {
                alias_bits[idx >> 6] &= !(1u64 << (idx & 63));
            }
        }

        let mut eliminated = vec![0u64; n.div_ceil(64)];
        for e in &spec.load_elims {
            let i = e.eliminated.index();
            eliminated[i >> 6] |= 1u64 << (i & 63);
        }
        for e in &spec.store_elims {
            let i = e.eliminated.index();
            eliminated[i >> 6] |= 1u64 << (i & 63);
        }

        let mut nospec: Vec<u32> = spec.nospec.iter().copied().collect();
        nospec.sort_unstable();

        SealedRegion {
            spec,
            n,
            alias_bits,
            eliminated,
            buckets,
            bucket_start,
            overrides,
            nospec,
        }
    }

    #[inline]
    fn pair_index(n: usize, lo: u32, hi: u32) -> usize {
        let (lo, hi) = (lo as usize, hi as usize);
        debug_assert!(lo < hi && hi < n);
        lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)
    }

    /// The underlying spec.
    pub fn spec(&self) -> &'a RegionSpec {
        self.spec
    }

    /// Number of memory operations (including eliminated ones).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the region has no memory operations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether two operations may access the same memory — one bit probe.
    ///
    /// Same contract as [`RegionSpec::may_alias`], including the reflexive
    /// self-pair answer (`may_alias(a, a)` is `true`).
    #[inline]
    pub fn may_alias(&self, a: MemOpId, b: MemOpId) -> bool {
        if a == b {
            return true;
        }
        let idx = Self::pair_index(self.n, a.0.min(b.0), a.0.max(b.0));
        self.alias_bits[idx >> 6] >> (idx & 63) & 1 == 1
    }

    /// O(1) form of [`RegionSpec::is_eliminated`].
    #[inline]
    pub fn is_eliminated(&self, id: MemOpId) -> bool {
        let i = id.index();
        self.eliminated[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Op indices grouped by `loc_class`: ops in the same slice default to
    /// aliasing each other, ops in different slices default to not
    /// aliasing. Explicit [`overrides`](Self::overrides) punch holes in
    /// both directions.
    pub fn class_buckets(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.bucket_start
            .windows(2)
            .map(|w| &self.buckets[w[0] as usize..w[1] as usize])
    }

    /// The explicit override triples `(lo, hi, may)`, sorted ascending,
    /// with `lo < hi`.
    pub fn overrides(&self) -> &[(u32, u32, bool)] {
        &self.overrides
    }

    /// Unspeculatable op indices, sorted ascending (see
    /// [`RegionSpec::set_nospec`]).
    pub fn nospec_ops(&self) -> &[u32] {
        &self.nospec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_alias_by_loc_class() {
        let mut r = RegionSpec::new();
        let a = r.push(MemKind::Load, 5);
        let b = r.push(MemKind::Store, 5);
        let c = r.push(MemKind::Store, 6);
        assert!(r.may_alias(a, b));
        assert!(!r.may_alias(a, c));
        assert!(!r.may_alias(b, c));
    }

    #[test]
    fn overrides_win_and_are_symmetric() {
        let mut r = RegionSpec::new();
        let a = r.push(MemKind::Load, 0);
        let b = r.push(MemKind::Store, 1);
        assert!(!r.may_alias(a, b));
        r.set_may_alias(b, a, true);
        assert!(r.may_alias(a, b));
        assert!(r.may_alias(b, a));
        r.set_may_alias(a, b, false);
        assert!(!r.may_alias(b, a));
    }

    #[test]
    fn elimination_bookkeeping() {
        let mut r = RegionSpec::new();
        let s = r.push(MemKind::Store, 0);
        let l = r.push(MemKind::Load, 0);
        let s2 = r.push(MemKind::Store, 0);
        r.add_load_elim(s, l);
        r.add_store_elim(s, s2);
        assert!(r.is_eliminated(l));
        assert!(r.is_eliminated(s));
        assert!(!r.is_eliminated(s2));
        assert_eq!(r.load_elims().len(), 1);
        assert_eq!(r.store_elims().len(), 1);
    }

    #[test]
    #[should_panic(expected = "eliminated op must be a load")]
    fn load_elim_rejects_store() {
        let mut r = RegionSpec::new();
        let s = r.push(MemKind::Store, 0);
        let s2 = r.push(MemKind::Store, 0);
        r.add_load_elim(s, s2);
    }

    #[test]
    #[should_panic(expected = "overwriting store must follow")]
    fn store_elim_order_checked() {
        let mut r = RegionSpec::new();
        let s = r.push(MemKind::Store, 0);
        let s2 = r.push(MemKind::Store, 0);
        r.add_store_elim(s2, s);
    }

    #[test]
    fn self_alias_is_reflexive_and_not_overridable() {
        let mut r = RegionSpec::new();
        let a = r.push(MemKind::Store, 0);
        let b = r.push(MemKind::Load, 1);
        // Reflexive for both kinds, regardless of overrides elsewhere.
        assert!(r.may_alias(a, a));
        assert!(r.may_alias(b, b));
        r.set_may_alias(a, b, true);
        assert!(r.may_alias(a, a));
        let sealed = r.sealed();
        assert!(sealed.may_alias(a, a));
        assert!(sealed.may_alias(b, b));
    }

    #[test]
    #[should_panic(expected = "self may-alias override is meaningless")]
    fn self_alias_override_rejected() {
        let mut r = RegionSpec::new();
        let a = r.push(MemKind::Store, 0);
        r.set_may_alias(a, a, false);
    }

    #[test]
    fn sealed_matches_spec_on_all_pairs() {
        let mut r = RegionSpec::new();
        let ids: Vec<_> = (0..10).map(|i| r.push(MemKind::Load, i % 3)).collect();
        r.set_may_alias(ids[0], ids[3], false); // same class, forced off
        r.set_may_alias(ids[1], ids[2], true); // different class, forced on
        r.add_load_elim(ids[0], ids[7]);
        let sealed = r.sealed();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(sealed.may_alias(a, b), r.may_alias(a, b), "{a:?} {b:?}");
            }
            assert_eq!(sealed.is_eliminated(a), r.is_eliminated(a));
        }
        assert_eq!(sealed.len(), r.len());
        let total: usize = sealed.class_buckets().map(<[u32]>::len).sum();
        assert_eq!(total, r.len());
        assert_eq!(sealed.overrides().len(), 2);
    }

    #[test]
    fn iteration_matches_original_order() {
        let mut r = RegionSpec::new();
        let ids: Vec<_> = (0..4).map(|i| r.push(MemKind::Load, i)).collect();
        let collected: Vec<_> = r.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, collected);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }
}

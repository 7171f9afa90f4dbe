//! Differential tests: every fast path introduced for the hot-path
//! performance work is checked against the retained reference
//! implementation on randomized inputs.
//!
//! * [`DepGraph::compute`] (sealed-region bit-matrix, output-sensitive)
//!   vs [`DepGraph::compute_naive`] (all-pairs reference).
//! * [`SealedRegion`] probes vs [`RegionSpec`] HashMap lookups, on
//!   spread location classes and on the single-class, sparse-override
//!   regions the optimizer emits.
//! * [`Allocator::with_scratch`] buffer reuse vs fresh allocators.
//!
//! Scenarios come from the in-repo seeded [`Prng`]; each failure prints
//! its seed for exact reproduction.

use smarq::prng::Prng;
use smarq::{allocate, AllocScratch, Allocator, Dep, DepGraph, MemKind, MemOpId, RegionSpec};

const CASES: u64 = 256;

/// A random region with *shared* location classes (so the sealed region's
/// class buckets are non-trivial), random overrides in both directions,
/// and random valid eliminations.
fn random_region(rng: &mut Prng, max_ops: usize) -> (RegionSpec, Vec<MemOpId>) {
    let n = rng.range_usize(2, max_ops + 1);
    let classes = rng.range_u32(1, 6);
    let mut region = RegionSpec::new();
    let ids: Vec<MemOpId> = (0..n)
        .map(|_| {
            let kind = if rng.chance(1, 2) {
                MemKind::Store
            } else {
                MemKind::Load
            };
            region.push(kind, rng.range_u32(0, classes))
        })
        .collect();
    // Random overrides: flip some pairs away from their class default.
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(1, 4) {
                region.set_may_alias(ids[i], ids[j], rng.chance(1, 2));
            }
        }
    }
    let mut eliminated = vec![false; n];
    for _ in 0..2 {
        let zi = rng.range_usize(0, n);
        if eliminated[zi] || !region.op(ids[zi]).kind.is_load() || zi == 0 {
            continue;
        }
        let xi = rng.range_usize(0, zi);
        if eliminated[xi] {
            continue;
        }
        region.add_load_elim(ids[xi], ids[zi]);
        eliminated[zi] = true;
    }
    for _ in 0..2 {
        let xi = rng.range_usize(0, n);
        if eliminated[xi] || !region.op(ids[xi]).kind.is_store() || xi + 1 >= n {
            continue;
        }
        let zi = rng.range_usize(xi + 1, n);
        if eliminated[zi] || !region.op(ids[zi]).kind.is_store() {
            continue;
        }
        region.add_store_elim(ids[xi], ids[zi]);
        eliminated[xi] = true;
        break;
    }
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let schedule = perm
        .into_iter()
        .filter(|&i| !eliminated[i])
        .map(|i| ids[i])
        .collect();
    (region, schedule)
}

#[test]
fn deps_bit_matrix_matches_naive() {
    for case in 0..CASES {
        let seed = 0x10_000 + case;
        let (region, _) = random_region(&mut Prng::new(seed), 16);
        let fast: Vec<Dep> = DepGraph::compute(&region).iter().collect();
        let naive: Vec<Dep> = DepGraph::compute_naive(&region).iter().collect();
        assert_eq!(fast, naive, "dep graphs diverge for seed {seed}");
    }
}

#[test]
fn sealed_region_matches_spec_probes() {
    for case in 0..CASES {
        let seed = 0x20_000 + case;
        let (region, _) = random_region(&mut Prng::new(seed), 16);
        let sealed = region.sealed();
        assert_eq!(sealed.len(), region.len());
        let mut bucketed = 0usize;
        for bucket in sealed.class_buckets() {
            bucketed += bucket.len();
        }
        assert_eq!(bucketed, region.len(), "every op in exactly one bucket");
        for (a, _) in region.iter() {
            assert_eq!(
                sealed.is_eliminated(a),
                region.is_eliminated(a),
                "elim bit diverges for {a:?}, seed {seed}"
            );
            for (b, _) in region.iter() {
                assert_eq!(
                    sealed.may_alias(a, b),
                    region.may_alias(a, b),
                    "may_alias({a:?}, {b:?}) diverges for seed {seed}"
                );
            }
        }
    }
}

/// A region in the shape the optimizer emits: every op in one location
/// class, the analysis's disjoint pairs recorded sparsely as `false`
/// overrides, some ops unspeculatable, and random valid eliminations.
fn sparse_region(rng: &mut Prng, max_ops: usize) -> RegionSpec {
    let n = rng.range_usize(1, max_ops + 1);
    let mut region = RegionSpec::new();
    let ids: Vec<MemOpId> = (0..n)
        .map(|_| {
            let kind = if rng.chance(1, 2) {
                MemKind::Store
            } else {
                MemKind::Load
            };
            region.push(kind, 0)
        })
        .collect();
    let disjoint = u64::from(rng.range_u32(0, 4));
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(disjoint, 4) {
                region.set_may_alias(ids[i], ids[j], false);
            }
        }
        if rng.chance(1, 12) {
            region.set_nospec(ids[i]);
        }
    }
    let mut eliminated = vec![false; n];
    for zi in 1..n {
        if rng.chance(1, 6) && !eliminated[zi] && region.op(ids[zi]).kind.is_load() {
            let xi = rng.range_usize(0, zi);
            if !eliminated[xi] {
                region.add_load_elim(ids[xi], ids[zi]);
                eliminated[zi] = true;
            }
        }
    }
    for xi in 0..n.saturating_sub(1) {
        let zi = rng.range_usize(xi + 1, n);
        if rng.chance(1, 8)
            && !eliminated[xi]
            && !eliminated[zi]
            && region.op(ids[xi]).kind.is_store()
            && region.op(ids[zi]).kind.is_store()
        {
            region.add_store_elim(ids[xi], ids[zi]);
            eliminated[xi] = true;
        }
    }
    region
}

#[test]
fn single_class_sparse_regions_match_naive_and_spec_probes() {
    for case in 0..CASES {
        let seed = 0x50_000 + case;
        // Up to 70 ops: past the optimizer's 50 and across several words
        // of the sealed bit matrix.
        let region = sparse_region(&mut Prng::new(seed), 70);
        let fast: Vec<Dep> = DepGraph::compute(&region).iter().collect();
        let naive: Vec<Dep> = DepGraph::compute_naive(&region).iter().collect();
        assert_eq!(fast, naive, "dep graphs diverge for seed {seed}");
        let sealed = region.sealed();
        assert_eq!(sealed.class_buckets().len(), 1, "one class, one bucket");
        assert!(sealed.overrides().iter().all(|&(_, _, may)| !may));
        for (a, _) in region.iter() {
            assert_eq!(sealed.is_eliminated(a), region.is_eliminated(a));
            for (b, _) in region.iter() {
                assert_eq!(
                    sealed.may_alias(a, b),
                    region.may_alias(a, b),
                    "may_alias({a:?}, {b:?}) diverges for seed {seed}"
                );
            }
        }
    }
}

/// Allocations produced with a recycled scratch are identical to fresh
/// ones — field by field, across a chain of differently-shaped regions.
#[test]
fn scratch_reuse_is_deterministic() {
    let mut scratch = AllocScratch::new();
    for case in 0..CASES {
        let seed = 0x40_000 + case;
        let (region, schedule) = random_region(&mut Prng::new(seed), 12);
        let deps = DepGraph::compute(&region);
        let fresh = allocate(&region, &deps, &schedule, u32::MAX).unwrap();

        let mut a = Allocator::with_scratch(&region, &deps, u32::MAX, scratch);
        for &op in &schedule {
            a.schedule_op(op).unwrap();
        }
        let (reused, s) = a.finish_reclaim().unwrap();
        scratch = s;

        assert_eq!(fresh.code(), reused.code(), "code diverges for seed {seed}");
        assert_eq!(fresh.working_set(), reused.working_set());
        assert_eq!(fresh.stats(), reused.stats());
        assert_eq!(fresh.final_checks(), reused.final_checks());
        for (id, _) in region.iter() {
            assert_eq!(fresh.op(id), reused.op(id), "op {id:?}, seed {seed}");
        }
    }
}

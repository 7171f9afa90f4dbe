//! Differential test: the validator's independently derived facts
//! ([`RegionFacts`]) against the production dependence and constraint
//! analysis ([`DepGraph`] and [`ConstraintGraph`]) on seeded random
//! regions.
//!
//! Two region shapes are drawn: spread location classes with random
//! overrides in both directions, and the single-class, sparse-override
//! shape `smarq_ir::build_region_spec` emits (every op in one class, only
//! the alias analysis's disjoint pairs recorded as `false`). Both carry
//! random load and store eliminations, random nospec marks and a random
//! schedule of the survivors. Each failure prints its seed.

use smarq::prng::Prng;
use smarq::{ConstraintGraph, DepGraph, MemKind, MemOpId, RegionSpec};
use smarq_verify::RegionFacts;

const CASES: u64 = 400;

fn random_region(rng: &mut Prng, single_class: bool) -> (RegionSpec, Vec<MemOpId>) {
    // Up to 80 ops, so some regions span two 64-bit words per row.
    let n = if rng.chance(1, 4) {
        rng.range_usize(60, 81)
    } else {
        rng.range_usize(2, 24)
    };
    let classes = if single_class { 1 } else { rng.range_u32(1, 6) };
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
    for i in 0..n {
        for j in (i + 1)..n {
            if single_class {
                if rng.chance(1, 3) {
                    region.set_may_alias(ids[i], ids[j], false);
                }
            } else if rng.chance(1, 4) {
                region.set_may_alias(ids[i], ids[j], rng.chance(1, 2));
            }
        }
    }
    let mut eliminated = vec![false; n];
    for _ in 0..4 {
        let z = rng.range_usize(1, n);
        if eliminated[z] || !region.op(ids[z]).kind.is_load() {
            continue;
        }
        let x = rng.range_usize(0, z);
        if eliminated[x] {
            continue;
        }
        region.add_load_elim(ids[x], ids[z]);
        eliminated[z] = true;
    }
    for _ in 0..4 {
        let x = rng.range_usize(0, n - 1);
        if eliminated[x] || !region.op(ids[x]).kind.is_store() {
            continue;
        }
        let z = rng.range_usize(x + 1, n);
        if eliminated[z] || !region.op(ids[z]).kind.is_store() {
            continue;
        }
        region.add_store_elim(ids[x], ids[z]);
        eliminated[x] = true;
    }
    if rng.chance(1, 3) {
        for &id in &ids {
            if rng.chance(1, 8) {
                region.set_nospec(id);
            }
        }
    }
    let mut perm: Vec<usize> = (0..n).filter(|&i| !eliminated[i]).collect();
    // Mostly local reordering, as a list scheduler produces, sometimes a
    // full shuffle.
    if rng.chance(1, 4) {
        rng.shuffle(&mut perm);
    } else {
        for k in 1..perm.len() {
            if rng.chance(1, 3) {
                perm.swap(k - 1, k);
            }
        }
    }
    (region, perm.into_iter().map(|i| ids[i]).collect())
}

fn check(seed: u64, single_class: bool) {
    let (region, schedule) = random_region(&mut Prng::new(seed), single_class);
    let facts = RegionFacts::derive(&region, &schedule);
    let deps = DepGraph::compute(&region);
    let graph = ConstraintGraph::derive(&region, &deps, &schedule);
    for (x, _) in region.iter() {
        assert_eq!(
            facts.requires_p(x),
            graph.p_bit(x),
            "P bit of {x:?}, seed {seed:#x}"
        );
        assert_eq!(
            facts.requires_c(x),
            graph.c_bit(x),
            "C bit of {x:?}, seed {seed:#x}"
        );
        for (y, _) in region.iter() {
            assert_eq!(
                facts.may_alias(x, y),
                region.may_alias(x, y),
                "may_alias({x:?}, {y:?}), seed {seed:#x}"
            );
            assert_eq!(
                facts.has_dep(x, y),
                deps.has_dep(x, y),
                "{x:?} ->dep {y:?}, seed {seed:#x}"
            );
        }
    }
    let checks: Vec<_> = facts.required_checks().collect();
    let antis: Vec<_> = facts.anti_constraints().collect();
    let mut theirs: Vec<_> = graph.checks().map(|c| (c.src, c.dst)).collect();
    theirs.sort();
    assert_eq!(checks, theirs, "checks (row-major), seed {seed:#x}");
    let mut theirs: Vec<_> = graph.antis().map(|c| (c.src, c.dst)).collect();
    theirs.sort();
    assert_eq!(antis, theirs, "antis (row-major), seed {seed:#x}");
    assert_eq!(facts.counts(), (checks.len(), antis.len()));
}

#[test]
fn facts_match_production_on_spread_class_regions() {
    for case in 0..CASES {
        check(0xFAC7_0000 + case, false);
    }
}

#[test]
fn facts_match_production_on_single_class_sparse_regions() {
    for case in 0..CASES {
        check(0xFAC7_8000 + case, true);
    }
}

//! Lowering a superblock's memory operations into a [`smarq::RegionSpec`].

use crate::alias::{AliasAnalysis, AliasRel};
use crate::sblock::Superblock;
use smarq::{MemKind, MemOpId, RegionSpec};

/// Mapping between superblock op indices and [`MemOpId`]s, plus the alias
/// relations the optimizer needs beyond the region spec (must-alias
/// knowledge drives eliminations; the spec itself only tracks may-alias).
#[derive(Clone, Debug)]
pub struct RegionMap {
    /// `mem_ids[k]` = superblock op index of memory op `k`.
    op_index: Vec<usize>,
    /// Reverse map: superblock op index → memory op id.
    mem_id: Vec<Option<MemOpId>>,
}

impl RegionMap {
    /// Superblock op index of memory operation `id`.
    pub fn op_index(&self, id: MemOpId) -> usize {
        self.op_index[id.index()]
    }

    /// Memory op id of superblock op `index`, if it is a memory op.
    pub fn mem_id(&self, index: usize) -> Option<MemOpId> {
        self.mem_id.get(index).copied().flatten()
    }

    /// Number of memory operations.
    pub fn len(&self) -> usize {
        self.op_index.len()
    }

    /// `true` when the region has no memory operations.
    pub fn is_empty(&self) -> bool {
        self.op_index.is_empty()
    }
}

/// Builds the [`RegionSpec`] for a superblock from the alias analysis:
/// every memory operation in original order, and the pairwise may-alias
/// facts (`May`/`Must` → may alias, `No` → no alias).
///
/// The relation is stored sparsely. An op's `loc_class` is its
/// [`AliasAnalysis::range_classes`] class: ops the address intervals prove
/// apart sit in different classes and never alias, ops of one class alias
/// by default, and only the analysis's disjoint (`No`) pairs within a
/// class are recorded, as `false` overrides. Without intervals every op
/// shares one class. A region of n memory ops with d disjoint pairs in
/// its classes costs d map entries instead of n(n−1)/2.
///
/// Eliminations are recorded by the optimizer afterwards via
/// [`RegionSpec::add_load_elim`]/[`RegionSpec::add_store_elim`].
pub fn build_region_spec(sb: &Superblock, analysis: &AliasAnalysis) -> (RegionSpec, RegionMap) {
    let mut op_index: Vec<usize> = Vec::with_capacity(sb.ops.iter().filter(|o| o.is_mem()).count());
    op_index.extend((0..sb.ops.len()).filter(|&i| sb.ops[i].is_mem()));
    let mut spec = RegionSpec::with_capacity(op_index.len());
    let class = analysis.range_classes(&op_index);
    let mut mem_id = vec![None; sb.ops.len()];
    for (&i, &c) in op_index.iter().zip(&class) {
        let kind = if sb.ops[i].is_store() {
            MemKind::Store
        } else {
            MemKind::Load
        };
        mem_id[i] = Some(spec.push(kind, c));
    }
    for a in 0..op_index.len() {
        for b in (a + 1)..op_index.len() {
            if class[a] == class[b] && analysis.relation(op_index[a], op_index[b]) == AliasRel::No {
                spec.set_may_alias(MemOpId::new(a), MemOpId::new(b), false);
            }
        }
    }
    (spec, RegionMap { op_index, mem_id })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sblock::{IrExit, IrOp, OpOrigin};
    use smarq::DepGraph;
    use smarq_guest::BlockId;

    fn sb(ops: Vec<IrOp>) -> Superblock {
        let n = ops.len();
        let mut ops = ops;
        ops.push(IrOp::Exit {
            exit_id: 0,
            cond: None,
        });
        Superblock {
            origins: vec![
                OpOrigin {
                    block: BlockId(0),
                    instr: 0
                };
                n + 1
            ],
            ops,
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        }
    }

    #[test]
    fn spec_mirrors_kinds_and_relations() {
        let s = sb(vec![
            IrOp::Ld {
                rd: 1,
                base: 2,
                disp: 0,
            },
            IrOp::St {
                rs: 1,
                base: 2,
                disp: 8,
            },
            IrOp::FSt {
                fs: 0,
                base: 3,
                disp: 0,
            },
        ]);
        let a = AliasAnalysis::new(&s);
        let (spec, map) = build_region_spec(&s, &a);
        assert_eq!(spec.len(), 3);
        assert_eq!(map.len(), 3);
        assert_eq!(map.op_index(MemOpId::new(0)), 0);
        assert_eq!(map.mem_id(1), Some(MemOpId::new(1)));
        assert_eq!(map.mem_id(3), None); // the exit
                                         // Same base, disjoint disps: no alias. Different base: may.
        assert!(!spec.may_alias(MemOpId::new(0), MemOpId::new(1)));
        assert!(spec.may_alias(MemOpId::new(0), MemOpId::new(2)));
        // Sparse: one class, and only the disjoint pair is recorded.
        assert_eq!(spec.sealed().class_buckets().len(), 1);
        assert_eq!(spec.sealed().overrides(), &[(0, 1, false)]);
        assert_eq!(spec.op(MemOpId::new(2)).kind, MemKind::Store);
        // Dependences follow: no dep between disambiguated pair.
        let deps = DepGraph::compute(&spec);
        assert!(!deps.has_dep(MemOpId::new(0), MemOpId::new(1)));
        assert!(deps.has_dep(MemOpId::new(0), MemOpId::new(2)));
    }

    #[test]
    fn range_classes_keep_the_relation_and_split_the_buckets() {
        use crate::range::address_intervals;
        use smarq::range::{top_state, Interval};
        // r2 = 0x1000 and r3 = 0x1004 overlap a word; r4 = 0x2000 is apart.
        let st = |base, disp| IrOp::St { rs: 1, base, disp };
        let ld = |base, disp| IrOp::Ld { rd: 1, base, disp };
        let s = sb(vec![st(2, 0), ld(3, 0), st(4, 0), ld(2, 16), ld(4, 0)]);
        let mut entry = top_state();
        entry[2] = Interval::exact(0x1000);
        entry[3] = Interval::exact(0x1004);
        entry[4] = Interval::exact(0x2000);
        let a = AliasAnalysis::with_ranges(&s, address_intervals(&s, &entry));
        let (spec, map) = build_region_spec(&s, &a);
        for x in 0..map.len() {
            for y in (x + 1)..map.len() {
                let (mx, my) = (MemOpId::new(x), MemOpId::new(y));
                let rel = a.relation(map.op_index(mx), map.op_index(my));
                assert_eq!(spec.may_alias(mx, my), rel != AliasRel::No, "{mx} {my}");
            }
        }
        assert!(spec.may_alias(MemOpId::new(0), MemOpId::new(1)));
        assert!(!spec.may_alias(MemOpId::new(0), MemOpId::new(2)));
        assert_eq!(spec.sealed().class_buckets().len(), 3);
        // One op of unknown address puts every op back in one class.
        entry[4] = Interval::TOP;
        let a = AliasAnalysis::with_ranges(&s, address_intervals(&s, &entry));
        let (spec, _) = build_region_spec(&s, &a);
        assert_eq!(spec.sealed().class_buckets().len(), 1);
    }

    #[test]
    fn empty_region_is_fine() {
        let s = sb(vec![IrOp::IConst { rd: 1, value: 0 }]);
        let a = AliasAnalysis::new(&s);
        let (spec, map) = build_region_spec(&s, &a);
        assert!(spec.is_empty());
        assert!(map.is_empty());
    }
}

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
/// The relation is stored sparsely: every op shares one `loc_class`, so
/// by default every pair may alias, and only the analysis's disjoint
/// (`No`) pairs are recorded, as `false` overrides. A region of n memory
/// ops with d disjoint pairs costs d map entries instead of n(n−1)/2.
///
/// Eliminations are recorded by the optimizer afterwards via
/// [`RegionSpec::add_load_elim`]/[`RegionSpec::add_store_elim`].
pub fn build_region_spec(sb: &Superblock, analysis: &AliasAnalysis) -> (RegionSpec, RegionMap) {
    let mut spec = RegionSpec::new();
    let mut op_index = Vec::new();
    let mut mem_id = vec![None; sb.ops.len()];
    for (i, op) in sb.ops.iter().enumerate() {
        if !op.is_mem() {
            continue;
        }
        let kind = if op.is_store() {
            MemKind::Store
        } else {
            MemKind::Load
        };
        let id = spec.push(kind, 0);
        mem_id[i] = Some(id);
        op_index.push(i);
    }
    for a in 0..op_index.len() {
        for b in (a + 1)..op_index.len() {
            if analysis.relation(op_index[a], op_index[b]) == AliasRel::No {
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
    fn empty_region_is_fine() {
        let s = sb(vec![IrOp::IConst { rd: 1, value: 0 }]);
        let a = AliasAnalysis::new(&s);
        let (spec, map) = build_region_spec(&s, &a);
        assert!(spec.is_empty());
        assert!(map.is_empty());
    }
}

//! Simple binary-level alias analysis.
//!
//! The paper (§1, §7) argues that dynamic optimizers cannot afford strong
//! alias analysis and instead rely on a simple, fast one plus hardware
//! detection for the speculated remainder. We implement the standard
//! `base register version + displacement` disambiguation: two accesses are
//! compared precisely when they use the *same value* of the same base
//! register (same SSA-style version within the region); any other pair is
//! conservatively *may-alias* — exactly the class of pairs the optimizer
//! speculates on.

use crate::sblock::Superblock;

/// Result of an alias query.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AliasRel {
    /// Provably disjoint.
    No,
    /// Unknown — the speculation target.
    May,
    /// Provably the same word.
    Must,
}

/// A symbolic memory reference: `base register` at a specific definition
/// `version`, plus a byte displacement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Base register.
    pub base: u8,
    /// Definition version of the base register at the access point.
    pub version: u32,
    /// Byte displacement.
    pub disp: i64,
}

impl MemRef {
    /// Relation between two 8-byte accesses.
    pub fn relation(&self, other: &MemRef) -> AliasRel {
        if self.base != other.base || self.version != other.version {
            return AliasRel::May;
        }
        // Same base value. The word actually accessed is `(base + disp) >>
        // 3` and nothing pins the base's low bits at analysis time:
        //  * equal displacements hit the same word for every base value;
        //  * displacements 8+ bytes apart can never share a word;
        //  * anything closer straddles a word boundary for *some* base
        //    values, so folding displacements to aligned windows here
        //    would mis-disambiguate unaligned pointers (found by the
        //    differential fuzzer; see tests/corpus/seed_000012.s).
        if self.disp == other.disp {
            AliasRel::Must
        } else if self.disp.abs_diff(other.disp) >= 8 {
            AliasRel::No
        } else {
            AliasRel::May
        }
    }
}

/// Alias analysis over a superblock: a [`MemRef`] for every memory
/// operation, queryable by op index.
#[derive(Clone, Debug)]
pub struct AliasAnalysis {
    /// `refs[i]` is `Some(MemRef)` when op `i` is a memory operation.
    refs: Vec<Option<MemRef>>,
}

impl AliasAnalysis {
    /// Runs the analysis over `sb`.
    pub fn new(sb: &Superblock) -> Self {
        let mut version = [0u32; 64];
        let mut refs = Vec::with_capacity(sb.ops.len());
        for op in &sb.ops {
            let r = op.mem_addr().map(|(base, disp)| MemRef {
                base,
                version: version[base as usize],
                disp,
            });
            refs.push(r);
            if let Some(rd) = op.int_def() {
                version[rd as usize] += 1;
            }
        }
        AliasAnalysis { refs }
    }

    /// The memory reference of op `i`, if it is a memory op.
    pub fn mem_ref(&self, i: usize) -> Option<MemRef> {
        self.refs.get(i).copied().flatten()
    }

    /// Alias relation between ops `i` and `j`.
    ///
    /// # Panics
    /// Panics if either op is not a memory operation.
    pub fn relation(&self, i: usize, j: usize) -> AliasRel {
        let a = self.refs[i].expect("op i is a memory op");
        let b = self.refs[j].expect("op j is a memory op");
        a.relation(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sblock::{IrExit, IrOp, OpOrigin};
    use smarq_guest::{AluOp, BlockId};

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
    fn same_base_same_version_disambiguates() {
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
            IrOp::St {
                rs: 1,
                base: 2,
                disp: 0,
            },
        ]);
        let a = AliasAnalysis::new(&s);
        assert_eq!(a.relation(0, 1), AliasRel::No);
        assert_eq!(a.relation(0, 2), AliasRel::Must);
        assert_eq!(a.relation(1, 2), AliasRel::No);
    }

    #[test]
    fn different_bases_may_alias() {
        let s = sb(vec![
            IrOp::Ld {
                rd: 1,
                base: 2,
                disp: 0,
            },
            IrOp::St {
                rs: 1,
                base: 3,
                disp: 0,
            },
        ]);
        let a = AliasAnalysis::new(&s);
        assert_eq!(a.relation(0, 1), AliasRel::May);
    }

    #[test]
    fn base_redefinition_bumps_version() {
        let s = sb(vec![
            IrOp::Ld {
                rd: 1,
                base: 2,
                disp: 0,
            },
            IrOp::AluImm {
                op: AluOp::Add,
                rd: 2,
                ra: 2,
                imm: 8,
            },
            IrOp::Ld {
                rd: 3,
                base: 2,
                disp: 0,
            },
        ]);
        let a = AliasAnalysis::new(&s);
        // Different versions of r2: conservatively may-alias, even though
        // a smarter analysis would prove disjointness.
        assert_eq!(a.relation(0, 2), AliasRel::May);
        assert_eq!(a.mem_ref(0).unwrap().version, 0);
        assert_eq!(a.mem_ref(2).unwrap().version, 1);
    }

    #[test]
    fn loads_redefining_their_own_base() {
        // ld r2 = [r2]: the access uses version 0; later accesses see v1.
        let s = sb(vec![
            IrOp::Ld {
                rd: 2,
                base: 2,
                disp: 0,
            },
            IrOp::Ld {
                rd: 1,
                base: 2,
                disp: 0,
            },
        ]);
        let a = AliasAnalysis::new(&s);
        assert_eq!(a.mem_ref(0).unwrap().version, 0);
        assert_eq!(a.mem_ref(1).unwrap().version, 1);
        assert_eq!(a.relation(0, 1), AliasRel::May);
    }

    #[test]
    fn sub_word_displacements_depend_on_base_alignment() {
        // With base = 8k the two accesses share a word; with base = 8k+4
        // they do not. Absent alignment facts the analysis must say May in
        // both directions — folding to aligned windows miscompiled
        // unaligned pointers (caught by the differential fuzzer).
        let at = |disp| MemRef {
            base: 1,
            version: 0,
            disp,
        };
        assert_eq!(at(1).relation(&at(6)), AliasRel::May);
        assert_eq!(at(0).relation(&at(7)), AliasRel::May);
        assert_eq!(at(12).relation(&at(16)), AliasRel::May);
        // Equal displacements are Must for every base value; 8+ bytes
        // apart can never share a word.
        assert_eq!(at(6).relation(&at(6)), AliasRel::Must);
        assert_eq!(at(0).relation(&at(8)), AliasRel::No);
        assert_eq!(at(16).relation(&at(4)), AliasRel::No);
    }

    #[test]
    fn non_mem_ops_have_no_ref() {
        let s = sb(vec![IrOp::IConst { rd: 1, value: 3 }]);
        let a = AliasAnalysis::new(&s);
        assert_eq!(a.mem_ref(0), None);
    }
}

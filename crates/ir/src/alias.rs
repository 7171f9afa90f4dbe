//! Binary-level alias analysis: the optimizer's one alias relation.
//!
//! The paper (§1, §7) argues that dynamic optimizers cannot afford strong
//! alias analysis and instead rely on a simple, fast one plus hardware
//! detection for the speculated remainder. The base of the relation is the
//! standard `base register version + displacement` disambiguation: two
//! accesses are compared precisely when they use the *same value* of the
//! same base register (same SSA-style version within the region).
//!
//! Where the runtime knows more, the relation knows more. A region
//! translated with an abstract entry register state (the whole-program
//! interval dataflow of `smarq-verify`) carries the start-address interval
//! of every memory operation ([`crate::analyze_superblock`]), and a pair
//! that base+displacement leaves *may-alias* is *no-alias* when both
//! intervals are bounded and their word footprints are disjoint
//! ([`smarq::range::Interval::access_disjoint`]). Every other pair stays
//! *may-alias*: exactly the class the optimizer speculates on.
//!
//! The region spec and emission read [`AliasAnalysis::relation`]
//! directly. The eliminations and the dependence DAG with its ALAT rule
//! read the optimizer's per-region pair table (`smarq_opt::PairPolicy`),
//! whose verdict on a pair starts from this relation. So a range-proven
//! pair is disjoint to all of them at once.

use crate::sblock::{IrOp, Superblock};
use smarq::range::{Interval, ACCESS_BYTES};

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

/// The [`MemRef`] of every op of a straight-line op sequence (`None` for
/// non-memory ops).
pub(crate) fn mem_refs(ops: &[IrOp]) -> Vec<Option<MemRef>> {
    let mut version = [0u32; 64];
    let mut refs = Vec::with_capacity(ops.len());
    for op in ops {
        refs.push(op.mem_addr().map(|(base, disp)| MemRef {
            base,
            version: version[base as usize],
            disp,
        }));
        if let Some(rd) = op.int_def() {
            version[rd as usize] += 1;
        }
    }
    refs
}

/// Alias analysis over a superblock: a [`MemRef`] for every memory
/// operation, and optionally its start-address interval, queryable by op
/// index.
#[derive(Clone, Debug)]
pub struct AliasAnalysis {
    /// `refs[i]` is `Some(MemRef)` when op `i` is a memory operation.
    refs: Vec<Option<MemRef>>,
    /// `addr[i]`: op `i`'s start-address interval under the region's entry
    /// state; empty when the region was analysed without one.
    addr: Vec<Option<Interval>>,
}

impl AliasAnalysis {
    /// Runs the base+displacement analysis over `sb`, with no address
    /// intervals: the relation of a region with no known entry state.
    pub fn new(sb: &Superblock) -> Self {
        AliasAnalysis {
            refs: mem_refs(&sb.ops),
            addr: Vec::new(),
        }
    }

    /// [`AliasAnalysis::new`], sharpened by `addr`, the start-address
    /// interval of every op of `sb` under the region's entry state
    /// ([`crate::address_intervals`]): a may-alias pair whose address
    /// intervals are provably disjoint becomes [`AliasRel::No`].
    pub fn with_ranges(sb: &Superblock, addr: Vec<Option<Interval>>) -> Self {
        debug_assert_eq!(addr.len(), sb.ops.len(), "intervals of another superblock");
        AliasAnalysis {
            addr,
            ..AliasAnalysis::new(sb)
        }
    }

    /// The memory reference of op `i`, if it is a memory op.
    pub fn mem_ref(&self, i: usize) -> Option<MemRef> {
        self.refs.get(i).copied().flatten()
    }

    /// Alias relation between ops `i` and `j`: the base+displacement
    /// relation, with a may-alias pair proven disjoint by its address
    /// intervals answered [`AliasRel::No`].
    ///
    /// # Panics
    /// Panics if either op is not a memory operation.
    pub fn relation(&self, i: usize, j: usize) -> AliasRel {
        let a = self.refs[i].expect("op i is a memory op");
        let b = self.refs[j].expect("op j is a memory op");
        match a.relation(&b) {
            AliasRel::May if self.range_disjoint(i, j) => AliasRel::No,
            rel => rel,
        }
    }

    /// A class per op of `mem_ops` (superblock op indices) such that two
    /// ops in different classes are provably disjoint by their address
    /// intervals, so [`relation`](Self::relation) calls them
    /// [`AliasRel::No`]: the connected components of word-footprint
    /// overlap. Every op is in class 0 when the analysis has no intervals
    /// or some op's interval is ⊥ or ⊤ (it may overlap anything).
    pub fn range_classes(&self, mem_ops: &[usize]) -> Vec<u32> {
        let mut class = vec![0u32; mem_ops.len()];
        if self.addr.is_empty() {
            return class;
        }
        let mut spans = Vec::with_capacity(mem_ops.len());
        for (k, &i) in mem_ops.iter().enumerate() {
            match self.addr[i] {
                Some(iv) if !iv.is_bottom() && !iv.is_top() => {
                    spans.push((iv.lo, iv.hi.saturating_add(ACCESS_BYTES - 1), k));
                }
                _ => return class,
            }
        }
        spans.sort_unstable();
        let (mut c, mut reach) = (0u32, i64::MIN);
        for (n, &(lo, hi, k)) in spans.iter().enumerate() {
            if n > 0 && lo > reach {
                c += 1;
            }
            reach = reach.max(hi);
            class[k] = c;
        }
        class
    }

    /// `true` when ops `i` and `j` have address intervals and those
    /// intervals are provably disjoint.
    fn range_disjoint(&self, i: usize, j: usize) -> bool {
        match (self.addr.get(i), self.addr.get(j)) {
            (Some(Some(a)), Some(Some(b))) => a.access_disjoint(*b),
            _ => false,
        }
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
    fn entry_ranges_disambiguate_different_bases() {
        use crate::range::address_intervals;
        // r2 lies in [0x1000, 0x1038] and r3 is 0x1040 at entry: different
        // bases, so base+displacement says May, and the intervals say No
        // for the load at r3 but not for the one reaching back to 0x1000.
        let s = sb(vec![
            IrOp::St {
                rs: 1,
                base: 2,
                disp: 0,
            },
            IrOp::Ld {
                rd: 4,
                base: 3,
                disp: 0,
            },
            IrOp::Ld {
                rd: 5,
                base: 3,
                disp: -64,
            },
        ]);
        let mut entry = smarq::range::top_state();
        entry[2] = Interval::of(0x1000, 0x1038);
        entry[3] = Interval::exact(0x1040);
        let a = AliasAnalysis::with_ranges(&s, address_intervals(&s, &entry));
        assert_eq!(a.relation(0, 1), AliasRel::No);
        assert_eq!(a.relation(1, 0), AliasRel::No);
        assert_eq!(a.relation(0, 2), AliasRel::May);
        // Same base, 64 bytes apart: base+displacement already knows.
        assert_eq!(a.relation(1, 2), AliasRel::No);
        // No entry state, or an unknown one, proves nothing new.
        assert_eq!(AliasAnalysis::new(&s).relation(0, 1), AliasRel::May);
        let top = AliasAnalysis::with_ranges(&s, address_intervals(&s, &smarq::range::top_state()));
        assert_eq!(top.relation(0, 1), AliasRel::May);
    }

    #[test]
    fn non_mem_ops_have_no_ref() {
        let s = sb(vec![IrOp::IConst { rd: 1, value: 3 }]);
        let a = AliasAnalysis::new(&s);
        assert_eq!(a.mem_ref(0), None);
    }
}

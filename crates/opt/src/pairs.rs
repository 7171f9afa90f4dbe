//! The region's speculation policy for memory pairs.
//!
//! Whether the optimizer may speculate on a pair of memory operations
//! depends on five sources: the alias relation ([`AliasAnalysis`]), the
//! nospec taint, the runtime's [`AliasBlacklist`] (its pairs, and under
//! the ALAT its member ops), and the pairs the interpreter saw aliasing
//! while the region's blocks warmed up
//! ([`Superblock::profiled_aliases`]). A [`PairPolicy`] reads all five
//! once per region and answers one [`Verdict`] per pair. The region spec's
//! unspeculatable ops, both elimination scans and the dependence DAG with
//! its ALAT rule read only the policy, so a new source of pair facts
//! reaches every pass by being added here.

use crate::blacklist::AliasBlacklist;
use smarq_ir::{AliasAnalysis, AliasRel, MemRef, OpOrigin, Superblock};
use smarq_vliw::HwKind;

/// Whether a pair of memory operations may be speculated on, and if not,
/// why. The variants are in precedence order: a pair's verdict is the
/// first one that applies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Verdict {
    /// The alias relation proves the pair apart.
    Disjoint,
    /// The alias relation proves the pair accesses the same word.
    MustAlias,
    /// May alias, and one op can touch an unspeculatable range.
    Unspeculatable,
    /// May alias, and the pair raised an alias exception before.
    Blacklisted,
    /// May alias, and the pair aliased while its blocks warmed up.
    Profiled,
    /// May alias, the target is the ALAT, and one op raised an alias
    /// exception with some op. The ALAT cannot check selectively, so
    /// such an op is never speculated on again. The profile has no such
    /// rule: it pins only its own pairs.
    FaultedOp,
    /// May alias, and nothing forbids speculating on it.
    Speculate,
}

impl Verdict {
    /// The alias relation behind the verdict.
    pub fn relation(self) -> AliasRel {
        match self {
            Verdict::Disjoint => AliasRel::No,
            Verdict::MustAlias => AliasRel::Must,
            _ => AliasRel::May,
        }
    }
}

/// What one op contributes to its pairs' verdicts.
#[derive(Clone, Copy, Default, Debug)]
struct OpMarks {
    /// Can touch an unspeculatable range.
    pinned: bool,
    /// Is in some blacklisted or profiled pair.
    excepted: bool,
    /// Is a blacklist member and the target is the ALAT.
    faulted: bool,
}

/// The speculation verdict of every pair of one region's memory
/// operations, indexed by superblock op.
///
/// The blacklist and the profile are resolved to superblock indices once,
/// as a sorted list of exception pairs; a pair is looked up there only
/// when both its ops are in some exception. Origins repeat in an unrolled
/// region, so one guest pair can resolve to several index pairs.
#[derive(Clone, Debug)]
pub struct PairPolicy<'a> {
    analysis: &'a AliasAnalysis,
    marks: Vec<OpMarks>,
    /// `(i, j, verdict)` with `i < j`, sorted by pair, one entry per pair:
    /// [`Verdict::Blacklisted`] where both sources name it.
    exceptions: Vec<(usize, usize, Verdict)>,
}

impl<'a> PairPolicy<'a> {
    /// Builds the policy of `sb` for the hardware `hw`. `taint` flags per
    /// superblock op the memory operations that can touch an
    /// unspeculatable range (see [`smarq_ir::nospec_taint`]).
    pub fn new(
        sb: &Superblock,
        analysis: &'a AliasAnalysis,
        taint: &[bool],
        blacklist: &AliasBlacklist,
        hw: HwKind,
    ) -> Self {
        debug_assert_eq!(taint.len(), sb.ops.len(), "taint of another superblock");
        let mut marks: Vec<OpMarks> = taint
            .iter()
            .map(|&pinned| OpMarks {
                pinned,
                ..OpMarks::default()
            })
            .collect();
        let mut exceptions = Vec::new();
        let is_mem = |i: &usize| sb.ops[*i].is_mem();
        if !blacklist.is_empty() {
            // One membership probe per op, and a pair probe only when both
            // ops are members.
            let members: Vec<usize> = (0..sb.ops.len())
                .filter(|i| is_mem(i) && blacklist.involves(sb.origins[*i]))
                .collect();
            for (k, &i) in members.iter().enumerate() {
                marks[i].faulted = hw == HwKind::Alat;
                for &j in &members[k + 1..] {
                    if blacklist.contains(sb.origins[i], sb.origins[j]) {
                        exceptions.push((i, j, Verdict::Blacklisted));
                    }
                }
            }
        }
        if !sb.profiled_aliases.is_empty() {
            // Each profiled pair's ops, found among the memory ops sorted
            // by origin. An origin packs into one `u64` in its own order.
            let key = |o: OpOrigin| (u64::from(o.block.0) << 32) | u64::from(o.instr);
            let mut by_origin: Vec<(u64, usize)> = (0..sb.ops.len())
                .filter(is_mem)
                .map(|i| (key(sb.origins[i]), i))
                .collect();
            by_origin.sort_unstable();
            let ops_of = |o: OpOrigin| {
                let k = key(o);
                let lo = by_origin.partition_point(|&(x, _)| x < k);
                by_origin[lo..]
                    .iter()
                    .take_while(move |&&(x, _)| x == k)
                    .map(|&(_, i)| i)
            };
            exceptions.reserve(sb.profiled_aliases.len());
            for &(a, b) in &sb.profiled_aliases {
                for i in ops_of(a) {
                    for j in ops_of(b).filter(|&j| j != i) {
                        exceptions.push((i.min(j), i.max(j), Verdict::Profiled));
                    }
                }
            }
        }
        // A stable sort keeps a pair's blacklist entry ahead of its
        // profile entry, and the dedup keeps the first.
        exceptions.sort_by_key(|&(i, j, _)| (i, j));
        exceptions.dedup_by_key(|&mut (i, j, _)| (i, j));
        for &(i, j, _) in &exceptions {
            marks[i].excepted = true;
            marks[j].excepted = true;
        }
        PairPolicy {
            analysis,
            marks,
            exceptions,
        }
    }

    /// The verdict on memory ops `i` and `j` (superblock indices, either
    /// order).
    ///
    /// # Panics
    /// Panics if either op is not a memory operation.
    pub fn verdict(&self, i: usize, j: usize) -> Verdict {
        match self.analysis.relation(i, j) {
            AliasRel::No => return Verdict::Disjoint,
            AliasRel::Must => return Verdict::MustAlias,
            AliasRel::May => {}
        }
        let (a, b) = (self.marks[i], self.marks[j]);
        if a.pinned || b.pinned {
            return Verdict::Unspeculatable;
        }
        if a.excepted && b.excepted {
            let key = (i.min(j), i.max(j));
            if let Ok(k) = self
                .exceptions
                .binary_search_by_key(&key, |&(x, y, _)| (x, y))
            {
                return self.exceptions[k].2;
            }
        }
        if a.faulted || b.faulted {
            Verdict::FaultedOp
        } else {
            Verdict::Speculate
        }
    }

    /// Whether op `i` can touch an unspeculatable range. Such an op takes
    /// part in no elimination and keeps program order against every
    /// memory operation, whatever their relation.
    pub fn pinned_op(&self, i: usize) -> bool {
        self.marks[i].pinned
    }

    /// The memory reference of op `i` (`None` for a non-memory op). Two
    /// memory ops with equal references are exactly the pairs whose
    /// verdict is [`Verdict::MustAlias`]: address intervals only ever turn
    /// a may-alias pair disjoint.
    pub fn mem_ref(&self, i: usize) -> Option<MemRef> {
        self.analysis.mem_ref(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::BlockId;
    use smarq_ir::{IrExit, IrOp};

    fn o(instr: u32) -> OpOrigin {
        OpOrigin {
            block: BlockId(0),
            instr,
        }
    }

    /// `st [r1]; ld [r2]; st [r1]; ld [r2]` with origins 0, 1, 0, 1: the
    /// body of a loop unrolled twice.
    fn unrolled() -> Superblock {
        let st = IrOp::St {
            rs: 9,
            base: 1,
            disp: 0,
        };
        let ld = IrOp::Ld {
            rd: 8,
            base: 2,
            disp: 0,
        };
        Superblock {
            ops: vec![
                st,
                ld,
                st,
                ld,
                IrOp::Exit {
                    exit_id: 0,
                    cond: None,
                },
            ],
            origins: vec![o(0), o(1), o(0), o(1), o(2)],
            exits: vec![IrExit { target: None }],
            entry: BlockId(0),
            trace: vec![BlockId(0)],
            profiled_aliases: Vec::new(),
        }
    }

    #[test]
    fn sources_apply_in_precedence_order() {
        let mut sb = unrolled();
        let analysis = AliasAnalysis::new(&sb);
        let clean = [false; 5];
        let none = AliasBlacklist::new();
        let policy = PairPolicy::new(&sb, &analysis, &clean, &none, HwKind::Smarq);
        assert_eq!(policy.verdict(0, 2), Verdict::MustAlias);
        assert_eq!(policy.verdict(1, 2), Verdict::Speculate);
        assert_eq!(policy.verdict(2, 1), Verdict::Speculate);

        // One guest pair names both replicas' index pairs.
        sb.profiled_aliases = vec![(o(0), o(1))];
        let mut bl = AliasBlacklist::new();
        bl.insert(o(0), o(1));
        let policy = PairPolicy::new(&sb, &analysis, &clean, &bl, HwKind::Smarq);
        for (i, j) in [(0, 1), (1, 2), (0, 3), (2, 3)] {
            assert_eq!(policy.verdict(i, j), Verdict::Blacklisted, "({i}, {j})");
        }
        let policy = PairPolicy::new(&sb, &analysis, &clean, &none, HwKind::Smarq);
        assert_eq!(policy.verdict(1, 2), Verdict::Profiled);

        // Taint outranks the exceptions but not the relation.
        let mut taint = clean;
        taint[2] = true;
        let policy = PairPolicy::new(&sb, &analysis, &taint, &bl, HwKind::Smarq);
        assert!(policy.pinned_op(2) && !policy.pinned_op(1));
        assert_eq!(policy.verdict(1, 2), Verdict::Unspeculatable);
        assert_eq!(policy.verdict(0, 2), Verdict::MustAlias);
        assert_eq!(policy.verdict(0, 1), Verdict::Blacklisted);
    }
}

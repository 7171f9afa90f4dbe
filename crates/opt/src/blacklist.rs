//! The runtime's alias blacklist.
//!
//! When an alias exception rolls a region back, the runtime records the
//! faulting pair of guest memory operations and re-optimizes the region
//! assuming the pair *always* aliases (paper §1, Figure 1). The blacklist
//! carries that knowledge across re-translations: blacklisted pairs are
//! never speculated on again.

use smarq::hash::FastSet;
use smarq_ir::OpOrigin;

/// A set of guest memory-operation pairs known to alias at runtime.
///
/// Probed on every translation, so both sets hash with the unkeyed
/// [`smarq::hash::FastHasher`] rather than SipHash.
#[derive(Clone, Debug, Default)]
pub struct AliasBlacklist {
    pairs: FastSet<(OpOrigin, OpOrigin)>,
    /// Every op that appears in some pair: `contains(a, b)` implies
    /// `involves(a)` and `involves(b)`.
    members: FastSet<OpOrigin>,
}

impl AliasBlacklist {
    /// Creates an empty blacklist.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(a: OpOrigin, b: OpOrigin) -> (OpOrigin, OpOrigin) {
        if (a.block, a.instr) <= (b.block, b.instr) {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records that `a` and `b` aliased at runtime. Returns `false` when
    /// the pair was already known (useful to detect livelock).
    pub fn insert(&mut self, a: OpOrigin, b: OpOrigin) -> bool {
        self.members.insert(a);
        self.members.insert(b);
        self.pairs.insert(Self::key(a, b))
    }

    /// Whether `op` appears in any blacklisted pair. Used by the ALAT
    /// policy: a load involved in a (possibly spurious) exception must stop
    /// being an advanced load altogether — ALAT cannot express "check only
    /// these stores", so the only cure is to stop speculating on that op.
    pub fn involves(&self, op: OpOrigin) -> bool {
        self.members.contains(&op)
    }

    /// Whether the pair is blacklisted.
    pub fn contains(&self, a: OpOrigin, b: OpOrigin) -> bool {
        self.pairs.contains(&Self::key(a, b))
    }

    /// Number of blacklisted pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no pair is blacklisted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::BlockId;

    fn o(b: u32, i: u32) -> OpOrigin {
        OpOrigin {
            block: BlockId(b),
            instr: i,
        }
    }

    #[test]
    fn symmetric_and_deduplicated() {
        let mut bl = AliasBlacklist::new();
        assert!(bl.is_empty());
        assert!(bl.insert(o(1, 2), o(3, 4)));
        assert!(!bl.insert(o(3, 4), o(1, 2)), "same pair, swapped");
        assert!(bl.contains(o(1, 2), o(3, 4)));
        assert!(bl.contains(o(3, 4), o(1, 2)));
        assert!(!bl.contains(o(1, 2), o(1, 3)));
        assert_eq!(bl.len(), 1);
    }
}

//! The translation phase ledger: host nanoseconds per phase of one
//! region translation, in one fixed array.
//!
//! The optimizer fills its own phases ([`Phase::Analysis`] through
//! [`Phase::Emission`], summed over overflow retries) into
//! [`crate::OptStats::phase_ns`]; the runtime adds formation, lowering and
//! verify-on-emit around it and sums the ledgers of every translation.

use std::ops::{Index, IndexMut};
use std::time::Instant;

/// One phase of a region translation, in pipeline order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Superblock formation and unrolling.
    Formation,
    /// Address ranges, alias analysis, nospec taint and the pair policy.
    Analysis,
    /// The region spec and its unspeculatable ops.
    RegionSpec,
    /// Load/store eliminations and dead-code elimination.
    Eliminations,
    /// The dependence graph ([`smarq::DepGraph::compute`]).
    Dependences,
    /// The work list and the scheduling DAG.
    Dag,
    /// List scheduling with the embedded alias register allocator.
    Schedule,
    /// Annotation, bundling and the optimizer's result records.
    Emission,
    /// Fast-tier lowering ([`crate::fastcomp::compile_for`]).
    Lowering,
    /// Verify-on-emit over the optimizer's trace.
    Verify,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 10;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Formation,
        Phase::Analysis,
        Phase::RegionSpec,
        Phase::Eliminations,
        Phase::Dependences,
        Phase::Dag,
        Phase::Schedule,
        Phase::Emission,
        Phase::Lowering,
        Phase::Verify,
    ];

    /// The phases the optimizer call times itself.
    pub const OPTIMIZER: [Phase; 7] = [
        Phase::Analysis,
        Phase::RegionSpec,
        Phase::Eliminations,
        Phase::Dependences,
        Phase::Dag,
        Phase::Schedule,
        Phase::Emission,
    ];

    /// A short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Formation => "formation",
            Phase::Analysis => "analysis",
            Phase::RegionSpec => "region_spec",
            Phase::Eliminations => "eliminations",
            Phase::Dependences => "dependences",
            Phase::Dag => "dag",
            Phase::Schedule => "schedule",
            Phase::Emission => "emission",
            Phase::Lowering => "lowering",
            Phase::Verify => "verify",
        }
    }
}

/// Host nanoseconds per [`Phase`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct PhaseNs(pub [u64; Phase::COUNT]);

impl PhaseNs {
    /// Adds every phase of `other`.
    pub fn add(&mut self, other: &PhaseNs) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// The sum over `phases`.
    pub fn sum(&self, phases: &[Phase]) -> u64 {
        phases.iter().map(|&p| self[p]).sum()
    }

    /// The sum over every phase.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(phase, ns)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().zip(self.0)
    }
}

impl Index<Phase> for PhaseNs {
    type Output = u64;
    fn index(&self, p: Phase) -> &u64 {
        &self.0[p as usize]
    }
}

impl IndexMut<Phase> for PhaseNs {
    fn index_mut(&mut self, p: Phase) -> &mut u64 {
        &mut self.0[p as usize]
    }
}

/// A running phase clock: each [`lap`](Self::lap) charges the time since
/// the previous one to a phase, one clock read per phase boundary.
#[derive(Debug)]
pub struct Lap(Instant);

impl Lap {
    /// Starts the clock.
    pub fn start() -> Self {
        Lap(Instant::now())
    }

    /// Charges the time since the last lap (or the start) to `phase`.
    pub fn lap(&mut self, ledger: &mut PhaseNs, phase: Phase) {
        let now = Instant::now();
        ledger[phase] += now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
    }
}

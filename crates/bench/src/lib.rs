//! # smarq-bench — evaluation harness
//!
//! Drives every workload through the dynamic optimization system under the
//! paper's hardware configurations and regenerates each table and figure
//! of the evaluation (paper §6). The `figures` binary prints them (and,
//! with `bench-json`, writes the tracked perf baseline); the bench targets
//! under `benches/` measure the implementation itself (allocator,
//! constraint analysis and simulator throughput) on the in-repo
//! [`harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smarq_opt::OptConfig;
use smarq_runtime::{DynOptSystem, SystemConfig, SystemStats};
use smarq_workloads::Workload;

pub mod figures;
pub mod harness;
pub mod multiguest;
pub mod perf;
pub mod synth;
pub mod tables;

pub use multiguest::{bench_multi_guest, MultiGuestRow, MultiGuestScaling};

/// The evaluation's hardware/optimizer configurations (paper Figures 15/16).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalConfig {
    /// No alias-detection hardware (the speedup baseline).
    Baseline,
    /// SMARQ with 64 alias registers.
    Smarq64,
    /// SMARQ limited to 16 alias registers (Efficeon-like scalability).
    Smarq16,
    /// Itanium-ALAT-like detection.
    AlatLike,
    /// SMARQ-64 with store reordering disabled (Figure 16).
    Smarq64NoStoreReorder,
}

impl EvalConfig {
    /// All configurations, baseline first.
    pub const ALL: [EvalConfig; 5] = [
        EvalConfig::Baseline,
        EvalConfig::Smarq64,
        EvalConfig::Smarq16,
        EvalConfig::AlatLike,
        EvalConfig::Smarq64NoStoreReorder,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EvalConfig::Baseline => "no-alias-hw",
            EvalConfig::Smarq64 => "SMARQ",
            EvalConfig::Smarq16 => "SMARQ16",
            EvalConfig::AlatLike => "Itanium-like",
            EvalConfig::Smarq64NoStoreReorder => "SMARQ/no-st-reorder",
        }
    }

    /// The optimizer configuration.
    pub fn opt(self) -> OptConfig {
        match self {
            EvalConfig::Baseline => OptConfig::no_alias_hw(),
            EvalConfig::Smarq64 => OptConfig::smarq(64),
            EvalConfig::Smarq16 => OptConfig::smarq(16),
            EvalConfig::AlatLike => OptConfig::alat(),
            EvalConfig::Smarq64NoStoreReorder => OptConfig::smarq_no_store_reorder(64),
        }
    }
}

/// Runs one workload to completion under one configuration.
pub fn run_workload(w: &Workload, config: EvalConfig) -> SystemStats {
    run_system(w, config).stats().clone()
}

fn run_system(w: &Workload, config: EvalConfig) -> DynOptSystem {
    let mut sys = DynOptSystem::new(w.program.clone(), SystemConfig::with_opt(config.opt()));
    sys.run_to_completion(u64::MAX);
    sys
}

/// Index of the hottest region (most entries; the last on a tie).
fn hot_index(stats: &SystemStats) -> Option<usize> {
    stats
        .per_region
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.entries)
        .map(|(i, _)| i)
}

/// One evaluation cell: the run's stats, and the Figure 17 live-range
/// lower bound of its hottest region, re-derived after the run so no
/// translation pays for it (`None` without regions or when the hottest
/// region ran stale).
fn run_cell(w: &Workload, config: EvalConfig) -> (SystemStats, Option<u32>) {
    let sys = run_system(w, config);
    let lower_bound = hot_index(sys.stats())
        .and_then(|i| sys.region_trace(i))
        .map(|t| t.lower_bound());
    (sys.stats().clone(), lower_bound)
}

/// One benchmark's results across all configurations.
#[derive(Clone, Debug)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Stats per configuration, indexed like [`EvalConfig::ALL`].
    pub stats: Vec<SystemStats>,
    /// Per configuration, the live-range lower bound on the hottest
    /// region's working set (see [`BenchmarkRow::hot_region`]).
    pub hot_lower_bound: Vec<Option<u32>>,
}

impl BenchmarkRow {
    /// Runs `w` under every configuration, serially.
    pub fn run(w: &Workload) -> Self {
        let (stats, hot_lower_bound) = EvalConfig::ALL.iter().map(|&c| run_cell(w, c)).unzip();
        BenchmarkRow {
            name: w.name,
            stats,
            hot_lower_bound,
        }
    }

    /// Stats for one configuration.
    pub fn get(&self, c: EvalConfig) -> &SystemStats {
        let i = EvalConfig::ALL.iter().position(|&x| x == c).unwrap();
        &self.stats[i]
    }

    /// Speedup of `c` over the baseline.
    pub fn speedup(&self, c: EvalConfig) -> f64 {
        self.get(EvalConfig::Baseline).total_cycles() as f64 / self.get(c).total_cycles() as f64
    }

    /// The record of the hottest region (most entries) under `c`.
    pub fn hot_region(&self, c: EvalConfig) -> Option<&smarq_runtime::RegionRecord> {
        let stats = self.get(c);
        hot_index(stats).map(|i| &stats.per_region[i])
    }

    /// The live-range lower bound on the working set of
    /// [`BenchmarkRow::hot_region`] under `c`.
    pub fn hot_lower_bound(&self, c: EvalConfig) -> Option<u32> {
        let i = EvalConfig::ALL.iter().position(|&x| x == c).unwrap();
        self.hot_lower_bound[i]
    }
}

/// Full evaluation: every workload under every configuration.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// One row per benchmark, in the paper's order.
    pub rows: Vec<BenchmarkRow>,
}

impl Evaluation {
    /// Runs the whole evaluation (14 benchmarks × 5 configurations),
    /// fanning the cells out across the machine's available parallelism.
    /// Every (workload, configuration) cell is an independent simulation,
    /// so the result is identical to a serial sweep.
    pub fn run() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::run_parallel(threads)
    }

    /// Like [`Evaluation::run`] with an explicit worker-thread count
    /// (`1` gives the serial sweep).
    pub fn run_parallel(threads: usize) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let workloads = smarq_workloads::all();
        let n_cfg = EvalConfig::ALL.len();
        let total = workloads.len() * n_cfg;
        // Work-stealing over a flat cell index: long-running workloads do
        // not serialize behind each other the way a per-row split would.
        let next = AtomicUsize::new(0);
        type Cell = Mutex<Option<(SystemStats, Option<u32>)>>;
        let cells: Vec<Cell> = (0..total).map(|_| Mutex::new(None)).collect();
        let workers = threads.clamp(1, total.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let cell = run_cell(&workloads[i / n_cfg], EvalConfig::ALL[i % n_cfg]);
                    *cells[i].lock().expect("no panics while holding lock") = Some(cell);
                });
            }
        });
        let mut it = cells
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every cell computed"));
        let rows = workloads
            .iter()
            .map(|w| {
                let (stats, hot_lower_bound) = (0..n_cfg).map(|_| it.next().unwrap()).unzip();
                BenchmarkRow {
                    name: w.name,
                    stats,
                    hot_lower_bound,
                }
            })
            .collect();
        Evaluation { rows }
    }

    /// Arithmetic-mean speedup of `c` over the baseline.
    pub fn mean_speedup(&self, c: EvalConfig) -> f64 {
        self.rows.iter().map(|r| r.speedup(c)).sum::<f64>() / self.rows.len() as f64
    }

    /// Geometric-mean speedup of `c` over the baseline.
    pub fn geomean_speedup(&self, c: EvalConfig) -> f64 {
        let s: f64 = self.rows.iter().map(|r| r.speedup(c).ln()).sum();
        (s / self.rows.len() as f64).exp()
    }
}

/// Renders a unit-less horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrip() {
        for c in EvalConfig::ALL {
            assert!(!c.name().is_empty());
            let _ = c.opt();
        }
        assert_eq!(EvalConfig::ALL[0], EvalConfig::Baseline);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn smarq_beats_baseline_on_a_sample() {
        let w = smarq_workloads::by_name("swim").unwrap();
        let base = run_workload(&w, EvalConfig::Baseline);
        let smarq = run_workload(&w, EvalConfig::Smarq64);
        assert!(smarq.total_cycles() < base.total_cycles());
        assert_eq!(base.guest_instrs(), smarq.guest_instrs());
    }

    #[test]
    fn benchmark_row_accessors() {
        let w = smarq_workloads::by_name("art").unwrap();
        let row = BenchmarkRow::run(&w);
        assert!(row.speedup(EvalConfig::Smarq64) >= 1.0);
        let hot = row.hot_region(EvalConfig::Smarq64).unwrap();
        let lb = row.hot_lower_bound(EvalConfig::Smarq64).unwrap();
        assert!(lb <= hot.opt.working_set);
        assert_eq!(row.hot_lower_bound(EvalConfig::Baseline), Some(0));
        assert!((row.speedup(EvalConfig::Baseline) - 1.0).abs() < 1e-12);
    }
}

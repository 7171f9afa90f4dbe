//! The host-speed probe, which scales every timing the benchmark reports to
//! the speed of one reference host.
//!
//! On a shared virtual machine the same code runs up to twice as slow while
//! other tenants contend for the core's caches and branch predictors, in
//! spells of seconds to minutes; no run length averages that out. The probe
//! times a fixed kernel shaped like the guest interpreter and the
//! simulators (a dispatch loop over a small bytecode, with a sparse
//! `HashMap` memory that inserts and removes words) between timed items.
//! On the host the benchmark was built on, the kernel slows almost exactly
//! as much as the workloads do in those spells (item by item, a slope of
//! about 1 and a correlation of about 0.8), so a time multiplied by the
//! host's speed at that moment keeps the program's cost and drops most of
//! the spell. The kernel is part of the benchmark, so a change to the
//! program under test never changes what it measures.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel steps of one timed probe.
const STEPS: u64 = 400_000;
/// Untimed steps before each timed probe: they bring back the cache lines
/// the timed item evicted, so the probe measures the host, not the item's
/// footprint.
const WARM_STEPS: u64 = STEPS / 4;
/// Host ns one timed probe took on the reference host (an Intel Xeon
/// vCPU at 2.1 GHz, outside interference spells). Times are reported as
/// that host would have measured them.
pub const REFERENCE_NS: f64 = 1.6e6;
/// Words of the kernel's sparse memory.
const SPAN: u64 = 1 << 15;

/// The kernel's bytecode, run in order; `Next` loops back.
#[derive(Clone, Copy)]
enum Op {
    Addr,
    Load,
    Fma,
    Mix,
    Store,
    Acc,
    LoadFar,
    Next,
}

const PROGRAM: [Op; 8] = [
    Op::Addr,
    Op::Load,
    Op::Fma,
    Op::Mix,
    Op::Store,
    Op::Acc,
    Op::LoadFar,
    Op::Next,
];

/// One thread's probe: the kernel's memory persists between probes. Its
/// hasher has fixed keys, so every process probes the same table layout.
pub struct Probe {
    mem: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    start: u64,
}

impl Probe {
    /// A probe with its memory filled.
    pub fn new() -> Probe {
        let mut p = Probe {
            mem: HashMap::default(),
            start: 0,
        };
        p.kernel(STEPS);
        p
    }

    fn kernel(&mut self, steps: u64) -> u64 {
        let mut r = [0u64; 8];
        r[1] = self.start;
        self.start = (self.start + 4099) % SPAN;
        let mut f = 1.0f64;
        let mut pc = 0;
        for i in 0..steps {
            match PROGRAM[pc] {
                Op::Addr => r[2] = (r[1] + 1 + (i & 3)) % SPAN,
                Op::Load => r[3] = self.mem.get(&r[2]).copied().unwrap_or(0),
                Op::Fma => f = f * 0.999 + (r[3] & 15) as f64,
                Op::Mix => r[4] = r[3].wrapping_mul(31).wrapping_add(r[1]) & 0xff,
                Op::Store => {
                    if r[4] == 0 {
                        self.mem.remove(&r[2]);
                    } else {
                        self.mem.insert(r[2], r[4]);
                    }
                }
                Op::Acc => r[5] = r[5].wrapping_add(r[4] ^ f as u64),
                Op::LoadFar => r[6] = self.mem.get(&(r[2] * 7 % SPAN)).copied().unwrap_or(0),
                Op::Next => {
                    r[1] = r[2];
                    if r[6] & 1 == 1 {
                        pc = 2;
                        continue;
                    }
                }
            }
            pc = (pc + 1) % PROGRAM.len();
        }
        r[5]
    }

    /// The host's speed now, relative to the reference host (below 1 is
    /// slower).
    pub fn speed(&mut self) -> f64 {
        black_box(self.kernel(WARM_STEPS));
        let t0 = Instant::now();
        black_box(self.kernel(STEPS));
        REFERENCE_NS / t0.elapsed().as_nanos().max(1) as f64
    }
}

/// Scales segments of consecutive timed items by the host's speed around
/// them: the mean of the probe before the segment and the probe after it.
/// A workload that keeps several threads busy probes on as many at once.
pub struct HostSpeed {
    probes: Vec<Probe>,
    last: f64,
    /// Every scale factor applied, one per segment.
    pub factors: Vec<f64>,
}

impl HostSpeed {
    /// Probes on `threads` threads, and takes the first probe.
    pub fn new(threads: usize) -> HostSpeed {
        let mut h = HostSpeed {
            probes: (0..threads.max(1)).map(|_| Probe::new()).collect(),
            last: 0.0,
            factors: Vec::new(),
        };
        h.last = h.probe();
        h
    }

    fn probe(&mut self) -> f64 {
        if let [p] = &mut self.probes[..] {
            return p.speed();
        }
        let n = self.probes.len() as f64;
        std::thread::scope(|s| {
            let running: Vec<_> = self
                .probes
                .iter_mut()
                .map(|p| s.spawn(move || p.speed()))
                .collect();
            running
                .into_iter()
                .map(|t| t.join().expect("a probe thread does not panic"))
                .sum::<f64>()
                / n
        })
    }

    /// Probes, then multiplies the times of the segment that ran since the
    /// previous probe by the host's speed over it.
    pub fn scale(&mut self, segment: &mut [f64]) {
        let now = self.probe();
        let factor = (self.last + now) / 2.0;
        self.last = now;
        self.factors.push(factor);
        for t in segment {
            *t *= factor;
        }
    }
}

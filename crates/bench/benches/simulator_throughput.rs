//! Cycle-level simulator throughput on a real translated region.

fn main() {
    println!("{}", smarq_bench::perf::measure_simulator_region().line());
}

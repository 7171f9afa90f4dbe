//! Peak resident memory of the benchmark process, from Linux procfs:
//! `VmHWM` in `/proc/self/status`, restarted from the current resident
//! size by writing `5` to `/proc/self/clear_refs` at each workload's start.

use std::fs;

/// Restarts the resident high-water mark from the current resident size.
pub fn reset_peak() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS (/proc/self/clear_refs): {e}"))
}

/// The resident high-water mark since the last [`reset_peak`], in MB.
pub fn peak_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status has no VmHWM line")?;
    Ok(kb as f64 / 1024.0)
}

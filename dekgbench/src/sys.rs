//! Process facts the workloads report.

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak-RSS high-water mark to the current RSS (writes `5`
/// to `/proc/self/clear_refs`), so `peak_rss_mb` covers only what runs
/// after this call and not input generation.
///
/// # Errors
/// Where `/proc/self/clear_refs` is unavailable.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak-RSS mark: {e}"))
}

/// Available parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

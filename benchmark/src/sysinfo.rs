//! What the benchmark needs to know about the box it runs on.

/// Logical cores available to this process (1 when unknown). Recorded
/// with every result: sets with different `nproc` are not comparable.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`). `None` where procfs is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

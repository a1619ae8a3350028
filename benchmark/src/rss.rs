//! Peak resident set size of this process.

/// `VmHWM` of this process in MiB, or 0 when `/proc/self/status` cannot
/// be read. `VmHWM` covers this program image only; `getrusage`'s
/// `ru_maxrss` would also carry the parent's peak across `exec`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

//! What the benchmark reads from the operating system: CPU time, peak
//! memory, core count, and the filesystem under a path. Linux `/proc` only.

use std::path::Path;

/// Kernel clock ticks per second; 100 on every Linux the sandbox runs.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, counted after the `)` that ends the
/// command name).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (or, if it does not exist yet,
/// its nearest ancestor that does): the longest mount point in `/proc/mounts`
/// that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let absolute = std::env::current_dir().unwrap_or_default().join(path);
    let path = absolute
        .ancestors()
        .find_map(|p| std::fs::canonicalize(p).ok())
        .unwrap_or(absolute.clone());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

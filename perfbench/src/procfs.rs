//! Outside-in process measurements from Linux `/proc`: peak resident
//! memory (with a resettable high-water mark, so it is per cell rather
//! than per process), CPU time of a process, and
//! bytes on disk under a directory.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on every mainstream Linux target).
const CLK_TCK: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_string(),
    }
}

/// Reset the peak-RSS high-water mark (`VmHWM`) of `pid` (or of this
/// process) to its current RSS by writing `5` to `clear_refs`.  Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    std::fs::write(format!("{}/clear_refs", proc_dir(pid)), "5").is_ok()
}

fn status_kb(pid: Option<u32>, key: &str) -> u64 {
    std::fs::read_to_string(format!("{}/status", proc_dir(pid)))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|kb| kb.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Peak resident set size since the last [`reset_peak_rss`], in kB.
pub fn peak_rss_kb(pid: Option<u32>) -> u64 {
    status_kb(pid, "VmHWM:")
}

/// Current resident set size, in kB.
pub fn rss_kb(pid: Option<u32>) -> u64 {
    status_kb(pid, "VmRSS:")
}

/// User + system CPU seconds out of a `stat` line (fields 14 and 15,
/// counted after the parenthesised command name, which may hold spaces).
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime are at 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// CPU seconds consumed by every thread (live and exited) of `pid`, or of
/// this process.
pub fn process_cpu_s(pid: Option<u32>) -> f64 {
    std::fs::read_to_string(format!("{}/stat", proc_dir(pid)))
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_spaces_in_the_command_name() {
        let stat = "4242 (shard worker) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn own_process_is_measurable() {
        assert!(rss_kb(None) > 0);
        assert!(reset_peak_rss(None), "clear_refs must accept a reset");
        assert!(peak_rss_kb(None) > 0);
    }
}

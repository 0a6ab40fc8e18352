//! Process-memory probes for the paper-scale bench suite.
//!
//! The paper-scale acceptance story ("a 12.6M-cell mesh partitions in
//! bounded RSS") needs a number, not a vibe: [`peak_rss_bytes`] reads the
//! kernel's high-water mark (`VmHWM` in `/proc/self/status`) so bench
//! reports can print the true peak footprint of a run. On platforms without
//! procfs it degrades to `None` rather than guessing.

/// Peak resident-set size of this process in bytes (`VmHWM`), or `None`
/// when `/proc/self/status` is unavailable or unparsable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_line(&status, "VmHWM:")
}

/// Current resident-set size of this process in bytes (`VmRSS`), or `None`
/// when unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_line(&status, "VmRSS:")
}

/// Extracts a `Vm*: <n> kB` line from `/proc/self/status` content.
fn parse_vm_line(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line
        .strip_prefix(key)?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines() {
        let status = "Name:\tfoo\nVmHWM:\t  123456 kB\nVmRSS:\t   98765 kB\n";
        assert_eq!(parse_vm_line(status, "VmHWM:"), Some(123_456 * 1024));
        assert_eq!(parse_vm_line(status, "VmRSS:"), Some(98_765 * 1024));
        assert_eq!(parse_vm_line(status, "VmPeak:"), None);
        assert_eq!(parse_vm_line("VmHWM: garbage\n", "VmHWM:"), None);
    }

    #[test]
    fn live_probe_is_sane_on_linux() {
        // On Linux both probes must return something positive and peak must
        // dominate current; elsewhere both are None and that is fine too.
        // Current first, peak second: sibling tests allocate concurrently,
        // and the high-water mark can only have grown in between.
        let cur = current_rss_bytes();
        let peak = peak_rss_bytes();
        match (peak, cur) {
            (Some(peak), Some(cur)) => {
                assert!(peak > 0 && cur > 0);
                assert!(peak >= cur.saturating_sub(4096));
            }
            (None, None) => {}
            other => panic!("inconsistent probes: {other:?}"),
        }
    }
}

//! Small host-side helpers shared with the benchmark (`perf/`).

/// Peak resident set size of this process in kilobytes, if the platform
/// exposes it (`VmHWM` in `/proc/self/status` on Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

/// JSON string escaping for `perf`'s hand-rolled writers: the one copy,
/// which lives in `smdb-obs`.
pub use smdb_obs::json_escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        // On Linux this must parse; elsewhere None is acceptable.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
        }
    }
}

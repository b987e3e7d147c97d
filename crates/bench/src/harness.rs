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

/// Minimal JSON string escaping for `perf`'s hand-rolled writers (the
/// container has no serde; names and labels are ASCII identifiers but we
/// escape defensively anyway).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

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

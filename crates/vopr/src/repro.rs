//! One-line repro serialization.
//!
//! A failing schedule collapses into a single copy-pasteable line:
//!
//! ```text
//! VOPR seed=0x1234 cfg=p:SE,n:4,... skip=1,5 sched=0120(41)3 plan=sim.migrate#3+recovery.phase#0 oracle=IFA
//! ```
//!
//! `seed` is the schedule seed (per-transaction operation streams derive
//! from it), `cfg` the scenario ([`VoprConfig`]), `skip` the transaction
//! indices the shrinker dropped, `sched` the schedule tape (one base-36
//! digit per decision; values ≥ 36 parenthesized in decimal; `-` for an
//! empty tape), and `plan` the fault plan (`-` for none). `oracle` names
//! the oracle the line was observed to fail — informational, so a replay
//! can confirm it reproduces the *same* failure.

use crate::config::VoprConfig;
use smdb_fault::{CrashPoint, FaultPlan};

/// Every crash-point site the stack exposes, by name. Repro lines are
/// parsed against this catalog and fault plans drawn from its first
/// [`DRAWN_SITES`] entries; it must stay in sync with the `FAULT_*`
/// constants of the instrumented crates.
pub const FAULT_SITES: [&str; 13] = [
    smdb_sim::FAULT_MIGRATE,
    smdb_sim::FAULT_INVALIDATE,
    smdb_wal::FAULT_FORCE_RECORD,
    smdb_wal::FAULT_CHECKPOINT_RECORD,
    smdb_wal::FAULT_TRUNCATE,
    smdb_storage::FAULT_FLUSH_LINE,
    smdb_core::FAULT_COMMIT,
    smdb_core::FAULT_COMMIT_DEP,
    smdb_core::FAULT_RECOVERY_PHASE,
    smdb_core::FAULT_REDO_ON_DEMAND,
    smdb_core::FAULT_REDO_BACKGROUND,
    smdb_core::FAULT_RESTART_SCAN,
    smdb_core::FAULT_RESTART_INSTALL,
];

/// How many sites, from the front of [`FAULT_SITES`], a plan is drawn from.
/// A seed's plan is `rng % DRAWN_SITES`: drawing from one more site deals
/// every seed of the fixed battery (and the pinned `known_defect_*` repros'
/// seeds) a different plan. `restart.scan` and `restart.install` therefore
/// stay out of the draw; `tests/crash_sweep.rs` sweeps them exhaustively
/// instead.
pub const DRAWN_SITES: usize = 11;

/// Resolve a site name to its `&'static str` catalog entry (the injector
/// matches sites by pointer-compatible static names).
pub fn site_by_name(name: &str) -> Option<&'static str> {
    FAULT_SITES.iter().copied().find(|s| *s == name)
}

/// A complete, self-contained repro: everything needed to replay one
/// schedule byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// Schedule seed (drives per-transaction op streams).
    pub seed: u64,
    /// Scenario encoding (see [`VoprConfig::encode`]).
    pub cfg: String,
    /// Transaction indices the driver skips (shrinker output).
    pub skip: Vec<usize>,
    /// The schedule tape.
    pub tape: Vec<u32>,
    /// The fault plan, as `(site, ordinal)` pairs in fire order.
    pub plan: Vec<(&'static str, u64)>,
    /// Name of the oracle this repro fails (informational).
    pub oracle: String,
}

const B36: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// Encode a schedule tape: one base-36 digit per entry, parenthesized
/// decimal for values ≥ 36, `-` when empty.
pub fn encode_tape(tape: &[u32]) -> String {
    if tape.is_empty() {
        return "-".into();
    }
    let mut out = String::with_capacity(tape.len());
    for &v in tape {
        if v < 36 {
            out.push(B36[v as usize] as char);
        } else {
            out.push_str(&format!("({v})"));
        }
    }
    out
}

/// Parse the [`encode_tape`] form.
pub fn decode_tape(s: &str) -> Result<Vec<u32>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '(' {
            let digits: String = chars.by_ref().take_while(|&d| d != ')').collect();
            out.push(digits.parse::<u32>().map_err(|_| format!("bad tape run ({digits}"))?);
        } else if let Some(v) = B36.iter().position(|&b| b as char == c) {
            out.push(v as u32);
        } else {
            return Err(format!("bad tape digit {c:?}"));
        }
    }
    Ok(out)
}

/// Encode a fault plan as `site#hit+site#hit`, `-` when empty.
pub fn encode_plan(plan: &[(&'static str, u64)]) -> String {
    if plan.is_empty() {
        return "-".into();
    }
    plan.iter().map(|(s, h)| format!("{s}#{h}")).collect::<Vec<_>>().join("+")
}

/// Parse the [`encode_plan`] form against the site catalog.
pub fn decode_plan(s: &str) -> Result<Vec<(&'static str, u64)>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split('+')
        .map(|p| {
            let (site, hit) = p.split_once('#').ok_or_else(|| format!("bad plan point {p:?}"))?;
            let site = site_by_name(site).ok_or_else(|| format!("unknown fault site {site:?}"))?;
            let hit = hit.parse::<u64>().map_err(|_| format!("bad plan ordinal {p:?}"))?;
            Ok((site, hit))
        })
        .collect()
}

impl Repro {
    /// The injector plan this repro arms.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan { points: self.plan.iter().map(|&(s, h)| CrashPoint::new(s, h)).collect() }
    }

    /// The scenario this repro runs.
    pub fn config(&self) -> Result<VoprConfig, String> {
        VoprConfig::decode(&self.cfg)
    }

    /// Serialize to the one-line form.
    pub fn to_line(&self) -> String {
        let skip = if self.skip.is_empty() {
            "-".into()
        } else {
            self.skip.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        };
        format!(
            "VOPR seed={:#x} cfg={} skip={} sched={} plan={} oracle={}",
            self.seed,
            self.cfg,
            skip,
            encode_tape(&self.tape),
            encode_plan(&self.plan),
            if self.oracle.is_empty() { "?" } else { &self.oracle },
        )
    }

    /// Parse a [`Repro::to_line`] line (leading/trailing text around the
    /// `VOPR ...` token sequence is tolerated, so a line pasted from a log
    /// with a prefix still parses).
    pub fn parse_line(line: &str) -> Result<Repro, String> {
        let start = line.find("VOPR ").ok_or_else(|| "no VOPR marker in line".to_string())?;
        let mut seed = None;
        let mut cfg = None;
        let mut skip = Vec::new();
        let mut tape = Vec::new();
        let mut plan = Vec::new();
        let mut oracle = String::new();
        for tok in line[start + 5..].split_whitespace() {
            let Some((k, v)) = tok.split_once('=') else { break };
            match k {
                "seed" => {
                    let v = v.strip_prefix("0x").unwrap_or(v);
                    seed =
                        Some(u64::from_str_radix(v, 16).map_err(|_| format!("bad seed {tok:?}"))?);
                }
                "cfg" => cfg = Some(v.to_string()),
                "skip" => {
                    if v != "-" {
                        skip = v
                            .split(',')
                            .map(|i| i.parse::<usize>().map_err(|_| format!("bad skip {tok:?}")))
                            .collect::<Result<_, _>>()?;
                    }
                }
                "sched" => tape = decode_tape(v)?,
                "plan" => plan = decode_plan(v)?,
                "oracle" => oracle = v.to_string(),
                _ => break, // trailing commentary
            }
        }
        let seed = seed.ok_or("repro line missing seed=")?;
        let cfg = cfg.ok_or("repro line missing cfg=")?;
        VoprConfig::decode(&cfg)?;
        Ok(Repro { seed, cfg, skip, tape, plan, oracle })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_codec_round_trips() {
        let tapes: [&[u32]; 4] = [&[], &[0, 1, 35], &[36, 0, 1000], &[5; 40]];
        for t in tapes {
            assert_eq!(decode_tape(&encode_tape(t)).unwrap(), t);
        }
        assert_eq!(encode_tape(&[]), "-");
        assert_eq!(encode_tape(&[0, 10, 36]), "0a(36)");
    }

    #[test]
    fn plan_codec_round_trips() {
        let plan = vec![(smdb_sim::FAULT_MIGRATE, 3u64), (smdb_core::FAULT_RECOVERY_PHASE, 0)];
        assert_eq!(decode_plan(&encode_plan(&plan)).unwrap(), plan);
        assert_eq!(decode_plan("-").unwrap(), vec![]);
        assert!(decode_plan("no.such.site#1").is_err());
    }

    #[test]
    fn repro_line_round_trips() {
        let r = Repro {
            seed: 0xDEAD_BEEF,
            cfg: VoprConfig::draw(7).encode(),
            skip: vec![1, 5],
            tape: vec![0, 3, 1, 40],
            plan: vec![(smdb_wal::FAULT_FORCE_RECORD, 2)],
            oracle: "IFA".into(),
        };
        let line = r.to_line();
        assert_eq!(Repro::parse_line(&line).unwrap(), r);
        // Prefixed (as printed inside a test-failure message) still parses.
        assert_eq!(Repro::parse_line(&format!("FAILED: {line}")).unwrap(), r);
    }

    #[test]
    fn catalog_resolves_names() {
        for s in FAULT_SITES {
            assert_eq!(site_by_name(s), Some(s));
        }
        assert_eq!(site_by_name("nope"), None);
    }
}

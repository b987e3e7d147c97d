//! Scenario configuration: the workload-shape and engine-config knobs one
//! fuzzed schedule runs under, drawn deterministically from the schedule
//! seed and serialized into the repro line's `cfg=` field.

use smdb_core::{DbConfig, ProtocolKind};

/// One schedule's scenario: which engine configuration and workload shape
/// the interleaving runs over. Every field is drawn from the schedule
/// seed by [`VoprConfig::draw`] and round-trips through the compact
/// `cfg=` encoding ([`VoprConfig::encode`] / [`VoprConfig::decode`]), so
/// a repro line pins the scenario exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct VoprConfig {
    /// Recovery protocol under test (one of the four IFA protocols).
    pub protocol: ProtocolKind,
    /// Node count.
    pub nodes: u16,
    /// Transactions the driver issues (before shrink skips).
    pub txns: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Read fraction, percent.
    pub read_pct: u8,
    /// Shared-region probability, percent.
    pub sharing_pct: u8,
    /// Shared-region size, slots.
    pub shared_slots: u64,
    /// Zipf θ × 100 for slot selection.
    pub zipf_x100: u16,
    /// Index-op fraction of non-reads, percent (serial window only).
    pub index_pct: u8,
    /// Sharp checkpoint every N admitted transactions (0 = never).
    pub checkpoint_every: usize,
    /// Commit window: 1 = serial synchronous commits, >1 = pipelined
    /// group commit over polling locks.
    pub window: usize,
    /// Drain the commit pipeline every N pipelined commits (0 = only on
    /// stall and at end; pipelined mode only).
    pub drain_every: usize,
    /// Early lock release (controlled lock violation; pipelined only).
    pub elr: bool,
    /// Coalesced log forces (`co:`): still drawn and encoded so every
    /// seed and repro line keeps its scenario. [`VoprConfig::db_config`]
    /// passes it through [`DbConfig::with_coalesced_forces`], which runs
    /// StableEager as StableTriggered and leaves other protocols alone.
    pub coalesce: bool,
    /// Instant restart: recovery opens the database after analysis and
    /// defers heap redo to on-demand application plus a background drain
    /// the driver schedules between rounds.
    pub instant: bool,
    /// Multicore epoch-scheduler preamble: before the interactive rounds
    /// the driver runs a deterministic record-only batch through
    /// `SmDb::run_epochs` (one lane thread — VOPR replay is sequential by
    /// design), with the admission deferral site (`mt.admit`) drawn
    /// from the shared schedule tape. Never combined
    /// with early lock release: the epoch scheduler requires the serial
    /// lock discipline.
    pub mt: bool,
}

pub(crate) fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<T: Copy>(rng: &mut u64, options: &[T]) -> T {
    options[(splitmix64(rng) % options.len() as u64) as usize]
}

const PROTOCOLS: [(ProtocolKind, &str); 4] = [
    (ProtocolKind::VolatileRedoAll, "VRA"),
    (ProtocolKind::VolatileSelectiveRedo, "VSR"),
    (ProtocolKind::StableEager, "SE"),
    (ProtocolKind::StableTriggered, "ST"),
];

fn protocol_tag(p: ProtocolKind) -> &'static str {
    if p == ProtocolKind::FaOnly {
        return "FA";
    }
    PROTOCOLS.iter().find(|(k, _)| *k == p).map_or("?", |(_, t)| t)
}

/// `draw` only picks IFA protocols, but the codec also understands the
/// FA-only baseline so sweep `FAIL` lines from that scenario replay too.
fn protocol_from_tag(t: &str) -> Option<ProtocolKind> {
    if t == "FA" {
        return Some(ProtocolKind::FaOnly);
    }
    PROTOCOLS.iter().find(|(_, tag)| *tag == t).map(|(k, _)| *k)
}

impl VoprConfig {
    /// Draw a scenario from the schedule seed. Deterministic: the same
    /// seed always produces the same scenario.
    pub fn draw(seed: u64) -> Self {
        let mut rng = seed ^ 0xC0FF_EE00_D15E_A5E5;
        let protocol = pick(&mut rng, &PROTOCOLS).0;
        let nodes = pick(&mut rng, &[2u16, 3, 4, 5]);
        let txns = 6 + (splitmix64(&mut rng) % 13) as usize; // 6..=18
        let ops_per_txn = 2 + (splitmix64(&mut rng) % 5) as usize; // 2..=6
        let window = pick(&mut rng, &[1usize, 2, 4, 6]);
        let mut cfg = VoprConfig {
            protocol,
            nodes,
            txns,
            ops_per_txn,
            read_pct: pick(&mut rng, &[0u8, 20, 50]),
            sharing_pct: pick(&mut rng, &[0u8, 30, 60, 100]),
            shared_slots: pick(&mut rng, &[4u64, 16, 32]),
            zipf_x100: pick(&mut rng, &[0u16, 95]),
            // The pipelined window's deadlock freedom relies on sorted
            // record-lock acquisition, so index ops run serial-only.
            index_pct: if window == 1 { pick(&mut rng, &[0u8, 25, 50]) } else { 0 },
            checkpoint_every: pick(&mut rng, &[0usize, 3, 5]),
            window,
            drain_every: if window > 1 { pick(&mut rng, &[0usize, 2, 3]) } else { 0 },
            elr: window > 1 && splitmix64(&mut rng) % 2 == 1,
            coalesce: splitmix64(&mut rng) % 2 == 1,
            // Drawn last so the new knob does not shift any earlier
            // field's position in the seed stream.
            instant: splitmix64(&mut rng) % 2 == 1,
            mt: false,
        };
        // Same rule, one knob later: `mt` draws after `instant` so seeds
        // that predate it keep their scenarios. The bit is consumed
        // unconditionally and then gated — the epoch scheduler excludes
        // early lock release.
        cfg.mt = splitmix64(&mut rng) % 2 == 1 && !cfg.elr;
        cfg
    }

    /// The engine configuration this scenario runs under.
    pub fn db_config(&self) -> DbConfig {
        let mut cfg = DbConfig::small(self.nodes, self.protocol);
        if self.coalesce {
            cfg = cfg.with_coalesced_forces();
        }
        if self.window > 1 {
            cfg = cfg.with_lock_polling();
        }
        if self.elr {
            cfg = cfg.with_early_lock_release();
        }
        if self.instant {
            cfg = cfg.with_instant_restart();
        }
        cfg
    }

    /// Compact one-token encoding for the repro line, e.g.
    /// `p:SE,n:4,t:12,o:4,rf:20,sh:60,ss:16,zf:95,ix:25,ck:5,w:4,d:3,elr:1,co:1,ir:0,mt:1`.
    pub fn encode(&self) -> String {
        format!(
            "p:{},n:{},t:{},o:{},rf:{},sh:{},ss:{},zf:{},ix:{},ck:{},w:{},d:{},elr:{},co:{},ir:{},mt:{}",
            protocol_tag(self.protocol),
            self.nodes,
            self.txns,
            self.ops_per_txn,
            self.read_pct,
            self.sharing_pct,
            self.shared_slots,
            self.zipf_x100,
            self.index_pct,
            self.checkpoint_every,
            self.window,
            self.drain_every,
            self.elr as u8,
            self.coalesce as u8,
            self.instant as u8,
            self.mt as u8,
        )
    }

    /// Parse the [`VoprConfig::encode`] form. Unknown keys are rejected so
    /// a stale repro line fails loudly instead of replaying the wrong
    /// scenario.
    pub fn decode(s: &str) -> Result<Self, String> {
        let mut cfg = VoprConfig {
            protocol: ProtocolKind::VolatileRedoAll,
            nodes: 0,
            txns: 0,
            ops_per_txn: 0,
            read_pct: 0,
            sharing_pct: 0,
            shared_slots: 0,
            zipf_x100: 0,
            index_pct: 0,
            checkpoint_every: 0,
            window: 1,
            drain_every: 0,
            elr: false,
            coalesce: false,
            // Repro lines predating these knobs carry no `ir:`/`mt:`
            // token; they replay as the eager, serial runs they were
            // recorded under.
            instant: false,
            mt: false,
        };
        for part in s.split(',') {
            let (k, v) = part.split_once(':').ok_or_else(|| format!("bad cfg token {part:?}"))?;
            let num = || v.parse::<u64>().map_err(|_| format!("bad cfg value {part:?}"));
            match k {
                "p" => {
                    cfg.protocol =
                        protocol_from_tag(v).ok_or_else(|| format!("unknown protocol {v:?}"))?
                }
                "n" => cfg.nodes = num()? as u16,
                "t" => cfg.txns = num()? as usize,
                "o" => cfg.ops_per_txn = num()? as usize,
                "rf" => cfg.read_pct = num()? as u8,
                "sh" => cfg.sharing_pct = num()? as u8,
                "ss" => cfg.shared_slots = num()?,
                "zf" => cfg.zipf_x100 = num()? as u16,
                "ix" => cfg.index_pct = num()? as u8,
                "ck" => cfg.checkpoint_every = num()? as usize,
                "w" => cfg.window = num()? as usize,
                "d" => cfg.drain_every = num()? as usize,
                "elr" => cfg.elr = num()? != 0,
                "co" => cfg.coalesce = num()? != 0,
                "ir" => cfg.instant = num()? != 0,
                "mt" => cfg.mt = num()? != 0,
                other => return Err(format!("unknown cfg key {other:?}")),
            }
        }
        if cfg.nodes == 0 || cfg.txns == 0 || cfg.ops_per_txn == 0 || cfg.window == 0 {
            return Err(format!("incomplete cfg {s:?}"));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_deterministic_and_varies() {
        assert_eq!(VoprConfig::draw(9), VoprConfig::draw(9));
        let distinct: std::collections::BTreeSet<String> =
            (0..50).map(|s| VoprConfig::draw(s).encode()).collect();
        assert!(distinct.len() > 30, "seeds should spread over the scenario space");
    }

    #[test]
    fn encode_decode_round_trips() {
        for seed in 0..200 {
            let cfg = VoprConfig::draw(seed);
            let back = VoprConfig::decode(&cfg.encode()).expect("round trip");
            assert_eq!(cfg, back, "seed {seed}");
        }
    }

    #[test]
    fn decode_defaults_new_knobs_off() {
        // A repro line recorded before `ir:`/`mt:` existed must replay
        // the scenario it was recorded under.
        let cfg = VoprConfig::decode(
            "p:SE,n:4,t:12,o:4,rf:20,sh:60,ss:16,zf:95,ix:25,ck:5,w:1,d:0,elr:0,co:1",
        )
        .expect("pre-knob line decodes");
        assert!(!cfg.instant);
        assert!(!cfg.mt);
    }

    #[test]
    fn draw_never_combines_mt_with_elr() {
        let mut saw_mt = false;
        for seed in 0..400 {
            let cfg = VoprConfig::draw(seed);
            assert!(!(cfg.mt && cfg.elr), "seed {seed}: mt drawn under ELR");
            saw_mt |= cfg.mt;
        }
        assert!(saw_mt, "the mt knob never fires across 400 seeds");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(VoprConfig::decode("p:XX,n:4").is_err());
        assert!(VoprConfig::decode("nonsense").is_err());
        assert!(VoprConfig::decode("p:SE,n:4,bogus:1").is_err());
    }
}

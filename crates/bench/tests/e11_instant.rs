//! E11 acceptance gate: instant restart must reach its first post-crash
//! commit ≥3× sooner than the stop-the-world eager restart on an
//! E7b-scale history, while converging to a byte-identical end state and
//! performing the same total redo work (within 10%).
//!
//! The bound was 5× while the eager restart read every crash-lost page on
//! the recovery node alone. Since the eager plan's page reads are striped
//! over the live nodes between two barriers (DESIGN §9, "Who reads the
//! pages at restart"), the eager restart is about 5× cheaper at this scale
//! (VolatileSelectiveRedo 69.08 M → 13.90 M cycles) and the instant one is
//! unchanged (it reads its pages past the open, where it always did: 4.27
//! M), so the ratio fell from 16× to 3.25× (Stable LBM 3.18×, Redo All
//! 7.2×). The gate measures how much sooner the database opens, and an
//! early open still wins by more than 3× under every protocol; the eager
//! side got faster, not the instant side slower.
//!
//! All gates run on deterministic simulated quantities — TTFT in
//! simulated cycles, redo counts, and value digests — never wall-clock.

use smdb_bench::e11_instant_restart;

#[test]
fn instant_restart_opens_3x_sooner_with_identical_end_state() {
    let pts = e11_instant_restart(600, 50);
    assert_eq!(pts.len(), 8, "4 IFA protocols x {{eager, instant}}");
    for pair in pts.chunks(2) {
        let (eager, instant) = (&pair[0], &pair[1]);
        assert_eq!(eager.protocol, instant.protocol);
        assert!(!eager.instant && instant.instant, "{}: cell order", eager.protocol);
        println!(
            "{}: ttft {} -> {} ({}x), recovery {} -> {}, redo {} -> {} \
             (on-demand {}, background {}, stable-skip {})",
            eager.protocol,
            eager.ttft_cycles,
            instant.ttft_cycles,
            eager.ttft_cycles / instant.ttft_cycles.max(1),
            eager.recovery_cycles,
            instant.recovery_cycles,
            eager.redo_total,
            instant.redo_total,
            instant.redo_on_demand,
            instant.redo_background,
            instant.redo_skipped_stable
        );
        // Headline availability gate: >= 3x lower time-to-first-txn.
        assert!(
            instant.ttft_cycles * 3 <= eager.ttft_cycles,
            "{}: TTFT {} -> {} cycles, expected >= 3x lower",
            eager.protocol,
            eager.ttft_cycles,
            instant.ttft_cycles
        );
        // The drain actually ran and did deferred work.
        assert!(
            instant.redo_on_demand + instant.redo_background > 0,
            "{}: no deferred redo was applied",
            eager.protocol
        );
        // End-state equivalence: byte-identical to eager, and both match
        // the committed-data shadow oracle.
        assert_eq!(
            eager.state_digest, instant.state_digest,
            "{}: drained end state diverged from eager recovery",
            eager.protocol
        );
        assert!(eager.matches_committed, "{}: eager state vs oracle", eager.protocol);
        assert!(instant.matches_committed, "{}: instant state vs oracle", eager.protocol);
        // Total redo work within 10% of the eager pass: deferral shifts
        // the work in time, it must not multiply it.
        let (a, b) = (eager.redo_total, instant.redo_total);
        assert!(
            10 * a.abs_diff(b) <= a.max(b),
            "{}: redo work {} -> {}, expected within 10%",
            eager.protocol,
            a,
            b
        );
    }
}

//! Who reads which log of a restart's analysis scan: [`assign_scanners`]
//! over the per-log covered lengths, the composition `SmDb::recover` runs.

use proptest::prelude::*;
use smdb_sim::NodeId;
use smdb_wal::assign_scanners;

fn nodes(ids: &[u16]) -> Vec<NodeId> {
    ids.iter().copied().map(NodeId).collect()
}

/// Records each reader of `shares` visits.
fn loads(covered: &[u64], shares: &[Vec<NodeId>]) -> Vec<u64> {
    shares.iter().map(|logs| logs.iter().map(|l| covered[l.0 as usize]).sum()).collect()
}

#[test]
fn a_live_node_reads_its_own_log_and_the_dead_log_goes_to_the_shortest() {
    // Node 0 is down; node 2 has the shortest log of its own.
    let covered = [500, 900, 300, 700];
    let shares = assign_scanners(&covered, &nodes(&[1, 2, 3]));
    assert_eq!(shares, vec![nodes(&[1]), nodes(&[2, 0]), nodes(&[3])]);
    assert_eq!(loads(&covered, &shares), vec![900, 800, 700]);
}

#[test]
fn two_dead_logs_go_longest_first_to_the_least_loaded() {
    // Nodes 1 and 4 are down. The longer (node 4: 600) goes first, to the
    // idlest reader (node 2: 100 → 700); node 1's 400 then goes to node 0
    // (200 → 600), not on top of node 2.
    let covered = [200, 400, 100, 650, 600];
    let shares = assign_scanners(&covered, &nodes(&[0, 2, 3]));
    assert_eq!(shares, vec![nodes(&[0, 1]), nodes(&[2, 4]), nodes(&[3])]);
    assert_eq!(loads(&covered, &shares), vec![600, 700, 650]);
}

#[test]
fn ties_go_to_the_lowest_id_on_both_sides() {
    // Equal dead logs (1 and 3) in id order, equal readers in id order.
    let covered = [10, 50, 10, 50];
    let shares = assign_scanners(&covered, &nodes(&[0, 2]));
    assert_eq!(shares, vec![nodes(&[0, 1]), nodes(&[2, 3])]);
}

#[test]
fn one_live_node_reads_everything() {
    let covered = [7, 0, 9, 4];
    let shares = assign_scanners(&covered, &nodes(&[2]));
    // Its own first, then the others longest first; the empty log is nobody's.
    assert_eq!(shares, vec![nodes(&[2, 0, 3])]);
    assert_eq!(loads(&covered, &shares), vec![20]);
}

#[test]
fn after_a_machine_wide_outage_the_rebooted_node_reads_every_stable_prefix() {
    let covered = [120, 80, 200, 40, 0, 10, 90, 60];
    let shares = assign_scanners(&covered, &nodes(&[0]));
    assert_eq!(shares, vec![nodes(&[0, 2, 6, 1, 7, 3, 5])]);
    assert_eq!(loads(&covered, &shares), vec![covered.iter().sum::<u64>()]);
}

#[test]
fn nothing_covered_or_nobody_live_assigns_nothing() {
    assert_eq!(assign_scanners(&[0, 0, 0], &nodes(&[0, 2])), vec![vec![], vec![]]);
    assert_eq!(assign_scanners(&[5, 6], &[]), Vec::<Vec<NodeId>>::new());
}

proptest! {
    #[test]
    fn assignment_rules_hold(
        covered in proptest::collection::vec(prop_oneof![Just(0u64), 1..5_000u64], 8..9),
        up in 1..256u32,
    ) {
        let is_up = |n: u16| up & (1 << n) != 0;
        let live: Vec<NodeId> = (0..8u16).filter(|&n| is_up(n)).map(NodeId).collect();
        let shares = assign_scanners(&covered, &live);
        prop_assert_eq!(&shares, &assign_scanners(&covered, &live), "same input, same output");
        prop_assert_eq!(shares.len(), live.len(), "one share per live node, none for a down one");

        // Every log with something covered is read exactly once.
        let mut read: Vec<NodeId> = shares.iter().flatten().copied().collect();
        read.sort();
        let retained: Vec<NodeId> =
            (0..8u16).filter(|&n| covered[n as usize] > 0).map(NodeId).collect();
        prop_assert_eq!(read, retained);

        // The shares sum to the scan.
        let per_reader = loads(&covered, &shares);
        prop_assert_eq!(per_reader.iter().sum::<u64>(), covered.iter().sum::<u64>());

        for (&reader, logs) in live.iter().zip(&shares) {
            // A live node reads its own log, first, and no other live node's.
            if covered[reader.0 as usize] > 0 {
                prop_assert_eq!(logs.first(), Some(&reader));
            }
            prop_assert!(logs.iter().all(|&l| l == reader || !is_up(l.0)));
            // The dead logs it was handed came longest first.
            let handed: Vec<u64> =
                logs.iter().filter(|&&l| l != reader).map(|l| covered[l.0 as usize]).collect();
            prop_assert!(handed.windows(2).all(|w| w[0] >= w[1]));
        }

        // Least-loaded: when a reader was handed its last dead log it had
        // the fewest records of anyone, and loads only grow.
        for ((&reader, logs), &load) in live.iter().zip(&shares).zip(&per_reader) {
            if let Some(last) = logs.last().filter(|&&l| l != reader) {
                let before = load - covered[last.0 as usize];
                prop_assert!(per_reader.iter().all(|&other| before <= other));
            }
        }
    }
}

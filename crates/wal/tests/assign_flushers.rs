//! Who flushes which page of a checkpoint: [`assign_flushers`] over the
//! [`PageLsnTable`]'s dirty walk, the composition `SmDb::checkpoint` runs —
//! and who reads which page of an eager restart: the same function over
//! pages nobody updated.

use proptest::prelude::*;
use smdb_sim::NodeId;
use smdb_storage::PageId;
use smdb_wal::{assign_flushers, Lsn, PageLsnTable};

fn table(updates: &[(u32, u16)]) -> PageLsnTable {
    let mut t = PageLsnTable::new();
    for (i, &(page, node)) in updates.iter().enumerate() {
        t.note_update(PageId(page), NodeId(node), Lsn(i as u64 + 1));
    }
    t
}

fn assign(t: &PageLsnTable, live: &[NodeId]) -> Vec<Vec<PageId>> {
    assign_flushers(t.dirty().map(|(page, by)| (page, by.map(|(n, _)| n))), live)
}

fn nodes(ids: &[u16]) -> Vec<NodeId> {
    ids.iter().copied().map(NodeId).collect()
}

fn pages(ids: &[u32]) -> Vec<PageId> {
    ids.iter().copied().map(PageId).collect()
}

#[test]
fn pages_go_round_the_nodes_that_did_not_write_them() {
    // Node 0 wrote pages 1-4, node 1 page 5, nodes 1 and 2 page 6.
    let t = table(&[(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (6, 2)]);
    let shares = assign(&t, &nodes(&[0, 1, 2]));
    // 1 → n1, 2 → n2, 3 → n1 (tie, lowest id), 4 → n2, 5 → n0 (empty),
    // 6 → n0 (the only non-updater, though the fullest would tie).
    assert_eq!(shares, vec![pages(&[5, 6]), pages(&[1, 3]), pages(&[2, 4])]);
}

#[test]
fn a_page_every_live_node_wrote_goes_to_the_least_loaded() {
    let t = table(&[(1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]);
    let shares = assign(&t, &nodes(&[0, 1]));
    assert_eq!(shares, vec![pages(&[1, 3]), pages(&[2])]);
}

#[test]
fn a_down_node_flushes_nothing_and_excludes_nothing() {
    // Node 1 is down: its pages are anyone's, and it is never a flusher.
    let t = table(&[(1, 1), (2, 1), (3, 0), (4, 1)]);
    let shares = assign(&t, &nodes(&[0, 2]));
    assert_eq!(shares, vec![pages(&[1, 4]), pages(&[2, 3])]);
}

#[test]
fn one_live_node_flushes_the_dirty_set_in_page_order() {
    let t = table(&[(9, 0), (3, 1), (3, 0), (7, 2)]);
    assert_eq!(assign(&t, &nodes(&[0])), vec![pages(&[3, 7, 9])]);
    assert_eq!(assign(&t, &[]), Vec::<Vec<PageId>>::new());
    assert_eq!(assign(&PageLsnTable::new(), &nodes(&[0, 1])), vec![vec![], vec![]]);
}

/// A restart's page reads: nobody updated anything, so the pages go round
/// the live nodes in page order, the lowest id first on every lap.
#[test]
fn with_no_updaters_the_pages_go_round_the_live_nodes() {
    let reads = |pages: &[u32], live: &[u16]| {
        assign_flushers(pages.iter().map(|&p| (PageId(p), [])), &nodes(live))
    };
    let shares = reads(&[2, 3, 5, 7, 11, 13, 17], &[1, 2, 3]);
    assert_eq!(shares, vec![pages(&[2, 7, 17]), pages(&[3, 11]), pages(&[5, 13])]);
    assert_eq!(reads(&[4, 9], &[0, 2, 5]), vec![pages(&[4]), pages(&[9]), vec![]]);
    assert_eq!(reads(&[4, 9, 10], &[6]), vec![pages(&[4, 9, 10])]);
}

proptest! {
    #[test]
    fn with_no_updaters_the_shares_differ_by_at_most_one(
        pages in proptest::collection::vec(0..200u32, 0..80),
        up in 1..256u32,
    ) {
        let pages: std::collections::BTreeSet<u32> = pages.into_iter().collect();
        let live: Vec<NodeId> = (0..8u16).filter(|&n| up & (1 << n) != 0).map(NodeId).collect();
        let shares = assign_flushers(pages.iter().map(|&p| (PageId(p), [])), &live);
        // Every page exactly once, each share in page order.
        let mut all: Vec<PageId> = shares.iter().flatten().copied().collect();
        all.sort();
        prop_assert_eq!(all, pages.iter().copied().map(PageId).collect::<Vec<_>>());
        // The first `pages % live` nodes by id carry one page more.
        let (n, k) = (pages.len(), live.len());
        for (i, share) in shares.iter().enumerate() {
            prop_assert!(share.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(share.len(), n / k + usize::from(i < n % k), "share {}", i);
        }
    }

    #[test]
    fn assignment_rules_hold(
        updates in proptest::collection::vec((0..40u32, 0..8u16), 0..120),
        up in 1..256u32,
        only_down_writers in any::<bool>(),
    ) {
        let is_up = |n: u16| up & (1 << n) != 0;
        let live: Vec<NodeId> = (0..8u16).filter(|&n| is_up(n)).map(NodeId).collect();
        // Half the cases keep only the down nodes' updates, so that no page
        // excludes a flusher and the balance rule below has something to say.
        let updates: Vec<(u32, u16)> =
            updates.into_iter().filter(|&(_, n)| !(only_down_writers && is_up(n))).collect();
        let t = table(&updates);
        let shares = assign(&t, &live);
        prop_assert_eq!(&shares, &assign(&t, &live), "same input, same output");
        prop_assert_eq!(shares.len(), live.len(), "one share per live node, none for a down one");

        // Every dirty page exactly once, each share in page order.
        let mut all: Vec<PageId> = shares.iter().flatten().copied().collect();
        all.sort();
        prop_assert_eq!(all, t.dirty_pages().collect::<Vec<_>>());
        for share in &shares {
            prop_assert!(share.windows(2).all(|w| w[0] < w[1]));
        }

        // Never an updater while a live non-updater exists.
        let wrote = |node: NodeId, page: PageId| t.updaters(page).any(|(n, _)| n == node);
        for (&flusher, share) in live.iter().zip(&shares) {
            for &page in share {
                let spare = live.iter().any(|&n| !wrote(n, page));
                prop_assert!(!spare || !wrote(flusher, page), "{flusher:?} flushes its own {page:?}");
            }
        }

        // Where no page excludes anyone, the loads differ by at most one.
        if !t.dirty_pages().any(|p| live.iter().any(|&n| wrote(n, p))) {
            let loads = shares.iter().map(Vec::len);
            prop_assert!(loads.clone().max().unwrap() - loads.min().unwrap() <= 1);
        }

        // One live node: today's behaviour, the dirty set in page order.
        if live.len() == 1 {
            prop_assert_eq!(&shares[0], &t.dirty_pages().collect::<Vec<_>>());
        }
    }
}

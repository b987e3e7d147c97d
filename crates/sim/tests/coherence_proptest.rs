//! Property tests for the coherence protocol: the simulator must behave
//! like a sequentially consistent single-writer/multi-reader memory under
//! arbitrary operation interleavings, and crashes must destroy exactly
//! the lines whose only copies lived on failed nodes.

use proptest::prelude::*;
use rand::prelude::*;
use smdb_sim::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_sim::{
    CoherenceKind, LineId, Machine, MemError, NodeId, SimConfig, SpanResidency, TriggerEvent,
    FAULT_INVALIDATE, FAULT_MIGRATE, STRIPES,
};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Read {
        node: u16,
        line: u64,
    },
    Write {
        node: u16,
        line: u64,
        byte: u8,
    },
    Lock {
        node: u16,
        line: u64,
    },
    Unlock {
        node: u16,
        line: u64,
    },
    Crash {
        node: u16,
    },
    Reboot {
        node: u16,
    },
    /// Recovery's reinstall of a line (lost or not).
    Install {
        node: u16,
        line: u64,
        byte: u8,
    },
    /// Recovery forgets a lost line, and the line is created afresh (in
    /// the slot just freed, when the free list hands it back).
    Forget {
        node: u16,
        line: u64,
    },
}

fn op_strategy(nodes: u16, lines: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..nodes, 0..lines).prop_map(|(node, line)| Op::Read { node, line }),
        4 => (0..nodes, 0..lines, any::<u8>())
            .prop_map(|(node, line, byte)| Op::Write { node, line, byte }),
        1 => (0..nodes, 0..lines).prop_map(|(node, line)| Op::Lock { node, line }),
        1 => (0..nodes, 0..lines).prop_map(|(node, line)| Op::Unlock { node, line }),
        1 => (0..nodes).prop_map(|node| Op::Crash { node }),
        1 => (0..nodes).prop_map(|node| Op::Reboot { node }),
        1 => (0..nodes, 0..lines, any::<u8>())
            .prop_map(|(node, line, byte)| Op::Install { node, line, byte }),
        1 => (0..nodes, 0..lines).prop_map(|(node, line)| Op::Forget { node, line }),
    ]
}

/// Reference model: last written byte per line, plus which nodes hold a
/// copy (to predict crash-induced loss).
#[derive(Default)]
struct Model {
    /// line → last written first byte, None once lost.
    values: BTreeMap<u64, Option<u8>>,
}

fn run_model(kind: CoherenceKind, ops: Vec<Op>) -> Result<(), TestCaseError> {
    const NODES: u16 = 4;
    let mut m = Machine::new(SimConfig { coherence: kind, ..SimConfig::new(NODES) });
    let mut model = Model::default();
    // Pre-create every line on node 0 with value 0.
    for l in 0..8u64 {
        m.create_line_at(NodeId(0), LineId(l), &[0]).expect("create");
        model.values.insert(l, Some(0));
    }
    let mut locked: BTreeMap<u64, u16> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Read { node, line } => {
                let mut b = [0u8];
                match m.read_into(NodeId(node), LineId(line), 0, &mut b) {
                    Ok(()) => {
                        let expected = model.values[&line];
                        prop_assert_eq!(
                            Some(b[0]),
                            expected,
                            "read of l{} on n{} saw {} expected {:?}",
                            line,
                            node,
                            b[0],
                            expected
                        );
                    }
                    Err(MemError::Stalled { .. }) => {
                        prop_assert!(
                            locked.get(&line).map(|h| *h != node).unwrap_or(false),
                            "spurious stall"
                        );
                    }
                    Err(MemError::LineLost { .. }) => {
                        prop_assert_eq!(model.values[&line], None, "spurious loss report");
                    }
                    Err(MemError::NodeCrashed { .. }) => {
                        prop_assert!(m.is_crashed(NodeId(node)));
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
            }
            Op::Write { node, line, byte } => {
                match m.write(NodeId(node), LineId(line), 0, &[byte]) {
                    Ok(()) => {
                        model.values.insert(line, Some(byte));
                        // Single-writer invariant under write-invalidate:
                        // the writer is the sole holder.
                        if kind == CoherenceKind::WriteInvalidate {
                            prop_assert_eq!(m.holders(LineId(line)), vec![NodeId(node)]);
                        } else {
                            // Broadcast: every holder's copy agrees.
                            for h in m.holders(LineId(line)) {
                                let c = m.peek_local(*h, LineId(line)).expect("holder has copy");
                                prop_assert_eq!(c[0], byte);
                            }
                        }
                    }
                    Err(MemError::Stalled { .. })
                    | Err(MemError::LineLost { .. })
                    | Err(MemError::NodeCrashed { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
                }
            }
            Op::Lock { node, line } => {
                if let Ok(()) = m.getline(NodeId(node), LineId(line)) {
                    locked.insert(line, node);
                }
            }
            Op::Unlock { node, line } => {
                if let Ok(()) = m.releaseline(NodeId(node), LineId(line)) {
                    locked.remove(&line);
                }
            }
            Op::Crash { node } => {
                let report = m.crash(&[NodeId(node)]);
                for l in report.lost_lines {
                    model.values.insert(l.0, None);
                }
                for l in report.broken_line_locks {
                    locked.remove(&l.0);
                }
                locked.retain(|_, h| *h != node);
            }
            Op::Reboot { node } => {
                // Rebooting a live node is a power-cycle (destroys its
                // cache); the model only tracks clean restarts of crashed
                // nodes, so restrict to those here.
                if m.is_crashed(NodeId(node)) {
                    m.reboot_node(NodeId(node));
                }
            }
            Op::Install { node, line, byte } => {
                if m.install_line(NodeId(node), LineId(line), &[byte]).is_ok() {
                    model.values.insert(line, Some(byte));
                    locked.remove(&line);
                }
            }
            Op::Forget { node, line } => {
                if m.is_lost(LineId(line)) && !m.is_crashed(NodeId(node)) {
                    m.clear_lost(LineId(line));
                    m.create_line_at(NodeId(node), LineId(line), &[0]).expect("recreate");
                    model.values.insert(line, Some(0));
                }
            }
        }
        // Global invariants after every step.
        //
        // Structural invariants of the flat line store first: the
        // open-addressed index maps every live slot back to itself, holder
        // sets are sorted/deduped, lost ⇔ no holders, no crashed node
        // appears in any holder set, and slot/free-list/arena accounting
        // balances (the "directory matches surviving caches" property —
        // with the flat representation the directory *is* the cache state,
        // and this checks its internal consistency after crash+restore).
        m.validate_flat();
        // The lost half of the directory is served from the lines the
        // crashes collected: it must be what a walk of every slot finds
        // (`validate_flat` above), and what the per-line probe finds.
        let lost: Vec<LineId> = m.iter_lost().collect();
        let probed: Vec<LineId> = (0..8).map(LineId).filter(|l| m.is_lost(*l)).collect();
        prop_assert_eq!(lost, probed, "iter_lost disagrees with the is_lost probe");
        for l in 0..8u64 {
            let line = LineId(l);
            let holders = m.holders(line);
            // Single-owner (M-state) invariant: exclusive_owner is reported
            // iff exactly one node holds the line, and vice versa.
            if let Some(owner) = m.exclusive_owner(line) {
                prop_assert_eq!(holders, vec![owner], "exclusive ⇒ sole holder");
            } else {
                prop_assert!(holders.len() != 1, "sole holder of l{l} not reported exclusive");
            }
            // Holder slices are sorted ascending (the old BTreeSet order).
            prop_assert!(
                holders.windows(2).all(|w| w[0] < w[1]),
                "holders of l{l} unsorted: {holders:?}"
            );
            // Only surviving nodes hold copies.
            for h in holders {
                prop_assert!(!m.is_crashed(*h), "crashed node {h:?} holds l{l}");
            }
            // All valid copies agree byte-for-byte.
            let copies: Vec<u8> =
                holders.iter().filter_map(|h| m.peek_local(*h, line).map(|c| c[0])).collect();
            prop_assert!(
                copies.windows(2).all(|w| w[0] == w[1]),
                "copies of l{l} diverge: {copies:?}"
            );
            // Lost ⇔ model lost (unless recreated, which we never do here).
            if model.values[&l].is_none() {
                prop_assert!(
                    m.is_lost(line) || !m.line_exists(line),
                    "model lost l{l} but machine still serves it"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn write_invalidate_coherence(ops in proptest::collection::vec(op_strategy(4, 8), 1..120)) {
        run_model(CoherenceKind::WriteInvalidate, ops)?;
    }

    #[test]
    fn write_broadcast_coherence(ops in proptest::collection::vec(op_strategy(4, 8), 1..120)) {
        run_model(CoherenceKind::WriteBroadcast, ops)?;
    }
}

// ----------------------------------------------------------------------
// Span operations ≡ their per-line sequences
// ----------------------------------------------------------------------
//
// Every `*_span` operation is defined as the sequence of its single-line
// calls in address order, stopping at the first error. The lockstep
// property builds two identical machines from one random script, runs
// the span operation on one and that per-line sequence on the other, and
// demands the same result *and* the same machine afterwards: directory,
// data, statistics, every node clock, the event bus, the fault injector's
// record, and the bytes copied before an error.

const SPAN_NODES: u16 = 4;
const SPAN_LINES: u64 = 72;
const SPAN_LINE_SIZE: usize = 16;

/// One random machine, fully determined by `seed`: both coherence kinds,
/// stripes short enough that spans cross them, a lane machine owning only
/// some stripes half of the time, and in the line range a mix of
/// never-created, shared, migrated, line-locked, active, crash-lost and
/// pending-redo lines. The range is `base..base + SPAN_LINES`: half of
/// the cases start it one stripe before the wrap from the last stripe
/// back to stripe 0, and at a one-line granule the range holds more
/// pieces than there are stripes, so two pieces share a stripe.
fn span_machine(seed: u64) -> (Machine, bool, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = if rng.gen_bool(0.5) {
        CoherenceKind::WriteInvalidate
    } else {
        CoherenceKind::WriteBroadcast
    };
    let cfg = SimConfig { coherence: kind, ..SimConfig::new(SPAN_NODES) }
        .with_line_size(SPAN_LINE_SIZE)
        .with_stall_on_lost(rng.gen_bool(0.3))
        .with_stripe_lines([1, 2, 4, 32][rng.gen_range(0..4usize)]);
    let base = if rng.gen_bool(0.5) { (STRIPES as u64 - 1) * cfg.stripe_lines } else { 0 };
    let mut m = Machine::new(cfg);
    // Residency: mostly whole runs installed in address order (adjacent
    // slots, as a page fault leaves them), some created out of order,
    // some absent.
    let mut l = 0;
    while l < SPAN_LINES {
        let run = rng.gen_range(1..10u64).min(SPAN_LINES - l);
        match rng.gen_range(0..10u32) {
            0 => {}
            1 | 2 => {
                for k in (0..run).rev() {
                    let byte = rng.gen::<u8>();
                    let line = LineId(base + l + k);
                    m.create_line_at(NodeId(rng.gen_range(0..SPAN_NODES)), line, &[byte]).unwrap();
                }
            }
            _ => {
                let img: Vec<u8> =
                    (0..run as usize * SPAN_LINE_SIZE).map(|_| rng.gen::<u8>()).collect();
                m.install_span(NodeId(rng.gen_range(0..SPAN_NODES)), LineId(base + l), &img)
                    .unwrap();
            }
        }
        l += run;
    }
    // Sharing history. Errors (a line-locked or absent line) are part of
    // the script: both twins hit the same ones.
    for _ in 0..rng.gen_range(0..120usize) {
        let node = NodeId(rng.gen_range(0..SPAN_NODES));
        let line = LineId(base + rng.gen_range(0..SPAN_LINES));
        match rng.gen_range(0..12u32) {
            0..=3 => {
                let _ = m.read_into(node, line, 0, &mut [0u8; 3]);
            }
            4..=6 => {
                let _ = m.write(node, line, 1, &[rng.gen::<u8>()]);
            }
            7 => {
                let _ = m.getline(node, line);
            }
            8 => {
                let _ = m.releaseline(node, line);
            }
            9 | 10 => m.set_active(line, node),
            // (Dropping the copy under a line lock is not a state the
            // engine produces.)
            _ if m.line_lock_holder(line).is_none() => {
                let _ = m.discard(node, line);
            }
            _ => {}
        }
    }
    if rng.gen_bool(0.5) {
        m.crash(&[NodeId(rng.gen_range(0..SPAN_NODES))]);
    }
    // A lane owns only some stripes: everything else is foreign. (Lanes
    // refuse pending-redo marks at the split, so those come after.)
    let lane = rng.gen_bool(0.5);
    if lane {
        let stripes: Vec<u32> = (0..STRIPES as u32).filter(|_| rng.gen_bool(0.7)).collect();
        m = m.lane_split(&stripes);
    }
    for _ in 0..rng.gen_range(0..4usize) {
        m.mark_unrecovered(LineId(base + rng.gen_range(0..SPAN_LINES)));
    }
    m.obs().enable(4096);
    // A crash point somewhere among the coming migrations/invalidations.
    if rng.gen_bool(0.3) {
        let site = if rng.gen_bool(0.5) { FAULT_MIGRATE } else { FAULT_INVALIDATE };
        let fault = FaultInjector::new();
        fault.arm(FaultPlan::single(CrashPoint::new(site, rng.gen_range(0..6u64))));
        m.set_fault_injector(fault);
    }
    (m, lane, base)
}

/// Everything observable about a machine (the index probe count aside:
/// probing less is what the span walk is for).
fn machine_state(m: &Machine, base: u64) -> String {
    let mut out = format!("{:?}\n", m.stats());
    for n in 0..SPAN_NODES {
        out += &format!("n{n}: clock {} crashed {}\n", m.now(NodeId(n)), m.is_crashed(NodeId(n)));
    }
    let range = base..base + SPAN_LINES + 8;
    for l in range.clone() {
        let line = LineId(l);
        out += &format!(
            "l{l}: exists {} lost {} holders {:?} lock {:?} active {:?} unrecovered {} data {:?}\n",
            m.line_exists(line),
            m.is_lost(line),
            m.holders(line),
            m.line_lock_holder(line),
            m.active_owner(line),
            m.is_unrecovered(line),
            m.peek(line),
        );
    }
    // Slot order (which slot each line was given) shows in scan order.
    let walk: Vec<(NodeId, LineId)> = m.iter_held().map(|(n, l, _)| (n, l)).collect();
    out += &format!("held {walk:?}\n");
    // Asked about every address, `held_lines` finds the walk's lines, and
    // their positions put them in the walk's order.
    let all: Vec<LineId> = range.clone().map(LineId).collect();
    let mut asked: Vec<(u64, NodeId, LineId)> =
        m.held_lines(&all).map(|(n, at, l, _)| (at, n, l)).collect();
    asked.sort_unstable();
    let asked: Vec<(NodeId, LineId)> = asked.into_iter().map(|(_, n, l)| (n, l)).collect();
    assert_eq!(asked, walk, "held_lines disagrees with iter_held");
    // The lost half of the directory: the walk must find exactly what the
    // per-line probe finds, in address order.
    let lost: Vec<LineId> = m.iter_lost().collect();
    let probed: Vec<LineId> = range.map(LineId).filter(|l| m.is_lost(*l)).collect();
    assert_eq!(lost, probed, "iter_lost disagrees with the is_lost probe");
    out += &format!("lost {lost:?}\n");
    let fs = m.flat_stats();
    out += &format!(
        "flat: live {} slots {} free {} capacity {} reuse {}\n",
        fs.live_lines, fs.slots, fs.free_slots, fs.index_capacity, fs.buf_reuse
    );
    out += &format!("bus {:?}\n", m.obs().bus.snapshot());
    out += &format!("fired {:?}\n", m.fault_handle().fired());
    out
}

/// The byte chunks of a span transfer: (line, offset within it, byte
/// range of the transfer). The first line takes what fits after `offset`
/// (nothing, for an empty transfer or `offset == line size`).
fn span_chunks(
    first: u64,
    offset: usize,
    len: usize,
) -> Vec<(LineId, usize, std::ops::Range<usize>)> {
    let head = len.min(SPAN_LINE_SIZE - offset);
    let mut chunks = vec![(LineId(first), offset, 0..head)];
    let mut done = head;
    while done < len {
        let n = (len - done).min(SPAN_LINE_SIZE);
        chunks.push((LineId(first + chunks.len() as u64), 0, done..done + n));
        done += n;
    }
    chunks
}

fn span_lockstep(seed: u64) -> Result<(), TestCaseError> {
    let ((mut span, lane, base), (mut per_line, ..)) = (span_machine(seed), span_machine(seed));
    let state = |m: &Machine| machine_state(m, base);
    prop_assert_eq!(state(&span), state(&per_line), "twins differ before the op");
    // The operation draws from its own stream so both twins see the same.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let node = NodeId(rng.gen_range(0..SPAN_NODES + 1)); // one past: NoSuchNode
    let first = base + rng.gen_range(0..SPAN_LINES);
    let count = rng.gen_range(0..12usize);
    let offset = rng.gen_range(0..=SPAN_LINE_SIZE);
    let len = match rng.gen_range(0..4u32) {
        0 => 0,
        1 => rng.gen_range(0..=SPAN_LINE_SIZE),
        _ => rng.gen_range(0..9 * SPAN_LINE_SIZE),
    };
    let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
    // Clearing active bits outside a lane's stripes is a caller bug (a
    // debug assertion), not behaviour to compare.
    let op = match rng.gen_range(0..7u32) {
        3 if lane => 4,
        op => op,
    };
    match op {
        0 => {
            let (mut a, mut b) = (vec![0xEEu8; len], vec![0xEEu8; len]);
            let ra = span.read_span(node, LineId(first), offset, &mut a);
            let rb =
                span_chunks(first, offset, len).into_iter().try_for_each(|(line, within, r)| {
                    per_line.read_into(node, line, within, &mut b[r])
                });
            prop_assert_eq!(ra, rb, "read_span result");
            prop_assert_eq!(a, b, "bytes copied so far");
        }
        1 => {
            let ra = span.write_span(node, LineId(first), offset, &data);
            let rb = span_chunks(first, offset, len)
                .into_iter()
                .try_for_each(|(line, within, r)| per_line.write(node, line, within, &data[r]));
            prop_assert_eq!(ra, rb, "write_span result");
        }
        2 => {
            let ra = span.install_span(node, LineId(first), &data);
            let rb = span_chunks(first, 0, len)
                .into_iter()
                .try_for_each(|(line, _, r)| per_line.install_line(node, line, &data[r]));
            prop_assert_eq!(ra, rb, "install_span result");
        }
        3 => {
            span.clear_active_span(LineId(first), count);
            for l in first..first + count as u64 {
                per_line.clear_active(LineId(l));
            }
        }
        4 => {
            let mut want = SpanResidency::default();
            for l in first..first + count as u64 {
                want.lost += per_line.is_lost(LineId(l)) as usize;
                want.cached += per_line.probe_cached(LineId(l)) as usize;
            }
            prop_assert_eq!(span.span_residency(LineId(first), count), want);
        }
        5 => {
            span.discard_span(LineId(first), count);
            for l in first..first + count as u64 {
                while let Some(&holder) = per_line.holders(LineId(l)).first() {
                    per_line.discard(holder, LineId(l)).unwrap();
                }
            }
        }
        _ => {
            let is_write = rng.gen_bool(0.5);
            let want: Option<TriggerEvent> = (first..first + count as u64)
                .find_map(|l| per_line.pending_triggers(node, LineId(l), is_write));
            prop_assert_eq!(span.next_trigger(node, LineId(first), count, is_write), want);
        }
    }
    prop_assert_eq!(state(&span), state(&per_line), "op {} diverged", op);
    span.validate_flat();
    Ok(())
}

proptest! {
    // Default case count, so CI can raise it with PROPTEST_CASES.
    #[test]
    fn span_ops_equal_their_per_line_sequences(seed in any::<u64>()) {
        span_lockstep(seed)?;
    }
}

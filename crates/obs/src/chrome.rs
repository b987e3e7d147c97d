//! Chrome trace-event JSON exporter (Perfetto / `chrome://tracing`).
//!
//! Renders the event bus and the finished transaction spans into the
//! trace-event format: bus records become instant events (`ph:"i"`) on
//! pid 0, transaction spans become complete events (`ph:"X"`) on pid 1
//! with one track (`tid`) per node. Timestamps are raw simulated cycles
//! written into the `ts` field (one trace-µs per simulated cycle) — the
//! viewer's absolute units are wrong but every relative distance is
//! exact, which is what matters for a simulator.
//!
//! The output is deterministic for a deterministic run: fields are
//! written in a fixed order, one event per line, and the bus carries
//! simulated time only — golden-file tests diff the bytes.

use crate::bus::{Event, ForceReason, Record};
use crate::span::{FinishedSpan, Stage};
use std::fmt::Write as _;

fn reason_str(r: ForceReason) -> &'static str {
    match r {
        ForceReason::Commit => "commit",
        ForceReason::Lbm => "lbm",
        ForceReason::PageFlush => "page_flush",
        ForceReason::Checkpoint => "checkpoint",
    }
}

/// The node a bus event is charged to (its `tid` track); machine-wide
/// events (crash, recovery) run on track 0.
fn event_tid(e: &Event) -> u16 {
    match e {
        Event::ReadHit { node, .. }
        | Event::ReadRemote { node, .. }
        | Event::WriteLocal { node, .. }
        | Event::WriteTake { node, .. }
        | Event::WriteBroadcast { node, .. }
        | Event::LineLock { node, .. }
        | Event::LineUnlock { node, .. }
        | Event::Install { node, .. }
        | Event::LockAcquire { node, .. }
        | Event::LockWouldBlock { node, .. }
        | Event::LockRelease { node, .. }
        | Event::WalAppend { node, .. }
        | Event::WalForce { node, .. }
        | Event::BufSteal { node, .. }
        | Event::BufFlush { node, .. } => *node,
        Event::LbmTriggeredForce { owner, .. } => *owner,
        Event::CrashInjected { .. }
        | Event::RecoveryBegin { .. }
        | Event::RecoveryPhaseBegin { .. }
        | Event::RecoveryPhaseEnd { .. }
        | Event::RecoveryEnd { .. } => 0,
    }
}

/// Event payload as deterministic JSON args (fixed field order).
fn write_event_args(out: &mut String, e: &Event) {
    match e {
        Event::ReadHit { line, .. }
        | Event::WriteLocal { line, .. }
        | Event::LineLock { line, .. }
        | Event::LineUnlock { line, .. }
        | Event::Install { line, .. } => {
            let _ = write!(out, "\"line\":{line}");
        }
        Event::ReadRemote { line, downgraded, .. } => {
            let _ = write!(out, "\"line\":{line},\"downgraded\":{}", *downgraded as u8);
        }
        Event::WriteTake { line, invalidated, migration, .. } => {
            let _ = write!(
                out,
                "\"line\":{line},\"invalidated\":{invalidated},\"migration\":{}",
                *migration as u8
            );
        }
        Event::WriteBroadcast { line, updated, .. } => {
            let _ = write!(out, "\"line\":{line},\"updated\":{updated}");
        }
        Event::CrashInjected { nodes, lost_lines } => {
            let _ = write!(out, "\"nodes\":{nodes},\"lost_lines\":{lost_lines}");
        }
        Event::LockAcquire { txn, name, exclusive, .. } => {
            let _ = write!(out, "\"txn\":{txn},\"lock\":{name},\"exclusive\":{}", *exclusive as u8);
        }
        Event::LockWouldBlock { txn, name, .. } => {
            let _ = write!(out, "\"txn\":{txn},\"lock\":{name}");
        }
        Event::LockRelease { txn, name, held_cycles, .. } => {
            let _ = write!(out, "\"txn\":{txn},\"lock\":{name},\"held_cycles\":{held_cycles}");
        }
        Event::WalAppend { lsn, .. } => {
            let _ = write!(out, "\"lsn\":{lsn}");
        }
        Event::WalForce { records, reason, .. } => {
            let _ = write!(out, "\"records\":{records},\"reason\":\"{}\"", reason_str(*reason));
        }
        Event::LbmTriggeredForce { line, .. } => {
            let _ = write!(out, "\"line\":{line}");
        }
        Event::BufSteal { page, .. } | Event::BufFlush { page, .. } => {
            let _ = write!(out, "\"page\":{page}");
        }
        Event::RecoveryBegin { crashed, protocol } => {
            let _ = write!(out, "\"crashed\":{crashed},\"protocol\":\"{protocol}\"");
        }
        Event::RecoveryPhaseBegin { phase } => {
            let _ = write!(out, "\"phase\":\"{phase}\"");
        }
        Event::RecoveryPhaseEnd { phase, sim_cycles } => {
            let _ = write!(out, "\"phase\":\"{phase}\",\"sim_cycles\":{sim_cycles}");
        }
        Event::RecoveryEnd { sim_cycles } => {
            let _ = write!(out, "\"sim_cycles\":{sim_cycles}");
        }
    }
}

fn write_record(out: &mut String, r: &Record) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"bus\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{\"seq\":{}",
        r.event.kind(),
        r.at,
        event_tid(&r.event),
        r.seq
    );
    let mut args = String::new();
    write_event_args(&mut args, &r.event);
    if !args.is_empty() {
        out.push(',');
        out.push_str(&args);
    }
    out.push_str("}}");
}

fn write_span(out: &mut String, s: &FinishedSpan) {
    // TxnId packs the home node in the high 16 bits and a per-node
    // sequence in the low 48; mirror core's `tN.S` display for readable
    // slice names without depending on the sim crate.
    let seq = s.txn & ((1u64 << 48) - 1);
    let _ = write!(
        out,
        "{{\"name\":\"t{}.{}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"committed\":{}",
        s.node,
        seq,
        s.begin_at,
        s.latency(),
        s.node,
        s.committed as u8
    );
    for stage in Stage::ALL {
        let _ = write!(out, ",\"{}\":{}", stage.name(), s.stage_cycles[stage.index()]);
    }
    let _ = write!(out, ",\"attributed\":{}}}}}", s.attributed());
}

/// Render bus records and finished spans as one Chrome trace-event JSON
/// document (`{"displayTimeUnit":"ms","traceEvents":[...]}`), loadable in
/// Perfetto. Output is byte-deterministic for a deterministic run.
pub fn chrome_trace(records: &[Record], spans: &[FinishedSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    sep(&mut out);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"event bus\"}}",
    );
    sep(&mut out);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"transactions\"}}",
    );
    for r in records {
        sep(&mut out);
        write_record(&mut out, r);
    }
    for s in spans {
        sep(&mut out);
        write_span(&mut out, s);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::STAGES;

    fn record(seq: u64, at: u64, event: Event) -> Record {
        Record { seq, at, event }
    }

    #[test]
    fn trace_has_metadata_instants_and_spans() {
        let records = vec![
            record(0, 10, Event::LineLock { node: 2, line: 7 }),
            record(1, 20, Event::WalForce { node: 2, records: 3, reason: ForceReason::Commit }),
        ];
        let spans = vec![FinishedSpan {
            txn: (2u64 << 48) | 5,
            node: 2,
            begin_at: 5,
            end_at: 105,
            committed: true,
            stage_cycles: [1, 2, 3, 4, 5],
        }];
        let json = chrome_trace(&records, &spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"name\":\"line_lock\""));
        assert!(json.contains("\"reason\":\"commit\""));
        assert!(json.contains("\"name\":\"t2.5\""));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"force_wait\":4"));
        assert!(json.contains("\"attributed\":15"));
    }

    #[test]
    fn output_is_deterministic() {
        let records = vec![record(0, 1, Event::ReadRemote { node: 1, line: 9, downgraded: true })];
        let spans = vec![FinishedSpan {
            txn: 1,
            node: 0,
            begin_at: 0,
            end_at: 10,
            committed: false,
            stage_cycles: [0; STAGES],
        }];
        assert_eq!(chrome_trace(&records, &spans), chrome_trace(&records, &spans));
    }
}

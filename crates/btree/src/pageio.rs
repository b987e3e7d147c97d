//! Coherent, WAL-respecting page I/O for tree pages.
//!
//! [`TreeCtx`] bundles the mutable machinery every tree operation needs:
//! the coherent machine, the stable database, the log set, the shared
//! (page, LSN) WAL table, and the LBM policy. All byte traffic between the
//! tree algorithms and the simulated memory flows through here, which is
//! where the Logging-Before-Migration enforcement happens:
//!
//! * under [`LbmMode::StableTriggered`], every access first consults the
//!   machine's pending-trigger query; if the touched line is *active* (an
//!   unforced uncommitted update by another node), that node's log is
//!   forced before the access proceeds — the §5.2 trigger;
//! * writes by a `StableTriggered` engine mark the written lines active;
//! * `StableEager` forcing and `Volatile` no-forcing are driven by the
//!   callers through [`TreeCtx::after_update`].
//!
//! A page is a run of consecutive line addresses, so every page-granular
//! operation here is one *span* call into the machine (`read_span`,
//! `write_span`, `install_span`, …) rather than a loop of single-line
//! calls. Where the §5.2 trigger is live the span is cut at each pending
//! trigger ([`TreeCtx::for_trigger_free_segments`]), which keeps the
//! per-line interleaving of force and access; `Volatile` never scans.

use crate::tree::BtreeError;
use smdb_obs::ForceReason;
use smdb_sim::{span_bytes, LineId, Machine, MemError, NodeId, SpanResidency, TriggerEvent};
use smdb_storage::{PageGeometry, PageId, StableDb, PAGE_LSN_OFFSET, PAGE_LSN_SIZE};
use smdb_wal::{LbmMode, LogSet, Lsn, PageLsnTable};

/// Counter of log-record payload bytes appended to the per-node logs.
pub const APPEND_BYTES_COUNTER: &str = smdb_obs::names::WAL_APPEND_BYTES;

/// A contiguous run of cache lines touched by one page write.
///
/// Because a page occupies consecutive line addresses
/// ([`PageGeometry::line_addr`]), the lines covered by any byte range are a
/// contiguous `LineId` interval — so [`TreeCtx::write`] can describe them
/// with two words instead of allocating a `Vec<LineId>` per write (the old
/// hot-path behaviour).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineSpan {
    start: u64,
    count: u32,
}

impl LineSpan {
    /// The empty span.
    pub fn empty() -> Self {
        LineSpan::default()
    }

    /// Span covering `count` lines starting at `start`.
    pub fn new(start: LineId, count: u32) -> Self {
        LineSpan { start: start.0, count }
    }

    /// Number of lines covered.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the span covers no lines.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The covered lines, in address order.
    pub fn iter(&self) -> impl Iterator<Item = LineId> {
        (self.start..self.start + self.count as u64).map(LineId)
    }
}

/// Mutable context threaded through every tree operation.
pub struct TreeCtx<'a> {
    /// The coherent shared-memory machine.
    pub m: &'a mut Machine,
    /// The stable database (tree pages are paged against it).
    pub db: &'a mut StableDb,
    /// All per-node logs.
    pub logs: &'a mut LogSet,
    /// The shared (page, LSN) WAL-enforcement table (§6).
    pub plt: &'a mut PageLsnTable,
    /// The LBM policy in force.
    pub lbm: LbmMode,
    /// Machine-wide global update sequence counter (stamped into data log
    /// records so restart recovery can totally order redo candidates
    /// across the per-node logs).
    pub gsn: &'a mut u64,
    /// Count of physical LBM forces this context ran — §5.2 trigger
    /// forces, shared-line forces and eager per-update forces (feeds the
    /// Table 1 "higher frequency of log forces" accounting).
    pub lbm_forces: u64,
    /// Node whose force charges this context should tally into
    /// [`TreeCtx::attr_force_cycles`] — the acting transaction's home,
    /// set by the engine's index operations for span attribution. Forces
    /// charged to *other* nodes' clocks (trigger forces on a remote
    /// owner, flush-side WAL forces of other updaters) are outside the
    /// home-clock span and deliberately not tallied.
    attr_node: Option<NodeId>,
    /// Simulated cycles of physical log forces charged to
    /// [`TreeCtx::attr_node`]'s clock during this context's lifetime.
    pub attr_force_cycles: u64,
    /// Reusable page-image buffer for flushes: allocated on first use,
    /// reused for every subsequent flush through this context (restart's
    /// Redo-All/Selective-Redo scans flush many pages through one context).
    scratch: Vec<u8>,
}

impl<'a> TreeCtx<'a> {
    /// Bundle the machinery.
    pub fn new(
        m: &'a mut Machine,
        db: &'a mut StableDb,
        logs: &'a mut LogSet,
        plt: &'a mut PageLsnTable,
        lbm: LbmMode,
        gsn: &'a mut u64,
    ) -> Self {
        TreeCtx {
            m,
            db,
            logs,
            plt,
            lbm,
            gsn,
            lbm_forces: 0,
            attr_node: None,
            attr_force_cycles: 0,
            scratch: Vec::new(),
        }
    }

    /// Tally force cycles charged to `node`'s clock into
    /// [`TreeCtx::attr_force_cycles`] (span stage attribution).
    pub fn with_attribution(mut self, node: NodeId) -> Self {
        self.attr_node = Some(node);
        self
    }

    /// Record that a physical force just advanced `node`'s clock by
    /// `cost` cycles.
    fn note_attr_force(&mut self, node: NodeId, cost: u64) {
        if self.attr_node == Some(node) {
            self.attr_force_cycles += cost;
        }
    }

    /// Draw the next global update sequence number.
    pub fn next_gsn(&mut self) -> u64 {
        *self.gsn += 1;
        *self.gsn
    }

    /// Page geometry of the stable database.
    pub fn geometry(&self) -> PageGeometry {
        self.db.geometry()
    }

    /// The cache line holding byte `offset` of `page`.
    pub fn line_of(&self, page: PageId, offset: usize) -> LineId {
        let g = self.geometry();
        LineId(g.line_addr(page, offset / g.line_size))
    }

    /// Force all of `node`'s log ([`LogSet::force`]), tallying the cycles
    /// for span attribution. Returns the cycles charged.
    fn force_all(&mut self, node: NodeId, reason: ForceReason) -> Result<u64, BtreeError> {
        let last = self.logs.log(node).last_lsn();
        let cost = self.logs.force(self.m, node, last, reason).map_err(MemError::FaultCrash)?;
        self.note_attr_force(node, cost);
        Ok(cost)
    }

    /// An LBM force of `node`'s log: physical now, counted in
    /// [`TreeCtx::lbm_forces`] when it ran.
    fn lbm_force(&mut self, node: NodeId) -> Result<(), BtreeError> {
        if self.force_all(node, ForceReason::Lbm)? > 0 {
            self.lbm_forces += 1;
        }
        Ok(())
    }

    /// Whether the §5.2 coherence trigger is live under this context's
    /// policy. Volatile logging needs no force and eager forcing never
    /// leaves active lines behind.
    fn trigger_live(&self) -> bool {
        self.lbm.uses_triggers()
    }

    /// Enforce the §5.2 trigger for an impending access: if the line is
    /// active with another node's unforced update, force that node's log
    /// and clear the bit. No-op under policies that don't use triggers.
    pub fn enforce_trigger(
        &mut self,
        node: NodeId,
        line: LineId,
        is_write: bool,
    ) -> Result<(), BtreeError> {
        if !self.trigger_live() {
            return Ok(());
        }
        match self.m.pending_triggers(node, line, is_write) {
            Some(ev) => self.fire_trigger(ev),
            None => Ok(()),
        }
    }

    /// Fire one pending trigger: force the owner's log if the line's own
    /// update may still be unforced, and clear the line's active bit. The
    /// owner's `(page, LSN)` entry for the line's page bounds that update;
    /// at or below the owner's stable LSN it is durable (a commit force
    /// covered it), and a stale bit forces nothing — not even an unrelated
    /// tail the owner appended since. Without an entry the owner's whole
    /// log is forced.
    fn fire_trigger(&mut self, ev: TriggerEvent) -> Result<(), BtreeError> {
        let (page, _) = self.geometry().page_of_addr(ev.line.0);
        let stable = self.logs.log(ev.owner).stable_lsn();
        let entry = self.plt.updaters(page).find(|(n, _)| *n == ev.owner);
        let owed = entry.is_none_or(|(_, lsn)| lsn > stable);
        if owed {
            let cost = self
                .logs
                .force_triggered(self.m, ev.owner, ev.line)
                .map_err(MemError::FaultCrash)?;
            if cost > 0 {
                self.note_attr_force(ev.owner, cost);
                self.lbm_forces += 1;
            }
        }
        self.m.clear_active(ev.line);
        Ok(())
    }

    /// Run `access(ctx, from, to)` over the `count` lines starting at
    /// `first`, cut into maximal trigger-free segments `from..to` (line
    /// indices): each pending trigger is fired exactly where the per-line
    /// `enforce_trigger`-then-access loop fired it — after the accesses
    /// to the lines below it, before the access to its own line. A line's
    /// trigger depends on that line's directory entry alone, so looking
    /// ahead for the next one changes nothing. With the trigger off there
    /// is one segment and no scan.
    fn for_trigger_free_segments(
        &mut self,
        node: NodeId,
        first: LineId,
        count: usize,
        is_write: bool,
        mut access: impl FnMut(&mut Self, usize, usize) -> Result<(), BtreeError>,
    ) -> Result<(), BtreeError> {
        if !self.trigger_live() {
            return access(self, 0, count);
        }
        let mut from = 0;
        while let Some(ev) =
            self.m.next_trigger(node, LineId(first.0 + from as u64), count - from, is_write)
        {
            let at = (ev.line.0 - first.0) as usize;
            if at > from {
                access(self, from, at)?;
            }
            // Firing clears the line's active bit, so the next look-ahead
            // starts past it while the segment still begins at it.
            self.fire_trigger(ev)?;
            from = at;
        }
        access(self, from, count)
    }

    /// Policy hook to run after an update's log record has been appended:
    /// eager forcing under `StableEager`, active-bit marking under
    /// `StableTriggered`, nothing under `Volatile`.
    pub fn after_update(&mut self, node: NodeId, spans: &[LineSpan]) -> Result<(), BtreeError> {
        match self.lbm {
            LbmMode::Volatile => {}
            LbmMode::StableEager => self.lbm_force(node)?,
            LbmMode::StableTriggered => self.mark_or_force(node, spans)?,
        }
        Ok(())
    }

    /// `StableTriggered`'s deferred-force line handling: under
    /// write-broadcast, a write to a *shared* line has already replicated
    /// the uncommitted bytes into other caches — the "migration" happened
    /// at the write itself, so the log must be forced now. Only
    /// exclusively-held lines can defer to the coherence trigger.
    fn mark_or_force(&mut self, node: NodeId, spans: &[LineSpan]) -> Result<(), BtreeError> {
        let mut forced = false;
        for l in spans.iter().flat_map(LineSpan::iter) {
            if self.m.holder_count(l) > 1 {
                if !forced {
                    self.lbm_force(node)?;
                }
                forced = true;
            } else {
                self.m.set_active(l, node);
            }
        }
        Ok(())
    }

    /// Force `node`'s entire log, charging the force latency if a physical
    /// force happened. Used by the tree algorithms for the forced
    /// structural records (early commit of structural changes), hence the
    /// `Commit` force reason.
    pub fn force_node_log(&mut self, node: NodeId) -> Result<(), BtreeError> {
        self.force_all(node, ForceReason::Commit).map(drop)
    }

    /// The first line address of `page`.
    fn first_line(&self, page: PageId) -> LineId {
        LineId(self.geometry().line_addr(page, 0))
    }

    /// Ensure every line of `page` is resident in some cache, faulting the
    /// page in from the stable database if necessary. Errors with
    /// [`MemError::LineLost`] (or a stall) if the page's lines were
    /// destroyed by a crash and not yet recovered.
    pub fn ensure_resident(&mut self, node: NodeId, page: PageId) -> Result<(), BtreeError> {
        let first = self.first_line(page);
        let probe = self.m.span_residency(first, 1);
        if probe.lost > 0 {
            // Surface the loss exactly like a direct access would.
            return self.m.read_into(node, first, 0, &mut []).map_err(BtreeError::from);
        }
        if probe.cached > 0 {
            return Ok(());
        }
        self.install_page_from_stable(node, page)
    }

    /// The lines `first_idx .. first_idx + count` of `page` that the
    /// `len` bytes at `offset` cover, as (first line, offset within it,
    /// line count).
    fn covered_lines(&self, page: PageId, offset: usize, len: usize) -> (LineId, usize, usize) {
        let g = self.geometry();
        let first_idx = offset / g.line_size;
        let last_idx = (offset + len - 1) / g.line_size;
        (LineId(g.line_addr(page, first_idx)), offset % g.line_size, last_idx - first_idx + 1)
    }

    /// Read `buf.len()` bytes at `offset` within `page`, coherently, on
    /// behalf of `node`.
    pub fn read(
        &mut self,
        node: NodeId,
        page: PageId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), BtreeError> {
        self.ensure_resident(node, page)?;
        if buf.is_empty() {
            return Ok(());
        }
        let (first, within, count) = self.covered_lines(page, offset, buf.len());
        let ls = self.geometry().line_size;
        self.for_trigger_free_segments(node, first, count, false, |ctx, from, to| {
            let (start, at) = (LineId(first.0 + from as u64), if from == 0 { within } else { 0 });
            let part = span_bytes(ls, within, buf.len(), from..to);
            Ok(ctx.m.read_span(node, start, at, &mut buf[part])?)
        })
    }

    /// Read the full page image coherently into `img` (resized to the
    /// page size; callers keep one buffer across pages).
    pub fn read_page_into(
        &mut self,
        node: NodeId,
        page: PageId,
        img: &mut Vec<u8>,
    ) -> Result<(), BtreeError> {
        img.resize(self.geometry().page_size(), 0);
        self.read(node, page, 0, img)
    }

    /// Write `bytes` at `offset` within `page`, coherently, on behalf of
    /// `node`. Returns the lines touched (for active-bit marking).
    pub fn write(
        &mut self,
        node: NodeId,
        page: PageId,
        offset: usize,
        bytes: &[u8],
    ) -> Result<LineSpan, BtreeError> {
        self.ensure_resident(node, page)?;
        if bytes.is_empty() {
            return Ok(LineSpan::empty());
        }
        let (first, within, count) = self.covered_lines(page, offset, bytes.len());
        let ls = self.geometry().line_size;
        self.for_trigger_free_segments(node, first, count, true, |ctx, from, to| {
            let (start, at) = (LineId(first.0 + from as u64), if from == 0 { within } else { 0 });
            let part = span_bytes(ls, within, bytes.len(), from..to);
            Ok(ctx.m.write_span(node, start, at, &bytes[part])?)
        })?;
        Ok(LineSpan::new(first, count as u32))
    }

    /// Record an update to `page` by `node` at `lsn`: writes the Page-LSN
    /// field (which lives in the page's first cache line — §6) and notes
    /// the (page, node, lsn) entry in the WAL table. Returns the lines
    /// touched by the Page-LSN write (for active-bit marking).
    pub fn note_update(
        &mut self,
        node: NodeId,
        page: PageId,
        lsn: Lsn,
    ) -> Result<LineSpan, BtreeError> {
        let touched = self.write(node, page, PAGE_LSN_OFFSET, &lsn.0.to_le_bytes())?;
        self.plt.note_update(page, node, lsn);
        Ok(touched)
    }

    /// Current Page-LSN of the cached page.
    pub fn page_lsn(&mut self, node: NodeId, page: PageId) -> Result<Lsn, BtreeError> {
        let mut buf = [0u8; PAGE_LSN_SIZE];
        self.read(node, page, PAGE_LSN_OFFSET, &mut buf)?;
        Ok(Lsn(u64::from_le_bytes(buf)))
    }

    /// Flush `page` to the stable database, enforcing the WAL rule first:
    /// every node that updated the page since its last flush must have
    /// forced its log up to its last update LSN (§6). Returns the number of
    /// log forces this flush triggered.
    pub fn flush_page(&mut self, node: NodeId, page: PageId) -> Result<u64, BtreeError> {
        let mut forces = 0;
        // The table is only read until the page is flushed, so its entries
        // are walked in place while the logs and clocks beside it move
        // (hence `note_attr_force` spelled out: it would borrow all of
        // `self`).
        for (n, lsn) in self.plt.updaters(page) {
            let force = self.logs.force(self.m, n, lsn, ForceReason::PageFlush);
            let cost = force.map_err(MemError::FaultCrash)?;
            if cost > 0 {
                if self.attr_node == Some(n) {
                    self.attr_force_cycles += cost;
                }
                forces += 1;
            }
        }
        // Assemble the page image in the reusable scratch buffer (one
        // allocation per context, not per flush).
        let mut img = std::mem::take(&mut self.scratch);
        let written = self.read_page_into(node, page, &mut img).and_then(|()| {
            // Torn-write crash point: the flush may die between sectors,
            // leaving a stable image that mixes old and new lines.
            Ok(self.db.write_page_checked(node.0, page, &img).map_err(MemError::FaultCrash)?)
        });
        self.scratch = img;
        written?;
        let cost = self.m.config().cost.disk_io;
        self.m.advance(node, cost);
        self.plt.page_flushed(page);
        // The flushed lines are no longer "active": their updates are
        // either durable or covered by forced undo records.
        self.m.clear_active_span(self.first_line(page), self.geometry().lines_per_page);
        Ok(forces)
    }

    /// Discard every cached copy of the page's lines (after a flush, or
    /// during Redo-All's cache purge). The stable image must already be
    /// authoritative.
    pub fn evict_page(&mut self, page: PageId) {
        self.m.discard_span(self.first_line(page), self.geometry().lines_per_page);
    }

    /// (Re)install every line of `page` from the stable image, on
    /// `node`, overwriting lost lines. The stable image is borrowed
    /// directly (`db` and `m` are disjoint fields) — no page copy is made.
    pub fn install_page_from_stable(
        &mut self,
        node: NodeId,
        page: PageId,
    ) -> Result<(), BtreeError> {
        let first = self.first_line(page);
        let img = self.db.read_page(page).ok_or(BtreeError::StablePageMissing { page })?;
        let cost = self.m.config().cost.disk_io;
        self.m.advance(node, cost);
        self.m.install_span(node, first, img)?;
        Ok(())
    }

    /// Create a fresh zeroed page: stable zero image plus resident zero
    /// lines on `node`. Used for structural allocations (the stable write
    /// is part of the early commit).
    pub fn create_zero_page(&mut self, node: NodeId, page: PageId) -> Result<(), BtreeError> {
        let zeros = vec![0u8; self.geometry().page_size()];
        self.db.write_page_checked(node.0, page, &zeros).map_err(MemError::FaultCrash)?;
        let cost = self.m.config().cost.disk_io;
        self.m.advance(node, cost);
        self.m.install_span(node, self.first_line(page), &zeros)?;
        Ok(())
    }

    /// How many of `page`'s lines are lost / cached: one directory walk.
    fn page_residency(&self, page: PageId) -> SpanResidency {
        self.m.span_residency(self.first_line(page), self.geometry().lines_per_page)
    }

    /// Whether any line of `page` was destroyed by a crash and not yet
    /// recovered.
    pub fn page_has_lost_lines(&self, page: PageId) -> bool {
        self.page_residency(page).lost > 0
    }

    /// Whether any line of `page` is cached on a surviving node.
    pub fn page_cached_anywhere(&self, page: PageId) -> bool {
        self.page_residency(page).cached > 0
    }

    /// Whether `page` must be reinstalled from its stable image before
    /// use: it has lost lines, or is cached nowhere.
    pub fn page_needs_reinstall(&self, page: PageId) -> bool {
        let r = self.page_residency(page);
        r.lost > 0 || r.cached == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_sim::SimConfig;
    use smdb_storage::PageGeometry;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const P: PageId = PageId(2);

    struct Owned {
        m: Machine,
        db: StableDb,
        logs: LogSet,
        plt: PageLsnTable,
        gsn: u64,
    }

    fn setup(lbm: LbmMode) -> Owned {
        let m = Machine::new(SimConfig::new(2));
        let mut db = StableDb::new(PageGeometry::new(128, 4));
        db.format(8);
        let _ = lbm;
        Owned { m, db, logs: LogSet::new(2), plt: PageLsnTable::new(), gsn: 0 }
    }

    fn ctx(o: &mut Owned, lbm: LbmMode) -> TreeCtx<'_> {
        TreeCtx::new(&mut o.m, &mut o.db, &mut o.logs, &mut o.plt, lbm, &mut o.gsn)
    }

    #[test]
    fn fault_in_read_write_roundtrip() {
        let mut o = setup(LbmMode::Volatile);
        let mut c = ctx(&mut o, LbmMode::Volatile);
        c.write(N0, P, 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        c.read(N1, P, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(o.db.stats().page_reads, 1, "one fault-in read");
    }

    #[test]
    fn cross_line_write_spans_lines() {
        let mut o = setup(LbmMode::Volatile);
        let mut c = ctx(&mut o, LbmMode::Volatile);
        // Line size 128: a write at offset 120 of length 16 spans lines 0,1.
        let touched = c.write(N0, P, 120, &[7u8; 16]).unwrap();
        assert_eq!(touched.len(), 2);
        let mut buf = [0u8; 16];
        c.read(N0, P, 120, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
    }

    #[test]
    fn flush_respects_wal_rule() {
        let mut o = setup(LbmMode::Volatile);
        let mut c = ctx(&mut o, LbmMode::Volatile);
        c.write(N0, P, 50, &[1]).unwrap();
        let lsn = c.logs.append(N0, smdb_wal::LogPayload::Checkpoint);
        c.note_update(N0, P, lsn).unwrap();
        assert!(!c.logs.log(N0).is_stable(lsn));
        let forces = c.flush_page(N0, P).unwrap();
        assert_eq!(forces, 1, "flush forced the updater's log");
        assert!(c.logs.log(N0).is_stable(lsn));
        // The stable image now carries the data and the Page-LSN.
        let img = c.db.peek_page(P).unwrap();
        assert_eq!(img[50], 1);
        assert_eq!(u64::from_le_bytes(img[0..8].try_into().unwrap()), lsn.0);
    }

    #[test]
    fn stable_triggered_marks_and_forces() {
        let mut o = setup(LbmMode::StableTriggered);
        let mut c = ctx(&mut o, LbmMode::StableTriggered);
        // n0 updates; the engine appends a log record and marks active.
        let touched = c.write(N0, P, 10, &[9]).unwrap();
        let first = touched.iter().next().unwrap();
        c.logs.append(N0, smdb_wal::LogPayload::Checkpoint);
        c.after_update(N0, &[touched]).unwrap();
        assert_eq!(c.m.active_owner(first), Some(N0));
        assert_eq!(c.logs.log(N0).stable_lsn(), Lsn::ZERO);
        // n1 reads the same line: the trigger forces n0's log first.
        let mut buf = [0u8; 1];
        c.read(N1, P, 10, &mut buf).unwrap();
        assert_eq!(c.logs.log(N0).stable_lsn(), Lsn(1), "downgrade forced the log");
        assert_eq!(c.m.active_owner(first), None);
    }

    #[test]
    fn stale_active_bit_forces_nothing() {
        let mut o = setup(LbmMode::StableTriggered);
        let mut c = ctx(&mut o, LbmMode::StableTriggered);
        let touched = c.write(N0, P, 10, &[9]).unwrap();
        let first = touched.iter().next().unwrap();
        let lsn = c.logs.append(N0, smdb_wal::LogPayload::Checkpoint);
        c.note_update(N0, P, lsn).unwrap();
        c.after_update(N0, &[touched]).unwrap();
        // A commit force covers the update; n0 then appends an unrelated
        // record, and the line's bit is still set.
        c.logs.force(c.m, N0, lsn, ForceReason::Commit).unwrap();
        c.logs.append(N0, smdb_wal::LogPayload::Checkpoint);
        assert_eq!(c.m.active_owner(first), Some(N0));
        let mut buf = [0u8; 1];
        c.read(N1, P, 10, &mut buf).unwrap();
        assert_eq!(c.logs.log(N0).stable_lsn(), lsn, "the unrelated tail stays unforced");
        assert_eq!(c.lbm_forces, 0);
        assert_eq!(c.m.active_owner(first), None, "the stale bit is cleared");
    }

    #[test]
    fn eager_policy_forces_every_update() {
        let mut o = setup(LbmMode::StableEager);
        let mut c = ctx(&mut o, LbmMode::StableEager);
        let touched = c.write(N0, P, 10, &[9]).unwrap();
        c.logs.append(N0, smdb_wal::LogPayload::Checkpoint);
        c.after_update(N0, &[touched]).unwrap();
        assert_eq!(c.logs.log(N0).stats().forces, 1);
        assert_eq!(c.lbm_forces, 1, "the eager force is an LBM force");
    }

    #[test]
    fn volatile_policy_never_forces() {
        let mut o = setup(LbmMode::Volatile);
        let mut c = ctx(&mut o, LbmMode::Volatile);
        let touched = c.write(N0, P, 10, &[9]).unwrap();
        c.logs.append(N0, smdb_wal::LogPayload::Checkpoint);
        c.after_update(N0, &[touched]).unwrap();
        let mut buf = [0u8; 1];
        c.read(N1, P, 10, &mut buf).unwrap();
        assert_eq!(c.logs.log(N0).stats().forces, 0);
    }

    #[test]
    fn evict_then_refetch_from_stable() {
        let mut o = setup(LbmMode::Volatile);
        let mut c = ctx(&mut o, LbmMode::Volatile);
        c.write(N0, P, 40, &[3]).unwrap();
        c.flush_page(N0, P).unwrap();
        c.evict_page(P);
        assert!(!c.page_cached_anywhere(P));
        let mut buf = [0u8; 1];
        c.read(N1, P, 40, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
    }

    /// Three nodes; `P` resident with two *active* lines owned by
    /// different nodes (n0's update on line 1, n1's on line 2), event bus
    /// on. What a third node's page access must cut its span around.
    fn two_active_lines() -> Owned {
        let m = Machine::new(SimConfig::new(3));
        let mut db = StableDb::new(PageGeometry::new(128, 4));
        db.format(8);
        let mut o = Owned { m, db, logs: LogSet::new(3), plt: PageLsnTable::new(), gsn: 0 };
        let mut c = ctx(&mut o, LbmMode::StableTriggered);
        for (node, offset) in [(N0, 130), (N1, 300)] {
            let touched = c.write(node, P, offset, &[node.0 as u8 + 1; 4]).unwrap();
            c.logs.append(node, smdb_wal::LogPayload::Checkpoint);
            c.after_update(node, &[touched]).unwrap();
            assert_eq!(c.m.active_owner(touched.iter().next().unwrap()), Some(node));
        }
        o.m.obs().enable(4096);
        o
    }

    /// Everything the span path must reproduce: the bus event sequence
    /// (with timestamps), coherence counters, every clock, log state.
    fn observed(o: &Owned, lbm_forces: u64) -> String {
        format!(
            "forces {lbm_forces} clocks {:?} stable {:?} stats {:?}\nbus {:#?}",
            o.m.node_ids().map(|n| o.m.now(n)).collect::<Vec<_>>(),
            o.m.node_ids().map(|n| o.logs.log(n).stable_lsn()).collect::<Vec<_>>(),
            o.m.stats(),
            o.m.obs().bus.snapshot(),
        )
    }

    #[test]
    fn page_spans_fire_triggers_where_the_per_line_loop_did() {
        const N2: NodeId = NodeId(2);
        const LBM: LbmMode = LbmMode::StableTriggered;
        // Whole-page read by the third node: both owners downgraded.
        let (mut span, mut per_line) = (two_active_lines(), two_active_lines());
        let (mut a, mut b) = ([0u8; 512], [0u8; 512]);
        let mut c = ctx(&mut span, LBM);
        c.read(N2, P, 0, &mut a).unwrap();
        let span_forces = c.lbm_forces;
        let mut c = ctx(&mut per_line, LBM);
        for (idx, chunk) in b.chunks_mut(128).enumerate() {
            let line = c.line_of(P, idx * 128);
            c.enforce_trigger(N2, line, false).unwrap();
            c.m.read_into(N2, line, 0, chunk).unwrap();
        }
        let line_forces = c.lbm_forces;
        assert_eq!(span_forces, 2, "one force per owner");
        assert_eq!(a, b);
        assert_eq!(observed(&span, span_forces), observed(&per_line, line_forces));

        // Multi-line write by the third node, lines 1–3 from mid-line:
        // both owners invalidated.
        let (mut span, mut per_line) = (two_active_lines(), two_active_lines());
        let bytes = [9u8; 300];
        let mut c = ctx(&mut span, LBM);
        let touched = c.write(N2, P, 200, &bytes).unwrap();
        let span_forces = c.lbm_forces;
        assert_eq!(touched, LineSpan::new(c.line_of(P, 128), 3));
        let mut c = ctx(&mut per_line, LBM);
        for (offset, within, chunk) in
            [(200, 72, &bytes[..56]), (256, 0, &bytes[56..184]), (384, 0, &bytes[184..])]
        {
            let line = c.line_of(P, offset);
            c.enforce_trigger(N2, line, true).unwrap();
            c.m.write(N2, line, within, chunk).unwrap();
        }
        let line_forces = c.lbm_forces;
        assert_eq!(span_forces, 2, "one force per owner");
        assert_eq!(observed(&span, span_forces), observed(&per_line, line_forces));
        assert_eq!(span.m.peek(LineId(9)), per_line.m.peek(LineId(9)));
    }

    #[test]
    fn lost_page_detected_and_reinstallable() {
        let mut o = setup(LbmMode::Volatile);
        {
            let mut c = ctx(&mut o, LbmMode::Volatile);
            c.write(N0, P, 40, &[3]).unwrap();
            c.flush_page(N0, P).unwrap();
            c.write(N0, P, 40, &[4]).unwrap(); // dirty again, only on n0
        }
        o.m.crash(&[N0]);
        {
            let mut c = ctx(&mut o, LbmMode::Volatile);
            assert!(c.page_has_lost_lines(P));
            c.install_page_from_stable(N1, P).unwrap();
            assert!(!c.page_has_lost_lines(P));
            let mut buf = [0u8; 1];
            c.read(N1, P, 40, &mut buf).unwrap();
            assert_eq!(buf[0], 3, "reinstalled from the last flushed image");
        }
    }
}

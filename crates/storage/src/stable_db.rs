//! The stable database: a durable page store on the shared disks.

use crate::page::{PageGeometry, PageId};
use smdb_fault::{FaultCrash, FaultInjector};
use std::collections::BTreeMap;

/// Fault site: visited once per cache-line-sized sector of a page flush.
/// Firing at ordinal `k` within a flush leaves a **torn page**: the first
/// `k` sectors carry the new image, the rest keep the old one (zeroes if
/// the page was never written). The acting node is the flusher.
pub const FAULT_FLUSH_LINE: &str = "storage.flush.line";

/// I/O counters for the stable database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StableDbStats {
    /// Page reads served.
    pub page_reads: u64,
    /// Page writes (flushes) performed.
    pub page_writes: u64,
}

/// A durable page store. Contents survive any combination of node crashes
/// (the disks are shared and independent of node memory — paper §2).
///
/// In-place updating is modelled faithfully: a page write replaces the
/// stable image wholesale, so flushing a page containing uncommitted data
/// (a *steal*) really does overwrite the last committed image — which is
/// why the WAL protocol must force undo log records first.
#[derive(Clone, Debug)]
pub struct StableDb {
    geometry: PageGeometry,
    pages: BTreeMap<PageId, Box<[u8]>>,
    stats: StableDbStats,
    fault: FaultInjector,
}

impl StableDb {
    /// Create an empty stable database with the given geometry.
    pub fn new(geometry: PageGeometry) -> Self {
        StableDb {
            geometry,
            pages: BTreeMap::new(),
            stats: StableDbStats::default(),
            fault: FaultInjector::new(),
        }
    }

    /// Install a fault injector; the stable database hosts the torn-write
    /// crash point ([`FAULT_FLUSH_LINE`]).
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// The page geometry.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Format `count` pages of zeroes starting at page 0 (initial database
    /// load). Does not count toward I/O statistics.
    pub fn format(&mut self, count: u32) {
        let size = self.geometry.page_size();
        for p in 0..count {
            self.pages.insert(PageId(p), vec![0u8; size].into_boxed_slice());
        }
    }

    /// Read a page image. Returns `None` for an unallocated page.
    /// Increments the read counter; the caller charges the disk latency to
    /// the acting node's clock.
    pub fn read_page(&mut self, page: PageId) -> Option<&[u8]> {
        self.stats.page_reads += 1;
        self.pages.get(&page).map(|b| &b[..])
    }

    /// Write (flush) a full page image. `data` must be exactly one page.
    pub fn write_page(&mut self, page: PageId, data: &[u8]) {
        assert_eq!(data.len(), self.geometry.page_size(), "page image size mismatch");
        self.stats.page_writes += 1;
        self.pages.insert(page, data.to_vec().into_boxed_slice());
    }

    /// Write (flush) a full page image on behalf of `node`, visiting the
    /// [`FAULT_FLUSH_LINE`] crash point once per line-sized sector. If the
    /// point fires at sector `k`, the flush is **torn**: sectors `< k`
    /// carry the new image, the rest keep the old contents (zeroes if the
    /// page was never allocated), and the error demands that `node` be
    /// crashed. Disk sectors are assumed atomic at line granularity — the
    /// same assumption the paper's in-place update model makes — so a torn
    /// flush never splices *within* a line.
    pub fn write_page_checked(
        &mut self,
        node: u16,
        page: PageId,
        data: &[u8],
    ) -> Result<(), FaultCrash> {
        assert_eq!(data.len(), self.geometry.page_size(), "page image size mismatch");
        let ls = self.geometry.line_size;
        let sectors = self.geometry.lines_per_page;
        for k in 0..sectors {
            if let Some(c) = self.fault.hit(FAULT_FLUSH_LINE, node) {
                if k > 0 {
                    let old = self
                        .pages
                        .entry(page)
                        .or_insert_with(|| vec![0u8; data.len()].into_boxed_slice());
                    old[..k * ls].copy_from_slice(&data[..k * ls]);
                    self.stats.page_writes += 1;
                }
                return Err(c);
            }
        }
        self.write_page(page, data);
        Ok(())
    }

    /// Overwrite a single record-sized byte range within a stable page
    /// image *without* counting as a page write. Restart recovery uses this
    /// to apply undo's of stolen uncommitted updates directly to the stable
    /// database (the I/O cost is charged by the caller as a page
    /// read-modify-write).
    pub fn patch(&mut self, page: PageId, offset: usize, bytes: &[u8]) {
        let img = self.pages.get_mut(&page).expect("patching unallocated page");
        img[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Zero-cost snapshot of a page image for oracles and tests.
    pub fn peek_page(&self, page: PageId) -> Option<&[u8]> {
        self.pages.get(&page).map(|b| &b[..])
    }

    /// I/O statistics.
    pub fn stats(&self) -> &StableDbStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> StableDb {
        let mut db = StableDb::new(PageGeometry::new(64, 4));
        db.format(2);
        db
    }

    #[test]
    fn format_zeroes_pages() {
        let mut db = db();
        assert!(db.read_page(PageId(0)).unwrap().iter().all(|b| *b == 0));
        assert!(db.read_page(PageId(1)).is_some() && db.read_page(PageId(2)).is_none());
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut db = db();
        let img = vec![7u8; 256];
        db.write_page(PageId(1), &img);
        assert_eq!(db.read_page(PageId(1)).unwrap(), &img[..]);
        assert_eq!(db.stats().page_writes, 1);
        assert_eq!(db.stats().page_reads, 1);
    }

    #[test]
    fn unallocated_page_reads_none() {
        let mut db = db();
        assert!(db.read_page(PageId(9)).is_none());
    }

    #[test]
    fn patch_modifies_in_place() {
        let mut db = db();
        db.patch(PageId(0), 10, &[1, 2, 3]);
        let img = db.peek_page(PageId(0)).unwrap();
        assert_eq!(&img[10..13], &[1, 2, 3]);
        assert_eq!(db.stats().page_writes, 0, "patch is not a counted page write");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_size_write_rejected() {
        let mut db = db();
        db.write_page(PageId(0), &[0u8; 100]);
    }
}

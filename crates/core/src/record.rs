//! Heap record layout.
//!
//! Records live in heap pages. Line 0 of every heap page is reserved for
//! the Page-LSN (§6 convention); records pack into lines 1..N. A record
//! never spans cache lines, and each record is prefixed by its 2-byte
//! **undo tag** (the node id of its uncommitted updater, or the null tag)
//! so that — per the §4.1.2 Tagging Rule — the tag always shares a cache
//! line with the record it covers. Several records share one line whenever
//! `tag + payload` is at most half a line: the co-location that produces
//! the paper's §3.1 failure scenarios.

use smdb_storage::{PageGeometry, PageId};
use smdb_wal::RecId;

/// The null undo tag: no uncommitted update on the record.
pub const NULL_TAG: u16 = u16::MAX;
/// Size of the undo tag prefix, bytes.
pub const TAG_SIZE: usize = 2;

/// Maps record slots to pages, lines, and byte offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordLayout {
    /// Page geometry of the stable database.
    pub geometry: PageGeometry,
    /// Record payload size, bytes.
    pub data_size: usize,
}

impl RecordLayout {
    /// Create a layout. The full record (tag + payload) must fit in one
    /// cache line.
    pub fn new(geometry: PageGeometry, data_size: usize) -> Self {
        assert!(data_size > 0, "empty records are useless");
        assert!(
            TAG_SIZE + data_size <= geometry.line_size,
            "record (tag + {data_size} B) must fit in a {}-byte cache line",
            geometry.line_size
        );
        RecordLayout { geometry, data_size }
    }

    /// Total on-page size of one record (tag + payload).
    pub fn rec_size(&self) -> usize {
        TAG_SIZE + self.data_size
    }

    /// Records per cache line — the co-location factor of §3.1.
    pub fn records_per_line(&self) -> usize {
        self.geometry.line_size / self.rec_size()
    }

    /// Records per heap page (line 0 is reserved for the Page-LSN).
    pub fn records_per_page(&self) -> usize {
        self.records_per_line() * (self.geometry.lines_per_page - 1)
    }

    /// Number of heap pages needed for `records` record slots.
    pub fn pages_for(&self, records: u32) -> u32 {
        records.div_ceil(self.records_per_page() as u32)
    }

    /// Record id of global slot `slot`.
    pub fn rec_of_global(&self, slot: u64) -> RecId {
        let rpp = self.records_per_page() as u64;
        RecId::new(PageId((slot / rpp) as u32), (slot % rpp) as u16)
    }

    /// Line index within the page (1-based; line 0 holds the Page-LSN) and
    /// byte offset within that line for a page-local slot.
    pub fn line_and_offset(&self, slot: u16) -> (usize, usize) {
        let rpl = self.records_per_line();
        let line = 1 + slot as usize / rpl;
        let within = (slot as usize % rpl) * self.rec_size();
        (line, within)
    }

    /// Byte offset of the record (tag included) within the page image.
    pub fn page_offset(&self, slot: u16) -> usize {
        let (line, within) = self.line_and_offset(slot);
        self.geometry.line_offset(line) + within
    }

    /// Byte offset of the record *payload* within the page image.
    pub fn payload_offset(&self, slot: u16) -> usize {
        self.page_offset(slot) + TAG_SIZE
    }

    /// Decode the tag from a record's on-page bytes.
    pub fn tag_of(rec_bytes: &[u8]) -> u16 {
        u16::from_le_bytes(rec_bytes[..TAG_SIZE].try_into().expect("tag bytes"))
    }

    /// Encode a record (tag + payload) into a buffer of `rec_size` bytes.
    pub fn encode(&self, tag: u16, payload: &[u8]) -> Vec<u8> {
        assert!(payload.len() <= self.data_size, "payload too large");
        let mut buf = vec![0u8; self.rec_size()];
        buf[..TAG_SIZE].copy_from_slice(&tag.to_le_bytes());
        buf[TAG_SIZE..TAG_SIZE + payload.len()].copy_from_slice(payload);
        buf
    }

    /// Split a record's on-page bytes into (tag, payload).
    pub fn decode<'b>(&self, rec_bytes: &'b [u8]) -> (u16, &'b [u8]) {
        (Self::tag_of(rec_bytes), &rec_bytes[TAG_SIZE..self.rec_size()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> RecordLayout {
        // 128-byte lines, 8 lines/page, 40-byte payloads → 42-byte records,
        // 3 per line, 21 per page.
        RecordLayout::new(PageGeometry::new(128, 8), 40)
    }

    #[test]
    fn co_location_math() {
        let l = layout();
        assert_eq!(l.rec_size(), 42);
        assert_eq!(l.records_per_line(), 3);
        assert_eq!(l.records_per_page(), 21);
        assert_eq!(l.pages_for(22), 2);
        assert_eq!(l.pages_for(21), 1);
    }

    #[test]
    fn slot_mapping_round_trips() {
        let l = layout();
        for slot in 0..100u64 {
            let rec = l.rec_of_global(slot);
            assert_eq!(rec.page.0 as u64 * l.records_per_page() as u64 + rec.slot as u64, slot);
        }
    }

    #[test]
    fn records_in_same_line_share_line_index() {
        let l = layout();
        let (l0, _) = l.line_and_offset(0);
        let (l1, _) = l.line_and_offset(1);
        let (l2, _) = l.line_and_offset(2);
        let (l3, _) = l.line_and_offset(3);
        assert_eq!(l0, l1);
        assert_eq!(l1, l2);
        assert_ne!(l2, l3, "4th record spills to the next line");
        assert_eq!(l0, 1, "line 0 reserved for Page-LSN");
    }

    #[test]
    fn one_record_per_line_when_large() {
        let l = RecordLayout::new(PageGeometry::new(128, 8), 100);
        assert_eq!(l.records_per_line(), 1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let l = layout();
        let buf = l.encode(7, b"hello");
        let (tag, payload) = l.decode(&buf);
        assert_eq!(tag, 7);
        assert_eq!(&payload[..5], b"hello");
        assert_eq!(payload.len(), 40);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_record_rejected() {
        let _ = RecordLayout::new(PageGeometry::new(128, 8), 127);
    }
}

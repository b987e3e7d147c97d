//! Page identifiers and page ↔ cache-line geometry.

use std::fmt;

/// A database page: the unit of I/O against the stable database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Geometry relating pages to cache lines.
///
/// The paper (§2): *"While the unit of I/O is a page, the unit of coherency
/// is a cache line, and is typically smaller than a page."* A page occupies
/// `lines_per_page` consecutive cache-line addresses; line index 0 of every
/// page holds, by convention (§6), the Page-LSN field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageGeometry {
    /// Cache line size, bytes.
    pub line_size: usize,
    /// Cache lines per page.
    pub lines_per_page: usize,
}

impl PageGeometry {
    /// Standard geometry: 128-byte lines, 32 lines per page → 4 KiB pages.
    pub const STANDARD: PageGeometry = PageGeometry { line_size: 128, lines_per_page: 32 };

    /// Create a geometry. Both dimensions must be non-zero.
    pub fn new(line_size: usize, lines_per_page: usize) -> Self {
        assert!(line_size > 0 && lines_per_page > 0, "degenerate page geometry");
        PageGeometry { line_size, lines_per_page }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.line_size * self.lines_per_page
    }

    /// The cache-line address of line `idx` within `page`.
    ///
    /// Statically addressed: heap pages occupy the line-address range below
    /// `smdb_sim::LineId::DYNAMIC_BASE` — that is, `LineId` =
    /// `page * lines_per_page + idx`. (We avoid a dependency on `smdb-sim`
    /// here by returning the raw address; callers wrap it in `LineId`.)
    pub fn line_addr(&self, page: PageId, idx: usize) -> u64 {
        assert!(idx < self.lines_per_page, "line index out of page");
        page.0 as u64 * self.lines_per_page as u64 + idx as u64
    }

    /// Inverse of [`PageGeometry::line_addr`]: which page and line index a
    /// raw line address belongs to.
    pub fn page_of_addr(&self, addr: u64) -> (PageId, usize) {
        let page = (addr / self.lines_per_page as u64) as u32;
        let idx = (addr % self.lines_per_page as u64) as usize;
        (PageId(page), idx)
    }

    /// Byte offset of line `idx` within the page image.
    pub fn line_offset(&self, idx: usize) -> usize {
        assert!(idx < self.lines_per_page, "line index out of page");
        idx * self.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_geometry_is_4k() {
        assert_eq!(PageGeometry::STANDARD.page_size(), 4096);
    }

    #[test]
    fn line_addr_round_trips() {
        let g = PageGeometry::new(128, 8);
        for page in [0u32, 1, 77] {
            for idx in 0..8 {
                let addr = g.line_addr(PageId(page), idx);
                assert_eq!(g.page_of_addr(addr), (PageId(page), idx));
            }
        }
    }

    #[test]
    fn pages_do_not_overlap() {
        let g = PageGeometry::new(64, 4);
        let last_of_p0 = g.line_addr(PageId(0), 3);
        let first_of_p1 = g.line_addr(PageId(1), 0);
        assert_eq!(first_of_p1, last_of_p0 + 1);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn line_index_bounds_checked() {
        let g = PageGeometry::new(64, 4);
        let _ = g.line_addr(PageId(0), 4);
    }
}

//! Log sequence numbers.

use std::fmt;

/// A log sequence number, monotonically increasing *per node log*.
///
/// LSNs are node-local: each node numbers its own log records starting at 1
/// (paper §2 — each node maintains a log). `Lsn::ZERO` means "before any
/// record".
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl Lsn {
    /// Before the first record of any log.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN in sequence.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(3).next(), Lsn(4));
    }
}

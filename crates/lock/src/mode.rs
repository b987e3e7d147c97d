//! Lock modes and compatibility.

use smdb_wal::LockModeRepr;

/// Basic lock modes of the paper's concurrency-control model (§2):
/// *"An exclusive lock on a record r guarantees that no other transaction
/// will read or modify r, while a shared lock on r ensures that no other
/// transaction will modify r."*
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared (read). Multiple shared holders may coexist.
    Shared,
    /// Exclusive (write). Sole holder.
    Exclusive,
}

impl LockMode {
    /// Whether a new request in mode `self` is compatible with an existing
    /// grant in mode `other`.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// Encode as a wire byte for the LCB line layout.
    pub fn to_byte(self) -> u8 {
        match self {
            LockMode::Shared => 1,
            LockMode::Exclusive => 2,
        }
    }

    /// Decode from a wire byte.
    pub fn from_byte(b: u8) -> Option<LockMode> {
        match b {
            1 => Some(LockMode::Shared),
            2 => Some(LockMode::Exclusive),
            _ => None,
        }
    }
}

impl From<LockMode> for LockModeRepr {
    fn from(m: LockMode) -> LockModeRepr {
        match m {
            LockMode::Shared => LockModeRepr::Shared,
            LockMode::Exclusive => LockModeRepr::Exclusive,
        }
    }
}

impl From<LockModeRepr> for LockMode {
    fn from(m: LockModeRepr) -> LockMode {
        match m {
            LockModeRepr::Shared => LockMode::Shared,
            LockModeRepr::Exclusive => LockMode::Exclusive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!Exclusive.compatible(Shared));
        assert!(!Exclusive.compatible(Exclusive));
    }

    #[test]
    fn byte_round_trip() {
        for m in [LockMode::Shared, LockMode::Exclusive] {
            assert_eq!(LockMode::from_byte(m.to_byte()), Some(m));
        }
        assert_eq!(LockMode::from_byte(0), None);
        assert_eq!(LockMode::from_byte(7), None);
    }

    #[test]
    fn repr_round_trip() {
        for m in [LockMode::Shared, LockMode::Exclusive] {
            let r: LockModeRepr = m.into();
            assert_eq!(LockMode::from(r), m);
        }
    }
}

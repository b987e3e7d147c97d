//! The one bounded FIFO ring: the bus backlog, the finished spans and the
//! timeline buckets are each a [`Ring`].

use std::collections::VecDeque;

/// A bounded FIFO: a push onto a full ring evicts the oldest entry.
pub(crate) struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring { items: VecDeque::new(), capacity }
    }

    /// Change the bound, evicting the oldest entries beyond it.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.items.len() > capacity {
            self.items.pop_front();
        }
    }

    /// Append `item`; returns whether the oldest entry was evicted for it.
    pub(crate) fn push(&mut self, item: T) -> bool {
        let evict = self.items.len() >= self.capacity;
        if evict {
            self.items.pop_front();
        }
        self.items.push_back(item);
        evict
    }

    /// Entry `i`, counted from the oldest.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.items.get_mut(i)
    }

    /// The entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Take every entry, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_ring_evicts_its_oldest_entry() {
        let mut r = Ring::new(3);
        let evicted: Vec<bool> = (0..5).map(|i| r.push(i)).collect();
        assert_eq!(evicted, [false, false, false, true, true]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
        r.set_capacity(2);
        assert_eq!(r.drain(), [3, 4], "shrinking keeps the newest");
        assert!(r.is_empty());
    }
}

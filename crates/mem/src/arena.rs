//! Fixed-capacity storage for the hot-loop FIFO queues.
//!
//! Steady-state simulation must perform **zero allocations per miss**:
//! every prefetch-queue slot and DRAM queue slot lives in storage sized
//! once at construction. [`FixedRing`] is that storage for the strictly
//! FIFO queues (prefetch queues, DRAM read/write queues); the MSHR,
//! which reclaims by fill time rather than by age, keeps its own
//! time-ordered deque (see `mshr.rs`).

use std::collections::VecDeque;

/// A fixed-capacity FIFO ring: a [`VecDeque`] whose storage is
/// reserved once at construction and whose length is capped at
/// `capacity` — `push_back` reports `false` instead of growing.
///
/// Delegating to `VecDeque` rather than hand-rolling an
/// `Option`-per-slot ring is a measured choice: the stdlib ring keeps
/// entries contiguous (no discriminant per slot), wraps indices with a
/// power-of-two mask, and iterates as two slices, which is visibly
/// faster on the per-cycle drain and dedup probes. The deque never
/// reallocates while `len <= capacity` holds, so the ring is
/// heap-silent after construction — pinned end-to-end by the
/// counting-allocator audit in `tests/zero_alloc_steady_state.rs`.
#[derive(Clone, Debug)]
pub struct FixedRing<T> {
    entries: VecDeque<T>,
    capacity: usize,
}

impl<T> FixedRing<T> {
    /// Creates a ring with room for `capacity` entries. A zero-capacity
    /// ring is valid and permanently full.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends at the back; `false` (value dropped) when full.
    pub fn push_back(&mut self, value: T) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push_back(value);
        true
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        self.entries.pop_front()
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&T> {
        self.entries.front()
    }

    /// The newest entry, if any.
    pub fn back(&self) -> Option<&T> {
        self.entries.back()
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo_and_wraps() {
        let mut r = FixedRing::new(3);
        assert!(r.push_back(1));
        assert!(r.push_back(2));
        assert!(r.push_back(3));
        assert!(!r.push_back(4), "full ring rejects");
        assert_eq!(r.pop_front(), Some(1));
        assert!(r.push_back(4), "freed slot reused (wrap)");
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.front(), Some(&2));
        assert_eq!(r.pop_front(), Some(2));
        assert_eq!(r.pop_front(), Some(3));
        assert_eq!(r.pop_front(), Some(4));
        assert_eq!(r.pop_front(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_ring_is_permanently_full() {
        let mut r = FixedRing::new(0);
        assert!(r.is_full());
        assert!(!r.push_back(1u8));
        assert_eq!(r.pop_front(), None);
        assert_eq!(r.front(), None);
    }
}

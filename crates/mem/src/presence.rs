//! The presence index of a cache: which lines it holds, as one 64-bit
//! mask per 4 KiB page (bit `i` = line `i` of the page is resident).
//!
//! [`Cache::probe`](crate::Cache::probe) answers from here with one hash
//! lookup and one bit test, where a tag walk would compare up to `ways`
//! tags on data-dependent branches; a prefetcher's decisions for one
//! access mostly fall in one or two pages, so the decision loop of a
//! level looks a page's mask up once and tests each decision's bit.
//!
//! The table is open-addressed with linear probing and sized once, at
//! twice the cache's line count rounded up to a power of two: a page is
//! in the table only while at least one of its lines is resident, so it
//! never holds more pages than the cache holds lines and stays at most
//! half full. An emptied page is removed by backward-shift deletion (no
//! tombstones), so lookups never slow down with churn, and nothing is
//! allocated after construction.

use berti_types::LINES_PER_PAGE;

/// log2 of the lines a page mask covers.
const PAGE_LINE_BITS: u32 = LINES_PER_PAGE.trailing_zeros();

const _: () = assert!(LINES_PER_PAGE == 64, "a page's lines fill one u64 mask");

/// One slot: a page and the mask of its resident lines. A zero mask is
/// an empty slot (a live page always has a line).
#[derive(Clone, Copy, Debug, Default)]
struct PageSlot {
    page: u64,
    mask: u64,
}

/// Per-page presence masks of one cache's resident lines.
#[derive(Clone, Debug)]
pub(crate) struct PresenceIndex {
    /// A power-of-two number of slots.
    slots: Vec<PageSlot>,
    /// `64 - log2(slots.len())`: a page's home slot is the top bits of
    /// its Fibonacci hash.
    shift: u32,
    /// Pages with at least one resident line.
    pages: usize,
    /// Most pages that can be live at once: the cache's line count.
    capacity: usize,
}

impl PresenceIndex {
    /// An empty index for a cache of `lines` lines.
    pub(crate) fn new(lines: usize) -> Self {
        let len = (2 * lines.max(1)).next_power_of_two();
        Self {
            slots: vec![PageSlot::default(); len],
            shift: u64::BITS - len.trailing_zeros(),
            pages: 0,
            capacity: lines,
        }
    }

    /// The page of `line` and its bit in the page's mask.
    #[inline]
    fn split(line: u64) -> (u64, u64) {
        (line >> PAGE_LINE_BITS, 1 << (line & (LINES_PER_PAGE - 1)))
    }

    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `page`, or the empty slot that ends its probe
    /// run. Terminates because the table is never full.
    #[inline]
    fn slot_of(&self, page: u64) -> usize {
        let wrap = self.slots.len() - 1;
        let mut i = self.home(page);
        loop {
            let s = self.slots[i];
            if s.mask == 0 || s.page == page {
                return i;
            }
            i = (i + 1) & wrap;
        }
    }

    /// The mask of `page`'s resident lines (zero if none is).
    #[inline]
    pub(crate) fn page_mask(&self, page: u64) -> u64 {
        self.slots[self.slot_of(page)].mask
    }

    /// Whether `line` is resident.
    #[inline]
    pub(crate) fn contains(&self, line: u64) -> bool {
        let (page, bit) = Self::split(line);
        self.page_mask(page) & bit != 0
    }

    /// Records that `line` became resident.
    pub(crate) fn insert(&mut self, line: u64) {
        let (page, bit) = Self::split(line);
        let i = self.slot_of(page);
        let s = &mut self.slots[i];
        if s.mask == 0 {
            s.page = page;
            self.pages += 1;
        }
        debug_assert!(s.mask & bit == 0, "line {line:#x} indexed twice");
        s.mask |= bit;
        debug_assert!(self.pages <= self.capacity, "more pages than lines");
    }

    /// Records that `line` left the cache; drops its page when that was
    /// the page's last line.
    pub(crate) fn remove(&mut self, line: u64) {
        let (page, bit) = Self::split(line);
        let i = self.slot_of(page);
        let s = &mut self.slots[i];
        debug_assert!(s.mask & bit != 0, "line {line:#x} is not indexed");
        s.mask &= !bit;
        if s.mask == 0 {
            self.pages -= 1;
            self.close_gap(i);
        }
    }

    /// Backward-shift deletion: pulls later entries of the probe run
    /// into the emptied slot `hole` wherever the hole lies on their
    /// path from their home slot, so every remaining page stays
    /// reachable without a tombstone.
    fn close_gap(&mut self, mut hole: usize) {
        let wrap = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & wrap;
            let s = self.slots[j];
            if s.mask == 0 {
                return;
            }
            let home = self.home(s.page);
            if j.wrapping_sub(home) & wrap >= j.wrapping_sub(hole) & wrap {
                self.slots[hole] = s;
                self.slots[j].mask = 0;
                hole = j;
            }
        }
    }

    /// Pages with at least one resident line.
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn pages(&self) -> usize {
        self.pages
    }

    /// Most pages the index is built to hold (the cache's line count).
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_of_one_page_share_a_mask() {
        let mut p = PresenceIndex::new(4);
        p.insert(64 * 7 + 3);
        p.insert(64 * 7 + 60);
        assert_eq!(p.page_mask(7), 1 << 3 | 1 << 60);
        assert_eq!(p.pages(), 1);
        p.remove(64 * 7 + 3);
        assert!(!p.contains(64 * 7 + 3) && p.contains(64 * 7 + 60));
        p.remove(64 * 7 + 60);
        assert_eq!((p.page_mask(7), p.pages()), (0, 0));
    }

    #[test]
    fn removal_keeps_every_colliding_page_reachable() {
        // A three-line index has eight slots. Churning three live pages
        // through 500 forces collisions, wrapped probe runs and shifts.
        let mut p = PresenceIndex::new(3);
        let mut live: Vec<u64> = Vec::new();
        for page in 0..500u64 {
            if live.len() == 3 {
                let gone = live.remove((page % 3) as usize);
                p.remove(gone * 64);
            }
            p.insert(page * 64);
            live.push(page);
            for q in page.saturating_sub(8)..=page {
                assert_eq!(p.contains(q * 64), live.contains(&q), "page {q}");
            }
            assert!(p.pages() <= p.capacity());
        }
    }
}

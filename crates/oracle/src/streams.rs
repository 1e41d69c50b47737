//! Adversarial access-stream generators for the shadow suites.
//!
//! Random streams rarely exercise the corners where the fast structures
//! and their oracles could disagree. These generators aim directly at
//! them: strides that straddle 4 KiB page boundaries (including
//! negative strides descending toward line 0, the underflow corner the
//! drop counters in `berti-core` guard), instruction pointers that
//! alias in the history table's set/tag split, and miss bursts sized to
//! saturate an MSHR.

use berti_types::{Cycle, Ip, VLine, LINES_PER_PAGE};

/// A strided line walk of `n` accesses starting at `start`, `gap`
/// cycles apart. `stride` may be negative; steps that would underflow
/// line 0 clamp there (the simulator never sees negative lines, but
/// prefetchers asked to predict *below* such a walk do hit the
/// underflow path).
pub fn page_boundary_stride(start: u64, stride: i64, n: usize, gap: u64) -> Vec<(VLine, Cycle)> {
    let mut out = Vec::with_capacity(n);
    let mut line = start;
    for i in 0..n {
        out.push((VLine::new(line), Cycle::new(i as u64 * gap)));
        line = line.saturating_add_signed(stride);
    }
    out
}

/// `n` strided walks, each positioned so that it crosses a page
/// boundary mid-walk: walk `k` starts half a walk short of the end of
/// page `k + 1`.
pub fn cross_page_walks(n: usize, stride: i64, len: usize, gap: u64) -> Vec<Vec<(VLine, Cycle)>> {
    (0..n)
        .map(|k| {
            let page_end = (k as u64 + 2) * LINES_PER_PAGE;
            let span = (stride.unsigned_abs() as usize * len / 2) as u64;
            let start = if stride >= 0 {
                page_end.saturating_sub(span)
            } else {
                page_end.saturating_add(span)
            };
            page_boundary_stride(start, stride, len, gap)
        })
        .collect()
}

/// IP-tag width above the set index (Table I).
const IP_TAG_BITS: u32 = 7;

/// `n` distinct IPs that all collide on the *same* set **and** tag of
/// a `sets`-set history table (Table I: 8) as `base`:
/// indistinguishable to the table, distinct to any per-IP map. The
/// table treats their accesses as one interleaved stream.
pub fn fully_aliasing_ips(base: Ip, n: usize, sets: usize) -> Vec<Ip> {
    let step = (sets as u64) << (IP_TAG_BITS + 2); // preserves set and tag
    (0..n as u64)
        .map(|k| Ip::new(base.raw() + k * step))
        .collect()
}

/// `n` distinct IPs that share `base`'s set but differ in tag: they
/// compete for the same FIFO ways while remaining distinguishable, the
/// eviction-pressure corner of the set/tag split.
pub fn set_colliding_ips(base: Ip, n: usize, sets: usize) -> Vec<Ip> {
    let step = (sets as u64) << 2; // preserves set, advances tag
    (1..=n as u64)
        .map(|k| Ip::new(base.raw() + k * step))
        .collect()
}

/// A burst of `burst` misses to distinct lines issued in the same
/// `window` cycles, repeated `rounds` times far enough apart for the
/// MSHR to drain between rounds: the admission/expiry boundary an MSHR
/// model must get exactly right.
pub fn mshr_saturation_bursts(
    base: u64,
    burst: usize,
    rounds: usize,
    window: u64,
    drain: u64,
) -> Vec<(VLine, Cycle)> {
    let mut out = Vec::with_capacity(burst * rounds);
    for r in 0..rounds {
        let t0 = r as u64 * (window + drain);
        for i in 0..burst {
            let t = t0 + (i as u64 * window) / burst.max(1) as u64;
            out.push((VLine::new(base + (r * burst + i) as u64 * 2), Cycle::new(t)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_page_walks_do_cross() {
        for walk in cross_page_walks(4, 3, 40, 10) {
            let pages: std::collections::BTreeSet<u64> =
                walk.iter().map(|(l, _)| l.page().raw()).collect();
            assert!(pages.len() >= 2, "walk must straddle a boundary: {pages:?}");
        }
    }

    #[test]
    fn negative_stride_clamps_at_zero() {
        let walk = page_boundary_stride(4, -3, 5, 1);
        assert_eq!(walk.last().unwrap().0.raw(), 0);
    }

    #[test]
    fn aliasing_ips_are_distinct() {
        let ips = fully_aliasing_ips(Ip::new(0x401cb0), 8, 8);
        let unique: std::collections::BTreeSet<u64> = ips.iter().map(|i| i.raw()).collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn saturation_bursts_fit_their_window() {
        let ops = mshr_saturation_bursts(1000, 32, 3, 16, 500);
        assert_eq!(ops.len(), 96);
        let lines: std::collections::BTreeSet<u64> = ops.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(lines.len(), 96, "lines are distinct");
        for w in ops.windows(2) {
            assert!(w[1].1 >= w[0].1, "timestamps are monotone");
        }
    }
}

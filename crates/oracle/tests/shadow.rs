//! Shadow suite: the fast structures and their O(n) reference models
//! are driven with the same operation streams and compared after every
//! step. Random streams come from proptest; the deterministic replays
//! use the adversarial generators in `berti_oracle::streams`, aimed at
//! page boundaries, history-table aliasing, and MSHR saturation.

use berti_core::HistoryTable;
use berti_mem::{AccessOutcome, Cache, Mshr};
use berti_oracle::{streams, HistoryOracle, LruOracle, MshrOracle};
use berti_types::{AccessKind, CacheGeometry, Cycle, Ip, ReplacementKind, VLine};
use proptest::prelude::*;

fn lru_cache(sets: usize, ways: usize) -> Cache {
    Cache::new(
        "S",
        CacheGeometry {
            sets,
            ways,
            latency: 4,
            mshr_entries: 64, // ample: the LRU shadow never saturates it
            rq_entries: 8,
            wq_entries: 8,
            pq_entries: 8,
            bandwidth: 2,
            replacement: ReplacementKind::Lru,
        },
    )
}

/// Set counts the indexing sweeps cover: powers of two take the mask
/// path of `berti_mem::SetIndex` (1 is its degenerate case, 64 and 2048
/// the default L1D and LLC), the others the modulo path (6144 is the
/// LLC of a 3-core system). The oracles only ever divide.
const SET_COUNTS: [usize; 6] = [1, 3, 6, 64, 2048, 6144];

/// Compares residency of the given sets of the two LRU models.
fn assert_same_residency(
    cache: &Cache,
    oracle: &LruOracle,
    sets: impl IntoIterator<Item = usize>,
    step: usize,
) {
    for set in sets {
        assert_eq!(
            cache.resident_in_set(set),
            oracle.resident_in_set(set),
            "residency diverged in set {set} after step {step}"
        );
    }
}

/// 48 cases per property in the ordinary CI/dev run; the scheduled
/// fuzz job lengthens this via `PROPTEST_CASES` (see ci.yml), and any
/// failure it finds is distilled into a seed under `tests/regressions/`.
fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Cache vs LruOracle: arbitrary interleavings of demand touches,
    /// prefetch probes, and fills agree on the set every address maps
    /// to, on hits, on victims, and on the residency map — over every
    /// set count of [`SET_COUNTS`], with addresses aimed at the first,
    /// second, middle and last set, near zero and above 2^40.
    #[test]
    fn cache_agrees_with_lru_oracle(
        sets in prop::sample::select(SET_COUNTS.to_vec()),
        ops in prop::collection::vec((0u64..12, 0usize..4, any::<bool>(), 0u8..4), 1..400)
    ) {
        let mut cache = lru_cache(sets, 4);
        let mut oracle = LruOracle::new(sets, 4);
        let lanes = [0, 1 % sets, sets / 2, sets - 1].map(|s| s as u64);
        for (step, &(tag, lane, far, op)) in ops.iter().enumerate() {
            let addr = (u64::from(far) << 40) + tag * sets as u64 + lanes[lane];
            let now = Cycle::new(step as u64 * 7);
            prop_assert_eq!(cache.set_index(addr), oracle.set_of(addr), "set of {:#x} at step {}", addr, step);
            match op {
                // Demand touch: hit-ness and recency must agree.
                0 | 1 => {
                    let kind = if op == 0 { AccessKind::Load } else { AccessKind::Prefetch };
                    let real_hit = matches!(cache.access(addr, kind, now), AccessOutcome::Hit(_));
                    let oracle_hit = oracle.touch(addr);
                    prop_assert_eq!(real_hit, oracle_hit, "hit-ness diverged on {:#x} at step {}", addr, step);
                }
                // Fill: the evicted victim must be the same line.
                _ => {
                    let kind = if op == 2 { AccessKind::Load } else { AccessKind::Prefetch };
                    let evicted = cache.fill(addr, kind, now, now + 1, 10, Ip::new(1), addr);
                    let expect = oracle.fill(addr);
                    prop_assert_eq!(evicted.map(|e| e.addr), expect, "victim diverged filling {:#x} at step {}", addr, step);
                }
            }
            assert_same_residency(&cache, &oracle, [oracle.set_of(addr)], step);
        }
        assert_same_residency(&cache, &oracle, 0..sets, ops.len());
    }

    /// Mshr vs MshrOracle: admission decisions, occupancy, and pending
    /// lookups agree under arbitrary allocate/expiry interleavings —
    /// with event times in **no** order (a query may be stamped earlier
    /// than a previous `allocate`, which has already reclaimed what was
    /// resolved by *its* time), zero latencies, equal fill times,
    /// repeated lines, and capacities from permanently-full to ample.
    #[test]
    fn mshr_agrees_with_oracle(
        capacity in prop::sample::select(vec![0usize, 1, 4, 64]),
        ops in prop::collection::vec((0u64..12, 0u64..25, 0u64..300, 0u64..300), 1..300)
    ) {
        let mut real = Mshr::new(capacity);
        let mut oracle = MshrOracle::new(capacity);
        for (step, &(line, lat, query_at, alloc_at)) in ops.iter().enumerate() {
            let (query_at, now) = (Cycle::new(query_at), Cycle::new(alloc_at));
            for at in [query_at, now] {
                prop_assert_eq!(real.occupancy(at), oracle.occupancy(at), "occupancy diverged at step {}", step);
                prop_assert_eq!(real.occupancy_fraction(at), oracle.occupancy_fraction(at));
                prop_assert_eq!(real.has_free_entry(at), oracle.has_free_entry(at), "has_free_entry diverged at step {}", step);
                for l in 0..12 {
                    prop_assert_eq!(real.pending(l, at), oracle.pending(l, at), "pending({}) diverged at step {}", l, step);
                }
            }
            // Latencies are multiples of 8 so distinct entries often
            // share a fill time.
            let admitted = real.allocate(line, now, now + lat * 8);
            let expected = oracle.allocate(line, now, now + lat * 8);
            prop_assert_eq!(admitted, expected, "admission diverged on line {} at step {}", line, step);
        }
    }

    /// HistoryTable vs HistoryOracle: identical inserts (strictly
    /// increasing timestamps, so result order is unique) produce
    /// identical timely-delta searches, including FIFO eviction, tag
    /// aliasing, the wrap window, and max-hits truncation — over every
    /// set count of [`SET_COUNTS`] (Table I's 8 sets take the same mask
    /// path as 64).
    #[test]
    fn history_agrees_with_oracle(
        sets in prop::sample::select(SET_COUNTS.to_vec()),
        inserts in prop::collection::vec((0u64..6, 1u64..2_000), 1..200),
        latency in 1u64..5_000,
        target in 0u64..2_000,
        max_hits in 1usize..20,
    ) {
        // A pool mixing full aliases of the base IP with set-colliders:
        // the table cannot tell pool[0], pool[1], pool[2] apart, while
        // pool[3..] fight them for ways.
        let base = Ip::new(0x401cb0);
        let mut pool = streams::fully_aliasing_ips(base, 3, sets);
        pool.extend(streams::set_colliding_ips(base, 3, sets));
        let mut real = HistoryTable::new(sets, 16, 16);
        let mut oracle = HistoryOracle::new(sets, 16, 16);
        for (step, &(who, line)) in inserts.iter().enumerate() {
            let ip = pool[who as usize % pool.len()];
            let at = Cycle::new(step as u64 * 3); // strictly increasing
            real.insert(ip, VLine::new(line), at);
            oracle.insert(ip, VLine::new(line), at);
        }
        let demand_at = Cycle::new(inserts.len() as u64 * 3 + 10_000);
        for ip in &pool {
            let got: Vec<(u64, i32)> = real
                .search_timely(*ip, VLine::new(target), demand_at, latency, max_hits)
                .iter().map(|h| (h.at.raw(), h.delta.raw())).collect();
            let want: Vec<(u64, i32)> = oracle
                .search_timely(*ip, VLine::new(target), demand_at, latency, max_hits)
                .iter().map(|h| (h.at.raw(), h.delta.raw())).collect();
            prop_assert_eq!(got, want, "search diverged for ip {:#x}", ip.raw());
        }
    }
}

/// Deterministic replay: saturation bursts drive the MSHR through full
/// admission, rejection at capacity, and drain, with the oracle in
/// lockstep at every step.
#[test]
fn mshr_saturation_bursts_agree_with_oracle() {
    let ops = streams::mshr_saturation_bursts(4_000, 24, 4, 20, 600);
    let mut real = Mshr::new(8);
    let mut oracle = MshrOracle::new(8);
    let mut rejected = 0u32;
    for (line, at) in ops {
        let a = real.allocate(line.raw(), at, at + 150);
        let b = oracle.allocate(line.raw(), at, at + 150);
        assert_eq!(a, b, "admission diverged on line {}", line.raw());
        assert_eq!(real.occupancy(at), oracle.occupancy(at));
        if !a {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "bursts of 24 must overwhelm 8 entries");
}

/// Deterministic replay: interleaved streams from fully-aliasing IPs
/// merge into one history context; the two models agree on the merged
/// search results.
#[test]
fn aliasing_ip_streams_agree_with_oracle() {
    let ips = streams::fully_aliasing_ips(Ip::new(0x77_1cb0), 3, 8);
    let mut real = HistoryTable::new(8, 16, 16);
    let mut oracle = HistoryOracle::new(8, 16, 16);
    let mut t = 0u64;
    for round in 0..12u64 {
        for (k, ip) in ips.iter().enumerate() {
            t += 5;
            let line = VLine::new(1_000 + round * 3 + k as u64);
            real.insert(*ip, line, Cycle::new(t));
            oracle.insert(*ip, line, Cycle::new(t));
        }
    }
    // Any of the aliases searches the merged stream.
    let got: Vec<(u64, i32)> = real
        .search_timely(ips[0], VLine::new(1_100), Cycle::new(t + 500), 400, 16)
        .iter()
        .map(|h| (h.at.raw(), h.delta.raw()))
        .collect();
    let want: Vec<(u64, i32)> = oracle
        .search_timely(ips[0], VLine::new(1_100), Cycle::new(t + 500), 400, 16)
        .iter()
        .map(|h| (h.at.raw(), h.delta.raw()))
        .collect();
    assert!(!got.is_empty(), "merged stream must produce timely hits");
    assert_eq!(got, want);
}

/// Deterministic replay: page-boundary walks (ascending and descending
/// toward line 0) keep the cache and its oracle in agreement and
/// exercise the underflow corner in line arithmetic.
#[test]
fn cross_page_walks_keep_cache_and_oracle_agreeing() {
    const SETS: usize = 8;
    let mut cache = lru_cache(SETS, 2);
    let mut oracle = LruOracle::new(SETS, 2);
    let mut step = 0usize;
    let mut walks = streams::cross_page_walks(3, 3, 50, 11);
    walks.push(streams::page_boundary_stride(40, -3, 30, 11)); // descends to 0
    for walk in walks {
        for (line, at) in walk {
            let addr = line.raw();
            if matches!(
                cache.access(addr, AccessKind::Load, at),
                AccessOutcome::Miss
            ) {
                cache.fill(addr, AccessKind::Load, at, at + 1, 10, Ip::new(1), addr);
            }
            oracle.touch(addr);
            oracle.fill(addr);
            assert_same_residency(&cache, &oracle, 0..SETS, step);
            step += 1;
        }
    }
}

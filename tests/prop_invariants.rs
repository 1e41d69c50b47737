//! Property-based tests: the hierarchy and Berti stay self-consistent
//! under arbitrary access streams.

use berti::core_prefetcher::{Berti, BertiConfig, DeltaTable, HistoryTable};
use berti::mem::{AccessEvent, DemandAccess, DemandOutcome, Hierarchy, Prefetcher, SharedMemory};
use berti::types::{AccessKind, Cycle, Delta, Ip, SystemConfig, VAddr, VLine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary demand streams never panic, never return data before
    /// the request, and keep hit/miss accounting consistent.
    #[test]
    fn hierarchy_handles_arbitrary_streams(
        addrs in prop::collection::vec((0u64..1u64 << 34, 0u64..64u64, any::<bool>()), 1..300)
    ) {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(&cfg, Box::new(Berti::new(BertiConfig::default())), None);
        let mut s = SharedMemory::new(&cfg, 1);
        let mut now = Cycle::ZERO;
        let mut done = 0u64;
        for (base, ip, is_store) in addrs {
            now += 3;
            h.tick(&mut s, now);
            let req = DemandAccess {
                ip: Ip::new(0x400_000 + ip * 4),
                vaddr: VAddr::new(base),
                kind: if is_store { AccessKind::Rfo } else { AccessKind::Load },
            };
            match h.demand_access(&mut s, req, now) {
                DemandOutcome::Done { ready_at, .. } => {
                    prop_assert!(ready_at > now, "data cannot be ready instantly");
                    done += 1;
                }
                DemandOutcome::MshrFull => now += 50,
            }
        }
        let st = h.l1d().stats();
        prop_assert_eq!(st.demand_accesses(), done);
        prop_assert!(st.pf_useful_timely + st.pf_useful_late <= st.pf_fills);
    }

    /// The history search only returns deltas whose source access is
    /// old enough to have been timely, youngest first.
    #[test]
    fn history_search_respects_the_cutoff(
        entries in prop::collection::vec((1u64..1_000_000, 0u64..10_000), 1..64),
        latency in 1u64..4000,
        target in 1u64..1_000_000,
    ) {
        let mut h = HistoryTable::new(8, 16, 16);
        const IP: Ip = Ip::new(0x1234);
        for (line, t) in &entries {
            h.insert(IP, VLine::new(*line), Cycle::new(*t));
        }
        let demand_at = Cycle::new(12_000);
        let hits = h.search_timely(IP, VLine::new(target), demand_at, latency, 8);
        prop_assert!(hits.len() <= 8);
        for w in hits.windows(2) {
            prop_assert!(w[0].at >= w[1].at, "youngest first");
        }
        for hit in &hits {
            prop_assert!(hit.at.raw() <= demand_at.raw() - latency);
            prop_assert!(hit.delta != Delta::ZERO);
        }
    }

    /// The delta table never selects more than the configured number of
    /// prefetch deltas and never emits a zero delta. (It cannot emit a
    /// NoPref delta: the list pairs each delta with the level it fills,
    /// and a NoPref status has none.)
    #[test]
    fn delta_table_selection_is_bounded(
        searches in prop::collection::vec(
            prop::collection::vec(-100i32..100, 0..10), 1..200),
    ) {
        let cfg = BertiConfig::default();
        let mut t = DeltaTable::new(&cfg);
        const IP: Ip = Ip::new(0x777);
        for ds in &searches {
            let deltas: Vec<Delta> = ds.iter().map(|&d| Delta::new(d)).collect();
            t.record_search(IP, &deltas);
        }
        let mut out = Vec::new();
        t.prefetch_deltas(IP, &mut out);
        prop_assert!(out.len() <= cfg.max_prefetch_deltas);
        for (d, _level) in &out {
            prop_assert!(*d != Delta::ZERO);
        }
    }

    /// Skip-ahead soundness: `Hierarchy::next_event` never
    /// under-reports. If it says the next event is at `t`, ticking
    /// strictly before `t` changes nothing observable, and ticking at
    /// `t` makes progress; if it says `None`, any tick is a no-op. A
    /// violation would mean the event-scheduled engine could miss a
    /// wake-up and silently diverge from the naive loop.
    #[test]
    fn next_event_never_under_reports(
        addrs in prop::collection::vec((0u64..1u64 << 30, 0u64..16u64), 1..200)
    ) {
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(&cfg, Box::new(Berti::new(BertiConfig::default())), None);
        let mut s = SharedMemory::new(&cfg, 1);
        let mut now = Cycle::ZERO;
        for (base, ip) in addrs {
            now += 4;
            match h.next_event(now) {
                Some(t) => {
                    prop_assert!(t >= now, "events are never reported in the past");
                    if t > now {
                        // Quiescent stretch: ticking anywhere in
                        // [now, t) must be a pure no-op.
                        let flow = *h.flow_stats();
                        let pending = h.l1_pq_len();
                        h.tick(&mut s, Cycle::new(t.raw() - 1));
                        prop_assert_eq!(*h.flow_stats(), flow);
                        prop_assert_eq!(h.l1_pq_len(), pending);
                    }
                    // At the reported time the tick must do real work
                    // (issue at least one queued prefetch) and leave no
                    // event still due at or before `t`.
                    let pending = h.l1_pq_len();
                    h.tick(&mut s, t);
                    prop_assert!(
                        h.l1_pq_len() < pending,
                        "tick at the reported event time must make progress"
                    );
                    if let Some(next) = h.next_event(t) {
                        prop_assert!(next > t, "no event may remain due after ticking");
                    }
                }
                None => {
                    // Empty queues: fast-forwarding arbitrarily far is safe.
                    let flow = *h.flow_stats();
                    h.tick(&mut s, now + 10_000);
                    prop_assert_eq!(*h.flow_stats(), flow);
                    prop_assert_eq!(h.l1_pq_len(), 0);
                }
            }
            // Feed the prefetcher so later iterations see queued work.
            let req = DemandAccess {
                ip: Ip::new(0x400_000 + ip * 4),
                vaddr: VAddr::new(base),
                kind: AccessKind::Load,
            };
            if let DemandOutcome::MshrFull = h.demand_access(&mut s, req, now) {
                now += 50;
            }
        }
    }

    /// Berti never prefetches across a page when the ablation disables
    /// it, for any access stream.
    #[test]
    fn cross_page_ablation_is_airtight(
        lines in prop::collection::vec(0u64..10_000, 1..500),
    ) {
        let cfg = BertiConfig {
            cross_page: false,
            ..BertiConfig::default()
        };
        let mut b = Berti::new(cfg);
        let mut out = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let t = i as u64 * 40;
            let ev = AccessEvent {
                ip: Ip::new(0x400_100),
                line: VLine::new(*line),
                at: Cycle::new(t),
                kind: AccessKind::Load,
                hit: false,
                timely_prefetch_hit: false,
                late_prefetch_hit: false,
                stored_latency: 0,
                mshr_occupancy: 0.0,
            };
            out.clear();
            b.on_access(&ev, &mut out);
            for d in &out {
                prop_assert_eq!(d.target.page(), VLine::new(*line).page());
            }
            b.on_fill(&berti::mem::FillEvent {
                line: VLine::new(*line),
                ip: Ip::new(0x400_100),
                at: Cycle::new(t + 100),
                latency: 100,
                was_prefetch: false,
            });
        }
    }
}

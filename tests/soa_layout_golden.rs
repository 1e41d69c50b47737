//! Byte-identical report pinning across the SoA data-layout refactor.
//!
//! The fixtures under `tests/fixtures/soa_golden/` were generated with
//! the pre-SoA (`Vec<Option<Line>>`) cache layout and the pre-arena
//! MSHR/queue storage. Every simulation here must keep producing the
//! exact same serialized report — any divergence means the layout
//! refactor changed simulated behaviour, not just its memory shape.
//! The `berti-page` rows were added later, blessed from the standalone
//! per-page prefetcher just before it became `Berti<PerPage>`, so they
//! pin that merge the same way.
//!
//! Regenerate (only when a *semantic* change is intended and reviewed):
//! `BLESS_SOA_GOLDEN=1 cargo test --test soa_layout_golden`.

use berti::sim::{
    simulate_multicore_with_engine, simulate_with_engine, Engine, PrefetcherChoice, SimOptions,
};
use berti::traces::{gap, mix, spec};
use berti::types::SystemConfig;
use std::path::PathBuf;

fn opts() -> SimOptions {
    SimOptions {
        warmup_instructions: 10_000,
        sim_instructions: 60_000,
        ..SimOptions::default()
    }
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/soa_golden")
}

fn check(name: &str, serialized: String) {
    let path = fixture_dir().join(format!("{name}.json"));
    if std::env::var_os("BLESS_SOA_GOLDEN").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("fixture dir");
        std::fs::write(&path, &serialized).expect("writable fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        golden, serialized,
        "report diverged from the pre-SoA layout on `{name}`"
    );
}

#[test]
fn single_core_reports_match_pre_soa_goldens() {
    let cfg = SystemConfig::default();
    for (workload, idx_suite) in [("spec0", 0usize), ("spec1", 1), ("spec2", 2)] {
        let w = &spec::suite()[idx_suite];
        for (pf_name, pf) in [
            ("berti", PrefetcherChoice::Berti),
            ("berti-page", PrefetcherChoice::BertiPage),
            ("ipstride", PrefetcherChoice::IpStride),
        ] {
            for (engine_name, engine) in [("naive", Engine::Naive), ("skip", Engine::SkipAhead)] {
                let r =
                    simulate_with_engine(&cfg, pf.clone(), None, &mut w.trace(), &opts(), engine);
                check(
                    &format!("{workload}-{pf_name}-{engine_name}"),
                    serde::json::to_string(&r),
                );
            }
        }
    }
}

#[test]
fn gap_kernel_report_matches_pre_soa_golden() {
    let cfg = SystemConfig::default();
    let w = &gap::suite()[0];
    let r = simulate_with_engine(
        &cfg,
        PrefetcherChoice::Berti,
        None,
        &mut w.trace(),
        &opts(),
        Engine::SkipAhead,
    );
    check("gap0-berti-skip", serde::json::to_string(&r));
}

#[test]
fn multicore_reports_match_pre_soa_goldens() {
    let cfg = SystemConfig::default();
    let o = SimOptions {
        warmup_instructions: 5_000,
        sim_instructions: 30_000,
        ..SimOptions::default()
    };
    let mixes = mix::random_mixes(1, 2, 99);
    for (engine_name, engine) in [("naive", Engine::Naive), ("skip", Engine::SkipAhead)] {
        let r = simulate_multicore_with_engine(
            &cfg,
            PrefetcherChoice::Berti,
            None,
            &mixes[0],
            &o,
            engine,
        );
        for (core, report) in r.cores.iter().enumerate() {
            check(
                &format!("mix0-berti-{engine_name}-core{core}"),
                serde::json::to_string(report),
            );
        }
    }
}

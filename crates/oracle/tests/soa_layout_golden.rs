//! The checked-in report fixtures under `tests/fixtures/soa_golden/`,
//! as rows of the byte-identity matrix (`matrix/mod.rs`): each row's
//! cells, rotated over the ways into the driver, must equal the fixture
//! of their engine byte for byte.

mod matrix;

use berti_traces::{gap, mix, spec};
use matrix::{check, Engine, Input, L2PrefetcherChoice, PrefetcherChoice, Row, Way, FIXTURE, MIX};

/// Three SPEC-like workloads × three L1D prefetchers.
#[test]
fn single_core_reports_match_pre_soa_goldens() {
    let suite = spec::suite();
    let mut rows = Vec::new();
    for (i, w) in suite[..3].iter().enumerate() {
        for (stem, l1) in [
            ("berti", PrefetcherChoice::Berti),
            ("berti-page", PrefetcherChoice::BertiPage),
            ("ipstride", PrefetcherChoice::IpStride),
        ] {
            let row = Row::new(Input::Workload(w.clone()), l1, FIXTURE);
            rows.push(row.fixture(format!("spec{i}-{stem}")).rotated(rows.len()));
        }
    }
    check("fixture", &rows);
}

/// The same three workloads × two L1D+L2 pairs.
#[test]
fn l2_hosted_reports_match_goldens() {
    let suite = spec::suite();
    let mut rows = Vec::new();
    for (i, w) in suite[..3].iter().enumerate() {
        for (l1, l2) in [
            (PrefetcherChoice::Berti, L2PrefetcherChoice::SppPpf),
            (PrefetcherChoice::IpStride, L2PrefetcherChoice::Ipcp),
        ] {
            let stem = format!("spec{i}-{}+{}", l1.name(), l2.name());
            let row = Row::new(Input::Workload(w.clone()), l1, FIXTURE).l2(l2);
            rows.push(row.fixture(stem).rotated(rows.len()));
        }
    }
    check("l2-fixture", &rows);
}

#[test]
fn gap_kernel_report_matches_pre_soa_golden() {
    let gap0 = Input::Workload(gap::suite().swap_remove(0));
    let row = Row::new(gap0, PrefetcherChoice::Berti, FIXTURE)
        .fixture("gap0-berti".to_string())
        .cell(Way::OneSlot, Engine::SkipAhead);
    check("gap-fixture", &[row]);
}

/// A 2-core mix, one fixture a core.
#[test]
fn multicore_reports_match_pre_soa_goldens() {
    let mix0 = Input::Mix(mix::random_mixes(1, 2, 99).swap_remove(0));
    let row = Row::new(mix0, PrefetcherChoice::Berti, MIX)
        .fixture("mix0-berti".to_string())
        .cell(Way::Direct, Engine::Naive)
        .cell(Way::Direct, Engine::SkipAhead);
    check("mix-fixture", &[row]);
}

//! Built-in campaigns: the paper's evaluation grids, by name.
//!
//! The contender lists here are the single source of truth — the
//! `berti-bench` figure runner (`--bin fig -- <id>`) and the `campaign`
//! CLI both build their grids from them.

use berti_sim::{L2PrefetcherChoice, PrefetcherChoice, SimOptions};
use berti_traces::TraceRegistry;

use crate::campaign::Campaign;

/// The L1D prefetchers of Fig. 8/10/11 (the baseline IP-stride is the
/// denominator of every speedup).
pub fn l1d_contenders() -> Vec<PrefetcherChoice> {
    vec![
        PrefetcherChoice::Mlop,
        PrefetcherChoice::Ipcp,
        PrefetcherChoice::Berti,
    ]
}

/// The multi-level combinations of Fig. 12/13 (L1D + L2).
pub fn multilevel_contenders() -> Vec<(PrefetcherChoice, Option<L2PrefetcherChoice>)> {
    vec![
        (PrefetcherChoice::Mlop, Some(L2PrefetcherChoice::Bingo)),
        (PrefetcherChoice::Mlop, Some(L2PrefetcherChoice::SppPpf)),
        (PrefetcherChoice::Ipcp, Some(L2PrefetcherChoice::Ipcp)),
        (PrefetcherChoice::Berti, Some(L2PrefetcherChoice::Bingo)),
        (PrefetcherChoice::Berti, Some(L2PrefetcherChoice::SppPpf)),
    ]
}

/// Names of all built-in campaigns, with a one-line description each.
pub fn builtin_campaigns() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "quick",
            "2 workloads × {ip-stride, berti} smoke grid (4 cells)",
        ),
        (
            "l1d",
            "memory-intensive suite × {ip-stride, mlop, ipcp, berti} (Fig. 8/10/11)",
        ),
        (
            "multilevel",
            "memory-intensive suite × multi-level combinations (Fig. 12/13)",
        ),
        (
            "cloud",
            "CloudSuite-like workloads × {ip-stride, mlop, ipcp, berti} (Sec. IV-G)",
        ),
    ]
}

/// Builds a built-in campaign by name.
pub fn builtin(name: &str, opts: SimOptions) -> Option<Campaign> {
    let c = match name {
        "quick" => Campaign::grid("quick")
            .workload("lbm-like")
            .workload("bfs-kron")
            .l1(PrefetcherChoice::IpStride)
            .l1(PrefetcherChoice::Berti),
        "l1d" => Campaign::grid("l1d")
            .workloads(&berti_traces::memory_intensive_suite())
            .l1(PrefetcherChoice::IpStride)
            .configs(l1d_contenders().into_iter().map(|p| (p, None))),
        "multilevel" => Campaign::grid("multilevel")
            .workloads(&berti_traces::memory_intensive_suite())
            .l1(PrefetcherChoice::IpStride)
            .configs(multilevel_contenders()),
        "cloud" => Campaign::grid("cloud")
            .workloads(&berti_traces::cloud::suite())
            .l1(PrefetcherChoice::IpStride)
            .configs(l1d_contenders().into_iter().map(|p| (p, None))),
        _ => return None,
    };
    Some(c.opts(opts).build())
}

/// Campaigns over the trace files of a `--trace-dir`, with a one-line
/// description each. They resolve against a [`TraceRegistry`] rather
/// than the builtin list, so they only exist when a trace dir is given.
pub fn trace_campaigns() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "traces",
            "every discovered trace × {ip-stride, mlop, ipcp, berti}",
        ),
        (
            "quick-traces",
            "every discovered trace × {ip-stride, berti} smoke grid",
        ),
    ]
}

/// Builds a trace-dir campaign by name over `registry`'s discovered
/// trace files. `None` for unknown names; a campaign with zero cells
/// when the registry has no trace workloads (callers turn that into
/// "no trace files found").
pub fn trace_campaign(name: &str, registry: &TraceRegistry, opts: SimOptions) -> Option<Campaign> {
    let traces: Vec<_> = registry.trace_workloads().cloned().collect();
    let c = match name {
        "traces" => Campaign::grid("traces")
            .workloads(&traces)
            .l1(PrefetcherChoice::IpStride)
            .configs(l1d_contenders().into_iter().map(|p| (p, None))),
        "quick-traces" => Campaign::grid("quick-traces")
            .workloads(&traces)
            .l1(PrefetcherChoice::IpStride)
            .l1(PrefetcherChoice::Berti),
        _ => return None,
    };
    Some(c.opts(opts).build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_builds_and_resolves() {
        for (name, _) in builtin_campaigns() {
            let c = builtin(name, SimOptions::default()).expect("builtin exists");
            assert!(!c.cells.is_empty(), "{name} has cells");
            for cell in &c.cells {
                assert!(
                    berti_traces::workload_by_name(&cell.workload).is_some(),
                    "{name}: workload `{}` resolves",
                    cell.workload
                );
            }
        }
        assert!(builtin("no-such-campaign", SimOptions::default()).is_none());
    }

    #[test]
    fn trace_campaigns_build_over_discovered_files() {
        let dir = std::env::temp_dir().join(format!("berti-trace-camp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let instrs = vec![berti_types::Instr::load(
            berti_types::Ip::new(0x400),
            berti_types::VAddr::new(64),
        )];
        berti_traces::ingest::write_btrc(&dir.join("tiny.btrc"), &instrs).expect("writes");
        let reg = TraceRegistry::with_trace_dir(&dir).expect("scans");

        let c = trace_campaign("quick-traces", &reg, SimOptions::default()).expect("exists");
        assert_eq!(c.cells.len(), 2, "1 trace × 2 prefetchers");
        assert!(c.cells.iter().all(|cell| cell.workload == "tiny"));
        let c = trace_campaign("traces", &reg, SimOptions::default()).expect("exists");
        assert_eq!(c.cells.len(), 4, "1 trace × 4 prefetchers");
        assert!(trace_campaign("no-such", &reg, SimOptions::default()).is_none());

        let empty = TraceRegistry::builtin();
        let c = trace_campaign("traces", &empty, SimOptions::default()).expect("exists");
        assert!(c.cells.is_empty(), "no trace files, no cells");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_campaign_is_the_expected_grid() {
        let c = builtin("quick", SimOptions::default()).expect("exists");
        assert_eq!(c.cells.len(), 4);
        let labels: std::collections::HashSet<String> = c.cells.iter().map(|s| s.label()).collect();
        assert!(labels.contains("ip-stride") && labels.contains("berti"));
    }
}

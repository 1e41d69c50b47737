//! Simulation reports: the numbers the paper's figures are made of.

use berti_cpu::CoreStats;
use berti_energy::{AccessCounts, EnergyBreakdown, EnergyModel};
use berti_mem::{CacheStats, DramStats};
use berti_stats::Registry;
use serde::{Deserialize, Serialize};

/// The identity half of a [`Report`]: everything that is not a
/// counter. Paired with a stats [`Registry`] by
/// [`Report::from_registry`].
#[derive(Clone, Debug)]
pub struct ReportMeta {
    /// Workload name.
    pub workload: String,
    /// L1D prefetcher name.
    pub l1_prefetcher: String,
    /// L2 prefetcher name, if any.
    pub l2_prefetcher: Option<String>,
    /// Prefetcher storage in bits (L1 + L2).
    pub prefetcher_storage_bits: u64,
}

/// Measurement-phase results of one core's run.
///
/// Every field serializes, so a `Report` round-trips losslessly
/// through JSON — the campaign result cache (`berti-harness`) depends
/// on that to replay cached cells byte-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// L1D prefetcher name.
    pub l1_prefetcher: String,
    /// L2 prefetcher name, if any.
    pub l2_prefetcher: Option<String>,
    /// Prefetcher storage in bits (L1 + L2).
    pub prefetcher_storage_bits: u64,
    /// Instructions retired in the measurement phase.
    pub instructions: u64,
    /// Cycles of the measurement phase.
    pub cycles: u64,
    /// Core counters.
    pub core: CoreStats,
    /// L1D cache counters.
    pub l1d: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// LLC counters (shared; whole-system in multi-core runs).
    pub llc: CacheStats,
    /// DRAM counters (shared).
    pub dram: DramStats,
    /// Prefetch-flow counters.
    pub flow: berti_mem::FlowStats,
    /// Access counts for the energy model.
    pub counts: AccessCounts,
    /// Dynamic energy of the hierarchy.
    pub energy: EnergyBreakdown,
}

impl Report {
    /// Assembles a report generically from a stats registry: each
    /// counter block is pulled from its named group (`"core"`,
    /// `"l1d"`, `"l2"`, `"llc"`, `"dram"`, `"flow"`) rather than
    /// copied field by field from the components, then the derived
    /// energy-model counts are computed. Groups a run never registered
    /// read as all-zero.
    pub fn from_registry(meta: ReportMeta, registry: &Registry) -> Report {
        let core: CoreStats = registry.get("core");
        let mut r = Report {
            workload: meta.workload,
            l1_prefetcher: meta.l1_prefetcher,
            l2_prefetcher: meta.l2_prefetcher,
            prefetcher_storage_bits: meta.prefetcher_storage_bits,
            instructions: core.instructions,
            cycles: core.cycles,
            core,
            l1d: registry.get("l1d"),
            l2: registry.get("l2"),
            llc: registry.get("llc"),
            dram: registry.get("dram"),
            flow: registry.get("flow"),
            counts: Default::default(),
            energy: Default::default(),
        };
        r.compute_counts();
        r
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over `baseline` (same workload).
    pub fn speedup_over(&self, baseline: &Report) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }

    /// Demand misses per kilo-instruction at the given cache's stats.
    pub fn mpki(&self, cache: &CacheStats) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            cache.demand_misses() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1D demand MPKI.
    pub fn l1d_mpki(&self) -> f64 {
        self.mpki(&self.l1d)
    }

    /// L2 demand MPKI.
    pub fn l2_mpki(&self) -> f64 {
        self.mpki(&self.l2)
    }

    /// LLC demand MPKI.
    pub fn llc_mpki(&self) -> f64 {
        self.mpki(&self.llc)
    }

    /// L1D prefetch accuracy by the artifact's formula
    /// (timely + late useful) / prefetch fills; `None` if no prefetch
    /// filled the L1D.
    pub fn l1d_accuracy(&self) -> Option<f64> {
        self.l1d.prefetch_accuracy()
    }

    /// Fraction of useful L1D prefetches that arrived late (Fig. 10's
    /// dark bars).
    pub fn l1d_late_fraction(&self) -> Option<f64> {
        self.l1d.late_fraction()
    }

    /// Builds the energy-model access counts from the cache statistics.
    pub(crate) fn compute_counts(&mut self) {
        let l1 = &self.l1d;
        let l2 = &self.l2;
        let llc = &self.llc;
        self.counts = AccessCounts {
            l1d_reads: l1.demand_accesses() + l1.pf_already_present + l1.pf_fills,
            l1d_writes: l1.demand_misses() + l1.pf_fills + l1.rfo_hits + l1.rfo_misses,
            l2_reads: l2.demand_accesses()
                + l2.pf_already_present
                + l2.pf_fills
                + l2.wb_hits
                + l2.wb_misses,
            l2_writes: l2.demand_misses() + l2.pf_fills + l2.wb_hits + l2.wb_misses,
            llc_reads: llc.demand_accesses()
                + llc.pf_already_present
                + llc.pf_fills
                + llc.wb_hits
                + llc.wb_misses,
            llc_writes: llc.demand_misses() + llc.pf_fills + llc.wb_hits + llc.wb_misses,
            dram_reads: self.dram.reads,
            dram_writes: self.dram.writes,
        };
        self.energy = EnergyModel::default().dynamic_energy(&self.counts);
    }

    /// Traffic between L1D and L2 / L2 and LLC / LLC and DRAM, in
    /// requests (Fig. 14).
    pub fn traffic(&self) -> (u64, u64, u64) {
        (
            self.l1d.traffic_below(),
            self.l2.traffic_below(),
            self.dram.reads + self.dram.writes,
        )
    }
}

/// Results of a multi-core run.
#[derive(Clone, Debug)]
pub struct MultiCoreReport {
    /// Per-core reports (LLC/DRAM/energy fields are whole-system).
    pub cores: Vec<Report>,
}

impl MultiCoreReport {
    /// Weighted speedup over a baseline run of the same mix:
    /// geometric mean of per-core IPC ratios.
    pub fn speedup_over(&self, baseline: &MultiCoreReport) -> f64 {
        let ratios: Vec<f64> = self
            .cores
            .iter()
            .zip(&baseline.cores)
            .map(|(a, b)| a.speedup_over(b))
            .collect();
        geometric_mean(&ratios)
    }
}

/// Geometric mean (the paper's averaging of per-trace speedups).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_roundtrips_losslessly_through_json() {
        let mut r = Report {
            workload: "lbm-like".to_string(),
            l1_prefetcher: "berti".to_string(),
            l2_prefetcher: Some("spp-ppf".to_string()),
            prefetcher_storage_bits: 20_523,
            instructions: 400_000,
            cycles: 173_211,
            core: Default::default(),
            l1d: Default::default(),
            l2: Default::default(),
            llc: Default::default(),
            dram: Default::default(),
            flow: Default::default(),
            counts: Default::default(),
            energy: Default::default(),
        };
        r.l1d.load_hits = 123_456;
        r.l1d.pf_fills = 789;
        r.dram.reads = 42;
        r.compute_counts();
        let json = serde::json::to_string(&r);
        let back: Report = serde::json::from_str(&json).expect("report parses");
        // Byte-identical re-serialization is what the result cache
        // needs; it implies every field (floats included) round-trips.
        assert_eq!(serde::json::to_string(&back), json);
        assert_eq!(back.l1d.load_hits, 123_456);
        assert_eq!(back.energy.total_nj(), r.energy.total_nj());
    }
}

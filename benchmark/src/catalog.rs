//! The metric catalogue: every metric's name, unit, direction and bound,
//! and for each per-layer metric the end-to-end metric and workload it
//! should move (written before measuring). `BENCHMARK.json` is generated
//! from this table (`benchmark describe`) and a test keeps the two equal.

use serde::Value;

use crate::fixtures::FIXTURES;
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        let d = match self {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        if old == 0.0 {
            0.0
        } else {
            d / old.abs()
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// The end-to-end metrics, what a user of the system sees. Host-time
/// metrics are lower-decile estimates (see `estimator`); the two
/// `berti_*` metrics are simulated and repeat exactly for a given seed.
///
/// `failed_share` of the issue is not here: it is 0 by construction
/// and the contract forbids metrics that can be 0; failed / attempted
/// operations are the `failed` and `attempted` keys of every result.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of three set-ups: fixture generation, reference aggregates, daemon boot, discarded first round",
    },
    EndToEnd {
        name: "sim_mips",
        unit: "MIPS",
        better: Better::Higher,
        bound: 0.15,
        what: "simulated instructions (warm-up + measured, all cells and cores) of a cold round / p10 round seconds / 1e6",
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        what: "cells of a cold round / p10 round seconds (submit or spawn to result in hand)",
    },
    EndToEnd {
        name: "warm_cells_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        what: "the same for an all-cache-hit resubmit (CLI rerun, daemon resubmit, in-process run_campaign)",
    },
    EndToEnd {
        name: "first_event_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        what: "round submitted to first progress visible to the caller (first SSE data line / first CLI progress byte / first cell report)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
        what: "VmHWM of the benchmark process (in-process), ru_maxrss of the CLI child, daemon + live workers summed",
    },
    EndToEnd {
        name: "berti_speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.08,
        what: "geomean over the workload's traces of IPC(berti) / IPC(ip-stride); simulated time",
    },
    EndToEnd {
        name: "berti_l1d_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        what: "useful / filled L1D prefetches over the workload's berti cells; simulated",
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const SIM_HOT: &str = "sim_mips on cell_hot";
const SIM_MC4: &str = "sim_mips on cell_mc4";
const CLI_COLD: &str = "cells_per_s on campaign_cli";
const DAEMON_COLD: &str = "cells_per_s on campaign_daemon";
const BOTH_COLD: &str = "cells_per_s on campaign_cli and campaign_daemon";
const BOTH_WARM: &str = "warm_cells_per_s on campaign_cli and campaign_daemon";
const DAEMON_LATENCY: &str = "first_event_ms and warm_cells_per_s on campaign_daemon";
const SETUP: &str = "setup_s on campaign_daemon";
const MODEL: &str = "berti_speedup / berti_l1d_accuracy on cell_hot";

struct Table(Vec<PerLayer>);

impl Table {
    fn add(&mut self, name: String, unit: &'static str, better: Better, moves: &'static str) {
        self.0.push(PerLayer {
            name,
            unit,
            better,
            moves,
        });
    }

    /// Timings: several metrics of one unit, lower is better.
    fn lower(&mut self, names: &[&str], unit: &'static str, moves: &'static str) {
        for n in names {
            self.add(n.to_string(), unit, Better::Lower, moves);
        }
    }
}

/// The per-layer metrics, layer by layer (the layers are this
/// repository's crates).
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut t = Table(Vec::new());

    // traces (13)
    t.lower(
        &["traces.builder.gen_ns_per_instr"],
        "ns",
        "setup_s on every workload",
    );
    t.lower(
        &[
            "traces.gen.spec_ms",
            "traces.gen.gap_kron_ms",
            "traces.gen.gap_urand_ms",
            "traces.gen.cloud_ms",
        ],
        "ms",
        CLI_COLD,
    );
    t.lower(
        &["traces.btrc.encode_ns_per_instr"],
        "ns",
        "setup_s on every workload",
    );
    t.lower(
        &["traces.btrc.decode_ns_per_instr"],
        "ns",
        "none (btrc convert only)",
    );
    t.lower(&["traces.mmap.open_us"], "us", DAEMON_COLD);
    t.lower(&["traces.cursor.mem_ns_per_instr"], "ns", CLI_COLD);
    t.lower(
        &["traces.cursor.mmap_ns_per_instr"],
        "ns",
        "sim_mips on cell_hot, cells_per_s on campaign_daemon",
    );
    t.lower(
        &["traces.champsim.decode_ns_per_record"],
        "ns",
        "none (ChampSim ingest only)",
    );
    t.lower(
        &["traces.registry.discover_us", "traces.cache.hit_us"],
        "us",
        DAEMON_COLD,
    );

    // cpu (4)
    for f in FIXTURES {
        t.add(
            format!("cpu.core.perfect_port.{f}.ns_per_instr"),
            "ns",
            Lower,
            SIM_HOT,
        );
    }

    // mem (12)
    t.lower(
        &[
            "mem.cache.access_hit_ns",
            "mem.cache.access_miss_ns",
            "mem.cache.fill_evict_ns",
            "mem.mshr.allocate_ns",
            "mem.mshr.occupancy_ns",
            "mem.tlb.lookup_ns",
        ],
        "ns",
        SIM_HOT,
    );
    t.lower(
        &[
            "mem.dram.read_row_hit_ns",
            "mem.dram.read_row_conflict_ns",
            "mem.dram.write_ns",
        ],
        "ns",
        SIM_MC4,
    );
    t.lower(
        &[
            "mem.hierarchy.demand_hit_ns",
            "mem.hierarchy.demand_miss_ns",
        ],
        "ns",
        SIM_HOT,
    );
    t.lower(&["mem.hierarchy.tick_ns"], "ns", SIM_MC4);

    // core (7)
    t.lower(
        &["core.berti.on_access_ns", "core.berti.on_fill_ns"],
        "ns",
        SIM_HOT,
    );
    t.add(
        "core.berti.decisions_per_access".to_string(),
        "ratio",
        Higher,
        MODEL,
    );
    t.lower(
        &[
            "core.history.insert_ns",
            "core.history.search_timely_ns",
            "core.deltas.record_search_ns",
            "core.deltas.prefetch_deltas_ns",
        ],
        "ns",
        SIM_HOT,
    );

    // prefetchers (15)
    for p in [
        "ip_stride",
        "next_line",
        "stream",
        "bop",
        "mlop",
        "ipcp",
        "vldp",
        "spp",
        "bingo",
        "misb",
        "sms",
    ] {
        let moves = match p {
            "ip_stride" => SIM_HOT,
            "mlop" | "ipcp" => DAEMON_COLD,
            _ => "none (not in any workload's grid)",
        };
        t.add(format!("prefetchers.{p}.on_access_ns"), "ns", Lower, moves);
    }
    for p in ["bop", "mlop", "spp", "bingo"] {
        let moves = if p == "mlop" {
            DAEMON_COLD
        } else {
            "none (not in any workload's grid)"
        };
        t.add(format!("prefetchers.{p}.on_fill_ns"), "ns", Lower, moves);
    }

    // sim (20)
    for f in FIXTURES {
        for p in ["none", "ip-stride", "berti"] {
            t.add(
                format!("sim.cell.{f}.{p}.ns_per_instr"),
                "ns",
                Lower,
                SIM_HOT,
            );
        }
    }
    t.lower(
        &[
            "sim.engine.naive.t_chase.ns_per_instr",
            "sim.engine.skip_ahead.t_chase.ns_per_instr",
        ],
        "ns",
        SIM_HOT,
    );
    t.lower(
        &[
            "sim.mc4.naive.ns_per_instr",
            "sim.mc4.skip_ahead.ns_per_instr",
        ],
        "ns",
        SIM_MC4,
    );
    t.lower(&["sim.report.from_registry_us"], "us", SIM_HOT);
    t.lower(
        &["sim.report.to_json_us", "sim.report.from_json_us"],
        "us",
        DAEMON_COLD,
    );
    t.add(
        "sim.sampler.interval_overhead_pct".to_string(),
        "%",
        Lower,
        "none (sampling is off in every workload)",
    );

    // stats (2)
    t.lower(
        &["stats.registry.record_ns", "stats.registry.delta_from_ns"],
        "ns",
        SIM_HOT,
    );

    // harness (10)
    t.lower(&["harness.spec.key_us"], "us", BOTH_WARM);
    t.lower(&["harness.cache.store_us"], "us", BOTH_COLD);
    t.lower(&["harness.cache.lookup_hit_us"], "us", BOTH_WARM);
    t.lower(&["harness.cache.lookup_miss_us"], "us", BOTH_COLD);
    t.lower(&["harness.execute_spec.overhead_us"], "us", DAEMON_COLD);
    t.lower(&["harness.pool.cold_overhead_us_per_cell"], "us", BOTH_COLD);
    t.lower(&["harness.pool.warm_us_per_cell"], "us", BOTH_WARM);
    t.lower(&["harness.events.record_us"], "us", BOTH_COLD);
    t.lower(&["harness.result.aggregated_json_us"], "us", BOTH_WARM);
    t.lower(
        &["harness.cli.start_ms"],
        "ms",
        "cells_per_s and warm_cells_per_s on campaign_cli",
    );

    // serve (17)
    t.lower(
        &[
            "serve.proto.request_encode_us",
            "serve.proto.reply_decode_us",
            "serve.proto.frame_roundtrip_us",
        ],
        "us",
        DAEMON_COLD,
    );
    t.lower(&["serve.worker.spawn_hello_ms"], "ms", SETUP);
    t.lower(&["serve.worker.cell_overhead_us"], "us", DAEMON_COLD);
    t.lower(&["serve.http.parse_request_us"], "us", DAEMON_LATENCY);
    t.lower(
        &[
            "serve.http.healthz_ms",
            "serve.http.metrics_ms",
            "serve.http.submit_ack_ms",
            "serve.http.result_get_ms",
            "serve.sse.first_event_ms",
        ],
        "ms",
        DAEMON_LATENCY,
    );
    t.add(
        "serve.sse.replay_events_per_s".to_string(),
        "1/s",
        Higher,
        DAEMON_LATENCY,
    );
    t.lower(&["serve.sched.overhead_ms_per_cell"], "ms", DAEMON_COLD);
    t.lower(
        &["serve.daemon.boot_ms", "serve.daemon.drain_ms"],
        "ms",
        SETUP,
    );
    t.lower(
        &["serve.metrics.worker_spawns", "serve.metrics.cell_retries"],
        "count",
        DAEMON_COLD,
    );

    // model (20), simulated, exact for a seed
    for f in FIXTURES {
        t.add(format!("model.{f}.ip-stride.ipc"), "ipc", Higher, MODEL);
        t.add(format!("model.{f}.berti.ipc"), "ipc", Higher, MODEL);
        t.add(format!("model.{f}.berti.l1d_mpki"), "mpki", Lower, MODEL);
        t.add(
            format!("model.{f}.berti.l1d_accuracy"),
            "ratio",
            Higher,
            MODEL,
        );
        t.add(
            format!("model.{f}.berti.l1d_late_fraction"),
            "ratio",
            Lower,
            MODEL,
        );
    }

    // bench (3)
    t.add(
        "bench.trace_overhead_pct".to_string(),
        "%",
        Lower,
        "none (the traced pass never feeds an end-to-end metric)",
    );
    t.add(
        "bench.host.slow_mode_share".to_string(),
        "ratio",
        Lower,
        "none (host contention the estimator filtered)",
    );
    t.add(
        "bench.rounds".to_string(),
        "count",
        Higher,
        "none (sample count of the untraced pass)",
    );
    t.0
}

/// `run_seconds` of the contract: how long one run measures.
pub const RUN_SECONDS: u64 = 22;

fn valid_name(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The contract's limits on names, units and counts.
pub fn validate() -> Result<(), String> {
    let layers = per_layer();
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err("2 to 8 workloads".to_string());
    }
    if !(1..=16).contains(&END_TO_END.len()) || !(1..=128).contains(&layers.len()) {
        return Err("1 to 16 end-to-end and 1 to 128 per-layer metrics".to_string());
    }
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(layers.iter().map(|m| m.name.as_str()));
    for n in &names {
        if !valid_name(n, 64, "_.-") {
            return Err(format!("bad name `{n}`"));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != names.len() {
        return Err("a name is used twice".to_string());
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(layers.iter().map(|m| m.unit));
    for u in units {
        if !valid_unit(u) {
            return Err(format!("bad unit `{u}`"));
        }
    }
    for m in &END_TO_END {
        if !(0.0..=0.25).contains(&m.bound) {
            return Err(format!("{}: bound {} outside 0..0.25", m.name, m.bound));
        }
    }
    if WORKLOADS
        .iter()
        .any(|w| w.1.len() > 200 || w.1.contains('\n'))
    {
        return Err("a workload's why is one line of at most 200 characters".to_string());
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        return Err("setup_s (s, lower) is required".to_string());
    }
    Ok(())
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// `BENCHMARK.json`, laid out as the contract requires.
pub fn benchmark_json() -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let root = obj(vec![
        (
            "command",
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = serde::json::to_string_pretty(&root);
    out.push('\n');
    out
}

/// The metric tables of the README, generated so they cannot drift.
pub fn markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out += "\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n";
    for m in per_layer() {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_meets_the_contract_limits() {
        validate().expect("catalogue is valid");
        assert_eq!(WORKLOADS.len(), 4);
        assert_eq!(END_TO_END.len(), 8);
        assert_eq!(per_layer().len(), 123);
    }

    #[test]
    fn name_and_unit_charsets() {
        assert!(valid_name(
            "sim.cell.t_stride.ip-stride.ns_per_instr",
            64,
            "_.-"
        ));
        assert!(!valid_name("", 64, "_.-"));
        assert!(!valid_name(".leading", 64, "_.-"));
        assert!(!valid_name("has space", 64, "_.-"));
        assert!(!valid_name(&"x".repeat(65), 64, "_.-"));
        assert!(valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit(&"m".repeat(17)));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark describe`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}

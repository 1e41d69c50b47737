//! `bertisim` — command-line front end to the simulator.
//!
//! ```bash
//! bertisim --list                                   # available workloads
//! bertisim -w lbm-like -p berti
//! bertisim -w pr-kron  -p mlop --l2 spp-ppf -n 2000000
//! bertisim -w mcf-1554-like,bfs-kron -p berti --cores
//! bertisim -w lbm-like,mcf-1554-like,bfs-kron -p berti --jobs 4
//! ```
//!
//! Multi-workload single-core runs go through the `berti-harness`
//! worker pool (and its result cache), so `--jobs N` parallelizes
//! them and repeated invocations are answered from cache.

use berti_core::BertiConfig;
use berti_harness::{run_campaign, Campaign, JobOutcome, RunOptions};
use berti_sim::{
    simulate_multicore, simulate_with_engine, Engine, L2PrefetcherChoice, PrefetcherChoice, Report,
    SimOptions,
};
use berti_traces::WorkloadDef;
use berti_types::SystemConfig;

fn usage() -> ! {
    eprintln!(
        "bertisim — Berti reproduction simulator

USAGE:
    bertisim [OPTIONS]

OPTIONS:
    -w, --workload <names>   comma-separated workload names (see --list)
    -p, --prefetcher <name>  none|ip-stride|next-line|stream|bop|mlop|ipcp|vldp|berti|berti-page
        --l2 <name>          spp-ppf|bingo|ipcp|misb|vldp|sms (L2 prefetcher)
    -n, --instructions <N>   measured instructions per core [default: 1000000]
        --warmup <N>         warm-up instructions [default: 200000]
        --cores              run the workload list as a multi-core mix (takes no value)
    -j, --jobs <N>           worker threads for multi-workload runs [default: 1]
        --no-cache           bypass the harness result cache
        --mshr-watermark <f> Berti MSHR occupancy watermark [default: 0.70]
        --list               list workloads and exit
    -h, --help               this help

Multi-workload runs honor BERTI_CACHE_DIR (default results/cache),
BERTI_NO_CACHE=1, and BERTI_EVENTS like the figure runner."
    );
    std::process::exit(2);
}

fn parse_prefetcher(name: &str, watermark: f64) -> PrefetcherChoice {
    if name == "berti" && (watermark - 0.70).abs() >= 1e-9 {
        return PrefetcherChoice::BertiWith(BertiConfig {
            mshr_watermark: watermark,
            ..BertiConfig::default()
        });
    }
    PrefetcherChoice::parse(name).unwrap_or_else(|| {
        eprintln!("unknown prefetcher: {name}");
        usage()
    })
}

fn parse_l2(name: &str) -> L2PrefetcherChoice {
    L2PrefetcherChoice::parse(name).unwrap_or_else(|| {
        eprintln!("unknown L2 prefetcher: {name}");
        usage()
    })
}

fn print_report(r: &Report) {
    println!(
        "{:<18} l1={}{} ipc={:.3} cycles={} l1mpki={:.1} l2mpki={:.1} llcmpki={:.1} acc={} late={} pf_issued={} dram_rd={} energy_mj={:.3}",
        r.workload,
        r.l1_prefetcher,
        r.l2_prefetcher
            .as_ref()
            .map(|p| format!("+{p}"))
            .unwrap_or_default(),
        r.ipc(),
        r.cycles,
        r.l1d_mpki(),
        r.l2_mpki(),
        r.llc_mpki(),
        r.l1d_accuracy()
            .map(|a| format!("{:.1}%", a * 100.0))
            .unwrap_or_else(|| "-".into()),
        r.l1d_late_fraction()
            .map(|a| format!("{:.1}%", a * 100.0))
            .unwrap_or_else(|| "-".into()),
        r.flow.pf_issued,
        r.dram.reads,
        r.energy.total_nj() / 1e6,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads: Vec<String> = vec!["lbm-like".into()];
    let mut prefetcher = "berti".to_string();
    let mut l2: Option<String> = None;
    let mut instructions = 1_000_000u64;
    let mut warmup = 200_000u64;
    let mut cores = false;
    let mut jobs = 1usize;
    let mut no_cache = false;
    let mut watermark = 0.70f64;

    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "-w" | "--workload" => {
                workloads = next(&mut i).split(',').map(str::to_string).collect()
            }
            "-p" | "--prefetcher" => prefetcher = next(&mut i),
            "--l2" => l2 = Some(next(&mut i)),
            "-n" | "--instructions" => {
                instructions = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--warmup" => warmup = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--cores" => cores = true,
            "-j" | "--jobs" => jobs = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--no-cache" => no_cache = true,
            "--mshr-watermark" => watermark = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--list" => {
                for w in berti_traces::all_workloads() {
                    println!("{:<22} {}", w.name, w.suite);
                }
                return;
            }
            _ => usage(),
        }
        i += 1;
    }

    let registry = berti_traces::TraceRegistry::builtin();
    let chosen: Vec<WorkloadDef> = workloads
        .iter()
        .map(|name| {
            registry.get(name).cloned().unwrap_or_else(|| {
                if let Err(msg) = berti_harness::check_workload(&registry, name) {
                    eprintln!("{msg}");
                } else {
                    eprintln!("unknown workload: {name}");
                }
                eprintln!("(try --list)");
                std::process::exit(2);
            })
        })
        .collect();

    let cfg = SystemConfig::default();
    let opts = SimOptions {
        warmup_instructions: warmup,
        sim_instructions: instructions,
        ..SimOptions::default()
    };
    let l1 = parse_prefetcher(&prefetcher, watermark);
    let l2 = l2.map(|s| parse_l2(&s));

    if cores {
        let r = simulate_multicore(&cfg, l1, l2, &chosen, &opts);
        for c in &r.cores {
            print_report(c);
        }
    } else if chosen.len() > 1 {
        // Multi-workload single-core runs are a one-configuration
        // campaign: parallel under --jobs, resumable via the cache.
        let campaign = Campaign {
            name: "bertisim".to_string(),
            cells: chosen
                .iter()
                .map(|w| berti_harness::JobSpec {
                    workload: w.name.to_string(),
                    l1: l1.clone(),
                    l2,
                    opts,
                    config: cfg,
                })
                .collect(),
        };
        // Flags win over the environment; no progress line, the
        // reports are the output.
        let (_, env) = berti_harness::env_options();
        let run_opts = RunOptions {
            jobs,
            cache_dir: env.cache_dir.filter(|_| !no_cache),
            progress: false,
            ..env
        };
        let result = run_campaign(&campaign, &run_opts);
        let mut failed = false;
        for job in &result.jobs {
            match &job.outcome {
                JobOutcome::Done { report, .. } => print_report(report),
                JobOutcome::Failed { error, attempts } => {
                    eprintln!(
                        "{}: FAILED after {attempts} attempts: {error}",
                        job.spec.workload
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    } else {
        for w in &chosen {
            let mut trace = match w.try_trace() {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{}: cannot open trace: {e}", w.name);
                    std::process::exit(1);
                }
            };
            let r =
                simulate_with_engine(&cfg, l1.clone(), l2, &mut trace, &opts, Engine::default());
            print_report(&r);
        }
    }
}

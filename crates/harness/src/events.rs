//! Campaign observability: a JSONL event stream plus a live stderr
//! progress line.
//!
//! Every event is one JSON object per line with an `"event"` tag, so
//! the stream is trivially greppable / `jq`-able:
//!
//! ```text
//! {"event":"campaign_started","campaign":"l1d","cells":32,"jobs":4}
//! {"event":"job_started","key":"9f...","workload":"lbm-like","label":"berti"}
//! {"event":"job_interval","key":"9f...","workload":"lbm-like","label":"berti",
//!  "instructions":100000,"ipc":1.91,"l1d_mpki":12.4,"l2_mpki":6.1,
//!  "llc_mpki":2.0,"l1d_accuracy":0.93}
//! {"event":"job_finished","key":"9f...","workload":"lbm-like","label":"berti",
//!  "wall_ms":412,"instructions":2000000,"mips":4.85,"ipc":1.93}
//! {"event":"job_cache_hit","key":"ab...","workload":"bfs-kron","label":"mlop"}
//! {"event":"job_failed","key":"cd...","workload":"cc-uni","label":"ipcp",
//!  "attempt":1,"will_retry":true,"error":"..."}
//! {"event":"campaign_finished","campaign":"l1d","completed":30,"failed":2,
//!  "cache_hits":12,"wall_ms":98021}
//! ```

use std::io::Write;

use serde::{Serialize, Value};

/// Schema version stamped into every serialized event as `"v"`.
///
/// Consumers of stored JSONL streams and live SSE feeds key their
/// parsing on this; bump it whenever an existing event's fields change
/// meaning or shape (adding a new event variant is not a bump — readers
/// must already skip unknown `"event"` tags).
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// One campaign lifecycle event.
#[derive(Clone, Debug)]
pub enum Event {
    /// The campaign began executing.
    CampaignStarted {
        /// Campaign name.
        campaign: String,
        /// Total number of cells.
        cells: usize,
        /// Worker-pool size.
        jobs: usize,
    },
    /// A worker picked up a cell (cache miss: it will simulate).
    JobStarted {
        /// Cache key of the cell.
        key: String,
        /// Workload name.
        workload: String,
        /// Prefetcher-configuration label.
        label: String,
    },
    /// A cell was answered from the result cache.
    JobCacheHit {
        /// Cache key of the cell.
        key: String,
        /// Workload name.
        workload: String,
        /// Prefetcher-configuration label.
        label: String,
    },
    /// One interval-sampler window of a running job (only emitted when
    /// the campaign runs with `interval` set): a point of the
    /// per-N-instruction IPC/MPKI/accuracy time series.
    JobInterval {
        /// Cache key of the cell.
        key: String,
        /// Workload name.
        workload: String,
        /// Prefetcher-configuration label.
        label: String,
        /// Instructions retired so far in the measurement phase.
        instructions: u64,
        /// IPC over this window.
        ipc: f64,
        /// L1D demand MPKI over this window.
        l1d_mpki: f64,
        /// L2 demand MPKI over this window.
        l2_mpki: f64,
        /// LLC demand MPKI over this window.
        llc_mpki: f64,
        /// L1D prefetch accuracy over this window, if anything filled.
        l1d_accuracy: Option<f64>,
    },
    /// A simulation completed.
    JobFinished {
        /// Cache key of the cell.
        key: String,
        /// Workload name.
        workload: String,
        /// Prefetcher-configuration label.
        label: String,
        /// Wall time of the simulation, milliseconds.
        wall_ms: u64,
        /// Instructions simulated in the measurement phase.
        instructions: u64,
        /// Simulation throughput, million instructions per wall second.
        mips: f64,
        /// Measured IPC (the headline result).
        ipc: f64,
    },
    /// The cell was rejected up front, or one attempt at it failed.
    JobFailed {
        /// Cache key of the cell.
        key: String,
        /// Workload name.
        workload: String,
        /// Prefetcher-configuration label.
        label: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Whether the cell will be attempted again (only after a
        /// retryable failure with attempts left).
        will_retry: bool,
        /// The rejection, typed error, panic or worker diagnostic.
        error: String,
    },
    /// A campaign was accepted by a service (e.g. `berti-serve`) and is
    /// waiting for the scheduler; one-shot CLI runs never emit this.
    CampaignQueued {
        /// Campaign name.
        campaign: String,
        /// Service-assigned campaign id.
        id: String,
        /// Total number of cells.
        cells: usize,
    },
    /// A campaign was cancelled before draining its queue; cells
    /// already completed stay completed (and cached).
    CampaignCancelled {
        /// Campaign name.
        campaign: String,
        /// Cells that had produced a report before cancellation.
        completed: usize,
    },
    /// A worker *process* died mid-cell (crash or kill, not a caught
    /// panic); the cell it was running is retried per the usual
    /// isolation policy. Only process-sharded executors emit this.
    WorkerCrashed {
        /// Cache key of the cell the worker was running.
        key: String,
        /// OS pid of the dead worker.
        pid: u32,
    },
    /// A worker *process* blew its per-cell wall-clock deadline and was
    /// killed by the scheduler's monitor; the cell is retried on a
    /// fresh worker. Only process-sharded executors emit this.
    WorkerTimeout {
        /// Cache key of the cell the worker was running.
        key: String,
        /// OS pid of the killed worker.
        pid: u32,
        /// The deadline that was exceeded, milliseconds.
        timeout_ms: u64,
    },
    /// The campaign drained its queue.
    CampaignFinished {
        /// Campaign name.
        campaign: String,
        /// Cells that produced a report (fresh or cached).
        completed: usize,
        /// Cells that failed both attempts.
        failed: usize,
        /// Cells answered from cache.
        cache_hits: usize,
        /// End-to-end campaign wall time, milliseconds.
        wall_ms: u64,
    },
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let obj = |tag: &str, fields: Vec<(&str, Value)>| {
            let mut o = vec![
                ("event".to_string(), Value::Str(tag.to_string())),
                ("v".to_string(), Value::U64(EVENT_SCHEMA_VERSION as u64)),
            ];
            o.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            Value::Object(o)
        };
        let s = |s: &str| Value::Str(s.to_string());
        match self {
            Event::CampaignStarted {
                campaign,
                cells,
                jobs,
            } => obj(
                "campaign_started",
                vec![
                    ("campaign", s(campaign)),
                    ("cells", Value::U64(*cells as u64)),
                    ("jobs", Value::U64(*jobs as u64)),
                ],
            ),
            Event::JobStarted {
                key,
                workload,
                label,
            } => obj(
                "job_started",
                vec![
                    ("key", s(key)),
                    ("workload", s(workload)),
                    ("label", s(label)),
                ],
            ),
            Event::JobCacheHit {
                key,
                workload,
                label,
            } => obj(
                "job_cache_hit",
                vec![
                    ("key", s(key)),
                    ("workload", s(workload)),
                    ("label", s(label)),
                ],
            ),
            Event::JobInterval {
                key,
                workload,
                label,
                instructions,
                ipc,
                l1d_mpki,
                l2_mpki,
                llc_mpki,
                l1d_accuracy,
            } => obj(
                "job_interval",
                vec![
                    ("key", s(key)),
                    ("workload", s(workload)),
                    ("label", s(label)),
                    ("instructions", Value::U64(*instructions)),
                    ("ipc", Value::F64(*ipc)),
                    ("l1d_mpki", Value::F64(*l1d_mpki)),
                    ("l2_mpki", Value::F64(*l2_mpki)),
                    ("llc_mpki", Value::F64(*llc_mpki)),
                    ("l1d_accuracy", l1d_accuracy.map_or(Value::Null, Value::F64)),
                ],
            ),
            Event::JobFinished {
                key,
                workload,
                label,
                wall_ms,
                instructions,
                mips,
                ipc,
            } => obj(
                "job_finished",
                vec![
                    ("key", s(key)),
                    ("workload", s(workload)),
                    ("label", s(label)),
                    ("wall_ms", Value::U64(*wall_ms)),
                    ("instructions", Value::U64(*instructions)),
                    ("mips", Value::F64(*mips)),
                    ("ipc", Value::F64(*ipc)),
                ],
            ),
            Event::JobFailed {
                key,
                workload,
                label,
                attempt,
                will_retry,
                error,
            } => obj(
                "job_failed",
                vec![
                    ("key", s(key)),
                    ("workload", s(workload)),
                    ("label", s(label)),
                    ("attempt", Value::U64(*attempt as u64)),
                    ("will_retry", Value::Bool(*will_retry)),
                    ("error", s(error)),
                ],
            ),
            Event::CampaignQueued {
                campaign,
                id,
                cells,
            } => obj(
                "campaign_queued",
                vec![
                    ("campaign", s(campaign)),
                    ("id", s(id)),
                    ("cells", Value::U64(*cells as u64)),
                ],
            ),
            Event::CampaignCancelled {
                campaign,
                completed,
            } => obj(
                "campaign_cancelled",
                vec![
                    ("campaign", s(campaign)),
                    ("completed", Value::U64(*completed as u64)),
                ],
            ),
            Event::WorkerCrashed { key, pid } => obj(
                "worker_crashed",
                vec![("key", s(key)), ("pid", Value::U64(*pid as u64))],
            ),
            Event::WorkerTimeout {
                key,
                pid,
                timeout_ms,
            } => obj(
                "worker_timeout",
                vec![
                    ("key", s(key)),
                    ("pid", Value::U64(*pid as u64)),
                    ("timeout_ms", Value::U64(*timeout_ms)),
                ],
            ),
            Event::CampaignFinished {
                campaign,
                completed,
                failed,
                cache_hits,
                wall_ms,
            } => obj(
                "campaign_finished",
                vec![
                    ("campaign", s(campaign)),
                    ("completed", Value::U64(*completed as u64)),
                    ("failed", Value::U64(*failed as u64)),
                    ("cache_hits", Value::U64(*cache_hits as u64)),
                    ("wall_ms", Value::U64(*wall_ms)),
                ],
            ),
        }
    }
}

/// Receives events on the collector thread: appends JSONL and repaints
/// the stderr progress line.
pub struct EventSink {
    jsonl: Option<std::io::BufWriter<std::fs::File>>,
    progress: bool,
    total: usize,
    done: usize,
    cache_hits: usize,
    failed: usize,
}

impl EventSink {
    /// Creates a sink writing JSONL to `jsonl_path` (if given) and a
    /// progress line to stderr (if `progress`).
    pub fn new(jsonl_path: Option<&std::path::Path>, progress: bool, total: usize) -> Self {
        let jsonl = jsonl_path.and_then(|p| {
            if let Some(parent) = p.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::File::create(p).ok().map(std::io::BufWriter::new)
        });
        EventSink {
            jsonl,
            progress,
            total,
            done: 0,
            cache_hits: 0,
            failed: 0,
        }
    }

    /// Records one event.
    pub fn record(&mut self, event: &Event) {
        if let Some(w) = &mut self.jsonl {
            let _ = writeln!(w, "{}", serde::json::to_string(event));
        }
        match event {
            Event::JobFinished { .. } => self.done += 1,
            Event::JobCacheHit { .. } => {
                self.done += 1;
                self.cache_hits += 1;
            }
            Event::JobFailed {
                will_retry: false, ..
            } => {
                self.done += 1;
                self.failed += 1;
            }
            _ => {}
        }
        if self.progress {
            match event {
                Event::JobFinished { .. }
                | Event::JobCacheHit { .. }
                | Event::JobFailed {
                    will_retry: false, ..
                } => {
                    eprint!(
                        "\r[{}/{}] {} cached, {} failed",
                        self.done, self.total, self.cache_hits, self.failed
                    );
                    let _ = std::io::stderr().flush();
                }
                Event::CampaignFinished { wall_ms, .. } => {
                    eprintln!(
                        "\r[{}/{}] {} cached, {} failed — {:.1}s",
                        self.done,
                        self.total,
                        self.cache_hits,
                        self.failed,
                        *wall_ms as f64 / 1000.0
                    );
                }
                _ => {}
            }
        }
    }

    /// Flushes the JSONL stream.
    pub fn finish(mut self) {
        if let Some(w) = &mut self.jsonl {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_tags() {
        let e = Event::JobFinished {
            key: "abc".to_string(),
            workload: "lbm-like".to_string(),
            label: "berti".to_string(),
            wall_ms: 412,
            instructions: 2_000_000,
            mips: 4.85,
            ipc: 1.93,
        };
        let json = serde::json::to_string(&e);
        let v = serde::json::parse(&json).expect("parses");
        assert_eq!(
            v.get("event").and_then(|v| v.as_str()),
            Some("job_finished")
        );
        assert_eq!(
            v.get("v").and_then(|v| v.as_u64()),
            Some(EVENT_SCHEMA_VERSION as u64),
            "every event carries the schema version"
        );
        assert_eq!(v.get("wall_ms").and_then(|v| v.as_u64()), Some(412));
        assert_eq!(v.get("ipc").and_then(|v| v.as_f64()), Some(1.93));
    }

    #[test]
    fn every_variant_carries_the_schema_version() {
        let variants = vec![
            Event::CampaignStarted {
                campaign: "c".into(),
                cells: 4,
                jobs: 2,
            },
            Event::JobStarted {
                key: "k".into(),
                workload: "w".into(),
                label: "l".into(),
            },
            Event::JobCacheHit {
                key: "k".into(),
                workload: "w".into(),
                label: "l".into(),
            },
            Event::JobInterval {
                key: "k".into(),
                workload: "w".into(),
                label: "l".into(),
                instructions: 1,
                ipc: 1.0,
                l1d_mpki: 0.0,
                l2_mpki: 0.0,
                llc_mpki: 0.0,
                l1d_accuracy: None,
            },
            Event::JobFinished {
                key: "k".into(),
                workload: "w".into(),
                label: "l".into(),
                wall_ms: 1,
                instructions: 1,
                mips: 1.0,
                ipc: 1.0,
            },
            Event::JobFailed {
                key: "k".into(),
                workload: "w".into(),
                label: "l".into(),
                attempt: 1,
                will_retry: true,
                error: "e".into(),
            },
            Event::CampaignQueued {
                campaign: "c".into(),
                id: "c1".into(),
                cells: 4,
            },
            Event::CampaignCancelled {
                campaign: "c".into(),
                completed: 2,
            },
            Event::WorkerCrashed {
                key: "k".into(),
                pid: 1234,
            },
            Event::WorkerTimeout {
                key: "k".into(),
                pid: 1234,
                timeout_ms: 30_000,
            },
            Event::CampaignFinished {
                campaign: "c".into(),
                completed: 4,
                failed: 0,
                cache_hits: 0,
                wall_ms: 1,
            },
        ];
        for e in variants {
            let v = serde::json::parse(&serde::json::to_string(&e)).expect("parses");
            assert_eq!(
                v.get("v").and_then(|v| v.as_u64()),
                Some(EVENT_SCHEMA_VERSION as u64),
                "missing v on {e:?}"
            );
            assert!(v.get("event").and_then(|v| v.as_str()).is_some());
        }
    }

    #[test]
    fn interval_events_serialize_with_null_accuracy() {
        let e = Event::JobInterval {
            key: "abc".to_string(),
            workload: "mcf-1554-like".to_string(),
            label: "none".to_string(),
            instructions: 100_000,
            ipc: 0.42,
            l1d_mpki: 55.3,
            l2_mpki: 30.1,
            llc_mpki: 21.7,
            l1d_accuracy: None,
        };
        let json = serde::json::to_string(&e);
        let v = serde::json::parse(&json).expect("parses");
        assert_eq!(
            v.get("event").and_then(|v| v.as_str()),
            Some("job_interval")
        );
        assert_eq!(
            v.get("instructions").and_then(|v| v.as_u64()),
            Some(100_000)
        );
        assert_eq!(v.get("ipc").and_then(|v| v.as_f64()), Some(0.42));
        assert!(json.contains("\"l1d_accuracy\":null"), "{json}");
    }
}

//! Server counters, registered through the existing `berti-stats`
//! layer so `/metrics` is assembled the same way simulation reports
//! are: a [`counter_group!`](berti_stats::counter_group) struct
//! snapshotted into a [`Registry`](berti_stats::Registry) and
//! serialized generically from the group list.

use berti_stats::Registry;
use serde::Value;

berti_stats::counter_group! {
    /// Daemon-lifetime counters (monotonic since process start).
    pub struct ServeStats {
        /// HTTP requests accepted (any route, any outcome).
        pub http_requests: u64,
        /// Requests that ended in a 4xx/5xx response.
        pub http_errors: u64,
        /// SSE connections opened.
        pub sse_connections: u64,
        /// Campaigns accepted via `POST /campaigns`.
        pub campaigns_submitted: u64,
        /// Campaigns that drained every cell.
        pub campaigns_completed: u64,
        /// Campaigns cancelled (client `DELETE` or daemon shutdown).
        pub campaigns_cancelled: u64,
        /// Terminal campaigns dropped from the registry to keep only
        /// the newest `RETAINED_CAMPAIGNS`; their ids answer 404.
        pub campaigns_evicted: u64,
        /// Cells that produced a fresh report.
        pub cells_completed: u64,
        /// Cells answered from the result store.
        pub cells_cached: u64,
        /// Cells that exhausted their attempts.
        pub cells_failed: u64,
        /// Worker processes spawned (initial + respawns).
        pub worker_spawns: u64,
        /// Worker processes that died mid-cell.
        pub worker_crashes: u64,
    }
}

berti_stats::counter_group! {
    /// Scheduler observability: the multi-campaign dispatcher's gauges
    /// (current queue/budget occupancy, overwritten on every dispatch
    /// transition) and monotonic deadline/retry counters. The e2e
    /// suite asserts the budget invariants from this group instead of
    /// sleeping.
    pub struct SchedStats {
        /// Campaigns admitted but not yet started (gauge).
        pub campaigns_queued: u64,
        /// Campaigns with cells dispatched and not yet terminal (gauge).
        pub campaigns_running: u64,
        /// Cells currently executing, across all campaigns (gauge;
        /// never exceeds the global worker budget).
        pub cells_in_flight: u64,
        /// Budget slots currently running a cell (gauge).
        pub workers_busy: u64,
        /// Budget slots with no cell to run (gauge).
        pub workers_idle: u64,
        /// Idle worker *processes* parked for reuse (gauge).
        pub workers_parked: u64,
        /// Cells whose worker blew the wall-clock deadline and was
        /// killed (counter).
        pub cell_timeouts: u64,
        /// Cell attempts beyond the first (counter).
        pub cell_retries: u64,
        /// Exponential-backoff sleeps taken before retries (counter).
        pub backoff_sleeps: u64,
    }
}

/// Renders `/metrics`: every registry group as a JSON object keyed by
/// group then counter name, so new counter groups (or new counters)
/// appear without touching this function.
pub fn metrics_json(stats: &ServeStats, sched: &SchedStats) -> Value {
    let mut registry = Registry::new();
    registry.record("serve", stats);
    registry.record("scheduler", sched);
    render_registry(&registry)
}

/// Generic registry → JSON rendering (group → {counter: value}).
pub fn render_registry(registry: &Registry) -> Value {
    Value::Object(
        registry
            .groups()
            .iter()
            .map(|g| {
                (
                    g.name.to_string(),
                    Value::Object(
                        g.counter_names
                            .iter()
                            .zip(g.values.iter())
                            .map(|(n, v)| (n.to_string(), Value::U64(*v)))
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_through_the_registry() {
        let stats = ServeStats {
            http_requests: 7,
            campaigns_submitted: 2,
            ..ServeStats::default()
        };
        let sched = SchedStats {
            campaigns_running: 2,
            cell_timeouts: 1,
            ..SchedStats::default()
        };
        let v = metrics_json(&stats, &sched);
        let Value::Object(groups) = &v else {
            panic!("metrics render as an object");
        };
        let names: Vec<&str> = groups.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["serve", "scheduler"]);
        let serve = v.get("serve").expect("serve group");
        assert_eq!(serve.get("http_requests").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            serve.get("campaigns_submitted").and_then(|v| v.as_u64()),
            Some(2)
        );
        assert_eq!(
            serve.get("worker_crashes").and_then(|v| v.as_u64()),
            Some(0)
        );
        let scheduler = v.get("scheduler").expect("scheduler group");
        assert_eq!(
            scheduler.get("campaigns_running").and_then(|v| v.as_u64()),
            Some(2)
        );
        assert_eq!(
            scheduler.get("cell_timeouts").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            scheduler.get("workers_busy").and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}

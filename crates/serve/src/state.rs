//! Daemon state: the campaign registry and the per-campaign event log.
//!
//! Every submitted campaign gets a [`CampaignEntry`]: its spec, a
//! status cell, per-cell result slots, and an append-only
//! [`EventLog`]. The log is the single source the SSE endpoint serves
//! from — live watchers block on its condvar, late joiners replay from
//! any offset — so "catching up" and "tailing" are the same read path.
//!
//! The registry is bounded: it keeps every queued and running campaign
//! but only the newest [`RETAINED_CAMPAIGNS`] terminal ones, so a
//! long-lived daemon's memory does not grow with its submission count.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use berti_harness::{Campaign, CampaignResult, Event, JobOutcome, JobResult, ResultStore};
use serde::Value;

use crate::stats::{SchedStats, ServeStats};

/// How many terminal (done or cancelled) campaigns the daemon keeps
/// servable. A submission that would leave more evicts the oldest
/// terminal ones; their ids then answer 404 like unknown ids, and
/// `campaigns_evicted` in the `/metrics` `serve` group counts them.
/// Queued and running campaigns are never evicted. Each entry holds its
/// cells' full reports and its event log (~39 KB for a 16-cell grid).
pub const RETAINED_CAMPAIGNS: usize = 64;

/// Lifecycle of a submitted campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Accepted, waiting for the scheduler.
    Queued,
    /// Cells are executing.
    Running,
    /// All cells reached a terminal outcome.
    Done,
    /// Cancelled (by `DELETE` or daemon shutdown) before draining;
    /// completed cells stay completed and cached.
    Cancelled,
}

impl CampaignStatus {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            CampaignStatus::Queued => "queued",
            CampaignStatus::Running => "running",
            CampaignStatus::Done => "done",
            CampaignStatus::Cancelled => "cancelled",
        }
    }

    /// Whether no further events will be appended.
    pub fn is_terminal(self) -> bool {
        matches!(self, CampaignStatus::Done | CampaignStatus::Cancelled)
    }
}

/// An append-only, replayable log of serialized JSONL event lines.
///
/// Lines are indexed from 0; the index doubles as the SSE event id, so
/// a watcher that saw event `N` resumes with `offset = N + 1`.
#[derive(Default)]
pub struct EventLog {
    lines: Mutex<Vec<Arc<String>>>,
    grew: Condvar,
}

impl EventLog {
    /// Appends a pre-serialized JSON line and wakes waiting watchers.
    pub fn push_line(&self, line: String) {
        self.lines
            .lock()
            .expect("event log poisoned")
            .push(Arc::new(line));
        self.grew.notify_all();
    }

    /// Serializes and appends one event.
    pub fn push(&self, event: &Event) {
        self.push_line(serde::json::to_string(event));
    }

    /// Number of lines appended so far.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("event log poisoned").len()
    }

    /// Whether the log is still empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines from `offset` onward, with their indices.
    pub fn from_offset(&self, offset: usize) -> Vec<(usize, Arc<String>)> {
        let lines = self.lines.lock().expect("event log poisoned");
        lines
            .iter()
            .enumerate()
            .skip(offset)
            .map(|(i, l)| (i, Arc::clone(l)))
            .collect()
    }

    /// Blocks until the log grows past `seen`, `stop` is raised, or
    /// `timeout` elapses; returns the current length either way. `stop`
    /// is read under the log's lock, and [`EventLog::wake`] takes that
    /// lock before notifying, so a flag raised before a `wake` is never
    /// missed.
    pub fn wait_beyond(&self, seen: usize, timeout: Duration, stop: &AtomicBool) -> usize {
        let lines = self.lines.lock().expect("event log poisoned");
        if lines.len() > seen || stop.load(Ordering::SeqCst) {
            return lines.len();
        }
        let (lines, _) = self
            .grew
            .wait_timeout(lines, timeout)
            .expect("event log poisoned");
        lines.len()
    }

    /// Wakes every watcher blocked in [`EventLog::wait_beyond`] without
    /// appending, so each re-checks its `stop` flag.
    pub fn wake(&self) {
        drop(self.lines.lock().expect("event log poisoned"));
        self.grew.notify_all();
    }
}

/// One submitted campaign: spec, status, results, and event stream.
pub struct CampaignEntry {
    /// Daemon-assigned id (`c1`, `c2`, …).
    pub id: String,
    /// The submitted grid.
    pub campaign: Campaign,
    /// Interval-sampler period requested at submission.
    pub interval: Option<u64>,
    /// Trace directory requested at submission; cells resolve
    /// workloads against builtins + this directory's trace files.
    pub trace_dir: Option<String>,
    /// Per-cell wall-clock deadline override requested at submission,
    /// milliseconds (`0` disables the deadline for this campaign);
    /// `None` falls back to the daemon's `--cell-timeout-ms` default.
    pub cell_timeout_ms: Option<u64>,
    /// Current lifecycle state.
    pub status: Mutex<CampaignStatus>,
    /// Set by `DELETE` (or shutdown); the scheduler stops dispatching
    /// new cells once it observes this.
    pub cancel: AtomicBool,
    /// The campaign's JSONL event stream.
    pub events: EventLog,
    /// Per-cell outcomes, in declaration order; `None` = not finished.
    pub slots: Mutex<Vec<Option<JobResult>>>,
    /// End-to-end wall time once terminal, milliseconds.
    pub wall_ms: AtomicU64,
}

impl CampaignEntry {
    fn new(
        id: String,
        campaign: Campaign,
        interval: Option<u64>,
        trace_dir: Option<String>,
        cell_timeout_ms: Option<u64>,
    ) -> Self {
        let cells = campaign.cells.len();
        CampaignEntry {
            id,
            campaign,
            interval,
            trace_dir,
            cell_timeout_ms,
            status: Mutex::new(CampaignStatus::Queued),
            cancel: AtomicBool::new(false),
            events: EventLog::default(),
            slots: Mutex::new(vec![None; cells]),
            wall_ms: AtomicU64::new(0),
        }
    }

    /// Current status.
    pub fn status(&self) -> CampaignStatus {
        *self.status.lock().expect("status poisoned")
    }

    /// Claims the `Queued` → `Running` transition. Returns `false` when
    /// the campaign already left the queue — in particular when a
    /// racing `DELETE` cancelled it between dequeue and start, in which
    /// case the cancel path owns the (already emitted) terminal event
    /// and the scheduler must skip the campaign entirely.
    pub fn try_start(&self) -> bool {
        let mut status = self.status.lock().expect("status poisoned");
        if *status != CampaignStatus::Queued {
            return false;
        }
        *status = CampaignStatus::Running;
        true
    }

    /// Claims the `Queued` → `Cancelled` transition, appending `event`
    /// under the same status lock. Returns `false` (no event appended)
    /// if the campaign already left the queue — the scheduler owns its
    /// terminal transition then.
    pub fn cancel_queued(&self, event: &Event) -> bool {
        let mut status = self.status.lock().expect("status poisoned");
        if *status != CampaignStatus::Queued {
            return false;
        }
        self.events.push(event);
        *status = CampaignStatus::Cancelled;
        true
    }

    /// Moves to the terminal status `to`, appending `event` under the
    /// same status lock so an SSE watcher can never observe the
    /// terminal status without its terminal event in the log. Returns
    /// `false` (no event appended) if the campaign is already terminal
    /// — exactly one caller wins the terminal transition. The push wakes
    /// watchers blocked on the log; one that wakes reads the status
    /// only after this call releases it, so it sees the end.
    pub fn finish_with(&self, to: CampaignStatus, event: &Event) -> bool {
        debug_assert!(to.is_terminal());
        let mut status = self.status.lock().expect("status poisoned");
        if status.is_terminal() {
            return false;
        }
        self.events.push(event);
        *status = to;
        true
    }

    /// (completed, cached, failed) counts over the filled slots.
    pub fn counts(&self) -> (usize, usize, usize) {
        let slots = self.slots.lock().expect("slots poisoned");
        let mut done = 0;
        let mut cached = 0;
        let mut failed = 0;
        for s in slots.iter().flatten() {
            match s.outcome {
                JobOutcome::Done { cached: c, .. } => {
                    done += 1;
                    if c {
                        cached += 1;
                    }
                }
                JobOutcome::Failed { .. } => failed += 1,
            }
        }
        (done, cached, failed)
    }

    /// Records the outcome of cell `idx`.
    pub fn fill_slot(&self, idx: usize, result: JobResult) {
        self.slots.lock().expect("slots poisoned")[idx] = Some(result);
    }

    /// The status summary served by `GET /campaigns/:id`.
    pub fn summary_json(&self) -> Value {
        let (completed, cached, failed) = self.counts();
        Value::Object(vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            (
                "campaign".to_string(),
                Value::Str(self.campaign.name.clone()),
            ),
            (
                "status".to_string(),
                Value::Str(self.status().name().to_string()),
            ),
            (
                "cells".to_string(),
                Value::U64(self.campaign.cells.len() as u64),
            ),
            ("completed".to_string(), Value::U64(completed as u64)),
            ("cache_hits".to_string(), Value::U64(cached as u64)),
            ("failed".to_string(), Value::U64(failed as u64)),
            ("events".to_string(), Value::U64(self.events.len() as u64)),
            (
                "events_url".to_string(),
                Value::Str(format!("/campaigns/{}/events", self.id)),
            ),
        ])
    }

    /// The deterministic aggregated result, once every cell has an
    /// outcome (i.e. status `done`). Byte-identical to the one-shot
    /// CLI's `--out` file for the same spec.
    pub fn aggregated_json(&self) -> Option<String> {
        let slots = self.slots.lock().expect("slots poisoned");
        if slots.iter().any(|s| s.is_none()) {
            return None;
        }
        let result = CampaignResult {
            name: self.campaign.name.clone(),
            jobs: slots.iter().flatten().cloned().collect(),
            wall_ms: self.wall_ms.load(Ordering::Relaxed),
        };
        Some(result.aggregated_json())
    }
}

/// Shared daemon state: the store, the campaign registry, counters.
pub struct Daemon {
    /// The pluggable result store every executor writes through.
    pub store: Arc<dyn ResultStore>,
    campaigns: Mutex<Vec<Arc<CampaignEntry>>>,
    next_id: AtomicU64,
    /// Server counters ([`crate::stats`]).
    pub stats: Mutex<ServeStats>,
    /// Scheduler gauges and deadline/retry counters, published by the
    /// dispatcher and served in the `/metrics` `scheduler` group.
    pub sched: Mutex<SchedStats>,
    /// Daemon-wide shutdown flag (mirrors SIGTERM/SIGINT); raised by
    /// [`Daemon::shut_down`].
    pub shutdown: AtomicBool,
    /// Default trace dir applied to submissions that don't name one
    /// (the daemon's `--trace-dir` flag).
    pub default_trace_dir: Option<String>,
}

impl Daemon {
    /// Creates a daemon around a result store.
    pub fn new(store: Arc<dyn ResultStore>) -> Self {
        Daemon {
            store,
            campaigns: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            stats: Mutex::new(ServeStats::default()),
            sched: Mutex::new(SchedStats::default()),
            shutdown: AtomicBool::new(false),
            default_trace_dir: None,
        }
    }

    /// Registers a submitted campaign: assigns an id, emits
    /// `campaign_queued` into its stream, evicts the oldest terminal
    /// campaigns beyond [`RETAINED_CAMPAIGNS`], and returns the entry.
    /// The caller admits the entry to the scheduler.
    pub fn submit(
        &self,
        campaign: Campaign,
        interval: Option<u64>,
        trace_dir: Option<String>,
        cell_timeout_ms: Option<u64>,
    ) -> Arc<CampaignEntry> {
        let id = format!("c{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let entry = Arc::new(CampaignEntry::new(
            id,
            campaign,
            interval,
            trace_dir,
            cell_timeout_ms,
        ));
        entry.events.push(&Event::CampaignQueued {
            campaign: entry.campaign.name.clone(),
            id: entry.id.clone(),
            cells: entry.campaign.cells.len(),
        });
        let mut campaigns = self.campaigns.lock().expect("campaigns poisoned");
        campaigns.push(Arc::clone(&entry));
        // Oldest first: the registry is in submission order.
        let terminal = campaigns
            .iter()
            .filter(|e| e.status().is_terminal())
            .count();
        let mut evict = terminal.saturating_sub(RETAINED_CAMPAIGNS);
        let evicted = evict as u64;
        campaigns.retain(|e| {
            let drop_it = evict > 0 && e.status().is_terminal();
            evict -= usize::from(drop_it);
            !drop_it
        });
        drop(campaigns);
        let mut stats = self.stats.lock().expect("stats poisoned");
        stats.campaigns_submitted += 1;
        stats.campaigns_evicted += evicted;
        entry
    }

    /// Looks up a campaign by id.
    pub fn find(&self, id: &str) -> Option<Arc<CampaignEntry>> {
        self.campaigns
            .lock()
            .expect("campaigns poisoned")
            .iter()
            .find(|e| e.id == id)
            .map(Arc::clone)
    }

    /// All retained campaigns, in submission order.
    pub fn campaigns(&self) -> Vec<Arc<CampaignEntry>> {
        self.campaigns.lock().expect("campaigns poisoned").clone()
    }

    /// Raises the shutdown flag and wakes every SSE watcher, so each
    /// ends its stream now rather than at its next keep-alive.
    pub fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for entry in self.campaigns() {
            entry.events.wake();
        }
    }

    /// Requests cancellation. Queued campaigns become `cancelled`
    /// immediately; running ones stop after their in-flight cells.
    /// Returns the status after the request, or `None` if unknown id.
    ///
    /// The queued path races the scheduler's dequeue: both sides claim
    /// their transition out of `Queued` under the status lock
    /// ([`CampaignEntry::try_start`] vs [`CampaignEntry::finish_with`]),
    /// so a `DELETE` landing between dequeue and start yields exactly
    /// one terminal `cancelled` status and one `campaign_cancelled`
    /// event — never a forever-`Running` entry or a duplicate event.
    pub fn cancel(&self, id: &str) -> Option<CampaignStatus> {
        let entry = self.find(id)?;
        entry.cancel.store(true, Ordering::SeqCst);
        let (completed, _, _) = entry.counts();
        let cancelled = entry.cancel_queued(&Event::CampaignCancelled {
            campaign: entry.campaign.name.clone(),
            completed,
        });
        if cancelled {
            self.stats
                .lock()
                .expect("stats poisoned")
                .campaigns_cancelled += 1;
            return Some(CampaignStatus::Cancelled);
        }
        Some(entry.status())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_harness::ResultCache;
    use berti_sim::PrefetcherChoice;

    fn daemon() -> Daemon {
        let dir = std::env::temp_dir().join(format!(
            "berti-serve-state-{}-{:p}",
            std::process::id(),
            &() as *const ()
        ));
        Daemon::new(Arc::new(ResultCache::open(dir).expect("open")))
    }

    fn tiny_campaign() -> Campaign {
        Campaign::grid("t")
            .workload("lbm-like")
            .l1(PrefetcherChoice::Berti)
            .build()
    }

    #[test]
    fn submit_assigns_sequential_ids_and_queues_event() {
        let d = daemon();
        let a = d.submit(tiny_campaign(), None, None, None);
        let b = d.submit(tiny_campaign(), None, None, None);
        assert_eq!(a.id, "c1");
        assert_eq!(b.id, "c2");
        assert_eq!(a.status(), CampaignStatus::Queued);
        assert_eq!(a.events.len(), 1);
        let line = &a.events.from_offset(0)[0].1;
        let v = serde::json::parse(line).expect("parses");
        assert_eq!(
            v.get("event").and_then(|e| e.as_str()),
            Some("campaign_queued")
        );
        assert_eq!(v.get("id").and_then(|e| e.as_str()), Some("c1"));
        assert!(d.find("c2").is_some());
        assert!(d.find("c99").is_none());
    }

    #[test]
    fn cancel_of_queued_campaign_is_immediate_and_terminal() {
        let d = daemon();
        let e = d.submit(tiny_campaign(), None, None, None);
        assert_eq!(d.cancel(&e.id), Some(CampaignStatus::Cancelled));
        assert!(e.status().is_terminal());
        assert!(e.cancel.load(Ordering::SeqCst));
        let tags: Vec<String> = e
            .events
            .from_offset(0)
            .iter()
            .map(|(_, l)| {
                serde::json::parse(l)
                    .unwrap()
                    .get("event")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(tags, vec!["campaign_queued", "campaign_cancelled"]);
    }

    #[test]
    fn event_log_replays_from_any_offset_and_wakes_waiters() {
        let log = EventLog::default();
        log.push_line("a".to_string());
        log.push_line("b".to_string());
        log.push_line("c".to_string());
        let tail = log.from_offset(1);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 1);
        assert_eq!(*tail[0].1, "b");
        let stop = AtomicBool::new(false);
        assert_eq!(log.wait_beyond(0, Duration::from_millis(1), &stop), 3);

        std::thread::scope(|s| {
            let (log, stop) = (&log, &stop);
            let waiter = s.spawn(move || log.wait_beyond(3, Duration::from_secs(60), stop));
            std::thread::sleep(Duration::from_millis(20));
            log.push_line("d".to_string());
            assert_eq!(waiter.join().expect("join"), 4, "push wakes the waiter");
        });
    }

    /// Shutdown reaches a watcher that is blocked on a log nobody will
    /// append to again, long before its timeout.
    #[test]
    fn shut_down_wakes_every_blocked_watcher() {
        let d = daemon();
        let e = d.submit(tiny_campaign(), None, None, None);
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            let (e, stop) = (&e, &d.shutdown);
            let waiter = s.spawn(move || e.events.wait_beyond(1, Duration::from_secs(60), stop));
            std::thread::sleep(Duration::from_millis(20));
            d.shut_down();
            assert_eq!(waiter.join().expect("join"), 1, "woken without a push");
        });
        assert!(started.elapsed() < Duration::from_secs(30));
        // A raised flag is seen before waiting, too.
        assert_eq!(
            e.events
                .wait_beyond(1, Duration::from_secs(60), &d.shutdown),
            1
        );
    }

    /// Submits one campaign and drives it to `done`, as the scheduler
    /// would.
    fn submit_finished(d: &Daemon) -> Arc<CampaignEntry> {
        let e = d.submit(tiny_campaign(), None, None, None);
        assert!(e.try_start());
        let finished = Event::CampaignFinished {
            campaign: e.campaign.name.clone(),
            completed: 1,
            failed: 0,
            cache_hits: 0,
            wall_ms: 0,
        };
        assert!(e.finish_with(CampaignStatus::Done, &finished));
        e
    }

    fn evicted(d: &Daemon) -> u64 {
        d.stats.lock().expect("stats").campaigns_evicted
    }

    /// Eviction runs at submission: after `RETAINED_CAMPAIGNS + k`
    /// finished campaigns, the next submit leaves only the newest
    /// `RETAINED_CAMPAIGNS` of them findable, and counts the rest.
    #[test]
    fn only_the_newest_finished_campaigns_are_retained() {
        let d = daemon();
        let k = 3;
        let finished: Vec<_> = (0..RETAINED_CAMPAIGNS + k)
            .map(|_| submit_finished(&d))
            .collect();
        let next = d.submit(tiny_campaign(), None, None, None);
        for e in &finished[..k] {
            assert!(d.find(&e.id).is_none(), "{} should be evicted", e.id);
        }
        for e in &finished[k..] {
            assert!(d.find(&e.id).is_some(), "{} should be retained", e.id);
        }
        assert!(d.find(&next.id).is_some());
        assert_eq!(d.campaigns().len(), RETAINED_CAMPAIGNS + 1);
        assert_eq!(evicted(&d), k as u64);
        // Ids are never reused: the next one is past every evicted id.
        assert_eq!(next.id, format!("c{}", RETAINED_CAMPAIGNS + k + 1));
    }

    /// A queued or running campaign is never evicted, however many
    /// newer campaigns finish around it, and does not count against the
    /// retained terminal ones.
    #[test]
    fn queued_and_running_campaigns_outlive_any_number_of_finished_ones() {
        let d = daemon();
        let running = d.submit(tiny_campaign(), None, None, None);
        assert!(running.try_start());
        let queued = d.submit(tiny_campaign(), None, None, None);
        let finished: Vec<_> = (0..RETAINED_CAMPAIGNS + 5)
            .map(|_| submit_finished(&d))
            .collect();
        d.submit(tiny_campaign(), None, None, None);
        assert!(d.find(&running.id).is_some(), "running entry survives");
        assert!(d.find(&queued.id).is_some(), "queued entry survives");
        assert_eq!(running.status(), CampaignStatus::Running);
        assert_eq!(queued.status(), CampaignStatus::Queued);
        let kept = finished.iter().filter(|e| d.find(&e.id).is_some()).count();
        assert_eq!(kept, RETAINED_CAMPAIGNS);
        assert_eq!(evicted(&d), 5);
    }

    #[test]
    fn aggregated_json_requires_every_slot() {
        let d = daemon();
        let e = d.submit(tiny_campaign(), None, None, None);
        assert!(e.aggregated_json().is_none(), "incomplete campaign");
    }

    fn event_tags(e: &CampaignEntry) -> Vec<String> {
        e.events
            .from_offset(0)
            .iter()
            .map(|(_, l)| {
                serde::json::parse(l)
                    .unwrap()
                    .get("event")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// Pins the cancel-while-queued race, cancel-wins order: a `DELETE`
    /// that lands between the scheduler's dequeue and its
    /// `Queued`→`Running` claim must leave a terminal `cancelled`
    /// status with exactly one `campaign_cancelled` event, and the
    /// late `try_start` must lose.
    #[test]
    fn delete_between_dequeue_and_start_stays_cancelled_when_cancel_wins() {
        let d = daemon();
        let e = d.submit(tiny_campaign(), None, None, None);
        // The scheduler has dequeued the entry but not yet claimed it…
        assert_eq!(d.cancel(&e.id), Some(CampaignStatus::Cancelled));
        // …and its start claim arrives after the DELETE: it must lose.
        assert!(!e.try_start(), "start after cancel must not revive");
        assert_eq!(e.status(), CampaignStatus::Cancelled);
        assert_eq!(
            event_tags(&e),
            vec!["campaign_queued", "campaign_cancelled"],
            "exactly one cancelled event, never a forever-Running entry"
        );
    }

    /// The same race, start-wins order: once the scheduler claims the
    /// campaign, the `DELETE` reports `running` (not a phantom
    /// `cancelled`), and the scheduler's drain later finalizes to
    /// `cancelled` with a single terminal event.
    #[test]
    fn delete_between_dequeue_and_start_drains_to_cancelled_when_start_wins() {
        let d = daemon();
        let e = d.submit(tiny_campaign(), None, None, None);
        assert!(e.try_start(), "scheduler claims the queued campaign");
        assert_eq!(d.cancel(&e.id), Some(CampaignStatus::Running));
        assert!(e.cancel.load(Ordering::SeqCst));
        // The scheduler observes the flag, drains, and finalizes.
        let event = Event::CampaignCancelled {
            campaign: e.campaign.name.clone(),
            completed: 0,
        };
        assert!(e.finish_with(CampaignStatus::Cancelled, &event));
        assert!(
            !e.finish_with(CampaignStatus::Cancelled, &event),
            "the terminal transition is claimed exactly once"
        );
        assert_eq!(e.status(), CampaignStatus::Cancelled);
        assert_eq!(
            event_tags(&e),
            vec!["campaign_queued", "campaign_cancelled"],
            "no duplicate cancelled event from the drain path"
        );
    }
}

//! The campaign scheduler: a multi-campaign dispatcher that shares a
//! **global worker budget** across every running campaign and gives
//! every worker interaction a **deadline**.
//!
//! Cells normally run on a **worker process** ([`ProcessWorker`]):
//! the daemon re-execs its own binary with `--worker` and speaks the
//! [`crate::proto`] frame protocol over the child's pipes. Idle worker
//! processes are parked in a daemon-wide pool and reused across
//! campaigns, so a steady stream of submissions pays process startup
//! once, not per campaign. Every cell runs this way: the process
//! boundary is what gives a cell crash isolation and a deadline.
//!
//! **Admission.** The `POST /campaigns` handler admits a campaign
//! directly ([`Sched::admit`]) with the workload registry it built to
//! validate the submission. `workers` budget-slot threads wait on
//! one condvar for dispatchable cells; every change that can give an
//! idle slot something to do (an admission, a finished cell, the
//! shutdown) happens under the dispatch lock and notifies it, so no
//! slot ever waits on a timer. A `DELETE` only takes work away: its
//! campaign is reaped when its last in-flight cell finishes, or, if it
//! was still queued, at the next finished cell.
//!
//! **Budget sharing.** Campaigns are admitted FIFO, but they do not run
//! one at a time: `workers` budget slots are shared across every
//! admitted campaign, with a per-campaign max-share of
//! `ceil(budget / campaigns-wanting-work)` so a huge grid cannot
//! starve a later quick-traces submission. Admission order still
//! breaks ties, so the oldest campaign gets spare slots first.
//!
//! **Deadlines.** Every cell attempt runs under a wall-clock deadline
//! enforced by a [`deadline::WorkerMonitor`]: a wedged worker is
//! killed, the parent emits `worker_timeout`, and the attempt is lost.
//! Worker spawns themselves are guarded by a handshake deadline
//! (`HANDSHAKE_TIMEOUT`) on the protocol's hello frame.
//!
//! **Cells.** This module owns no per-cell policy. A dispatched cell
//! runs through [`berti_harness::run_cell`] — the same precheck →
//! store → attempt → classify → retry → publish lifecycle the CLI pool
//! runs — and the scheduler only supplies the *attempt*
//! (`attempt_cell`): check out a worker, arm the deadline, run, and
//! classify. A report, a typed failure (`"failed"` reply: fatal) and a
//! caught panic (`"error"` reply: retryable) arrive classified from
//! the worker; a dead worker (`worker_crashed`), a deadline kill
//! (`worker_timeout`) and a failed spawn are retryable, and a retry
//! first sleeps an exponential backoff.

use std::io::{BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use berti_harness::{run_cell, Attempt, Event, JobOutcome, JobSpec};
use berti_traces::TraceRegistry;

use crate::proto::{
    read_frame, write_frame, WorkerHello, WorkerReply, WorkerRequest, PROTO_VERSION,
};
use crate::server::HANDSHAKE_TIMEOUT;
use crate::state::{CampaignEntry, CampaignStatus, Daemon};

/// First retry waits this long; each further attempt doubles it.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Deadline enforcement for worker processes: a monitor thread that
/// SIGKILLs a watched pid when its deadline passes. Killing the
/// process is the only interruption that works against a worker that
/// is wedged inside a blocking read or an infinite loop — the parent's
/// blocking `read_frame` then observes EOF and the cell fails with a
/// `fired` guard, which the scheduler classifies as a timeout rather
/// than a crash.
pub mod deadline {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Sends SIGKILL to `pid` via the libc `kill(2)` symbol — bound
    /// directly, like the daemon binary's `signal(2)` binding, so the
    /// crate needs no foreign-function dependency.
    #[allow(unsafe_code)]
    fn kill_pid(pid: u32) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        // SIGKILL: the process is wedged by assumption; nothing softer
        // is guaranteed to be observed.
        unsafe {
            kill(pid as i32, 9);
        }
    }

    struct Watch {
        id: u64,
        pid: u32,
        deadline: Instant,
        fired: Arc<AtomicBool>,
    }

    struct Inner {
        watches: Mutex<Vec<Watch>>,
        changed: Condvar,
        shutdown: AtomicBool,
        next_id: AtomicU64,
    }

    /// The monitor: arm a watch before a blocking worker interaction,
    /// drop the guard when it returns. An expired watch kills the pid
    /// and flips the guard's `fired` flag so the caller can tell a
    /// deadline kill from an organic crash.
    pub struct WorkerMonitor {
        inner: Arc<Inner>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    /// Disarms its watch on drop; `fired()` reports whether the
    /// monitor killed the watched pid first.
    pub struct WatchGuard {
        inner: Arc<Inner>,
        id: u64,
        fired: Arc<AtomicBool>,
    }

    impl WatchGuard {
        /// Whether the deadline expired and the pid was killed.
        pub fn fired(&self) -> bool {
            self.fired.load(Ordering::SeqCst)
        }
    }

    impl Drop for WatchGuard {
        fn drop(&mut self) {
            let mut watches = self.inner.watches.lock().expect("monitor poisoned");
            watches.retain(|w| w.id != self.id);
            drop(watches);
            self.inner.changed.notify_all();
        }
    }

    impl WorkerMonitor {
        /// Starts the monitor thread.
        pub fn new() -> WorkerMonitor {
            let inner = Arc::new(Inner {
                watches: Mutex::new(Vec::new()),
                changed: Condvar::new(),
                shutdown: AtomicBool::new(false),
                next_id: AtomicU64::new(1),
            });
            let run = Arc::clone(&inner);
            let thread = std::thread::Builder::new()
                .name("berti-serve-deadline".to_string())
                .spawn(move || monitor_loop(&run))
                .expect("monitor thread spawns");
            WorkerMonitor {
                inner,
                thread: Some(thread),
            }
        }

        /// Arms a deadline for `pid`, `timeout` from now.
        pub fn watch(&self, pid: u32, timeout: Duration) -> WatchGuard {
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            let fired = Arc::new(AtomicBool::new(false));
            let watch = Watch {
                id,
                pid,
                deadline: Instant::now() + timeout,
                fired: Arc::clone(&fired),
            };
            self.inner
                .watches
                .lock()
                .expect("monitor poisoned")
                .push(watch);
            self.inner.changed.notify_all();
            WatchGuard {
                inner: Arc::clone(&self.inner),
                id,
                fired,
            }
        }

        /// Stops and joins the monitor thread.
        pub fn shutdown(mut self) {
            self.inner.shutdown.store(true, Ordering::SeqCst);
            self.inner.changed.notify_all();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    impl Default for WorkerMonitor {
        fn default() -> Self {
            WorkerMonitor::new()
        }
    }

    impl Drop for WorkerMonitor {
        fn drop(&mut self) {
            self.inner.shutdown.store(true, Ordering::SeqCst);
            self.inner.changed.notify_all();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    fn monitor_loop(inner: &Inner) {
        let mut watches = inner.watches.lock().expect("monitor poisoned");
        loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            watches.retain(|w| {
                if w.deadline <= now {
                    // Flag first, then kill: the run loop observes EOF
                    // only after the kill, so `fired` is always set by
                    // the time the caller checks it.
                    w.fired.store(true, Ordering::SeqCst);
                    kill_pid(w.pid);
                    false
                } else {
                    true
                }
            });
            let wait = watches
                .iter()
                .map(|w| w.deadline.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_secs(3600));
            let (guard, _) = inner
                .changed
                .wait_timeout(watches, wait)
                .expect("monitor poisoned");
            watches = guard;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn expired_watch_kills_the_pid_and_fires() {
            let monitor = WorkerMonitor::new();
            let mut child = std::process::Command::new("sleep")
                .arg("3600")
                .spawn()
                .expect("sleep spawns");
            let guard = monitor.watch(child.id(), Duration::from_millis(50));
            let status = child.wait().expect("child reaped");
            assert!(!status.success(), "killed, not exited");
            // The flag is set before the kill, so it is visible once
            // the child is observably dead.
            assert!(guard.fired(), "deadline kill is flagged");
            monitor.shutdown();
        }

        #[test]
        fn disarmed_watch_never_fires() {
            let monitor = WorkerMonitor::new();
            let mut child = std::process::Command::new("sleep")
                .arg("0.2")
                .spawn()
                .expect("sleep spawns");
            let guard = monitor.watch(child.id(), Duration::from_secs(3600));
            let fired = guard.fired();
            drop(guard);
            let status = child.wait().expect("child reaped");
            assert!(status.success(), "child exited on its own");
            assert!(!fired, "an unexpired watch never fires");
            monitor.shutdown();
        }
    }
}

use deadline::WorkerMonitor;

/// A worker process plus its framed pipes.
pub struct ProcessWorker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ProcessWorker {
    /// Spawns a worker from the current executable and completes the
    /// protocol handshake: the worker must write a version-matching
    /// hello frame within `HANDSHAKE_TIMEOUT`, or it is killed and the
    /// spawn fails.
    pub fn spawn(monitor: &WorkerMonitor) -> std::io::Result<ProcessWorker> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Constructed before the handshake so Drop reaps the child on
        // any failure path.
        let mut worker = ProcessWorker {
            child,
            stdin,
            stdout,
        };
        let guard = monitor.watch(worker.pid(), HANDSHAKE_TIMEOUT);
        match worker.read_hello() {
            Ok(()) => Ok(worker),
            Err(e) => {
                let timed_out = guard.fired();
                drop(guard);
                let pid = worker.pid();
                drop(worker);
                Err(if timed_out {
                    std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!(
                            "worker {pid} missed the {}ms spawn handshake",
                            HANDSHAKE_TIMEOUT.as_millis()
                        ),
                    )
                } else {
                    e
                })
            }
        }
    }

    fn read_hello(&mut self) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let frame = read_frame(&mut self.stdout)?
            .ok_or_else(|| invalid("worker closed its pipe before hello".to_string()))?;
        let hello: WorkerHello = serde::json::from_str(&frame)
            .map_err(|e| invalid(format!("malformed hello frame: {e}")))?;
        if hello.v != PROTO_VERSION {
            return Err(invalid(format!(
                "protocol version mismatch: worker {} vs daemon {}",
                hello.v, PROTO_VERSION
            )));
        }
        Ok(())
    }

    /// The worker's OS pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        // Closing stdin asks the worker loop to exit; kill + wait
        // guarantees the child is reaped even if it is wedged.
        let _ = self.stdin.flush();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ProcessWorker {
    /// Runs one cell on the worker and returns the attempt class its
    /// terminal reply carries; `emit` receives pre-serialized JSONL
    /// event lines (interval samples) as they arrive. `Err` is a
    /// transport or protocol failure: the worker is dead or cannot be
    /// trusted, and the caller must discard it.
    fn run(
        &mut self,
        spec: &JobSpec,
        trace_dir: Option<&str>,
        interval: Option<u64>,
        emit: &mut dyn FnMut(String),
    ) -> Result<Attempt, String> {
        let request = WorkerRequest {
            v: PROTO_VERSION,
            spec: spec.clone(),
            interval,
            trace_dir: trace_dir.map(str::to_string),
        };
        write_frame(&mut self.stdin, &serde::json::to_string(&request))
            .map_err(|e| format!("writing request: {e}"))?;
        loop {
            let frame = read_frame(&mut self.stdout)
                .map_err(|e| format!("reading reply: {e}"))?
                .ok_or("worker closed its pipe mid-cell")?;
            let reply: WorkerReply =
                serde::json::from_str(&frame).map_err(|e| format!("malformed reply frame: {e}"))?;
            if reply.kind != "interval" {
                return reply.into_attempt();
            }
            if let Some(line) = reply.event_json {
                emit(line);
            }
        }
    }
}

/// The daemon-wide pool of idle worker processes, reused across
/// campaigns so repeat submissions skip process startup.
#[derive(Default)]
pub struct WorkerPool {
    idle: Mutex<Vec<ProcessWorker>>,
}

impl WorkerPool {
    /// Takes an idle worker or spawns (and handshakes) a fresh one.
    fn checkout(&self, daemon: &Daemon, monitor: &WorkerMonitor) -> std::io::Result<ProcessWorker> {
        if let Some(w) = self.idle.lock().expect("worker pool poisoned").pop() {
            return Ok(w);
        }
        let w = ProcessWorker::spawn(monitor)?;
        daemon.stats.lock().expect("stats poisoned").worker_spawns += 1;
        Ok(w)
    }

    /// Returns a healthy worker to the pool.
    fn checkin(&self, worker: ProcessWorker) {
        self.idle.lock().expect("worker pool poisoned").push(worker);
    }

    /// Idle workers currently parked.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("worker pool poisoned").len()
    }

    /// Drops every idle worker (shutdown).
    pub fn drain(&self) {
        self.idle.lock().expect("worker pool poisoned").clear();
    }
}

/// One admitted campaign's dispatch bookkeeping.
struct Active {
    entry: Arc<CampaignEntry>,
    /// Pre-dispatch workload-check registry: the one the `POST`
    /// handler built to validate the submission (workers build their
    /// own when executing; this one only answers "does this name
    /// resolve, and if not, what is close?").
    registry: Arc<Result<TraceRegistry, String>>,
    /// Next undispatched cell index.
    next_cell: usize,
    /// Cells currently executing on budget slots.
    in_flight: usize,
    /// Cells that reached a terminal outcome.
    finished: usize,
    /// Set when the campaign first dispatched a cell.
    started: Option<Instant>,
}

impl Active {
    /// Whether the dispatcher may hand out another of this campaign's
    /// cells.
    fn wants_work(&self) -> bool {
        self.next_cell < self.entry.campaign.cells.len()
            && !self.entry.cancel.load(Ordering::SeqCst)
            && !self.entry.status().is_terminal()
    }
}

/// One dispatched cell.
struct Task {
    entry: Arc<CampaignEntry>,
    registry: Arc<Result<TraceRegistry, String>>,
    idx: usize,
}

struct SchedState {
    /// Admission (FIFO) order.
    active: Vec<Active>,
    /// Shutting down: no further admissions or dispatches; budget
    /// slots exit after their in-flight cells.
    closed: bool,
}

/// The dispatcher, shared by the `POST` handlers that admit campaigns
/// and the budget slots ([`Sched::run_slot`]) that run their cells.
pub struct Sched {
    daemon: Arc<Daemon>,
    /// Global budget: cells in flight across *all* campaigns.
    workers: usize,
    /// Default per-cell wall-clock deadline; `None` disables deadlines.
    /// A submission may override it per campaign (`cell_timeout_ms`).
    cell_timeout: Option<Duration>,
    pool: WorkerPool,
    monitor: WorkerMonitor,
    state: Mutex<SchedState>,
    work: Condvar,
}

impl Sched {
    /// A dispatcher over a budget of `workers` cells in flight, with
    /// nothing admitted and its deadline monitor running; cells run
    /// once [`Sched::run_slot`] threads start.
    pub fn new(daemon: Arc<Daemon>, workers: usize, cell_timeout: Option<Duration>) -> Sched {
        Sched {
            daemon,
            workers: workers.max(1),
            cell_timeout,
            pool: WorkerPool::default(),
            monitor: WorkerMonitor::new(),
            state: Mutex::new(SchedState {
                active: Vec::new(),
                closed: false,
            }),
            work: Condvar::new(),
        }
    }

    /// The global budget: how many [`Sched::run_slot`] threads to run.
    pub fn slots(&self) -> usize {
        self.workers
    }

    /// Admits a registered campaign into the active set, with the
    /// registry its workloads were validated against, and wakes the
    /// budget slots. Returns `false` (nothing admitted) once
    /// [`Sched::close`] has run.
    pub fn admit(&self, entry: Arc<CampaignEntry>, registry: TraceRegistry) -> bool {
        let registry = Arc::new(Ok(registry));
        let mut state = self.state.lock().expect("sched state poisoned");
        if state.closed {
            return false;
        }
        state.active.push(Active {
            entry,
            registry,
            next_cell: 0,
            in_flight: 0,
            finished: 0,
            started: None,
        });
        self.publish_gauges(&state);
        drop(state);
        self.work.notify_all();
        true
    }

    /// Stops admission and dispatch: idle budget slots exit now, busy
    /// ones after their in-flight cell.
    pub fn close(&self) {
        self.state.lock().expect("sched state poisoned").closed = true;
        self.work.notify_all();
    }

    /// One budget slot: pulls dispatched cells until [`Sched::close`],
    /// keeping its worker warm across cells and parking a healthy one
    /// on exit.
    pub fn run_slot(&self) {
        let mut worker: Option<ProcessWorker> = None;
        while let Some(task) = self.next_task() {
            run_task(self, &task, &mut worker);
            self.complete(&task);
        }
        if let Some(worker) = worker.take() {
            self.pool.checkin(worker);
        }
    }

    /// The drain after every [`Sched::run_slot`] returned: finalizes
    /// what the slots left behind (those campaigns end `cancelled`),
    /// then stops the parked workers and the deadline monitor.
    pub fn finish(self) {
        self.finalize_remaining();
        self.pool.drain();
        self.monitor.shutdown();
    }

    /// Blocks until a cell is dispatchable under the budget-share rule
    /// or the dispatcher closes. `None` means the slot should exit.
    fn next_task(&self) -> Option<Task> {
        let mut state = self.state.lock().expect("sched state poisoned");
        loop {
            if state.closed {
                return None;
            }
            self.reap(&mut state);
            let wanting = state.active.iter().filter(|a| a.wants_work()).count();
            if wanting > 0 {
                let budget = self.workers;
                // Per-campaign max-share: an even split of the budget,
                // rounded up, so a huge early grid cannot starve a
                // later quick submission; FIFO order gets spare slots.
                let cap = budget.div_ceil(wanting).max(1);
                for a in state.active.iter_mut() {
                    if !a.wants_work() || a.in_flight >= cap {
                        continue;
                    }
                    if a.started.is_none() {
                        // Claim Queued→Running atomically against a
                        // racing DELETE; losing means the cancel path
                        // already owns the terminal event.
                        if !a.entry.try_start() {
                            continue;
                        }
                        a.started = Some(Instant::now());
                        a.entry.events.push(&Event::CampaignStarted {
                            campaign: a.entry.campaign.name.clone(),
                            cells: a.entry.campaign.cells.len(),
                            jobs: budget.min(a.entry.campaign.cells.len()),
                        });
                    }
                    let idx = a.next_cell;
                    a.next_cell += 1;
                    a.in_flight += 1;
                    let task = Task {
                        entry: Arc::clone(&a.entry),
                        registry: Arc::clone(&a.registry),
                        idx,
                    };
                    self.publish_gauges(&state);
                    return Some(task);
                }
            }
            state = self.work.wait(state).expect("sched state poisoned");
        }
    }

    /// Records a finished cell and finalizes its campaign if drained.
    fn complete(&self, task: &Task) {
        let mut state = self.state.lock().expect("sched state poisoned");
        if let Some(a) = state
            .active
            .iter_mut()
            .find(|a| a.entry.id == task.entry.id)
        {
            a.in_flight -= 1;
            a.finished += 1;
        }
        self.reap(&mut state);
        self.publish_gauges(&state);
        drop(state);
        self.work.notify_all();
    }

    /// Removes and finalizes campaigns with nothing left in flight:
    /// fully drained grids, cancelled campaigns whose in-flight cells
    /// finished, and queued-cancelled entries (already terminal).
    fn reap(&self, state: &mut SchedState) {
        let mut i = 0;
        while i < state.active.len() {
            let a = &state.active[i];
            let drained = a.in_flight == 0
                && (a.finished == a.entry.campaign.cells.len()
                    || a.entry.cancel.load(Ordering::SeqCst)
                    || a.entry.status().is_terminal());
            if !drained {
                i += 1;
                continue;
            }
            let a = state.active.remove(i);
            self.finalize(&a);
        }
    }

    /// Emits the terminal event and status for one drained campaign.
    /// A queued-cancelled entry is already terminal (the cancel path
    /// owns its event) and is skipped by `finish_with`.
    fn finalize(&self, a: &Active) {
        if let Some(started) = a.started {
            a.entry
                .wall_ms
                .store(started.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
        let (completed, cached, failed) = a.entry.counts();
        let cancelled = a.entry.cancel.load(Ordering::SeqCst)
            || self.daemon.shutdown.load(Ordering::SeqCst)
            || a.finished < a.entry.campaign.cells.len();
        let (status, event) = if cancelled {
            (
                CampaignStatus::Cancelled,
                Event::CampaignCancelled {
                    campaign: a.entry.campaign.name.clone(),
                    completed,
                },
            )
        } else {
            (
                CampaignStatus::Done,
                Event::CampaignFinished {
                    campaign: a.entry.campaign.name.clone(),
                    completed,
                    failed,
                    cache_hits: cached,
                    wall_ms: a.entry.wall_ms.load(Ordering::Relaxed),
                },
            )
        };
        if !a.entry.finish_with(status, &event) {
            return; // queued-cancel already owned the terminal event
        }
        let mut stats = self.daemon.stats.lock().expect("stats poisoned");
        if cancelled {
            stats.campaigns_cancelled += 1;
        } else {
            stats.campaigns_completed += 1;
        }
    }

    /// Finalizes everything still active after the budget slots exited
    /// at shutdown.
    fn finalize_remaining(&self) {
        let mut state = self.state.lock().expect("sched state poisoned");
        let drained: Vec<Active> = state.active.drain(..).collect();
        for a in &drained {
            self.finalize(a);
        }
        self.publish_gauges(&state);
    }

    /// Overwrites the gauge half of the `scheduler` metrics group from
    /// the current dispatch state (counters are incremented in place
    /// as their events occur).
    fn publish_gauges(&self, state: &SchedState) {
        let budget = self.workers as u64;
        let mut queued = 0u64;
        let mut running = 0u64;
        let mut in_flight = 0u64;
        for a in &state.active {
            match a.entry.status() {
                CampaignStatus::Queued => queued += 1,
                CampaignStatus::Running => running += 1,
                _ => {}
            }
            in_flight += a.in_flight as u64;
        }
        let parked = self.pool.idle_count() as u64;
        let mut g = self.daemon.sched.lock().expect("sched stats poisoned");
        g.campaigns_queued = queued;
        g.campaigns_running = running;
        g.cells_in_flight = in_flight;
        g.workers_busy = in_flight.min(budget);
        g.workers_idle = budget.saturating_sub(in_flight);
        g.workers_parked = parked;
    }
}

/// Runs one dispatched cell through the shared lifecycle and records
/// its result; the `serve` cell counters follow from the outcome.
fn run_task(sched: &Sched, task: &Task, worker: &mut Option<ProcessWorker>) {
    let entry = &*task.entry;
    let spec = &entry.campaign.cells[task.idx];
    let result = run_cell(
        spec,
        Some(&*task.registry),
        Some(&*sched.daemon.store),
        |event| entry.events.push(&event),
        |attempt| attempt_cell(sched, entry, spec, attempt, worker),
    );
    {
        let mut stats = sched.daemon.stats.lock().expect("stats poisoned");
        match result.outcome {
            JobOutcome::Done { cached: true, .. } => stats.cells_cached += 1,
            JobOutcome::Done { .. } => stats.cells_completed += 1,
            JobOutcome::Failed { .. } => stats.cells_failed += 1,
        }
    }
    entry.fill_slot(task.idx, result);
}

/// One attempt at one cell, as the daemon makes it: back off before a
/// retry, then run the cell on this slot's worker (a fresh one if the
/// last died) under the cell deadline. A worker that dies or is killed
/// mid-cell is discarded and reported (`worker_crashed` /
/// `worker_timeout`) before the attempt is handed back as retryable.
fn attempt_cell(
    sched: &Sched,
    entry: &CampaignEntry,
    spec: &JobSpec,
    attempt: u32,
    worker: &mut Option<ProcessWorker>,
) -> Attempt {
    let daemon = &*sched.daemon;
    if attempt > 1 {
        // Exponential backoff: doubles per attempt from the base,
        // counted so the e2e suite can observe it happened.
        {
            let mut sched_stats = daemon.sched.lock().expect("sched stats poisoned");
            sched_stats.cell_retries += 1;
            sched_stats.backoff_sleeps += 1;
        }
        std::thread::sleep(RETRY_BACKOFF_BASE * (1 << (attempt - 2)));
    }
    let proc = match worker {
        Some(w) => w,
        None => match sched.pool.checkout(daemon, &sched.monitor) {
            Ok(w) => worker.insert(w),
            Err(e) => return Attempt::Retryable(format!("spawning worker: {e}")),
        },
    };
    // Campaign override beats the daemon default; an explicit 0
    // disables the deadline for this campaign.
    let cell_timeout = match entry.cell_timeout_ms {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => sched.cell_timeout,
    };
    let pid = proc.pid();
    let watch = cell_timeout.map(|timeout| sched.monitor.watch(pid, timeout));
    let mut emit = |line: String| entry.events.push_line(line);
    let outcome = proc.run(spec, entry.trace_dir.as_deref(), entry.interval, &mut emit);
    let timed_out = watch.as_ref().is_some_and(|w| w.fired());
    drop(watch);
    let error = match outcome {
        Ok(attempt) => return attempt,
        Err(error) => error,
    };
    // The worker is gone: discard it so the next attempt (or the next
    // cell) starts a fresh one.
    *worker = None;
    let key = spec.key();
    if timed_out {
        let timeout_ms = cell_timeout.unwrap_or_default().as_millis() as u64;
        entry.events.push(&Event::WorkerTimeout {
            key,
            pid,
            timeout_ms,
        });
        daemon
            .sched
            .lock()
            .expect("sched stats poisoned")
            .cell_timeouts += 1;
        Attempt::Retryable(format!(
            "worker process {pid} exceeded the {timeout_ms}ms cell deadline"
        ))
    } else {
        entry.events.push(&Event::WorkerCrashed { key, pid });
        daemon.stats.lock().expect("stats poisoned").worker_crashes += 1;
        Attempt::Retryable(format!("worker process {pid} died: {error}"))
    }
}

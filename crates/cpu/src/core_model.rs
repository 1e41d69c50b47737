//! The core pipeline: dispatch, execute (through a [`DataPort`]), and
//! in-order retire.

use std::collections::VecDeque;

use berti_types::{CoreConfig, Cycle, Instr, Ip, VAddr, MAX_DEP_CHAINS};

/// Kind of a memory operation presented to the port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOpKind {
    /// A demand load.
    Load,
    /// A store (read-for-ownership).
    Store,
}

/// Response of the memory system to a demand.
#[derive(Clone, Copy, Debug)]
pub enum PortResponse {
    /// Data (or ownership) available at the given cycle.
    Ready(Cycle),
    /// The L1D MSHR is full; retry next cycle.
    Stall,
}

/// The core's window into the memory hierarchy. Implemented by the
/// simulator over `berti_mem::Hierarchy` + `SharedMemory`.
pub trait DataPort {
    /// Issues a demand access at cycle `at`.
    fn demand(&mut self, ip: Ip, addr: VAddr, kind: MemOpKind, at: Cycle) -> PortResponse;
}

berti_stats::counter_group! {
    /// Retired-work counters.
    pub struct CoreStats {
        /// Cycles simulated.
        pub cycles: u64,
        /// Instructions retired.
        pub instructions: u64,
        /// Loads issued.
        pub loads: u64,
        /// Stores issued.
        pub stores: u64,
        /// Cycles in which dispatch was blocked by a full ROB.
        pub rob_full_cycles: u64,
        /// Cycles in which a load could not issue because the L1D MSHR was
        /// full.
        pub mshr_stall_cycles: u64,
        /// Mispredicted branches seen.
        pub mispredicts: u64,
    }
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    complete_at: Cycle,
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    now: Cycle,
    rob: VecDeque<RobEntry>,
    /// Front end refills at this cycle after a mispredict.
    fetch_resume_at: Cycle,
    /// Completion time of the youngest load per dependence chain.
    chain_ready: [Cycle; MAX_DEP_CHAINS],
    /// Instruction stalled at dispatch waiting for an MSHR entry.
    replay: Option<Instr>,
    stats: CoreStats,
}

impl Core {
    /// Creates a core.
    pub fn new(cfg: CoreConfig) -> Self {
        Self {
            cfg,
            now: Cycle::ZERO,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            fetch_resume_at: Cycle::ZERO,
            chain_ready: [Cycle::ZERO; MAX_DEP_CHAINS],
            replay: None,
            stats: CoreStats::default(),
        }
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Counters so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Resets counters at the end of warm-up (pipeline state persists).
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Whether all dispatched work has retired.
    pub fn drained(&self) -> bool {
        self.rob.is_empty() && self.replay.is_none()
    }

    /// Skip-ahead contract: if the next [`Core::cycle`] call could
    /// neither retire nor dispatch (ROB full, or the front end is
    /// refilling after a mispredict), returns the first cycle at which
    /// that changes; `None` means the core can make progress *now* and
    /// must be stepped normally.
    ///
    /// The returned cycle is conservative in exactly the way
    /// [`Core::skip_to`] needs: every cycle in `[now, wake)` is
    /// guaranteed to be an idle cycle whose only effect is counter
    /// bookkeeping, with the blocking conditions unchanged throughout.
    pub fn quiescent_until(&self) -> Option<Cycle> {
        let now = self.now;
        if let Some(front) = self.rob.front() {
            if front.complete_at <= now {
                return None; // retire possible
            }
        }
        let fetch_blocked = now < self.fetch_resume_at;
        let rob_full = self.rob.len() >= self.cfg.rob_entries;
        if !fetch_blocked && !rob_full {
            return None; // would dispatch (fetch or replay)
        }
        let mut wake = match self.rob.front() {
            Some(front) => front.complete_at,
            // Empty ROB implies !rob_full, so fetch_blocked holds and
            // the min below always lowers this sentinel.
            None => Cycle::new(u64::MAX),
        };
        if fetch_blocked {
            wake = wake.min(self.fetch_resume_at);
        }
        Some(wake)
    }

    /// Fast-forwards an idle stretch to `target`, performing exactly
    /// the bookkeeping the per-cycle loop would have: `target - now`
    /// counted cycles, each also counted as ROB-full when dispatch was
    /// attempted-and-blocked (naive dispatch only attempts once the
    /// front end has resumed).
    ///
    /// `target` must not exceed [`Core::quiescent_until`], otherwise
    /// a retire/dispatch opportunity would be skipped over.
    pub fn skip_to(&mut self, target: Cycle) {
        debug_assert!(
            self.quiescent_until().is_some_and(|wake| target <= wake),
            "skip_to past a wake-up would lose work"
        );
        let skipped = target - self.now;
        if skipped == 0 {
            return;
        }
        self.stats.cycles += skipped;
        let fetch_blocked = self.now < self.fetch_resume_at;
        if !fetch_blocked && self.rob.len() >= self.cfg.rob_entries {
            self.stats.rob_full_cycles += skipped;
        }
        self.now = target;
    }

    /// Simulates one cycle: retire, then dispatch/execute. `fetch`
    /// supplies the next trace instruction (None = trace exhausted).
    /// Returns the number of instructions retired this cycle.
    ///
    /// Generic over the port so the demand path is statically
    /// dispatched; a `&mut dyn DataPort` still works (`P = dyn
    /// DataPort`).
    pub fn cycle<P, F>(&mut self, port: &mut P, mut fetch: F) -> u64
    where
        P: DataPort + ?Sized,
        F: FnMut() -> Option<Instr>,
    {
        let now = self.now;
        self.stats.cycles += 1;

        // Retire in order.
        let mut retired = 0;
        while retired < self.cfg.retire_width as u64 {
            match self.rob.front() {
                Some(e) if e.complete_at <= now => {
                    self.rob.pop_front();
                    retired += 1;
                }
                _ => break,
            }
        }
        self.stats.instructions += retired;

        // Dispatch and execute.
        if now >= self.fetch_resume_at {
            let mut loads_this_cycle = 0usize;
            let mut stores_this_cycle = 0usize;
            for _ in 0..self.cfg.issue_width {
                if self.rob.len() >= self.cfg.rob_entries {
                    self.stats.rob_full_cycles += 1;
                    break;
                }
                let instr = match self.replay.take() {
                    Some(i) => i,
                    None => match fetch() {
                        Some(i) => i,
                        None => break,
                    },
                };
                // Port limits: if this instruction needs more ports than
                // remain this cycle, hold it for the next one.
                let needs_loads = instr.loads.iter().flatten().count();
                let needs_store = usize::from(instr.store.is_some());
                if loads_this_cycle + needs_loads > self.cfg.l1d_read_ports
                    || stores_this_cycle + needs_store > self.cfg.l1d_write_ports
                {
                    self.replay = Some(instr);
                    break;
                }
                match self.execute(port, &instr, now) {
                    Some(complete_at) => {
                        loads_this_cycle += needs_loads;
                        stores_this_cycle += needs_store;
                        self.rob.push_back(RobEntry { complete_at });
                        if instr.mispredicted_branch {
                            self.stats.mispredicts += 1;
                            self.fetch_resume_at = complete_at + self.cfg.mispredict_penalty;
                            break;
                        }
                    }
                    None => {
                        // MSHR full: hold the instruction, retry next cycle.
                        self.stats.mshr_stall_cycles += 1;
                        self.replay = Some(instr);
                        break;
                    }
                }
            }
        }

        self.now += 1;
        retired
    }

    /// Computes the completion time of `instr`, issuing its memory
    /// operations. Returns None if the L1D cannot accept a miss.
    fn execute<P: DataPort + ?Sized>(
        &mut self,
        port: &mut P,
        instr: &Instr,
        now: Cycle,
    ) -> Option<Cycle> {
        // Dependence chains delay the issue of chained loads.
        let issue_at = match instr.dep_chain {
            Some(c) => now.max(self.chain_ready[c as usize]),
            None => now,
        };
        let mut complete_at = now + 1;
        for addr in instr.loads.iter().flatten() {
            match port.demand(instr.ip, *addr, MemOpKind::Load, issue_at) {
                PortResponse::Ready(t) => {
                    complete_at = complete_at.max(t);
                    self.stats.loads += 1;
                }
                PortResponse::Stall => return None,
            }
        }
        if let Some(addr) = instr.store {
            match port.demand(instr.ip, addr, MemOpKind::Store, issue_at) {
                PortResponse::Ready(t) => {
                    complete_at = complete_at.max(t);
                    self.stats.stores += 1;
                }
                PortResponse::Stall => return None,
            }
        }
        if let Some(c) = instr.dep_chain {
            self.chain_ready[c as usize] = complete_at;
        }
        Some(complete_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory system with fixed latency and optional stall windows.
    struct FixedMem {
        latency: u64,
        accesses: Vec<(VAddr, Cycle)>,
        stall_first_n: usize,
    }

    impl DataPort for FixedMem {
        fn demand(&mut self, _ip: Ip, addr: VAddr, _k: MemOpKind, at: Cycle) -> PortResponse {
            if self.stall_first_n > 0 {
                self.stall_first_n -= 1;
                return PortResponse::Stall;
            }
            self.accesses.push((addr, at));
            PortResponse::Ready(at + self.latency)
        }
    }

    fn mem(latency: u64) -> FixedMem {
        FixedMem {
            latency,
            accesses: Vec::new(),
            stall_first_n: 0,
        }
    }

    fn run(core: &mut Core, port: &mut FixedMem, mut prog: Vec<Instr>, max_cycles: u64) {
        prog.reverse();
        for _ in 0..max_cycles {
            core.cycle(port, || prog.pop());
            if prog.is_empty() && core.drained() {
                break;
            }
        }
    }

    #[test]
    fn alu_stream_retires_at_retire_width() {
        let mut core = Core::new(CoreConfig::default());
        let mut m = mem(1);
        let prog: Vec<Instr> = (0..400).map(|i| Instr::alu(Ip::new(i))).collect();
        run(&mut core, &mut m, prog, 10_000);
        let s = core.stats();
        assert_eq!(s.instructions, 400);
        // 4-wide retire bounds IPC at 4.
        assert!(s.ipc() <= 4.0 + 1e-9);
        assert!(s.ipc() > 2.0, "ipc {}", s.ipc());
    }

    #[test]
    fn independent_loads_overlap() {
        let cfg = CoreConfig::default();
        let mut core = Core::new(cfg);
        let mut m = mem(200);
        let prog: Vec<Instr> = (0..100)
            .map(|i| Instr::load(Ip::new(1), VAddr::new(i * 64)))
            .collect();
        run(&mut core, &mut m, prog, 100_000);
        let s = core.stats();
        assert_eq!(s.loads, 100);
        // With MLP, far faster than 100 × 200 serial cycles.
        assert!(s.cycles < 2_000, "cycles {}", s.cycles);
    }

    #[test]
    fn dependent_loads_serialize() {
        let cfg = CoreConfig::default();
        let mut core = Core::new(cfg);
        let mut m = mem(200);
        let prog: Vec<Instr> = (0..50)
            .map(|i| Instr::dependent_load(Ip::new(1), VAddr::new(i * 64), 0))
            .collect();
        run(&mut core, &mut m, prog, 100_000);
        let s = core.stats();
        // Each load waits for the previous: ≈ 50 × 200 cycles.
        assert!(s.cycles >= 50 * 200, "cycles {}", s.cycles);
    }

    #[test]
    fn two_chains_overlap_each_other() {
        let cfg = CoreConfig::default();
        let mut core = Core::new(cfg);
        let mut m = mem(200);
        let mut prog = Vec::new();
        for i in 0..50u64 {
            prog.push(Instr::dependent_load(Ip::new(1), VAddr::new(i * 64), 0));
            prog.push(Instr::dependent_load(
                Ip::new(2),
                VAddr::new((1000 + i) * 64),
                1,
            ));
        }
        run(&mut core, &mut m, prog, 100_000);
        // Two independent chains: same wall clock as one chain.
        assert!(core.stats().cycles < 50 * 200 + 2000);
    }

    #[test]
    fn rob_bounds_the_window() {
        let cfg = CoreConfig {
            rob_entries: 8,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg);
        let mut m = mem(500);
        let prog: Vec<Instr> = (0..64)
            .map(|i| Instr::load(Ip::new(1), VAddr::new(i * 64)))
            .collect();
        run(&mut core, &mut m, prog, 1_000_000);
        // 64 loads / 8-entry window ≈ 8 serialized batches of 500.
        assert!(
            core.stats().cycles >= 7 * 500,
            "cycles {}",
            core.stats().cycles
        );
    }

    #[test]
    fn mispredict_stalls_the_front_end() {
        let cfg = CoreConfig::default();
        let mut base = Core::new(cfg);
        let mut m1 = mem(1);
        let prog: Vec<Instr> = (0..100).map(|i| Instr::alu(Ip::new(i))).collect();
        run(&mut base, &mut m1, prog, 100_000);

        let mut bad = Core::new(cfg);
        let mut m2 = mem(1);
        let prog: Vec<Instr> = (0..100)
            .map(|i| {
                if i % 10 == 0 {
                    Instr::mispredicted_branch(Ip::new(i))
                } else {
                    Instr::alu(Ip::new(i))
                }
            })
            .collect();
        run(&mut bad, &mut m2, prog, 100_000);
        assert_eq!(bad.stats().mispredicts, 10);
        // Each mispredict costs ≈ the refill penalty (some of it
        // overlaps with retiring the already-dispatched window).
        assert!(
            bad.stats().cycles >= base.stats().cycles + 10 * (cfg.mispredict_penalty - 3),
            "{} vs {}",
            bad.stats().cycles,
            base.stats().cycles
        );
    }

    #[test]
    fn mshr_stall_replays_the_same_instruction() {
        let cfg = CoreConfig::default();
        let mut core = Core::new(cfg);
        let mut m = mem(10);
        m.stall_first_n = 3;
        let prog = vec![Instr::load(Ip::new(1), VAddr::new(64))];
        run(&mut core, &mut m, prog, 1000);
        let s = core.stats();
        assert_eq!(s.loads, 1, "the load must eventually issue once");
        assert_eq!(s.mshr_stall_cycles, 3);
        assert_eq!(s.instructions, 1);
    }

    #[test]
    fn load_ports_limit_issue() {
        let cfg = CoreConfig::default();
        let mut core = Core::new(cfg);
        let mut m = mem(1);
        // 6-wide issue but only 2 load ports: 3 loads cannot dispatch in
        // one cycle.
        let prog: Vec<Instr> = (0..30)
            .map(|i| Instr::load(Ip::new(1), VAddr::new(i * 64)))
            .collect();
        run(&mut core, &mut m, prog, 10_000);
        // 30 loads / 2 ports = 15 dispatch cycles minimum.
        assert!(core.stats().cycles >= 15);
    }
}

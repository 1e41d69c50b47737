//! A DRAM channel with banks, an open-page row-buffer policy, a shared
//! data bus, bounded read/write queues, and watermark-triggered write
//! drains (Table II: FR-FCFS, 64-entry RQ/WQ, reads prioritized over
//! writes, write watermark 7/8, 4 KiB row buffer, open page).
//!
//! The model is timestamp-based: each read computes its completion time
//! from the addressed bank's state (row hit / closed row / row
//! conflict), the data-bus occupancy, and read-queue backpressure.
//! Writes are buffered and drained in bursts once the write queue
//! crosses its watermark, stealing bus and bank time from later reads —
//! which is how write traffic degrades read latency on real parts.

use std::collections::VecDeque;

use berti_types::{Cycle, DramConfig, LINE_BYTES};

/// Per-bank open-row state.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

berti_stats::counter_group! {
    /// DRAM event counters.
    pub struct DramStats {
        /// Read (line fetch) requests served.
        pub reads: u64,
        /// Write (writeback) requests accepted.
        pub writes: u64,
        /// Reads that hit an open row.
        pub row_hits: u64,
        /// Reads that found the row closed.
        pub row_closed: u64,
        /// Reads that conflicted with a different open row.
        pub row_conflicts: u64,
        /// Cumulative read latency (cycles), for averaging.
        pub total_read_latency: u64,
        /// Write-drain bursts triggered by the watermark.
        pub write_drains: u64,
    }
}

/// One DRAM channel.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    /// Completion times of in-flight reads (read-queue occupancy), in
    /// storage reserved once: backpressure frees a slot before every
    /// push, so the channel performs no heap traffic per read.
    inflight_reads: VecDeque<Cycle>,
    /// Buffered writebacks awaiting a drain: (bank, row). The watermark
    /// drain keeps occupancy strictly below capacity between writes.
    write_queue: VecDeque<(usize, u64)>,
    stats: DramStats,
}

impl Dram {
    /// Creates a channel from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks > 0, "DRAM needs at least one bank");
        Self {
            cfg,
            banks: vec![Bank::default(); cfg.banks],
            bus_free_at: Cycle::ZERO,
            inflight_reads: VecDeque::with_capacity(cfg.rq_entries),
            write_queue: VecDeque::with_capacity(cfg.wq_entries),
            stats: DramStats::default(),
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Event counters so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets event counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Skip-ahead contract: the earliest cycle at or after `now` at
    /// which this channel needs a `tick`-style call to make progress.
    ///
    /// The channel is purely reactive — [`Dram::read`] and
    /// [`Dram::write`] compute completion timestamps at request time
    /// and write drains happen inside those calls — so it never has
    /// autonomously pending work and always returns `None`. The method
    /// exists so the engine can treat every component uniformly (and so
    /// a future model with an autonomous refresh/drain loop slots in
    /// without touching the scheduler).
    pub fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Lines per row buffer.
    #[inline]
    fn lines_per_row(&self) -> u64 {
        self.cfg.row_buffer_bytes / LINE_BYTES
    }

    /// Bank and row addressed by a physical line (row-interleaved
    /// mapping: consecutive rows rotate across banks).
    #[inline]
    fn map(&self, line: u64) -> (usize, u64) {
        let row_global = line / self.lines_per_row();
        let bank = (row_global % self.cfg.banks as u64) as usize;
        let row = row_global / self.cfg.banks as u64;
        (bank, row)
    }

    fn gc_reads(&mut self, now: Cycle) {
        while matches!(self.inflight_reads.front(), Some(&c) if c <= now) {
            self.inflight_reads.pop_front();
        }
    }

    /// Cycles of row preparation (precharge/activate) before the
    /// column command can issue; zero on a row hit. Updates row-buffer
    /// statistics.
    fn row_prep(&mut self, bank: usize, row: u64) -> u64 {
        match self.banks[bank].open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                0
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.cfg.t_rp + self.cfg.t_rcd
            }
            None => {
                self.stats.row_closed += 1;
                self.cfg.t_rcd
            }
        }
    }

    /// Issues a read of physical line `line` at `now`; returns the cycle
    /// the full line has been transferred.
    pub fn read(&mut self, line: u64, now: Cycle) -> Cycle {
        self.gc_reads(now);
        // Read-queue backpressure: wait for the oldest read to finish.
        let mut start = now;
        if self.inflight_reads.len() >= self.cfg.rq_entries {
            if let Some(&oldest) = self.inflight_reads.front() {
                start = start.max(oldest);
            }
            self.gc_reads(start);
        }
        let (bank, row) = self.map(line);
        let ready = self.service(bank, row, start);
        self.stats.reads += 1;
        self.stats.total_read_latency += ready - now;
        // `check-invariants`: read completions are monotone (each read's
        // burst serializes on the shared bus after its predecessor's),
        // which is what licenses gc_reads scanning only the front; and
        // backpressure keeps the queue within its configured capacity.
        #[cfg(feature = "check-invariants")]
        {
            if let Some(&last) = self.inflight_reads.back() {
                assert!(
                    ready >= last,
                    "DRAM RQ completion out of order: {ready:?} after {last:?}"
                );
            }
            assert!(
                self.inflight_reads.len() < self.cfg.rq_entries,
                "DRAM RQ over capacity before push: {} >= {}",
                self.inflight_reads.len(),
                self.cfg.rq_entries
            );
        }
        self.inflight_reads.push_back(ready);
        // Keep completion order sorted enough for gc: push_back of a
        // possibly-earlier time is fine because gc scans the front only
        // after `start` already passed earlier entries.
        self.maybe_drain_writes(now);
        ready
    }

    /// Buffers a writeback of physical line `line` at `now`.
    pub fn write(&mut self, line: u64, now: Cycle) {
        let (bank, row) = self.map(line);
        self.write_queue.push_back((bank, row));
        self.stats.writes += 1;
        self.maybe_drain_writes(now);
        // `check-invariants`: the watermark drain keeps the WQ within
        // its configured capacity.
        #[cfg(feature = "check-invariants")]
        assert!(
            self.write_queue.len() <= self.cfg.wq_entries,
            "DRAM WQ over capacity: {} > {}",
            self.write_queue.len(),
            self.cfg.wq_entries
        );
    }

    /// Services one burst: row preparation as needed, then a column
    /// access whose CAS latency *pipelines* — the bank and bus are only
    /// occupied for the preparation and the data burst, so back-to-back
    /// row hits stream at full bus bandwidth while each still sees the
    /// full tCAS latency.
    fn service(&mut self, bank: usize, row: u64, start: Cycle) -> Cycle {
        let t_bank = start.max(self.banks[bank].busy_until);
        let prep = self.row_prep(bank, row);
        let data_start = (t_bank + prep).max(self.bus_free_at);
        let burst_end = data_start + self.cfg.cycles_per_line();
        let ready = data_start + self.cfg.t_cas + self.cfg.cycles_per_line();
        // `check-invariants`: bus and bank busy-until times only move
        // forward (monotone ready-times for the shared resources).
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                burst_end >= self.bus_free_at,
                "DRAM bus time moved backwards: {burst_end:?} < {:?}",
                self.bus_free_at
            );
            assert!(
                burst_end >= self.banks[bank].busy_until,
                "DRAM bank {bank} time moved backwards"
            );
        }
        self.banks[bank].open_row = Some(row);
        self.banks[bank].busy_until = burst_end;
        self.bus_free_at = burst_end;
        ready
    }

    /// Drains writes down to half the queue once the watermark is hit
    /// ("write watermark: 7/8th", reads prioritized otherwise).
    fn maybe_drain_writes(&mut self, now: Cycle) {
        let watermark =
            self.cfg.wq_entries * self.cfg.write_watermark_num / self.cfg.write_watermark_den;
        if self.write_queue.len() < watermark.max(1) {
            return;
        }
        self.stats.write_drains += 1;
        let target = self.cfg.wq_entries / 2;
        while self.write_queue.len() > target {
            let (bank, row) = self.write_queue.pop_front().expect("nonempty");
            self.service(bank, row, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_types::DDR5_6400;

    fn dram() -> Dram {
        Dram::new(DDR5_6400)
    }

    #[test]
    fn first_read_pays_activation_plus_transfer() {
        let mut d = dram();
        let ready = d.read(0, Cycle::new(0));
        // Closed row: tRCD + tCAS + transfer = 50 + 50 + 10.
        assert_eq!(ready, Cycle::new(110));
        assert_eq!(d.stats().row_closed, 1);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let mut d = dram();
        let _ = d.read(0, Cycle::new(0));
        // Same row: CAS + transfer only, starting after the bank frees.
        let t_hit_start = Cycle::new(200);
        let hit_ready = d.read(1, t_hit_start);
        assert_eq!(hit_ready - t_hit_start, 50 + 10);
        assert_eq!(d.stats().row_hits, 1);
        // Different row, same bank (banks * lines_per_row apart).
        let conflict_line = 16 * 64; // next row on bank 0
        let t2 = Cycle::new(1000);
        let conflict_ready = d.read(conflict_line, t2);
        assert_eq!(conflict_ready - t2, 50 + 50 + 50 + 10);
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn different_banks_overlap_but_share_the_bus() {
        let mut d = dram();
        let r0 = d.read(0, Cycle::new(0)); // bank 0
        let r1 = d.read(64, Cycle::new(0)); // bank 1 (next row)
                                            // Bank 1 activation overlaps bank 0's, but the data transfer
                                            // must serialize on the bus: second read finishes one transfer
                                            // after the first.
        assert_eq!(r1, r0 + 10);
    }

    #[test]
    fn bandwidth_constrains_back_to_back_reads() {
        // DDR3-1600 has 4x the per-line bus time of DDR5-6400.
        let mut slow = Dram::new(berti_types::DDR3_1600);
        let mut fast = dram();
        let mut t_slow = Cycle::ZERO;
        let mut t_fast = Cycle::ZERO;
        for i in 0..64 {
            t_slow = slow.read(i, Cycle::ZERO.max(t_slow));
            t_fast = fast.read(i, Cycle::ZERO.max(t_fast));
        }
        assert!(
            t_slow.raw() > t_fast.raw(),
            "1600 MTPS must stream slower than 6400 MTPS"
        );
    }

    #[test]
    fn write_drain_triggers_at_watermark_and_delays_reads() {
        let mut d = dram();
        let baseline = d.read(0, Cycle::new(0));
        let mut d2 = dram();
        // Fill the write queue to the 7/8 watermark (56 of 64).
        for i in 0..56 {
            d2.write(i * 64, Cycle::new(0));
        }
        assert!(d2.stats().write_drains >= 1);
        let delayed = d2.read(0, Cycle::new(0));
        assert!(
            delayed > baseline,
            "drained writes must steal bus time from reads"
        );
    }

    #[test]
    fn read_queue_backpressure_kicks_in() {
        let mut d = dram();
        // Issue far more reads than RQ entries at the same instant; the
        // completion of read #65 must be pushed past the oldest pending.
        let mut last = Cycle::ZERO;
        for i in 0..(64 + 8) {
            last = d.read(i * 64 * 16, Cycle::new(0)); // all distinct banks/rows
        }
        // 72 transfers of 10 cycles each can't finish before 720.
        assert!(last.raw() >= 720);
    }

    #[test]
    fn avg_latency_reported() {
        let mut d = dram();
        let _ = d.read(0, Cycle::new(0));
        assert!(d.stats().total_read_latency > 0);
    }
}

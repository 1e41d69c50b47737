//! GAP benchmark-suite kernels executed over in-memory CSR graphs.
//!
//! The generators *run the real kernels* (BFS, PageRank, connected
//! components, SSSP, betweenness centrality, triangle counting) over a
//! Kronecker (RMAT) or uniform-random graph — the GAP inputs — and
//! emit each kernel's virtual-address stream: sequential offset-array
//! reads, streaming neighbor-array reads, and data-dependent property
//! lookups (`prop[neighbor]`), which is where the irregular misses the
//! paper measures come from (L1D MPKI of 83.6 on average, Sec. IV-G).

use std::ops::Range;
use std::sync::Mutex;

use berti_types::{Instr, Ip, VAddr};
use rand::rngs::{Jump, SmallRng};
use rand::{RngCore, RngExt, SeedableRng};

use crate::builder::TraceBuilder;
use crate::trace::{Suite, WorkloadDef};

/// Target unique instructions per trace.
const TRACE_INSTRS: usize = 1_200_000;
/// log2 of the vertex count (2^19 vertices: the property arrays are
/// 4 MiB, twice the LLC, so bulk cache-warming cannot fake coverage).
const SCALE: u32 = 19;
/// Average degree (GAP uses 16 for kron/urand).
const DEGREE: usize = 16;

/// Virtual base of the CSR offsets array (4 B/vertex).
const OFF_BASE: u64 = 0x10_0000_0000;
/// Virtual base of the CSR neighbors array (4 B/edge).
const NEI_BASE: u64 = 0x20_0000_0000;
/// Virtual base of the primary property array (8 B/vertex).
const PROP_BASE: u64 = 0x30_0000_0000;
/// Virtual base of the secondary property array (8 B/vertex).
const PROP2_BASE: u64 = 0x40_0000_0000;
/// Virtual base of the frontier/worklist array (4 B/slot).
const FRONTIER_BASE: u64 = 0x50_0000_0000;

/// `⌈p · 2^53⌉` for the cumulative RMAT probabilities p = 0.57, 0.76,
/// 0.95: the integer draw `next_u64() >> 11` lies below one exactly
/// when `random::<f64>()` on the same draw lies below p (the argument
/// is in `Csr::build`'s documentation).
const RMAT_THRESHOLDS: [u64; 3] = [
    ceil_scaled_2_53(0.57),
    ceil_scaled_2_53(0.76),
    ceil_scaled_2_53(0.95),
];

const fn ceil_scaled_2_53(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The GAP-like suite: six kernels × two graphs.
pub fn suite() -> Vec<WorkloadDef> {
    vec![
        WorkloadDef::new("bfs-kron", Suite::Gap, || {
            kernel(Kernel::Bfs, GraphKind::Kron)
        }),
        WorkloadDef::new("bfs-urand", Suite::Gap, || {
            kernel(Kernel::Bfs, GraphKind::Urand)
        }),
        WorkloadDef::new("pr-kron", Suite::Gap, || {
            kernel(Kernel::Pr, GraphKind::Kron)
        }),
        WorkloadDef::new("pr-urand", Suite::Gap, || {
            kernel(Kernel::Pr, GraphKind::Urand)
        }),
        WorkloadDef::new("cc-kron", Suite::Gap, || {
            kernel(Kernel::Cc, GraphKind::Kron)
        }),
        WorkloadDef::new("cc-urand", Suite::Gap, || {
            kernel(Kernel::Cc, GraphKind::Urand)
        }),
        WorkloadDef::new("sssp-kron", Suite::Gap, || {
            kernel(Kernel::Sssp, GraphKind::Kron)
        }),
        WorkloadDef::new("sssp-urand", Suite::Gap, || {
            kernel(Kernel::Sssp, GraphKind::Urand)
        }),
        WorkloadDef::new("bc-kron", Suite::Gap, || {
            kernel(Kernel::Bc, GraphKind::Kron)
        }),
        WorkloadDef::new("bc-urand", Suite::Gap, || {
            kernel(Kernel::Bc, GraphKind::Urand)
        }),
        WorkloadDef::new("tc-kron", Suite::Gap, || {
            kernel(Kernel::Tc, GraphKind::Kron)
        }),
        WorkloadDef::new("tc-urand", Suite::Gap, || {
            kernel(Kernel::Tc, GraphKind::Urand)
        }),
    ]
}

/// Input graph generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Kronecker / RMAT (skewed degrees).
    Kron,
    /// Uniform random (Erdős–Rényi-like).
    Urand,
}

/// GAP kernel selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Breadth-first search.
    Bfs,
    /// PageRank.
    Pr,
    /// Connected components (label propagation).
    Cc,
    /// Single-source shortest paths (Bellman-Ford sweeps).
    Sssp,
    /// Betweenness centrality (BFS + reverse accumulation).
    Bc,
    /// Triangle counting (sorted adjacency intersection).
    Tc,
}

/// A CSR graph.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Per-vertex neighbor-range start; length `n + 1`.
    pub offsets: Vec<u32>,
    /// Concatenated adjacency lists.
    pub neighbors: Vec<u32>,
}

impl Csr {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbor slice of `v`.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Builds a graph of 2^`scale` vertices with `degree` edges per
    /// vertex from the given generator, deterministically, on every
    /// core of the host.
    ///
    /// Edge `i` is made from draws `i·d .. (i+1)·d` of the seed's
    /// stream (`d` = 2 for uniform-random edges, `scale` for Kronecker
    /// ones). The edge list is cut into chunks of `CHUNK_EDGES`; each
    /// chunk starts from the generator of the one before it, jumped
    /// ahead by that chunk's draws (`SmallRng::jump`, exact), and
    /// workers fill the chunks of one shared edge buffer. After one
    /// pass counts the out-degrees, placing each edge's target and
    /// sorting each adjacency list run per range of source vertices, the
    /// ranges cut at equal edge counts. The edge buffer holds the list
    /// that one sequential stream would have drawn, whatever the chunk
    /// size, and every adjacency list ends sorted, so the graph is the
    /// same bytes for any worker count.
    ///
    /// Kronecker edges are RMAT with (a, b, c) = (0.57, 0.19, 0.19):
    /// at each of `scale` levels one uniform draw `r` picks a quadrant
    /// by comparing it with the cumulative probabilities 0.57, 0.76 and
    /// 0.95. The draw is taken as the integer `k = next_u64() >> 11`
    /// and compared with `RMAT_THRESHOLDS` instead of as the `f64`
    /// `r = k · 2^-53` that `random::<f64>()` returns — the same draw,
    /// so the same quadrant and the same graph, without an
    /// unpredictable three-way branch per level. The two compares agree
    /// exactly: `k < 2^53` is exact in an `f64` and scaling by a power
    /// of two is exact, so `r < p` ⇔ `k < p · 2^53` (a real-number
    /// compare) ⇔ `k < ⌈p · 2^53⌉` for an integer `k`.
    pub fn build(kind: GraphKind, scale: u32, degree: usize, seed: u64) -> Csr {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Csr::build_in(kind, scale, degree, seed, CHUNK_EDGES, workers)
    }

    /// [`Csr::build`] with `chunk_edges` edges per chunk on at most
    /// `workers` threads, never more than there are chunks.
    fn build_in(
        kind: GraphKind,
        scale: u32,
        degree: usize,
        seed: u64,
        chunk_edges: usize,
        workers: usize,
    ) -> Csr {
        let n = 1usize << scale;
        let m = n * degree;
        let workers = workers.clamp(1, m.div_ceil(chunk_edges).max(1));
        let draws_per_edge = match kind {
            GraphKind::Urand => 2,
            GraphKind::Kron => u64::from(scale),
        };
        // The one edge buffer, allocated before any worker starts.
        let mut edges = vec![(0u32, 0u32); m];
        let jump = Jump::new(chunk_edges as u64 * draws_per_edge);
        let mut rng = SmallRng::seed_from_u64(seed);
        let chunks = Mutex::new(edges.chunks_mut(chunk_edges).map(|chunk| {
            let start = rng.clone();
            rng.jump(&jump);
            (chunk, start)
        }));
        on_workers(workers, || {
            while let Some((chunk, rng)) = next_job(&chunks) {
                fill_edges(kind, scale, chunk, rng);
            }
        });

        // Counting-sort into CSR by source.
        let mut offsets = vec![0u32; n + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut neighbors = vec![0u32; m];
        let ranges = Mutex::new(vertex_ranges(&offsets, workers, &mut neighbors).into_iter());
        on_workers(workers, || {
            while let Some((vertices, slice)) = next_job(&ranges) {
                fill_range(&edges, &offsets, vertices, slice);
            }
        });
        Csr { offsets, neighbors }
    }
}

/// Edges per chunk of [`Csr::build`]'s edge list: 128 chunks for the
/// 2^19-vertex graphs, so workers stay busy to the end, at one jump
/// each (~0.25 µs, after ~1 ms to build the jump).
const CHUNK_EDGES: usize = 1 << 16;

/// Runs `work` on `workers` threads, the calling one among them.
fn on_workers(workers: usize, work: impl Fn() + Sync) {
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(&work);
        }
        work();
    });
}

/// The next job off a shared queue.
fn next_job<I: Iterator>(queue: &Mutex<I>) -> Option<I::Item> {
    queue
        .lock()
        .expect("no worker panics holding the queue")
        .next()
}

/// Fills one chunk of the edge list from the generator at its first
/// draw.
fn fill_edges(kind: GraphKind, scale: u32, chunk: &mut [(u32, u32)], mut rng: SmallRng) {
    match kind {
        GraphKind::Urand => {
            let n = 1u32 << scale;
            for edge in chunk {
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                *edge = (u, v);
            }
        }
        GraphKind::Kron => {
            let [a, ab, abc] = RMAT_THRESHOLDS;
            for edge in chunk {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..scale {
                    let k = rng.next_u64() >> 11;
                    // Quadrants by k: [0, a) top-left, [a, ab) v = 1,
                    // [ab, abc) u = 1, [abc, 2^53) both.
                    let (past_a, past_ab, past_abc) = (k >= a, k >= ab, k >= abc);
                    u = (u << 1) | u32::from(past_ab);
                    v = (v << 1) | u32::from(past_a ^ past_ab ^ past_abc);
                }
                *edge = (u, v);
            }
        }
    }
}

/// Cuts the vertices into `parts` consecutive ranges of about equal
/// edge counts (RMAT puts most edges on low vertex ids), each with the
/// part of `neighbors` that holds its adjacency lists.
fn vertex_ranges<'a>(
    offsets: &[u32],
    parts: usize,
    neighbors: &'a mut [u32],
) -> Vec<(Range<usize>, &'a mut [u32])> {
    let n = offsets.len() - 1;
    let m = neighbors.len();
    let inner = (1..parts).map(|p| offsets.partition_point(|&o| (o as usize) * parts < p * m));
    let bounds: Vec<usize> = std::iter::once(0).chain(inner).chain([n]).collect();
    let mut rest = neighbors;
    bounds
        .windows(2)
        .map(|w| {
            let len = (offsets[w[1]] - offsets[w[0]]) as usize;
            let (slice, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (w[0]..w[1], slice)
        })
        .collect()
}

/// Scatters the targets of the edges whose source lies in `vertices`
/// into `slice` (their adjacency lists), then sorts each list (GAP sorts
/// them; TC requires it).
fn fill_range(edges: &[(u32, u32)], offsets: &[u32], vertices: Range<usize>, slice: &mut [u32]) {
    let base = offsets[vertices.start];
    let mut cursor: Vec<u32> = offsets[vertices.clone()]
        .iter()
        .map(|&o| o - base)
        .collect();
    for &(u, v) in edges {
        if vertices.contains(&(u as usize)) {
            let next = &mut cursor[u as usize - vertices.start];
            slice[*next as usize] = v;
            *next += 1;
        }
    }
    for v in vertices {
        slice[(offsets[v] - base) as usize..(offsets[v + 1] - base) as usize].sort_unstable();
    }
}

/// IPs of the kernel loop's memory instructions.
mod ips {
    /// offsets[v] load.
    pub const OFF: u64 = 0x420_000;
    /// neighbors[e] load.
    pub const NEI: u64 = 0x420_010;
    /// prop[neighbor] dependent load.
    pub const PROP: u64 = 0x420_020;
    /// prop2 store.
    pub const STORE: u64 = 0x420_030;
    /// frontier/worklist load.
    pub const FRONTIER: u64 = 0x420_040;
    /// branch.
    pub const BR: u64 = 0x420_050;
    /// second adjacency stream (TC intersection).
    pub const NEI2: u64 = 0x420_060;
}

/// Emits the address stream of one kernel over one graph.
fn kernel(k: Kernel, g: GraphKind) -> Vec<u8> {
    let seed = match g {
        GraphKind::Kron => 0x6b72,
        GraphKind::Urand => 0x7572,
    };
    let graph = Csr::build(g, SCALE, DEGREE, seed);
    let mut e = Emitter::new(&graph, seed ^ 0x1111);
    match k {
        Kernel::Bfs => e.bfs(),
        Kernel::Pr => e.sweep(SweepKind::PageRank),
        Kernel::Cc => e.sweep(SweepKind::Components),
        Kernel::Sssp => e.sweep(SweepKind::ShortestPaths),
        Kernel::Bc => e.bc(),
        Kernel::Tc => e.tc(),
    }
    e.b.into_body()
}

/// Vertex-sweep flavours sharing one emission loop.
enum SweepKind {
    PageRank,
    Components,
    ShortestPaths,
}

struct Emitter<'g> {
    g: &'g Csr,
    b: TraceBuilder,
}

impl<'g> Emitter<'g> {
    fn new(g: &'g Csr, seed: u64) -> Self {
        Self {
            g,
            b: TraceBuilder::new(seed),
        }
    }

    fn full(&self) -> bool {
        self.b.len() >= TRACE_INSTRS
    }

    fn load_offsets(&mut self, v: u32) {
        self.b.push(Instr::load(
            Ip::new(ips::OFF),
            VAddr::new(OFF_BASE + u64::from(v) * 4),
        ));
    }

    fn load_neighbor(&mut self, e: usize) {
        self.b.push(Instr::load(
            Ip::new(ips::NEI),
            VAddr::new(NEI_BASE + e as u64 * 4),
        ));
    }

    fn load_prop(&mut self, v: u32, chain: u8) {
        self.b.push(Instr::dependent_load(
            Ip::new(ips::PROP),
            VAddr::new(PROP_BASE + u64::from(v) * 8),
            chain,
        ));
    }

    fn store_prop2(&mut self, v: u32) {
        self.b.push(Instr::store(
            Ip::new(ips::STORE),
            VAddr::new(PROP2_BASE + u64::from(v) * 8),
        ));
    }

    fn load_frontier(&mut self, slot: usize) {
        self.b.push(Instr::load(
            Ip::new(ips::FRONTIER),
            VAddr::new(FRONTIER_BASE + slot as u64 * 4),
        ));
    }

    /// PageRank / CC / SSSP share the edge-centric sweep shape:
    /// stream offsets and neighbors, gather a property per neighbor,
    /// write the vertex's result.
    fn sweep(&mut self, kind: SweepKind) {
        let n = self.g.num_vertices() as u32;
        let (mispredict, pad) = match kind {
            SweepKind::PageRank => (0.001, 6),
            SweepKind::Components => (0.004, 4),
            SweepKind::ShortestPaths => (0.01, 5),
        };
        'outer: loop {
            for v in 0..n {
                if self.full() {
                    break 'outer;
                }
                self.load_offsets(v);
                let (s, e) = (
                    self.g.offsets[v as usize] as usize,
                    self.g.offsets[v as usize + 1] as usize,
                );
                for idx in s..e {
                    let u = self.g.neighbors[idx];
                    self.load_neighbor(idx);
                    self.load_prop(u, (idx % 6) as u8);
                    self.b.alu(pad);
                    if matches!(kind, SweepKind::ShortestPaths) {
                        self.b.branch(ips::BR, mispredict);
                    }
                }
                self.store_prop2(v);
                self.b.alu(2);
                if !matches!(kind, SweepKind::ShortestPaths) {
                    self.b.branch(ips::BR, mispredict);
                }
            }
        }
    }

    /// Top-down BFS from pseudo-random sources until the budget fills.
    fn bfs(&mut self) {
        let n = self.g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(0xbf5);
        'outer: loop {
            let mut visited = vec![false; n];
            let mut frontier: Vec<u32> = vec![rng.random_range(0..n as u32)];
            visited[frontier[0] as usize] = true;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for (slot, &v) in frontier.iter().enumerate() {
                    if self.full() {
                        break 'outer;
                    }
                    self.load_frontier(slot);
                    self.load_offsets(v);
                    let (s, e) = (
                        self.g.offsets[v as usize] as usize,
                        self.g.offsets[v as usize + 1] as usize,
                    );
                    for idx in s..e {
                        let u = self.g.neighbors[idx];
                        self.load_neighbor(idx);
                        // visited[u]: data-dependent.
                        self.load_prop(u, (idx % 6) as u8);
                        self.b.alu(4);
                        self.b.branch(ips::BR, 0.02);
                        if !visited[u as usize] {
                            visited[u as usize] = true;
                            self.store_prop2(u); // parent[u] = v
                            next.push(u);
                        }
                    }
                }
                frontier = next;
            }
        }
    }

    /// Betweenness centrality: a BFS pass plus a reverse accumulation
    /// sweep over the visited order.
    fn bc(&mut self) {
        let n = self.g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(0xbc);
        'outer: loop {
            // Forward BFS recording the visit order.
            let mut visited = vec![false; n];
            let root = rng.random_range(0..n as u32);
            let mut order: Vec<u32> = vec![root];
            visited[root as usize] = true;
            let mut head = 0usize;
            while head < order.len() {
                if self.full() {
                    break 'outer;
                }
                let v = order[head];
                head += 1;
                self.load_frontier(head);
                self.load_offsets(v);
                let (s, e) = (
                    self.g.offsets[v as usize] as usize,
                    self.g.offsets[v as usize + 1] as usize,
                );
                for idx in s..e {
                    let u = self.g.neighbors[idx];
                    self.load_neighbor(idx);
                    self.load_prop(u, (idx % 6) as u8);
                    self.b.alu(4);
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        self.store_prop2(u); // sigma
                        order.push(u);
                    }
                }
                self.b.branch(ips::BR, 0.015);
            }
            // Reverse accumulation.
            for &v in order.iter().rev() {
                if self.full() {
                    break 'outer;
                }
                self.load_offsets(v);
                let (s, e) = (
                    self.g.offsets[v as usize] as usize,
                    self.g.offsets[v as usize + 1] as usize,
                );
                for idx in s..e {
                    self.load_neighbor(idx);
                    self.load_prop(self.g.neighbors[idx], (idx % 6) as u8);
                    self.b.alu(5);
                }
                self.store_prop2(v);
            }
        }
    }

    /// Triangle counting: merge-intersect sorted adjacency lists —
    /// two parallel neighbor streams, very little irregularity.
    fn tc(&mut self) {
        let n = self.g.num_vertices() as u32;
        'outer: loop {
            for v in 0..n {
                if self.full() {
                    break 'outer;
                }
                self.load_offsets(v);
                let (vs, ve) = (
                    self.g.offsets[v as usize] as usize,
                    self.g.offsets[v as usize + 1] as usize,
                );
                for idx in vs..ve {
                    let u = self.g.neighbors[idx];
                    self.load_neighbor(idx);
                    if u >= v {
                        break;
                    }
                    // Merge-intersect N(v) and N(u).
                    let (us, ue) = (
                        self.g.offsets[u as usize] as usize,
                        self.g.offsets[u as usize + 1] as usize,
                    );
                    let (mut i, mut j) = (vs, us);
                    while i < ve && j < ue {
                        if self.full() {
                            break 'outer;
                        }
                        self.load_neighbor(i);
                        self.b.push(Instr::load(
                            Ip::new(ips::NEI2),
                            VAddr::new(NEI_BASE + j as u64 * 4),
                        ));
                        self.b.alu(3);
                        match self.g.neighbors[i].cmp(&self.g.neighbors[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                }
                self.b.branch(ips::BR, 0.002);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::decode_records;
    use std::collections::HashSet;

    #[test]
    fn csr_is_well_formed() {
        let g = Csr::build(GraphKind::Urand, 10, 8, 42);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 1024 * 8);
        assert_eq!(*g.offsets.last().expect("nonempty") as usize, g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            let ns = g.neighbors_of(v);
            assert!(ns.windows(2).all(|w| w[0] <= w[1]), "sorted adjacency");
            assert!(ns.iter().all(|&u| (u as usize) < g.num_vertices()));
        }
    }

    #[test]
    fn kron_is_skewed_urand_is_not() {
        let kron = Csr::build(GraphKind::Kron, 12, 8, 1);
        let urand = Csr::build(GraphKind::Urand, 12, 8, 1);
        let max_deg = |g: &Csr| {
            (0..g.num_vertices() as u32)
                .map(|v| g.neighbors_of(v).len())
                .max()
                .expect("nonempty")
        };
        assert!(
            max_deg(&kron) > 4 * max_deg(&urand),
            "RMAT must produce heavy-tailed degrees: {} vs {}",
            max_deg(&kron),
            max_deg(&urand)
        );
    }

    #[test]
    fn integer_rmat_thresholds_agree_with_f64_draws() {
        use rand::StandardSample;
        let probabilities = [0.57, 0.76, 0.95];
        let f64_below = |draw: u64, p: f64| f64::standard_sample(draw) < p;
        for (t, p) in RMAT_THRESHOLDS.into_iter().zip(probabilities) {
            // The last draw below the threshold and the first at it: the
            // integer compare says yes, then no, and so must the f64 one.
            let (below, at) = ((t - 1) << 11, t << 11);
            assert!(f64_below(below, p), "p = {p}: {below:#x} must fall below");
            assert!(!f64_below(at, p), "p = {p}: {at:#x} must not");
        }
        let mut rng = SmallRng::seed_from_u64(0x7e57);
        for _ in 0..1_000_000 {
            let draw = rng.next_u64();
            for (t, p) in RMAT_THRESHOLDS.into_iter().zip(probabilities) {
                assert_eq!((draw >> 11) < t, f64_below(draw, p), "p = {p}, {draw:#x}");
            }
        }
    }

    #[test]
    fn graph_build_is_deterministic() {
        // Every chunk size and worker count builds the graph of one
        // chunk on one worker. The graphs are the two that
        // `generator_pins.rs` pins, where scale 12 is a single chunk of
        // `CHUNK_EDGES` and so never splits.
        for (kind, seed) in [(GraphKind::Kron, 0x6b72), (GraphKind::Urand, 0x7572)] {
            let reference = Csr::build_in(kind, 12, 16, seed, 16 << 12, 1);
            for chunk_edges in [7, 1000, 65_536] {
                for workers in [1, 2, 3] {
                    let g = Csr::build_in(kind, 12, 16, seed, chunk_edges, workers);
                    let case = format!("{kind:?}, {chunk_edges} edges a chunk, {workers} workers");
                    assert_eq!(g.offsets, reference.offsets, "{case}");
                    assert_eq!(g.neighbors, reference.neighbors, "{case}");
                }
            }
        }
    }

    #[test]
    fn suite_covers_six_kernels_times_two_graphs() {
        let s = suite();
        assert_eq!(s.len(), 12);
        let names: HashSet<_> = s.iter().map(|w| w.name.clone()).collect();
        assert_eq!(names.len(), 12);
        assert!(s.iter().all(|w| w.suite == Suite::Gap));
    }

    #[test]
    fn kernels_emit_dependent_property_loads() {
        // Use a tiny generation to keep the test fast: the pr kernel on
        // the real graph but truncated via the shared budget.
        let t = decode_records(&kernel(Kernel::Pr, GraphKind::Urand)).expect("decodes");
        assert!(t.len() >= TRACE_INSTRS);
        let dep_loads = t.iter().filter(|i| i.dep_chain.is_some()).count();
        assert!(
            dep_loads * 10 > t.len(),
            "property gathers must dominate: {dep_loads} of {}",
            t.len()
        );
        // Property addresses span the whole property array (irregular).
        let props: HashSet<u64> = t
            .iter()
            .filter(|i| i.ip == Ip::new(ips::PROP))
            .filter_map(|i| i.loads[0])
            .map(|a| a.raw() / 64)
            .collect();
        assert!(props.len() > 10_000, "only {} distinct lines", props.len());
    }

    #[test]
    fn bfs_trace_reaches_budget_even_on_disconnected_graphs() {
        let t = decode_records(&kernel(Kernel::Bfs, GraphKind::Kron)).expect("decodes");
        assert!(t.len() >= TRACE_INSTRS);
    }

    #[test]
    fn tc_streams_two_adjacency_cursors() {
        let t = decode_records(&kernel(Kernel::Tc, GraphKind::Urand)).expect("decodes");
        assert!(t.iter().any(|i| i.ip == Ip::new(ips::NEI2)));
    }
}

//! In-memory spans for the traced pass.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer (spans inside the program are a later issue), kept in
//! memory, and written to `benchmark/out/trace-<workload>.json` when
//! the pass ends. End-to-end metrics always come from the untraced
//! pass; the difference between the two is `bench.trace_overhead_pct`.

use std::time::Instant;

use serde::Value;

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one round share this identifier.
    pub round: u64,
}

/// Handle returned by [`Tracer::enter`]; inert when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

const OFF: usize = usize::MAX;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(OFF);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == OFF {
            return;
        }
        let now = self.ns(Instant::now());
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = now;
    }

    /// Records a span observed from outside (a daemon cell rebuilt from
    /// `job_started` / `job_finished` arrival times) under `parent`.
    pub fn add(&mut self, name: &str, start: Instant, end: Instant, parent: SpanId) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: (parent.0 != OFF).then_some(parent.0),
            round: self.round,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span, then per-name totals with self time.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Object(vec![
                    ("id".to_string(), Value::U64(i as u64)),
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("round".to_string(), Value::U64(s.round)),
                    ("self_ns".to_string(), Value::U64(selfs[i])),
                ])
            })
            .collect();
        let by_name: Vec<Value> = totals_by_name(&self.spans)
            .into_iter()
            .map(|t| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(t.name)),
                    ("count".to_string(), Value::U64(t.count)),
                    ("total_ns".to_string(), Value::U64(t.total_ns)),
                    ("self_ns".to_string(), Value::U64(t.self_ns)),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            (
                "root_coverage".to_string(),
                Value::F64(root_coverage(&self.spans)),
            ),
            ("by_name".to_string(), Value::Array(by_name)),
            ("spans".to_string(), Value::Array(spans)),
        ]);
        let mut s = serde::json::to_string_pretty(&root);
        s.push('\n');
        s
    }
}

/// Self time per span: its duration minus the part of its interval its
/// child spans cover. Children may overlap each other (two workers'
/// cells run side by side) and may stick out of the parent (a cell
/// rebuilt from event arrival times); the covered part is the union of
/// the children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub struct NameTotal {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotal> {
    let selfs = self_times(spans);
    let mut out: Vec<NameTotal> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let i = match out.iter().position(|t| t.name == s.name) {
            Some(i) => i,
            None => {
                out.push(NameTotal {
                    name: s.name.clone(),
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.len() - 1
            }
        };
        out[i].count += 1;
        out[i].total_ns += s.end_ns - s.start_ns;
        out[i].self_ns += self_ns;
    }
    out
}

/// Share of the root spans' time that their children account for: the
/// layer spans must explain the rounds (acceptance: at least 0.95).
pub fn root_coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            total += s.end_ns - s.start_ns;
            own += self_ns;
        }
    }
    if total == 0 {
        1.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("round", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("sim", 20, 50, Some(1)),
            span("store", 70, 90, Some(0)),
        ];
        // round: 100 - (50 + 20); cell: 50 - 30; leaves keep everything.
        assert_eq!(self_times(&spans), [30, 20, 30, 20]);
        assert!((root_coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        let spans = [
            span("round", 100, 200, None),
            span("cell", 110, 150, Some(0)),
            span("cell", 130, 170, Some(0)), // overlaps the first
            span("cell", 190, 260, Some(0)), // sticks out of the parent
            span("cell", 20, 90, Some(0)),   // wholly outside
        ];
        // union inside the parent: [110,170) + [190,200) = 70
        assert_eq!(self_times(&spans)[0], 30);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[1].name, "cell");
        assert_eq!(totals[1].count, 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x");
        t.exit(id);
        t.add("y", Instant::now(), Instant::now(), id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enter_exit_nests_by_stack() {
        let mut t = Tracer::new(true);
        t.set_round(7);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].round, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(serde::json::parse(&t.to_json("w")).is_ok());
    }
}

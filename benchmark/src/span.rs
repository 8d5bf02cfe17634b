//! Harness spans: one span around each call the benchmark makes into a
//! layer, kept in memory and written to `out/trace.json` at exit.
//!
//! A span's name is `layer.what`; its self time is its duration minus the
//! part of it its children cover.  Spans inside the program are a later
//! change: today everything below a `core.session_run` span is one box,
//! except where a report lets the harness derive children.

use orwl_obs::json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The traced repeat the span belongs to.
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The crate the span's time is charged to: the name up to the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count recorded at a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub round: u32,
    pub name: &'static str,
    pub value: f64,
}

/// Records spans when enabled; a disabled tracer runs the closures and
/// records nothing, so untraced repeats pay two branches per span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Starts recording; every span until the next call belongs to `round`.
    pub fn start_round(&mut self, round: u32) {
        self.enabled = true;
        self.round = round;
    }

    pub fn stop(&mut self) {
        self.enabled = false;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.  The tracer is handed on so `f` can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            round: self.round,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    /// Splits the innermost open span, which must have no children yet,
    /// into two derived children: `tail_name` covering its last `tail_ns`
    /// and `head_name` covering the rest.  For a duration a report states
    /// without saying when it began: the children's lengths are measured,
    /// their position inside the parent is nominal.
    pub fn split_open(&mut self, head_name: &'static str, tail_name: &'static str, tail_ns: u64) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.open.last() else { return };
        let (start, now) = (self.spans[parent as usize].start_ns, self.now_ns());
        let cut = now.saturating_sub(tail_ns).max(start);
        for (name, start_ns, end_ns) in [(head_name, start, cut), (tail_name, cut, now)] {
            let id = self.spans.len() as u32;
            self.spans.push(Span { id, parent: Some(parent), name, round: self.round, start_ns, end_ns });
        }
    }

    /// Records a count at the current boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push(Count { round: self.round, name, value });
        }
    }
}

/// Self time of every span, by index: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The trace document: every span and count of the run.
pub fn trace_json(workload: &str, seed: u64, tracer: &Tracer) -> Json {
    let spans = tracer
        .spans
        .iter()
        .map(|s| {
            let mut o = Json::obj();
            o.push("id", s.id as usize)
                .push("parent", s.parent.map_or(Json::Null, |p| Json::from(p as usize)))
                .push("name", s.name)
                .push("layer", s.layer())
                .push("workload", workload)
                .push("round", s.round as usize)
                .push("start_ns", s.start_ns as f64)
                .push("end_ns", s.end_ns as f64);
            o
        })
        .collect();
    let counts = tracer
        .counts
        .iter()
        .map(|c| {
            let mut o = Json::obj();
            o.push("round", c.round as usize).push("name", c.name).push("value", c.value);
            o
        })
        .collect();
    let mut doc = Json::obj();
    doc.push("schema", "orwl-benchmark-trace/v1")
        .push("workload", workload)
        .push("seed", seed as f64)
        .push("spans", Json::Arr(spans))
        .push("counts", Json::Arr(counts));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "core.x", round: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, 0, 100),    // root: children cover 10..40 and 50..70
            span(1, Some(0), 10, 40), // first child, itself a parent
            span(2, Some(1), 15, 25), // grandchild: charged to 1, not to 0
            span(3, Some(0), 50, 70), // sibling
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        // Every nanosecond of the root is charged exactly once.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps 1 by 10
            span(3, Some(0), 190, 230), // hangs over the end by 30
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - (50 + 10));
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let mut t = Tracer::new();
        assert_eq!(t.span("core.a", |_| 7), 7);
        assert!(t.spans.is_empty());
        t.start_round(3);
        t.span("core.a", |t| {
            t.span("proc.b", |t| t.count("proc.reads", 2.0));
            t.span("lk23.c", |_| ());
        });
        t.stop();
        t.span("core.d", |_| ());
        let shape: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.round, s.layer())).collect();
        assert_eq!(
            shape,
            vec![("core.a", None, 3, "core"), ("proc.b", Some(0), 3, "proc"), ("lk23.c", Some(0), 3, "lk23")]
        );
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns && t.spans[2].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.counts, vec![Count { round: 3, name: "proc.reads", value: 2.0 }]);
    }

    #[test]
    fn split_open_tiles_the_parent_with_two_derived_children() {
        let mut t = Tracer::new();
        t.start_round(0);
        t.span("core.session_run", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.split_open("proc.control_plane", "proc.run_phase", 500_000);
        });
        let (parent, head, tail) = (&t.spans[0], &t.spans[1], &t.spans[2]);
        assert_eq!((head.name, tail.name), ("proc.control_plane", "proc.run_phase"));
        assert_eq!((head.start_ns, head.end_ns), (parent.start_ns, tail.start_ns));
        assert_eq!(tail.duration_ns(), 500_000);
        assert!(tail.end_ns <= parent.end_ns);
        assert!(self_times_ns(&t.spans)[0] < 1_000_000, "only the close of the span is left");
    }
}

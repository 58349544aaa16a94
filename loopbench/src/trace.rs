//! Spans recorded around the benchmark's own calls into each workspace module.
//!
//! The program is not instrumented: every span wraps one public call the
//! benchmark makes (`PartialCompiler::plan`, `CompilationRuntime::submit`, a
//! wire round trip, …). A span may also be *derived*: the compile profile a
//! block report carries splits that block's span into per-phase children, so
//! the pulse and linear-algebra layers show up without timing inside them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Workspace module the call belongs to (`circuit`, `core`, …).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End, microseconds since the tracer's epoch.
    pub end_us: f64,
    /// Index of the enclosing span within the same iteration.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (0 is the set-up).
    pub iteration: u64,
    /// Whether the interval was derived from a report rather than timed.
    pub derived: bool,
}

impl Span {
    /// Duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Records the spans of one iteration at a time.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    iteration: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a new iteration; spans recorded so far are handed back.
    pub fn next_iteration(&mut self, iteration: u64) -> Vec<Span> {
        assert!(self.open.is_empty(), "an iteration ended with open spans");
        self.iteration = iteration;
        std::mem::take(&mut self.spans)
    }

    /// Opens a span nested in the innermost open one and returns its index.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            layer,
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            derived: false,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`; returns its
    /// duration in microseconds.
    pub fn end(&mut self, index: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_us = self.now_us();
        self.spans[index].duration_us()
    }

    /// Renames a span once its outcome (say, hit or miss) is known.
    pub fn rename(&mut self, index: usize, name: &'static str) {
        self.spans[index].name = name;
    }

    /// Times `call` as a span; the closure may open nested spans.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let index = self.begin(layer, name);
        let value = call(self);
        let micros = self.end(index);
        (value, micros)
    }

    /// Adds derived children to the closed span `parent`, laid end to end from
    /// its start; each child is clipped to the parent's end.
    pub fn derive(&mut self, parent: usize, children: &[(&'static str, &'static str, f64)]) {
        let (mut cursor, limit) = (self.spans[parent].start_us, self.spans[parent].end_us);
        for &(layer, name, micros) in children {
            if micros <= 0.0 || cursor >= limit {
                continue;
            }
            let end = (cursor + micros).min(limit);
            self.spans.push(Span {
                layer,
                name,
                start_us: cursor,
                end_us: end,
                parent: Some(parent),
                iteration: self.iteration,
                derived: true,
            });
            cursor = end;
        }
    }
}

/// Self time of every span: its duration minus the part of it its children
/// cover. Children are clipped to their parent and overlapping children are
/// merged, so a parent is never charged less than zero.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let bounds = &spans[parent];
            let start = span.start_us.max(bounds.start_us);
            let end = span.end_us.min(bounds.end_us);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                }
                reach = reach.max(end);
            }
            (span.duration_us() - covered).max(0.0)
        })
        .collect()
}

/// Self time per layer, summed over the given spans.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *layers.entry(span.layer).or_insert(0.0) += own;
    }
    layers
}

/// Renders spans as Chrome `trace_event` JSON (complete `X` events; one
/// thread row per iteration), loadable in `chrome://tracing` or Perfetto.
/// `args.span` numbers a span within its iteration and `args.parent` names
/// its enclosing span's number (`-1` for a root).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first_of_iteration = 0;
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
            if span.iteration != spans[index - 1].iteration {
                first_of_iteration = index;
            }
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"iteration\":{},\"span\":{},\"parent\":{},\"derived\":{}}}}}",
            span.layer,
            span.name,
            span.layer,
            span.iteration,
            span.start_us,
            span.duration_us(),
            span.iteration,
            index - first_of_iteration,
            span.parent.map_or(-1, |p| p as i64),
            span.derived
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "call",
            start_us: start,
            end_us: end,
            parent,
            iteration: 1,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench", 0.0, 100.0, None),
            span("core", 10.0, 40.0, Some(0)),
            span("pulse", 15.0, 35.0, Some(1)),
            span("runtime", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 10.0, 20.0, 40.0]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], 30.0);
        assert_eq!(layers["core"], 10.0);
        let total: f64 = layers.values().sum();
        assert_eq!(total, 100.0, "self times partition the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_charged() {
        let spans = vec![
            span("bench", 0.0, 10.0, None),
            span("core", 2.0, 6.0, Some(0)),
            span("core", 4.0, 8.0, Some(0)),
            span("core", 9.0, 15.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 3.0);
        assert!(own.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn derived_children_fill_the_parent_from_its_start() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("core", "block");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let micros = tracer.end(root);
        tracer.derive(
            root,
            &[
                ("pulse", "duration_probe", micros / 4.0),
                ("linalg", "eigendecomposition", micros),
            ],
        );
        let spans = tracer.next_iteration(2);
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.derived && s.parent == Some(0)));
        assert_eq!(spans[2].end_us, spans[0].end_us, "clipped to the parent");
        let own = self_times(&spans);
        assert!(own[0].abs() < 1e-6, "fully covered parent has no self time");
    }

    #[test]
    fn nested_spans_record_parents_and_iterations() {
        let mut tracer = Tracer::new();
        tracer.next_iteration(7);
        let ((), _) = tracer.span("bench", "iteration", |t| {
            t.span("circuit", "prepare", |_| ());
        });
        let spans = tracer.next_iteration(8);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.iteration == 7));
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"bench.iteration\""));
    }
}

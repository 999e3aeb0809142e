//! In-memory spans for the layer walk: name, start, end and parent, kept
//! in a vector and written out once the walk ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`converge`, `oracles.check`, ...).
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Seconds since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations of the spans named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_s() * 1e6)
            .collect()
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// durations of its direct children. Children run inside their parent
    /// on the same thread, so they never overlap one another.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.duration_s();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_s) {
            *out.entry(span.name).or_insert(0.0) += span.duration_s() - children;
        }
        out
    }

    /// Seconds covered by top-level spans. Wall time minus this is the
    /// part of the walk no span covers.
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_s)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, wall_s: f64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"wall_s\": {wall_s}, \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_uncovered_sum_to_wall() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        let wall = t.elapsed_s();
        let self_sum: f64 = t.self_times().values().sum();
        let uncovered = wall - t.covered_s();
        assert!((self_sum + uncovered - wall).abs() < 1e-9);
        assert!(t.self_times()["inner"] >= 0.002);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions (spans inside the engine are ROADMAP
//! 1(b), a later change). [`Tracer::begin`]/[`Tracer::end`] read the clock
//! whether or not recording is on — the same two readings time the slice
//! for the end-to-end rate — so switching the recorder on adds one `Vec`
//! push per span and nothing else; `trace.overhead_frac` measures that.

use flexvc::serde::{Map, Serialize, Value};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.engine.slice`.
    pub name: &'static str,
    /// Kernel (request) the span belongs to, if any.
    pub kernel: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    id: Option<usize>,
    t0: Instant,
}

/// The recorder. Spans stay in memory until [`Tracer::to_value`] is
/// written out at exit.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled: false,
        }
    }

    /// Switch recording on or off (between spans, not inside one).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a span (and the clock).
    pub fn begin(&mut self, name: &'static str, kernel: Option<usize>) -> Open {
        let t0 = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                kernel,
                parent: self.stack.last().copied(),
                start_ns: (t0 - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        Open { id, t0 }
    }

    /// End a span; returns its duration in seconds (measured either way).
    pub fn end(&mut self, open: Open) -> f64 {
        let t1 = Instant::now();
        if let Some(id) = open.id {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
            self.spans[id].end_ns = (t1 - self.origin).as_nanos() as u64;
        }
        (t1 - open.t0).as_secs_f64()
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// The span file: one object per span.
    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Map(
                        Map::new()
                            .with("id", (id as u64).to_value())
                            .with("name", Value::from(s.name))
                            .with("kernel", s.kernel.map(|k| k as u64).to_value())
                            .with("parent", s.parent.map(|p| p as u64).to_value())
                            .with("start_ns", s.start_ns.to_value())
                            .with("end_ns", s.end_ns.to_value()),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("root", None);
        let child = t.begin("child", Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].kernel, Some(3));
        let own = t.self_seconds();
        assert!(own[1] >= 0.002);
        assert!(own[0] < t.spans()[0].seconds() - 0.0019);
        assert!((own.iter().sum::<f64>() - t.spans()[0].seconds()).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new();
        let s = t.begin("x", None);
        assert!(t.end(s) >= 0.0);
        assert!(t.spans().is_empty());
    }
}

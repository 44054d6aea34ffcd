//! In-memory span tracer for the benchmark's own layer boundaries.
//!
//! A span is opened around each call the benchmark makes into a layer of
//! the system (ELF read, training, the block pipeline, the simulator, a
//! served request, ...).  Spans nest: each records the span that caused
//! it and the operation it belongs to, so one operation's spans share an
//! identifier.  Per name the tracer keeps a count, a total and a *self*
//! time (the total minus the part covered by child spans), which is what
//! the per-layer metrics are computed from.  The first [`SPAN_CAP`] spans
//! are also kept individually and written out when the run ends.
//!
//! A disabled tracer (the end-to-end run) records nothing: `span` returns
//! an inert guard, so the measured code pays one branch per boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Individual spans kept for the trace file; totals cover every span.
const SPAN_CAP: usize = 50_000;

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Summed duration not covered by child spans, in nanoseconds.
    pub self_ns: u64,
}

#[derive(Debug, Clone)]
struct Record {
    id: usize,
    parent: Option<usize>,
    op: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Frame {
    id: usize,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    next_id: usize,
    op: Option<u64>,
    stack: Vec<Frame>,
    records: Vec<Record>,
    totals: BTreeMap<&'static str, Total>,
}

/// Single-threaded span recorder; every span is opened on the thread
/// that drives the workload.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), state: RefCell::new(State::default()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with operation `op` (`None`
    /// for set-up work).
    pub fn set_op(&self, op: Option<u64>) {
        if self.enabled {
            self.state.borrow_mut().op = op;
        }
    }

    /// Opens a span named `name`, closed when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: None };
        }
        let mut state = self.state.borrow_mut();
        let id = state.next_id;
        state.next_id += 1;
        state.stack.push(Frame { id, name, start: Instant::now(), child_ns: 0 });
        SpanGuard { tracer: Some(self) }
    }

    fn close(&self) {
        let end = Instant::now();
        let mut state = self.state.borrow_mut();
        // Guards close in scope order; runs from `Drop`, so never panic.
        let Some(frame) = state.stack.pop() else { return };
        let duration = nanos(end - frame.start);
        let total = state.totals.entry(frame.name).or_default();
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(frame.child_ns);
        let parent = state.stack.last_mut().map(|p| {
            p.child_ns += duration;
            p.id
        });
        if state.records.len() < SPAN_CAP {
            let record = Record {
                id: frame.id,
                parent,
                op: state.op,
                name: frame.name,
                start_ns: nanos(frame.start - self.epoch),
                end_ns: nanos(end - self.epoch),
            };
            state.records.push(record);
        }
    }

    /// The aggregate for `name` (zero if no such span closed).
    pub fn total(&self, name: &str) -> Total {
        self.state.borrow().totals.get(name).copied().unwrap_or_default()
    }

    /// Every aggregate plus the kept individual spans, as JSON.
    pub fn to_json(&self) -> String {
        let state = self.state.borrow();
        let mut out = String::from("{\"totals\":{");
        for (i, (name, t)) in state.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, r) in state.records.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let op = r.op.map_or("null".to_string(), |o| o.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{parent},\"op\":{op},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.name, r.start_ns, r.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.close();
        }
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let outer = tracer.total("outer");
        let inner = tracer.total("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(tracer.to_json().contains("\"parent\":"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        drop(tracer.span("x"));
        assert_eq!(tracer.total("x"), Total::default());
    }
}

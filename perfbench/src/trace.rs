//! An in-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer in [`span`]. While
//! recording is on, every call leaves one [`Span`]: its layer name, the
//! id of the operation it serves, start and end on a monotonic clock,
//! and the span that was open around it. Spans stay in memory until the
//! run ends. While recording is off, [`span`] only calls its closure, so
//! the same replay code times the untraced baseline the tracing
//! overhead is measured against.
//!
//! The recorder is thread-local: the benchmark drives every workload
//! from one thread, and the runtime's own worker threads are never
//! traced.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Layer call name, e.g. `sim.run`.
    pub name: &'static str,
    /// Id of the operation the call served (request id, point or op
    /// index); every span of one operation shares it.
    pub id: u64,
    /// Start, in nanoseconds since recording began.
    pub start_ns: u64,
    /// End, in nanoseconds since recording began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off; spans already recorded stay.
pub(crate) fn record(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Removes and returns every span recorded so far.
pub(crate) fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Runs `f` as the layer call `name` of operation `id`.
pub(crate) fn span<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let index = r.spans.len();
        r.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[index].end_ns = r.epoch.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the part covered by child
    /// spans), in seconds.
    pub self_s: f64,
}

/// Sums calls, durations and self times by span name.
pub(crate) fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(children_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += s.duration_ns().saturating_sub(child) as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines: one object per span, in start order.
pub(crate) fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
            s.name, s.id, s.start_ns, s.end_ns, parent
        );
    }
    out
}

//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! workspace's public functions. Each span has a name, a start and an
//! end (nanoseconds since the tracer's epoch), a parent, and the id of
//! the action it served. Self time — a span's duration minus the part
//! its child spans cover — is accumulated per span name as spans close,
//! so per-layer totals never need the raw spans. The raw spans are kept
//! up to a cap and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept per tracer; later spans still count in the totals.
const SPAN_CAP: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Sequence number of the enclosing span (0 for a root).
    pub parent: u64,
    /// Sequence number of this span (1-based, in open order).
    pub id: u64,
    /// Action (instance, run or sample) the span served.
    pub action: u64,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Direct child spans, summed.
    pub children: u64,
}

/// What recording one span costs, measured on this host: the time a
/// span adds to its own duration, and the time it adds to its parent's
/// self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calibration {
    /// ns added to a span's own measured duration.
    pub own_ns: f64,
    /// ns added to the parent's self time per child span.
    pub parent_ns: f64,
}

impl Calibration {
    /// Measures the recording cost of empty spans (median of rounds).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn measure() -> Calibration {
        const ROUNDS: usize = 7;
        const SPANS: u64 = 20_000;
        let mut own = Vec::with_capacity(ROUNDS);
        let mut parent = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Tracer::new(Instant::now());
            t.enter("calibration.parent");
            for _ in 0..SPANS {
                t.enter("calibration.child");
                t.exit();
            }
            t.exit();
            let totals = t.totals();
            let child = totals["calibration.child"];
            own.push(child.total_ns as f64 / SPANS as f64);
            parent.push(totals["calibration.parent"].self_ns as f64 / SPANS as f64);
        }
        Calibration {
            own_ns: crate::median(&mut own),
            parent_ns: crate::median(&mut parent),
        }
    }

    /// `t`'s self time with the recording cost of its own spans and of
    /// their direct children taken out (floored at zero), ns.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn self_ns(&self, t: Totals) -> f64 {
        (t.self_ns as f64 - t.count as f64 * self.own_ns - t.children as f64 * self.parent_ns)
            .max(0.0)
    }

    /// `t`'s total duration with the recording cost of its own spans and
    /// of their direct children taken out (floored at zero), ns.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn total_ns(&self, t: Totals) -> f64 {
        let children = t.children as f64 * (self.own_ns + self.parent_ns);
        (t.total_ns as f64 - t.count as f64 * self.own_ns - children).max(0.0)
    }
}

struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    child_ns: u64,
    children: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Open>,
    next_id: u64,
    action: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

/// A single-threaded span recorder. Methods take `&self` so observer
/// wrappers and the replay loop can share one tracer.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            state: RefCell::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the action id stamped on spans opened from now on.
    pub fn set_action(&self, action: u64) {
        self.state.borrow_mut().action = action;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&self, name: &'static str) {
        let start_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.next_id += 1;
        let id = st.next_id;
        let parent = st.stack.last().map_or(0, |o| o.id);
        st.stack.push(Open {
            name,
            id,
            parent,
            start_ns,
            child_ns: 0,
            children: 0,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&self) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let open = st.stack.pop().expect("exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
            parent.children += 1;
        }
        let t = st.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.children += open.children;
        if st.spans.len() < SPAN_CAP {
            let action = st.action;
            st.spans.push(Span {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                id: open.id,
                action,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals so far.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.state.borrow().totals.clone()
    }

    /// Consumes the tracer, returning its kept spans and its totals.
    #[must_use]
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, Totals>) {
        let st = self.state.into_inner();
        (st.spans, st.totals)
    }
}

/// Adds `other`'s totals into `into`.
pub fn merge_totals(
    into: &mut BTreeMap<&'static str, Totals>,
    other: &BTreeMap<&'static str, Totals>,
) {
    for (name, t) in other {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
        e.children += t.children;
    }
}

/// Writes spans as tab-separated lines
/// `id parent action name start_ns end_ns` under a one-line header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\taction\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.action, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(Instant::now());
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        let (spans, _) = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].parent, spans[1].id,
            "inner closes first, under outer"
        );
        assert_eq!(outer.children, 1);
    }

    #[test]
    fn calibration_removes_the_cost_of_empty_spans() {
        let cal = Calibration::measure();
        assert!(cal.own_ns > 0.0 && cal.own_ns < 10_000.0, "{cal:?}");
        let t = Tracer::new(Instant::now());
        t.enter("outer");
        for _ in 0..1000 {
            t.span("empty", || ());
        }
        t.exit();
        let totals = t.totals();
        // Empty spans cost little once corrected; allow host noise.
        assert!(cal.total_ns(totals["empty"]) < 0.5 * totals["empty"].total_ns as f64 + 1_000.0);
    }
}

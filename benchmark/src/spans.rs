//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer, kept in memory, and written once when the run ends. A
//! top-level span is one unit of work (a set-up of one program, one timed
//! op, one compile or telemetry pass) and carries a fresh op id; every span
//! below it carries the same id.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`vm.call`, `frontend.parse_program`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op id shared by a top-level span and everything below it.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// `(start, end)` in seconds on the recorder's clock.
    pub fn interval(&self) -> (f64, f64) {
        (self.start_ns as f64 * 1e-9, self.end_ns as f64 * 1e-9)
    }
}

/// Records spans while enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), next_op: 0 }
    }

    /// Turns recording on or off (spans already open still close).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span below the innermost open one (a new op when none is
    /// open).
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let now = self.now();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes the span `open` refers to; it must be the innermost open one.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Seconds since the recorder was created: the run's clock, which
    /// reads the same whether or not spans are being recorded.
    pub fn clock(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Checks a span list: every parent exists and precedes its child, a
/// parent lasts at least as long as its direct children together, each
/// top-level span has its own op id and every other span its parent's.
/// Returns one message per violation.
pub fn check_well_formed(spans: &[Span]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut child_ns = vec![0u64; spans.len()];
    let mut top_ops = std::collections::BTreeSet::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            errors.push(format!("span {i} `{}` ends before it starts", s.name));
        }
        match s.parent {
            Some(p) if p >= i => errors.push(format!("span {i} `{}`: parent {p} missing", s.name)),
            Some(p) => {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
                if spans[p].op != s.op {
                    errors.push(format!(
                        "span {i} `{}`: op {} under op {}",
                        s.name, s.op, spans[p].op
                    ));
                }
                if s.start_ns < spans[p].start_ns || s.end_ns > spans[p].end_ns {
                    errors.push(format!("span {i} `{}` outside its parent", s.name));
                }
            }
            None => {
                if !top_ops.insert(s.op) {
                    errors.push(format!("op id {} used by two top-level spans", s.op));
                }
            }
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_ns[i] > s.end_ns.saturating_sub(s.start_ns) {
            errors.push(format!("span {i} `{}` shorter than its children", s.name));
        }
    }
    errors
}

/// Renders spans as JSON lines: `{"id","name","start_ns","end_ns","parent","op"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_op_id() {
        let mut s = Spans::new(true);
        s.time("op", || ());
        let a = s.enter("op");
        let b = s.enter("vm.call");
        s.exit(b);
        s.exit(a);
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, spans[1].op);
        assert_ne!(spans[0].op, spans[1].op);
        assert!(check_well_formed(spans).is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.enter("op");
        s.exit(o);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn detects_a_child_longer_than_its_parent() {
        let spans = vec![
            Span { name: "op", start_ns: 0, end_ns: 10, parent: None, op: 1 },
            Span { name: "vm.call", start_ns: 0, end_ns: 20, parent: Some(0), op: 1 },
        ];
        assert!(!check_well_formed(&spans).is_empty());
    }
}

//! VM-wide structured event tracing and metrics for the NoMap simulator.
//!
//! The VM emits a [`TraceEvent`] at every lifecycle point — function
//! tier-ups (Interp→Baseline→DFG→FTL) with compile cost, OSR deopts with
//! SMP id and check kind, transaction begin/commit/abort with abort reason
//! and write footprint, §V-C ladder recompilation steps, and optimizer-pass
//! outcomes. Events flow through a [`Tracer`] into:
//!
//! - a [`Metrics`] registry (always, when tracing is enabled): counters,
//!   per-reason abort breakdowns, footprint/length histograms and
//!   per-function tier residency, all mergeable like `ExecStats`;
//! - an optional bounded in-memory ring ([`RingSink`]) queryable after the
//!   run;
//! - an optional JSON-Lines stream ([`JsonlSink`]) for offline analysis.
//!
//! Tracing is **zero-cost when disabled**: the default tracer is off, the
//! emit path is a single inlined boolean test, and event construction is
//! deferred behind a closure that never runs on the disabled path. Tracing
//! is also **observation-only** by design — it must never change
//! `ExecStats` or program results (the VM test suite asserts this).

mod event;
mod json;
mod metrics;
mod sink;

pub use event::{check_name, tier_name, TraceEvent, SCHEMA_VERSION};
pub use json::{obj, JsonValue};
pub use metrics::{Histogram, Metrics, TierResidency};
pub use sink::{JsonlSink, Recorded, RingSink, TraceSink};

/// The VM's tracing front end: owns the enabled flag, the sequence counter,
/// the metrics registry, the optional ring and any extra sinks.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    seq: u64,
    metrics: Metrics,
    ring: Option<RingSink>,
    extra: Vec<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("seq", &self.seq)
            .field("ring", &self.ring.as_ref().map(|r| r.len()))
            .field("extra_sinks", &self.extra.len())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer (the VM default). Costs one `bool` test per
    /// would-be emission and nothing else.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer with a ring buffer retaining the most recent
    /// `ring_capacity` events.
    pub fn enabled(ring_capacity: usize) -> Self {
        Tracer {
            enabled: true,
            seq: 0,
            metrics: Metrics::new(),
            ring: Some(RingSink::new(ring_capacity)),
            extra: Vec::new(),
        }
    }

    /// Whether events are being recorded. The emit macro/closure path
    /// checks this before constructing any event.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches an additional sink (e.g. a [`JsonlSink`]); events are
    /// delivered to every sink in attachment order.
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.extra.push(sink);
    }

    /// Emits an event. `make` runs only when tracing is enabled, so
    /// callers pay nothing for argument formatting on the disabled path.
    ///
    /// `cycles` is the VM cycle counter at the emission point; with the
    /// sequence number it forms a deterministic timestamp (no wall clock —
    /// traces of the same program are identical across runs).
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, cycles: u64, make: F) {
        if !self.enabled {
            return;
        }
        let event = make();
        let seq = self.seq;
        self.seq += 1;
        self.metrics.observe(&event);
        if let Some(ring) = &mut self.ring {
            ring.record(seq, cycles, &event);
        }
        for sink in &mut self.extra {
            sink.record(seq, cycles, &event);
        }
    }

    /// Credits tier-residency instructions to a function in the metrics
    /// registry. No-op when disabled.
    #[inline]
    pub fn record_residency(&mut self, name: &str, tier: nomap_machine::Tier, insts: u64) {
        if self.enabled {
            self.metrics.record_residency(name, tier, insts);
        }
    }

    /// Credits `n` dynamic executions to opcode kind `name` in the census
    /// maps. No-op when disabled.
    #[inline]
    pub fn record_opcode(&mut self, name: &str, n: u64) {
        if self.enabled {
            self.metrics.record_opcode(name, n);
        }
    }

    /// Credits `n` dynamic executions to the statically-adjacent opcode
    /// pair `prev` → `cur`. No-op when disabled.
    #[inline]
    pub fn record_digram(&mut self, prev: &str, cur: &str, n: u64) {
        if self.enabled {
            self.metrics.record_digram(prev, cur, n);
        }
    }

    /// Events retained in the ring, oldest first (empty when disabled or
    /// ring-less).
    pub fn events(&self) -> Vec<Recorded> {
        self.ring.as_ref().map(RingSink::events).unwrap_or_default()
    }

    /// Events evicted from the ring because it was full.
    pub fn ring_dropped(&self) -> u64 {
        self.ring.as_ref().map(RingSink::dropped).unwrap_or(0)
    }

    /// Total events emitted (including any evicted from the ring).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Flushes all attached sinks.
    pub fn flush(&mut self) {
        for sink in &mut self.extra {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let mut t = Tracer::disabled();
        let mut ran = false;
        t.emit(0, || {
            ran = true;
            TraceEvent::TxBegin { func: 0, name: "f".into() }
        });
        assert!(!ran);
        assert_eq!(t.emitted(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_tracer_sequences_and_aggregates() {
        let mut t = Tracer::enabled(16);
        t.emit(10, || TraceEvent::TxBegin { func: 0, name: "f".into() });
        t.emit(20, || TraceEvent::TxCommit {
            func: 0,
            footprint_bytes: 64,
            read_footprint_bytes: 0,
            max_assoc: 1,
            instructions: 40,
        });
        assert_eq!(t.emitted(), 2);
        let events = t.events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].cycles, 20);
        assert_eq!(t.metrics().counters["tx-begin"], 1);
        assert_eq!(t.metrics().commit_footprint.count, 1);
    }

    #[test]
    fn extra_sinks_receive_events() {
        let mut t = Tracer::enabled(4);
        t.add_sink(Box::new(JsonlSink::new(Vec::new())));
        t.emit(1, || TraceEvent::TxBegin { func: 1, name: "g".into() });
        // The sink is owned by the tracer; emitted() reflects delivery.
        assert_eq!(t.emitted(), 1);
    }
}

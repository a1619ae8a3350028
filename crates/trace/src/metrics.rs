//! Aggregated metrics derived from the event stream.
//!
//! Where the event sinks answer "what happened, in order", the metrics
//! registry answers "how much, overall": event counts, per-reason abort
//! breakdowns, transaction write-footprint and length distributions, and
//! per-function tier-residency instruction counts. Like
//! `nomap_machine::ExecStats`, everything merges, so per-shard registries
//! can be combined into one report.

use std::collections::BTreeMap;

use nomap_machine::Tier;

use crate::event::{tier_name, TraceEvent};
use crate::json::{obj, JsonValue};

/// Power-of-two-bucketed histogram over `u64` samples.
///
/// Bucket `i` holds samples whose value needs `i` bits (bucket 0 is the
/// value 0, bucket 1 is 1, bucket 2 is 2–3, bucket 3 is 4–7, …), which is
/// plenty of resolution for footprints and instruction counts while keeping
/// the histogram fixed-size and trivially mergeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive value range covered by bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        _ => (1u64 << (i - 1), (1u64 << (i - 1)) | ((1u64 << (i - 1)) - 1)),
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Tallies saturate rather than overflow: a fleet
    /// run folding many shards must never panic in debug builds while
    /// silently wrapping in release.
    pub fn record(&mut self, value: u64) {
        let b = &mut self.buckets[bucket_of(value)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Saturating, like
    /// [`Histogram::record`].
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Approximate `p`-th percentile (0.0..=1.0) from the power-of-two
    /// sketch: the upper bound of the bucket containing the `p`-th sample.
    /// Exact to within one power of two — plenty for "p90 footprint"
    /// reporting — and mergeable, unlike a sorted-sample quantile.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = bucket_range(i);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(low, high, count)` ranges, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                let (lo, hi) = bucket_range(i);
                (lo, hi, *n)
            })
            .collect()
    }

    /// Compact single-line rendering, e.g. `n=12 mean=96.0 max=512 [64..127:9 512..1023:3]`.
    pub fn summary(&self) -> String {
        let ranges: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(
                |(lo, hi, n)| {
                    if lo == hi {
                        format!("{lo}:{n}")
                    } else {
                        format!("{lo}..{hi}:{n}")
                    }
                },
            )
            .collect();
        format!("n={} mean={:.1} max={} [{}]", self.count, self.mean(), self.max, ranges.join(" "))
    }

    /// JSON object with count/sum/max/mean and the non-empty buckets.
    pub fn to_json(&self) -> JsonValue {
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, n)| obj(vec![("lo", lo.into()), ("hi", hi.into()), ("count", n.into())]))
            .collect();
        obj(vec![
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("max", self.max.into()),
            ("mean", self.mean().into()),
            ("buckets", JsonValue::Array(buckets)),
        ])
    }
}

/// Per-function instruction counts by tier (the tier-residency profile:
/// where does each function's dynamic execution actually happen?).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TierResidency {
    insts: [u64; 5],
}

fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Interpreter => 0,
        Tier::Baseline => 1,
        Tier::Dfg => 2,
        Tier::Ftl => 3,
        Tier::Runtime => 4,
    }
}

const TIER_ORDER: [Tier; 5] =
    [Tier::Interpreter, Tier::Baseline, Tier::Dfg, Tier::Ftl, Tier::Runtime];

impl TierResidency {
    /// Instructions retired in `tier`.
    pub fn get(&self, tier: Tier) -> u64 {
        self.insts[tier_index(tier)]
    }

    /// Total instructions across all tiers.
    pub fn total(&self) -> u64 {
        self.insts.iter().sum()
    }
}

/// The mergeable metrics registry fed by the tracer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    /// Events seen, keyed by `TraceEvent::kind()`.
    pub counters: BTreeMap<String, u64>,
    /// Transaction aborts keyed by reason (`check:bounds`, `capacity`,
    /// `sticky-overflow`, …).
    pub aborts_by_reason: BTreeMap<String, u64>,
    /// Write footprint (bytes) of committed transactions.
    pub commit_footprint: Histogram,
    /// Read footprint (bytes) of committed transactions (schema v7;
    /// nonzero only when the HTM bounds reads, i.e. RTM).
    pub commit_read_footprint: Histogram,
    /// Dynamic instructions per committed transaction.
    pub commit_instructions: Histogram,
    /// Write footprint (bytes) of aborted transactions at the abort point.
    pub abort_footprint: Histogram,
    /// Read footprint (bytes) of aborted transactions at the abort point
    /// (from `tx-abort-blame` events; RTM only).
    pub abort_read_footprint: Histogram,
    /// Capacity aborts keyed by owner function × victim-set pressure
    /// (`<name>/ways:<n>` — how many speculative lines the overflowed set
    /// was asked to hold). Fed by `tx-abort-blame` events with a fault
    /// site.
    pub abort_set_pressure: BTreeMap<String, u64>,
    /// Per-function tier-residency instruction counts, keyed by function
    /// name. Fed by the VM (not derivable from lifecycle events alone).
    pub residency: BTreeMap<String, TierResidency>,
    /// Attributed cycles from `cycle-region` events (schema v3), keyed by
    /// `function/tier/region`, e.g. `smash/ftl/txn-body`.
    pub cycles_by_region: BTreeMap<String, u64>,
    /// Dynamic opcode execution counts from the interpreter census, keyed
    /// by opcode kind name (e.g. `get-index`). Fed by the VM when the
    /// census is enabled; empty otherwise.
    pub opcodes: BTreeMap<String, u64>,
    /// Dynamic statically-adjacent opcode-pair counts from the census,
    /// keyed `prev>cur` (e.g. `binary>put-index`). These rank
    /// superinstruction candidates.
    pub digrams: BTreeMap<String, u64>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a named counter.
    pub fn bump(&mut self, key: &str) {
        match self.counters.get_mut(key) {
            Some(c) => *c += 1,
            None => {
                self.counters.insert(key.to_owned(), 1);
            }
        }
    }

    /// Updates the registry from one event. Called by the tracer on emit.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.bump(event.kind());
        match event {
            TraceEvent::TxCommit {
                footprint_bytes, read_footprint_bytes, instructions, ..
            } => {
                self.commit_footprint.record(*footprint_bytes);
                self.commit_read_footprint.record(*read_footprint_bytes);
                self.commit_instructions.record(*instructions);
            }
            TraceEvent::TxAbort { reason, footprint_bytes, .. } => {
                let key = nomap_machine::abort_reason_key(*reason);
                *self.aborts_by_reason.entry(key).or_insert(0) += 1;
                self.abort_footprint.record(*footprint_bytes);
            }
            TraceEvent::TxAbortBlame { name, reason, set, set_ways, read_bytes, .. } => {
                self.abort_read_footprint.record(*read_bytes);
                // Conflict blames carry a fault site too, but a conflict
                // says nothing about capacity — the set-pressure census
                // stays capacity-only.
                if set.is_some() && !matches!(reason, nomap_machine::AbortReason::Conflict { .. }) {
                    let key = format!("{name}/ways:{set_ways}");
                    let c = self.abort_set_pressure.entry(key).or_insert(0);
                    *c = c.saturating_add(1);
                }
            }
            TraceEvent::CycleRegion { name, tier, region, cycles, .. } => {
                let key = format!("{name}/{}/{region}", tier_name(*tier));
                *self.cycles_by_region.entry(key).or_insert(0) += cycles;
            }
            _ => {}
        }
    }

    /// Credits `insts` retired instructions in `tier` to function `name`.
    pub fn record_residency(&mut self, name: &str, tier: Tier, insts: u64) {
        if insts == 0 {
            return;
        }
        // Only a function's first credit allocates its key.
        let entry = match self.residency.get_mut(name) {
            Some(entry) => entry,
            None => self.residency.entry(name.to_owned()).or_default(),
        };
        entry.insts[tier_index(tier)] += insts;
    }

    /// Credits `n` dynamic executions to opcode kind `name`.
    pub fn record_opcode(&mut self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        let c = self.opcodes.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Credits `n` dynamic executions to the statically-adjacent opcode
    /// pair `prev` → `cur`.
    pub fn record_digram(&mut self, prev: &str, cur: &str, n: u64) {
        if n == 0 {
            return;
        }
        let c = self.digrams.entry(format!("{prev}>{cur}")).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Folds another registry into this one (counters add, histograms
    /// merge, residency sums per function and tier). All counter sums
    /// saturate so an arbitrarily long fleet run cannot overflow-panic.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.aborts_by_reason {
            let c = self.aborts_by_reason.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        self.commit_footprint.merge(&other.commit_footprint);
        self.commit_read_footprint.merge(&other.commit_read_footprint);
        self.commit_instructions.merge(&other.commit_instructions);
        self.abort_footprint.merge(&other.abort_footprint);
        self.abort_read_footprint.merge(&other.abort_read_footprint);
        for (k, v) in &other.abort_set_pressure {
            let c = self.abort_set_pressure.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (name, res) in &other.residency {
            let entry = self.residency.entry(name.clone()).or_default();
            for (a, b) in entry.insts.iter_mut().zip(res.insts.iter()) {
                *a = a.saturating_add(*b);
            }
        }
        for (k, v) in &other.cycles_by_region {
            let c = self.cycles_by_region.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.opcodes {
            let c = self.opcodes.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.digrams {
            let c = self.digrams.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
    }

    /// Multi-line human-readable summary (the `nomap trace` summary table).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("event counts:\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("  {k:<14} {v}\n"));
        }
        if !self.aborts_by_reason.is_empty() {
            out.push_str("aborts by reason:\n");
            for (k, v) in &self.aborts_by_reason {
                out.push_str(&format!("  {k:<20} {v}\n"));
            }
        }
        if self.commit_footprint.count > 0 {
            out.push_str(&format!(
                "commit footprint (bytes): {}\n",
                self.commit_footprint.summary()
            ));
            if self.commit_read_footprint.max > 0 {
                out.push_str(&format!(
                    "commit read foot (bytes): {}\n",
                    self.commit_read_footprint.summary()
                ));
            }
            out.push_str(&format!(
                "commit length (insts):    {}\n",
                self.commit_instructions.summary()
            ));
        }
        if self.abort_footprint.count > 0 {
            out.push_str(&format!(
                "abort footprint (bytes):  {}\n",
                self.abort_footprint.summary()
            ));
        }
        if self.abort_read_footprint.max > 0 {
            out.push_str(&format!(
                "abort read foot (bytes):  {}\n",
                self.abort_read_footprint.summary()
            ));
        }
        if !self.abort_set_pressure.is_empty() {
            out.push_str("capacity aborts by set pressure:\n");
            for (k, v) in &self.abort_set_pressure {
                out.push_str(&format!("  {k:<28} {v}\n"));
            }
        }
        if !self.cycles_by_region.is_empty() {
            out.push_str("attributed cycles by region:\n");
            for (k, v) in &self.cycles_by_region {
                out.push_str(&format!("  {k:<36} {v}\n"));
            }
        }
        if !self.opcodes.is_empty() {
            out.push_str("opcode census (dynamic counts):\n");
            let mut ops: Vec<(&String, &u64)> = self.opcodes.iter().collect();
            ops.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (k, v) in ops {
                out.push_str(&format!("  {k:<20} {v}\n"));
            }
        }
        if !self.digrams.is_empty() {
            out.push_str("digram census (dynamic counts, statically adjacent):\n");
            let mut digs: Vec<(&String, &u64)> = self.digrams.iter().collect();
            digs.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (k, v) in digs {
                out.push_str(&format!("  {k:<36} {v}\n"));
            }
        }
        if !self.residency.is_empty() {
            out.push_str("tier residency (insts by function):\n");
            out.push_str(&format!(
                "  {:<18} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "function", "interp", "baseline", "dfg", "ftl", "runtime"
            ));
            for (name, res) in &self.residency {
                out.push_str(&format!(
                    "  {:<18} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                    name,
                    res.get(Tier::Interpreter),
                    res.get(Tier::Baseline),
                    res.get(Tier::Dfg),
                    res.get(Tier::Ftl),
                    res.get(Tier::Runtime),
                ));
            }
        }
        out
    }

    /// JSON rendering of the full registry.
    pub fn to_json(&self) -> JsonValue {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v))).collect();
        let aborts =
            self.aborts_by_reason.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v))).collect();
        let residency = self
            .residency
            .iter()
            .map(|(name, res)| {
                let tiers = TIER_ORDER
                    .iter()
                    .map(|t| (tier_name(*t).to_owned(), JsonValue::from(res.get(*t))))
                    .collect();
                (name.clone(), JsonValue::Object(tiers))
            })
            .collect();
        let regions =
            self.cycles_by_region.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v))).collect();
        let opcodes = self.opcodes.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v))).collect();
        let digrams = self.digrams.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v))).collect();
        let set_pressure =
            self.abort_set_pressure.iter().map(|(k, v)| (k.clone(), JsonValue::from(*v))).collect();
        obj(vec![
            ("counters", JsonValue::Object(counters)),
            ("aborts_by_reason", JsonValue::Object(aborts)),
            ("commit_footprint", self.commit_footprint.to_json()),
            ("commit_read_footprint", self.commit_read_footprint.to_json()),
            ("commit_instructions", self.commit_instructions.to_json()),
            ("abort_footprint", self.abort_footprint.to_json()),
            ("abort_read_footprint", self.abort_read_footprint.to_json()),
            ("abort_set_pressure", JsonValue::Object(set_pressure)),
            ("tier_residency", JsonValue::Object(residency)),
            ("cycles_by_region", JsonValue::Object(regions)),
            ("opcodes", JsonValue::Object(opcodes)),
            ("digrams", JsonValue::Object(digrams)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use nomap_machine::{AbortReason, CheckKind};

    use super::*;

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 1024);
        let buckets = h.nonzero_buckets();
        assert!(buckets.contains(&(0, 0, 1)));
        assert!(buckets.contains(&(2, 3, 2)));
        assert!(buckets.contains(&(4, 7, 2)));
        assert!(buckets.contains(&(1024, 2047, 1)));
    }

    #[test]
    fn histogram_merge_matches_direct_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut direct = Histogram::new();
        for v in [3, 9, 200] {
            a.record(v);
            direct.record(v);
        }
        for v in [0, 9, 4096] {
            b.record(v);
            direct.record(v);
        }
        a.merge(&b);
        assert_eq!(a, direct);
        assert_eq!(a.mean(), direct.mean());
    }

    #[test]
    fn merges_saturate_at_u64_max_instead_of_panicking() {
        // Histogram: counters pinned at the ceiling must absorb further
        // samples and merges without overflow.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.count = u64::MAX;
        h.sum = u64::MAX;
        let snapshot = h.clone();
        h.record(u64::MAX);
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.max, u64::MAX);
        h.merge(&snapshot);
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.sum, u64::MAX);

        // Metrics: counter maps and residency at the ceiling.
        let mut m = Metrics::new();
        m.counters.insert("tier-up".into(), u64::MAX);
        m.aborts_by_reason.insert("capacity".into(), u64::MAX);
        m.cycles_by_region.insert("f/ftl/main".into(), u64::MAX);
        m.record_residency("f", Tier::Ftl, u64::MAX);
        let other = m.clone();
        m.merge(&other);
        assert_eq!(m.counters["tier-up"], u64::MAX);
        assert_eq!(m.aborts_by_reason["capacity"], u64::MAX);
        assert_eq!(m.cycles_by_region["f/ftl/main"], u64::MAX);
        assert_eq!(m.residency["f"].get(Tier::Ftl), u64::MAX);
    }

    #[test]
    fn percentile_walks_the_sketch() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(Histogram::new().percentile(0.5), 0);
        // p50 of 1..=100 lands in the 32..63 bucket; the sketch reports the
        // bucket's upper bound.
        assert_eq!(h.percentile(0.5), 63);
        assert_eq!(h.percentile(1.0), 100); // capped at the observed max
        assert!(h.percentile(0.1) <= h.percentile(0.9));
    }

    #[test]
    fn cycle_region_events_aggregate_and_merge_commutatively() {
        let ev1 = TraceEvent::CycleRegion {
            func: 0,
            name: "smash".into(),
            tier: Tier::Ftl,
            region: "txn-body".into(),
            cycles: 100,
        };
        let ev2 = TraceEvent::CycleRegion {
            func: 0,
            name: "smash".into(),
            tier: Tier::Baseline,
            region: "txn-retry-ladder".into(),
            cycles: 40,
        };
        let mut a = Metrics::new();
        a.observe(&ev1);
        let mut b = Metrics::new();
        b.observe(&ev2);
        b.observe(&ev1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "metrics merge must be commutative");
        assert_eq!(ab.cycles_by_region["smash/ftl/txn-body"], 200);
        assert_eq!(ab.cycles_by_region["smash/baseline/txn-retry-ladder"], 40);
        assert_eq!(ab.counters["cycle-region"], 3);
        assert!(ab.summary().contains("attributed cycles by region"));
    }

    #[test]
    fn opcode_and_digram_census_merges_commutatively_and_saturates() {
        let mut a = Metrics::new();
        a.record_opcode("get-index", 10);
        a.record_digram("binary", "put-index", 4);
        let mut b = Metrics::new();
        b.record_opcode("get-index", 5);
        b.record_opcode("mov", 1);
        b.record_digram("binary", "put-index", 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "census merge must be commutative");
        assert_eq!(ab.opcodes["get-index"], 15);
        assert_eq!(ab.opcodes["mov"], 1);
        assert_eq!(ab.digrams["binary>put-index"], 6);
        assert!(ab.summary().contains("opcode census"));
        assert!(ab.summary().contains("binary>put-index"));
        assert!(ab.to_json().render().contains("\"digrams\""));

        // Zero-count records are dropped; ceiling values saturate.
        let mut m = Metrics::new();
        m.record_opcode("mov", 0);
        assert!(m.opcodes.is_empty());
        m.record_opcode("mov", u64::MAX);
        m.record_opcode("mov", 7);
        assert_eq!(m.opcodes["mov"], u64::MAX);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut m = Metrics::new();
        m.observe(&TraceEvent::TxCommit {
            func: 1,
            footprint_bytes: 64,
            read_footprint_bytes: 128,
            max_assoc: 2,
            instructions: 500,
        });
        m.observe(&TraceEvent::TxAbort {
            func: Some(1),
            reason: AbortReason::Capacity,
            footprint_bytes: 4096,
            undone_words: 100,
            instructions: 9000,
        });
        m.record_residency("run", Tier::Ftl, 12345);

        let snapshot = m.clone();
        m.merge(&Metrics::new());
        assert_eq!(m, snapshot, "merging an empty registry must be a no-op");

        let mut empty = Metrics::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot, "merging into an empty registry must copy");
    }

    fn blame(name: &str, set: Option<u64>, set_ways: u32, read_bytes: u64) -> TraceEvent {
        TraceEvent::TxAbortBlame {
            func: Some(0),
            name: name.into(),
            tier: Tier::Ftl,
            bc: 4,
            reason: AbortReason::Capacity,
            scope: "Nest".into(),
            attempt: 1,
            word_addr: set.map(|_| 0x1000),
            line: set.map(|_| 0x40),
            set,
            set_ways,
            read_fault: false,
            write_lines: 9,
            write_bytes: 576,
            read_lines: read_bytes / 64,
            read_bytes,
            instructions: 100,
        }
    }

    #[test]
    fn blame_events_feed_set_pressure_and_read_histograms() {
        let mut m = Metrics::new();
        m.observe(&blame("smash", Some(3), 9, 0));
        m.observe(&blame("smash", Some(7), 9, 0));
        m.observe(&blame("other", Some(3), 9, 1024));
        m.observe(&blame("snap", None, 0, 0)); // check abort: no fault site
        assert_eq!(m.counters["tx-abort-blame"], 4);
        assert_eq!(m.abort_set_pressure["smash/ways:9"], 2);
        assert_eq!(m.abort_set_pressure["other/ways:9"], 1);
        assert_eq!(m.abort_set_pressure.len(), 2, "no set-pressure entry without a fault site");
        assert_eq!(m.abort_read_footprint.count, 4);
        assert_eq!(m.abort_read_footprint.max, 1024);

        let mut other = Metrics::new();
        other.observe(&blame("smash", Some(3), 9, 0));
        let mut ab = m.clone();
        ab.merge(&other);
        let mut ba = other.clone();
        ba.merge(&m);
        assert_eq!(ab, ba, "blame metrics merge must be commutative");
        assert_eq!(ab.abort_set_pressure["smash/ways:9"], 3);
        assert!(ab.summary().contains("capacity aborts by set pressure"));
        assert!(ab.to_json().render().contains("\"abort_set_pressure\""));
    }

    #[test]
    fn conflict_blames_stay_out_of_the_set_pressure_census() {
        let mut m = Metrics::new();
        let conflict = TraceEvent::TxAbortBlame {
            func: Some(0),
            name: "step".into(),
            tier: Tier::Ftl,
            bc: 4,
            reason: AbortReason::Conflict { agent: 2 },
            scope: "Nest".into(),
            attempt: 1,
            word_addr: Some(0x1000),
            line: Some(0x40),
            set: Some(3),
            set_ways: 1,
            read_fault: true,
            write_lines: 1,
            write_bytes: 64,
            read_lines: 2,
            read_bytes: 128,
            instructions: 40,
        };
        m.observe(&conflict);
        assert_eq!(m.counters["tx-abort-blame"], 1);
        assert!(m.abort_set_pressure.is_empty(), "conflicts are not capacity pressure");
        assert_eq!(m.abort_read_footprint.max, 128);
        m.observe(&TraceEvent::TxAbort {
            func: Some(0),
            reason: AbortReason::Conflict { agent: 2 },
            footprint_bytes: 64,
            undone_words: 1,
            instructions: 40,
        });
        assert_eq!(m.aborts_by_reason["conflict"], 1);
    }

    #[test]
    fn merge_sums_counters_aborts_and_residency() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        for _ in 0..3 {
            a.observe(&TraceEvent::TxAbort {
                func: Some(0),
                reason: AbortReason::Check(CheckKind::Bounds),
                footprint_bytes: 8,
                undone_words: 1,
                instructions: 10,
            });
        }
        b.observe(&TraceEvent::TxAbort {
            func: Some(0),
            reason: AbortReason::Check(CheckKind::Bounds),
            footprint_bytes: 16,
            undone_words: 2,
            instructions: 20,
        });
        b.observe(&TraceEvent::TxAbort {
            func: Some(0),
            reason: AbortReason::StickyOverflow,
            footprint_bytes: 0,
            undone_words: 0,
            instructions: 5,
        });
        a.record_residency("f", Tier::Interpreter, 100);
        b.record_residency("f", Tier::Interpreter, 11);
        b.record_residency("f", Tier::Ftl, 7);
        b.record_residency("g", Tier::Baseline, 2);

        a.merge(&b);
        assert_eq!(a.counters["tx-abort"], 5);
        assert_eq!(a.aborts_by_reason["check:bounds"], 4);
        assert_eq!(a.aborts_by_reason["sticky-overflow"], 1);
        assert_eq!(a.abort_footprint.count, 5);
        assert_eq!(a.residency["f"].get(Tier::Interpreter), 111);
        assert_eq!(a.residency["f"].get(Tier::Ftl), 7);
        assert_eq!(a.residency["g"].get(Tier::Baseline), 2);
        assert_eq!(a.residency["f"].total(), 118);
    }
}

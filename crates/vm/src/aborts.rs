//! `nomap aborts` — per-abort blame attribution and the static-vs-dynamic
//! footprint calibration observatory.
//!
//! The report has two joined halves:
//!
//! 1. **Dynamic forensics**: the workload runs once under tracing and
//!    profiling, and every transactional abort is captured as an
//!    [`AbortSite`] — the schema-v7 `tx-abort-blame` event's payload: the
//!    faulting word/line/set and victim-set occupancy (capacity aborts),
//!    the read/write speculative-set sizes in lines and bytes at the point
//!    of failure, the dynamic transaction length, the §V-C ladder attempt
//!    number and the owner function × tier × bytecode anchor.
//! 2. **Static calibration**: every function is recompiled through the
//!    audited FTL pipeline with footprint seeding
//!    (`AuditOptions { seed_scope: true }`) under the interprocedural
//!    summary table, exactly as `VmConfig::seed_scope` would. The seeded
//!    scope is the estimator's *prediction*: a stepped scope means "this
//!    transaction would overflow the write cache".
//!
//! Joining the two yields a four-verdict calibration lattice per function:
//!
//! - `predicted-abort-and-aborted` — the estimator stepped the scope and
//!   the unseeded run did take capacity aborts (true positive);
//! - `predicted-safe-and-safe` — scope kept, no capacity aborts (true
//!   negative);
//! - `over-prediction` — scope stepped but the run never overflowed
//!   (conservative lower bound met a workload that stayed small; benign);
//! - `under-prediction` — scope kept yet the run aborted on capacity.
//!   Under-predictions must be *explained* by a blame pattern the
//!   estimator provably cannot see, or the corpus census gate fails:
//!   - `set-conflict`: the fault's victim set overflowed its ways while
//!     the total write set was still below capacity — the estimator
//!     bounds total distinct lines, not their set distribution;
//!   - `read-set`: the faulting access was a *read* (RTM tracks the
//!     speculative read set in the L2) — the estimator bounds write
//!     traffic only and does not model read sets at all;
//!   - `callee-traffic`: a ladder step recorded `saw_call` — the
//!     overflow included writes from called functions, which the
//!     per-function estimate cannot bound;
//!   - `unopt-tier`: the faulting instruction ran in a non-FTL tier
//!     (TMUnopt code inside the transaction), which the FTL estimator
//!     never analyzed;
//!   - `unproven-trip`: an innermost loop with element-store traffic
//!     whose trip count the estimator could not prove constant — its
//!     lower bound is only engaged by constant-bounded compares, so a
//!     runtime-valued bound (a global, a parameter) leaves the loop
//!     uncounted by design;
//!   - `uncounted-stores`: the faulting transaction's write set genuinely
//!     exceeded total capacity (`write_lines > capacity_lines` at the
//!     fault), yet the proven lower bound stayed below it — dynamic store
//!     traffic the estimator's affine-induction-variable matcher could
//!     not attribute (computed addressing, nested loops).
//!
//! Everything is derived deterministically: abort sites are reported in
//! emission order, rows in function-id order, and no wall-clock enters
//! the report.

use nomap_core::{compile_ftl_audited, Architecture, AuditOptions};
use nomap_ir::passes::PassConfig;
use nomap_machine::{abort_reason_key, Tier};
use nomap_trace::{obj, tier_name, JsonValue, TraceEvent};
use nomap_verify::ScopeAdvice;

use crate::corpus::{CorpusReport, Warmed};
use crate::error::VmError;

/// One attributed transactional abort (the `tx-abort-blame` payload plus
/// its cycle stamp).
#[derive(Debug, Clone)]
pub struct AbortSite {
    /// VM cycle counter at the abort.
    pub cycles: u64,
    /// Owner function id (`None` when the transaction had no fallback).
    pub func: Option<u32>,
    /// Owner function name (`<vm>` when unowned).
    pub name: String,
    /// Tier of the most recently executed guest instruction.
    pub tier: Tier,
    /// Bytecode index of the transaction's Baseline re-entry.
    pub bc: u32,
    /// Canonical abort-reason key (`check:bounds`, `capacity`, ...).
    pub reason: String,
    /// §V-C scope the owner was compiled at when it aborted.
    pub scope: String,
    /// Ladder attempt number (1 = first transaction of this function).
    pub attempt: u32,
    /// Victim cache set of the faulting access (capacity aborts only).
    pub set: Option<u64>,
    /// Speculative lines in the victim set including the faulting line.
    pub set_ways: u32,
    /// The faulting access was a read (RTM read-set overflow).
    pub read_fault: bool,
    /// Speculative write set at the fault, in cache lines.
    pub write_lines: u64,
    /// Speculative write set at the fault, in bytes.
    pub write_bytes: u64,
    /// Speculative read set at the fault, in cache lines (RTM only).
    pub read_lines: u64,
    /// Speculative read set at the fault, in bytes (RTM only).
    pub read_bytes: u64,
    /// Dynamic instructions inside the transaction at the fault.
    pub instructions: u64,
}

impl AbortSite {
    /// One stable text line for the per-abort blame section.
    pub fn render(&self) -> String {
        let site = match self.set {
            Some(s) => {
                let rw = if self.read_fault { "read" } else { "write" };
                format!("{rw} set {s} ways {}", self.set_ways)
            }
            None => "no fault site".to_owned(),
        };
        format!(
            "@{} {}@{}:{} {} #{} [{}] {site} w {}L/{}B r {}L/{}B len {}",
            self.cycles,
            self.name,
            tier_name(self.tier),
            self.bc,
            self.reason,
            self.attempt,
            self.scope,
            self.write_lines,
            self.write_bytes,
            self.read_lines,
            self.read_bytes,
            self.instructions
        )
    }

    /// JSON object mirroring the render form.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("cycles", self.cycles.into()),
            ("func", self.func.map_or(JsonValue::Null, Into::into)),
            ("name", self.name.as_str().into()),
            ("tier", tier_name(self.tier).into()),
            ("bc", self.bc.into()),
            ("reason", self.reason.as_str().into()),
            ("scope", self.scope.as_str().into()),
            ("attempt", self.attempt.into()),
            ("set", self.set.map_or(JsonValue::Null, Into::into)),
            ("set_ways", self.set_ways.into()),
            ("read_fault", self.read_fault.into()),
            ("write_lines", self.write_lines.into()),
            ("write_bytes", self.write_bytes.into()),
            ("read_lines", self.read_lines.into()),
            ("read_bytes", self.read_bytes.into()),
            ("instructions", self.instructions.into()),
        ])
    }
}

/// One function's calibration row: dynamic transaction behaviour joined
/// with the static footprint prediction.
#[derive(Debug, Clone)]
pub struct AbortsFnRow {
    /// Function id.
    pub func: u32,
    /// Function name.
    pub name: String,
    /// Committed transactions owned by this function.
    pub commits: u64,
    /// Largest committed write footprint (bytes).
    pub commit_write_max: u64,
    /// Largest committed read footprint (bytes; RTM only).
    pub commit_read_max: u64,
    /// Aborts by canonical reason key.
    pub aborts: std::collections::BTreeMap<String, u64>,
    /// Capacity aborts (the calibration's "aborted" signal).
    pub capacity: u64,
    /// Capacity aborts that captured a fault site.
    pub set_faults: u64,
    /// Largest write footprint observed at an abort (bytes).
    pub abort_write_max: u64,
    /// Largest read footprint observed at an abort (bytes).
    pub abort_read_max: u64,
    /// §V-C ladder steps taken during the run.
    pub ladder_steps: u64,
    /// Any ladder step saw a call inside the transaction.
    pub saw_call: bool,
    /// Scope the ladder ended at.
    pub final_scope: String,
    /// Scope requested from the seeded audit (the ladder's start).
    pub scope_requested: String,
    /// Scope the footprint estimator seeded (its prediction).
    pub scope_seeded: String,
    /// The estimator predicted a capacity overflow.
    pub predicted_abort: bool,
    /// The estimator's raw advice: `keep`, `tile(n)`, `disable` — or `-`
    /// when the compile was not transaction-aware (no estimate ran).
    pub advice: String,
    /// Largest proven-distinct-line lower bound over innermost loops.
    pub est_lines: u64,
    /// Innermost loops with element-store traffic whose trip count the
    /// estimator could not prove constant (its designed-in blind spot).
    pub unproven_loops: u32,
    /// Calibration verdict (see the module docs).
    pub verdict: String,
    /// Explanation for an under-prediction, when one applies.
    pub explanation: Option<String>,
}

impl AbortsFnRow {
    /// One stable text line for the calibration section.
    pub fn render(&self) -> String {
        let aborts: Vec<String> = self.aborts.iter().map(|(k, n)| format!("{k}={n}")).collect();
        format!(
            "f{}:{} commits={} aborts[{}] ladder={}{} est[{} lines={} unproven={}] scope {}->{} dyn {} verdict={}{}",
            self.func,
            self.name,
            self.commits,
            aborts.join(","),
            self.ladder_steps,
            if self.saw_call { " saw-call" } else { "" },
            self.advice,
            self.est_lines,
            self.unproven_loops,
            self.scope_requested,
            self.scope_seeded,
            self.final_scope,
            self.verdict,
            match &self.explanation {
                Some(e) => format!(" explain={e}"),
                None => String::new(),
            }
        )
    }

    /// JSON object mirroring the render form.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("func", self.func.into()),
            ("name", self.name.as_str().into()),
            ("commits", self.commits.into()),
            ("commit_write_max", self.commit_write_max.into()),
            ("commit_read_max", self.commit_read_max.into()),
            (
                "aborts",
                obj(self.aborts.iter().map(|(k, n)| (k.as_str(), JsonValue::from(*n))).collect()),
            ),
            ("capacity", self.capacity.into()),
            ("set_faults", self.set_faults.into()),
            ("abort_write_max", self.abort_write_max.into()),
            ("abort_read_max", self.abort_read_max.into()),
            ("ladder_steps", self.ladder_steps.into()),
            ("saw_call", self.saw_call.into()),
            ("final_scope", self.final_scope.as_str().into()),
            ("scope_requested", self.scope_requested.as_str().into()),
            ("scope_seeded", self.scope_seeded.as_str().into()),
            ("predicted_abort", self.predicted_abort.into()),
            ("advice", self.advice.as_str().into()),
            ("est_lines", self.est_lines.into()),
            ("unproven_loops", self.unproven_loops.into()),
            ("verdict", self.verdict.as_str().into()),
            ("explanation", self.explanation.as_deref().map_or(JsonValue::Null, Into::into)),
        ])
    }
}

/// The whole `nomap aborts` report for one program.
#[derive(Debug, Default)]
pub struct AbortsReport {
    /// One row per function with transactional activity or a static
    /// prediction, in function-id order.
    pub rows: Vec<AbortsFnRow>,
    /// Every attributed abort, in emission order.
    pub sites: Vec<AbortSite>,
    /// Write-cache capacity in lines (`sets × ways`) of the modelled HTM.
    pub capacity_lines: u64,
    /// Write-cache line size in bytes.
    pub line_bytes: u64,
}

impl AbortsReport {
    fn verdict_count(&self, v: &str) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    /// Rows with verdict `under-prediction` and no explanation. The corpus
    /// census gate requires this to be zero.
    pub fn unexplained_under_predictions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == "under-prediction" && r.explanation.is_none())
            .count()
    }

    /// One-line totals (the corpus census line body).
    pub fn summary(&self) -> String {
        format!(
            "funcs={} sites={} commits={} tp={} tn={} over={} under={} unexplained={}",
            self.rows.len(),
            self.sites.len(),
            self.rows.iter().map(|r| r.commits).sum::<u64>(),
            self.verdict_count("predicted-abort-and-aborted"),
            self.verdict_count("predicted-safe-and-safe"),
            self.verdict_count("over-prediction"),
            self.verdict_count("under-prediction"),
            self.unexplained_under_predictions()
        )
    }

    /// The full stable text report, listing at most `top` abort sites.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::from("== calibration (static seed vs dynamic ladder) ==\n");
        for r in &self.rows {
            out.push_str(&r.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "== per-abort blame ({} of {} site(s)) ==\n",
            top.min(self.sites.len()),
            self.sites.len()
        ));
        for s in self.sites.iter().take(top) {
            out.push_str(&s.render());
            out.push('\n');
        }
        out.push_str(&format!("aborts: {}\n", self.summary()));
        out
    }
}

impl CorpusReport for AbortsReport {
    const KIND: &'static str = "aborts";
    const ARCHS: &'static [Architecture] = &[Architecture::NoMap, Architecture::NoMapRtm];
    const FAILURE: &'static str = "unexplained under-prediction(s)";

    /// Folds the warm-up's blame and ladder events and profile into
    /// per-function facts, then recompiles every function through the
    /// audited FTL pipeline with footprint seeding under the
    /// interprocedural summary table: the seeded scope is the prediction.
    fn analyze(w: &mut Warmed) -> Result<Self, VmError> {
        let arch = w.arch();
        let scope0 = w.ftl_scope();
        let vm = &mut w.vm;
        let model = arch.htm_model();
        let capacity_lines = model.write_cache.size_bytes / model.write_cache.line_bytes;
        let line_bytes = model.write_cache.line_bytes;
        let mut report = AbortsReport { capacity_lines, line_bytes, ..AbortsReport::default() };

        // Dynamic half: fold the collected events into per-function facts.
        let nfuncs = vm.funcs.len();
        let mut ladder_steps = vec![0u64; nfuncs];
        let mut saw_call = vec![false; nfuncs];
        let mut set_conflict = vec![false; nfuncs];
        let mut read_set = vec![false; nfuncs];
        let mut total_overflow = vec![false; nfuncs];
        let mut unopt_tier = vec![false; nfuncs];
        let mut set_faults = vec![0u64; nfuncs];
        for (cycles, ev) in &w.events {
            match ev {
                TraceEvent::LadderStep { func, saw_call: sc, .. } => {
                    if let Some(i) = usize::try_from(*func).ok().filter(|&i| i < nfuncs) {
                        ladder_steps[i] += 1;
                        saw_call[i] |= *sc;
                    }
                }
                TraceEvent::TxAbortBlame {
                    func,
                    name,
                    tier,
                    bc,
                    reason,
                    scope,
                    attempt,
                    word_addr: _,
                    line: _,
                    set,
                    set_ways,
                    read_fault,
                    write_lines,
                    write_bytes,
                    read_lines,
                    read_bytes,
                    instructions,
                } => {
                    if let Some(i) =
                        func.and_then(|f| usize::try_from(f).ok()).filter(|&i| i < nfuncs)
                    {
                        if set.is_some() {
                            set_faults[i] += 1;
                            // The victim set overflowed its ways while the
                            // whole write set still fit: an associativity
                            // conflict the total-line estimator cannot see.
                            if !read_fault && *write_lines < capacity_lines {
                                set_conflict[i] = true;
                            }
                            // The faulting access was a *read* (RTM read-set
                            // tracking): the write-footprint estimator does
                            // not model read sets at all.
                            if *read_fault {
                                read_set[i] = true;
                            }
                            // The write set genuinely exceeded total capacity,
                            // so the estimator's proven lower bound missed
                            // real store traffic (non-IV addressing, nested
                            // loops, …).
                            if !read_fault && *write_lines > capacity_lines {
                                total_overflow[i] = true;
                            }
                            if *tier != Tier::Ftl {
                                unopt_tier[i] = true;
                            }
                        }
                    }
                    report.sites.push(AbortSite {
                        cycles: *cycles,
                        func: *func,
                        name: name.clone(),
                        tier: *tier,
                        bc: *bc,
                        reason: abort_reason_key(*reason),
                        scope: scope.clone(),
                        attempt: *attempt,
                        set: *set,
                        set_ways: *set_ways,
                        read_fault: *read_fault,
                        write_lines: *write_lines,
                        write_bytes: *write_bytes,
                        read_lines: *read_lines,
                        read_bytes: *read_bytes,
                        instructions: *instructions,
                    });
                }
                _ => {}
            }
        }

        // Static half: the seeded audit's scope delta is the prediction.
        let ipa = vm.summaries().clone();
        let passes = PassConfig::ftl();
        let seed_opts = AuditOptions { verify: false, seed_scope: true };
        let profile = vm.profile().cloned().unwrap_or_default();

        for id in 0..nfuncs {
            let func = vm.funcs[id].clone();
            let fid = id as u32;
            let audit = compile_ftl_audited(
                &func,
                &mut vm.rt,
                arch,
                scope0,
                passes,
                seed_opts,
                Some(&ipa),
            )?;
            let predicted = audit.scope_used != audit.scope_requested;
            let (advice, est_lines, unproven_loops) = match &audit.footprint {
                Some(est) => (
                    match est.advice {
                        ScopeAdvice::Keep => "keep".to_owned(),
                        ScopeAdvice::Tile(t) => format!("tile({t})"),
                        ScopeAdvice::Disable => "disable".to_owned(),
                    },
                    est.loops.iter().map(|l| l.lines_lower_bound).max().unwrap_or(0),
                    est.loops.iter().filter(|l| l.trip.is_none() && l.bytes_per_iter > 0).count()
                        as u32,
                ),
                None => ("-".to_owned(), 0, 0),
            };

            let commits = profile.tx_commits.get(&fid).copied().unwrap_or(0);
            let mut aborts = std::collections::BTreeMap::new();
            for ((f, key), n) in &profile.aborts {
                if *f == fid {
                    *aborts.entry(key.clone()).or_insert(0) += n;
                }
            }
            let capacity = aborts.get("capacity").copied().unwrap_or(0);
            let total_aborts: u64 = aborts.values().sum();
            let ran_ftl = vm.code[id].ftl.is_some() || ladder_steps[id] > 0 || commits > 0;
            if commits == 0 && total_aborts == 0 && !(predicted && ran_ftl) {
                continue; // no transactional activity and nothing predicted
            }

            let verdict = match (predicted, capacity > 0) {
                (true, true) => "predicted-abort-and-aborted",
                (true, false) => "over-prediction",
                (false, true) => "under-prediction",
                (false, false) => "predicted-safe-and-safe",
            };
            let explanation = if verdict == "under-prediction" {
                if set_conflict[id] {
                    Some("set-conflict".to_owned())
                } else if read_set[id] {
                    Some("read-set".to_owned())
                } else if saw_call[id] {
                    Some("callee-traffic".to_owned())
                } else if unopt_tier[id] {
                    Some("unopt-tier".to_owned())
                } else if unproven_loops > 0 {
                    Some("unproven-trip".to_owned())
                } else if total_overflow[id] {
                    Some("uncounted-stores".to_owned())
                } else {
                    None
                }
            } else {
                None
            };

            report.rows.push(AbortsFnRow {
                func: fid,
                name: func.name.clone(),
                commits,
                commit_write_max: profile.commit_footprint.get(&fid).map_or(0, |h| h.max),
                commit_read_max: profile.commit_read_footprint.get(&fid).map_or(0, |h| h.max),
                aborts,
                capacity,
                set_faults: set_faults[id],
                abort_write_max: profile.abort_footprint.get(&fid).map_or(0, |h| h.max),
                abort_read_max: profile.abort_read_footprint.get(&fid).map_or(0, |h| h.max),
                ladder_steps: ladder_steps[id],
                saw_call: saw_call[id],
                final_scope: format!("{:?}", vm.code[id].scope),
                scope_requested: format!("{:?}", audit.scope_requested),
                scope_seeded: format!("{:?}", audit.scope_used),
                predicted_abort: predicted,
                advice,
                est_lines,
                unproven_loops,
                verdict: verdict.to_owned(),
                explanation,
            });
        }
        Ok(report)
    }

    fn document(_arch: Architecture) -> String {
        "abort_census".to_owned()
    }

    fn lines(&self, id: &str, arch: Architecture) -> Vec<String> {
        vec![format!("{:<9} {id} {}", arch.name(), self.summary())]
    }

    fn summary_line(_archs: &[Architecture], reports: &[&Self]) -> String {
        let verdicts = |v: &str| reports.iter().map(|r| r.verdict_count(v)).sum::<usize>();
        format!(
            "abort census: {} (arch, workload) pairs, {} blame sites: tp={} tn={} over={} under={} unexplained={}",
            reports.len(),
            reports.iter().map(|r| r.sites.len()).sum::<usize>(),
            verdicts("predicted-abort-and-aborted"),
            verdicts("predicted-safe-and-safe"),
            verdicts("over-prediction"),
            verdicts("under-prediction"),
            reports.iter().map(|r| r.failures()).sum::<usize>()
        )
    }

    fn to_json(&self, arch: Architecture) -> JsonValue {
        obj(vec![
            ("arch", arch.name().into()),
            ("capacity_lines", self.capacity_lines.into()),
            ("line_bytes", self.line_bytes.into()),
            ("functions", self.rows.len().into()),
            ("tp", self.verdict_count("predicted-abort-and-aborted").into()),
            ("tn", self.verdict_count("predicted-safe-and-safe").into()),
            ("over", self.verdict_count("over-prediction").into()),
            ("under", self.verdict_count("under-prediction").into()),
            ("unexplained", self.unexplained_under_predictions().into()),
            ("rows", JsonValue::Array(self.rows.iter().map(AbortsFnRow::to_json).collect())),
            ("sites", JsonValue::Array(self.sites.iter().map(AbortSite::to_json).collect())),
        ])
    }

    fn failures(&self) -> usize {
        self.unexplained_under_predictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hot loop whose write set provably overflows the 256KB ROT write
    /// cache — the trip count is a compile-time constant, so the estimator
    /// must predict the overflow and the run must take capacity aborts: a
    /// true positive.
    const OVERFLOW_SRC: &str = "
        var a = new Array(40000);
        function smash() {
            var s = 0;
            for (var i = 0; i < 40000; i++) { a[i] = i; s += i; }
            return s;
        }
        function run() { return smash(); }
    ";

    /// The same overflow with a runtime-valued loop bound: the estimator's
    /// lower bound only engages on constant trips, so it cannot predict
    /// this abort — an under-prediction, explained as `unproven-trip`.
    const UNPROVEN_SRC: &str = "
        var N = 40000;
        var a = new Array(N);
        function smash(seed) {
            var s = 0;
            for (var i = 0; i < N; i++) { a[i] = (i ^ seed) & 1023; s += i; }
            return s;
        }
        function run() { return smash(7); }
    ";

    /// A small, bounded loop: no overflow predicted, none observed.
    const SAFE_SRC: &str = "
        var a = new Array(64);
        function tiny() {
            var s = 0;
            for (var i = 0; i < 64; i++) { a[i] = i; s += i; }
            return s;
        }
        function run() { return tiny(); }
    ";

    #[test]
    fn overflow_workload_is_a_true_positive_with_blame_sites() {
        let report = AbortsReport::from_source(OVERFLOW_SRC, Architecture::NoMap, 150).unwrap();
        let smash = report
            .rows
            .iter()
            .find(|r| r.name == "smash")
            .expect("smash has transactional activity");
        assert_eq!(smash.verdict, "predicted-abort-and-aborted", "{}", smash.render());
        assert!(smash.capacity > 0);
        assert!(smash.ladder_steps > 0);
        assert!(smash.predicted_abort);
        assert!(smash.advice.starts_with("tile("), "{}", smash.render());
        assert!(smash.est_lines > report.capacity_lines, "{}", smash.render());
        // Capacity aborts carry a concrete fault site.
        let capacity_sites: Vec<_> =
            report.sites.iter().filter(|s| s.reason == "capacity").collect();
        assert!(!capacity_sites.is_empty());
        for s in &capacity_sites {
            assert!(s.set.is_some(), "{}", s.render());
            assert!(s.set_ways > 0);
            assert!(s.write_lines > 0);
            assert_eq!(s.write_bytes, s.write_lines * report.line_bytes);
        }
        assert_eq!(report.unexplained_under_predictions(), 0, "{}", report.render(10));
    }

    #[test]
    fn runtime_bounded_overflow_is_an_explained_under_prediction() {
        let report = AbortsReport::from_source(UNPROVEN_SRC, Architecture::NoMap, 150).unwrap();
        let smash = report
            .rows
            .iter()
            .find(|r| r.name == "smash")
            .expect("smash has transactional activity");
        assert_eq!(smash.verdict, "under-prediction", "{}", smash.render());
        assert!(!smash.predicted_abort);
        assert!(smash.capacity > 0);
        assert_eq!(smash.advice, "keep", "{}", smash.render());
        assert!(smash.unproven_loops > 0, "{}", smash.render());
        assert_eq!(smash.explanation.as_deref(), Some("unproven-trip"), "{}", smash.render());
        assert_eq!(report.unexplained_under_predictions(), 0, "{}", report.render(10));
    }

    #[test]
    fn safe_workload_is_a_true_negative() {
        let report = AbortsReport::from_source(SAFE_SRC, Architecture::NoMap, 150).unwrap();
        let tiny =
            report.rows.iter().find(|r| r.name == "tiny").expect("tiny commits transactions");
        assert_eq!(tiny.verdict, "predicted-safe-and-safe", "{}", tiny.render());
        assert!(tiny.commits > 0);
        assert_eq!(tiny.capacity, 0);
        assert_eq!(report.unexplained_under_predictions(), 0);
    }

    #[test]
    fn report_renders_and_serializes_stably() {
        let report = AbortsReport::from_source(OVERFLOW_SRC, Architecture::NoMap, 100).unwrap();
        let text = report.render(5);
        assert!(text.starts_with("== calibration"));
        assert!(text.contains("== per-abort blame"));
        assert!(text.trim_end().ends_with(&format!("aborts: {}", report.summary())));
        let json = report.to_json(Architecture::NoMap).render();
        for key in ["\"arch\"", "\"capacity_lines\"", "\"rows\"", "\"sites\"", "\"unexplained\""] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn rtm_runs_report_read_footprints() {
        let report = AbortsReport::from_source(OVERFLOW_SRC, Architecture::NoMapRtm, 150).unwrap();
        // RTM tracks the read set; committed or aborted transactions of the
        // hot function must surface a nonzero read footprint somewhere.
        let any_read = report.rows.iter().any(|r| r.commit_read_max > 0 || r.abort_read_max > 0)
            || report.sites.iter().any(|s| s.read_bytes > 0);
        assert!(any_read, "{}", report.render(10));
    }
}

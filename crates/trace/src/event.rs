//! Structured lifecycle events emitted by the VM.
//!
//! Every observable point in a run — tier-up compilation, OSR
//! deoptimization, transaction begin/commit/abort, §V-C ladder steps and
//! optimizer-pass outcomes — is one [`TraceEvent`]. Events are plain data:
//! they can be buffered, rendered as a human-readable timeline, or
//! serialized as JSON Lines (schema [`SCHEMA_VERSION`]).

use nomap_machine::{AbortReason, CheckKind, Tier};

use crate::json::{obj, JsonValue};

/// JSONL schema version stamped on every serialized event. Bump when event
/// fields change incompatibly. (v2 added the `verify` event; v3 added the
/// `cycle-region` attribution event and the stream header line written by
/// [`crate::JsonlSink`]; v4 added the `check-verdict` event carrying the
/// proof-carrying check-elision tallies of one compilation; v5 added the
/// `fleet-summary` scheduling event emitted by sharded corpus/bench runs;
/// v6 added the `host-span` event carrying merged host wall-clock /
/// allocation telemetry from the `nomap-hostprof` observatory; v7 added
/// the `tx-abort-blame` forensics event — faulting address / cache set /
/// set occupancy and read/write footprints at the point of failure,
/// attributed to function × tier × bytecode pc — and the
/// `read_footprint_bytes` member of `tx-commit`; v8 added the `conflict`
/// abort reason and the `conflict_agent` member of `tx-abort` /
/// `tx-abort-blame` identifying the agent whose in-flight speculative
/// write the aborting access collided with.)
pub const SCHEMA_VERSION: u32 = 8;

/// One VM lifecycle event.
///
/// `seq` (assigned by the tracer) and `cycles` (total cycles at emission)
/// order events; both are deterministic across runs of the same program.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A function was compiled by a tier (Interp→Baseline→DFG→FTL tier-up,
    /// or an FTL recompile after a ladder step / profile correction).
    TierUp {
        /// Function id.
        func: u32,
        /// Function name.
        name: String,
        /// Tier that compiled.
        tier: Tier,
        /// Compile "cost": static machine instructions emitted.
        code_len: usize,
        /// Transaction scope the code was compiled at (FTL under a
        /// transactional architecture only), e.g. `"Nest"`.
        scope: Option<String>,
        /// True for the transaction-aware callee variant.
        txn_callee: bool,
    },
    /// An OSR exit (deoptimization) to the Baseline tier (§III-A2).
    Deopt {
        /// Function id.
        func: u32,
        /// Function name.
        name: String,
        /// Stack-map-point id taken.
        smp: u32,
        /// Bytecode offset the Baseline frame resumes at.
        bc: u32,
        /// The check kind that fired.
        kind: CheckKind,
    },
    /// An outermost transaction began.
    TxBegin {
        /// Function owning the transaction.
        func: u32,
        /// Function name.
        name: String,
    },
    /// An outermost transaction committed.
    TxCommit {
        /// Function owning the transaction.
        func: u32,
        /// Write footprint in bytes (distinct lines × line size).
        footprint_bytes: u64,
        /// Read footprint in bytes (schema v7; nonzero only when the HTM
        /// bounds reads, i.e. RTM).
        read_footprint_bytes: u64,
        /// Peak speculative ways demanded of any one cache set.
        max_assoc: u32,
        /// Dynamic instructions executed inside the transaction.
        instructions: u64,
    },
    /// A transaction aborted.
    TxAbort {
        /// Function owning the transaction (`None` when the owner frame is
        /// not on the stack, e.g. a guest error unwound it).
        func: Option<u32>,
        /// Why it aborted.
        reason: AbortReason,
        /// Write footprint in bytes at the moment of the abort.
        footprint_bytes: u64,
        /// Buffered writes rolled back.
        undone_words: u64,
        /// Dynamic instructions executed inside the doomed transaction.
        instructions: u64,
    },
    /// Per-abort blame forensics (schema v7), emitted immediately after
    /// the `tx-abort` it explains: the faulting access (capacity aborts
    /// only), the victim set's speculative occupancy, the read/write
    /// footprints at the point of failure, and the attribution to
    /// function × tier × bytecode pc plus the §V-C ladder attempt.
    TxAbortBlame {
        /// Function owning the transaction (`None` when unowned).
        func: Option<u32>,
        /// Owner function name (`"«other»"` when unowned).
        name: String,
        /// Tier of the code that was executing at the abort.
        tier: Tier,
        /// Bytecode pc of the transaction's fallback entry.
        bc: u32,
        /// Why it aborted.
        reason: AbortReason,
        /// Transaction scope the owner's code ran at, e.g. `"Nest"`.
        scope: String,
        /// §V-C ladder attempt number (1 = first capacity abort).
        attempt: u32,
        /// Word address of the faulting access (capacity aborts only).
        word_addr: Option<u64>,
        /// Cache line (tag address) of the faulting access.
        line: Option<u64>,
        /// Index of the overflowed cache set.
        set: Option<u64>,
        /// Speculative lines the victim set was asked to hold, counting
        /// the faulting one (0 when there is no fault site).
        set_ways: u32,
        /// True when the faulting access was a read (RTM read-set
        /// overflow) rather than a write.
        read_fault: bool,
        /// Distinct lines in the write set at the fault.
        write_lines: u64,
        /// Write footprint in bytes at the fault.
        write_bytes: u64,
        /// Distinct lines in the read set at the fault (RTM only).
        read_lines: u64,
        /// Read footprint in bytes at the fault.
        read_bytes: u64,
        /// Dynamic instructions executed inside the doomed transaction.
        instructions: u64,
    },
    /// A §V-C transaction-scope ladder step after a capacity abort.
    LadderStep {
        /// Function whose FTL code is being rescoped.
        func: u32,
        /// Function name.
        name: String,
        /// Scope before the step, e.g. `"Nest"`.
        from: String,
        /// Scope after the step, e.g. `"Inner"`.
        to: String,
        /// Whether the overflowing transaction contained a call (which
        /// removes the transaction entirely).
        saw_call: bool,
    },
    /// FTL code was invalidated for recompilation because repeated check
    /// aborts showed its speculation was stale.
    Recompile {
        /// Function being recompiled.
        func: u32,
        /// Function name.
        name: String,
        /// Check-caused aborts that triggered the recompile.
        check_aborts: u32,
    },
    /// One pass-sanitized (audited) compilation's verifier outcome.
    Verify {
        /// Function compiled.
        func: u32,
        /// Function name.
        name: String,
        /// Verification stages that ran (post-build, post-placement,
        /// after each pass, bounds TV, final, ...).
        stages: usize,
        /// Findings across all stages, warnings included.
        diagnostics: usize,
        /// True when no *error* diagnostics fired.
        clean: bool,
        /// Scope chosen by footprint-based seeding when it differs from
        /// the requested one, e.g. `"InnerTiled(64)"`.
        seeded_scope: Option<String>,
    },
    /// Cycle-attribution summary for one profiler region (schema v3).
    ///
    /// Emitted when the VM flushes its cycle-attribution profile: one event
    /// per (function × tier × region-kind) scope, carrying the cycles the
    /// ledger charged to it. The sum over all `cycle-region` events of one
    /// flush equals `ExecStats::total_cycles()` for the profiled window.
    CycleRegion {
        /// Function id (`u32::MAX` = the explicit "other" bucket).
        func: u32,
        /// Function name (`"«other»"` for the other bucket).
        name: String,
        /// Tier the cycles were spent in.
        tier: Tier,
        /// Region kind name (`main`, `txn-body`, `txn-retry-ladder`,
        /// `compile`, `deopt-replay`, `check:<kind>`, `other`).
        region: String,
        /// Cycles attributed to this scope.
        cycles: u64,
    },
    /// Optimizer-pass outcomes for one FTL compilation (§IV-C).
    PassOutcome {
        /// Function compiled.
        func: u32,
        /// Function name.
        name: String,
        /// Transactions placed around loops.
        transactions_placed: usize,
        /// Deopt-mode checks converted to transaction aborts.
        checks_to_aborts: usize,
        /// Bounds checks removed by combining (§IV-C1).
        bounds_combined: usize,
        /// Overflow checks removed via SOF (§IV-C2).
        overflow_removed: usize,
    },
    /// Static check-elision verdicts for one compilation (schema v4): what
    /// the abstract interpreter decided about every reachable check in the
    /// function, and how many checks it deleted. The static half of the
    /// check census (`nomap prove --census` joins these against dynamic
    /// `check:<kind>` cycle tallies).
    CheckVerdict {
        /// Function compiled.
        func: u32,
        /// Function name.
        name: String,
        /// Tier the verdicts apply to.
        tier: Tier,
        /// Checks proved infeasible (and elided).
        proved_safe: u32,
        /// Checks proved to fire on every execution reaching them.
        proved_fail: u32,
        /// Checks the analysis could not decide.
        unknown: u32,
        /// Checks deleted from the compiled code.
        elided: u32,
    },
    /// Scheduling telemetry for one sharded fleet run (schema v5).
    ///
    /// Emitted once per `nomap-fleet` run by the corpus and bench binaries.
    /// Everything in it is wall-clock or scheduling dependent, so the
    /// binaries keep it on stderr / the JSONL artifact — never in
    /// byte-diffed stdout.
    FleetSummary {
        /// Worker threads used.
        jobs: u64,
        /// Shards submitted.
        shards: u64,
        /// Shards that failed after retries.
        failed: u64,
        /// Shards that needed more than one attempt.
        retried: u64,
        /// Whole-run wall time in nanoseconds.
        wall_ns: u64,
        /// Peak shards in flight at once.
        peak_occupancy: u64,
        /// Per-shard wall time in nanoseconds, canonical shard order.
        shard_wall_ns: Vec<u64>,
    },
    /// Merged host-side span telemetry from the `nomap-hostprof`
    /// observatory (schema v6): one event per span path, after the run.
    ///
    /// `wall_ns` is host wall clock and therefore nondeterministic; like
    /// `fleet-summary`, emitters keep these events on stderr / the JSONL
    /// artifact, never in byte-diffed stdout.
    HostSpan {
        /// `/`-joined span path, e.g. `workload:S01/compile:ftl/pass:gvn`.
        path: String,
        /// Times the span was entered.
        count: u64,
        /// Inclusive wall-clock nanoseconds.
        wall_ns: u64,
        /// Inclusive host allocation count (deterministic).
        allocs: u64,
        /// Inclusive host bytes requested (deterministic).
        alloc_bytes: u64,
    },
}

/// Names a tier for rendering/serialization.
pub fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Interpreter => "interpreter",
        Tier::Baseline => "baseline",
        Tier::Dfg => "dfg",
        Tier::Ftl => "ftl",
        Tier::Runtime => "runtime",
    }
}

/// Names a check kind for rendering/serialization (delegates to the
/// canonical `nomap_machine::check_kind_key` table).
pub fn check_name(kind: CheckKind) -> &'static str {
    nomap_machine::check_kind_key(kind)
}

/// How the text rendering names an abort: its bookkeeping key, with the
/// conflicting agent for conflict aborts.
fn abort_label(reason: AbortReason) -> String {
    match reason {
        AbortReason::Conflict { agent } => format!("conflict:a{agent}"),
        other => nomap_machine::abort_reason_key(other),
    }
}

impl TraceEvent {
    /// Short event-type tag (stable; used as the JSONL `ev` member and the
    /// metrics counter key).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TierUp { .. } => "tier-up",
            TraceEvent::Deopt { .. } => "deopt",
            TraceEvent::TxBegin { .. } => "tx-begin",
            TraceEvent::TxCommit { .. } => "tx-commit",
            TraceEvent::TxAbort { .. } => "tx-abort",
            TraceEvent::TxAbortBlame { .. } => "tx-abort-blame",
            TraceEvent::LadderStep { .. } => "ladder-step",
            TraceEvent::Recompile { .. } => "recompile",
            TraceEvent::Verify { .. } => "verify",
            TraceEvent::CycleRegion { .. } => "cycle-region",
            TraceEvent::PassOutcome { .. } => "pass-outcome",
            TraceEvent::CheckVerdict { .. } => "check-verdict",
            TraceEvent::FleetSummary { .. } => "fleet-summary",
            TraceEvent::HostSpan { .. } => "host-span",
        }
    }

    /// Serializes the event (with its envelope) as one JSON object.
    pub fn to_json(&self, seq: u64, cycles: u64) -> JsonValue {
        let mut m: Vec<(&str, JsonValue)> = vec![
            ("v", SCHEMA_VERSION.into()),
            ("seq", seq.into()),
            ("cycles", cycles.into()),
            ("ev", self.kind().into()),
        ];
        match self {
            TraceEvent::TierUp { func, name, tier, code_len, scope, txn_callee } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("tier", tier_name(*tier).into()));
                m.push(("code_len", (*code_len).into()));
                match scope {
                    Some(s) => m.push(("scope", s.as_str().into())),
                    None => m.push(("scope", JsonValue::Null)),
                }
                if *txn_callee {
                    m.push(("txn_callee", true.into()));
                }
            }
            TraceEvent::Deopt { func, name, smp, bc, kind } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("smp", (*smp).into()));
                m.push(("bc", (*bc).into()));
                m.push(("kind", check_name(*kind).into()));
            }
            TraceEvent::TxBegin { func, name } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
            }
            TraceEvent::TxCommit {
                func,
                footprint_bytes,
                read_footprint_bytes,
                max_assoc,
                instructions,
            } => {
                m.push(("func", (*func).into()));
                m.push(("footprint_bytes", (*footprint_bytes).into()));
                m.push(("read_footprint_bytes", (*read_footprint_bytes).into()));
                m.push(("max_assoc", (*max_assoc).into()));
                m.push(("instructions", (*instructions).into()));
            }
            TraceEvent::TxAbort { func, reason, footprint_bytes, undone_words, instructions } => {
                match func {
                    Some(f) => m.push(("func", (*f).into())),
                    None => m.push(("func", JsonValue::Null)),
                }
                m.push(("reason", nomap_machine::abort_reason_class(*reason).into()));
                if let AbortReason::Check(kind) = reason {
                    m.push(("check", check_name(*kind).into()));
                }
                if let AbortReason::Conflict { agent } = reason {
                    m.push(("conflict_agent", (*agent).into()));
                }
                m.push(("footprint_bytes", (*footprint_bytes).into()));
                m.push(("undone_words", (*undone_words).into()));
                m.push(("instructions", (*instructions).into()));
            }
            TraceEvent::TxAbortBlame {
                func,
                name,
                tier,
                bc,
                reason,
                scope,
                attempt,
                word_addr,
                line,
                set,
                set_ways,
                read_fault,
                write_lines,
                write_bytes,
                read_lines,
                read_bytes,
                instructions,
            } => {
                match func {
                    Some(f) => m.push(("func", (*f).into())),
                    None => m.push(("func", JsonValue::Null)),
                }
                m.push(("name", name.as_str().into()));
                m.push(("tier", tier_name(*tier).into()));
                m.push(("bc", (*bc).into()));
                m.push(("reason", nomap_machine::abort_reason_class(*reason).into()));
                if let AbortReason::Check(kind) = reason {
                    m.push(("check", check_name(*kind).into()));
                }
                if let AbortReason::Conflict { agent } = reason {
                    m.push(("conflict_agent", (*agent).into()));
                }
                m.push(("scope", scope.as_str().into()));
                m.push(("attempt", (*attempt).into()));
                m.push(("word_addr", word_addr.map_or(JsonValue::Null, Into::into)));
                m.push(("line", line.map_or(JsonValue::Null, Into::into)));
                m.push(("set", set.map_or(JsonValue::Null, Into::into)));
                m.push(("set_ways", (*set_ways).into()));
                if *read_fault {
                    m.push(("read_fault", true.into()));
                }
                m.push(("write_lines", (*write_lines).into()));
                m.push(("write_bytes", (*write_bytes).into()));
                m.push(("read_lines", (*read_lines).into()));
                m.push(("read_bytes", (*read_bytes).into()));
                m.push(("instructions", (*instructions).into()));
            }
            TraceEvent::LadderStep { func, name, from, to, saw_call } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("from", from.as_str().into()));
                m.push(("to", to.as_str().into()));
                m.push(("saw_call", (*saw_call).into()));
            }
            TraceEvent::Recompile { func, name, check_aborts } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("check_aborts", (*check_aborts).into()));
            }
            TraceEvent::Verify { func, name, stages, diagnostics, clean, seeded_scope } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("stages", (*stages).into()));
                m.push(("diagnostics", (*diagnostics).into()));
                m.push(("clean", (*clean).into()));
                match seeded_scope {
                    Some(s) => m.push(("seeded_scope", s.as_str().into())),
                    None => m.push(("seeded_scope", JsonValue::Null)),
                }
            }
            TraceEvent::CycleRegion { func, name, tier, region, cycles } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("tier", tier_name(*tier).into()));
                m.push(("region", region.as_str().into()));
                m.push(("region_cycles", (*cycles).into()));
            }
            TraceEvent::PassOutcome {
                func,
                name,
                transactions_placed,
                checks_to_aborts,
                bounds_combined,
                overflow_removed,
            } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("transactions_placed", (*transactions_placed).into()));
                m.push(("checks_to_aborts", (*checks_to_aborts).into()));
                m.push(("bounds_combined", (*bounds_combined).into()));
                m.push(("overflow_removed", (*overflow_removed).into()));
            }
            TraceEvent::CheckVerdict {
                func,
                name,
                tier,
                proved_safe,
                proved_fail,
                unknown,
                elided,
            } => {
                m.push(("func", (*func).into()));
                m.push(("name", name.as_str().into()));
                m.push(("tier", tier_name(*tier).into()));
                m.push(("proved_safe", (*proved_safe).into()));
                m.push(("proved_fail", (*proved_fail).into()));
                m.push(("unknown", (*unknown).into()));
                m.push(("elided", (*elided).into()));
            }
            TraceEvent::FleetSummary {
                jobs,
                shards,
                failed,
                retried,
                wall_ns,
                peak_occupancy,
                shard_wall_ns,
            } => {
                m.push(("jobs", (*jobs).into()));
                m.push(("shards", (*shards).into()));
                m.push(("failed", (*failed).into()));
                m.push(("retried", (*retried).into()));
                m.push(("wall_ns", (*wall_ns).into()));
                m.push(("peak_occupancy", (*peak_occupancy).into()));
                m.push((
                    "shard_wall_ns",
                    JsonValue::Array(shard_wall_ns.iter().map(|&ns| ns.into()).collect()),
                ));
            }
            TraceEvent::HostSpan { path, count, wall_ns, allocs, alloc_bytes } => {
                m.push(("path", path.as_str().into()));
                m.push(("count", (*count).into()));
                m.push(("wall_ns", (*wall_ns).into()));
                m.push(("allocs", (*allocs).into()));
                m.push(("alloc_bytes", (*alloc_bytes).into()));
            }
        }
        obj(m)
    }

    /// One-line human rendering for the `nomap trace` timeline.
    pub fn render(&self, seq: u64, cycles: u64) -> String {
        let body = match self {
            TraceEvent::TierUp { name, tier, code_len, scope, txn_callee, .. } => {
                let variant = if *txn_callee { " (txn-callee)" } else { "" };
                match scope {
                    Some(s) => format!(
                        "tier-up      {name} → {}{variant}  [{code_len} insts, scope {s}]",
                        tier_name(*tier)
                    ),
                    None => format!(
                        "tier-up      {name} → {}{variant}  [{code_len} insts]",
                        tier_name(*tier)
                    ),
                }
            }
            TraceEvent::Deopt { name, smp, bc, kind, .. } => {
                format!("deopt        {name} smp#{smp} → bc {bc}  [{} check]", check_name(*kind))
            }
            TraceEvent::TxBegin { name, .. } => format!("tx-begin     {name}"),
            TraceEvent::TxCommit {
                footprint_bytes,
                read_footprint_bytes,
                max_assoc,
                instructions,
                ..
            } => {
                let reads = if *read_footprint_bytes > 0 {
                    format!(", {read_footprint_bytes} B read")
                } else {
                    String::new()
                };
                format!(
                    "tx-commit    {instructions} insts, {footprint_bytes} B written{reads}, assoc {max_assoc}"
                )
            }
            TraceEvent::TxAbort { reason, footprint_bytes, undone_words, instructions, .. } => {
                let why = abort_label(*reason);
                format!(
                    "tx-abort     {why}  [{instructions} insts, {footprint_bytes} B footprint, {undone_words} words undone]"
                )
            }
            TraceEvent::TxAbortBlame {
                name,
                tier,
                bc,
                reason,
                scope,
                attempt,
                set,
                set_ways,
                read_fault,
                write_lines,
                write_bytes,
                read_lines,
                read_bytes,
                ..
            } => {
                let why = abort_label(*reason);
                let site = match set {
                    Some(s) => {
                        let rw = if *read_fault { "rd" } else { "wr" };
                        format!("{rw} set {s} ways {set_ways}, ")
                    }
                    None => String::new(),
                };
                format!(
                    "blame        {name}@{}:{bc} {why} #{attempt} [{scope}]  [{site}w {write_lines}L/{write_bytes}B, r {read_lines}L/{read_bytes}B]",
                    tier_name(*tier)
                )
            }
            TraceEvent::LadderStep { name, from, to, saw_call, .. } => {
                let call = if *saw_call { ", saw call" } else { "" };
                format!("ladder       {name}: {from} → {to}{call}")
            }
            TraceEvent::Recompile { name, check_aborts, .. } => {
                format!("recompile    {name} after {check_aborts} check aborts")
            }
            TraceEvent::Verify { name, stages, diagnostics, clean, seeded_scope, .. } => {
                let verdict = if *clean { "clean" } else { "DIRTY" };
                let seeded = match seeded_scope {
                    Some(s) => format!(", seeded {s}"),
                    None => String::new(),
                };
                format!(
                    "verify       {name}: {verdict}  [{stages} stages, {diagnostics} findings{seeded}]"
                )
            }
            TraceEvent::CycleRegion { name, tier, region, cycles, .. } => {
                format!("cycles       {name} [{}/{region}]  {cycles}", tier_name(*tier))
            }
            TraceEvent::PassOutcome {
                name,
                transactions_placed,
                checks_to_aborts,
                bounds_combined,
                overflow_removed,
                ..
            } => format!(
                "passes       {name}: {transactions_placed} txns, {checks_to_aborts} checks→aborts, {bounds_combined} bounds combined, {overflow_removed} overflow removed"
            ),
            TraceEvent::CheckVerdict {
                name,
                tier,
                proved_safe,
                proved_fail,
                unknown,
                elided,
                ..
            } => format!(
                "prove        {name} [{}]: {proved_safe} safe, {proved_fail} fail, {unknown} unknown, {elided} elided",
                tier_name(*tier)
            ),
            TraceEvent::FleetSummary {
                jobs,
                shards,
                failed,
                retried,
                wall_ns,
                peak_occupancy,
                ..
            } => format!(
                "fleet        {shards} shards / {jobs} jobs  [{:.1} ms, peak occupancy {peak_occupancy}, {retried} retried, {failed} failed]",
                *wall_ns as f64 / 1e6
            ),
            TraceEvent::HostSpan { path, count, wall_ns, allocs, alloc_bytes } => format!(
                "host-span    {path}  [{count}×, {:.3} ms, {allocs} allocs / {alloc_bytes} B]",
                *wall_ns as f64 / 1e6
            ),
        };
        format!("[{seq:>5}] @{cycles:<12} {body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_envelope_has_schema_and_kind() {
        let ev = TraceEvent::TxAbort {
            func: Some(3),
            reason: AbortReason::Check(CheckKind::Bounds),
            footprint_bytes: 128,
            undone_words: 4,
            instructions: 77,
        };
        let s = ev.to_json(9, 1234).render();
        assert!(s.starts_with(&format!(
            "{{\"v\":{SCHEMA_VERSION},\"seq\":9,\"cycles\":1234,\"ev\":\"tx-abort\""
        )));
        assert!(s.contains("\"reason\":\"check\""));
        assert!(s.contains("\"check\":\"bounds\""));
        assert!(s.contains("\"footprint_bytes\":128"));
    }

    #[test]
    fn tx_commit_serializes_read_footprint() {
        let ev = TraceEvent::TxCommit {
            func: 1,
            footprint_bytes: 256,
            read_footprint_bytes: 512,
            max_assoc: 2,
            instructions: 90,
        };
        let s = ev.to_json(0, 10).render();
        assert!(s.contains("\"footprint_bytes\":256"));
        assert!(s.contains("\"read_footprint_bytes\":512"));
        let line = ev.render(0, 10);
        assert!(line.contains("256 B written") && line.contains("512 B read"));
    }

    #[test]
    fn tx_abort_blame_serializes_and_renders() {
        let ev = TraceEvent::TxAbortBlame {
            func: Some(3),
            name: "smash".into(),
            tier: Tier::Ftl,
            bc: 12,
            reason: AbortReason::Capacity,
            scope: "Nest".into(),
            attempt: 2,
            word_addr: Some(0x4000),
            line: Some(0x800),
            set: Some(17),
            set_ways: 9,
            read_fault: false,
            write_lines: 9,
            write_bytes: 576,
            read_lines: 0,
            read_bytes: 0,
            instructions: 4321,
        };
        assert_eq!(ev.kind(), "tx-abort-blame");
        let s = ev.to_json(5, 777).render();
        assert!(s.contains("\"ev\":\"tx-abort-blame\""));
        assert!(s.contains("\"name\":\"smash\""));
        assert!(s.contains("\"tier\":\"ftl\""));
        assert!(s.contains("\"bc\":12"));
        assert!(s.contains("\"reason\":\"capacity\""));
        assert!(s.contains("\"scope\":\"Nest\""));
        assert!(s.contains("\"attempt\":2"));
        assert!(s.contains("\"word_addr\":16384"));
        assert!(s.contains("\"set\":17"));
        assert!(s.contains("\"set_ways\":9"));
        assert!(s.contains("\"write_lines\":9"));
        assert!(s.contains("\"write_bytes\":576"));
        assert!(!s.contains("\"read_fault\""), "write faults omit the read_fault flag");
        let line = ev.render(5, 777);
        assert!(line.contains("smash@ftl:12 capacity #2 [Nest]"));
        assert!(line.contains("wr set 17 ways 9"));
    }

    #[test]
    fn tx_abort_blame_without_fault_site_serializes_nulls() {
        let ev = TraceEvent::TxAbortBlame {
            func: None,
            name: "«other»".into(),
            tier: Tier::Baseline,
            bc: 0,
            reason: AbortReason::Check(CheckKind::Type),
            scope: "None".into(),
            attempt: 1,
            word_addr: None,
            line: None,
            set: None,
            set_ways: 0,
            read_fault: false,
            write_lines: 2,
            write_bytes: 128,
            read_lines: 0,
            read_bytes: 0,
            instructions: 10,
        };
        let s = ev.to_json(0, 0).render();
        assert!(s.contains("\"func\":null"));
        assert!(s.contains("\"word_addr\":null"));
        assert!(s.contains("\"set\":null"));
        assert!(s.contains("\"reason\":\"check\""));
        assert!(s.contains("\"check\":\"type\""));
        let line = ev.render(0, 0);
        assert!(line.contains("check:type #1"));
        assert!(!line.contains("set "), "no fault site to render");
    }

    #[test]
    fn conflict_abort_serializes_the_conflicting_agent() {
        let ev = TraceEvent::TxAbort {
            func: Some(2),
            reason: AbortReason::Conflict { agent: 3 },
            footprint_bytes: 64,
            undone_words: 1,
            instructions: 20,
        };
        let s = ev.to_json(0, 100).render();
        assert!(s.contains("\"reason\":\"conflict\""));
        assert!(s.contains("\"conflict_agent\":3"));
        assert!(!s.contains("\"check\""));
        assert!(ev.render(0, 100).contains("conflict:a3"));

        let blame = TraceEvent::TxAbortBlame {
            func: Some(2),
            name: "step".into(),
            tier: Tier::Ftl,
            bc: 4,
            reason: AbortReason::Conflict { agent: 1 },
            scope: "Nest".into(),
            attempt: 1,
            word_addr: Some(0x9000),
            line: Some(0x240),
            set: Some(4),
            set_ways: 0,
            read_fault: true,
            write_lines: 1,
            write_bytes: 64,
            read_lines: 0,
            read_bytes: 0,
            instructions: 55,
        };
        let s = blame.to_json(1, 200).render();
        assert!(s.contains("\"ev\":\"tx-abort-blame\""));
        assert!(s.contains("\"reason\":\"conflict\""));
        assert!(s.contains("\"conflict_agent\":1"));
        assert!(s.contains("\"word_addr\":36864"));
        let line = blame.render(1, 200);
        assert!(line.contains("conflict:a1 #1 [Nest]"));
        assert!(line.contains("rd set 4 ways 0"));
    }

    #[test]
    fn verify_event_serializes_and_renders() {
        let ev = TraceEvent::Verify {
            func: 4,
            name: "hot".into(),
            stages: 17,
            diagnostics: 1,
            clean: true,
            seeded_scope: Some("InnerTiled(64)".into()),
        };
        assert_eq!(ev.kind(), "verify");
        let s = ev.to_json(2, 50).render();
        assert!(s.contains("\"ev\":\"verify\""));
        assert!(s.contains("\"stages\":17"));
        assert!(s.contains("\"clean\":true"));
        assert!(s.contains("\"seeded_scope\":\"InnerTiled(64)\""));
        let line = ev.render(2, 50);
        assert!(line.contains("hot: clean") && line.contains("seeded InnerTiled(64)"));
    }

    #[test]
    fn cycle_region_serializes_and_renders() {
        let ev = TraceEvent::CycleRegion {
            func: 7,
            name: "smash".into(),
            tier: Tier::Ftl,
            region: "txn-body".into(),
            cycles: 123456,
        };
        assert_eq!(ev.kind(), "cycle-region");
        let s = ev.to_json(0, 999).render();
        assert!(s.contains("\"ev\":\"cycle-region\""));
        assert!(s.contains("\"tier\":\"ftl\""));
        assert!(s.contains("\"region\":\"txn-body\""));
        assert!(s.contains("\"region_cycles\":123456"));
        let line = ev.render(0, 999);
        assert!(line.contains("smash") && line.contains("ftl/txn-body") && line.contains("123456"));
    }

    #[test]
    fn check_verdict_serializes_and_renders() {
        let ev = TraceEvent::CheckVerdict {
            func: 5,
            name: "sum".into(),
            tier: Tier::Dfg,
            proved_safe: 2,
            proved_fail: 0,
            unknown: 3,
            elided: 2,
        };
        assert_eq!(ev.kind(), "check-verdict");
        let s = ev.to_json(1, 42).render();
        assert!(s.contains("\"ev\":\"check-verdict\""));
        assert!(s.contains("\"tier\":\"dfg\""));
        assert!(s.contains("\"proved_safe\":2"));
        assert!(s.contains("\"unknown\":3"));
        assert!(s.contains("\"elided\":2"));
        let line = ev.render(1, 42);
        assert!(line.contains("sum [dfg]") && line.contains("2 elided"));
    }

    #[test]
    fn fleet_summary_serializes_and_renders() {
        let ev = TraceEvent::FleetSummary {
            jobs: 4,
            shards: 51,
            failed: 1,
            retried: 2,
            wall_ns: 5_000_000,
            peak_occupancy: 4,
            shard_wall_ns: vec![1_000, 2_000],
        };
        assert_eq!(ev.kind(), "fleet-summary");
        let s = ev.to_json(0, 0).render();
        assert!(s.contains("\"ev\":\"fleet-summary\""));
        assert!(s.contains("\"jobs\":4"));
        assert!(s.contains("\"shards\":51"));
        assert!(s.contains("\"peak_occupancy\":4"));
        assert!(s.contains("\"shard_wall_ns\":[1000,2000]"));
        let line = ev.render(0, 0);
        assert!(line.contains("51 shards / 4 jobs") && line.contains("1 failed"));
    }

    #[test]
    fn host_span_serializes_and_renders() {
        let ev = TraceEvent::HostSpan {
            path: "workload:S01/compile:ftl/pass:gvn".into(),
            count: 3,
            wall_ns: 2_500_000,
            allocs: 120,
            alloc_bytes: 65536,
        };
        assert_eq!(ev.kind(), "host-span");
        let s = ev.to_json(0, 0).render();
        assert!(s.contains("\"ev\":\"host-span\""));
        assert!(s.contains("\"path\":\"workload:S01/compile:ftl/pass:gvn\""));
        assert!(s.contains("\"wall_ns\":2500000"));
        assert!(s.contains("\"allocs\":120"));
        assert!(s.contains("\"alloc_bytes\":65536"));
        let line = ev.render(0, 0);
        assert!(line.contains("host-span") && line.contains("120 allocs / 65536 B"));
        assert!(line.contains("2.500 ms"));
    }

    #[test]
    fn render_is_one_line() {
        let ev = TraceEvent::TierUp {
            func: 0,
            name: "run".into(),
            tier: Tier::Ftl,
            code_len: 42,
            scope: Some("Nest".into()),
            txn_callee: false,
        };
        let line = ev.render(1, 10);
        assert!(!line.contains('\n'));
        assert!(line.contains("run → ftl"));
    }
}

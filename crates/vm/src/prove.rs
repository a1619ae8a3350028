//! `nomap prove` — the static-vs-dynamic check census.
//!
//! The paper's Fig. 1 observation is that FTL checks almost never fail
//! dynamically; the proof-carrying elision pass (`nomap_ir::passes::
//! prove_checks`) turns a subset of that observation into theorems. The
//! census closes the loop: it profiles a real run of the guest (so the
//! dynamic `check:<kind>` tallies and deopt/abort tables are populated),
//! then recompiles every function at the DFG and FTL tiers and joins the
//! static verdicts against the dynamic counts, classifying every
//! (function × check-kind) site group as proved-safe, dynamically quiet
//! but unproved (elision headroom — the [`DiagCode::CheckQuietUnproved`]
//! warning), dynamically failing, statically proved-fail, or cold.

use std::collections::BTreeMap;

use nomap_core::{compile_dfg_with_report, compile_ftl_with_report, Architecture};
use nomap_ir::passes::PassConfig;
use nomap_ir::ProveStats;
use nomap_machine::CheckKind;
use nomap_profile::ProfileData;
use nomap_trace::{check_name, obj, JsonValue};
use nomap_verify::{DiagCode, Diagnostic};

use crate::corpus::{arch_names, CorpusReport, Warmed};
use crate::error::VmError;

/// How the census classifies one (function × check-kind) site group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusClass {
    /// The analysis proved a reachable check of this kind must *fail* —
    /// the speculation it protects is statically dead. When the group was
    /// also executed, `nomap prove` exits nonzero.
    ProvedFail,
    /// Observed failing dynamically (a deopt or check-abort fired).
    DynamicallyFailing,
    /// Every static check of this kind was proved infeasible and elided.
    ProvedSafe,
    /// Executed at runtime without a single failure, yet the analysis
    /// could not prove every check safe — candidate for a stronger
    /// abstract domain.
    QuietUnproved,
    /// Never executed in the measurement window and not fully proved.
    Cold,
}

impl CensusClass {
    /// Stable kebab-case identifier (used in text and JSON output).
    pub fn as_str(&self) -> &'static str {
        match self {
            CensusClass::ProvedFail => "proved-fail",
            CensusClass::DynamicallyFailing => "dynamically-failing",
            CensusClass::ProvedSafe => "proved-safe",
            CensusClass::QuietUnproved => "quiet-unproved",
            CensusClass::Cold => "cold",
        }
    }
}

/// One census row: all checks of one kind in one function, static verdicts
/// (summed over the DFG and FTL compilations) joined with the dynamic
/// profile. Dynamic counts are per function — the profiler does not split
/// executed checks by tier.
#[derive(Debug, Clone)]
pub struct CensusRow {
    /// Function id (the VM's function table index).
    pub func: u32,
    /// Function name.
    pub name: String,
    /// Check kind this row aggregates.
    pub kind: CheckKind,
    /// Checks proved infeasible, DFG + FTL.
    pub proved_safe: u32,
    /// Checks proved to fire on every execution reaching them.
    pub proved_fail: u32,
    /// Checks the analysis could not decide.
    pub unknown: u32,
    /// Checks actually deleted.
    pub elided: u32,
    /// Dynamic executions of this check kind in this function.
    pub executed: u64,
    /// Dynamic failures: deopts plus transaction check-aborts of this kind.
    pub failures: u64,
    /// The classification the joined evidence supports.
    pub class: CensusClass,
}

impl CensusRow {
    fn classify(&self) -> CensusClass {
        if self.proved_fail > 0 {
            CensusClass::ProvedFail
        } else if self.failures > 0 {
            CensusClass::DynamicallyFailing
        } else if self.unknown == 0 && self.proved_safe > 0 {
            CensusClass::ProvedSafe
        } else if self.executed > 0 {
            CensusClass::QuietUnproved
        } else {
            CensusClass::Cold
        }
    }

    /// One stable, aligned text line (the `--census` table body).
    pub fn render(&self) -> String {
        format!(
            "{:<16} {:<9} {:<20} {:>5} {:>5} {:>5} {:>7} {:>10} {:>9}",
            self.name,
            check_name(self.kind),
            self.class.as_str(),
            self.proved_safe,
            self.proved_fail,
            self.unknown,
            self.elided,
            self.executed,
            self.failures
        )
    }

    /// JSON object mirroring [`CensusRow::render`].
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("func", self.func.into()),
            ("name", self.name.as_str().into()),
            ("kind", check_name(self.kind).into()),
            ("class", self.class.as_str().into()),
            ("proved_safe", self.proved_safe.into()),
            ("proved_fail", self.proved_fail.into()),
            ("unknown", self.unknown.into()),
            ("elided", self.elided.into()),
            ("executed", self.executed.into()),
            ("failures", self.failures.into()),
        ])
    }
}

/// What one census pass over a program found.
#[derive(Debug, Default)]
pub struct ProveReport {
    /// Functions recompiled (each at the DFG and FTL tiers).
    pub functions: usize,
    /// Aggregate prove-pass tallies across all DFG compilations.
    pub dfg: ProveStats,
    /// Aggregate prove-pass tallies across all FTL compilations.
    pub ftl: ProveStats,
    /// Census rows, one per (function, check kind) with any static or
    /// dynamic activity, in (func, kind-index) order.
    pub rows: Vec<CensusRow>,
    /// Census findings: one [`DiagCode::CheckQuietUnproved`] warning per
    /// quiet-unproved row (all warnings — the census never errors).
    pub diagnostics: Vec<Diagnostic>,
}

impl ProveReport {
    /// Total checks deleted across both tiers.
    pub fn total_elided(&self) -> u32 {
        self.dfg.total_elided() + self.ftl.total_elided()
    }

    /// Total checks proved infeasible across both tiers.
    pub fn total_proved_safe(&self) -> u32 {
        self.dfg.total_proved_safe() + self.ftl.total_proved_safe()
    }

    /// Total undecided checks across both tiers.
    pub fn total_unknown(&self) -> u32 {
        self.dfg.total_unknown() + self.ftl.total_unknown()
    }

    /// Total checks proved to always fail across both tiers.
    pub fn total_proved_fail(&self) -> u32 {
        self.dfg.total_proved_fail() + self.ftl.total_proved_fail()
    }

    /// One-line totals summary (used with and without `--census`).
    pub fn summary(&self, arch: Architecture) -> String {
        format!(
            "prove: {} function(s) under {}: dfg {} safe / {} fail / {} unknown / {} elided; ftl {} safe / {} fail / {} unknown / {} elided",
            self.functions,
            arch.name(),
            self.dfg.total_proved_safe(),
            self.dfg.total_proved_fail(),
            self.dfg.total_unknown(),
            self.dfg.total_elided(),
            self.ftl.total_proved_safe(),
            self.ftl.total_proved_fail(),
            self.ftl.total_unknown(),
            self.ftl.total_elided()
        )
    }

    /// The full census table.
    pub fn render_census(&self) -> String {
        let mut out = format!(
            "{:<16} {:<9} {:<20} {:>5} {:>5} {:>5} {:>7} {:>10} {:>9}\n",
            "function", "kind", "class", "safe", "fail", "unkn", "elided", "executed", "failures"
        );
        for row in &self.rows {
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }
}

fn fold(into: &mut ProveStats, s: &ProveStats) {
    for i in 0..5 {
        into.proved_safe[i] += s.proved_safe[i];
        into.proved_fail[i] += s.proved_fail[i];
        into.unknown[i] += s.unknown[i];
        into.elided[i] += s.elided[i];
    }
}

/// Dynamic failures of `kind` in `func`: taken deopt sites plus
/// transaction check-aborts under the profiler's `check:<kind>` key.
fn dynamic_failures(profile: &ProfileData, func: u32, kind: CheckKind) -> u64 {
    let deopts: u64 = profile
        .deopt_sites
        .iter()
        .filter(|((f, _), site)| *f == func && site.kind == kind)
        .map(|(_, site)| site.count)
        .sum();
    let aborts =
        profile.aborts.get(&(func, format!("check:{}", check_name(kind)))).copied().unwrap_or(0);
    deopts + aborts
}

impl CorpusReport for ProveReport {
    const KIND: &'static str = "prove";
    const ARCHS: &'static [Architecture] = &[Architecture::Base, Architecture::NoMap];
    const FAILURE: &'static str = "reachable check group(s) statically proved to fail";

    /// Joins the warm-up's dynamic check tallies with the static verdicts
    /// of a DFG and an FTL recompilation of every function.
    fn analyze(w: &mut Warmed) -> Result<Self, VmError> {
        let arch = w.arch();
        let scope = w.ftl_scope();
        let vm = &mut w.vm;
        let profile = vm.profile().expect("profiling enabled").clone();
        let passes = PassConfig::ftl();
        // Recompile under the program's interprocedural summary table — the
        // same context a real run's JIT compiles use — so the census verdicts
        // reflect cross-function reasoning.
        let ipa = vm.summaries().clone();
        let mut report = ProveReport::default();
        // (func, kind index) -> [safe, fail, unknown, elided], both tiers.
        let mut sites: BTreeMap<(u32, usize), [u32; 4]> = BTreeMap::new();
        let mut names: BTreeMap<u32, String> = BTreeMap::new();
        for id in 0..vm.funcs.len() {
            let func = vm.funcs[id].clone();
            report.functions += 1;
            names.insert(id as u32, func.name.clone());

            let (_, dfg) = compile_dfg_with_report(&func, &mut vm.rt, Some(&ipa))?;
            let (_, ftl) =
                compile_ftl_with_report(&func, &mut vm.rt, arch, scope, passes, Some(&ipa))?;
            fold(&mut report.dfg, &dfg.prove);
            fold(&mut report.ftl, &ftl.prove);
            for ki in 0..5 {
                let safe = dfg.prove.proved_safe[ki] + ftl.prove.proved_safe[ki];
                let fail = dfg.prove.proved_fail[ki] + ftl.prove.proved_fail[ki];
                let unknown = dfg.prove.unknown[ki] + ftl.prove.unknown[ki];
                let elided = dfg.prove.elided[ki] + ftl.prove.elided[ki];
                if safe + fail + unknown + elided > 0 {
                    let e = sites.entry((id as u32, ki)).or_default();
                    e[0] += safe;
                    e[1] += fail;
                    e[2] += unknown;
                    e[3] += elided;
                }
            }
        }
        // Dynamically active sites that never produced a static check (e.g.
        // functions only ever executed at Baseline) still get a census row.
        for &(func, kind) in profile.checks.keys() {
            if func < vm.funcs.len() as u32 {
                sites.entry((func, kind.index())).or_default();
            }
        }

        for ((func, ki), [safe, fail, unknown, elided]) in sites {
            let kind = CheckKind::ALL[ki];
            let name = names.get(&func).cloned().unwrap_or_else(|| format!("#{func}"));
            let mut row = CensusRow {
                func,
                name,
                kind,
                proved_safe: safe,
                proved_fail: fail,
                unknown,
                elided,
                executed: profile.checks.get(&(func, kind)).copied().unwrap_or(0),
                failures: dynamic_failures(&profile, func, kind),
                class: CensusClass::Cold,
            };
            row.class = row.classify();
            if row.class == CensusClass::QuietUnproved {
                let mut d = Diagnostic::new(
                    DiagCode::CheckQuietUnproved,
                    &row.name,
                    None,
                    None,
                    format!(
                        "{} {} check(s) executed {} time(s) without failing but {} remain unproved",
                        row.unknown + row.proved_safe,
                        check_name(kind),
                        row.executed,
                        row.unknown
                    ),
                );
                d.stage = "census".to_owned();
                report.diagnostics.push(d);
            }
            report.rows.push(row);
        }
        Ok(report)
    }

    fn document(arch: Architecture) -> String {
        format!("prove_corpus_{}", arch.name().to_ascii_lowercase())
    }

    fn lines(&self, id: &str, _arch: Architecture) -> Vec<String> {
        vec![format!(
            "{id} elided={} proved_safe={} proved_fail={} unknown={}",
            self.total_elided(),
            self.total_proved_safe(),
            self.total_proved_fail(),
            self.total_unknown()
        )]
    }

    fn summary_line(archs: &[Architecture], reports: &[&Self]) -> String {
        let elided: u64 = reports.iter().map(|r| u64::from(r.total_elided())).sum();
        let with_elisions = reports.iter().filter(|r| r.total_elided() > 0).count();
        let reachable_fail: usize = reports.iter().map(|r| r.failures()).sum();
        format!(
            "proved {} workloads under {}: {elided} checks elided in {with_elisions} workloads, {reachable_fail} reachable proved-fail groups",
            reports.len(),
            arch_names(archs)
        )
    }

    fn to_json(&self, arch: Architecture) -> JsonValue {
        let tier = |s: &ProveStats| {
            obj(vec![
                ("proved_safe", s.total_proved_safe().into()),
                ("proved_fail", s.total_proved_fail().into()),
                ("unknown", s.total_unknown().into()),
                ("elided", s.total_elided().into()),
            ])
        };
        obj(vec![
            ("arch", arch.name().into()),
            ("functions", self.functions.into()),
            ("dfg", tier(&self.dfg)),
            ("ftl", tier(&self.ftl)),
            ("reachable_proved_fail", self.failures().into()),
            ("rows", JsonValue::Array(self.rows.iter().map(CensusRow::to_json).collect())),
        ])
    }

    /// Rows whose checks are statically proved to fail *and* were reached
    /// dynamically.
    fn failures(&self) -> usize {
        self.rows.iter().filter(|r| r.class == CensusClass::ProvedFail && r.executed > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
        function sum(a, n) {
            var s = 0;
            for (var i = 0; i < n; i++) { s += a[i]; }
            return s;
        }
        var data = new Array(64);
        for (var j = 0; j < 64; j++) { data[j] = j; }
        function run() { return sum(data, 64); }
    ";

    #[test]
    fn census_joins_static_and_dynamic_evidence() {
        let report = ProveReport::from_source(SRC, Architecture::NoMap, 150).unwrap();
        assert_eq!(report.failures(), 0, "unexpected reachable proved-fail rows");
        assert!(report.functions >= 3, "main + sum + run");
        assert!(!report.rows.is_empty());
        // The hot loop's checks executed; the join must see them.
        assert!(report.rows.iter().any(|r| r.executed > 0), "{:#?}", report.rows);
        // Every census diagnostic is a warning, never an error.
        assert!(report.diagnostics.iter().all(|d| !d.is_error()));
        // Rows are classified consistently with their own tallies.
        for r in &report.rows {
            assert_eq!(r.class, r.classify());
        }
    }

    #[test]
    fn counting_loop_gets_elisions_on_every_architecture() {
        let src = "
            function f(n) { var s = 0; for (var i = 0; i < n; i++) { s += i; } return s; }
            function run() { return f(200); }
        ";
        for arch in Architecture::ALL {
            let report = ProveReport::from_source(src, arch, 150).unwrap();
            assert!(report.total_elided() > 0, "{arch:?}: no elisions\n{:#?}", report.rows);
            assert_eq!(report.failures(), 0, "{arch:?}");
        }
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let report = ProveReport::from_source(SRC, Architecture::NoMap, 50).unwrap();
        let json = report.to_json(Architecture::NoMap).render();
        for key in ["\"arch\"", "\"functions\"", "\"dfg\"", "\"ftl\"", "\"rows\"", "\"class\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.render_census();
        assert!(text.starts_with("function"));
        assert!(report.summary(Architecture::NoMap).starts_with("prove:"));
    }

    #[test]
    fn prove_rejects_bad_source() {
        assert!(matches!(
            ProveReport::from_source("function f( {", Architecture::NoMap, 0),
            Err(VmError::Compile(_))
        ));
    }
}

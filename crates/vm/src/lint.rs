//! `nomap lint` — static analysis of a MiniJS program without measuring it.
//!
//! Linting compiles every function of the program through the *audited*
//! tier pipelines (DFG, FTL at the architecture's transaction scope, and
//! the transaction-aware callee variant) with the full `nomap-verify`
//! gauntlet between every stage, and collects the structured diagnostics.
//! The census warm-up ([`Warmed`]) first populates the profiles, so the
//! lint sees the same speculative IR a real run would JIT — without
//! warm-up calls, unprofiled sites fall back to runtime calls and much
//! less IR exists to verify.

use nomap_core::{
    audit_summaries, compile_dfg_audited, compile_ftl_audited, compile_txn_callee_audited,
    Architecture, AuditOptions,
};
use nomap_ir::passes::PassConfig;
use nomap_trace::{obj, JsonValue};
use nomap_verify::{has_errors, Diagnostic};

use crate::corpus::{arch_names, CorpusReport, Warmed};
use crate::error::VmError;

/// What one lint pass over a program found.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Functions analyzed (audited compilations may be several per
    /// function: DFG + FTL + callee variant).
    pub functions: usize,
    /// Total verification stages run across all compilations.
    pub stages: usize,
    /// Every finding, warnings included, in function order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no *error* diagnostics fired (warnings allowed).
    pub fn clean(&self) -> bool {
        !has_errors(&self.diagnostics)
    }

    /// Error findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }
}

/// One diagnostic as a JSON object (`nomap lint --json` prints one per
/// line).
pub fn diagnostic_json(d: &Diagnostic) -> JsonValue {
    obj(vec![
        ("code", d.code.as_str().into()),
        ("severity", if d.is_error() { "error".into() } else { "warning".into() }),
        ("func", d.func.as_str().into()),
        ("stage", d.stage.as_str().into()),
        ("block", d.block.map_or(JsonValue::Null, |b| b.0.into())),
        ("value", d.value.map_or(JsonValue::Null, |v| v.0.into())),
        ("message", d.message.as_str().into()),
    ])
}

impl CorpusReport for LintReport {
    const KIND: &'static str = "lint";
    const ARCHS: &'static [Architecture] =
        &[Architecture::NoMap, Architecture::NoMapRtm, Architecture::NoMapBc];
    const FAILURE: &'static str = "error diagnostic(s)";

    /// Lints every function, audited at every tier. Verifier findings are
    /// the report's payload, not errors.
    fn analyze(w: &mut Warmed) -> Result<Self, VmError> {
        let arch = w.arch();
        let scope = w.ftl_scope();
        let vm = &mut w.vm;
        // seed_scope runs the footprint estimator too, so guaranteed
        // capacity aborts surface as warnings in the report.
        let opts = AuditOptions { verify: true, seed_scope: true };
        let passes = PassConfig::ftl();
        let mut report = LintReport::default();

        // The interprocedural summary table every compile below consults
        // is itself translation-validated first (stage `ipa-tv`).
        let ipa = vm.summaries().clone();
        report.stages += 1;
        report.diagnostics.extend(audit_summaries(&vm.program, &ipa));

        for id in 0..vm.funcs.len() {
            let func = vm.funcs[id].clone();
            report.functions += 1;

            let dfg = compile_dfg_audited(&func, &mut vm.rt, opts, Some(&ipa))?;
            report.stages += dfg.stages;
            report.diagnostics.extend(dfg.diagnostics);

            let ftl =
                compile_ftl_audited(&func, &mut vm.rt, arch, scope, passes, opts, Some(&ipa))?;
            report.stages += ftl.stages;
            report.diagnostics.extend(ftl.diagnostics);

            if arch.uses_transactions() {
                let callee =
                    compile_txn_callee_audited(&func, &mut vm.rt, arch, passes, opts, Some(&ipa))?;
                report.stages += callee.stages;
                report.diagnostics.extend(callee.diagnostics);
            }
        }
        Ok(report)
    }

    fn document(arch: Architecture) -> String {
        format!("lint_{}", arch.name().to_ascii_lowercase())
    }

    fn lines(&self, id: &str, _arch: Architecture) -> Vec<String> {
        self.errors().map(|d| format!("{id}: {d}")).collect()
    }

    fn summary_line(archs: &[Architecture], reports: &[&Self]) -> String {
        let stages: usize = reports.iter().map(|r| r.stages).sum();
        let errors: usize = reports.iter().map(|r| r.failures()).sum();
        let findings: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
        format!(
            "linted {} workloads under {}: {stages} verification stages, {errors} errors, {} warnings",
            reports.len(),
            arch_names(archs),
            findings - errors
        )
    }

    fn to_json(&self, arch: Architecture) -> JsonValue {
        obj(vec![
            ("arch", arch.name().into()),
            ("functions", self.functions.into()),
            ("stages", self.stages.into()),
            ("errors", self.failures().into()),
            (
                "diagnostics",
                JsonValue::Array(self.diagnostics.iter().map(diagnostic_json).collect()),
            ),
        ])
    }

    fn failures(&self) -> usize {
        self.errors().count()
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
    fn lint_clean_program_is_clean() {
        let report = LintReport::from_source(SRC, Architecture::NoMap, 150).unwrap();
        assert!(report.clean(), "{:?}", report.diagnostics);
        assert!(report.functions >= 2); // main + sum + run
        assert!(report.stages > 30, "only {} stages", report.stages);
    }

    #[test]
    fn lint_runs_on_every_architecture_without_warmup() {
        for arch in Architecture::ALL {
            let report = LintReport::from_source(SRC, arch, 0).unwrap();
            assert!(report.clean(), "{arch:?}: {:?}", report.diagnostics);
        }
    }

    #[test]
    fn lint_rejects_bad_source() {
        assert!(matches!(
            LintReport::from_source("function f( {", Architecture::NoMap, 0),
            Err(VmError::Compile(_))
        ));
    }
}

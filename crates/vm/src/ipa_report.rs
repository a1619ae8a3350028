//! `nomap ipa` — the interprocedural summary report and the
//! interprocedural-vs-intraprocedural verdict delta census.
//!
//! The report has three sections, all derived deterministically from the
//! program (summaries are bytecode-level and profile-independent; the
//! verdict census compiles under warmed profiles exactly like
//! `nomap prove` does):
//!
//! 1. the **call graph**: per function its direct callees, whether it is
//!    a host-reachable root (top preconditions), and whether it sits in a
//!    cyclic SCC;
//! 2. the **summary table**: return abstraction, argument preconditions,
//!    heap-effect class and clobber bit, as claimed by
//!    `nomap_ir::ipa::summarize` and validated by `ipa-tv`;
//! 3. the **verdict delta**: every function compiled twice per tier —
//!    once intraprocedurally, once under the summary table — with the
//!    elided/unknown check tallies and the §V-C seeded transaction scope
//!    side by side. The delta is the whole point of the analysis: checks
//!    that move from `unknown` to `elided`, and loops whose ladder seed
//!    climbs from "no transactions" to a strip-mined tile because their
//!    callees are provably write-bounded.

use nomap_core::{
    compile_dfg_with_report, compile_ftl_audited, compile_ftl_with_report, Architecture,
    AuditOptions,
};
use nomap_ir::passes::PassConfig;
use nomap_trace::{obj, JsonValue};

use crate::corpus::{arch_names, CorpusReport, Warmed};
use crate::error::VmError;

/// One function's row: call-graph facts, claimed summary, verdict delta.
#[derive(Debug, Clone)]
pub struct IpaFnReport {
    /// Function id (the VM's function table index).
    pub func: u32,
    /// Function name (`«main»` for the top level).
    pub name: String,
    /// Host-reachable root (top preconditions).
    pub root: bool,
    /// Member of a cyclic SCC (self-recursive or mutually recursive).
    pub recursive: bool,
    /// Direct callees (function ids, sorted).
    pub callees: Vec<u32>,
    /// Claimed return abstraction (display form).
    pub ret: String,
    /// Claimed argument preconditions (display form, one per formal).
    pub params: Vec<String>,
    /// Claimed heap-effect class (kebab-case).
    pub effect: String,
    /// May overwrite pre-existing reachable guest memory.
    pub clobbers: bool,
    /// Checks elided without / with the summary table (DFG + FTL).
    pub elided_intra: u32,
    /// See [`IpaFnReport::elided_intra`].
    pub elided_ipa: u32,
    /// Undecided checks without / with the summary table (DFG + FTL).
    pub unknown_intra: u32,
    /// See [`IpaFnReport::unknown_intra`].
    pub unknown_ipa: u32,
    /// §V-C scope the footprint estimator seeds without the table.
    pub scope_intra: String,
    /// §V-C scope seeded under the table (callee-inclusive footprints).
    pub scope_ipa: String,
}

impl IpaFnReport {
    /// One stable text line for the summary-table section.
    pub fn render_summary(&self) -> String {
        let callees: Vec<String> = self.callees.iter().map(|c| format!("f{c}")).collect();
        format!(
            "f{}:{} root={} recursive={} callees=[{}] ret={} params=[{}] effect={} clobbers={}",
            self.func,
            self.name,
            self.root,
            self.recursive,
            callees.join(","),
            self.ret,
            self.params.join(", "),
            self.effect,
            self.clobbers
        )
    }

    /// One stable text line for the verdict-delta section.
    pub fn render_delta(&self) -> String {
        format!(
            "f{}:{} elided {}->{} unknown {}->{} scope {}->{}",
            self.func,
            self.name,
            self.elided_intra,
            self.elided_ipa,
            self.unknown_intra,
            self.unknown_ipa,
            self.scope_intra,
            self.scope_ipa
        )
    }

    /// JSON object mirroring both render forms.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("func", self.func.into()),
            ("name", self.name.as_str().into()),
            ("root", self.root.into()),
            ("recursive", self.recursive.into()),
            (
                "callees",
                JsonValue::Array(self.callees.iter().map(|&c| JsonValue::from(c)).collect()),
            ),
            ("ret", self.ret.as_str().into()),
            ("params", JsonValue::Array(self.params.iter().map(|p| p.as_str().into()).collect())),
            ("effect", self.effect.as_str().into()),
            ("clobbers", self.clobbers.into()),
            ("elided_intra", self.elided_intra.into()),
            ("elided_ipa", self.elided_ipa.into()),
            ("unknown_intra", self.unknown_intra.into()),
            ("unknown_ipa", self.unknown_ipa.into()),
            ("scope_intra", self.scope_intra.as_str().into()),
            ("scope_ipa", self.scope_ipa.as_str().into()),
        ])
    }
}

/// The whole `nomap ipa` report for one program.
#[derive(Debug, Default)]
pub struct IpaReport {
    /// One row per function, in function-id order.
    pub rows: Vec<IpaFnReport>,
}

impl IpaReport {
    /// Total checks elided without the summary table.
    pub fn total_elided_intra(&self) -> u32 {
        self.rows.iter().map(|r| r.elided_intra).sum()
    }

    /// Total checks elided under the summary table.
    pub fn total_elided_ipa(&self) -> u32 {
        self.rows.iter().map(|r| r.elided_ipa).sum()
    }

    /// Total undecided checks without the summary table.
    pub fn total_unknown_intra(&self) -> u32 {
        self.rows.iter().map(|r| r.unknown_intra).sum()
    }

    /// Total undecided checks under the summary table.
    pub fn total_unknown_ipa(&self) -> u32 {
        self.rows.iter().map(|r| r.unknown_ipa).sum()
    }

    /// Functions whose §V-C seed changed under callee-inclusive
    /// footprints (typically `None` → a strip-mined tile).
    pub fn scopes_changed(&self) -> usize {
        self.rows.iter().filter(|r| r.scope_intra != r.scope_ipa).count()
    }

    /// One-line totals (the corpus census line body).
    pub fn summary(&self) -> String {
        format!(
            "elided {}->{} unknown {}->{} scopes_reseeded={}",
            self.total_elided_intra(),
            self.total_elided_ipa(),
            self.total_unknown_intra(),
            self.total_unknown_ipa(),
            self.scopes_changed()
        )
    }

    /// The full stable text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== summaries ==\n");
        for r in &self.rows {
            out.push_str(&r.render_summary());
            out.push('\n');
        }
        out.push_str("== verdict delta (intra -> ipa) ==\n");
        for r in &self.rows {
            out.push_str(&r.render_delta());
            out.push('\n');
        }
        out.push_str(&format!("ipa: {} function(s): {}\n", self.rows.len(), self.summary()));
        out
    }
}

impl CorpusReport for IpaReport {
    const KIND: &'static str = "ipa";
    const ARCHS: &'static [Architecture] = &[Architecture::NoMap];
    const FAILURE: &'static str = "interprocedural verdict regression(s)";

    /// Compiles every function twice per tier — without and with the
    /// summary table — under the warmed profiles, like `nomap prove`.
    fn analyze(w: &mut Warmed) -> Result<Self, VmError> {
        let arch = w.arch();
        let scope = w.ftl_scope();
        let vm = &mut w.vm;
        let ipa = vm.summaries().clone();
        let passes = PassConfig::ftl();
        // Footprint seeding without the verifier gauntlet: we only want
        // `scope_used`, not a sanitizer run per compile.
        let seed_opts = AuditOptions { verify: false, seed_scope: true };

        let mut report = IpaReport::default();
        for id in 0..vm.funcs.len() {
            let func = vm.funcs[id].clone();
            let fid = nomap_bytecode::FuncId(id as u32);
            let sum = ipa.get(fid).expect("every function is summarized");

            let (_, dfg_intra) = compile_dfg_with_report(&func, &mut vm.rt, None)?;
            let (_, dfg_ipa) = compile_dfg_with_report(&func, &mut vm.rt, Some(&ipa))?;
            let (_, ftl_intra) =
                compile_ftl_with_report(&func, &mut vm.rt, arch, scope, passes, None)?;
            let (_, ftl_ipa) =
                compile_ftl_with_report(&func, &mut vm.rt, arch, scope, passes, Some(&ipa))?;
            let seeded_intra =
                compile_ftl_audited(&func, &mut vm.rt, arch, scope, passes, seed_opts, None)?;
            let seeded_ipa =
                compile_ftl_audited(&func, &mut vm.rt, arch, scope, passes, seed_opts, Some(&ipa))?;

            report.rows.push(IpaFnReport {
                func: id as u32,
                name: func.name.clone(),
                root: ipa.roots.contains(&fid),
                recursive: ipa.graph.is_cyclic(ipa.graph.scc_of[&fid]),
                callees: sum.callees.iter().map(|c| c.0).collect(),
                ret: sum.ret.to_string(),
                params: sum.params.iter().map(ToString::to_string).collect(),
                effect: sum.effect.describe(),
                clobbers: sum.clobbers,
                elided_intra: dfg_intra.prove.total_elided() + ftl_intra.prove.total_elided(),
                elided_ipa: dfg_ipa.prove.total_elided() + ftl_ipa.prove.total_elided(),
                unknown_intra: dfg_intra.prove.total_unknown() + ftl_intra.prove.total_unknown(),
                unknown_ipa: dfg_ipa.prove.total_unknown() + ftl_ipa.prove.total_unknown(),
                scope_intra: format!("{:?}", seeded_intra.scope_used),
                scope_ipa: format!("{:?}", seeded_ipa.scope_used),
            });
        }
        Ok(report)
    }

    fn document(_arch: Architecture) -> String {
        "ipa_census".to_owned()
    }

    fn lines(&self, id: &str, _arch: Architecture) -> Vec<String> {
        vec![format!("{id} {}", self.summary())]
    }

    fn summary_line(archs: &[Architecture], reports: &[&Self]) -> String {
        let sum = |f: fn(&IpaReport) -> u32| reports.iter().map(|r| u64::from(f(r))).sum::<u64>();
        let improved = reports
            .iter()
            .filter(|r| r.total_elided_ipa() > r.total_elided_intra() || r.scopes_changed() > 0)
            .count();
        let reseeded: usize = reports.iter().map(|r| r.scopes_changed()).sum();
        format!(
            "ipa census: {} workloads under {}: elided {}->{} unknown {}->{} in {improved} improved workloads, {reseeded} scopes reseeded",
            reports.len(),
            arch_names(archs),
            sum(IpaReport::total_elided_intra),
            sum(IpaReport::total_elided_ipa),
            sum(IpaReport::total_unknown_intra),
            sum(IpaReport::total_unknown_ipa)
        )
    }

    fn to_json(&self, arch: Architecture) -> JsonValue {
        obj(vec![
            ("arch", arch.name().into()),
            ("functions", self.rows.len().into()),
            ("elided_intra", self.total_elided_intra().into()),
            ("elided_ipa", self.total_elided_ipa().into()),
            ("unknown_intra", self.total_unknown_intra().into()),
            ("unknown_ipa", self.total_unknown_ipa().into()),
            ("scopes_reseeded", self.scopes_changed().into()),
            ("rows", JsonValue::Array(self.rows.iter().map(IpaFnReport::to_json).collect())),
        ])
    }

    /// The summary table only ever adds facts; losing an elision or
    /// gaining an unknown under it is a monotonicity bug.
    fn failures(&self) -> usize {
        usize::from(
            self.total_elided_ipa() < self.total_elided_intra()
                || self.total_unknown_ipa() > self.total_unknown_intra(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded helper called from a hot loop: intraprocedurally the
    /// callee return is opaque and the overflowing loop would disable
    /// transactions; under summaries the return is a known constant range
    /// and the callee is pure.
    const SRC: &str = "
        function inc(x) { return x + 1; }
        function sum(n) {
            var s = 0;
            for (var i = 0; i < n; i++) { s = inc(s); }
            return s;
        }
        function run() { return sum(100); }
    ";

    #[test]
    fn delta_census_reports_every_function() {
        let report = IpaReport::from_source(SRC, Architecture::NoMap, 150).unwrap();
        assert!(report.rows.len() >= 4, "main + inc + sum + run");
        // Rows are in function-id order and the text form is stable.
        let text = report.render();
        assert!(text.starts_with("== summaries =="));
        assert!(text.contains(":inc"), "{text}");
        let inc = report.rows.iter().find(|r| r.name == "inc").unwrap();
        assert!(!inc.root, "inc is only called in-program");
        assert!(!inc.recursive);
        // Boxing/allocation modeling may charge a few fresh lines, but a
        // straight-line arithmetic helper must never be write-unbounded.
        assert_ne!(inc.effect, "writes-unbounded", "{}", inc.render_summary());
        // The IPA pass must never do worse than the intraprocedural one.
        for r in &report.rows {
            assert!(r.elided_ipa >= r.elided_intra, "{}", r.render_delta());
            assert!(r.unknown_ipa <= r.unknown_intra, "{}", r.render_delta());
        }
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let report = IpaReport::from_source(SRC, Architecture::NoMap, 50).unwrap();
        let json = report.to_json(Architecture::NoMap).render();
        for key in
            ["\"arch\"", "\"functions\"", "\"elided_ipa\"", "\"scopes_reseeded\"", "\"rows\""]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.summary().starts_with("elided "));
    }
}

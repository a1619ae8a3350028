//! `nomap memdep` — the shape-aware memory-dependence transform census.
//!
//! Reports, per function and per tier, what the `nomap_ir::memdep` stage
//! eliminated and sunk under warmed profiles, with per-check-class
//! attribution of the lifted (abort/SOF) checks each transform crossed —
//! the dynamic evidence that the transforms only fire where NoMap's
//! check lifting opened the region. Every compile runs under the full
//! verifier gauntlet, so the row also tallies `memdep-tv` translation
//! validation errors (which must be zero everywhere).
//!
//! Like `nomap prove`/`nomap ipa`, the guest top level runs once and
//! `run()` is warmed so recompilation sees realistic speculation, and the
//! report is byte-stable for a given (source, arch, warmup) triple.

use nomap_core::{
    compile_dfg_audited, compile_ftl_audited, compile_txn_callee_audited, Architecture,
    AuditOptions,
};
use nomap_ir::passes::PassConfig;
use nomap_ir::MemdepStats;
use nomap_trace::{obj, JsonValue};
use nomap_verify::Severity;

use crate::corpus::{CorpusReport, Warmed};
use crate::error::VmError;

/// Check-class labels in `CheckKind::index` order.
const CLASS_LABELS: [&str; 5] = ["bounds", "overflow", "type", "property", "other"];

fn render_classes(crossed: [u32; 5]) -> String {
    let parts: Vec<String> = CLASS_LABELS
        .iter()
        .zip(crossed.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(l, n)| format!("{l}:{n}"))
        .collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(",")
    }
}

/// One function's memory-dependence census row (DFG + FTL + transaction
/// callee, merged).
#[derive(Debug, Clone)]
pub struct MemdepFnReport {
    /// Function id (the VM's function table index).
    pub func: u32,
    /// Function name (`«main»` for the top level).
    pub name: String,
    /// Merged transform stats across the compiled tiers.
    pub stats: MemdepStats,
    /// `memdep-tv` error diagnostics across the compiled tiers.
    pub tv_errors: u32,
}

impl MemdepFnReport {
    /// One stable text line.
    pub fn render(&self) -> String {
        format!(
            "f{}:{} loads={} stores={} sunk={} crossed=[{}] tv_errors={}",
            self.func,
            self.name,
            self.stats.loads_eliminated,
            self.stats.stores_eliminated,
            self.stats.stores_sunk,
            render_classes(self.stats.crossed()),
            self.tv_errors
        )
    }

    /// JSON object mirroring the render form.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("func", self.func.into()),
            ("name", self.name.as_str().into()),
            ("loads_eliminated", self.stats.loads_eliminated.into()),
            ("stores_eliminated", self.stats.stores_eliminated.into()),
            ("stores_sunk", self.stats.stores_sunk.into()),
            (
                "crossed",
                JsonValue::Array(
                    self.stats.crossed().iter().map(|&n| JsonValue::from(n)).collect(),
                ),
            ),
            ("tv_errors", self.tv_errors.into()),
        ])
    }
}

/// The whole `nomap memdep` report for one program.
#[derive(Debug, Default)]
pub struct MemdepReport {
    /// One row per function, in function-id order.
    pub rows: Vec<MemdepFnReport>,
}

impl MemdepReport {
    /// Merged stats across every function.
    pub fn totals(&self) -> MemdepStats {
        let mut t = MemdepStats::default();
        for r in &self.rows {
            t.merge(&r.stats);
        }
        t
    }

    /// Total `memdep-tv` errors (must be zero on a sound build).
    pub fn total_tv_errors(&self) -> u32 {
        self.rows.iter().map(|r| r.tv_errors).sum()
    }

    /// One-line totals (the corpus census line body).
    pub fn summary(&self) -> String {
        let t = self.totals();
        format!(
            "loads={} stores={} sunk={} crossed=[{}] tv_errors={}",
            t.loads_eliminated,
            t.stores_eliminated,
            t.stores_sunk,
            render_classes(t.crossed()),
            self.total_tv_errors()
        )
    }

    /// The full stable text report.
    pub fn render(&self) -> String {
        let mut out = String::from("== memdep transforms ==\n");
        for r in &self.rows {
            out.push_str(&r.render());
            out.push('\n');
        }
        out.push_str(&format!("memdep: {} function(s): {}\n", self.rows.len(), self.summary()));
        out
    }
}

impl CorpusReport for MemdepReport {
    const KIND: &'static str = "memdep";
    const ARCHS: &'static [Architecture] =
        &[Architecture::Base, Architecture::NoMap, Architecture::NoMapRtm, Architecture::NoMapBc];
    const FAILURE: &'static str = "memdep-tv witness(es) failed to re-derive";

    /// Compiles every function through the audited DFG and FTL pipelines
    /// (plus the transaction-callee pipeline under transactional
    /// architectures), under the same validated interprocedural summary
    /// table the real VM would use, with the verifier gauntlet on — so
    /// every eliminated load/store and sunk store in the tally has
    /// survived `memdep-tv`.
    fn analyze(w: &mut Warmed) -> Result<Self, VmError> {
        let arch = w.arch();
        let scope = w.ftl_scope();
        let vm = &mut w.vm;
        let ipa = vm.summaries().clone();
        let passes = PassConfig::ftl();
        let opts = AuditOptions { verify: true, seed_scope: false };

        let mut report = MemdepReport::default();
        for id in 0..vm.funcs.len() {
            let func = vm.funcs[id].clone();
            let mut stats = MemdepStats::default();
            let mut tv_errors = 0u32;
            let mut absorb = |audit: &nomap_core::FtlAudit| {
                stats.merge(&audit.report.memdep);
                tv_errors += audit
                    .diagnostics
                    .iter()
                    .filter(|d| d.stage == "memdep-tv" && d.severity() == Severity::Error)
                    .count() as u32;
            };
            absorb(&compile_dfg_audited(&func, &mut vm.rt, opts, Some(&ipa))?);
            absorb(&compile_ftl_audited(&func, &mut vm.rt, arch, scope, passes, opts, Some(&ipa))?);
            if arch.uses_transactions() {
                absorb(&compile_txn_callee_audited(
                    &func,
                    &mut vm.rt,
                    arch,
                    passes,
                    opts,
                    Some(&ipa),
                )?);
            }
            report.rows.push(MemdepFnReport {
                func: id as u32,
                name: func.name.clone(),
                stats,
                tv_errors,
            });
        }
        Ok(report)
    }

    fn document(_arch: Architecture) -> String {
        "memdep_census".to_owned()
    }

    fn lines(&self, id: &str, arch: Architecture) -> Vec<String> {
        vec![format!("{:<9} {id} {}", arch.name(), self.summary())]
    }

    fn summary_line(_archs: &[Architecture], reports: &[&Self]) -> String {
        let mut t = MemdepStats::default();
        reports.iter().for_each(|r| t.merge(&r.totals()));
        let crossed: Vec<String> =
            CLASS_LABELS.iter().zip(t.crossed()).map(|(l, n)| format!("{l}:{n}")).collect();
        format!(
            "memdep census: {} (arch, workload) pairs: loads={} stores={} sunk={} crossed=[{}] tv_errors={}",
            reports.len(),
            t.loads_eliminated,
            t.stores_eliminated,
            t.stores_sunk,
            crossed.join(" "),
            reports.iter().map(|r| r.failures()).sum::<usize>()
        )
    }

    fn to_json(&self, arch: Architecture) -> JsonValue {
        let t = self.totals();
        obj(vec![
            ("arch", arch.name().into()),
            ("functions", self.rows.len().into()),
            ("loads_eliminated", t.loads_eliminated.into()),
            ("stores_eliminated", t.stores_eliminated.into()),
            ("stores_sunk", t.stores_sunk.into()),
            (
                "crossed",
                JsonValue::Array(t.crossed().iter().map(|&n| JsonValue::from(n)).collect()),
            ),
            ("tv_errors", self.total_tv_errors().into()),
            ("rows", JsonValue::Array(self.rows.iter().map(MemdepFnReport::to_json).collect())),
        ])
    }

    fn failures(&self) -> usize {
        self.total_tv_errors() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hot loop whose body rereads the same field it keeps writing: the
    /// redundant load forwards, and the loop-carried store sinks onto the
    /// exit edge once the checks lift to aborts.
    const SRC: &str = "
        function hot(o, n) {
            for (var i = 0; i < n; i++) { o.f = o.f + i; }
            return o.f;
        }
        function run() { var o = { f: 0 }; return hot(o, 100); }
    ";

    #[test]
    fn census_fires_and_validates_on_a_field_loop() {
        let report = MemdepReport::from_source(SRC, Architecture::NoMap, 150).unwrap();
        assert!(report.rows.len() >= 3, "main + hot + run");
        assert_eq!(report.total_tv_errors(), 0, "{}", report.render());
        let t = report.totals();
        assert!(t.total() > 0, "expected at least one transform to fire:\n{}", report.render());
        let text = report.render();
        assert!(text.starts_with("== memdep transforms =="), "{text}");
        assert!(text.contains(":hot"), "{text}");
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let report = MemdepReport::from_source(SRC, Architecture::NoMap, 50).unwrap();
        let json = report.to_json(Architecture::NoMap).render();
        for key in
            ["\"arch\"", "\"functions\"", "\"loads_eliminated\"", "\"tv_errors\"", "\"rows\""]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(report.summary().starts_with("loads="));
    }
}

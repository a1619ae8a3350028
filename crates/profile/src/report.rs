//! Rendering a [`ProfileData`] as the `nomap profile` hot-spot tables.

use std::collections::BTreeMap;

use nomap_machine::{CheckKind, RegionKey};
use nomap_trace::{check_name, obj, tier_name, JsonValue};

use crate::data::ProfileData;

/// All check kinds, in the order the density table lists them.
const CHECK_KINDS: [CheckKind; 5] = [
    CheckKind::Bounds,
    CheckKind::Overflow,
    CheckKind::Type,
    CheckKind::Property,
    CheckKind::Other,
];

/// A `ProfileData` plus function names, rendered as ranked tables.
///
/// FTL places one transaction scope around each hot loop nest, so the
/// function × tier region granularity is the paper's per-loop granularity
/// for the workloads that matter; the deopt-site table drills down to
/// individual SMPs within a function.
#[derive(Debug, Clone)]
pub struct HotSpotReport {
    data: ProfileData,
    names: BTreeMap<u32, String>,
    /// `ExecStats::total_cycles()` for the same window, for the
    /// conservation line. `None` when no stats were captured.
    stats_total: Option<u64>,
}

impl HotSpotReport {
    /// Wraps a profile with a function-id → name table.
    pub fn new(data: ProfileData, names: BTreeMap<u32, String>) -> Self {
        HotSpotReport { data, names, stats_total: None }
    }

    /// Attaches the `ExecStats` cycle total of the same window so the
    /// report can show (and the caller can assert) cycle conservation.
    pub fn with_stats_total(mut self, total: u64) -> Self {
        self.stats_total = Some(total);
        self
    }

    /// The wrapped profile.
    pub fn data(&self) -> &ProfileData {
        &self.data
    }

    /// Resolved name for a function id.
    fn func_name(&self, func: u32) -> String {
        if func == RegionKey::OTHER_FUNC {
            return "<vm>".to_owned();
        }
        self.names.get(&func).cloned().unwrap_or_else(|| format!("fn#{func}"))
    }

    /// Regions sorted by attributed cycles, descending (ties broken by key
    /// order for determinism).
    fn ranked_regions(&self) -> Vec<(RegionKey, u64)> {
        let mut rows: Vec<(RegionKey, u64)> =
            self.data.ledger.regions().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Checks executed in `func` per 100 dynamic instructions of `func`.
    fn check_density(&self, func: u32) -> f64 {
        let insts = self.data.func_insts(func);
        if insts == 0 {
            return 0.0;
        }
        let checks: u64 =
            self.data.checks.iter().filter(|((f, _), _)| *f == func).map(|(_, n)| n).sum();
        checks as f64 * 100.0 / insts as f64
    }

    /// Multi-line text report; `top_n` caps the hot-region table.
    pub fn render_text(&self, top_n: usize) -> String {
        let mut out = String::new();
        let total = self.data.ledger.total();

        out.push_str(&format!("attributed cycles: {total}"));
        match self.stats_total {
            Some(st) if st == total => out.push_str(" (== ExecStats total, conserved)\n"),
            Some(st) => out.push_str(&format!(" (ExecStats total {st} — MISMATCH)\n")),
            None => out.push('\n'),
        }

        let ranked = self.ranked_regions();
        out.push_str(&format!(
            "\nhot regions (top {} of {}):\n",
            top_n.min(ranked.len()),
            ranked.len()
        ));
        out.push_str(&format!(
            "  {:<22} {:<12} {:<18} {:>14} {:>7}\n",
            "function", "tier", "region", "cycles", "share"
        ));
        for (key, cycles) in ranked.iter().take(top_n) {
            let share = if total == 0 { 0.0 } else { *cycles as f64 * 100.0 / total as f64 };
            out.push_str(&format!(
                "  {:<22} {:<12} {:<18} {:>14} {:>6.1}%\n",
                self.func_name(key.func),
                tier_name(key.tier),
                key.kind.name(),
                cycles,
                share
            ));
        }

        if !self.data.aborts.is_empty() {
            out.push_str("\naborts by function:\n");
            let mut by_func: BTreeMap<u32, Vec<(&str, u64)>> = BTreeMap::new();
            for ((func, reason), n) in &self.data.aborts {
                by_func.entry(*func).or_default().push((reason.as_str(), *n));
            }
            for (func, reasons) in by_func {
                let total_aborts: u64 = reasons.iter().map(|(_, n)| n).sum();
                let detail: Vec<String> = reasons.iter().map(|(r, n)| format!("{r}:{n}")).collect();
                out.push_str(&format!(
                    "  {:<22} {:>8}  [{}]\n",
                    self.func_name(func),
                    total_aborts,
                    detail.join(" ")
                ));
                if let Some(h) = self.data.abort_footprint.get(&func) {
                    out.push_str(&format!(
                        "  {:<22} footprint p50={} p90={} max={} bytes\n",
                        "",
                        h.percentile(0.5),
                        h.percentile(0.9),
                        h.max
                    ));
                }
            }
        }

        if !self.data.deopt_sites.is_empty() {
            out.push_str("\ndeopt sites (SMPs taken):\n");
            let mut sites: Vec<_> = self.data.deopt_sites.iter().collect();
            sites.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(b.0)));
            out.push_str(&format!(
                "  {:<22} {:>5} {:>5} {:<16} {:>8}\n",
                "function", "smp", "bc", "check", "taken"
            ));
            for ((func, smp), site) in sites {
                out.push_str(&format!(
                    "  {:<22} {:>5} {:>5} {:<16} {:>8}\n",
                    self.func_name(*func),
                    smp,
                    site.bc,
                    check_name(site.kind),
                    site.count
                ));
            }
        }

        if !self.data.checks.is_empty() {
            out.push_str("\ncheck density (per 100 insts):\n");
            out.push_str(&format!(
                "  {:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "function", "bounds", "overflow", "type", "property", "other", "density"
            ));
            let funcs: Vec<u32> = {
                let mut f: Vec<u32> = self.data.checks.keys().map(|(f, _)| *f).collect();
                f.dedup();
                f
            };
            for func in funcs {
                let count =
                    |kind: CheckKind| self.data.checks.get(&(func, kind)).copied().unwrap_or(0);
                out.push_str(&format!(
                    "  {:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9.2}\n",
                    self.func_name(func),
                    count(CheckKind::Bounds),
                    count(CheckKind::Overflow),
                    count(CheckKind::Type),
                    count(CheckKind::Property),
                    count(CheckKind::Other),
                    self.check_density(func)
                ));
            }
        }

        out
    }

    /// Full JSON rendering (the `nomap profile --json` payload).
    pub fn to_json(&self) -> JsonValue {
        let total = self.data.ledger.total();
        let regions = self
            .ranked_regions()
            .into_iter()
            .map(|(key, cycles)| {
                obj(vec![
                    ("func", key.func.into()),
                    ("function", self.func_name(key.func).into()),
                    ("tier", tier_name(key.tier).into()),
                    ("region", key.kind.name().into()),
                    ("cycles", cycles.into()),
                ])
            })
            .collect();

        let aborts = {
            let mut by_func: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
            for ((func, reason), n) in &self.data.aborts {
                by_func.entry(*func).or_default().push((reason.clone(), *n));
            }
            by_func
                .into_iter()
                .map(|(func, reasons)| {
                    let reason_obj =
                        reasons.into_iter().map(|(r, n)| (r, JsonValue::from(n))).collect();
                    let mut members = vec![
                        ("function", JsonValue::from(self.func_name(func))),
                        ("reasons", JsonValue::Object(reason_obj)),
                    ];
                    if let Some(h) = self.data.abort_footprint.get(&func) {
                        members.push((
                            "footprint",
                            obj(vec![
                                ("p50", h.percentile(0.5).into()),
                                ("p90", h.percentile(0.9).into()),
                                ("max", h.max.into()),
                            ]),
                        ));
                    }
                    obj(members)
                })
                .collect()
        };

        let deopts = self
            .data
            .deopt_sites
            .iter()
            .map(|((func, smp), site)| {
                obj(vec![
                    ("function", self.func_name(*func).into()),
                    ("smp", (*smp).into()),
                    ("bc", site.bc.into()),
                    ("check", check_name(site.kind).into()),
                    ("taken", site.count.into()),
                ])
            })
            .collect();

        let checks = {
            let mut funcs: Vec<u32> = self.data.checks.keys().map(|(f, _)| *f).collect();
            funcs.dedup();
            funcs
                .into_iter()
                .map(|func| {
                    let kinds = CHECK_KINDS
                        .iter()
                        .filter_map(|k| {
                            self.data
                                .checks
                                .get(&(func, *k))
                                .map(|n| (check_name(*k).to_owned(), JsonValue::from(*n)))
                        })
                        .collect();
                    obj(vec![
                        ("function", self.func_name(func).into()),
                        ("counts", JsonValue::Object(kinds)),
                        ("insts", self.data.func_insts(func).into()),
                        ("density_per_100", self.check_density(func).into()),
                    ])
                })
                .collect()
        };

        let mut members = vec![
            ("v", JsonValue::from(u64::from(nomap_trace::SCHEMA_VERSION))),
            ("attributed_cycles", total.into()),
            ("regions", JsonValue::Array(regions)),
            ("aborts", JsonValue::Array(aborts)),
            ("deopt_sites", JsonValue::Array(deopts)),
            ("checks", JsonValue::Array(checks)),
        ];
        if let Some(st) = self.stats_total {
            members.insert(2, ("stats_total_cycles", st.into()));
            members.insert(3, ("conserved", (st == total).into()));
        }
        obj(members)
    }
}

#[cfg(test)]
mod tests {
    use nomap_machine::{AbortReason, RegionKind, Tier};

    use super::*;

    fn report() -> HotSpotReport {
        let mut d = ProfileData::new();
        d.charge(RegionKey { func: 0, tier: Tier::Ftl, kind: RegionKind::TxnBody }, 900);
        d.charge(RegionKey { func: 0, tier: Tier::Baseline, kind: RegionKind::TxnRetryLadder }, 80);
        d.charge(RegionKey { func: 1, tier: Tier::Interpreter, kind: RegionKind::Main }, 20);
        d.record_insts(0, Tier::Ftl, 500);
        d.record_checks(0, CheckKind::Bounds, 2);
        d.record_deopt(0, 7, 42, CheckKind::Type);
        d.record_abort(0, AbortReason::Capacity, 4096);
        let mut names = BTreeMap::new();
        names.insert(0u32, "smash".to_owned());
        HotSpotReport::new(d, names).with_stats_total(1000)
    }

    #[test]
    fn text_ranks_regions_and_shows_conservation() {
        let text = report().render_text(10);
        assert!(text.contains("attributed cycles: 1000 (== ExecStats total, conserved)"));
        let body = text.find("hot regions").unwrap();
        let first = text[body..].find("smash").unwrap();
        let interp = text[body..].find("fn#1").unwrap();
        assert!(first < interp, "hottest region must rank first");
        assert!(text.contains("txn-retry-ladder"));
        assert!(text.contains("deopt sites"));
        assert!(text.contains("capacity:1"));
        assert!(text.contains("p90="));
        assert!(text.contains("check density"));
    }

    #[test]
    fn mismatch_is_called_out() {
        let r = report().with_stats_total(999);
        assert!(r.render_text(5).contains("MISMATCH"));
    }

    #[test]
    fn json_carries_all_tables() {
        let j = report().to_json().render();
        assert!(j.contains("\"attributed_cycles\":1000"));
        assert!(j.contains("\"conserved\":true"));
        assert!(j.contains("\"region\":\"txn-body\""));
        assert!(j.contains("\"smp\":7"));
        assert!(j.contains("\"density_per_100\""));
        assert!(j.contains("\"p50\""));
    }

    #[test]
    fn unknown_and_vm_functions_have_stable_names() {
        let r = report();
        assert_eq!(r.func_name(RegionKey::OTHER_FUNC), "<vm>");
        assert_eq!(r.func_name(5), "fn#5");
    }
}

//! `compare A B`: judges run set B against run set A, workload by
//! workload and end-to-end metric by metric, under the bounds in
//! `BENCHMARK.json`.
//!
//! A run set is a transcript: the concatenated standard output of
//! benchmark runs. Each run starts with a [`HEADER`] line naming its
//! workload and ends with its JSON result line; traced runs are skipped.

use std::collections::BTreeMap;

use nomap_profile::{parse_json, Json};

/// First words of the line each run prints before anything else.
pub const HEADER: &str = "# nomap-benchmark";

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Worsening allowed, as a share of the baseline median.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Describes malformed JSON or a malformed metric entry.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = parse_json(benchmark_json)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => *b,
                _ => return Err(format!("{name}: no numeric bound")),
            };
            Ok(Bound { name: name.to_owned(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

/// Untraced runs of one transcript: workload → runs → metric → value,
/// plus each workload's failed-op total.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunSet {
    /// Metric values of each run, per workload.
    pub runs: BTreeMap<String, Vec<BTreeMap<String, f64>>>,
    /// Failed ops summed over a workload's runs.
    pub failed: BTreeMap<String, u64>,
}

/// Parses a transcript.
///
/// # Errors
///
/// Describes a result line that is not valid JSON or lacks the result keys.
pub fn parse_transcript(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    let mut current: Option<(String, bool)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(HEADER) {
            let field = |key: &str| {
                rest.split_whitespace().find_map(|kv| kv.strip_prefix(key)).map(str::to_owned)
            };
            let workload = field("workload=").ok_or("header without workload=")?;
            current = Some((workload, field("trace=").as_deref() == Some("1")));
            continue;
        }
        if !line.starts_with('{') {
            continue;
        }
        let Some((workload, traced)) = current.take() else { continue };
        if traced {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("{workload}: {e}"))?;
        let failed = doc.get("failed").and_then(Json::as_u64).ok_or("result without `failed`")?;
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("{workload}: result without metrics"));
        };
        let mut values = BTreeMap::new();
        for (name, m) in metrics {
            if let Some(Json::Num(v)) = m.get("value") {
                values.insert(name.clone(), *v);
            }
        }
        *set.failed.entry(workload.clone()).or_default() += failed;
        set.runs.entry(workload).or_default().push(values);
    }
    Ok(set)
}

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` compute them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    if n < 2 {
        return (v[0], median, v[0]);
    }
    // The "exclusive" method: positions i·(n+1)/4, clamped to the data.
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, m - 2);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound, or every B run beats every A run.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric judgement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A.
    pub a: f64,
    /// Median of B.
    pub b: f64,
    /// `(B − A) / A`.
    pub change: f64,
    /// Wider of the two sets' quartile distances, as a share of median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges B's runs of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], rule: &Bound) -> Row {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let share = |x: f64, m: f64| if m == 0.0 { 0.0 } else { (x / m).abs() };
    let spread = share(a3 - a1, am).max(share(b3 - b1, bm));
    let change = if am == 0.0 {
        if bm == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (bm - am) / am
    };
    let worsening = if rule.higher_is_better { -change } else { change };
    let beats = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let verdict = if spread > rule.bound {
        if all_better && !a.is_empty() && !b.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > rule.bound {
        Verdict::Worse
    } else if worsening < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        workload: String::new(),
        metric: rule.name.clone(),
        a: am,
        b: bm,
        change,
        spread,
        bound: rule.bound,
        verdict,
    }
}

/// Judges every workload present in both sets on every bounded metric.
/// More failed ops in B than in A is a `failed_ops` row judged worse.
pub fn compare(rules: &[Bound], a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a_runs) in &a.runs {
        let Some(b_runs) = b.runs.get(workload) else { continue };
        for rule in rules {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(&rule.name).copied()).collect()
            };
            let mut row = judge(&values(a_runs), &values(b_runs), rule);
            row.workload = workload.clone();
            rows.push(row);
        }
        let (fa, fb) = (a.failed[workload], b.failed[workload]);
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_ops".to_owned(),
            a: fa as f64,
            b: fb as f64,
            change: fb as f64 - fa as f64,
            spread: 0.0,
            bound: 0.0,
            verdict: if fb > fa { Verdict::Worse } else { Verdict::Same },
        });
    }
    rows
}

/// Renders rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Bound {
        Bound { name: "m".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 100.0];
        assert_eq!(judge(&a, &[105.0, 105.0], &rule(false, 0.1)).verdict, Verdict::Same);
        assert_eq!(judge(&a, &[115.0, 115.0], &rule(false, 0.1)).verdict, Verdict::Worse);
        assert_eq!(judge(&a, &[115.0, 115.0], &rule(true, 0.1)).verdict, Verdict::Better);
        assert_eq!(judge(&a, &[50.0, 150.0], &rule(true, 0.1)).verdict, Verdict::Unresolved);
    }

    #[test]
    fn transcripts_keep_untraced_runs_only() {
        let text = "# nomap-benchmark workload=aborts seed=1 trace=0\n\
                    op x\n\
                    {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n\
                    # nomap-benchmark workload=aborts seed=1 trace=1\n\
                    {\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}\n";
        let set = parse_transcript(text).unwrap();
        assert_eq!(set.runs["aborts"].len(), 1);
        assert_eq!(set.runs["aborts"][0]["setup_s"], 0.5);
        assert_eq!(set.failed["aborts"], 0);
    }
}

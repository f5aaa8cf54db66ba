//! `compare A.json B.json`: do two sets of runs agree?
//!
//! Both files are what `--out` writes (`{"runs": [...]}`, one entry per
//! run). For every workload and end-to-end metric the comparison prints
//! both medians, the inter-quartile spread of each set as a share of its
//! median, by how much B is worse than A, and a verdict against the
//! metric's bound:
//!
//! - `unresolved` — a set's own spread exceeds the bound, so the bound
//!   cannot tell a change from noise (reported, never waved through);
//! - `worse` — B's median is worse than A's by more than the bound;
//! - `agree` — anything else (B may also be better).

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::{iqr_frac, median};

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Agree,
    /// B worse than A by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric.
    pub def: &'static MetricDef,
    /// Median of each set.
    pub medians: (f64, f64),
    /// IQR ÷ median of each set.
    pub spreads: (f64, f64),
    /// Runs in each set.
    pub runs: (usize, usize),
    /// Relative worsening of B against A (negative = B better).
    pub worsening: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Values of `metric` on `workload`, one per untraced run.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced") != Some(&Json::Bool(true)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Workload names in `doc`, in first-seen order.
fn workloads(doc: &Json) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !out.iter().any(|o| o == w) {
                out.push(w.to_string());
            }
        }
    }
    out
}

/// Judges one metric of one workload from the two sets' values; `None`
/// when either set is empty.
pub fn judge(workload: &str, def: &'static MetricDef, a: &[f64], b: &[f64]) -> Option<Row> {
    let (ma, mb) = (median(a)?, median(b)?);
    let spreads = (iqr_frac(a).unwrap_or(0.0), iqr_frac(b).unwrap_or(0.0));
    let worsening = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let verdict = if spreads.0 > bound || spreads.1 > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Agree
    };
    Some(Row {
        workload: workload.to_string(),
        def,
        medians: (ma, mb),
        spreads,
        runs: (a.len(), b.len()),
        worsening,
        verdict,
    })
}

/// Compares every workload both documents have runs of.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in workloads(a) {
        for def in END_TO_END {
            let va = values(a, &workload, def.name);
            let vb = values(b, &workload, def.name);
            rows.extend(judge(&workload, def, &va, &vb));
        }
    }
    rows
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15}{:<16}{:>14}{:>14} {:<6}{:>8}{:>8}{:>9}{:>7}  {}\n",
        "workload",
        "metric",
        "median A",
        "median B",
        "unit",
        "iqr A",
        "iqr B",
        "B worse",
        "bound",
        "verdict"
    );
    for r in rows {
        out += &format!(
            "{:<15}{:<16}{:>14.4}{:>14.4} {:<6}{:>7.1}%{:>7.1}%{:>+8.1}%{:>6.0}%  {}\n",
            r.workload,
            r.def.name,
            r.medians.0,
            r.medians.1,
            r.def.unit,
            r.spreads.0 * 100.0,
            r.spreads.1 * 100.0,
            r.worsening * 100.0,
            r.def.bound.unwrap_or(0.0) * 100.0,
            match r.verdict {
                Verdict::Agree => "agree",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    out += &format!(
        "{} agree, {} worse, {} unresolved ({} runs vs {} runs per workload)\n",
        count(Verdict::Agree),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        rows.first().map_or(0, |r| r.runs.0),
        rows.first().map_or(0, |r| r.runs.1),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn doc(workload: &str, metric: &str, values: &[f64]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                values
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("workload", Json::Str(workload.into())),
                            ("traced", Json::Bool(false)),
                            (
                                "metrics",
                                Json::obj([(metric, Json::obj([("value", Json::Num(*v))]))]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let ops = find("ops_per_s").unwrap(); // higher is better
        let bound = ops.bound.unwrap();
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let scaled = |f: f64| steady.map(|v| v * f);
        let r = judge("w", ops, &steady, &scaled(1.0 - bound / 2.0)).unwrap();
        assert_eq!(r.verdict, Verdict::Agree);
        assert!((r.medians.0 - 100.0).abs() < 1e-9);
        assert!((r.worsening - bound / 2.0).abs() < 1e-9 && r.runs == (5, 5));
        let r = judge("w", ops, &steady, &scaled(1.0 - bound * 1.5)).unwrap();
        assert_eq!(r.verdict, Verdict::Worse);
        // Better is never "worse".
        let r = judge("w", ops, &steady, &scaled(1.5)).unwrap();
        assert!(r.worsening < 0.0 && r.verdict == Verdict::Agree);
        // A set that swings more than the bound cannot be judged.
        let r = judge("w", ops, &[100.0, 60.0, 140.0, 90.0, 120.0], &steady).unwrap();
        assert!(r.spreads.0 > bound && r.verdict == Verdict::Unresolved);
        // Lower-is-better metrics worsen upwards.
        let p50 = find("read_p50_us").unwrap();
        let r = judge("w", p50, &[10.0, 10.0, 10.0], &[13.0, 13.0, 13.0]).unwrap();
        assert!((r.worsening - 0.3).abs() < 1e-9 && r.verdict == Verdict::Worse);
        assert!(judge("w", p50, &[], &[1.0]).is_none());
    }

    #[test]
    fn compares_documents_per_workload_and_metric() {
        let a = doc("file_bulk", "ops_per_s", &[100.0, 102.0, 98.0]);
        let b = doc("file_bulk", "ops_per_s", &[70.0, 71.0, 69.0]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "file_bulk");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[0].runs, (3, 3));
        let text = render(&rows);
        assert!(text.contains("WORSE") && text.contains("0 agree, 1 worse, 0 unresolved"));
        // A workload only one side ran is left out.
        assert!(compare(&a, &doc("kv_small_repl", "ops_per_s", &[1.0])).is_empty());
    }
}

//! `compare A.json B.json`: one row per (end-to-end metric, workload).

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::workloads::Workload;

/// The outcome of one (metric, workload) pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A side's own spread (the distance between its quartiles) is wider
    /// than the bound and the two ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the order statistics of its samples.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Side {
    /// Median.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    /// Distance between the quartiles, as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.value.abs()
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges `b` (the change) against `a` (the parent) under `metric`'s
/// bound. A spread wider than the bound makes the pair unresolved unless
/// every sample of one side beats every sample of the other.
pub fn verdict(metric: &EndToEnd, a: Side, b: Side) -> Verdict {
    let separated = b.min > a.max || b.max < a.min;
    if a.spread().max(b.spread()) > metric.bound && !separated {
        return Verdict::Unresolved;
    }
    let w = worse_by(metric.better, a.value, b.value);
    if w > metric.bound {
        Verdict::Regressed
    } else if w < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = results.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    let f = |k| m.get(k).and_then(Json::as_f64);
    Some(Side { value: f("value")?, min: f("min")?, max: f("max")?, q1: f("q1")?, q3: f("q3")? })
}

/// The comparison table, and whether the change passes: no `regressed`
/// row, no larger share of failed trials, no digest mismatch inside
/// either run.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    out.push_str(&format!(
        "{:<13} {:<20} {:>14} {:>27} {:>14} {:>27} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "delta", "bound"
    ));
    for w in Workload::ALL {
        let name = w.name();
        let entry = |r: &Json, k: &str| {
            r.get("workloads").and_then(|ws| ws.get(name)).and_then(|e| e.get(k)).cloned()
        };
        let (Some(_), Some(_)) = (entry(a, "metrics"), entry(b, "metrics")) else { continue };
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, name, m.name), side(b, name, m.name)) else {
                continue;
            };
            let v = verdict(m, sa, sb);
            pass &= v != Verdict::Regressed;
            let range = |s: Side| format!("{:.6}..{:.6}", s.min, s.max);
            out.push_str(&format!(
                "{:<13} {:<20} {:>14.6} {:>27} {:>14.6} {:>27} {:>+7.2}% {:>5.1}%  {}\n",
                name,
                m.name,
                sa.value,
                range(sa),
                sb.value,
                range(sb),
                (sb.value - sa.value) / sa.value.abs() * 100.0,
                m.bound * 100.0,
                v.name()
            ));
        }
        let num = |r: &Json, k: &str| entry(r, k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let failed_share = |r: &Json| num(r, "ops_failed") / num(r, "ops_attempted").max(1.0);
        if failed_share(b) > failed_share(a) {
            out.push_str(&format!(
                "{name}: FAIL ops_failed share rose {} -> {}\n",
                failed_share(a),
                failed_share(b)
            ));
            pass = false;
        }
        for (label, r) in [("A", a), ("B", b)] {
            if entry(r, "digests_agree").and_then(|v| v.as_bool()) != Some(true) {
                out.push_str(&format!("{name}: FAIL digests disagree inside run {label}\n"));
                pass = false;
            }
        }
        // Informational: a protocol change may legitimately move the
        // digest, a simulator-only change must not.
        if entry(a, "seed") == entry(b, "seed") {
            out.push_str(&format!(
                "{name}: digest_changed: {}\n",
                entry(a, "digest") != entry(b, "digest")
            ));
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    /// A side whose quartiles sit halfway between the median and the
    /// extremes.
    fn side(value: f64, min: f64, max: f64) -> Side {
        Side { value, min, max, q1: (value + min) / 2.0, q3: (value + max) / 2.0 }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lower = end_to_end("trial_us").unwrap(); // bound 18 %
        let higher = end_to_end("events_per_s").unwrap();
        let tight = |v: f64| side(v, v * 0.99, v * 1.01);
        assert_eq!(verdict(lower, tight(100.0), tight(103.0)), Verdict::Unchanged);
        assert_eq!(verdict(lower, tight(100.0), tight(120.0)), Verdict::Regressed);
        assert_eq!(verdict(lower, tight(100.0), tight(80.0)), Verdict::Improved);
        assert_eq!(verdict(higher, tight(100.0), tight(120.0)), Verdict::Improved);
        assert_eq!(verdict(higher, tight(100.0), tight(80.0)), Verdict::Regressed);
        // Overlapping ranges with quartiles wider apart than the bound
        // cannot tell.
        let wide = side(100.0, 80.0, 130.0);
        assert_eq!(verdict(lower, wide, side(110.0, 90.0, 140.0)), Verdict::Unresolved);
        // ...unless every sample of one side beats every sample of the other.
        assert_eq!(verdict(lower, wide, side(170.0, 140.0, 200.0)), Verdict::Regressed);
        assert_eq!(verdict(lower, wide, side(60.0, 50.0, 70.0)), Verdict::Improved);
        // One outlying pass does not widen the quartiles.
        let outlier = Side { value: 100.0, min: 99.0, max: 160.0, q1: 99.5, q3: 101.0 };
        assert_eq!(verdict(lower, outlier, tight(102.0)), Verdict::Unchanged);
    }

    fn results(trial_us: f64, failed: f64, agree: bool, digest: &str) -> Json {
        let metric =
            |v: f64| Json::obj(["value", "min", "max", "q1", "q3"].map(|k| (k, Json::Num(v))));
        let metrics = Json::obj(
            END_TO_END
                .iter()
                .map(|m| (m.name, metric(if m.name == "trial_us" { trial_us } else { 1.0 }))),
        );
        let entry = Json::obj([
            ("seed", Json::Num(1.0)),
            ("metrics", metrics),
            ("ops_attempted", Json::Num(100.0)),
            ("ops_failed", Json::Num(failed)),
            ("digests_agree", Json::Bool(agree)),
            ("digest", Json::str(digest)),
        ]);
        Json::obj([("workloads", Json::obj([("decide", entry)]))])
    }

    #[test]
    fn compare_fails_on_regression_failures_or_digest_mismatch() {
        let base = results(100.0, 0.0, true, "aa");
        let (table, pass) = compare(&base, &results(101.0, 0.0, true, "aa"));
        assert!(
            pass && table.contains("unchanged") && table.contains("digest_changed: false"),
            "{table}"
        );
        let (table, pass) = compare(&base, &results(150.0, 0.0, true, "bb"));
        assert!(
            !pass && table.contains("regressed") && table.contains("digest_changed: true"),
            "{table}"
        );
        assert!(!compare(&base, &results(100.0, 1.0, true, "aa")).1, "a larger failed share fails");
        assert!(
            !compare(&base, &results(100.0, 0.0, false, "aa")).1,
            "an in-run digest mismatch fails"
        );
        assert!(compare(&base, &results(50.0, 0.0, true, "aa")).0.contains("improved"));
    }
}

//! From a child's raw measurements to named metrics, and the result files.

use crate::e2e::ChildReport;
use crate::json::Json;
use crate::spec::END_TO_END;
use crate::stats::{max, median, min, quartiles};
use crate::workloads::{Plan, Workload};

/// A reported metric: the median over its samples, with their range.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median over the samples (passes, or set-ups).
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile of the samples (the value itself for one sample).
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

/// Everything one run measured on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs were generated from.
    pub seed: u64,
    /// `setup_s` of every child process of the run: the set-up-only ones
    /// and the measuring one.
    pub setup_samples: Vec<f64>,
    /// The measuring child's report.
    pub child: ChildReport,
}

impl WorkloadResult {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<MetricValue> {
        let c = &self.child;
        let trials = c.trials_per_pass as f64;
        // The engine's unit of work: simulator events, or — where no
        // simulator runs — scenario trials.
        let work = if self.workload.simulated() { c.counts.events as f64 } else { trials };
        let per_pass =
            |f: &dyn Fn(f64) -> f64| -> Vec<f64> { c.pass_wall_s.iter().map(|&w| f(w)).collect() };
        let ratio = |num: u64, den: u64| {
            if self.workload.simulated() {
                num as f64 / den as f64
            } else {
                1.0
            }
        };
        END_TO_END
            .iter()
            .map(|m| {
                let samples = match m.name {
                    "setup_s" => self.setup_samples.clone(),
                    "trial_us" => per_pass(&|w| w / trials * 1e6),
                    "events_per_s" => per_pass(&|w| work / w),
                    "peak_rss_mb" => vec![c.peak_rss_kb as f64 / 1024.0],
                    "sim_msgs_per_op" => vec![ratio(c.counts.delivered, c.counts.ops_invoked)],
                    "sim_op_lat_ticks" => vec![ratio(c.counts.lat_ticks, c.counts.ops_completed)],
                    "sim_completed_share" => {
                        vec![ratio(c.counts.ops_completed, c.counts.ops_invoked)]
                    }
                    other => unreachable!("no definition for end-to-end metric {other}"),
                };
                let value = median(&samples);
                let (q1, q3) = if samples.len() < 2 { (value, value) } else { quartiles(&samples) };
                MetricValue {
                    name: m.name,
                    unit: m.unit,
                    value,
                    min: min(&samples),
                    max: max(&samples),
                    q1,
                    q3,
                }
            })
            .collect()
    }

    /// Passes run: the cold one, the timed ones, the counting one.
    fn passes(&self) -> u64 {
        self.child.pass_wall_s.len() as u64 + 2
    }

    /// Trials attempted over all passes.
    pub fn attempted(&self) -> u64 {
        self.child.trials_per_pass * self.passes()
    }

    /// Trials that failed: event-cap stalls, checker violations, missed
    /// completion requirements, and every trial of a pass that panicked.
    pub fn failed(&self) -> u64 {
        let c = &self.child;
        c.stalls + c.counts.failed + c.panicked * c.trials_per_pass
    }

    /// The correctness gate: no failed trial, and one digest across every
    /// pass, the two-worker pass included.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.child.digests_agree
            && self.end_to_end().iter().all(|m| m.value.is_finite())
    }

    /// The one-object result line of a `--trace 0` run.
    pub fn driver_line(&self) -> Json {
        result_line(
            self.correct(),
            self.attempted(),
            self.failed(),
            self.end_to_end().into_iter().map(|m| (m.name, m.unit, m.value)),
        )
    }

    /// The workload's entry in a results file.
    pub fn to_json(&self, plan: &Plan) -> Json {
        let metrics = self.end_to_end().into_iter().map(|m| {
            let fields =
                [("value", m.value), ("min", m.min), ("max", m.max), ("q1", m.q1), ("q3", m.q3)];
            let mut pairs: Vec<(&str, Json)> =
                fields.into_iter().map(|(k, v)| (k, Json::Num(v))).collect();
            pairs.push(("unit", Json::str(m.unit)));
            (m.name, Json::obj(pairs))
        });
        let parts = plan.parts.iter().map(|p| {
            Json::obj([
                ("label", Json::str(p.label)),
                ("cells", Json::Num(p.grid.cells.len() as f64)),
                ("trials_per_cell", Json::Num(p.grid.trials as f64)),
            ])
        });
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.attempted() as f64)),
            ("ops_failed", Json::Num(self.failed() as f64)),
            ("digest", Json::str(format!("{:016x}", self.child.digest))),
            ("digests_agree", Json::Bool(self.child.digests_agree)),
            ("timed_passes", Json::Num(self.child.pass_wall_s.len() as f64)),
            ("trials_per_pass", Json::Num(self.child.trials_per_pass as f64)),
            ("parts", Json::Arr(parts.collect())),
            ("metrics", Json::obj(metrics)),
            (
                "pass_wall_s",
                Json::Arr(self.child.pass_wall_s.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "setup_samples_s",
                Json::Arr(self.setup_samples.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("counts_per_pass", self.child.counts.to_json()),
        ])
    }
}

/// The result object both binaries print as their last line.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> Json {
    let metrics = metrics.map(|(name, unit, value)| {
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

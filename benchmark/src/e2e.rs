//! The end-to-end measurement of one workload, in one fresh process.
//!
//! Closed loop, batch, one worker thread: a cold pass (counted in
//! `setup_s`), then identical timed passes until the requested seconds
//! are spent, then one counting pass with two workers. Nothing is
//! attached to the simulator while a timed pass runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::json::Json;
use crate::staged::Counts;
use crate::workloads::{plan, public_pass, staged_pass, Digest, Size, Workload};

/// Fewest timed passes a measurement reports a median over.
pub const MIN_PASSES: usize = 3;

/// What one child process measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    /// Process start → end of the cold pass: input generation, grid
    /// build, first-touch allocation, lazy statics.
    pub setup_s: f64,
    /// Trials in one pass.
    pub trials_per_pass: u64,
    /// Wall-clock of every timed pass (empty for a set-up-only child).
    pub pass_wall_s: Vec<f64>,
    /// Digest of the cold pass.
    pub digest: Digest,
    /// Whether every timed pass and the two-worker counting pass
    /// reproduced [`ChildReport::digest`].
    pub digests_agree: bool,
    /// Event-cap stalls the engine logged, summed over all public passes.
    pub stalls: u64,
    /// Passes that panicked (an in-trial assertion such as Agreement).
    pub panicked: u64,
    /// Exact counters of one pass, from the counting pass.
    pub counts: Counts,
    /// `VmHWM` after the last timed pass, in KiB.
    pub peak_rss_kb: u64,
}

/// Runs `f`, turning a panic into `None` (the panic message has already
/// gone to stderr through the default hook).
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Measures `workload` in this process. `started` is the instant `main`
/// began. A set-up-only child stops after the cold pass.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    setup_only: bool,
    started: Instant,
) -> ChildReport {
    let plan = plan(workload, seed, size);
    let mut r = ChildReport {
        trials_per_pass: plan.trials(),
        digests_agree: true,
        ..ChildReport::default()
    };
    let pass = |r: &mut ChildReport, cold: bool| match guarded(|| public_pass(&plan, 1)) {
        Some((digest, stalls)) => {
            r.stalls += stalls;
            if cold {
                r.digest = digest;
            } else {
                r.digests_agree &= digest == r.digest;
            }
        }
        None => r.panicked += 1,
    };
    pass(&mut r, true);
    r.setup_s = started.elapsed().as_secs_f64();
    if setup_only {
        return r;
    }
    let timed = Instant::now();
    while r.pass_wall_s.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        pass(&mut r, false);
        r.pass_wall_s.push(t0.elapsed().as_secs_f64());
    }
    // Read before the counting pass, whose second worker would raise it.
    r.peak_rss_kb = peak_rss_kb().unwrap_or(0);
    match guarded(|| staged_pass(&plan, 2)) {
        Some((digest, counts)) => {
            r.digests_agree &= digest == r.digest;
            r.counts = counts;
        }
        None => r.panicked += 1,
    }
    r
}

/// The process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()
}

impl ChildReport {
    /// The line a child prints for its parent. The digest travels as a
    /// hex string: it does not fit an `f64`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("trials_per_pass", Json::Num(self.trials_per_pass as f64)),
            ("pass_wall_s", Json::Arr(self.pass_wall_s.iter().map(|&v| Json::Num(v)).collect())),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("digests_agree", Json::Bool(self.digests_agree)),
            ("stalls", Json::Num(self.stalls as f64)),
            ("panicked", Json::Num(self.panicked as f64)),
            ("counts", self.counts.to_json()),
            ("peak_rss_kb", Json::Num(self.peak_rss_kb as f64)),
        ])
    }

    /// Reads [`ChildReport::to_json`] back.
    pub fn from_json(j: &Json) -> Option<ChildReport> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(ChildReport {
            setup_s: num("setup_s")?,
            trials_per_pass: num("trials_per_pass")? as u64,
            pass_wall_s: j
                .get("pass_wall_s")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
            digest: u64::from_str_radix(j.get("digest")?.as_str()?, 16).ok()?,
            digests_agree: j.get("digests_agree")?.as_bool()?,
            stalls: num("stalls")? as u64,
            panicked: num("panicked")? as u64,
            counts: Counts::from_json(j.get("counts")?)?,
            peak_rss_kb: num("peak_rss_kb")? as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips_through_its_line() {
        let r = ChildReport {
            setup_s: 1.25,
            trials_per_pass: 42,
            pass_wall_s: vec![0.5, 0.75],
            digest: 0xFEDC_BA98_7654_3210,
            digests_agree: true,
            stalls: 1,
            panicked: 0,
            counts: Counts { trials: 42, events: 1 << 40, lat_ticks: 7, ..Counts::default() },
            peak_rss_kb: 12_345,
        };
        let line = r.to_json().compact();
        assert_eq!(ChildReport::from_json(&Json::parse(&line).unwrap()), Some(r));
    }
}

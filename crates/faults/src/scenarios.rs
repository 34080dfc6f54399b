//! Scenario-family combinators: high-level fault shapes built as
//! [`FailureSchedule`] timelines.
//!
//! Each combinator is a pure function of its parameters — no RNG — so the
//! sweep engine can derive per-trial variety from the trial seed while
//! the schedule itself stays reproducible and inspectable.

use gqs_core::{Channel, NetworkGraph, ProcessId};
use gqs_simnet::{FailureSchedule, RegionSpec, SimTime};

/// Disconnects region `region`'s entire inter-region cut (both
/// directions) during `[from, until)`, then heals it. Inside the window
/// the region is a healthy island: intra-region channels stay up, so
/// local work continues and the interesting question is what completes
/// *across* the cut before, during and after.
///
/// # Panics
///
/// Panics if the window is empty or `region` is out of range.
pub fn region_outage(
    spec: RegionSpec,
    g: &NetworkGraph,
    region: usize,
    from: SimTime,
    until: SimTime,
) -> FailureSchedule {
    let mut s = FailureSchedule::none();
    s.down_window(&spec.cut(g, region), from, until);
    s
}

/// Rolls a region outage across every region: region `i` is cut off
/// during `[start + i * stagger, start + i * stagger + outage)`. With
/// `stagger >= outage` the outages are disjoint (a rolling blackout);
/// with `stagger < outage` they overlap (cascading failure).
///
/// # Panics
///
/// Panics if `outage == 0`.
pub fn staggered_region_outages(
    spec: RegionSpec,
    g: &NetworkGraph,
    start: SimTime,
    outage: u64,
    stagger: u64,
) -> FailureSchedule {
    assert!(outage > 0, "outages need a duration");
    let mut s = FailureSchedule::none();
    for i in 0..spec.regions() {
        let from = start + i as u64 * stagger;
        s.merge(region_outage(spec, g, i, from, from + outage));
    }
    s
}

/// Periodic down/up on `channels`: starting at `from`, the channels are
/// down for `down` ticks, up for `up` ticks, repeating while the next
/// down interval still opens before `until`. The final interval always
/// heals (a flap is transient by definition).
///
/// # Panics
///
/// Panics if `down == 0` or `up == 0`.
pub fn flapping_link(
    channels: &[Channel],
    from: SimTime,
    down: u64,
    up: u64,
    until: SimTime,
) -> FailureSchedule {
    assert!(down > 0 && up > 0, "flap phases need durations");
    let mut s = FailureSchedule::none();
    let mut at = from;
    while at < until {
        s.down_window(channels, at, at + down);
        at = at + down + up;
    }
    s
}

/// Crashes `hub` at `at`; with `recover_at = Some(t)` it rejoins at `t`.
/// Aimed at hub-and-spoke and gateway processes, where one crash severs
/// the most paths per fault.
///
/// # Panics
///
/// Panics if `recover_at <= at`.
pub fn hub_crash(hub: ProcessId, at: SimTime, recover_at: Option<SimTime>) -> FailureSchedule {
    let mut s = FailureSchedule::none();
    match recover_at {
        Some(until) => s.crash_window(hub, at, until),
        None => s.crash(hub, at),
    };
    s
}

/// Restarts all `n` processes in sequence: process `i` is down during
/// `[start + i * (downtime + gap), .. + downtime)`. With `gap > 0` at
/// most one process is down at a time — the classic rolling-restart
/// deployment schedule.
///
/// # Panics
///
/// Panics if `downtime == 0`.
pub fn rolling_restart(n: usize, start: SimTime, downtime: u64, gap: u64) -> FailureSchedule {
    assert!(downtime > 0, "restarts need a downtime");
    let mut s = FailureSchedule::none();
    for i in 0..n {
        let from = start + i as u64 * (downtime + gap);
        s.crash_window(ProcessId(i), from, from + downtime);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::regions;
    use gqs_core::chan;

    fn times<T>(events: &[(T, SimTime)]) -> Vec<SimTime> {
        events.iter().map(|&(_, at)| at).collect()
    }

    #[test]
    fn region_outage_cuts_exactly_the_boundary() {
        let (g, l) = regions(3, 3);
        let s = region_outage(l, &g, 1, SimTime(100), SimTime(200));
        assert_eq!(times(s.disconnects()), vec![SimTime(100); 4]);
        assert_eq!(times(s.heals()), vec![SimTime(200); 4]);
        for &(ch, _) in s.disconnects() {
            assert!((l.region_of(ch.from) == 1) != (l.region_of(ch.to) == 1));
        }
        assert!(s.crashes().is_empty() && s.recovers().is_empty());
    }

    #[test]
    fn single_region_outage_is_empty() {
        let (g, l) = regions(1, 4);
        assert!(region_outage(l, &g, 0, SimTime(1), SimTime(2)).is_empty());
    }

    #[test]
    fn staggered_outages_roll_across_regions() {
        let (g, l) = regions(3, 3);
        let s = staggered_region_outages(l, &g, SimTime(100), 50, 200);
        let downs = times(s.disconnects());
        let heals = times(s.heals());
        let mut opens = downs.clone();
        opens.dedup();
        assert_eq!(opens, vec![SimTime(100), SimTime(300), SimTime(500)]);
        assert_eq!(heals.len(), downs.len(), "every outage heals");
        assert!(downs.iter().zip(&heals).all(|(&d, &h)| h == d + 50));
        assert_eq!(heals.iter().max(), Some(&SimTime(550)));
    }

    #[test]
    fn flapping_link_alternates_and_always_heals() {
        let chs = [chan!(0, 1), chan!(1, 0)];
        let s = flapping_link(&chs, SimTime(10), 5, 15, SimTime(50));
        // Down intervals open at 10, 30 (50 is not < 50): 2 windows.
        assert_eq!(
            times(s.disconnects()),
            vec![SimTime(10), SimTime(10), SimTime(30), SimTime(30)]
        );
        assert_eq!(times(s.heals()), vec![SimTime(15), SimTime(15), SimTime(35), SimTime(35)]);
        assert_eq!(s.heals().len(), s.disconnects().len(), "every flap heals");
    }

    #[test]
    fn hub_crash_with_and_without_recovery() {
        let perm = hub_crash(ProcessId(0), SimTime(5), None);
        assert_eq!(perm.crashes(), &[(ProcessId(0), SimTime(5))]);
        assert!(perm.recovers().is_empty());
        let transient = hub_crash(ProcessId(0), SimTime(5), Some(SimTime(9)));
        assert_eq!(transient.crashes(), &[(ProcessId(0), SimTime(5))]);
        assert_eq!(transient.recovers(), &[(ProcessId(0), SimTime(9))]);
    }

    #[test]
    fn rolling_restart_is_one_window_per_process() {
        let s = rolling_restart(4, SimTime(10), 20, 5);
        assert_eq!(s.crashes().len(), 4);
        assert_eq!(s.recovers().len(), 4);
        // Windows are disjoint with gap > 0: process 1 crashes after
        // process 0 recovered.
        assert_eq!(s.recovers()[0], (ProcessId(0), SimTime(30)));
        assert_eq!(s.crashes()[1], (ProcessId(1), SimTime(35)));
        assert_eq!(s.recovers()[3], (ProcessId(3), SimTime(10 + 3 * 25 + 20)));
    }
}

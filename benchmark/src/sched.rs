//! Recording a simulation's event-queue schedule from the outside, and
//! replaying it into a bare [`TimingWheel`].
//!
//! [`SchedSink`] is a benchmark-side [`TraceSink`]: from the simulator's
//! public trace events it reconstructs, per simulation, the exact sequence
//! of queue operations — every push with its fire time, every pop — plus
//! the `(from, to, now)` inputs of every delay draw. [`replay`] then times
//! that schedule against the wheel alone, which prices the queue's share
//! of a run without touching the simulator.

use std::collections::{HashMap, VecDeque};

use gqs_simnet::{TimingWheel, TraceEvent, TraceSink};

/// One queue operation of a recorded schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WheelOp {
    /// An event scheduled to fire at this time.
    Push(u64),
    /// The event that fired at this time.
    Pop(u64),
}

/// Fire time of a send whose delivery the run never reached.
const IN_FLIGHT: u64 = u64::MAX;

/// The schedule of one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Segment {
    /// Pushes made before the first event ran (start events, fault script,
    /// invocations), in push order. Their pops are not traced one by one,
    /// so [`replay`] pops them wherever the recorded order needs them out
    /// of the way.
    pub initial: Vec<u64>,
    /// The traced operations, in the order they happened.
    pub ops: Vec<WheelOp>,
    /// `(from, to, now)` of every message that drew a delay.
    pub sends: Vec<(u32, u32, u64)>,
}

/// Records one [`Segment`] per simulation (see [`SchedSink::begin`]).
#[derive(Debug, Default)]
pub struct SchedSink {
    segments: Vec<Segment>,
    /// Per channel, the `ops` indices of sends still in flight. A delivery
    /// resolves the oldest: within one channel this may pair a delivery
    /// with another in-flight send than the simulator did, which swaps two
    /// fire times between two pushes and leaves every count and the whole
    /// pop sequence exact.
    in_flight: HashMap<(u32, u32), VecDeque<u32>>,
}

impl SchedSink {
    /// An empty sink.
    pub fn new() -> Self {
        SchedSink::default()
    }

    /// Starts the segment of a simulation whose queue holds pushes at the
    /// `initial` times.
    pub fn begin(&mut self, initial: Vec<u64>) {
        self.in_flight.clear();
        self.segments.push(Segment { initial, ..Segment::default() });
    }

    /// The recorded segments, oldest first.
    pub fn take_segments(&mut self) -> Vec<Segment> {
        self.in_flight.clear();
        std::mem::take(&mut self.segments)
    }

    fn seg(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("SchedSink::begin precedes the first event")
    }
}

impl TraceSink for SchedSink {
    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Send { at, from, to } => {
                let key = (from.index() as u32, to.index() as u32);
                let seg = self.seg();
                let idx = seg.ops.len() as u32;
                seg.ops.push(WheelOp::Push(IN_FLIGHT));
                seg.sends.push((key.0, key.1, at.ticks()));
                self.in_flight.entry(key).or_default().push_back(idx);
            }
            // Dropped at send time, right after its `Send`: no delay was
            // drawn and nothing was queued.
            TraceEvent::DropLossy { from, to, .. }
            | TraceEvent::DropDisconnected { from, to, .. } => {
                let key = (from.index() as u32, to.index() as u32);
                self.in_flight.get_mut(&key).and_then(VecDeque::pop_back);
                let seg = self.seg();
                seg.ops.pop();
                seg.sends.pop();
            }
            TraceEvent::Deliver { at, from, to }
            | TraceEvent::DropCrashed { at, from, to }
            | TraceEvent::DropSenderCrashed { at, from, to } => {
                let key = (from.index() as u32, to.index() as u32);
                let idx = self.in_flight.get_mut(&key).and_then(VecDeque::pop_front);
                let seg = self.seg();
                if let Some(idx) = idx {
                    seg.ops[idx as usize] = WheelOp::Push(at.ticks());
                    seg.ops.push(WheelOp::Pop(at.ticks()));
                }
            }
            TraceEvent::TimerSet { fire_at, .. } => {
                self.seg().ops.push(WheelOp::Push(fire_at.ticks()))
            }
            TraceEvent::TimerFire { at, .. } | TraceEvent::TimerCancelled { at, .. } => {
                self.seg().ops.push(WheelOp::Pop(at.ticks()))
            }
            _ => {}
        }
    }
}

/// What replaying one [`Segment`] into a bare wheel measured.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// Pushes plus pops performed (the initial pushes and the pops that
    /// cleared them included).
    pub ops: u64,
    /// Whether every recorded pop came out of the wheel at its recorded
    /// fire time, in the recorded order.
    pub in_order: bool,
}

/// Replays `seg` into a fresh [`TimingWheel`], peeking before every pop as
/// the simulator's run loop does.
pub fn replay(seg: &Segment) -> Replay {
    const SILENT: u8 = 0;
    const TRACED: u8 = 1;
    let mut wheel: TimingWheel<u8> = TimingWheel::new();
    let mut seq = 0u64;
    let mut ops = 0u64;
    let mut in_order = true;
    for &at in &seg.initial {
        wheel.push(at, seq, SILENT);
        seq += 1;
        ops += 1;
    }
    for op in &seg.ops {
        match *op {
            WheelOp::Push(IN_FLIGHT) => {}
            WheelOp::Push(at) => {
                wheel.push(at, seq, TRACED);
                seq += 1;
                ops += 1;
            }
            WheelOp::Pop(at) => loop {
                std::hint::black_box(wheel.next_time());
                ops += 1;
                match wheel.pop() {
                    Some((_, _, SILENT)) => {}
                    Some((t, _, _)) => {
                        in_order &= t == at;
                        break;
                    }
                    None => {
                        in_order = false;
                        break;
                    }
                }
            },
        }
    }
    std::hint::black_box(wheel.len());
    Replay { ops, in_order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqs_core::{majority_system, ProcessId};
    use gqs_registers::{reliable_abd_register_nodes, RegOp};
    use gqs_simnet::{FailureSchedule, Flood, SharedSink, SimConfig, SimTime, Simulation};

    #[test]
    fn replayed_pop_order_equals_recorded_fire_order() {
        // Flooded retrying ABD on four processes, one of which crashes
        // mid-run, over lossy channels: sends, both kinds of drop, timers,
        // and untraced schedule events all occur.
        let n = 4;
        let qs = majority_system(n).unwrap();
        let nodes: Vec<_> = reliable_abd_register_nodes::<u8, u64>(
            n,
            qs.reads().clone(),
            qs.writes().clone(),
            0,
            150,
        )
        .into_iter()
        .map(Flood::new)
        .collect();
        let mut sim =
            Simulation::new(SimConfig { seed: 11, loss: 0.1, ..SimConfig::default() }, nodes);
        let mut schedule = FailureSchedule::none();
        schedule.crash(ProcessId(3), SimTime(60));
        sim.apply_failures(&schedule);
        let invokes = [10u64, 410, 810, 1210];
        for (i, &at) in invokes.iter().enumerate() {
            let op = if i % 2 == 0 {
                RegOp::Write { reg: 0, value: i as u64 }
            } else {
                RegOp::Read { reg: 0 }
            };
            sim.invoke_at(SimTime(at), ProcessId(i % 3), op);
        }
        let mut initial = vec![0u64; n];
        initial.push(60);
        initial.extend(invokes);

        let sink = SharedSink::new(SchedSink::new());
        sink.with(|s| s.begin(initial));
        sim.set_trace(Box::new(sink.clone()));
        sim.run_until(SimTime(5_000));
        let stats = sim.stats();
        assert!(stats.dropped_lossy > 0 && stats.dropped_crashed > 0 && stats.timers_fired > 0);
        let seg = sink.with(SchedSink::take_segments).remove(0);

        // One delay draw per message that was queued, one pop per message
        // or timer that came back out.
        assert_eq!(
            seg.sends.len() as u64,
            stats.sent - stats.dropped_lossy - stats.dropped_disconnected
        );
        let fired: Vec<u64> = seg
            .ops
            .iter()
            .filter_map(|o| if let WheelOp::Pop(t) = o { Some(*t) } else { None })
            .collect();
        assert!(fired.len() as u64 >= stats.delivered + stats.dropped_crashed + stats.timers_fired);
        assert!(fired.windows(2).all(|w| w[0] <= w[1]), "the simulator fires in time order");

        let r = replay(&seg);
        assert!(
            r.in_order,
            "the bare wheel must pop at the recorded fire times, in the recorded order"
        );
        assert!(r.ops >= 2 * fired.len() as u64);

        // A schedule the wheel cannot reproduce is caught.
        let mut bad = seg.clone();
        let last = bad.ops.iter().rposition(|o| matches!(o, WheelOp::Pop(_))).unwrap();
        bad.ops[last] = WheelOp::Pop(1);
        assert!(!replay(&bad).in_order);
    }
}

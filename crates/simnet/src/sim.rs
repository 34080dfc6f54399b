//! The discrete-event simulator.
//!
//! [`Simulation`] runs one [`Protocol`] instance per process over a network
//! with the failure semantics of the paper's model (§2):
//!
//! * **Crashes** — a crashed process takes no further steps; messages to it
//!   are dropped. Messages it sent while alive stay in flight. A crash may
//!   be followed by a scheduled **recovery**: the process rejoins with its
//!   protocol state intact (`on_recover` is delivered; the default rejoins
//!   silently), timers armed before the crash are cancelled, and messages
//!   that arrived while it was down are lost.
//! * **Disconnections** — channels fail in **intervals**: from a
//!   disconnection time until the matching heal (if any), a channel drops
//!   every message *sent* through it; messages sent earlier — or after the
//!   heal — are delivered. A disconnection with no heal is the paper's
//!   permanent channel fault.
//! * **Topology** — the communication graph ([`Topology`], default
//!   complete); a send over a channel the graph does not contain behaves
//!   like a send over a channel disconnected at time zero.
//! * **Asynchrony** — message delays are finite but unbounded (drawn from a
//!   seeded distribution); fairness holds because every queued event is
//!   eventually processed.
//! * **Partial synchrony** (§7) — after an unknown-to-protocols GST, every
//!   message between correct processes on correct channels is delivered
//!   within `δ`; process timers stop drifting.
//!
//! Runs are bit-for-bit deterministic in the seed.
//!
//! ## The scale core
//!
//! The engine is built for populations far beyond the decision
//! procedures' `gqs_core::MAX_PROCESSES` bitset universe (the simulator's
//! own cap is [`MAX_SIM_PROCESSES`] = 2²²):
//!
//! * per-process liveness is one flat epoch array (even = alive, odd =
//!   crashed; the epoch doubles as the timer-cancellation token),
//! * channel down-intervals live in a flat counter array indexed by a
//!   per-channel slot assigned on first fault, with a global active
//!   count that short-circuits the send path to zero lookups when no
//!   channel is currently down,
//! * the event queue is a hierarchical [`TimingWheel`] whose slots are
//!   lists of small fixed-size chunks drawn from one pool, so its memory
//!   is the live events at their peak plus one partly filled chunk per
//!   occupied slot — not a high-water mark per tick — and steady-state
//!   scheduling allocates nothing per event,
//! * start-up is a cursor, not `n` queued events: the first `n` events of
//!   a run are the `on_start` calls at time zero in pid order, counted
//!   like any others but never stored,
//! * every handler runs against one [`Context`] the simulation owns and
//!   re-targets per event; its effect buffer is drained in place and
//!   keeps the capacity of the largest burst a handler has emitted, so
//!   handling an event allocates nothing either, and
//! * adjacency can be implicit ([`Topology::Ring`]/`Grid`/`Regions`),
//!   costing O(1) memory instead of an O(n²) graph.
//!
//! All of it preserves the seed-era `(time, seq)` event order exactly —
//! the golden traces are byte-identical.

use std::collections::HashMap;

use gqs_core::{Channel, FailurePattern, ProcessId};

use crate::history::{History, NetStats};
use crate::netmodel::NetModel;
use crate::protocol::{Context, Effect, OpId, Protocol, TimerId};
use crate::rng::SplitMix64;
use crate::time::SimTime;
use crate::topology::{Peers, Topology};
use crate::trace::{TraceEvent, TraceSink};
use crate::wheel::TimingWheel;

/// Records a trace event iff a sink is attached. The event expression is
/// only evaluated when tracing is on, so the untraced hot loop pays one
/// `Option` discriminant check and constructs nothing.
macro_rules! trace_ev {
    ($sim:expr, $ev:expr) => {
        if let Some(sink) = $sim.trace.as_deref_mut() {
            let ev = $ev;
            sink.record(&ev);
        }
    };
}

/// Hard cap on the simulator's process count (2²² = 4 194 304). Distinct
/// from — and far above — `gqs_core::MAX_PROCESSES`: the sim pid-space is
/// flat arrays, not bitsets, so it is bounded only by memory.
pub const MAX_SIM_PROCESSES: usize = 1 << 22;

/// Message delay model.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum DelayModel {
    /// Asynchronous: delays drawn uniformly from `[min, max]`.
    Uniform {
        /// Minimum delay (must be ≥ 1).
        min: u64,
        /// Maximum delay.
        max: u64,
    },
    /// Partially synchronous (Dwork–Lynch–Stockmeyer): before `gst` delays
    /// are drawn from `[pre_min, pre_max]`; from `gst` on they are at most
    /// `delta`.
    PartialSynchrony {
        /// Minimum delay before GST (must be ≥ 1).
        pre_min: u64,
        /// Maximum delay before GST.
        pre_max: u64,
        /// The global stabilization time.
        gst: u64,
        /// Post-GST delay bound `δ` (must be ≥ 1).
        delta: u64,
    },
}

impl DelayModel {
    fn validate(&self) {
        match *self {
            DelayModel::Uniform { min, max } => {
                assert!(min >= 1, "zero message delays can livelock the event loop");
                assert!(min <= max, "min delay exceeds max delay");
            }
            DelayModel::PartialSynchrony { pre_min, pre_max, gst, delta } => {
                assert!(pre_min >= 1 && delta >= 1, "delays must be >= 1");
                assert!(pre_min <= pre_max, "min delay exceeds max delay");
                assert!(gst.checked_add(delta).is_some(), "gst + delta overflows the tick clock");
            }
        }
    }

    pub(crate) fn draw(&self, now: SimTime, rng: &mut SplitMix64) -> u64 {
        match *self {
            DelayModel::Uniform { min, max } => rng.range(min, max),
            DelayModel::PartialSynchrony { pre_min, pre_max, gst, delta } => {
                if now.ticks() < gst {
                    // A pre-GST message may arrive at any time up to the
                    // §7 bound: every message in flight at GST is
                    // delivered by GST + δ, so the drawn delay is clamped
                    // to land no later than that. (`now < gst` and
                    // `delta >= 1` make the clamp at least 2 ticks, so the
                    // delay stays >= 1.) Saturating arithmetic: `validate`
                    // rejects an overflowing `gst + delta`, but a wrap
                    // here must never be able to fabricate a garbage
                    // clamp in release builds.
                    rng.range(pre_min, pre_max)
                        .min(gst.saturating_add(delta).saturating_sub(now.ticks()))
                } else {
                    rng.range(1, delta)
                }
            }
        }
    }

    /// The global stabilization time, if this model has one.
    pub fn gst(&self) -> Option<SimTime> {
        match *self {
            DelayModel::Uniform { .. } => None,
            DelayModel::PartialSynchrony { gst, .. } => Some(SimTime(gst)),
        }
    }
}

/// Simulator configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// RNG seed; two runs with equal configuration and inputs produce
    /// identical traces.
    pub seed: u64,
    /// Message delay model.
    pub delay: DelayModel,
    /// Optional per-channel-class network model. When set, every message
    /// delay is drawn from the [`NetModel`] — keyed on the channel's
    /// [`ChannelClass`](crate::ChannelClass) (intra-region vs gateway) —
    /// and `delay` is ignored. `Some(delay.into())` reproduces the plain
    /// model's traces byte-identically (see [`crate::netmodel`]).
    /// Default `None`.
    pub net: Option<NetModel>,
    /// The communication graph. Defaults to [`Topology::Complete`] (the
    /// paper's standard model); with [`Topology::Graph`], a send over a
    /// channel absent from the graph behaves like a send over a channel
    /// disconnected at time zero (dropped, counted as
    /// `dropped_disconnected`). Self-sends are always delivered.
    pub topology: Topology,
    /// Hard stop: events after this time are not processed.
    pub horizon: SimTime,
    /// Safety cap on the number of processed events.
    pub max_events: u64,
    /// Timer drift before GST: a timer armed for `d` fires after a value
    /// drawn from `[d, d * timer_drift_max]`. Must be ≥ 1.0; no effect
    /// after GST or under the `Uniform` model (clocks are then accurate).
    pub timer_drift_max: f64,
    /// Per-channel message-loss probability in `[0, 1]`: each non-self
    /// send that survives the topology and down-interval checks is
    /// independently dropped with this probability (counted as
    /// `dropped_lossy`). Draws come from the run's seeded RNG, so losses
    /// are deterministic per trial; at the default `0.0` no draw is made
    /// at all, keeping loss-free traces bit-identical to earlier builds.
    /// Self-sends are never lossy, matching the reliable self-channel.
    pub loss: f64,
    /// Adversarial option: drop in-flight messages whose sender crashed
    /// before delivery. The model only guarantees delivery of messages
    /// sent by **correct** processes, so losing a crashed sender's
    /// in-flight traffic is legal — and strictly harder on protocols.
    /// Default `false` (in-flight messages survive the sender's crash).
    pub drop_inflight_of_crashed: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            delay: DelayModel::Uniform { min: 1, max: 10 },
            net: None,
            topology: Topology::Complete,
            horizon: SimTime(1_000_000),
            max_events: 50_000_000,
            timer_drift_max: 1.0,
            loss: 0.0,
            drop_inflight_of_crashed: false,
        }
    }
}

/// When each failure of a pattern strikes — and, optionally, heals —
/// during a run.
///
/// The fail-prone system says *what may fail*; a schedule decides *when* it
/// does in one particular execution. Beyond the paper's permanent faults,
/// a schedule may also contain **heals** (a disconnected channel resumes
/// delivering messages sent from the heal time on) and **recoveries** (a
/// crashed process rejoins; see [`crate::Protocol::on_recover`]).
///
/// Events are kept per kind, each kind in insertion order, and
/// [`Simulation::apply_failures`] schedules them kind by kind. The window
/// builders ([`down_window`](Self::down_window),
/// [`crash_window`](Self::crash_window)) and [`merge`](Self::merge) are
/// what the `gqs_faults` scenario shapes — region outages, flapping
/// links, rolling restarts — are built from.
#[derive(Clone, Debug, Default)]
pub struct FailureSchedule {
    crashes: Vec<(ProcessId, SimTime)>,
    disconnects: Vec<(Channel, SimTime)>,
    heals: Vec<(Channel, SimTime)>,
    recovers: Vec<(ProcessId, SimTime)>,
}

impl FailureSchedule {
    /// No failures.
    pub fn none() -> Self {
        FailureSchedule::default()
    }

    /// All failures of `pattern` strike at time `at` (the adversary the
    /// paper's lower-bound proofs use: "fail at the beginning").
    pub fn from_pattern_at(pattern: &FailurePattern, at: SimTime) -> Self {
        let mut s = FailureSchedule::default();
        for p in pattern.faulty() {
            s.crashes.push((p, at));
        }
        for ch in pattern.channels() {
            s.disconnects.push((ch, at));
        }
        s
    }

    /// Each failure of `pattern` strikes at an independent uniform time in
    /// `[lo, hi]` — mid-run failure injection.
    pub fn staggered(pattern: &FailurePattern, rng: &mut SplitMix64, lo: u64, hi: u64) -> Self {
        let mut s = FailureSchedule::default();
        for p in pattern.faulty() {
            s.crashes.push((p, SimTime(rng.range(lo, hi))));
        }
        for ch in pattern.channels() {
            s.disconnects.push((ch, SimTime(rng.range(lo, hi))));
        }
        s
    }

    /// Adds a crash.
    pub fn crash(&mut self, p: ProcessId, at: SimTime) -> &mut Self {
        self.crashes.push((p, at));
        self
    }

    /// Adds a channel disconnection.
    pub fn disconnect(&mut self, ch: Channel, at: SimTime) -> &mut Self {
        self.disconnects.push((ch, at));
        self
    }

    /// Adds a channel heal: from `at` on, messages sent through `ch` are
    /// delivered again (a no-op if the channel is up at `at`).
    pub fn heal(&mut self, ch: Channel, at: SimTime) -> &mut Self {
        self.heals.push((ch, at));
        self
    }

    /// Adds a process recovery: at `at`, a crashed `p` rejoins with its
    /// protocol state intact (a no-op if `p` is alive at `at`). Timers
    /// armed before the crash stay cancelled; the protocol's `on_recover`
    /// hook runs at the recovery instant.
    pub fn recover(&mut self, p: ProcessId, at: SimTime) -> &mut Self {
        self.recovers.push((p, at));
        self
    }

    /// Disconnects every channel in `channels` at `from` and heals it at
    /// `until`: a down window `[from, until)` (an empty slice adds nothing).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`until <= from`).
    pub fn down_window(
        &mut self,
        channels: &[Channel],
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        assert!(from < until, "empty down window [{from:?}, {until:?})");
        self.disconnects.extend(channels.iter().map(|&ch| (ch, from)));
        self.heals.extend(channels.iter().map(|&ch| (ch, until)));
        self
    }

    /// Crashes `p` at `from` and recovers it at `until`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`until <= from`).
    pub fn crash_window(&mut self, p: ProcessId, from: SimTime, until: SimTime) -> &mut Self {
        assert!(from < until, "empty crash window [{from:?}, {until:?})");
        self.crash(p, from).recover(p, until)
    }

    /// Appends each of `other`'s events after this schedule's events of
    /// the same kind (timelines compose; relative order only matters for
    /// same-instant events).
    pub fn merge(&mut self, other: FailureSchedule) -> &mut Self {
        self.crashes.extend(other.crashes);
        self.disconnects.extend(other.disconnects);
        self.heals.extend(other.heals);
        self.recovers.extend(other.recovers);
        self
    }

    /// Returns a copy of the schedule. Kept only for the benchmark's staged
    /// trials (`benchmark/src/staged.rs`), which call it on what
    /// `ScheduleFamily::script` returns; nothing else may call it.
    #[doc(hidden)]
    pub fn to_schedule(&self) -> FailureSchedule {
        self.clone()
    }

    /// Scheduled crashes.
    pub fn crashes(&self) -> &[(ProcessId, SimTime)] {
        &self.crashes
    }

    /// Scheduled disconnections.
    pub fn disconnects(&self) -> &[(Channel, SimTime)] {
        &self.disconnects
    }

    /// Scheduled channel heals.
    pub fn heals(&self) -> &[(Channel, SimTime)] {
        &self.heals
    }

    /// Scheduled process recoveries.
    pub fn recovers(&self) -> &[(ProcessId, SimTime)] {
        &self.recovers
    }

    /// Whether the schedule contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.disconnects.is_empty()
            && self.heals.is_empty()
            && self.recovers.is_empty()
    }

    /// Splits the timeline at `at`: the first schedule holds every event
    /// strictly before `at`, the second everything from `at` on. Within
    /// each half, events keep their original relative order (the order
    /// [`Simulation::apply_failures`] assigns sequence numbers in), so
    /// `apply(before); apply(after)` reproduces `apply(whole)`'s event
    /// interleaving exactly for any `at` no later than the first event at
    /// a shared instant.
    #[cfg(test)]
    pub(crate) fn split_at(&self, at: SimTime) -> (FailureSchedule, FailureSchedule) {
        let mut before = FailureSchedule::default();
        let mut after = FailureSchedule::default();
        fn part<T: Copy>(
            src: &[(T, SimTime)],
            at: SimTime,
            lo: &mut Vec<(T, SimTime)>,
            hi: &mut Vec<(T, SimTime)>,
        ) {
            for &(x, t) in src {
                if t < at {
                    lo.push((x, t));
                } else {
                    hi.push((x, t));
                }
            }
        }
        part(&self.crashes, at, &mut before.crashes, &mut after.crashes);
        part(&self.disconnects, at, &mut before.disconnects, &mut after.disconnects);
        part(&self.heals, at, &mut before.heals, &mut after.heals);
        part(&self.recovers, at, &mut before.recovers, &mut after.recovers);
        (before, after)
    }
}

#[derive(Clone, Debug)]
enum EventKind<M, O> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
    /// `epoch` is the arming process's liveness epoch at `SetTimer` time
    /// (even, since only live processes arm timers): a crash bumps the
    /// epoch, so timers armed before a crash never fire after a recovery.
    Timer {
        process: ProcessId,
        id: TimerId,
        epoch: u64,
    },
    Invoke {
        process: ProcessId,
        op: OpId,
        body: O,
    },
    Crash {
        process: ProcessId,
    },
    Recover {
        process: ProcessId,
    },
    Disconnect {
        channel: Channel,
    },
    Heal {
        channel: Channel,
    },
}

/// Why a run stopped.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The event queue drained.
    Quiescent,
    /// The time horizon was reached with events still queued.
    Horizon,
    /// The event cap was hit (likely a livelock — investigate).
    EventCap {
        /// How many invoked operations had not completed when the cap
        /// struck — the work the truncated run silently abandoned. Also
        /// available as [`Simulation::stalled_ops`].
        stalled_ops: u64,
    },
    /// The target of [`Simulation::run_until_ops_complete`] was met.
    OpsComplete,
}

/// A bit-exact snapshot of everything mutable in a [`Simulation`]:
/// protocol nodes, the RNG stream position, the start-up cursor, the event
/// queue (bucket order, occupancy bitmaps and the push sequence counter, so
/// pop order is identical), the clock, liveness epochs, channel
/// down-interval state, the operation history, [`NetStats`] and pending-op
/// bookkeeping.
///
/// Created by [`Simulation::checkpoint`]; a later
/// [`Simulation::restore`] rewinds the run to this instant, after which
/// re-running reproduces the original continuation byte for byte — or,
/// after [`Simulation::reseed`], branches a fresh seeded continuation
/// from the same state (fork replay). The immutable parts of a run —
/// [`SimConfig`] and the topology — are *not* captured; a checkpoint is
/// only valid for the simulation (or an identically-configured clone of
/// it) that produced it.
pub struct Checkpoint<P: Protocol> {
    nodes: Vec<P>,
    rng: SplitMix64,
    started: usize,
    queue: TimingWheel<EventKind<P::Msg, P::Op>>,
    seq: u64,
    now: SimTime,
    epoch: Vec<u64>,
    down_slots: HashMap<Channel, u32>,
    down_counts: Vec<u32>,
    down_active: usize,
    history: History<P::Op, P::Resp>,
    stats: NetStats,
    next_op: u64,
    scheduled_ops: u64,
    finished_ops: u64,
}

impl<P: Protocol> Checkpoint<P> {
    /// The virtual time the snapshot was taken at.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

impl<P: Protocol> Clone for Checkpoint<P> {
    fn clone(&self) -> Self {
        Checkpoint {
            nodes: self.nodes.clone(),
            rng: self.rng.clone(),
            started: self.started,
            queue: self.queue.clone(),
            seq: self.seq,
            now: self.now,
            epoch: self.epoch.clone(),
            down_slots: self.down_slots.clone(),
            down_counts: self.down_counts.clone(),
            down_active: self.down_active,
            history: self.history.clone(),
            stats: self.stats,
            next_op: self.next_op,
            scheduled_ops: self.scheduled_ops,
            finished_ops: self.finished_ops,
        }
    }
}

/// A deterministic discrete-event simulation of one protocol over one
/// network.
///
/// # Examples
///
/// See the crate-level documentation for a complete ping-pong example.
#[derive(Debug)]
pub struct Simulation<P: Protocol> {
    nodes: Vec<P>,
    config: SimConfig,
    rng: SplitMix64,
    /// Start-up cursor: processes `0..started` have had their `on_start`.
    /// While it is below `n`, the next event is the start of process
    /// `started` at time zero, ahead of everything queued — start-up is
    /// `n` events like any others, but none of them is ever stored.
    started: usize,
    queue: TimingWheel<EventKind<P::Msg, P::Op>>,
    seq: u64,
    now: SimTime,
    /// Flat per-process crash state: the epoch starts at 0 and is bumped
    /// by every `Crash` and every `Recover`, so **even = alive, odd =
    /// crashed**, and a timer armed at epoch `e` is valid exactly while
    /// the epoch still equals `e` (any crash in between bumps it). One
    /// cache-friendly array replaces the seed-era `crashed: Vec<bool>` +
    /// `crash_epoch: Vec<u64>` pair.
    epoch: Vec<u64>,
    /// Slot index per channel that has ever appeared in a
    /// `Disconnect`/`Heal` event — cold-path only (fault handling), never
    /// touched by sends while no channel is down.
    down_slots: HashMap<Channel, u32>,
    /// Per-slot count of down intervals covering the current instant.
    /// The interval *set* of a run is realized incrementally: each
    /// `Disconnect` opens an interval (+1), each `Heal` closes one (−1,
    /// saturating), and because events are processed in time order a
    /// channel is down exactly while some interval covers `now` — so
    /// overlapping windows compose by union (a shared channel only comes
    /// back up when *every* covering window has healed). A heal back to
    /// zero keeps the slot but frees nothing further: tracking memory is
    /// bounded by the number of *distinct* faulted channels, however long
    /// a flapping schedule runs.
    down_counts: Vec<u32>,
    /// Number of slots with a positive count. Zero — the overwhelmingly
    /// common steady state — lets the send path skip the channel lookup
    /// entirely.
    down_active: usize,
    /// The one handler context of the run, lent to every handler call
    /// (see [`Simulation::handle`]); it carries the topology view and the
    /// effect buffer.
    ctx: Context<P::Msg, P::Resp>,
    history: History<P::Op, P::Resp>,
    stats: NetStats,
    next_op: u64,
    scheduled_ops: u64,
    finished_ops: u64,
    /// Attached trace sink, if any. Observability only — deliberately
    /// **not** part of [`Checkpoint`]/[`Simulation::restore`]: a sink
    /// records what happened, it is not simulation state, and fork-replay
    /// branches share whichever sink is attached when they run.
    trace: Option<Box<dyn TraceSink>>,
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation with one protocol instance per process. Its
    /// first `n` events are the startups (`on_start`) at time zero in
    /// process order, ahead of anything scheduled later for time zero.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, the delay model is ill-formed, or the
    /// topology's process count differs from `nodes.len()`.
    pub fn new(config: SimConfig, nodes: Vec<P>) -> Self {
        assert!(!nodes.is_empty(), "a system has at least one process");
        assert!(
            nodes.len() <= MAX_SIM_PROCESSES,
            "at most {MAX_SIM_PROCESSES} simulated processes, got {}",
            nodes.len()
        );
        config.delay.validate();
        if let Some(net) = &config.net {
            net.validate();
        }
        config.topology.validate();
        assert!(config.timer_drift_max >= 1.0, "drift factor must be >= 1");
        assert!(
            (0.0..=1.0).contains(&config.loss),
            "loss probability must be in [0, 1], got {}",
            config.loss
        );
        let n = nodes.len();
        if let Some(t_n) = config.topology.required_len() {
            assert_eq!(t_n, n, "topology has {t_n} processes but the system has {n}");
        }
        let seed = config.seed;
        let peers = Peers::from_topology(&config.topology, n);
        Simulation {
            nodes,
            config,
            rng: SplitMix64::new(seed),
            started: 0,
            queue: TimingWheel::new(),
            seq: 0,
            now: SimTime::ZERO,
            epoch: vec![0; n],
            down_slots: HashMap::new(),
            down_counts: Vec::new(),
            down_active: 0,
            ctx: Context::with_peers(ProcessId(0), n, SimTime::ZERO, peers),
            history: History::new(),
            stats: NetStats::default(),
            next_op: 0,
            scheduled_ops: 0,
            finished_ops: 0,
            trace: None,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the system has no processes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node's protocol state (for assertions).
    pub fn node(&self, p: ProcessId) -> &P {
        &self.nodes[p.index()]
    }

    /// The operation history so far.
    pub fn history(&self) -> &History<P::Op, P::Resp> {
        &self.history
    }

    /// Aggregate network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Whether `p` is crashed at the current virtual instant.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.epoch[p.index()] & 1 == 1
    }

    /// Whether `ch` is inside a down interval at the current instant (a
    /// channel absent from the topology is *not* reported here — it never
    /// existed, so it has no intervals).
    pub fn is_disconnected(&self, ch: Channel) -> bool {
        self.down_active > 0
            && self.down_slots.get(&ch).is_some_and(|&s| self.down_counts[s as usize] > 0)
    }

    /// Number of channels with down-interval tracking state — bounded by
    /// the number of *distinct* channels a schedule ever faulted, not by
    /// how many times they flapped. The regression guard for flapping
    /// schedules growing memory without bound.
    #[cfg(test)]
    fn down_tracked_channels(&self) -> usize {
        self.down_slots.len()
    }

    /// The run's RNG at its current stream position (for determinism
    /// assertions: two runs that agree here and on
    /// [`Simulation::history`]/[`Simulation::stats`] consumed randomness
    /// identically).
    pub fn rng(&self) -> &SplitMix64 {
        &self.rng
    }

    /// Attaches a trace sink: from now on every processed event streams
    /// into it as a [`TraceEvent`], and protocol span markers (see
    /// [`Context::span_start`]) are collected. Tracing never changes the
    /// simulation itself — event order, RNG draws, history and statistics
    /// are bit-identical with and without a sink.
    ///
    /// To read results back after the run, either attach a
    /// [`SharedSink`](crate::trace::SharedSink) clone or reclaim the sink
    /// with [`Simulation::take_trace`].
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detaches and returns the trace sink, if one was attached.
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Whether a trace sink is currently attached.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Captures everything mutable in the run as a [`Checkpoint`]: the
    /// protocol nodes (via the [`Protocol`] snapshot contract), the event
    /// queue with its pop order intact, the RNG stream position, liveness
    /// epochs, down-interval state, history, statistics and pending-op
    /// bookkeeping. O(live state); the simulation is untouched.
    pub fn checkpoint(&self) -> Checkpoint<P> {
        Checkpoint {
            nodes: self.nodes.clone(),
            rng: self.rng.clone(),
            started: self.started,
            queue: self.queue.clone(),
            seq: self.seq,
            now: self.now,
            epoch: self.epoch.clone(),
            down_slots: self.down_slots.clone(),
            down_counts: self.down_counts.clone(),
            down_active: self.down_active,
            history: self.history.clone(),
            stats: self.stats,
            next_op: self.next_op,
            scheduled_ops: self.scheduled_ops,
            finished_ops: self.finished_ops,
        }
    }

    /// Rewinds the run to `cp`'s instant. After a restore, re-running
    /// reproduces the checkpointed run's continuation **byte for byte** —
    /// same events in the same order, same history, same statistics, same
    /// RNG draws (the determinism oracle tests hold this across every
    /// shipped protocol stack). Restore as often as needed: fork replay is
    /// `checkpoint()` once, then per branch `restore()` +
    /// [`Simulation::reseed`] + run.
    ///
    /// The checkpoint must come from this simulation (or one constructed
    /// with an identical config and node set); configs are not captured,
    /// so restoring across differently-configured runs is undefined
    /// behaviour of the *model* (not memory-unsafe, just meaningless).
    pub fn restore(&mut self, cp: &Checkpoint<P>) {
        self.nodes.clone_from(&cp.nodes);
        self.rng = cp.rng.clone();
        self.started = cp.started;
        self.queue = cp.queue.clone();
        self.seq = cp.seq;
        self.now = cp.now;
        self.epoch.clone_from(&cp.epoch);
        self.down_slots.clone_from(&cp.down_slots);
        self.down_counts.clone_from(&cp.down_counts);
        self.down_active = cp.down_active;
        self.history.clone_from(&cp.history);
        self.stats = cp.stats;
        self.next_op = cp.next_op;
        self.scheduled_ops = cp.scheduled_ops;
        self.finished_ops = cp.finished_ops;
    }

    /// Replaces the run's RNG with a fresh stream seeded by `seed` — the
    /// branch-divergence knob of fork replay. Branch `b` of a sweep
    /// restores the shared checkpoint, reseeds with a seed derived from
    /// `(trial seed, b)`, and continues: every branch starts from
    /// bit-identical state but draws its own delays/losses from there.
    /// Reseeding with the same value twice yields identical continuations.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
    }

    /// Schedules all failures (and heals/recoveries) in `schedule`.
    pub fn apply_failures(&mut self, schedule: &FailureSchedule) {
        for &(p, at) in schedule.crashes() {
            assert!(p.index() < self.len(), "crash target out of range");
            self.push(at, EventKind::Crash { process: p });
        }
        for &(ch, at) in schedule.disconnects() {
            assert!(ch.to.index() < self.len() && ch.from.index() < self.len());
            self.push(at, EventKind::Disconnect { channel: ch });
        }
        for &(ch, at) in schedule.heals() {
            assert!(ch.to.index() < self.len() && ch.from.index() < self.len());
            self.push(at, EventKind::Heal { channel: ch });
        }
        for &(p, at) in schedule.recovers() {
            assert!(p.index() < self.len(), "recovery target out of range");
            self.push(at, EventKind::Recover { process: p });
        }
    }

    /// Schedules a client operation invocation at process `p` at time `at`.
    ///
    /// Returns the operation id under which it will appear in the history.
    pub fn invoke_at(&mut self, at: SimTime, p: ProcessId, body: P::Op) -> OpId {
        assert!(p.index() < self.len(), "invocation target out of range");
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.scheduled_ops += 1;
        self.push(at, EventKind::Invoke { process: p, op, body });
        op
    }

    /// Runs until the queue drains, the horizon passes, or the event cap
    /// is hit.
    pub fn run(&mut self) -> StopReason {
        self.run_until(self.config.horizon)
    }

    /// Runs until time `until` (inclusive), the queue drains, or the event
    /// cap is hit.
    pub fn run_until(&mut self, until: SimTime) -> StopReason {
        self.run_loop::<false>(until)
    }

    /// Runs until every scheduled operation has completed, the horizon
    /// passes, or the event cap is hit. The natural driver for
    /// wait-freedom experiments.
    pub fn run_until_ops_complete(&mut self) -> StopReason {
        self.run_until_ops_complete_or(self.config.horizon)
    }

    /// Like [`Simulation::run_until_ops_complete`], but additionally
    /// stops (with [`StopReason::Horizon`]) once the next event lies
    /// beyond `until` — the building block of windowed (`--timeline`)
    /// measurement: running a sim bucket by bucket processes exactly the
    /// events a single straight run would, in the same order, so the
    /// final state is bit-identical.
    pub fn run_until_ops_complete_or(&mut self, until: SimTime) -> StopReason {
        self.run_loop::<true>(until)
    }

    /// The one run loop behind every `run*` method: stops when the queue
    /// drains, the next event lies beyond `until` (or the horizon), the
    /// event cap is hit, or — with `OPS` — every scheduled operation has
    /// completed. A const parameter, so each public name compiles to the
    /// loop it needs and no more.
    fn run_loop<const OPS: bool>(&mut self, until: SimTime) -> StopReason {
        let until = until.min(self.config.horizon);
        loop {
            if OPS && self.finished_ops == self.scheduled_ops {
                return self.stopped(StopReason::OpsComplete);
            }
            match self.peek_time() {
                None => return self.stopped(StopReason::Quiescent),
                Some(t) if t > until => return self.stopped(StopReason::Horizon),
                Some(_) => {}
            }
            if self.stats.events >= self.config.max_events {
                let reason = StopReason::EventCap { stalled_ops: self.stalled_ops() };
                return self.stopped(reason);
            }
            self.step();
        }
    }

    /// Notifies the trace sink that a `run*` call returned with `reason`.
    fn stopped(&mut self, reason: StopReason) -> StopReason {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.on_stop(reason, self.now);
        }
        reason
    }

    /// Operations scheduled via [`Simulation::invoke_at`] that actually
    /// ran (invocations at crashed processes never happen and are not
    /// counted).
    pub fn scheduled_ops(&self) -> u64 {
        self.scheduled_ops
    }

    /// Operations that have completed so far.
    pub fn finished_ops(&self) -> u64 {
        self.finished_ops
    }

    /// Invoked operations still awaiting completion — the diagnosable
    /// residue of a truncated run (see [`StopReason::EventCap`]).
    pub fn stalled_ops(&self) -> u64 {
        self.scheduled_ops - self.finished_ops
    }

    /// Processes a single event. Returns `false` if there was none left.
    pub fn step(&mut self) -> bool {
        if self.started < self.nodes.len() {
            // Nothing queued can run before the last start, so no process
            // has crashed yet.
            let process = ProcessId(self.started);
            self.started += 1;
            self.stats.events += 1;
            self.handle(process, |node, ctx| node.on_start(ctx));
            return true;
        }
        let Some((at, _seq, kind)) = self.queue.pop() else {
            return false;
        };
        let at = SimTime(at);
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events += 1;
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if self.is_crashed(to) {
                    self.stats.dropped_crashed += 1;
                    trace_ev!(self, TraceEvent::DropCrashed { at, from, to });
                } else if self.config.drop_inflight_of_crashed
                    && from != to
                    && self.is_crashed(from)
                {
                    // Destination alive, sender crashed mid-flight: the
                    // adversarial option discards the message — its own
                    // counter, so no crash-related drop hides in another.
                    self.stats.dropped_sender_crashed += 1;
                    trace_ev!(self, TraceEvent::DropSenderCrashed { at, from, to });
                } else {
                    self.stats.delivered += 1;
                    trace_ev!(self, TraceEvent::Deliver { at, from, to });
                    self.handle(to, |node, ctx| node.on_message(from, msg, ctx));
                }
            }
            EventKind::Timer { process, id, epoch } => {
                // Timers record the (even) epoch they were armed at; any
                // crash since bumps the epoch, so a timer armed before a
                // crash never fires — even after a recovery.
                if epoch == self.epoch[process.index()] {
                    self.stats.timers_fired += 1;
                    trace_ev!(self, TraceEvent::TimerFire { at, process, id });
                    self.handle(process, |node, ctx| node.on_timer(id, ctx));
                } else {
                    trace_ev!(self, TraceEvent::TimerCancelled { at, process, id });
                }
            }
            EventKind::Invoke { process, op, body } => {
                if self.is_crashed(process) {
                    // The client cannot invoke at a crashed process; the
                    // invocation never happens.
                    self.scheduled_ops -= 1;
                } else {
                    self.history.record_invocation(op, process, body.clone(), self.now);
                    trace_ev!(self, TraceEvent::OpStart { at, process, op });
                    self.handle(process, |node, ctx| node.on_invoke(op, body, ctx));
                }
            }
            EventKind::Crash { process } => {
                let i = process.index();
                if self.epoch[i] & 1 == 0 {
                    // Odd epoch = crashed; the bump also cancels every
                    // timer armed before (or at) the crash.
                    self.epoch[i] += 1;
                    trace_ev!(self, TraceEvent::Crash { at, process });
                }
            }
            EventKind::Recover { process } => {
                let i = process.index();
                if self.epoch[i] & 1 == 1 {
                    self.epoch[i] += 1;
                    trace_ev!(self, TraceEvent::Recover { at, process });
                    self.handle(process, |node, ctx| node.on_recover(ctx));
                }
            }
            EventKind::Disconnect { channel } => {
                trace_ev!(self, TraceEvent::CutDown { at, channel });
                let slot = self.down_slot(channel);
                let count = &mut self.down_counts[slot];
                if *count == 0 {
                    self.down_active += 1;
                }
                *count += 1;
            }
            EventKind::Heal { channel } => {
                trace_ev!(self, TraceEvent::CutHeal { at, channel });
                if let Some(&slot) = self.down_slots.get(&channel) {
                    let count = &mut self.down_counts[slot as usize];
                    if *count > 0 {
                        *count -= 1;
                        if *count == 0 {
                            self.down_active -= 1;
                        }
                    }
                }
            }
        }
        true
    }

    /// The tracking slot for `channel`, assigned on first fault.
    fn down_slot(&mut self, channel: Channel) -> usize {
        let next = self.down_slots.len() as u32;
        let slot = *self.down_slots.entry(channel).or_insert(next);
        if slot == next {
            self.down_counts.push(0);
        }
        slot as usize
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.started < self.nodes.len() {
            return Some(SimTime::ZERO);
        }
        self.queue.next_time().map(SimTime)
    }

    /// Runs one handler of the node at `me` against the lent context,
    /// re-targeted at this event, and applies the effects it emitted.
    #[inline]
    fn handle(
        &mut self,
        me: ProcessId,
        handler: impl FnOnce(&mut P, &mut Context<P::Msg, P::Resp>),
    ) {
        self.ctx.retarget(me, self.now, self.trace.is_some());
        handler(&mut self.nodes[me.index()], &mut self.ctx);
        self.apply_effects(me);
    }

    /// Applies what the last handler emitted, in order. The buffer is
    /// taken out for the loop (applying an effect needs `&mut self`) and
    /// handed back empty, capacity kept.
    fn apply_effects(&mut self, me: ProcessId) {
        let mut effects = self.ctx.take_effects();
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg } => self.send(me, to, msg),
                Effect::Broadcast { msg } => {
                    for to in 0..self.nodes.len() {
                        self.send(me, ProcessId(to), msg.clone());
                    }
                }
                Effect::SetTimer { id, after } => {
                    // Zero-duration timers are clamped to one tick: a
                    // same-instant timer lets a re-arming protocol spin
                    // the event loop without virtual time advancing
                    // (message delays are already validated >= 1).
                    let after = self.drifted(after.max(1));
                    let epoch = self.epoch[me.index()];
                    trace_ev!(
                        self,
                        TraceEvent::TimerSet {
                            at: self.now,
                            process: me,
                            id,
                            fire_at: self.now + after,
                        }
                    );
                    self.push(self.now + after, EventKind::Timer { process: me, id, epoch });
                }
                Effect::Complete { op, resp } => {
                    self.history.record_completion(op, self.now, resp);
                    self.finished_ops += 1;
                    trace_ev!(self, TraceEvent::OpEnd { at: self.now, process: me, op });
                }
                Effect::NoteRetransmit { count } => {
                    self.stats.retransmitted += count;
                    trace_ev!(self, TraceEvent::Retransmit { at: self.now, process: me, count });
                }
                Effect::Trace { kind, label, id } => {
                    trace_ev!(
                        self,
                        TraceEvent::Proto { at: self.now, process: me, kind, label, id }
                    );
                }
            }
        }
        self.ctx.reuse_buffer(effects);
    }

    /// One physical send on the channel `(me, to)`: topology and
    /// down-interval check, loss draw, delay draw, delivery event.
    fn send(&mut self, me: ProcessId, to: ProcessId, msg: P::Msg) {
        self.stats.sent += 1;
        trace_ev!(self, TraceEvent::Send { at: self.now, from: me, to });
        // A channel outside the topology is a channel disconnected at
        // time zero; a scheduled disconnection drops sends until (if
        // ever) the channel heals. Self-sends skip both, and are never
        // lossy.
        let dropped = to != me
            && (!self.config.topology.connects(me, to)
                || (self.down_active > 0 && self.is_disconnected(Channel::new(me, to))));
        if dropped {
            self.stats.dropped_disconnected += 1;
            trace_ev!(self, TraceEvent::DropDisconnected { at: self.now, from: me, to });
        } else if self.config.loss > 0.0 && to != me && self.rng.chance(self.config.loss) {
            // The loss draw happens only on channels that are up (losses
            // compose with down intervals) and only when the model is
            // enabled, so loss = 0 consumes no randomness and leaves
            // traces untouched.
            self.stats.dropped_lossy += 1;
            trace_ev!(self, TraceEvent::DropLossy { at: self.now, from: me, to });
        } else {
            let delay = match &self.config.net {
                Some(net) => {
                    let class = self.config.topology.channel_class(me, to);
                    net.delay(me, to, class, self.now, &mut self.rng)
                }
                None => self.config.delay.draw(self.now, &mut self.rng),
            };
            self.push(self.now + delay, EventKind::Deliver { from: me, to, msg });
        }
    }

    fn drifted(&mut self, after: u64) -> u64 {
        let gst = match &self.config.net {
            Some(net) => net.gst(),
            None => self.config.delay.gst(),
        };
        let drifting = match gst {
            Some(gst) => self.now < gst,
            None => false,
        };
        if drifting && self.config.timer_drift_max > 1.0 {
            let factor = 1.0 + self.rng.f64() * (self.config.timer_drift_max - 1.0);
            // Drift stretches but never erases a duration: the >= 1 floor
            // of the undrifted value is preserved.
            ((after as f64 * factor).round() as u64).max(1)
        } else {
            after
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind<P::Msg, P::Op>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.ticks(), seq, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Context, OpId, Protocol, TimerId};

    /// A protocol that answers PING with PONG and completes an op per PONG.
    #[derive(Clone, Default, Debug)]
    struct PingPong {
        pending: Vec<OpId>,
        pongs: u64,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Msg = Msg;
        type Op = ProcessId; // "ping this target"
        type Resp = u64;

        fn on_start(&mut self, _ctx: &mut Context<Msg, u64>) {}

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, u64>) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    self.pongs += 1;
                    if let Some(op) = self.pending.pop() {
                        ctx.complete(op, self.pongs);
                    }
                }
            }
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Msg, u64>) {}

        fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Msg, u64>) {
            self.pending.push(op);
            ctx.send(target, Msg::Ping);
        }
    }

    fn two_nodes() -> Simulation<PingPong> {
        Simulation::new(SimConfig::default(), vec![PingPong::default(), PingPong::default()])
    }

    #[test]
    fn ping_pong_completes() {
        let mut sim = two_nodes();
        let op = sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
        let rec = &sim.history().ops()[0];
        assert_eq!(rec.id, op);
        assert!(rec.is_complete());
        assert!(rec.latency().unwrap() >= 2); // two hops, min delay 1 each
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn same_seed_same_trace() {
        let mut a = two_nodes();
        let mut b = two_nodes();
        for sim in [&mut a, &mut b] {
            sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
            sim.invoke_at(SimTime(2), ProcessId(1), ProcessId(0));
            sim.run();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
        let la: Vec<_> = a.history().ops().iter().map(|r| r.latency()).collect();
        let lb: Vec<_> = b.history().ops().iter().map(|r| r.latency()).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seed_different_latencies() {
        let mut cfg = SimConfig::default();
        let mut lats = Vec::new();
        for seed in [1u64, 99] {
            cfg.seed = seed;
            let mut sim =
                Simulation::new(cfg.clone(), vec![PingPong::default(), PingPong::default()]);
            sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
            sim.run();
            lats.push(sim.history().ops()[0].latency());
        }
        // Not guaranteed in general, but holds for these seeds; protects
        // against the RNG being ignored.
        assert_ne!(lats[0], lats[1]);
    }

    #[test]
    fn crashed_process_receives_nothing() {
        let mut sim = two_nodes();
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(1), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1));
        let reason = sim.run();
        assert_eq!(reason, StopReason::Quiescent);
        assert!(!sim.history().ops()[0].is_complete());
        assert_eq!(sim.stats().dropped_crashed, 1);
        assert!(sim.is_crashed(ProcessId(1)));
    }

    #[test]
    fn invocation_at_crashed_process_never_happens() {
        let mut sim = two_nodes();
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(0), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1));
        let reason = sim.run_until_ops_complete();
        // The op is descheduled, so the run reports completion of nothing.
        assert_eq!(reason, StopReason::OpsComplete);
        assert!(sim.history().is_empty());
    }

    #[test]
    fn disconnection_drops_messages_sent_after_it() {
        let mut sim = two_nodes();
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(1)), SimTime(3));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1)); // PING dropped
        sim.run();
        assert_eq!(sim.stats().dropped_disconnected, 1);
        assert!(!sim.history().ops()[0].is_complete());
    }

    #[test]
    fn messages_sent_before_disconnection_are_delivered() {
        let cfg =
            SimConfig { delay: DelayModel::Uniform { min: 10, max: 10 }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let mut sched = FailureSchedule::none();
        // Disconnect the reverse channel AFTER the pong is sent:
        // ping sent at t=1, arrives t=11; pong sent t=11, arrives t=21.
        // Disconnecting (1,0) at t=15 must NOT drop the in-flight pong.
        sched.disconnect(Channel::new(ProcessId(1), ProcessId(0)), SimTime(15));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run();
        assert!(sim.history().ops()[0].is_complete());
        assert_eq!(sim.stats().dropped_disconnected, 0);
    }

    #[test]
    fn down_interval_drops_inside_and_delivers_after_heal() {
        // The acceptance shape for interval faults: channel (0,1) is down
        // during [3, 20) — a send in that window drops, a send after the
        // heal is delivered and the op completes.
        let mut sim = two_nodes();
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        sched.disconnect(ch, SimTime(3)).heal(ch, SimTime(20));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1)); // PING dropped
        sim.invoke_at(SimTime(25), ProcessId(0), ProcessId(1)); // delivered
        sim.run();
        assert_eq!(sim.stats().dropped_disconnected, 1);
        assert!(!sim.history().ops()[0].is_complete(), "the in-window send must drop");
        assert!(sim.history().ops()[1].is_complete(), "the post-heal send must deliver");
    }

    #[test]
    fn flapping_channel_alternates_drop_and_deliver() {
        // Fixed 1-tick delays: each op's round trip finishes before the
        // next invocation, so completions map 1:1 to invocations.
        let cfg =
            SimConfig { delay: DelayModel::Uniform { min: 1, max: 1 }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        // Down intervals [10, 20) and [30, 40).
        sched.disconnect(ch, SimTime(10)).heal(ch, SimTime(20));
        sched.disconnect(ch, SimTime(30)).heal(ch, SimTime(40));
        sim.apply_failures(&sched);
        for at in [5u64, 15, 25, 35, 45] {
            sim.invoke_at(SimTime(at), ProcessId(0), ProcessId(1));
        }
        sim.run();
        let complete: Vec<bool> = sim.history().ops().iter().map(|r| r.is_complete()).collect();
        assert_eq!(complete, vec![true, false, true, false, true]);
        assert_eq!(sim.stats().dropped_disconnected, 2);
    }

    #[test]
    fn overlapping_down_windows_compose_by_union() {
        // Windows [10, 30) and [20, 50) on the same channel (the shape a
        // staggered region outage produces on a shared bridge): the first
        // heal at 30 must NOT bring the channel up — the second window
        // still covers it until 50.
        let cfg =
            SimConfig { delay: DelayModel::Uniform { min: 1, max: 1 }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        sched.disconnect(ch, SimTime(10)).heal(ch, SimTime(30));
        sched.disconnect(ch, SimTime(20)).heal(ch, SimTime(50));
        sim.apply_failures(&sched);
        for at in [5u64, 35, 55] {
            sim.invoke_at(SimTime(at), ProcessId(0), ProcessId(1));
        }
        sim.run();
        let complete: Vec<bool> = sim.history().ops().iter().map(|r| r.is_complete()).collect();
        assert_eq!(complete, vec![true, false, true], "t=35 is inside the union [10, 50)");
    }

    #[test]
    fn recovered_process_receives_again() {
        let cfg =
            SimConfig { delay: DelayModel::Uniform { min: 1, max: 1 }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(1), SimTime(2)).recover(ProcessId(1), SimTime(10));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1)); // arrives t=6, down
        sim.invoke_at(SimTime(20), ProcessId(0), ProcessId(1)); // after recovery
        sim.run();
        assert_eq!(sim.stats().dropped_crashed, 1, "the mid-crash arrival is lost");
        assert!(!sim.history().ops()[0].is_complete());
        assert!(sim.history().ops()[1].is_complete(), "the recovered process answers again");
        assert!(!sim.is_crashed(ProcessId(1)));
    }

    /// Arms one timer at start; counts recoveries and fires separately
    /// for timers armed before the crash vs in `on_recover`.
    #[derive(Clone, Default, Debug)]
    struct RecoverProbe {
        pre_fired: u64,
        post_fired: u64,
        recovered: u64,
    }

    impl Protocol for RecoverProbe {
        type Msg = ();
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, ctx: &mut Context<(), ()>) {
            ctx.set_timer(TimerId(0), 10);
        }

        fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Context<(), ()>) {}

        fn on_timer(&mut self, id: TimerId, _ctx: &mut Context<(), ()>) {
            if id == TimerId(0) {
                self.pre_fired += 1;
            } else {
                self.post_fired += 1;
            }
        }

        fn on_invoke(&mut self, _op: OpId, _body: (), _ctx: &mut Context<(), ()>) {}

        fn on_recover(&mut self, ctx: &mut Context<(), ()>) {
            self.recovered += 1;
            ctx.set_timer(TimerId(1), 5);
        }
    }

    #[test]
    fn crash_cancels_timers_and_recovery_rearms() {
        // Timer armed at t=0 for t=10; crash at 4, recover at 8. The
        // pre-crash timer must NOT fire at t=10 even though the process is
        // alive again — its epoch died with the crash. The timer armed in
        // on_recover (t=8 + 5) fires normally.
        let mut sim = Simulation::new(SimConfig::default(), vec![RecoverProbe::default()]);
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(0), SimTime(4)).recover(ProcessId(0), SimTime(8));
        sim.apply_failures(&sched);
        sim.run();
        let node = sim.node(ProcessId(0));
        assert_eq!(node.recovered, 1);
        assert_eq!(node.pre_fired, 0, "pre-crash timers stay cancelled after recovery");
        assert_eq!(node.post_fired, 1, "timers armed in on_recover fire");
    }

    #[test]
    fn heal_of_up_channel_and_recovery_of_live_process_are_noops() {
        let mut sim = two_nodes();
        let mut sched = FailureSchedule::none();
        sched.heal(Channel::new(ProcessId(0), ProcessId(1)), SimTime(1));
        sched.recover(ProcessId(0), SimTime(2));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
        assert_eq!(sim.stats().dropped_disconnected, 0);
    }

    #[test]
    fn heal_cannot_resurrect_an_absent_topology_channel() {
        use gqs_core::NetworkGraph;
        // (1,0) is not in the topology; "healing" it must not create it.
        let mut g = NetworkGraph::empty(2);
        g.add_channel(Channel::new(ProcessId(0), ProcessId(1)));
        let cfg = SimConfig { topology: g.into(), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let mut sched = FailureSchedule::none();
        sched.heal(Channel::new(ProcessId(1), ProcessId(0)), SimTime(1));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1));
        sim.run();
        assert!(!sim.history().ops()[0].is_complete(), "the PONG has no channel to return on");
        assert_eq!(sim.stats().dropped_disconnected, 1);
    }

    #[test]
    fn self_messages_survive_disconnections() {
        // Self-sends never traverse a channel: disconnect everything and
        // ping yourself.
        let mut sim = two_nodes();
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(1)), SimTime::ZERO);
        sched.disconnect(Channel::new(ProcessId(1), ProcessId(0)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(0));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
    }

    #[test]
    fn horizon_stops_the_run() {
        let cfg = SimConfig {
            horizon: SimTime(3),
            delay: DelayModel::Uniform { min: 10, max: 10 },
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        let reason = sim.run();
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(sim.now(), SimTime(1)); // the delivery at t=11 was not processed
    }

    #[test]
    fn inflight_messages_survive_sender_crash_by_default() {
        let cfg =
            SimConfig { delay: DelayModel::Uniform { min: 10, max: 10 }, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let mut sched = FailureSchedule::none();
        // Ping sent at t=1 (arrives t=11); sender crashes at t=5.
        sched.crash(ProcessId(0), SimTime(5));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run();
        // The PING is delivered (sent while alive); the PONG back to the
        // crashed process is dropped.
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().dropped_crashed, 1);
    }

    #[test]
    fn adversary_may_drop_inflight_of_crashed_sender() {
        let cfg = SimConfig {
            delay: DelayModel::Uniform { min: 10, max: 10 },
            drop_inflight_of_crashed: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(0), SimTime(5));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run();
        assert_eq!(sim.stats().delivered, 0, "in-flight PING dropped with the flag");
        assert_eq!(
            sim.stats().dropped_sender_crashed,
            1,
            "sender-crash drops have their own counter"
        );
        assert_eq!(sim.stats().dropped_crashed, 0, "the destination was alive");
    }

    #[test]
    fn self_messages_survive_own_crash_flag_irrelevant() {
        // Self-sends are local: the flag only applies to real channels,
        // and a crashed process cannot receive anyway.
        let cfg = SimConfig { drop_inflight_of_crashed: true, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(0));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    }

    #[test]
    fn pre_gst_sends_arrive_by_gst_plus_delta() {
        // Regression: a message sent just before GST used to draw its
        // delay from [pre_min, pre_max] unclamped and could arrive
        // arbitrarily later than GST + δ, contradicting the §7 model.
        let (gst, delta) = (1_000u64, 7u64);
        for seed in 0..50u64 {
            let cfg = SimConfig {
                seed,
                delay: DelayModel::PartialSynchrony { pre_min: 1, pre_max: 1_000_000, gst, delta },
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
            // PING sent at gst - 1 (pre-GST): must land by gst + delta.
            // The PONG back is sent post-GST: at most delta more.
            sim.invoke_at(SimTime(gst - 1), ProcessId(0), ProcessId(1));
            let reason = sim.run_until_ops_complete();
            assert_eq!(reason, StopReason::OpsComplete, "seed {seed}");
            assert!(
                sim.now().ticks() <= gst + 2 * delta,
                "seed {seed}: round trip finished at {} > gst + 2δ = {}",
                sim.now().ticks(),
                gst + 2 * delta
            );
        }
    }

    #[test]
    fn pre_gst_delays_still_vary_below_the_clamp() {
        // The clamp must not collapse every pre-GST delay onto gst + δ:
        // early sends far from GST keep their drawn delays.
        let cfg = SimConfig {
            seed: 3,
            delay: DelayModel::PartialSynchrony { pre_min: 1, pre_max: 40, gst: 10_000, delta: 4 },
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run_until_ops_complete();
        let lat = sim.history().ops()[0].latency().unwrap();
        assert!(lat <= 80, "far-from-GST delays must come from [pre_min, pre_max], got {lat}");
    }

    #[test]
    fn extreme_gst_cannot_wrap_the_pre_gst_clamp() {
        // Regression: `gst + delta - now` was unchecked arithmetic; a gst
        // near u64::MAX wrapped in release builds and produced a garbage
        // clamp. With saturating ops the (astronomical) clamp never bites.
        let model =
            DelayModel::PartialSynchrony { pre_min: 5, pre_max: 9, gst: u64::MAX - 5, delta: 4 };
        model.validate();
        let mut rng = SplitMix64::new(11);
        for now in [0u64, 1, 1 << 32, u64::MAX - 6] {
            let d = model.draw(SimTime(now), &mut rng);
            assert!((5..=9).contains(&d), "astronomical clamp must not bite, got {d}");
        }
    }

    #[test]
    #[should_panic(expected = "gst + delta overflows")]
    fn overflowing_gst_plus_delta_is_rejected() {
        let cfg = SimConfig {
            delay: DelayModel::PartialSynchrony {
                pre_min: 1,
                pre_max: 10,
                gst: u64::MAX,
                delta: 1,
            },
            ..SimConfig::default()
        };
        Simulation::new(cfg, vec![PingPong::default()]);
    }

    #[test]
    fn net_model_degenerate_cases_reproduce_plain_traces() {
        // `NetModel::from(DelayModel)` must be draw-for-draw identical to
        // the plain path end to end: same completion times, same stats,
        // same final clock — even with loss draws interleaved.
        let delays = [
            DelayModel::Uniform { min: 1, max: 10 },
            DelayModel::PartialSynchrony { pre_min: 1, pre_max: 100, gst: 60, delta: 5 },
        ];
        for delay in delays {
            for seed in 0..10u64 {
                let run = |net: Option<NetModel>| {
                    let cfg = SimConfig { seed, delay, net, loss: 0.2, ..SimConfig::default() };
                    let nodes = vec![PingPong::default(), PingPong::default(), PingPong::default()];
                    let mut sim = Simulation::new(cfg, nodes);
                    for i in 0..3u64 {
                        let p = ProcessId(i as usize % 3);
                        let q = ProcessId((i as usize + 1) % 3);
                        sim.invoke_at(SimTime(1 + i * 7), p, q);
                    }
                    sim.run();
                    let times: Vec<_> =
                        sim.history().ops().iter().map(|r| r.completed_at()).collect();
                    (times, sim.stats(), sim.now())
                };
                assert_eq!(
                    run(None),
                    run(Some(NetModel::from(delay))),
                    "degenerate trace diverged for {delay:?} seed {seed}"
                );
            }
        }
    }

    /// A protocol that re-arms a zero-duration timer forever.
    #[derive(Clone, Default, Debug)]
    struct Spinner {
        fired: u64,
    }

    impl Protocol for Spinner {
        type Msg = ();
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, ctx: &mut Context<(), ()>) {
            ctx.set_timer(TimerId(0), 0);
        }

        fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Context<(), ()>) {}

        fn on_timer(&mut self, id: TimerId, ctx: &mut Context<(), ()>) {
            self.fired += 1;
            ctx.set_timer(id, 0); // re-arm at zero duration
        }

        fn on_invoke(&mut self, _op: OpId, _body: (), _ctx: &mut Context<(), ()>) {}
    }

    #[test]
    fn zero_duration_timers_cannot_freeze_virtual_time() {
        // Regression: `SetTimer { after: 0 }` used to schedule a
        // same-instant event, so a re-arming protocol spun the loop to
        // max_events with time frozen at zero. The >= 1 clamp makes every
        // firing advance the clock, so the horizon is reached instead.
        let cfg = SimConfig { horizon: SimTime(500), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![Spinner::default()]);
        let reason = sim.run();
        assert_eq!(reason, StopReason::Horizon, "time must advance past the horizon");
        assert_eq!(sim.now(), SimTime(500));
        let fired = sim.node(ProcessId(0)).fired;
        assert!((499..=501).contains(&fired), "one firing per tick, got {fired}");
    }

    #[test]
    fn zero_duration_timers_survive_drift() {
        // The drift path must preserve the >= 1 floor too.
        let cfg = SimConfig {
            horizon: SimTime(200),
            delay: DelayModel::PartialSynchrony { pre_min: 1, pre_max: 9, gst: 100_000, delta: 3 },
            timer_drift_max: 2.5,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, vec![Spinner::default()]);
        let reason = sim.run();
        assert_eq!(reason, StopReason::Horizon);
        // Drifted firings land 1–3 ticks apart, so the clock ends within
        // one drifted duration of the horizon — never frozen at zero.
        assert!(sim.now() >= SimTime(195), "time stalled at {:?}", sim.now());
    }

    #[test]
    fn absent_channels_drop_sends_like_disconnections() {
        use gqs_core::NetworkGraph;
        // Topology 0 -> 1 only: the PING gets through, the PONG back is
        // dropped exactly as if (1,0) had disconnected at time zero.
        let mut g = NetworkGraph::empty(2);
        g.add_channel(Channel::new(ProcessId(0), ProcessId(1)));
        let cfg = SimConfig { topology: g.into(), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        let reason = sim.run();
        assert_eq!(reason, StopReason::Quiescent);
        assert!(!sim.history().ops()[0].is_complete());
        assert_eq!(sim.stats().delivered, 1, "the forward PING is delivered");
        assert_eq!(sim.stats().dropped_disconnected, 1, "the reverse PONG is dropped");
    }

    #[test]
    fn complete_topology_graph_changes_nothing() {
        use gqs_core::NetworkGraph;
        // An explicit complete graph must reproduce the default behaviour
        // bit for bit (same RNG consumption, same trace).
        let mut a = two_nodes();
        let cfg = SimConfig { topology: NetworkGraph::complete(2).into(), ..SimConfig::default() };
        let mut b = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        for sim in [&mut a, &mut b] {
            sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
            sim.run();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn self_sends_ignore_the_topology() {
        use gqs_core::NetworkGraph;
        let cfg = SimConfig {
            topology: NetworkGraph::empty(2).into(), // no channels at all
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(0));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    }

    #[test]
    #[should_panic(expected = "topology has 3 processes")]
    fn topology_size_mismatch_is_rejected() {
        use gqs_core::NetworkGraph;
        let cfg = SimConfig { topology: NetworkGraph::empty(3).into(), ..SimConfig::default() };
        let _ = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
    }

    #[test]
    fn partial_synchrony_bounds_post_gst_delays() {
        let cfg = SimConfig {
            delay: DelayModel::PartialSynchrony { pre_min: 1, pre_max: 500, gst: 100, delta: 4 },
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, vec![PingPong::default(), PingPong::default()]);
        // Invoke well after GST: total latency must be <= 2 * delta.
        sim.invoke_at(SimTime(200), ProcessId(0), ProcessId(1));
        sim.run_until_ops_complete();
        let lat = sim.history().ops()[0].latency().unwrap();
        assert!(lat <= 8, "post-GST latency {lat} exceeded 2δ");
    }

    #[test]
    fn stats_count_sent_and_delivered() {
        let mut sim = two_nodes();
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run();
        let s = sim.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 2);
        assert!(s.events >= 4); // 2 starts + invoke + 2 delivers
    }

    #[test]
    fn long_flapping_schedule_tracks_bounded_channel_state() {
        // Regression: a channel that flaps (disconnect/heal) thousands of
        // times must cost one tracked slot, not an ever-churning map — the
        // down-state memory is bounded by *distinct* faulted channels.
        let mut sim = two_nodes();
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        for k in 0..5_000u64 {
            sched.disconnect(ch, SimTime(10 + 2 * k));
            sched.heal(ch, SimTime(11 + 2 * k));
        }
        sim.apply_failures(&sched);
        // Sends landing inside down windows drop; sends outside go through.
        sim.invoke_at(SimTime(5), ProcessId(0), ProcessId(1)); // before any flap
        sim.run();
        assert_eq!(sim.down_tracked_channels(), 1);
        assert!(!sim.is_disconnected(ch), "final heal leaves the channel up");
        assert!(sim.history().ops()[0].is_complete());
        // A second distinct channel adds exactly one more slot.
        let rev = Channel::new(ProcessId(1), ProcessId(0));
        let mut more = FailureSchedule::none();
        for k in 0..1_000u64 {
            more.disconnect(rev, sim.now() + 1 + 2 * k);
            more.heal(rev, sim.now() + 2 + 2 * k);
        }
        sim.apply_failures(&more);
        sim.run_until(sim.now() + 5_000);
        assert_eq!(sim.down_tracked_channels(), 2);
        assert!(!sim.is_disconnected(rev));
    }

    /// Byte-level fingerprint of everything observable about a run:
    /// clock, statistics, RNG stream position, and the full op history.
    fn fingerprint<P>(sim: &Simulation<P>) -> String
    where
        P: Protocol + std::fmt::Debug,
    {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            sim.now(),
            sim.stats(),
            sim.rng(),
            sim.history().ops(),
            sim.nodes
        )
    }

    /// Builds a busy lossy ping-pong run with mid-run faults — enough
    /// machinery (messages, timers via drift, down intervals, loss draws,
    /// crash/recovery) to make checkpoint gaps observable.
    fn busy_sim(seed: u64) -> Simulation<PingPong> {
        let cfg = SimConfig { seed, loss: 0.15, ..SimConfig::default() };
        let nodes = (0..4).map(|_| PingPong::default()).collect();
        let mut sim = Simulation::new(cfg, nodes);
        let mut sched = FailureSchedule::none();
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        sched.disconnect(ch, SimTime(40)).heal(ch, SimTime(120));
        sched.crash(ProcessId(2), SimTime(60)).recover(ProcessId(2), SimTime(200));
        sim.apply_failures(&sched);
        for i in 0..12u64 {
            let p = ProcessId((i % 4) as usize);
            let q = ProcessId(((i + 1) % 4) as usize);
            sim.invoke_at(SimTime(1 + i * 30), p, q);
        }
        sim
    }

    /// The core determinism oracle: `checkpoint(); run; restore(); run`
    /// must land byte-identically on the uninterrupted run — same events,
    /// same NetStats, same history, same RNG position — at a randomized
    /// snapshot instant.
    #[test]
    fn checkpoint_restore_rerun_is_byte_identical() {
        for seed in 0..20u64 {
            let mut straight = busy_sim(seed);
            straight.run();
            let expected = fingerprint(&straight);

            let mut forked = busy_sim(seed);
            // Snapshot at a seed-dependent mid-run instant.
            let cut = 20 + (seed * 17) % 300;
            forked.run_until(SimTime(cut));
            let cp = forked.checkpoint();
            assert_eq!(cp.now(), forked.now(), "seed {seed}");
            // Run to completion once, rewind, run again: both continuations
            // and the straight-line run must agree exactly.
            forked.run();
            assert_eq!(fingerprint(&forked), expected, "seed {seed}: first continuation");
            forked.restore(&cp);
            forked.run();
            assert_eq!(fingerprint(&forked), expected, "seed {seed}: replayed continuation");
        }
    }

    /// A checkpoint is immutable state: taking one and immediately
    /// restoring it is a no-op, and restoring twice yields the same
    /// continuation both times even with further mutation in between.
    #[test]
    fn restore_is_idempotent_and_reusable() {
        let mut sim = busy_sim(7);
        sim.run_until(SimTime(100));
        let cp = sim.checkpoint();
        let at_cut = fingerprint(&sim);
        sim.restore(&cp);
        assert_eq!(fingerprint(&sim), at_cut, "restore immediately after checkpoint is a no-op");
        sim.run();
        let first = fingerprint(&sim);
        sim.restore(&cp);
        sim.run();
        assert_eq!(fingerprint(&sim), first, "second replay from the same checkpoint");
    }

    /// Reseeding at the branch point diverges continuations — and equal
    /// reseeds branch identically (what fork-vs-straight sweeps rely on).
    #[test]
    fn reseed_branches_diverge_and_equal_seeds_agree() {
        let mut sim = busy_sim(3);
        sim.run_until(SimTime(80));
        let cp = sim.checkpoint();
        let mut finger = |seed: u64| {
            sim.restore(&cp);
            sim.reseed(seed);
            sim.run();
            fingerprint(&sim)
        };
        let a1 = finger(111);
        let b = finger(222);
        let a2 = finger(111);
        assert_eq!(a1, a2, "equal branch seeds must produce identical continuations");
        assert_ne!(a1, b, "distinct branch seeds must diverge (holds for these seeds)");
    }

    /// `split_at` partitions a schedule so that prefix-then-suffix
    /// application reproduces whole-schedule application exactly.
    #[test]
    fn schedule_split_prefix_plus_suffix_matches_whole() {
        let pattern_free = |apply_split: bool| {
            let cfg = SimConfig { seed: 5, ..SimConfig::default() };
            let nodes = (0..3).map(|_| PingPong::default()).collect();
            let mut sim: Simulation<PingPong> = Simulation::new(cfg, nodes);
            let mut sched = FailureSchedule::none();
            let ch = Channel::new(ProcessId(0), ProcessId(1));
            sched.disconnect(ch, SimTime(30)).heal(ch, SimTime(90));
            sched.crash(ProcessId(2), SimTime(50)).recover(ProcessId(2), SimTime(130));
            if apply_split {
                let (before, after) = sched.split_at(SimTime(50));
                assert_eq!(before.disconnects().len(), 1);
                assert_eq!(after.crashes().len(), 1, "the t=50 crash lands in the suffix");
                sim.apply_failures(&before);
                sim.apply_failures(&after);
            } else {
                sim.apply_failures(&sched);
            }
            for i in 0..6u64 {
                sim.invoke_at(
                    SimTime(10 + i * 25),
                    ProcessId((i % 3) as usize),
                    ProcessId(((i + 1) % 3) as usize),
                );
            }
            sim.run();
            fingerprint(&sim)
        };
        assert_eq!(pattern_free(false), pattern_free(true));
    }

    #[test]
    fn down_window_disconnects_then_heals_keeping_per_kind_order() {
        let (a, b, c) = (
            Channel::new(ProcessId(0), ProcessId(1)),
            Channel::new(ProcessId(1), ProcessId(0)),
            Channel::new(ProcessId(1), ProcessId(2)),
        );
        let mut sched = FailureSchedule::none();
        sched.down_window(&[a, b], SimTime(10), SimTime(20));
        sched.down_window(&[c], SimTime(5), SimTime(8));
        assert_eq!(sched.disconnects(), &[(a, SimTime(10)), (b, SimTime(10)), (c, SimTime(5))]);
        assert_eq!(sched.heals(), &[(a, SimTime(20)), (b, SimTime(20)), (c, SimTime(8))]);
        assert!(sched.crashes().is_empty() && sched.recovers().is_empty());
        sched.down_window(&[], SimTime(30), SimTime(40));
        assert_eq!(sched.disconnects().len(), 3, "an empty slice adds nothing");
        assert_eq!(sched.heals().len(), 3);
    }

    #[test]
    fn crash_window_crashes_then_recovers() {
        let mut sched = FailureSchedule::none();
        sched.crash_window(ProcessId(2), SimTime(7), SimTime(11));
        sched.crash_window(ProcessId(0), SimTime(1), SimTime(3));
        assert_eq!(sched.crashes(), &[(ProcessId(2), SimTime(7)), (ProcessId(0), SimTime(1))]);
        assert_eq!(sched.recovers(), &[(ProcessId(2), SimTime(11)), (ProcessId(0), SimTime(3))]);
        assert!(sched.disconnects().is_empty() && sched.heals().is_empty());
    }

    #[test]
    #[should_panic(expected = "empty down window")]
    fn empty_down_window_is_rejected() {
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        FailureSchedule::none().down_window(&[ch], SimTime(5), SimTime(5));
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_crash_window_is_rejected() {
        FailureSchedule::none().crash_window(ProcessId(0), SimTime(9), SimTime(4));
    }

    #[test]
    fn merge_concatenates_each_kind() {
        let (a, b) =
            (Channel::new(ProcessId(0), ProcessId(1)), Channel::new(ProcessId(1), ProcessId(0)));
        let mut first = FailureSchedule::none();
        first.crash_window(ProcessId(0), SimTime(1), SimTime(2)).down_window(
            &[a],
            SimTime(3),
            SimTime(4),
        );
        let mut second = FailureSchedule::none();
        second.down_window(&[b], SimTime(0), SimTime(9)).crash(ProcessId(1), SimTime(5));
        first.merge(second);
        assert_eq!(first.crashes(), &[(ProcessId(0), SimTime(1)), (ProcessId(1), SimTime(5))]);
        assert_eq!(first.disconnects(), &[(a, SimTime(3)), (b, SimTime(0))]);
        assert_eq!(first.heals(), &[(a, SimTime(4)), (b, SimTime(9))]);
        assert_eq!(first.recovers(), &[(ProcessId(0), SimTime(2))]);
        first.merge(FailureSchedule::none());
        assert_eq!(
            first.crashes().len() + first.disconnects().len(),
            4,
            "merging nothing adds nothing"
        );
    }

    #[test]
    fn overlapping_down_intervals_hold_until_every_heal() {
        // Two disconnects on one channel heal independently: the channel
        // stays down until the count returns to zero, and a stray extra
        // heal is a no-op (counts saturate at zero).
        let mut sim = two_nodes();
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        sched
            .disconnect(ch, SimTime(10))
            .disconnect(ch, SimTime(20))
            .heal(ch, SimTime(30))
            .heal(ch, SimTime(40))
            .heal(ch, SimTime(50)); // extra heal: must not underflow
        sim.apply_failures(&sched);
        sim.run_until(SimTime(35));
        assert!(sim.is_disconnected(ch), "one of two disconnects still active");
        sim.run_until(SimTime(60));
        assert!(!sim.is_disconnected(ch));
        sim.invoke_at(sim.now() + 1, ProcessId(0), ProcessId(1));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    }

    use crate::trace::{FlightRecorder, JsonlSink, SharedSink};

    /// Runs `sim` with a JSONL sink attached and returns the trace text
    /// plus the run fingerprint.
    fn traced_run<P>(mut sim: Simulation<P>) -> (String, String)
    where
        P: Protocol + std::fmt::Debug,
    {
        let sink = SharedSink::new(JsonlSink::new());
        sim.set_trace(Box::new(sink.clone()));
        sim.run();
        (sink.with(|s| s.as_str().to_string()), fingerprint(&sim))
    }

    /// [`traced_run`] of `busy_sim(seed)`.
    fn traced_busy_run(seed: u64) -> (String, String) {
        traced_run(busy_sim(seed))
    }

    /// Echoes every message to all for a few hops, either with
    /// `broadcast` or with the `send` loop it stands for.
    #[derive(Clone, Debug)]
    struct Echo {
        looped: bool,
    }

    impl Echo {
        fn to_all(&self, hops: u8, ctx: &mut Context<u8, ()>) {
            if self.looped {
                for p in 0..ctx.n() {
                    ctx.send(ProcessId(p), hops);
                }
            } else {
                ctx.broadcast(hops);
            }
        }
    }

    impl Protocol for Echo {
        type Msg = u8;
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<u8, ()>) {}

        fn on_message(&mut self, _from: ProcessId, hops: u8, ctx: &mut Context<u8, ()>) {
            if hops > 0 {
                self.to_all(hops - 1, ctx);
            }
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<u8, ()>) {}

        fn on_invoke(&mut self, op: OpId, _body: (), ctx: &mut Context<u8, ()>) {
            self.to_all(2, ctx);
            ctx.complete(op, ());
        }
    }

    /// What unflooded stacks rely on: `Effect::Broadcast` is applied as
    /// the `0..n` loop of `Effect::Send`s — same trace, same `NetStats`,
    /// same RNG position — with loss draws and a down interval in play.
    #[test]
    fn broadcast_equals_a_send_loop() {
        let run = |looped: bool, loss: f64| {
            let cfg = SimConfig { seed: 23, loss, ..SimConfig::default() };
            let mut sim = Simulation::new(cfg, vec![Echo { looped }; 4]);
            let ch = Channel::new(ProcessId(0), ProcessId(2));
            let mut sched = FailureSchedule::none();
            sched.disconnect(ch, SimTime(5)).heal(ch, SimTime(25));
            sim.apply_failures(&sched);
            let sink = SharedSink::new(JsonlSink::new());
            sim.set_trace(Box::new(sink.clone()));
            sim.invoke_at(SimTime(1), ProcessId(0), ());
            sim.invoke_at(SimTime(12), ProcessId(3), ());
            sim.run();
            let trace = sink.with(|s| s.as_str().to_string());
            (trace, sim.stats(), sim.rng().clone(), sim.now())
        };
        for loss in [0.0, 0.2] {
            let (broadcast, looped) = (run(false, loss), run(true, loss));
            assert_eq!(broadcast, looped, "loss {loss}");
            let stats = broadcast.1;
            assert!(stats.dropped_disconnected > 0, "the down interval must bite");
            assert_eq!(stats.dropped_lossy > 0, loss > 0.0);
        }
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        for seed in [1u64, 9, 42] {
            let mut plain = busy_sim(seed);
            plain.run();
            let (trace, traced_fp) = traced_busy_run(seed);
            assert_eq!(fingerprint(&plain), traced_fp, "seed {seed}: tracing changed the run");
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let (a, _) = traced_busy_run(5);
        let (b, _) = traced_busy_run(5);
        assert_eq!(a, b, "same seed must produce byte-identical traces");
        let (c, _) = traced_busy_run(6);
        assert_ne!(a, c, "different seeds diverge (holds for these seeds)");
    }

    #[test]
    fn trace_covers_the_whole_event_loop() {
        let (trace, _) = traced_busy_run(1);
        for ev in [
            "\"send\"",
            "\"deliver\"",
            "\"drop_lossy\"",
            "\"crash\"",
            "\"recover\"",
            "\"cut_down\"",
            "\"cut_heal\"",
            "\"op_start\"",
            "\"op_end\"",
        ] {
            assert!(trace.contains(ev), "busy trace is missing {ev}:\n{trace}");
        }
    }

    /// One send per counter: every path a message can die on lands in
    /// exactly one `NetStats` drop counter, and sends conserve —
    /// `sent = delivered + Σ drops` once the queue drains.
    #[test]
    fn drop_counters_partition_sends_at_quiescence() {
        let cfg = SimConfig {
            seed: 13,
            loss: 0.3,
            drop_inflight_of_crashed: true,
            delay: DelayModel::Uniform { min: 10, max: 10 },
            ..SimConfig::default()
        };
        let nodes = (0..4).map(|_| PingPong::default()).collect();
        let mut sim: Simulation<PingPong> = Simulation::new(cfg, nodes);
        let mut sched = FailureSchedule::none();
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        sched.disconnect(ch, SimTime(0)); // never heals: drops 0->1 sends
        sched.crash(ProcessId(2), SimTime(15)); // kills 2 mid-run
        sim.apply_failures(&sched);
        for i in 0..8u64 {
            let p = ProcessId((i % 4) as usize);
            let q = ProcessId(((i + 1) % 4) as usize);
            sim.invoke_at(SimTime(1 + i * 5), p, q);
        }
        assert_eq!(sim.run(), StopReason::Quiescent);
        let s = sim.stats();
        assert!(s.dropped_disconnected > 0, "the cut channel must eat something");
        assert!(s.dropped_lossy > 0, "30% loss must fire");
        assert_eq!(
            s.sent,
            s.delivered
                + s.dropped_disconnected
                + s.dropped_lossy
                + s.dropped_crashed
                + s.dropped_sender_crashed,
            "each sent message lands in exactly one bucket: {s:?}"
        );
    }

    /// A protocol that arms one long timer at start and never completes
    /// its op — raw material for cancelled-timer and stall diagnostics.
    #[derive(Clone, Default, Debug)]
    struct Sleeper;

    impl Protocol for Sleeper {
        type Msg = ();
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, ctx: &mut Context<(), ()>) {
            ctx.set_timer(TimerId(1), 100);
        }

        fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Context<(), ()>) {}

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<(), ()>) {}

        fn on_invoke(&mut self, _op: OpId, _body: (), _ctx: &mut Context<(), ()>) {}
    }

    #[test]
    fn stale_timers_trace_as_cancelled() {
        let mut sim = Simulation::new(SimConfig::default(), vec![Sleeper, Sleeper]);
        let sink = SharedSink::new(JsonlSink::new());
        sim.set_trace(Box::new(sink.clone()));
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(0), SimTime(50)); // cancels the t=100 timer
        sim.apply_failures(&sched);
        sim.run();
        let trace = sink.with(|s| s.as_str().to_string());
        assert!(trace.contains("{\"t\":100,\"ev\":\"timer_cancelled\",\"p\":0,\"timer\":1}"));
        assert!(trace.contains("{\"t\":100,\"ev\":\"timer_fire\",\"p\":1,\"timer\":1}"));
        assert!(trace.contains("\"ev\":\"timer_set\""));
    }

    #[test]
    fn event_cap_names_stalled_ops_and_fires_the_flight_recorder() {
        let cfg = SimConfig { max_events: 40, horizon: SimTime(10_000), ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![Spinner::default()]);
        let recorder = SharedSink::new(FlightRecorder::with_capacity(16));
        sim.set_trace(Box::new(recorder.clone()));
        sim.invoke_at(SimTime(1), ProcessId(0), ());
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::EventCap { stalled_ops: 1 });
        let report = recorder.with(|r| r.report().map(str::to_string));
        let report = report.expect("EventCap must produce a flight-recorder report");
        assert!(report.contains("1 stalled op(s)"), "{report}");
        assert!(report.contains("op0 @ p0 invoked t=1"), "{report}");
        assert!(report.contains("last 16 event(s):"), "{report}");
    }

    #[test]
    fn checkpoints_exclude_the_trace_sink() {
        let mut sim = busy_sim(2);
        sim.set_trace(Box::new(JsonlSink::new()));
        let cp = sim.checkpoint();
        sim.run();
        sim.restore(&cp);
        assert!(sim.tracing(), "restore must not detach the sink");
        let mut fresh = busy_sim(2);
        fresh.restore(&cp);
        assert!(!fresh.tracing(), "a checkpoint carries no sink into another sim");
        assert!(sim.take_trace().is_some());
        assert!(!sim.tracing());
    }

    #[test]
    fn forked_and_straight_continuations_trace_identically() {
        // After the branch point, a restored-and-reseeded continuation
        // must emit byte-for-byte the trace of a straight run that was
        // reseeded at the same instant — fork replay is invisible to the
        // trace plane, so traced branched sweeps stay cmp-able against
        // their straight references.
        let branch_at = SimTime(50);
        let branch_seed = 0xB12A_5EED;
        let tail = |sim: &mut Simulation<PingPong>| -> String {
            let sink = SharedSink::new(JsonlSink::new());
            sim.set_trace(Box::new(sink.clone()));
            sim.reseed(branch_seed);
            sim.run_until_ops_complete();
            sim.take_trace();
            sink.with(|s| s.as_str().to_string())
        };

        let mut straight = busy_sim(5);
        straight.run_until(branch_at);
        let reference = tail(&mut straight);
        assert!(!reference.is_empty());

        let mut forked = busy_sim(5);
        forked.run_until(branch_at);
        let cp = forked.checkpoint();
        forked.restore(&cp);
        assert_eq!(tail(&mut forked), reference, "first fork diverged");
        // Branches later in the fan-out replay the same tail too.
        forked.restore(&cp);
        assert_eq!(tail(&mut forked), reference, "second fork diverged");
    }

    #[test]
    fn bucketed_runs_replay_the_straight_run_exactly() {
        // Slicing a run into windows with run_until_ops_complete_or must
        // process the same events in the same order as one straight
        // run_until_ops_complete — the invariant --timeline rests on.
        let mut straight = busy_sim(11);
        straight.run_until_ops_complete();
        let mut sliced = busy_sim(11);
        let mut bound = 25;
        while let StopReason::Horizon = sliced.run_until_ops_complete_or(SimTime(bound)) {
            bound += 25;
        }
        assert_eq!(fingerprint(&straight), fingerprint(&sliced));
    }

    /// Start-up probe: `on_start` greets the successor (one delay draw)
    /// and arms a timer, so a run's first `n` events leave work queued.
    #[derive(Clone, Default, Debug)]
    struct Starter {
        started: bool,
        greeted: u64,
        fired: u64,
    }

    impl Protocol for Starter {
        type Msg = ();
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, ctx: &mut Context<(), ()>) {
            assert!(!self.started, "on_start runs once");
            assert_eq!(ctx.now(), SimTime::ZERO);
            self.started = true;
            ctx.send(ProcessId((ctx.me().index() + 1) % ctx.n()), ());
            ctx.set_timer(TimerId(0), 7);
        }

        fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Context<(), ()>) {
            self.greeted += 1;
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<(), ()>) {
            self.fired += 1;
        }

        fn on_invoke(&mut self, _op: OpId, _body: (), _ctx: &mut Context<(), ()>) {}
    }

    fn starters(n: usize) -> Simulation<Starter> {
        Simulation::new(SimConfig { seed: 31, ..SimConfig::default() }, vec![Starter::default(); n])
    }

    #[test]
    fn startup_is_n_events_at_time_zero() {
        // A protocol that does nothing: the starts are the whole run.
        let mut idle = Simulation::new(SimConfig::default(), vec![PingPong::default(); 5]);
        assert_eq!(idle.run(), StopReason::Quiescent);
        assert_eq!(idle.stats().events, 5);
        assert_eq!(idle.now(), SimTime::ZERO);
        assert!(!idle.step(), "nothing is left to process");

        // `run_until(0)` runs every start and nothing they queued.
        let mut sim = starters(4);
        assert_eq!(sim.run_until(SimTime::ZERO), StopReason::Horizon);
        let s = sim.stats();
        assert_eq!((s.events, s.sent, s.delivered, s.timers_fired), (4, 4, 0, 0));
        assert!(sim.nodes.iter().all(|node| node.started));
        assert_eq!(sim.run(), StopReason::Quiescent);
        assert!(sim.nodes.iter().all(|node| node.greeted == 1 && node.fired == 1));
    }

    #[test]
    fn a_crash_at_time_zero_strikes_after_every_start() {
        let mut sim = starters(4);
        let mut sched = FailureSchedule::none();
        sched.crash(ProcessId(2), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.run();
        assert!(sim.nodes.iter().all(|node| node.started), "the crash does not pre-empt a start");
        assert!(sim.is_crashed(ProcessId(2)));
        let crashed = sim.node(ProcessId(2));
        assert_eq!((crashed.greeted, crashed.fired), (0, 0), "nothing reaches it afterwards");
        assert_eq!(sim.stats().dropped_crashed, 1);
    }

    #[test]
    fn checkpoint_between_starts_restores_the_cursor() {
        let n = 5;
        let mut straight = starters(n);
        straight.run();
        let expected = fingerprint(&straight);
        for k in 0..n {
            let mut sim = starters(n);
            for _ in 0..k {
                assert!(sim.step());
            }
            let cp = sim.checkpoint();
            sim.run();
            assert_eq!(fingerprint(&sim), expected, "k={k}: run after checkpoint");
            sim.restore(&cp);
            assert_eq!(sim.nodes.iter().filter(|node| node.started).count(), k);
            assert_eq!(sim.stats().events, k as u64);
            sim.run();
            assert_eq!(fingerprint(&sim), expected, "k={k}: restored replay");
        }
    }

    /// Invoked, sends a burst of `burst` messages round-robin; every
    /// message with hops left is answered with one send.
    #[derive(Clone, Debug)]
    struct Burst {
        burst: usize,
        received: u64,
    }

    impl Protocol for Burst {
        type Msg = u8;
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<u8, ()>) {}

        fn on_message(&mut self, from: ProcessId, hops: u8, ctx: &mut Context<u8, ()>) {
            self.received += 1;
            if hops > 0 {
                ctx.send(from, hops - 1);
            }
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<u8, ()>) {}

        fn on_invoke(&mut self, op: OpId, _body: (), ctx: &mut Context<u8, ()>) {
            for k in 0..self.burst {
                ctx.send(ProcessId(k % ctx.n()), 2);
            }
            ctx.complete(op, ());
        }
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// The lent effect buffer grows to the largest burst and is then
    /// reused by every ordinary handler: neither may change what a run
    /// does. Pinned to the values the fresh-context-per-event simulator
    /// produced for the same run.
    #[test]
    fn a_large_burst_leaves_later_handlers_untouched() {
        let cfg = SimConfig { seed: 47, loss: 0.1, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, vec![Burst { burst: 10_000, received: 0 }; 4]);
        sim.invoke_at(SimTime(1), ProcessId(1), ());
        sim.invoke_at(SimTime(40), ProcessId(3), ());
        let (trace, print) = traced_run(sim);
        assert_eq!(
            (trace.lines().count(), fnv1a(&trace), fnv1a(&print)),
            (111_380, 0x267a_6d09_f28d_ece3, 0xa62f_a189_26a3_9dbf),
            "trace lines, trace digest, fingerprint digest"
        );
    }
}

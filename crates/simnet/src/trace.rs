//! Deterministic tracing: structured simulator events and pluggable sinks.
//!
//! The simulator can stream every event it processes — sends, deliveries,
//! drops (with their cause), timer arm/fire/cancel, crash/recover,
//! channel cut/heal, operation start/end, and protocol-emitted spans —
//! into a [`TraceSink`]. Tracing is **off by default and free when off**:
//! the hot loop checks one `Option` per event and constructs no
//! [`TraceEvent`] unless a sink is attached (the four golden reports are
//! byte-identical with tracing disabled).
//!
//! Because the simulator itself is bit-deterministic in the seed, so is
//! every trace: the same seed produces the same byte stream from
//! [`JsonlSink`] on every run, on any thread count — traces can be
//! golden-tested, `cmp`-ed across `GQS_THREADS` settings, and diffed
//! across fork-replay branches (identical after the branch point only if
//! the branch seeds match).
//!
//! Shipped sinks:
//!
//! * [`CountingSink`] — per-process and per-channel-class counters; the
//!   load-model hook for quorum-selection heuristics (Malkhi–Reiter–Wool
//!   style load needs per-process message counts, not just totals).
//! * [`JsonlSink`] — one JSON object per line; the machine-diffable
//!   export behind `gqs_sweep --trace-out`.
//! * [`ChromeSink`] — a `chrome://tracing` / Perfetto JSON array: ops and
//!   protocol spans as async spans, everything else as instants, one
//!   track per process.
//! * [`FlightRecorder`] — a bounded ring of the last N events plus the
//!   currently pending ops and armed timers; on
//!   [`StopReason::EventCap`] it renders a post-mortem report naming the
//!   stalled operations, turning an opaque stall into a diagnosis.
//!
//! Attach a sink with [`Simulation::set_trace`](crate::Simulation::set_trace)
//! and retrieve it with [`Simulation::take_trace`](crate::Simulation::take_trace),
//! or keep shared access through [`SharedSink`]. Protocols emit their own
//! phase markers through [`Context::span_start`](crate::Context::span_start)
//! / [`span_end`](crate::Context::span_end) /
//! [`trace_instant`](crate::Context::trace_instant), which are dropped at
//! zero cost while tracing is off.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use gqs_core::{Channel, ProcessId};

use crate::protocol::{OpId, TimerId};
use crate::sim::StopReason;
use crate::time::SimTime;
use crate::topology::{ChannelClass, Topology};

/// Whether a protocol-emitted trace marker opens a span, closes one, or
/// stands alone.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// Opens a span; matched with an [`SpanKind::End`] of the same
    /// `(label, id)`.
    Start,
    /// Closes the span opened by the matching [`SpanKind::Start`].
    End,
    /// A point event with no duration.
    Instant,
}

/// One structured simulator event.
///
/// Every variant carries the virtual instant `at` it happened. Message
/// events identify the channel endpoints; a message produces a
/// [`TraceEvent::Send`] when handed to the network and then exactly one
/// of [`TraceEvent::Deliver`], [`TraceEvent::DropLossy`],
/// [`TraceEvent::DropDisconnected`], [`TraceEvent::DropCrashed`] or
/// [`TraceEvent::DropSenderCrashed`] (drops at send time are emitted at
/// the send instant; crash drops at the would-be delivery instant).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A message was handed to the network.
    Send {
        /// Send instant.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// A message reached a live destination.
    Deliver {
        /// Delivery instant.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The seeded loss model dropped a send.
    DropLossy {
        /// Send instant.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The channel was absent from the topology or inside a down interval
    /// at send time.
    DropDisconnected {
        /// Send instant.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The destination was crashed at the delivery instant.
    DropCrashed {
        /// Would-be delivery instant.
        at: SimTime,
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The adversarial
    /// [`drop_inflight_of_crashed`](crate::SimConfig::drop_inflight_of_crashed)
    /// option discarded an in-flight message of a crashed sender.
    DropSenderCrashed {
        /// Would-be delivery instant.
        at: SimTime,
        /// Sender (crashed).
        from: ProcessId,
        /// Destination (alive).
        to: ProcessId,
    },
    /// A protocol rebroadcast a request as `count` copies (see
    /// [`Effect::NoteRetransmit`](crate::Effect::NoteRetransmit)).
    Retransmit {
        /// Retransmit instant.
        at: SimTime,
        /// The retransmitting process.
        process: ProcessId,
        /// Copies resent.
        count: u64,
    },
    /// A one-shot timer was armed.
    TimerSet {
        /// Arm instant.
        at: SimTime,
        /// The arming process.
        process: ProcessId,
        /// Protocol-chosen timer id.
        id: TimerId,
        /// When it will fire (drift already applied).
        fire_at: SimTime,
    },
    /// An armed timer fired at a live process.
    TimerFire {
        /// Fire instant.
        at: SimTime,
        /// The process.
        process: ProcessId,
        /// Timer id.
        id: TimerId,
    },
    /// An armed timer's fire instant arrived, but a crash since arming
    /// had cancelled it (the liveness epoch moved on).
    TimerCancelled {
        /// Would-be fire instant.
        at: SimTime,
        /// The process.
        process: ProcessId,
        /// Timer id.
        id: TimerId,
    },
    /// A process crashed.
    Crash {
        /// Crash instant.
        at: SimTime,
        /// The process.
        process: ProcessId,
    },
    /// A crashed process rejoined.
    Recover {
        /// Recovery instant.
        at: SimTime,
        /// The process.
        process: ProcessId,
    },
    /// A channel down-interval opened.
    CutDown {
        /// Disconnection instant.
        at: SimTime,
        /// The channel.
        channel: Channel,
    },
    /// A channel heal event was processed (closing one covering down
    /// interval, if any was open).
    CutHeal {
        /// Heal instant.
        at: SimTime,
        /// The channel.
        channel: Channel,
    },
    /// A client operation was invoked at a live process.
    OpStart {
        /// Invocation instant.
        at: SimTime,
        /// The invoked process.
        process: ProcessId,
        /// The operation id.
        op: OpId,
    },
    /// A client operation completed.
    OpEnd {
        /// Completion instant.
        at: SimTime,
        /// The completing process.
        process: ProcessId,
        /// The operation id.
        op: OpId,
    },
    /// A protocol-emitted span marker (see
    /// [`Context::span_start`](crate::Context::span_start)).
    Proto {
        /// Emission instant.
        at: SimTime,
        /// The emitting process.
        process: ProcessId,
        /// Span start / end / instant.
        kind: SpanKind,
        /// Static label; keep it to `[a-z0-9_]` so JSON exports need no
        /// escaping.
        label: &'static str,
        /// Protocol-chosen correlation id (op token, view number, …).
        id: u64,
    },
}

impl TraceEvent {
    /// The virtual instant the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::DropLossy { at, .. }
            | TraceEvent::DropDisconnected { at, .. }
            | TraceEvent::DropCrashed { at, .. }
            | TraceEvent::DropSenderCrashed { at, .. }
            | TraceEvent::Retransmit { at, .. }
            | TraceEvent::TimerSet { at, .. }
            | TraceEvent::TimerFire { at, .. }
            | TraceEvent::TimerCancelled { at, .. }
            | TraceEvent::Crash { at, .. }
            | TraceEvent::Recover { at, .. }
            | TraceEvent::CutDown { at, .. }
            | TraceEvent::CutHeal { at, .. }
            | TraceEvent::OpStart { at, .. }
            | TraceEvent::OpEnd { at, .. }
            | TraceEvent::Proto { at, .. } => at,
        }
    }

    /// The stable snake_case name used by the JSONL export and the
    /// flight-recorder report.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::DropLossy { .. } => "drop_lossy",
            TraceEvent::DropDisconnected { .. } => "drop_disconnected",
            TraceEvent::DropCrashed { .. } => "drop_crashed",
            TraceEvent::DropSenderCrashed { .. } => "drop_sender_crashed",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::TimerSet { .. } => "timer_set",
            TraceEvent::TimerFire { .. } => "timer_fire",
            TraceEvent::TimerCancelled { .. } => "timer_cancelled",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Recover { .. } => "recover",
            TraceEvent::CutDown { .. } => "cut_down",
            TraceEvent::CutHeal { .. } => "cut_heal",
            TraceEvent::OpStart { .. } => "op_start",
            TraceEvent::OpEnd { .. } => "op_end",
            TraceEvent::Proto { kind: SpanKind::Start, .. } => "span_start",
            TraceEvent::Proto { kind: SpanKind::End, .. } => "span_end",
            TraceEvent::Proto { kind: SpanKind::Instant, .. } => "instant",
        }
    }
}

impl fmt::Display for TraceEvent {
    /// A compact human-readable line, e.g. `t=41 deliver 0->2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} {}", self.at().ticks(), self.name())?;
        match *self {
            TraceEvent::Send { from, to, .. }
            | TraceEvent::Deliver { from, to, .. }
            | TraceEvent::DropLossy { from, to, .. }
            | TraceEvent::DropDisconnected { from, to, .. }
            | TraceEvent::DropCrashed { from, to, .. }
            | TraceEvent::DropSenderCrashed { from, to, .. } => {
                write!(f, " {}->{}", from.index(), to.index())
            }
            TraceEvent::Retransmit { process, count, .. } => {
                write!(f, " p{} x{count}", process.index())
            }
            TraceEvent::TimerSet { process, id, fire_at, .. } => {
                write!(f, " p{} {id} due={}", process.index(), fire_at.ticks())
            }
            TraceEvent::TimerFire { process, id, .. }
            | TraceEvent::TimerCancelled { process, id, .. } => {
                write!(f, " p{} {id}", process.index())
            }
            TraceEvent::Crash { process, .. } | TraceEvent::Recover { process, .. } => {
                write!(f, " p{}", process.index())
            }
            TraceEvent::CutDown { channel, .. } | TraceEvent::CutHeal { channel, .. } => {
                write!(f, " {}->{}", channel.from.index(), channel.to.index())
            }
            TraceEvent::OpStart { process, op, .. } | TraceEvent::OpEnd { process, op, .. } => {
                write!(f, " p{} {op}", process.index())
            }
            TraceEvent::Proto { process, label, id, .. } => {
                write!(f, " p{} {label}#{id}", process.index())
            }
        }
    }
}

/// A consumer of simulator trace events.
///
/// Sinks must be cheap per event (`record` sits on the simulator's hot
/// loop whenever tracing is on) and must not introduce nondeterminism:
/// everything a sink observes is already fixed by the seed, so a sink
/// that only folds its inputs stays reproducible for free.
///
/// `on_stop` fires every time a `run*` call returns, with the reason; a
/// bucketed run (e.g. a `--timeline` sweep) therefore sees one call per
/// bucket plus the final one. Most sinks ignore it; the
/// [`FlightRecorder`] uses it to render its post-mortem on
/// [`StopReason::EventCap`].
pub trait TraceSink: fmt::Debug {
    /// Consumes one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Called when a simulator `run*` method returns.
    fn on_stop(&mut self, _reason: StopReason, _now: SimTime) {}
}

/// Shared handle to a sink: the simulation owns one clone (boxed), the
/// caller keeps another to read results afterwards.
///
/// ```
/// use gqs_simnet::trace::{CountingSink, SharedSink};
/// let shared = SharedSink::new(CountingSink::new(3));
/// // sim.set_trace(Box::new(shared.clone())); sim.run();
/// let sent = shared.with(|s| s.total().sent);
/// assert_eq!(sent, 0);
/// ```
#[derive(Debug)]
pub struct SharedSink<S: TraceSink>(Arc<Mutex<S>>);

impl<S: TraceSink> SharedSink<S> {
    /// Wraps `sink` in a shared handle.
    pub fn new(sink: S) -> Self {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Runs `f` with exclusive access to the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("trace sink poisoned"))
    }
}

impl<S: TraceSink> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Arc::clone(&self.0))
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn record(&mut self, ev: &TraceEvent) {
        self.0.lock().expect("trace sink poisoned").record(ev);
    }

    fn on_stop(&mut self, reason: StopReason, now: SimTime) {
        self.0.lock().expect("trace sink poisoned").on_stop(reason, now);
    }
}

/// Per-process counters accumulated by [`CountingSink`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct ProcCounters {
    /// Messages this process handed to the network.
    pub sent: u64,
    /// Messages delivered to this process.
    pub delivered: u64,
    /// Sends by this process that were dropped (any cause).
    pub dropped: u64,
    /// Timers fired at this process.
    pub timers_fired: u64,
    /// Operations invoked at this process.
    pub ops_started: u64,
    /// Operations completed at this process.
    pub ops_completed: u64,
}

impl ProcCounters {
    /// Message load of this process: sends plus deliveries — the quantity
    /// quorum load analysis (à la Malkhi–Reiter–Wool) normalizes per
    /// access.
    pub fn load(&self) -> u64 {
        self.sent + self.delivered
    }
}

/// Counting sink: per-process and per-channel-class message counters.
///
/// This is the load-model hook for quorum-selection heuristics: after a
/// run, [`CountingSink::busiest`] names the most loaded process and
/// [`CountingSink::class_sent`] splits traffic into intra-region vs
/// gateway WAN messages (give the sink the run's [`Topology`] via
/// [`CountingSink::with_topology`]; without one, every channel counts as
/// [`ChannelClass::Intra`]).
#[derive(Clone, Debug)]
pub struct CountingSink {
    per_process: Vec<ProcCounters>,
    total: ProcCounters,
    /// Indexed by `ChannelClass as usize` (0 = intra, 1 = gateway).
    class_sent: [u64; 2],
    class_delivered: [u64; 2],
    topology: Option<Topology>,
}

impl CountingSink {
    /// A sink for `n` processes; all channels count as intra-region.
    pub fn new(n: usize) -> Self {
        CountingSink {
            per_process: vec![ProcCounters::default(); n],
            total: ProcCounters::default(),
            class_sent: [0; 2],
            class_delivered: [0; 2],
            topology: None,
        }
    }

    /// A sink for `n` processes that classifies channels (intra vs
    /// gateway) through `topology`.
    pub fn with_topology(n: usize, topology: Topology) -> Self {
        CountingSink { topology: Some(topology), ..CountingSink::new(n) }
    }

    fn class_of(&self, from: ProcessId, to: ProcessId) -> usize {
        match &self.topology {
            Some(t) if t.channel_class(from, to) == ChannelClass::Gateway => 1,
            _ => 0,
        }
    }

    /// The counters of process `p`.
    pub fn process(&self, p: ProcessId) -> &ProcCounters {
        &self.per_process[p.index()]
    }

    /// All per-process counters, indexed by process.
    pub fn per_process(&self) -> &[ProcCounters] {
        &self.per_process
    }

    /// System-wide totals.
    pub fn total(&self) -> &ProcCounters {
        &self.total
    }

    /// Messages sent over channels of `class`.
    pub fn class_sent(&self, class: ChannelClass) -> u64 {
        self.class_sent[(class == ChannelClass::Gateway) as usize]
    }

    /// Messages delivered over channels of `class`.
    pub fn class_delivered(&self, class: ChannelClass) -> u64 {
        self.class_delivered[(class == ChannelClass::Gateway) as usize]
    }

    /// The process with the highest [`ProcCounters::load`] (lowest id on
    /// ties) and that load.
    pub fn busiest(&self) -> (ProcessId, u64) {
        let (mut best, mut load) = (ProcessId(0), 0);
        for (i, c) in self.per_process.iter().enumerate() {
            if c.load() > load {
                best = ProcessId(i);
                load = c.load();
            }
        }
        (best, load)
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Send { from, to, .. } => {
                self.per_process[from.index()].sent += 1;
                self.total.sent += 1;
                self.class_sent[self.class_of(from, to)] += 1;
            }
            TraceEvent::Deliver { from, to, .. } => {
                self.per_process[to.index()].delivered += 1;
                self.total.delivered += 1;
                self.class_delivered[self.class_of(from, to)] += 1;
            }
            TraceEvent::DropLossy { from, .. }
            | TraceEvent::DropDisconnected { from, .. }
            | TraceEvent::DropCrashed { from, .. }
            | TraceEvent::DropSenderCrashed { from, .. } => {
                self.per_process[from.index()].dropped += 1;
                self.total.dropped += 1;
            }
            TraceEvent::TimerFire { process, .. } => {
                self.per_process[process.index()].timers_fired += 1;
                self.total.timers_fired += 1;
            }
            TraceEvent::OpStart { process, .. } => {
                self.per_process[process.index()].ops_started += 1;
                self.total.ops_started += 1;
            }
            TraceEvent::OpEnd { process, .. } => {
                self.per_process[process.index()].ops_completed += 1;
                self.total.ops_completed += 1;
            }
            _ => {}
        }
    }
}

/// JSONL sink: one JSON object per event, one event per line.
///
/// The byte stream is a pure function of the event sequence — and the
/// event sequence is a pure function of the seed — so JSONL traces can be
/// stored as goldens and compared with `cmp`. Field order is fixed; no
/// floats appear, so there is no formatting ambiguity.
#[derive(Clone, Default, Debug)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The JSONL text accumulated so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the JSONL text.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        let t = ev.at().ticks();
        let name = ev.name();
        let out = &mut self.out;
        match *ev {
            TraceEvent::Send { from, to, .. }
            | TraceEvent::Deliver { from, to, .. }
            | TraceEvent::DropLossy { from, to, .. }
            | TraceEvent::DropDisconnected { from, to, .. }
            | TraceEvent::DropCrashed { from, to, .. }
            | TraceEvent::DropSenderCrashed { from, to, .. } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"from\":{},\"to\":{}}}",
                    from.index(),
                    to.index()
                );
            }
            TraceEvent::Retransmit { process, count, .. } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"p\":{},\"count\":{count}}}",
                    process.index()
                );
            }
            TraceEvent::TimerSet { process, id, fire_at, .. } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"p\":{},\"timer\":{},\"fire_at\":{}}}",
                    process.index(),
                    id.0,
                    fire_at.ticks()
                );
            }
            TraceEvent::TimerFire { process, id, .. }
            | TraceEvent::TimerCancelled { process, id, .. } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"p\":{},\"timer\":{}}}",
                    process.index(),
                    id.0
                );
            }
            TraceEvent::Crash { process, .. } | TraceEvent::Recover { process, .. } => {
                let _ = writeln!(out, "{{\"t\":{t},\"ev\":\"{name}\",\"p\":{}}}", process.index());
            }
            TraceEvent::CutDown { channel, .. } | TraceEvent::CutHeal { channel, .. } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"ch\":[{},{}]}}",
                    channel.from.index(),
                    channel.to.index()
                );
            }
            TraceEvent::OpStart { process, op, .. } | TraceEvent::OpEnd { process, op, .. } => {
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"p\":{},\"op\":{}}}",
                    process.index(),
                    op.0
                );
            }
            TraceEvent::Proto { process, label, id, .. } => {
                debug_assert!(
                    label.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
                    "trace labels must be [A-Za-z0-9_] so JSON needs no escaping"
                );
                let _ = writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"{name}\",\"p\":{},\"label\":\"{label}\",\"id\":{id}}}",
                    process.index()
                );
            }
        }
    }
}

/// Chrome-trace sink: renders the run as a `chrome://tracing` / Perfetto
/// JSON array.
///
/// Operations and protocol spans become async spans (`ph: "b"`/`"e"`,
/// correlated by id within a category); everything else becomes an
/// instant event on the acting process's track (`tid` = process index,
/// `pid` = 0). Timestamps are simulator ticks, which the viewer displays
/// as microseconds. Call [`ChromeSink::into_string`] to close the array.
#[derive(Clone, Debug)]
pub struct ChromeSink {
    out: String,
    first: bool,
}

impl ChromeSink {
    /// An empty sink.
    pub fn new() -> Self {
        ChromeSink { out: String::from("["), first: true }
    }

    fn entry(&mut self) -> &mut String {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
        &mut self.out
    }

    fn instant(&mut self, name: &str, ts: u64, tid: usize, args: &str) {
        let out = self.entry();
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"t\"{args}}}"
        );
    }

    fn span(&mut self, name: &str, cat: &str, ph: char, id: u64, ts: u64, tid: usize) {
        let out = self.entry();
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"id\":{id},\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}"
        );
    }

    /// Consumes the sink, returning the finished JSON array.
    pub fn into_string(mut self) -> String {
        self.out.push_str("]\n");
        self.out
    }
}

impl Default for ChromeSink {
    fn default() -> Self {
        ChromeSink::new()
    }
}

impl TraceSink for ChromeSink {
    fn record(&mut self, ev: &TraceEvent) {
        let ts = ev.at().ticks();
        let name = ev.name();
        match *ev {
            TraceEvent::Send { from, to, .. }
            | TraceEvent::DropLossy { from, to, .. }
            | TraceEvent::DropDisconnected { from, to, .. } => {
                let args = format!(",\"args\":{{\"to\":{}}}", to.index());
                self.instant(name, ts, from.index(), &args);
            }
            TraceEvent::Deliver { from, to, .. }
            | TraceEvent::DropCrashed { from, to, .. }
            | TraceEvent::DropSenderCrashed { from, to, .. } => {
                let args = format!(",\"args\":{{\"from\":{}}}", from.index());
                self.instant(name, ts, to.index(), &args);
            }
            TraceEvent::Retransmit { process, count, .. } => {
                let args = format!(",\"args\":{{\"count\":{count}}}");
                self.instant(name, ts, process.index(), &args);
            }
            TraceEvent::TimerSet { process, id, fire_at, .. } => {
                let args =
                    format!(",\"args\":{{\"timer\":{},\"fire_at\":{}}}", id.0, fire_at.ticks());
                self.instant(name, ts, process.index(), &args);
            }
            TraceEvent::TimerFire { process, id, .. }
            | TraceEvent::TimerCancelled { process, id, .. } => {
                let args = format!(",\"args\":{{\"timer\":{}}}", id.0);
                self.instant(name, ts, process.index(), &args);
            }
            TraceEvent::Crash { process, .. } | TraceEvent::Recover { process, .. } => {
                self.instant(name, ts, process.index(), "");
            }
            TraceEvent::CutDown { channel, .. } | TraceEvent::CutHeal { channel, .. } => {
                let args = format!(",\"args\":{{\"to\":{}}}", channel.to.index());
                self.instant(name, ts, channel.from.index(), &args);
            }
            TraceEvent::OpStart { process, op, .. } => {
                self.span(&format!("op{}", op.0), "op", 'b', op.0, ts, process.index());
            }
            TraceEvent::OpEnd { process, op, .. } => {
                self.span(&format!("op{}", op.0), "op", 'e', op.0, ts, process.index());
            }
            TraceEvent::Proto { process, kind, label, id, .. } => match kind {
                SpanKind::Start => self.span(label, "proto", 'b', id, ts, process.index()),
                SpanKind::End => self.span(label, "proto", 'e', id, ts, process.index()),
                SpanKind::Instant => {
                    let args = format!(",\"args\":{{\"id\":{id}}}");
                    self.instant(label, ts, process.index(), &args);
                }
            },
        }
    }
}

/// Default ring capacity of the [`FlightRecorder`].
pub const FLIGHT_RECORDER_DEFAULT_EVENTS: usize = 128;

/// Flight recorder: a bounded ring of the most recent events plus live
/// tracking of pending operations and armed timers.
///
/// When a run ends in [`StopReason::EventCap`] — the simulator's
/// livelock/stall tripwire — the recorder renders a post-mortem report
/// ([`FlightRecorder::report`]): the stalled operations with their
/// invocation instants, the timers still armed, and the last events
/// before the cap struck. Memory stays bounded by the ring capacity plus
/// the number of genuinely outstanding ops/timers, so the recorder is
/// safe to leave attached to long runs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<TraceEvent>,
    /// Armed, not-yet-fired timers: `(process, id) -> fire_at`. A crash
    /// removes the process's timers (the epoch bump cancels them).
    armed: BTreeMap<(ProcessId, TimerId), SimTime>,
    /// Invoked, not-yet-completed ops: `op -> (process, invoked_at)`.
    pending: BTreeMap<OpId, (ProcessId, SimTime)>,
    report: Option<String>,
}

impl FlightRecorder {
    /// A recorder keeping the last [`FLIGHT_RECORDER_DEFAULT_EVENTS`]
    /// events.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(FLIGHT_RECORDER_DEFAULT_EVENTS)
    }

    /// A recorder keeping the last `cap` events (at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            ring: VecDeque::with_capacity(cap),
            armed: BTreeMap::new(),
            pending: BTreeMap::new(),
            report: None,
        }
    }

    /// The retained tail of the event stream, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Invoked operations not yet completed, as `(op, process,
    /// invoked_at)` in op order.
    pub fn pending_ops(&self) -> Vec<(OpId, ProcessId, SimTime)> {
        self.pending.iter().map(|(&op, &(p, t))| (op, p, t)).collect()
    }

    /// Armed, not-yet-fired timers as `(process, id, fire_at)`.
    pub fn armed_timers(&self) -> Vec<(ProcessId, TimerId, SimTime)> {
        self.armed.iter().map(|(&(p, id), &t)| (p, id, t)).collect()
    }

    /// The post-mortem rendered by the last [`StopReason::EventCap`]
    /// stop, if one happened.
    pub fn report(&self) -> Option<&str> {
        self.report.as_deref()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::TimerSet { process, id, fire_at, .. } => {
                self.armed.insert((process, id), fire_at);
            }
            TraceEvent::TimerFire { process, id, .. }
            | TraceEvent::TimerCancelled { process, id, .. } => {
                self.armed.remove(&(process, id));
            }
            TraceEvent::Crash { process, .. } => {
                self.armed.retain(|&(p, _), _| p != process);
            }
            TraceEvent::OpStart { process, op, at } => {
                self.pending.insert(op, (process, at));
            }
            TraceEvent::OpEnd { op, .. } => {
                self.pending.remove(&op);
            }
            _ => {}
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(*ev);
    }

    fn on_stop(&mut self, reason: StopReason, now: SimTime) {
        let StopReason::EventCap { stalled_ops } = reason else {
            return;
        };
        let mut r = String::new();
        let _ = writeln!(
            r,
            "flight recorder: event cap hit at t={} with {stalled_ops} stalled op(s)",
            now.ticks()
        );
        let _ = writeln!(r, "pending ops ({}):", self.pending.len());
        for (op, (p, t)) in &self.pending {
            let _ = writeln!(r, "  {op} @ p{} invoked t={}", p.index(), t.ticks());
        }
        let _ = writeln!(r, "armed timers ({}):", self.armed.len());
        for ((p, id), t) in &self.armed {
            let _ = writeln!(r, "  {id} @ p{} due t={}", p.index(), t.ticks());
        }
        let _ = writeln!(r, "last {} event(s):", self.ring.len());
        for ev in &self.ring {
            let _ = writeln!(r, "  {ev}");
        }
        self.report = Some(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(at: u64) -> TraceEvent {
        TraceEvent::Send { at: SimTime(at), from: ProcessId(0), to: ProcessId(1) }
    }

    #[test]
    fn event_accessors_and_display() {
        let ev = TraceEvent::Deliver { at: SimTime(41), from: ProcessId(0), to: ProcessId(2) };
        assert_eq!(ev.at(), SimTime(41));
        assert_eq!(ev.name(), "deliver");
        assert_eq!(ev.to_string(), "t=41 deliver 0->2");
        let p = TraceEvent::Proto {
            at: SimTime(7),
            process: ProcessId(3),
            kind: SpanKind::Start,
            label: "qaf_get",
            id: 9,
        };
        assert_eq!(p.name(), "span_start");
        assert_eq!(p.to_string(), "t=7 span_start p3 qaf_get#9");
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let mut sink = JsonlSink::new();
        sink.record(&msg(5));
        sink.record(&TraceEvent::OpStart { at: SimTime(6), process: ProcessId(2), op: OpId(3) });
        sink.record(&TraceEvent::TimerSet {
            at: SimTime(6),
            process: ProcessId(1),
            id: TimerId(4),
            fire_at: SimTime(20),
        });
        assert_eq!(
            sink.as_str(),
            "{\"t\":5,\"ev\":\"send\",\"from\":0,\"to\":1}\n\
             {\"t\":6,\"ev\":\"op_start\",\"p\":2,\"op\":3}\n\
             {\"t\":6,\"ev\":\"timer_set\",\"p\":1,\"timer\":4,\"fire_at\":20}\n"
        );
    }

    #[test]
    fn chrome_sink_closes_a_json_array() {
        let mut sink = ChromeSink::new();
        sink.record(&msg(5));
        sink.record(&TraceEvent::OpStart { at: SimTime(6), process: ProcessId(2), op: OpId(3) });
        sink.record(&TraceEvent::OpEnd { at: SimTime(9), process: ProcessId(2), op: OpId(3) });
        let s = sink.into_string();
        assert!(s.starts_with('[') && s.ends_with("]\n"));
        assert!(s.contains("\"ph\":\"b\"") && s.contains("\"ph\":\"e\""));
        assert_eq!(s.matches("\"name\":\"op3\"").count(), 2);
    }

    #[test]
    fn counting_sink_attributes_per_process() {
        let mut sink = CountingSink::new(3);
        sink.record(&msg(1));
        sink.record(&TraceEvent::Deliver { at: SimTime(3), from: ProcessId(0), to: ProcessId(1) });
        sink.record(&TraceEvent::DropLossy {
            at: SimTime(4),
            from: ProcessId(2),
            to: ProcessId(0),
        });
        assert_eq!(sink.process(ProcessId(0)).sent, 1);
        assert_eq!(sink.process(ProcessId(1)).delivered, 1);
        assert_eq!(sink.process(ProcessId(2)).dropped, 1);
        assert_eq!(sink.total().sent, 1);
        assert_eq!(sink.class_sent(ChannelClass::Intra), 1);
        assert_eq!(sink.class_sent(ChannelClass::Gateway), 0);
        assert_eq!(sink.busiest(), (ProcessId(0), 1));
    }

    #[test]
    fn counting_sink_splits_gateway_traffic_by_topology() {
        let topo = Topology::Regions(crate::RegionSpec::even(4, 2));
        let mut sink = CountingSink::with_topology(4, topo);
        // 0 and 1 share region 0; 2 lives in region 1.
        sink.record(&TraceEvent::Send { at: SimTime(1), from: ProcessId(0), to: ProcessId(1) });
        sink.record(&TraceEvent::Send { at: SimTime(2), from: ProcessId(0), to: ProcessId(2) });
        assert_eq!(sink.class_sent(ChannelClass::Intra), 1);
        assert_eq!(sink.class_sent(ChannelClass::Gateway), 1);
    }

    #[test]
    fn flight_recorder_tracks_pending_state_and_reports_on_cap() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.record(&TraceEvent::OpStart { at: SimTime(10), process: ProcessId(0), op: OpId(0) });
        fr.record(&TraceEvent::OpStart { at: SimTime(12), process: ProcessId(1), op: OpId(1) });
        fr.record(&TraceEvent::OpEnd { at: SimTime(15), process: ProcessId(1), op: OpId(1) });
        fr.record(&TraceEvent::TimerSet {
            at: SimTime(16),
            process: ProcessId(0),
            id: TimerId(2),
            fire_at: SimTime(40),
        });
        assert_eq!(fr.pending_ops(), vec![(OpId(0), ProcessId(0), SimTime(10))]);
        assert_eq!(fr.armed_timers(), vec![(ProcessId(0), TimerId(2), SimTime(40))]);
        assert_eq!(fr.events().count(), 2, "ring keeps only the last two events");

        fr.on_stop(StopReason::Quiescent, SimTime(50));
        assert!(fr.report().is_none(), "only EventCap produces a report");
        fr.on_stop(StopReason::EventCap { stalled_ops: 1 }, SimTime(50));
        let report = fr.report().unwrap();
        assert!(report.contains("event cap hit at t=50 with 1 stalled op(s)"));
        assert!(report.contains("op0 @ p0 invoked t=10"));
        assert!(report.contains("timer2 @ p0 due t=40"));
    }

    #[test]
    fn flight_recorder_crash_cancels_armed_timers() {
        let mut fr = FlightRecorder::new();
        fr.record(&TraceEvent::TimerSet {
            at: SimTime(1),
            process: ProcessId(0),
            id: TimerId(1),
            fire_at: SimTime(9),
        });
        fr.record(&TraceEvent::TimerSet {
            at: SimTime(1),
            process: ProcessId(1),
            id: TimerId(1),
            fire_at: SimTime(9),
        });
        fr.record(&TraceEvent::Crash { at: SimTime(2), process: ProcessId(0) });
        assert_eq!(fr.armed_timers(), vec![(ProcessId(1), TimerId(1), SimTime(9))]);
    }

    #[test]
    fn shared_sink_exposes_results_after_the_run() {
        let shared = SharedSink::new(CountingSink::new(2));
        let mut boxed: Box<dyn TraceSink> = Box::new(shared.clone());
        boxed.record(&msg(1));
        assert_eq!(shared.with(|s| s.total().sent), 1);
    }
}

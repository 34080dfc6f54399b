//! # Deterministic network simulator for the GQS reproduction
//!
//! A discrete-event simulator implementing the system model of *"Tight
//! Bounds on Channel Reliability via Generalized Quorum Systems"* (§2, §7):
//! asynchronous message passing over unidirectional channels, with
//!
//! * **process crashes** (a crashed process takes no further steps),
//! * **channel disconnections** (from some point on, a faulty channel drops
//!   every message sent through it),
//! * an explicit **communication graph** ([`Topology`], default complete;
//!   a send over an absent channel behaves like a send over a channel
//!   disconnected at time zero),
//! * an optional **partial synchrony** mode (GST + δ) for consensus,
//! * pluggable **network models** ([`NetModel`]): per-channel-class delay
//!   distributions (constant, uniform jitter, heavy-tailed lognormal)
//!   keyed on intra-region vs gateway WAN links, with optional per-class
//!   asymmetry and the same GST overlay — sampled without `libm` so
//!   traces are bit-identical across platforms,
//! * a **flooding middleware** ([`Flood`]) realizing the paper's
//!   "forward every received message" transitivity assumption — over a
//!   sparse [`Topology`], flooding restores logical connectivity along
//!   directed paths of present channels,
//! * a **seeded message-loss model** ([`SimConfig::loss`]: each send over
//!   an up channel is independently dropped with a configured probability,
//!   deterministically per seed; protocols that must survive it retransmit
//!   on their own timers and dedup with a per-sender [`Seen`] record), and
//! * a **scale core**: flat per-process state (crash epochs and channel
//!   down-counts in dense arrays), a radix-heap [`TimingWheel`] scheduler,
//!   and implicit [`Topology`] adjacency answered arithmetically through
//!   the [`Peers`] view, so simulations run up to [`MAX_SIM_PROCESSES`]
//!   (2²² ≈ 4.2M) processes — far past the `gqs_core::MAX_PROCESSES`
//!   bound on *decision-structure* sizes — with O(channels) memory and no
//!   per-event allocation in steady state (see [`Gossip`]), and
//! * **checkpoint / fork replay**: a [`Simulation`] keeps every mutable
//!   piece of a run — clock, event wheel, RNG position, start-up cursor,
//!   liveness epochs, down intervals, statistics, op history, protocol
//!   state (via the [`Protocol`] `Clone` snapshot contract) — in one
//!   state record, the [`Checkpoint`]. [`Simulation::checkpoint`] clones
//!   that record and [`Simulation::restore`] puts a clone back, rewinding
//!   bit-exactly; [`Simulation::reseed`] then branches seeded
//!   continuations from the same instant (rare-event hunting,
//!   warmup-amortized sweeps), and
//! * a **deterministic trace plane** ([`trace`]): attach a [`TraceSink`]
//!   via [`Simulation::set_trace`] and every send/deliver/drop (with its
//!   cause), timer arm/fire/cancel, crash/recover, channel cut/heal,
//!   op start/end, and protocol span streams out as a typed
//!   [`TraceEvent`] — zero cost when off, bit-deterministic when on.
//!   Shipped sinks: per-process/per-class counters ([`CountingSink`]),
//!   JSONL and `chrome://tracing` exporters ([`JsonlSink`],
//!   [`ChromeSink`]), and a bounded [`FlightRecorder`] that renders a
//!   stall post-mortem on [`StopReason::EventCap`].
//!
//! Protocols implement [`Protocol`] and are driven by [`Simulation`], which
//! records an operation [`History`] suitable for the `gqs-checker` crate.
//! Runs are bit-for-bit reproducible from the seed.
//!
//! ## Example
//!
//! ```
//! use gqs_core::ProcessId;
//! use gqs_simnet::{Context, OpId, Protocol, SimConfig, SimTime, Simulation, StopReason, TimerId};
//!
//! /// Echo: completes each operation when its round trip returns.
//! #[derive(Clone, Default, Debug)]
//! struct Echo { pending: Vec<OpId> }
//!
//! impl Protocol for Echo {
//!     type Msg = bool; // true = request, false = reply
//!     type Op = ProcessId;
//!     type Resp = ();
//!     fn on_start(&mut self, _: &mut Context<bool, ()>) {}
//!     fn on_message(&mut self, from: ProcessId, req: bool, ctx: &mut Context<bool, ()>) {
//!         if req {
//!             ctx.send(from, false);
//!         } else if let Some(op) = self.pending.pop() {
//!             ctx.complete(op, ());
//!         }
//!     }
//!     fn on_timer(&mut self, _: TimerId, _: &mut Context<bool, ()>) {}
//!     fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<bool, ()>) {
//!         self.pending.push(op);
//!         ctx.send(target, true);
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default(), vec![Echo::default(), Echo::default()]);
//! sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
//! assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flood;
pub mod gossip;
pub mod history;
pub mod netmodel;
pub mod protocol;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wheel;

pub use flood::{Flood, FloodMsg, Seen};
pub use gossip::Gossip;
pub use history::{History, NetStats, OpRecord};
pub use netmodel::{LatencyDist, LinkProfile, NetModel, RegionSpec, Synchrony};
pub use protocol::{Context, Effect, OpId, Protocol, TimerId};
pub use rng::SplitMix64;
pub use sim::{
    Checkpoint, DelayModel, FailureSchedule, SimConfig, Simulation, StopReason, MAX_SIM_PROCESSES,
};
pub use time::SimTime;
pub use topology::{ChannelClass, Peers, Topology};
pub use trace::{
    ChromeSink, CountingSink, FlightRecorder, JsonlSink, SharedSink, SpanKind, TraceEvent,
    TraceSink,
};
pub use wheel::TimingWheel;

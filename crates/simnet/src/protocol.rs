//! The protocol interface: how distributed algorithms plug into the
//! simulator.
//!
//! A protocol is a deterministic state machine replicated at every process.
//! It reacts to four kinds of stimuli — startup, message delivery, timer
//! expiry and operation invocation — and emits *effects* (sends, timers,
//! operation completions) through a [`Context`]. The simulator collects
//! the effects and turns them into future events; a layer that wraps
//! another protocol (such as [`crate::flood::Flood`]) runs the wrapped
//! handlers through [`Context::nested`] and translates their effects.

use std::fmt;

use gqs_core::ProcessId;

use crate::time::SimTime;
use crate::topology::Peers;
use crate::trace::SpanKind;

/// Identifier of a client operation invocation, unique within a run.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Identifier of a protocol timer, chosen by the protocol itself.
///
/// Timers are one-shot; periodic behaviour is obtained by re-arming in
/// `on_timer` (exactly how the paper's `periodically` blocks are realized).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

/// An effect emitted by a protocol handler.
#[derive(Clone, Debug)]
pub enum Effect<M, R> {
    /// Send `msg` to `to` over the (unidirectional) channel.
    Send {
        /// Destination process (may equal the sender; self-messages are
        /// always delivered).
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Send `msg` to every process, the sender included, in ascending pid
    /// order — the paper's `send ... to all` as one effect. The simulator
    /// expands it into the `n` per-destination sends an [`Effect::Send`]
    /// loop over `0..n` would make (same checks, draws, counters and trace
    /// events, in the same order). Middleware either forwards it whole
    /// ([`crate::Flood`] floods one envelope for it) or expands it itself
    /// ([`crate::Reliable`] sequences per destination).
    Broadcast {
        /// The message.
        msg: M,
    },
    /// Arm a one-shot timer that fires `after` time units from now.
    SetTimer {
        /// Protocol-chosen identifier, passed back to `on_timer`.
        id: TimerId,
        /// Delay in time units. The simulator clamps it to at least 1 so
        /// that virtual time always advances between firings (a
        /// same-instant timer would let a re-arming protocol livelock the
        /// event loop).
        after: u64,
    },
    /// Complete a pending client operation with a response.
    Complete {
        /// The operation being completed.
        op: OpId,
        /// Its response value.
        resp: R,
    },
    /// Account `count` retransmitted messages in the run's
    /// [`crate::NetStats`]. Bookkeeping only — the resent copies travel as
    /// ordinary [`Effect::Send`]s; this effect lets reliability layers
    /// (e.g. [`crate::Reliable`]) surface their overhead in the
    /// simulator-wide statistics. A layer that wraps a protocol must pass
    /// it through when it translates what [`Context::nested`] returned.
    NoteRetransmit {
        /// Number of retransmissions to account.
        count: u64,
    },
    /// A protocol-emitted trace marker (span start/end or instant) for an
    /// attached [`TraceSink`](crate::trace::TraceSink). Emitted only while
    /// tracing is on (see [`Context::span_start`]); pure observability —
    /// it changes no simulation state, consumes no randomness, and a layer
    /// that wraps a protocol must pass it through (via
    /// [`Context::emit_trace`]) when it translates what
    /// [`Context::nested`] returned.
    Trace {
        /// Span start / end / instant.
        kind: SpanKind,
        /// Static label (keep to `[A-Za-z0-9_]`; exported verbatim).
        label: &'static str,
        /// Protocol-chosen correlation id (op token, view number, …).
        id: u64,
    },
}

/// Handler context: identifies the process and collects effects.
///
/// The simulator owns a single context for the whole run and lends it to
/// every handler call, re-targeted at the process and instant of the
/// event; its effect buffer keeps the capacity of the largest burst any
/// handler has emitted, so handling an event allocates nothing. A layer
/// that wraps another protocol ([`crate::Flood`], [`crate::Reliable`], a
/// snapshot over its registers, …) runs each of the wrapped protocol's
/// handlers through [`Context::nested`] and translates the effects that
/// come back.
#[derive(Debug)]
pub struct Context<M, R> {
    me: ProcessId,
    n: usize,
    now: SimTime,
    peers: Peers,
    effects: Vec<Effect<M, R>>,
    /// Whether a trace sink is attached to the driving simulation. Gates
    /// the span API so untraced runs push (and allocate) nothing.
    tracing: bool,
}

impl<M, R> Context<M, R> {
    /// Creates a standalone context at `me` in a system of `n` processes
    /// at time `now`, with the complete-graph [`Peers`] view and tracing
    /// off — for tests that drive a protocol or engine handler directly
    /// and inspect what it emitted with [`Context::take_effects`]. Layers
    /// that wrap a protocol use [`Context::nested`] instead.
    pub fn new(me: ProcessId, n: usize, now: SimTime) -> Self {
        Context::with_peers(me, n, now, Peers::all(n))
    }

    /// Creates a context whose [`Context::peers`] view reflects an
    /// explicit topology (what [`crate::Simulation`] hands to handlers).
    pub(crate) fn with_peers(me: ProcessId, n: usize, now: SimTime, peers: Peers) -> Self {
        Context { me, n, now, peers, effects: Vec::new(), tracing: false }
    }

    /// Runs one handler of a wrapped protocol — the seam between a
    /// protocol layer and the protocol it wraps — and returns the effects
    /// it emitted, in emission order, for the layer to translate.
    ///
    /// The inner context carries this context's process, instant, `n` and
    /// tracing flag, with the complete-graph [`Peers`] view: flooding
    /// restores logical completeness, so a wrapped protocol legitimately
    /// sees everyone as a peer. Each call collects into a fresh buffer.
    pub fn nested<M2, R2>(
        &self,
        handler: impl FnOnce(&mut Context<M2, R2>),
    ) -> Vec<Effect<M2, R2>> {
        let mut inner = Context::with_peers(self.me, self.n, self.now, Peers::all(self.n));
        inner.tracing = self.tracing;
        handler(&mut inner);
        inner.effects
    }

    /// Points the context at the next handler call (simulator internal):
    /// `n`, the peers view and the effect buffer carry over.
    pub(crate) fn retarget(&mut self, me: ProcessId, now: SimTime, tracing: bool) {
        debug_assert!(self.effects.is_empty(), "the previous handler's effects were applied");
        self.me = me;
        self.now = now;
        self.tracing = tracing;
    }

    /// Takes back the buffer [`Context::take_effects`] handed out, once
    /// drained, so the next handler pushes into its kept capacity
    /// (simulator internal).
    pub(crate) fn reuse_buffer(&mut self, buffer: Vec<Effect<M, R>>) {
        debug_assert!(buffer.is_empty() && self.effects.is_empty());
        self.effects = buffer;
    }

    /// The process executing the handler.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The process's view of the communication graph: out-neighbour
    /// iteration in O(degree) with no `ProcessSet` (and hence no
    /// `MAX_PROCESSES` bound). Scale-oriented protocols address peers
    /// through this instead of `0..n` loops.
    pub fn peers(&self) -> &Peers {
        &self.peers
    }

    /// Sends `msg` to `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every process, **including the sender** — the
    /// paper's `send ... to all`. (A process is always connected to
    /// itself; the self-copy is delivered reliably.) One
    /// [`Effect::Broadcast`], whatever `n` is.
    pub fn broadcast(&mut self, msg: M) {
        self.effects.push(Effect::Broadcast { msg });
    }

    /// Arms a one-shot timer.
    pub fn set_timer(&mut self, id: TimerId, after: u64) {
        self.effects.push(Effect::SetTimer { id, after });
    }

    /// Completes a pending operation.
    pub fn complete(&mut self, op: OpId, resp: R) {
        self.effects.push(Effect::Complete { op, resp });
    }

    /// Accounts `count` retransmitted messages in the run's statistics
    /// (see [`Effect::NoteRetransmit`]). Call once per resent copy,
    /// alongside the [`Context::send`] that carries it.
    pub fn note_retransmit(&mut self, count: u64) {
        if count > 0 {
            self.effects.push(Effect::NoteRetransmit { count });
        }
    }

    /// Whether a trace sink is listening (set by the simulator, inherited
    /// through [`Context::nested`]). The span API is a no-op while this
    /// is `false`, so protocols may call it unconditionally.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Opens a protocol span `(label, id)` — e.g. a quorum-access phase —
    /// if tracing is on; free otherwise. Close it with a
    /// [`Context::span_end`] of the same `(label, id)`.
    pub fn span_start(&mut self, label: &'static str, id: u64) {
        if self.tracing {
            self.effects.push(Effect::Trace { kind: SpanKind::Start, label, id });
        }
    }

    /// Closes the protocol span `(label, id)` if tracing is on.
    pub fn span_end(&mut self, label: &'static str, id: u64) {
        if self.tracing {
            self.effects.push(Effect::Trace { kind: SpanKind::End, label, id });
        }
    }

    /// Emits a point-in-time protocol marker (e.g. `decide`) if tracing
    /// is on; free otherwise.
    pub fn trace_instant(&mut self, label: &'static str, id: u64) {
        if self.tracing {
            self.effects.push(Effect::Trace { kind: SpanKind::Instant, label, id });
        }
    }

    /// Re-emits a trace marker verbatim — how a layer passes an
    /// [`Effect::Trace`] from [`Context::nested`] through. Unconditional:
    /// the gating already happened when the inner protocol emitted the
    /// marker.
    pub fn emit_trace(&mut self, kind: SpanKind, label: &'static str, id: u64) {
        self.effects.push(Effect::Trace { kind, label, id });
    }

    /// Drains the collected effects (the simulator's, and tests').
    pub fn take_effects(&mut self) -> Vec<Effect<M, R>> {
        std::mem::take(&mut self.effects)
    }

    /// Number of effects collected so far.
    pub fn effect_count(&self) -> usize {
        self.effects.len()
    }
}

/// A distributed protocol: one instance runs at every process.
///
/// All handlers must be deterministic; randomness, if needed, belongs in
/// protocol state seeded at construction. This is what makes simulator
/// runs reproducible.
///
/// # The snapshot contract
///
/// `Protocol: Clone` is the simulator's snapshot hook: **a clone must be a
/// complete, independent copy of everything the handlers read or write** —
/// pending operations, retransmission queues, dedup sets, logical clocks,
/// seeded RNG state, view synchronizers, all of it. Given that,
/// [`Simulation::checkpoint`](crate::Simulation::checkpoint) /
/// [`restore`](crate::Simulation::restore) can capture a whole run
/// mid-flight and resume it bit-identically (fork replay). `#[derive(Clone)]`
/// on an owned-data struct satisfies the contract automatically; what
/// violates it is shared mutable state (`Rc<RefCell<_>>`, interior
/// mutability) leaking between a clone and its original — don't.
pub trait Protocol: Clone {
    /// Messages exchanged between processes.
    type Msg: Clone + fmt::Debug;
    /// Client operations (e.g. `Read`, `Write(v)`, `Propose(x)`).
    type Op: Clone + fmt::Debug;
    /// Operation responses.
    type Resp: Clone + fmt::Debug;

    /// Called once at time zero, before any other event.
    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>);

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    );

    /// Called when a timer armed by this process fires.
    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>);

    /// Called when a client invokes an operation at this process. The
    /// protocol completes it later via [`Context::complete`].
    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>);

    /// Called when this process recovers from a crash (a scheduled
    /// [`crate::FailureSchedule::recover`]). State survives the crash;
    /// timers armed before it do not, and messages that arrived while
    /// down were lost. The default rejoins silently — override to re-arm
    /// timers or re-announce state.
    fn on_recover(&mut self, _ctx: &mut Context<Self::Msg, Self::Resp>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn context_collects_effects_in_order() {
        let mut ctx: Context<&'static str, ()> = Context::new(ProcessId(1), 3, SimTime(5));
        assert_eq!(ctx.me(), ProcessId(1));
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.now(), SimTime(5));
        ctx.send(ProcessId(0), "x");
        ctx.set_timer(TimerId(7), 10);
        ctx.complete(OpId(1), ());
        assert_eq!(ctx.effect_count(), 3);
        let effects = ctx.take_effects();
        assert!(matches!(effects[0], Effect::Send { to: ProcessId(0), msg: "x" }));
        assert!(matches!(effects[1], Effect::SetTimer { id: TimerId(7), after: 10 }));
        assert!(matches!(effects[2], Effect::Complete { op: OpId(1), .. }));
        assert_eq!(ctx.effect_count(), 0);
    }

    #[test]
    fn broadcast_includes_self() {
        // The fan-out to every process (self included) happens where the
        // effect is applied; `sim::tests::broadcast_equals_a_send_loop`
        // pins it to the per-destination sends.
        let mut ctx: Context<u8, ()> = Context::new(ProcessId(1), 3, SimTime::ZERO);
        ctx.broadcast(9);
        let effects = ctx.take_effects();
        assert!(matches!(effects[..], [Effect::Broadcast { msg: 9 }]));
    }

    #[test]
    fn span_api_is_gated_on_the_tracing_flag() {
        let mut ctx: Context<u8, ()> = Context::new(ProcessId(0), 2, SimTime::ZERO);
        ctx.span_start("qaf_get", 1);
        ctx.span_end("qaf_get", 1);
        ctx.trace_instant("decide", 2);
        assert_eq!(ctx.effect_count(), 0, "tracing off: the span API pushes nothing");
        ctx.tracing = true;
        assert!(ctx.tracing());
        ctx.span_start("qaf_get", 1);
        ctx.trace_instant("decide", 2);
        let effects = ctx.take_effects();
        assert!(matches!(
            effects[0],
            Effect::Trace { kind: SpanKind::Start, label: "qaf_get", id: 1 }
        ));
        assert!(matches!(
            effects[1],
            Effect::Trace { kind: SpanKind::Instant, label: "decide", id: 2 }
        ));
    }

    /// The seam hands the wrapped handler the outer process, `n`, instant
    /// and tracing flag with the complete peers view, and returns what it
    /// emitted in order.
    #[test]
    fn nested_handler_inherits_the_outer_context() {
        let mut outer: Context<u8, ()> = Context::with_peers(
            ProcessId(2),
            4,
            SimTime(9),
            Peers::from_topology(&Topology::Ring { n: 4 }, 4),
        );
        for tracing in [false, true] {
            outer.tracing = tracing;
            let effects = outer.nested(|inner: &mut Context<&'static str, u32>| {
                assert_eq!((inner.me(), inner.n(), inner.now()), (ProcessId(2), 4, SimTime(9)));
                assert_eq!(inner.tracing(), tracing);
                let peers = inner.peers().out_neighbors(inner.me());
                assert_eq!(peers, [ProcessId(0), ProcessId(1), ProcessId(3)], "complete, not ring");
                inner.send(ProcessId(0), "x");
                inner.span_start("qaf_get", 1);
                inner.broadcast("y");
                inner.complete(OpId(3), 7);
            });
            let kinds: Vec<_> = effects
                .iter()
                .map(|e| match e {
                    Effect::Send { to: ProcessId(0), msg: "x" } => "send",
                    Effect::Trace { kind: SpanKind::Start, label: "qaf_get", id: 1 } => "span",
                    Effect::Broadcast { msg: "y" } => "broadcast",
                    Effect::Complete { op: OpId(3), resp: 7 } => "complete",
                    other => panic!("unexpected effect {other:?}"),
                })
                .collect();
            let expected: &[&str] = if tracing {
                &["send", "span", "broadcast", "complete"]
            } else {
                &["send", "broadcast", "complete"]
            };
            assert_eq!(kinds, expected, "tracing = {tracing}");
            assert_eq!(outer.effect_count(), 0, "the outer context is untouched");
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(OpId(3).to_string(), "op3");
        assert_eq!(TimerId(4).to_string(), "timer4");
    }
}

//! Reliable-delivery middleware: acks, retransmission and duplicate
//! suppression over lossy or flapping channels.
//!
//! [`Flood`](crate::Flood) restores *connectivity* (a logical message
//! travels along any directed path of present channels); [`Reliable`]
//! restores *delivery*: every logical send is enveloped as
//! [`ReliableMsg::Data`] with a per-destination sequence number, the
//! receiver answers each data message with a [`ReliableMsg::Ack`], and the
//! sender retransmits unacknowledged envelopes under seeded exponential
//! backoff (doubling from a base delay up to a cap, plus deterministic
//! jitter so synchronized senders de-correlate). The receiver suppresses
//! duplicates and releases payloads to the wrapped protocol **exactly once
//! and in per-sender order**: out-of-order arrivals are held back until
//! the gap fills.
//!
//! Retransmission of an envelope stops when its ack arrives. Crashes
//! interact with the machinery through the simulator's crash epochs: a
//! crash of the sender cancels its armed retransmit timer (the epoch
//! advances, so the pre-crash timer never fires), and
//! [`Protocol::on_recover`] re-arms the pending retransmit timers — every
//! unacknowledged envelope is resent at the recovery instant with a fresh
//! backoff run. Receiver-side dedup state survives crashes on purpose, so
//! an envelope delivered before the receiver's crash is acked-but-not-
//! redelivered when the sender retransmits it afterwards.
//!
//! Like [`Flood`](crate::Flood), the layer runs every handler of the
//! wrapped protocol through [`Context::nested`] and translates what comes
//! back: it sequences the sends and passes everything else through.
//! Composes with flooding as `Flood<Reliable<P>>`: retransmissions then
//! travel along whatever paths currently exist.

use std::collections::BTreeMap;

use gqs_core::ProcessId;

use crate::protocol::{Context, Effect, OpId, Protocol, TimerId};
use crate::rng::SplitMix64;
use crate::time::SimTime;

/// Timer id reserved by [`Reliable`] for its retransmit clock. Wrapped
/// protocols must not arm timers with this id; all other ids pass through
/// untouched.
pub const RETX_TIMER: TimerId = TimerId(u64::MAX);

/// Default initial retransmit delay, in simulator time units.
pub const DEFAULT_RETX_BASE: u64 = 40;

/// Default backoff cap: retransmit delays double from the base up to this.
pub const DEFAULT_RETX_CAP: u64 = 640;

/// The envelope carried by the reliability layer.
#[derive(Clone, Debug)]
pub enum ReliableMsg<M> {
    /// A sequenced payload; `(sender, seq)` is unique per destination.
    Data {
        /// Sender-local, per-destination sequence number (0, 1, 2, …).
        seq: u64,
        /// The wrapped protocol message.
        payload: M,
    },
    /// Acknowledgement of `Data { seq, .. }`, sent back to the sender.
    /// Duplicates are re-acked, so a lost ack is recovered by the next
    /// retransmission.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

#[derive(Clone, Debug)]
struct PendingEnvelope<M> {
    payload: M,
    /// Retransmissions performed so far (governs the backoff exponent).
    attempt: u32,
    /// When the next retransmission is due.
    next_due: SimTime,
}

/// Wraps a protocol with per-destination sequencing, acks, duplicate
/// suppression and retransmission with seeded exponential backoff.
///
/// See the [module docs](self) for the delivery guarantees.
#[derive(Clone, Debug)]
pub struct Reliable<P: Protocol> {
    inner: P,
    base: u64,
    cap: u64,
    rng: SplitMix64,
    /// Next sequence number per destination.
    next_seq: BTreeMap<ProcessId, u64>,
    /// Unacknowledged envelopes, keyed by `(destination, seq)`.
    pending: BTreeMap<(ProcessId, u64), PendingEnvelope<P::Msg>>,
    /// Next expected sequence number per sender (everything below it has
    /// been delivered to the inner protocol).
    expected: BTreeMap<ProcessId, u64>,
    /// Out-of-order arrivals held until the gap before them fills.
    held: BTreeMap<(ProcessId, u64), P::Msg>,
    /// Earliest armed retransmit deadline, if any (timers are one-shot
    /// and cannot be cancelled; stale firings re-arm harmlessly).
    timer_at: Option<SimTime>,
    retransmits: u64,
}

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner` with the default backoff tuning
    /// ([`DEFAULT_RETX_BASE`], [`DEFAULT_RETX_CAP`]) and a fixed jitter
    /// seed. Runs stay deterministic either way; give each node its own
    /// seed via [`Reliable::with_tuning`] to de-correlate their jitter.
    pub fn new(inner: P) -> Self {
        Self::with_tuning(inner, DEFAULT_RETX_BASE, DEFAULT_RETX_CAP, 0x5EED_ACED)
    }

    /// Wraps `inner` with an explicit initial retransmit delay `base`, a
    /// backoff `cap`, and a `seed` for the deterministic jitter stream.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `cap < base`.
    pub fn with_tuning(inner: P, base: u64, cap: u64, seed: u64) -> Self {
        assert!(base > 0, "the retransmit base delay must be positive");
        assert!(cap >= base, "the backoff cap must be at least the base delay");
        Reliable {
            inner,
            base,
            cap,
            rng: SplitMix64::new(seed),
            next_seq: BTreeMap::new(),
            pending: BTreeMap::new(),
            expected: BTreeMap::new(),
            held: BTreeMap::new(),
            timer_at: None,
            retransmits: 0,
        }
    }

    /// The wrapped protocol (for assertions on its state).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Envelopes retransmitted by this node so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Envelopes sent by this node and not yet acknowledged.
    pub fn unacked(&self) -> usize {
        self.pending.len()
    }

    /// The backoff delay after `attempt` retransmissions: the base delay
    /// doubled per attempt, plus jitter in `[0, delay/2]`, with the total
    /// clamped to the cap — `cap` is a hard ceiling on the retransmit
    /// interval, never exceeded. Jitter is non-negative, so the delay
    /// also never collapses below the doubled base.
    fn backoff(&mut self, attempt: u32) -> u64 {
        let exp = attempt.min(16);
        let delay = self.base.saturating_shl(exp).min(self.cap).max(1);
        // The jitter draw is made unconditionally so the RNG consumption
        // (and with it every seeded trace) is independent of whether the
        // clamp bites.
        (delay + self.rng.range(0, delay / 2)).min(self.cap)
    }

    /// Arms the retransmit timer for the earliest pending deadline if it
    /// is not already covered by an armed one.
    fn arm(&mut self, ctx: &mut Context<ReliableMsg<P::Msg>, P::Resp>) {
        let Some(min_due) = self.pending.values().map(|p| p.next_due).min() else {
            return;
        };
        let covered = self.timer_at.is_some_and(|t| t <= min_due && t >= ctx.now());
        if !covered {
            let after = min_due.ticks().saturating_sub(ctx.now().ticks()).max(1);
            ctx.set_timer(RETX_TIMER, after);
            self.timer_at = Some(SimTime(ctx.now().ticks() + after));
        }
    }

    /// Sends one logical message reliably: envelope, track, arm.
    fn reliable_send(
        &mut self,
        to: ProcessId,
        msg: P::Msg,
        ctx: &mut Context<ReliableMsg<P::Msg>, P::Resp>,
    ) {
        let seq_slot = self.next_seq.entry(to).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        ctx.send(to, ReliableMsg::Data { seq, payload: msg.clone() });
        let next_due = ctx.now() + self.backoff(0);
        self.pending.insert((to, seq), PendingEnvelope { payload: msg, attempt: 0, next_due });
        self.arm(ctx);
    }

    /// Runs one handler of the wrapped protocol through
    /// [`Context::nested`] and sequences what it emitted: each logical
    /// send becomes a tracked envelope; timers and completions pass
    /// through. A broadcast becomes one tracked envelope per destination,
    /// because sequence numbers, acks and retransmission are per
    /// destination.
    fn run_inner(
        &mut self,
        ctx: &mut Context<ReliableMsg<P::Msg>, P::Resp>,
        handler: impl FnOnce(&mut P, &mut Context<P::Msg, P::Resp>),
    ) {
        for eff in ctx.nested(|inner| handler(&mut self.inner, inner)) {
            match eff {
                Effect::Send { to, msg } => self.reliable_send(to, msg, ctx),
                Effect::Broadcast { msg } => {
                    for to in 0..ctx.n() {
                        self.reliable_send(ProcessId(to), msg.clone(), ctx);
                    }
                }
                Effect::SetTimer { id, after } => {
                    debug_assert!(id != RETX_TIMER, "TimerId(u64::MAX) is reserved by Reliable");
                    ctx.set_timer(id, after);
                }
                Effect::Complete { op, resp } => ctx.complete(op, resp),
                Effect::NoteRetransmit { count } => ctx.note_retransmit(count),
                Effect::Trace { kind, label, id } => ctx.emit_trace(kind, label, id),
            }
        }
    }

    /// Resends every envelope due by `now` and pushes its next deadline
    /// one backoff step out.
    fn retransmit_due(&mut self, ctx: &mut Context<ReliableMsg<P::Msg>, P::Resp>) {
        let now = ctx.now();
        let due: Vec<(ProcessId, u64)> =
            self.pending.iter().filter(|(_, p)| p.next_due <= now).map(|(k, _)| *k).collect();
        for key in due {
            let attempt = self.pending[&key].attempt + 1;
            let next_due = now + self.backoff(attempt);
            let entry = self.pending.get_mut(&key).expect("due key still pending");
            entry.attempt = attempt;
            entry.next_due = next_due;
            ctx.send(key.0, ReliableMsg::Data { seq: key.1, payload: entry.payload.clone() });
            ctx.note_retransmit(1);
            // Trace the backoff ladder: one marker per resend, id = seq,
            // so a viewer shows the widening gaps of one envelope's
            // retransmission run.
            ctx.trace_instant("retx", key.1);
            self.retransmits += 1;
        }
    }
}

/// `u64::checked_shl` with saturation to `u64::MAX` — backoff exponents
/// must not wrap.
trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        self.checked_shl(exp).unwrap_or(u64::MAX)
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    type Msg = ReliableMsg<P::Msg>;
    type Op = P::Op;
    type Resp = P::Resp;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |p, inner| p.on_start(inner));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        match msg {
            ReliableMsg::Data { seq, payload } => {
                // Ack unconditionally: duplicates mean the previous ack
                // was lost (or still in flight), and the sender keeps
                // retransmitting until one arrives.
                ctx.send(from, ReliableMsg::Ack { seq });
                let expected = self.expected.entry(from).or_insert(0);
                if seq < *expected {
                    return; // duplicate of an already-delivered envelope
                }
                self.held.insert((from, seq), payload);
                // Release the longest contiguous run to the inner
                // protocol: exactly once, in per-sender order.
                while let Some(payload) = self.held.remove(&(from, self.expected[&from])) {
                    *self.expected.get_mut(&from).expect("entry created above") += 1;
                    self.run_inner(ctx, |p, inner| p.on_message(from, payload, inner));
                }
            }
            ReliableMsg::Ack { seq } => {
                if self.pending.remove(&(from, seq)).is_some() {
                    ctx.trace_instant("ack", seq);
                }
            }
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        if id == RETX_TIMER {
            self.timer_at = None;
            self.retransmit_due(ctx);
            self.arm(ctx);
        } else {
            self.run_inner(ctx, |p, inner| p.on_timer(id, inner));
        }
    }

    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |p, inner| p.on_invoke(op, body, inner));
    }

    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |p, inner| p.on_recover(inner));
        // The crash cancelled the retransmit timer (its epoch advanced).
        // Re-arm it by making every pending envelope due now: acks that
        // were dropped while we were down are recovered by the resend.
        self.timer_at = None;
        let now = ctx.now();
        for entry in self.pending.values_mut() {
            entry.next_due = now;
        }
        self.retransmit_due(ctx);
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FailureSchedule, SimConfig, Simulation, StopReason};
    use gqs_core::Channel;

    /// One-shot request/response: sends each request exactly once and
    /// never retries — all fault tolerance must come from [`Reliable`].
    #[derive(Clone, Default, Debug)]
    struct OneShot {
        pending: Vec<OpId>,
        got: Vec<u64>,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Req(u64),
        Rsp,
    }

    impl Protocol for OneShot {
        type Msg = Msg;
        type Op = (ProcessId, u64);
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<Msg, ()>) {}

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, ()>) {
            match msg {
                Msg::Req(x) => {
                    self.got.push(x);
                    ctx.send(from, Msg::Rsp);
                }
                Msg::Rsp => {
                    if let Some(op) = self.pending.pop() {
                        ctx.complete(op, ());
                    }
                }
            }
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Msg, ()>) {}

        fn on_invoke(&mut self, op: OpId, (to, x): Self::Op, ctx: &mut Context<Msg, ()>) {
            self.pending.push(op);
            ctx.send(to, Msg::Req(x));
        }
    }

    fn nodes(n: usize) -> Vec<Reliable<OneShot>> {
        (0..n).map(|p| Reliable::with_tuning(OneShot::default(), 20, 320, 100 + p as u64)).collect()
    }

    #[test]
    fn one_shot_survives_a_lossy_channel() {
        let cfg = SimConfig { seed: 9, loss: 0.4, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes(2));
        for i in 0..4 {
            sim.invoke_at(SimTime(10 + i * 50), ProcessId(0), (ProcessId(1), i));
        }
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
        let s = sim.stats();
        assert!(s.dropped_lossy > 0, "a 40% loss rate must drop something");
        assert_eq!(sim.node(ProcessId(1)).inner().got, vec![0, 1, 2, 3], "in order, exactly once");
    }

    #[test]
    fn retransmission_stops_after_the_ack() {
        let cfg = SimConfig { seed: 2, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes(2));
        sim.invoke_at(SimTime(1), ProcessId(0), (ProcessId(1), 7));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
        let before = sim.stats().retransmitted;
        sim.run(); // drain any armed retransmit timers
        assert_eq!(sim.stats().retransmitted, before, "no retransmits after acks");
        assert_eq!(sim.node(ProcessId(0)).unacked(), 0);
        assert_eq!(sim.node(ProcessId(1)).inner().got, vec![7]);
    }

    #[test]
    fn duplicates_are_acked_but_not_redelivered() {
        let mut r = Reliable::new(OneShot::default());
        let mut ctx = Context::new(ProcessId(1), 2, SimTime(5));
        let data = ReliableMsg::Data { seq: 0, payload: Msg::Req(3) };
        r.on_message(ProcessId(0), data.clone(), &mut ctx);
        r.on_message(ProcessId(0), data, &mut ctx);
        assert_eq!(r.inner().got, vec![3], "delivered exactly once");
        let acks = ctx
            .take_effects()
            .iter()
            .filter(|e| matches!(e, Effect::Send { msg: ReliableMsg::Ack { seq: 0 }, .. }))
            .count();
        assert_eq!(acks, 2, "every copy is acked, or a lost ack would retransmit forever");
    }

    /// Announces each invoked value to all.
    #[derive(Clone, Default, Debug)]
    struct Announce;

    impl Protocol for Announce {
        type Msg = u64;
        type Op = u64;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<u64, ()>) {}
        fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<u64, ()>) {}
        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<u64, ()>) {}

        fn on_invoke(&mut self, op: OpId, x: u64, ctx: &mut Context<u64, ()>) {
            ctx.broadcast(x);
            ctx.complete(op, ());
        }
    }

    /// `(destination, seq)` of every data envelope among `ctx`'s effects.
    fn data_sends(ctx: &mut Context<ReliableMsg<u64>, ()>) -> Vec<(usize, u64)> {
        ctx.take_effects()
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg: ReliableMsg::Data { seq, .. } } => Some((to.index(), *seq)),
                Effect::Broadcast { .. } => {
                    panic!("one envelope cannot carry per-destination seqs")
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_broadcast_is_sequenced_acked_and_retransmitted_per_destination() {
        let mut r = Reliable::with_tuning(Announce, 20, 320, 1);
        let mut ctx = Context::new(ProcessId(0), 3, SimTime(5));
        r.on_invoke(OpId(0), 7, &mut ctx);
        assert_eq!(data_sends(&mut ctx), vec![(0, 0), (1, 0), (2, 0)]);
        // A point-to-point send in between advances only its own channel.
        r.reliable_send(ProcessId(1), 8, &mut ctx);
        r.on_invoke(OpId(1), 9, &mut ctx);
        assert_eq!(data_sends(&mut ctx), vec![(1, 1), (0, 1), (1, 2), (2, 1)]);
        assert_eq!(r.unacked(), 7);
        // Destinations 0 and 1 ack everything; 2 stays silent.
        for (from, seqs) in [(0, 0..2), (1, 0..3)] {
            for seq in seqs {
                r.on_message(ProcessId(from), ReliableMsg::Ack { seq }, &mut ctx);
            }
        }
        assert_eq!(r.unacked(), 2);
        let mut late = Context::new(ProcessId(0), 3, SimTime(1000));
        r.on_timer(RETX_TIMER, &mut late);
        assert_eq!(data_sends(&mut late), vec![(2, 0), (2, 1)], "only the unacked destination");
        assert_eq!(r.retransmits(), 2);
    }

    #[test]
    fn out_of_order_arrivals_are_held_until_the_gap_fills() {
        let mut r = Reliable::new(OneShot::default());
        let mut ctx = Context::new(ProcessId(1), 2, SimTime(5));
        r.on_message(ProcessId(0), ReliableMsg::Data { seq: 1, payload: Msg::Req(11) }, &mut ctx);
        assert!(r.inner().got.is_empty(), "seq 1 must wait for seq 0");
        r.on_message(ProcessId(0), ReliableMsg::Data { seq: 0, payload: Msg::Req(10) }, &mut ctx);
        assert_eq!(r.inner().got, vec![10, 11], "released in sequence order");
    }

    #[test]
    fn backoff_totals_never_exceed_the_cap() {
        // Regression: jitter used to be added after the cap clamp, so
        // effective retransmit delays reached 1.5× the documented cap.
        let mut r = Reliable::with_tuning(OneShot::default(), 40, 640, 77);
        for attempt in 0..40 {
            let base = (40u64 << attempt.min(16)).min(640);
            for _ in 0..200 {
                let d = r.backoff(attempt);
                assert!(d <= 640, "attempt {attempt} drew {d}, above the cap");
                assert!(d >= base, "attempt {attempt} drew {d}, below the doubled base {base}");
            }
        }
    }

    #[test]
    fn op_invoked_during_an_outage_completes_after_the_heal() {
        let cfg = SimConfig { seed: 4, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes(2));
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(1)), SimTime(0));
        sched.heal(Channel::new(ProcessId(0), ProcessId(1)), SimTime(800));
        sim.apply_failures(&sched);
        let op = sim.invoke_at(SimTime(10), ProcessId(0), (ProcessId(1), 1));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
        let done = sim.history().ops().iter().find(|r| r.id == op).unwrap().completed_at().unwrap();
        assert!(done >= SimTime(800), "nothing can get through before the heal");
        // The retransmit interval is hard-capped at these nodes' tuned
        // cap of 320 (jitter included), so the first post-heal
        // retransmit fires by 800 + 320, and the round trip adds at most
        // 2 × 10 ticks of message delay on top.
        assert!(done < SimTime(1160), "backoff is capped, so the heal is noticed promptly");
        assert!(sim.stats().retransmitted > 0);
    }

    #[test]
    fn recovery_rearms_pending_retransmissions() {
        let cfg = SimConfig { seed: 6, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, nodes(2));
        let mut sched = FailureSchedule::none();
        // The receiver is down when the request is sent, and the sender
        // crashes before any retransmit timer it armed can fire — both
        // sides' machinery must come back through on_recover.
        sched.crash(ProcessId(1), SimTime(0));
        sched.recover(ProcessId(1), SimTime(600));
        sched.crash(ProcessId(0), SimTime(30));
        sched.recover(ProcessId(0), SimTime(900));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(10), ProcessId(0), (ProcessId(1), 5));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
        assert_eq!(sim.node(ProcessId(1)).inner().got, vec![5]);
    }

    #[test]
    fn same_seed_same_trace_with_loss_and_retransmits() {
        let run = || {
            let cfg = SimConfig { seed: 11, loss: 0.25, ..SimConfig::default() };
            let mut sim = Simulation::new(cfg, nodes(3));
            sim.invoke_at(SimTime(1), ProcessId(0), (ProcessId(2), 1));
            sim.invoke_at(SimTime(40), ProcessId(1), (ProcessId(2), 2));
            sim.run_until_ops_complete();
            (sim.stats(), sim.now())
        };
        assert_eq!(run(), run());
    }
}

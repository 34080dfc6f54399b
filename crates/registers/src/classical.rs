//! Classical quorum access functions (Figure 2).
//!
//! The textbook request/response pattern: `quorum_get()` broadcasts
//! `GET_REQ` and awaits `GET_RESP`s from a read quorum; `quorum_set(u)`
//! broadcasts `SET_REQ(u)` and awaits `SET_RESP`s from a write quorum.
//! Correct whenever the fail-prone system disallows channel failures
//! (Definition 1); used here as the ABD baseline that **stalls** under the
//! weak connectivity of Figure 1 — the behaviour the generalized engine of
//! Figure 3 exists to fix.
//!
//! # Recovery-aware retries
//!
//! By default each request is broadcast exactly once, so a request lost to
//! a down interval or the loss model stalls its invocation forever. With
//! [`ClassicalQaf::with_retry`], unanswered `GET_REQ`/`SET_REQ`s are
//! rebroadcast on a periodic [`RETRY_TIMER`] until the quorum responds —
//! replicas suppress duplicate `SET_REQ` applications by `(requester,
//! seq)` and re-ack instead, so retries never double-apply an update.
//! Retransmitted copies are accounted via
//! [`gqs_simnet::Context::note_retransmit`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::marker::PhantomData;

use gqs_core::{ProcessId, ProcessSet, QuorumFamily};
use gqs_simnet::{Context, TimerId};

use crate::qaf::{QafEvent, QuorumAccess};
use crate::update::Update;

/// Timer id used by the retrying engines ([`ClassicalQaf::with_retry`],
/// [`crate::GeneralizedQaf::with_retry`]) for request retransmission.
/// Distinct from [`crate::generalized::TICK_TIMER`] and the consensus
/// synchronizer's timer.
pub const RETRY_TIMER: TimerId = TimerId(2);

/// Wire messages of the classical engine (Figure 2).
#[derive(Clone, Debug)]
pub enum ClassicalMsg<S, U> {
    /// `GET_REQ(seq)` — request the current state.
    GetReq {
        /// Requester-local invocation id.
        seq: u64,
    },
    /// `GET_RESP(seq, state)` — the responder's current state.
    GetResp {
        /// Echoed invocation id.
        seq: u64,
        /// The responder's state.
        state: S,
    },
    /// `SET_REQ(seq, u)` — apply the update `u`.
    SetReq {
        /// Requester-local invocation id.
        seq: u64,
        /// The update function.
        update: U,
    },
    /// `SET_RESP(seq)` — acknowledgement.
    SetResp {
        /// Echoed invocation id.
        seq: u64,
    },
}

#[derive(Clone, Debug)]
struct PendingGet<S> {
    seq: u64,
    token: u64,
    responses: BTreeMap<ProcessId, S>,
}

#[derive(Clone, Debug)]
struct PendingSet<U> {
    seq: u64,
    token: u64,
    responded: ProcessSet,
    /// Kept for retransmission under `with_retry`.
    update: U,
}

/// The Figure 2 engine at one process.
#[derive(Clone, Debug)]
pub struct ClassicalQaf<S, U> {
    state: S,
    seq: u64,
    reads: QuorumFamily,
    writes: QuorumFamily,
    gets: Vec<PendingGet<S>>,
    sets: Vec<PendingSet<U>>,
    /// Period of the request retransmission, if enabled.
    retry_interval: Option<u64>,
    /// Whether a [`RETRY_TIMER`] is currently armed (timers are one-shot
    /// and cannot be cancelled, so arming is tracked to avoid storms).
    retry_armed: bool,
    /// `(requester, seq)` of every `SET_REQ` already applied here:
    /// retransmitted requests are re-acked, not re-applied.
    applied: BTreeSet<(ProcessId, u64)>,
    _update: PhantomData<U>,
}

impl<S: Clone + Debug, U: Update<S>> ClassicalQaf<S, U> {
    /// Creates the engine with the given quorum families and initial state.
    pub fn new(reads: QuorumFamily, writes: QuorumFamily, initial: S) -> Self {
        ClassicalQaf {
            state: initial,
            seq: 0,
            reads,
            writes,
            gets: Vec::new(),
            sets: Vec::new(),
            retry_interval: None,
            retry_armed: false,
            applied: BTreeSet::new(),
            _update: PhantomData,
        }
    }

    /// Enables periodic retransmission of unanswered requests every
    /// `interval` time units (see the [module docs](self)). Off by
    /// default: the plain engine sends each request exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_retry(mut self, interval: u64) -> Self {
        assert!(interval > 0, "the retry period must be positive");
        self.retry_interval = Some(interval);
        self
    }

    /// Number of invocations still awaiting a quorum.
    pub fn pending(&self) -> usize {
        self.gets.len() + self.sets.len()
    }

    /// Arms the retry timer if retries are enabled, work is pending and no
    /// timer is already armed.
    fn arm_retry<R>(&mut self, ctx: &mut Context<ClassicalMsg<S, U>, R>) {
        if let Some(interval) = self.retry_interval {
            if !self.retry_armed && self.pending() > 0 {
                ctx.set_timer(RETRY_TIMER, interval);
                self.retry_armed = true;
            }
        }
    }

    /// Rebroadcasts every unanswered request and accounts the copies.
    fn retransmit_pending<R>(&mut self, ctx: &mut Context<ClassicalMsg<S, U>, R>) {
        let copies = ctx.n() as u64;
        for g in &self.gets {
            ctx.broadcast(ClassicalMsg::GetReq { seq: g.seq });
            ctx.note_retransmit(copies);
        }
        for s in &self.sets {
            ctx.broadcast(ClassicalMsg::SetReq { seq: s.seq, update: s.update.clone() });
            ctx.note_retransmit(copies);
        }
    }
}

impl<S: Clone + Debug, U: Update<S>> QuorumAccess<S, U> for ClassicalQaf<S, U> {
    type Msg = ClassicalMsg<S, U>;

    fn on_start<R>(&mut self, _ctx: &mut Context<Self::Msg, R>) {}

    fn on_timer<R>(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, R>) {
        if id == RETRY_TIMER && self.retry_interval.is_some() {
            self.retry_armed = false;
            self.retransmit_pending(ctx);
            self.arm_retry(ctx);
        }
    }

    fn on_recover<R>(&mut self, ctx: &mut Context<Self::Msg, R>) {
        // The crash cancelled any armed retry timer; resume the pending
        // requests immediately and re-arm.
        self.retry_armed = false;
        if self.retry_interval.is_some() {
            self.retransmit_pending(ctx);
            self.arm_retry(ctx);
        }
    }

    fn start_get<R>(&mut self, token: u64, ctx: &mut Context<Self::Msg, R>) {
        self.seq += 1;
        self.gets.push(PendingGet { seq: self.seq, token, responses: BTreeMap::new() });
        ctx.broadcast(ClassicalMsg::GetReq { seq: self.seq });
        self.arm_retry(ctx);
    }

    fn start_set<R>(&mut self, token: u64, update: U, ctx: &mut Context<Self::Msg, R>) {
        self.seq += 1;
        self.sets.push(PendingSet {
            seq: self.seq,
            token,
            responded: ProcessSet::new(),
            update: update.clone(),
        });
        ctx.broadcast(ClassicalMsg::SetReq { seq: self.seq, update });
        self.arm_retry(ctx);
    }

    fn on_message<R>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, R>,
    ) -> Vec<QafEvent<S>> {
        let mut events = Vec::new();
        match msg {
            ClassicalMsg::GetReq { seq } => {
                ctx.send(from, ClassicalMsg::GetResp { seq, state: self.state.clone() });
            }
            ClassicalMsg::GetResp { seq, state } => {
                if let Some(i) = self.gets.iter().position(|g| g.seq == seq) {
                    self.gets[i].responses.insert(from, state);
                    let have: ProcessSet = self.gets[i].responses.keys().copied().collect();
                    if let Some(quorum) = self.reads.satisfying_quorum(have) {
                        let g = self.gets.swap_remove(i);
                        let states =
                            g.responses.into_iter().filter(|(p, _)| quorum.contains(*p)).collect();
                        events.push(QafEvent::GetDone { token: g.token, states });
                    }
                }
            }
            ClassicalMsg::SetReq { seq, update } => {
                // A retransmitted SET_REQ must not re-apply (updates are
                // not idempotent); it is re-acked so a lost SET_RESP is
                // recovered by the requester's next retry.
                if self.applied.insert((from, seq)) {
                    self.state = update.apply(&self.state);
                }
                ctx.send(from, ClassicalMsg::SetResp { seq });
            }
            ClassicalMsg::SetResp { seq } => {
                if let Some(i) = self.sets.iter().position(|s| s.seq == seq) {
                    self.sets[i].responded.insert(from);
                    if self.writes.is_satisfied(self.sets[i].responded) {
                        let s = self.sets.swap_remove(i);
                        events.push(QafEvent::SetDone { token: s.token });
                    }
                }
            }
        }
        events
    }

    fn state(&self) -> &S {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{RegMap, VersionedWrite};
    use gqs_core::pset;
    use gqs_simnet::SimTime;

    type S = RegMap<u8, u64>;
    type U = VersionedWrite<u8, u64>;
    type Engine = ClassicalQaf<S, U>;

    fn majority_engine() -> Engine {
        let fam = QuorumFamily::threshold(3, 2).unwrap();
        ClassicalQaf::new(fam.clone(), fam, RegMap::new(0))
    }

    fn ctx(p: usize) -> Context<ClassicalMsg<S, U>, ()> {
        Context::new(ProcessId(p), 3, SimTime::ZERO)
    }

    #[test]
    fn get_completes_on_read_quorum() {
        let mut e = majority_engine();
        let mut c = ctx(0);
        e.start_get(7, &mut c);
        assert_eq!(c.effect_count(), 1); // one broadcast (to all incl. self)
        assert_eq!(e.pending(), 1);
        let s = RegMap::new(0);
        let ev =
            e.on_message(ProcessId(1), ClassicalMsg::GetResp { seq: 1, state: s.clone() }, &mut c);
        assert!(ev.is_empty());
        let ev = e.on_message(ProcessId(2), ClassicalMsg::GetResp { seq: 1, state: s }, &mut c);
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            QafEvent::GetDone { token, states } => {
                assert_eq!(*token, 7);
                assert_eq!(states.len(), 2);
            }
            _ => panic!("expected GetDone"),
        }
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn stale_seq_responses_ignored() {
        let mut e = majority_engine();
        let mut c = ctx(0);
        e.start_get(7, &mut c);
        let ev = e.on_message(
            ProcessId(1),
            ClassicalMsg::GetResp { seq: 99, state: RegMap::new(0) },
            &mut c,
        );
        assert!(ev.is_empty());
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn set_applies_update_and_acks() {
        let mut e = majority_engine();
        let mut c = ctx(1);
        let u = VersionedWrite { reg: 0, value: 9, version: (1, 0) };
        let ev = e.on_message(ProcessId(0), ClassicalMsg::SetReq { seq: 4, update: u }, &mut c);
        assert!(ev.is_empty());
        assert_eq!(e.state().get(&0), (9, (1, 0)));
        assert_eq!(c.effect_count(), 1); // the SET_RESP
    }

    #[test]
    fn set_completes_on_write_quorum() {
        let mut e = majority_engine();
        let mut c = ctx(0);
        let u = VersionedWrite { reg: 0, value: 9, version: (1, 0) };
        e.start_set(3, u, &mut c);
        let _ = e.on_message(ProcessId(0), ClassicalMsg::SetResp { seq: 1 }, &mut c);
        let ev = e.on_message(ProcessId(2), ClassicalMsg::SetResp { seq: 1 }, &mut c);
        assert!(matches!(ev[0], QafEvent::SetDone { token: 3 }));
    }

    #[test]
    fn duplicate_responses_do_not_double_complete() {
        let mut e = majority_engine();
        let mut c = ctx(0);
        e.start_set(3, VersionedWrite { reg: 0, value: 1, version: (1, 0) }, &mut c);
        let _ = e.on_message(ProcessId(1), ClassicalMsg::SetResp { seq: 1 }, &mut c);
        let _ = e.on_message(ProcessId(1), ClassicalMsg::SetResp { seq: 1 }, &mut c);
        assert_eq!(e.pending(), 1, "one distinct responder is not a quorum");
    }

    #[test]
    fn duplicate_set_req_applies_once_but_is_reacked() {
        let mut e = majority_engine();
        let mut c = ctx(1);
        let u = VersionedWrite { reg: 0, value: 9, version: (1, 0) };
        let req = ClassicalMsg::SetReq { seq: 4, update: u };
        let _ = e.on_message(ProcessId(0), req.clone(), &mut c);
        let _ = e.on_message(ProcessId(0), req, &mut c);
        assert_eq!(e.state().get(&0), (9, (1, 0)), "the update applied exactly once");
        assert_eq!(c.effect_count(), 2, "both copies are acked");
        // The same seq from a DIFFERENT requester is a distinct request.
        let u2 = VersionedWrite { reg: 0, value: 11, version: (2, 2) };
        let _ = e.on_message(ProcessId(2), ClassicalMsg::SetReq { seq: 4, update: u2 }, &mut c);
        assert_eq!(e.state().get(&0), (11, (2, 2)));
    }

    #[test]
    fn retry_rebroadcasts_unanswered_requests_until_quorum() {
        let mut e = majority_engine().with_retry(50);
        let mut c = ctx(0);
        e.start_get(7, &mut c);
        // Broadcast + armed retry timer.
        assert_eq!(c.effect_count(), 2);
        let mut c = ctx(0);
        e.on_timer(RETRY_TIMER, &mut c);
        // Rebroadcast + NoteRetransmit + re-armed timer.
        assert_eq!(c.effect_count(), 3);
        // Satisfy the read quorum; the next firing must go quiet.
        let s = RegMap::new(0);
        let ev =
            e.on_message(ProcessId(1), ClassicalMsg::GetResp { seq: 1, state: s.clone() }, &mut c);
        assert!(ev.is_empty());
        let ev = e.on_message(ProcessId(2), ClassicalMsg::GetResp { seq: 1, state: s }, &mut c);
        assert_eq!(ev.len(), 1);
        let mut c = ctx(0);
        e.on_timer(RETRY_TIMER, &mut c);
        assert_eq!(c.effect_count(), 0, "nothing pending, nothing resent, no re-arm");
    }

    #[test]
    fn without_retry_the_timer_is_inert() {
        let mut e = majority_engine();
        let mut c = ctx(0);
        e.start_get(7, &mut c);
        assert_eq!(c.effect_count(), 1, "no timer armed");
        let mut c = ctx(0);
        e.on_timer(RETRY_TIMER, &mut c);
        assert_eq!(c.effect_count(), 0);
    }

    #[test]
    fn recovery_resends_pending_requests() {
        let mut e = majority_engine().with_retry(50);
        let mut c = ctx(0);
        e.start_set(3, VersionedWrite { reg: 0, value: 1, version: (1, 0) }, &mut c);
        let mut c = ctx(0);
        e.on_recover(&mut c);
        // Rebroadcast + NoteRetransmit + re-armed timer.
        assert_eq!(c.effect_count(), 3);
    }

    #[test]
    #[should_panic(expected = "retry period must be positive")]
    fn zero_retry_interval_rejected() {
        let _ = majority_engine().with_retry(0);
    }

    #[test]
    fn explicit_families_work_too() {
        let reads = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        let writes = QuorumFamily::explicit([pset![1, 2]]).unwrap();
        let mut e: Engine = ClassicalQaf::new(reads, writes, RegMap::new(0));
        let mut c = ctx(0);
        e.start_get(1, &mut c);
        let _ = e.on_message(
            ProcessId(2),
            ClassicalMsg::GetResp { seq: 1, state: RegMap::new(0) },
            &mut c,
        );
        assert_eq!(e.pending(), 1, "process 2 is not in the read quorum");
        let _ = e.on_message(
            ProcessId(0),
            ClassicalMsg::GetResp { seq: 1, state: RegMap::new(0) },
            &mut c,
        );
        let ev = e.on_message(
            ProcessId(1),
            ClassicalMsg::GetResp { seq: 1, state: RegMap::new(0) },
            &mut c,
        );
        assert_eq!(ev.len(), 1);
    }
}

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
//! rebroadcast on a periodic [`crate::RETRY_TIMER`] until the quorum
//! responds — replicas suppress duplicate `SET_REQ` applications by
//! `(requester, seq)` and re-ack instead, so retries never double-apply an
//! update. The request numbering, the retry timer and this dedup are
//! shared with [`crate::GeneralizedQaf`]; a replica's memory of them is
//! one [`gqs_simnet::Seen`] record per requester.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gqs_core::{ProcessId, ProcessSet, QuorumFamily};
use gqs_simnet::{Context, TimerId};

use crate::qaf::{QafEvent, QuorumAccess};
use crate::requests::{Request, Requests, Wait};
use crate::update::Update;

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

impl<S, U> Request<U> for ClassicalMsg<S, U> {
    fn get_req(seq: u64) -> Self {
        ClassicalMsg::GetReq { seq }
    }
    fn set_req(seq: u64, update: U) -> Self {
        ClassicalMsg::SetReq { seq, update }
    }
}

/// An open get collects its responders' states, an open set its
/// responders; both await replies until they complete.
impl<S> Wait for BTreeMap<ProcessId, S> {}
impl Wait for ProcessSet {}

/// The Figure 2 engine at one process.
#[derive(Clone, Debug)]
pub struct ClassicalQaf<S, U> {
    state: S,
    reads: QuorumFamily,
    writes: QuorumFamily,
    req: Requests<BTreeMap<ProcessId, S>, ProcessSet, U>,
}

impl<S: Clone + Debug, U: Update<S>> ClassicalQaf<S, U> {
    /// Creates the engine with the given quorum families and initial state.
    pub fn new(reads: QuorumFamily, writes: QuorumFamily, initial: S) -> Self {
        ClassicalQaf { state: initial, reads, writes, req: Requests::new() }
    }

    /// Enables periodic retransmission of unanswered requests every
    /// `interval` time units (see the [module docs](self)). Off by
    /// default: the plain engine sends each request exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_retry(mut self, interval: u64) -> Self {
        self.req.retry_every(interval);
        self
    }

    /// Number of invocations still awaiting a quorum.
    pub fn pending(&self) -> usize {
        self.req.pending()
    }
}

impl<S: Clone + Debug, U: Update<S>> QuorumAccess<S, U> for ClassicalQaf<S, U> {
    type Msg = ClassicalMsg<S, U>;

    fn on_start<R>(&mut self, _ctx: &mut Context<Self::Msg, R>) {}

    fn on_timer<R>(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, R>) {
        self.req.on_timer(id, ctx);
    }

    fn on_recover<R>(&mut self, ctx: &mut Context<Self::Msg, R>) {
        self.req.resume(ctx);
    }

    fn start_get<R>(&mut self, token: u64, ctx: &mut Context<Self::Msg, R>) {
        self.req.start_get(token, BTreeMap::new(), ctx);
    }

    fn start_set<R>(&mut self, token: u64, update: U, ctx: &mut Context<Self::Msg, R>) {
        self.req.start_set(token, ProcessSet::new(), update, ctx);
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
                if let Some(i) = self.req.gets.iter().position(|g| g.seq == seq) {
                    let responses = &mut self.req.gets[i].wait;
                    responses.insert(from, state);
                    let have: ProcessSet = responses.keys().copied().collect();
                    if let Some(quorum) = self.reads.satisfying_quorum(have) {
                        let g = self.req.gets.swap_remove(i);
                        let states =
                            g.wait.into_iter().filter(|(p, _)| quorum.contains(*p)).collect();
                        events.push(QafEvent::GetDone { token: g.token, states });
                    }
                }
            }
            ClassicalMsg::SetReq { seq, update } => {
                // A retransmitted SET_REQ must not re-apply (updates are
                // not idempotent); it is re-acked so a lost SET_RESP is
                // recovered by the requester's next retry. SET_RESP carries
                // no clock here, so the stamp goes unused.
                self.req.apply_once(from, seq, 0, || {
                    self.state = update.apply(&self.state);
                    0
                });
                ctx.send(from, ClassicalMsg::SetResp { seq });
            }
            ClassicalMsg::SetResp { seq } => {
                if let Some(i) = self.req.sets.iter().position(|s| s.seq == seq) {
                    self.req.sets[i].wait.insert(from);
                    if self.writes.is_satisfied(self.req.sets[i].wait) {
                        let s = self.req.sets.swap_remove(i);
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
    use crate::RETRY_TIMER;
    use gqs_core::pset;
    use gqs_simnet::{Effect, SimTime};

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
        let _ = e.on_message(ProcessId(0), ClassicalMsg::SetResp { seq: 0 }, &mut c);
        let ev = e.on_message(ProcessId(2), ClassicalMsg::SetResp { seq: 0 }, &mut c);
        assert!(matches!(ev[0], QafEvent::SetDone { token: 3 }));
    }

    #[test]
    fn duplicate_responses_do_not_double_complete() {
        let mut e = majority_engine();
        let mut c = ctx(0);
        e.start_set(3, VersionedWrite { reg: 0, value: 1, version: (1, 0) }, &mut c);
        let _ = e.on_message(ProcessId(1), ClassicalMsg::SetResp { seq: 0 }, &mut c);
        let _ = e.on_message(ProcessId(1), ClassicalMsg::SetResp { seq: 0 }, &mut c);
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

    /// A replica's dedup state is one record per requester, whose gaps are
    /// exactly the `SET_REQ`s that have not arrived yet: once all have,
    /// however shuffled and duplicated, it holds nothing more.
    #[test]
    fn applied_sets_leave_one_gapless_record_per_requester() {
        let mut e = majority_engine();
        let mut c = ctx(1);
        let mut set = |e: &mut Engine, from: usize, seq: u64| {
            let update = VersionedWrite { reg: 0, value: seq, version: (seq + 1, from as u64) };
            let _ = e.on_message(ProcessId(from), ClassicalMsg::SetReq { seq, update }, &mut c);
        };
        for seq in 0..100 {
            set(&mut e, 0, seq);
        }
        // Requester 2's arrive pairwise swapped, each twice.
        for pair in (0..100).step_by(2) {
            for seq in [pair + 1, pair, pair + 1, pair] {
                set(&mut e, 2, seq);
            }
            assert_eq!(e.req.applied[2].seen.gaps(), 0, "after seq {pair}");
        }
        set(&mut e, 2, 150);
        assert_eq!(e.req.applied[2].seen.gaps(), 50, "100..150 have not arrived");
        assert_eq!(e.req.applied.len(), 3);
        assert_eq!(e.req.applied.iter().map(|a| a.seen.gaps()).sum::<usize>(), 50);
        assert_eq!(e.state().get(&0), (150, (151, 2)), "the newest version won");
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

    fn retry_timers_armed(c: &mut Context<ClassicalMsg<S, U>, ()>) -> usize {
        let effects = c.take_effects();
        effects.iter().filter(|e| matches!(e, Effect::SetTimer { id: RETRY_TIMER, .. })).count()
    }

    /// However many requests are open, one retry timer is armed, and each
    /// firing resends them all and re-arms exactly one.
    #[test]
    fn one_retry_timer_however_many_requests_are_open() {
        let mut e = majority_engine().with_retry(50);
        let mut c = ctx(0);
        e.start_get(1, &mut c);
        e.start_get(2, &mut c);
        e.start_set(3, VersionedWrite { reg: 0, value: 1, version: (1, 0) }, &mut c);
        assert_eq!(retry_timers_armed(&mut c), 1);
        for _ in 0..3 {
            e.on_timer(RETRY_TIMER, &mut c);
            assert_eq!(c.effect_count(), 3 * 2 + 1, "three resends, each noted, one re-arm");
            assert_eq!(retry_timers_armed(&mut c), 1);
        }
        e.start_get(4, &mut c);
        assert_eq!(retry_timers_armed(&mut c), 0, "the armed timer covers a new request");
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

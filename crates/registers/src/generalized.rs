//! Generalized quorum access functions (Figure 3) — the paper's central
//! protocol contribution.
//!
//! Under a generalized quorum system, a read quorum need not be strongly
//! connected: some of its members may be unable to *receive* anything, so
//! the request/response pattern of Figure 2 is impossible. Instead:
//!
//! * every process keeps a monotone **logical clock** and *pushes*
//!   `GET_RESP(state, clock)` to all, periodically and unsolicited
//!   (line 12);
//! * handling `SET_REQ` increments the clock, so acknowledgements carry
//!   the logical time by which the update is incorporated (line 21);
//! * `quorum_set(u)` first gathers `SET_RESP`s from a write quorum,
//!   computes `c_set` (the max acked clock), then **waits until a read
//!   quorum's pushed clocks reach `c_set`** (line 20) — it completes only
//!   when the update is observable through pushes;
//! * `quorum_get()` first asks a **write** quorum for clocks (`CLOCK_REQ` /
//!   `CLOCK_RESP`) and takes the max as cut-off `c_get`, then returns the
//!   pushed states of a read quorum whose clocks all reach `c_get`.
//!
//! Note the inversion of quorum roles: `set` waits on *read* quorums and
//! `get` cuts off against *write* quorums. Lemma 1 and Theorem 3 prove
//! this yields Real-time ordering; Theorem 4 gives `(F, τ)`-wait-freedom
//! for `τ(f) = U_f`.
//!
//! # Recovery-aware retries
//!
//! The periodic push already makes the *stage-2* waits (pushed clocks
//! reaching a cut-off) self-healing, but the stage-1 requests
//! (`CLOCK_REQ`, `SET_REQ`) are broadcast exactly once by default and can
//! be lost to a down interval or the loss model. With
//! [`GeneralizedQaf::with_retry`] they are rebroadcast on a periodic
//! [`crate::classical::RETRY_TIMER`] until the quorum answers; replicas
//! suppress duplicate `SET_REQ` applications by `(requester, seq)` and
//! re-ack with the clock recorded at first application, preserving the
//! line-21..24 semantics under retransmission.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gqs_core::{ProcessId, ProcessSet, QuorumFamily};
use gqs_simnet::{Context, TimerId};

use crate::classical::RETRY_TIMER;
use crate::qaf::{QafEvent, QuorumAccess};
use crate::update::Update;

/// Timer id used by the engine for its periodic state propagation.
pub const TICK_TIMER: TimerId = TimerId(0);

/// Wire messages of the generalized engine (Figure 3).
#[derive(Clone, Debug)]
pub enum GeneralizedMsg<S, U> {
    /// `CLOCK_REQ(seq)` — ask for the current logical clock.
    ClockReq {
        /// Requester-local invocation id.
        seq: u64,
    },
    /// `CLOCK_RESP(seq, clock)` — the responder's clock.
    ClockResp {
        /// Echoed invocation id.
        seq: u64,
        /// The responder's logical clock.
        clock: u64,
    },
    /// `GET_RESP(state, clock)` — unsolicited periodic state push: "this
    /// was my state by logical time `clock`".
    GetResp {
        /// The pusher's state.
        state: S,
        /// The pusher's logical clock at push time.
        clock: u64,
    },
    /// `SET_REQ(seq, u)` — apply update `u`.
    SetReq {
        /// Requester-local invocation id.
        seq: u64,
        /// The update function.
        update: U,
    },
    /// `SET_RESP(seq, clock)` — acknowledgement carrying the clock after
    /// the increment of line 23.
    SetResp {
        /// Echoed invocation id.
        seq: u64,
        /// The responder's clock after incorporating the update.
        clock: u64,
    },
}

#[derive(Clone, Debug)]
enum GetStage {
    /// Line 6: awaiting `CLOCK_RESP`s from a write quorum.
    AwaitCutoff { clocks: BTreeMap<ProcessId, u64> },
    /// Line 8: awaiting pushed states with clocks ≥ the cut-off.
    AwaitStates { cutoff: u64 },
}

#[derive(Clone, Debug)]
enum SetStage {
    /// Line 18: awaiting `SET_RESP`s from a write quorum.
    AwaitAcks { clocks: BTreeMap<ProcessId, u64> },
    /// Line 20: awaiting a read quorum's pushed clocks ≥ `c_set`.
    AwaitReadClocks { c_set: u64 },
}

#[derive(Clone, Debug)]
struct PendingGet {
    seq: u64,
    token: u64,
    stage: GetStage,
}

#[derive(Clone, Debug)]
struct PendingSet<U> {
    seq: u64,
    token: u64,
    stage: SetStage,
    /// Kept for retransmission under `with_retry`.
    update: U,
}

/// The Figure 3 engine at one process.
#[derive(Clone, Debug)]
pub struct GeneralizedQaf<S, U> {
    state: S,
    seq: u64,
    clock: u64,
    reads: QuorumFamily,
    writes: QuorumFamily,
    tick_interval: u64,
    /// Latest `(state, clock)` push seen from each process. Clocks are
    /// monotone per sender, so keeping the max-clock push loses nothing.
    latest: BTreeMap<ProcessId, (S, u64)>,
    gets: Vec<PendingGet>,
    sets: Vec<PendingSet<U>>,
    updates_applied: u64,
    /// Period of the stage-1 request retransmission, if enabled.
    retry_interval: Option<u64>,
    /// Whether a [`RETRY_TIMER`] is currently armed.
    retry_armed: bool,
    /// Clock recorded at the first application of each `(requester, seq)`
    /// `SET_REQ`; retransmitted copies are re-acked with it.
    applied: BTreeMap<(ProcessId, u64), u64>,
    _update: std::marker::PhantomData<U>,
}

impl<S: Clone + Debug, U: Update<S>> GeneralizedQaf<S, U> {
    /// Creates the engine.
    ///
    /// `tick_interval` is the period of the line-12 state propagation, in
    /// simulator time units; smaller ticks mean lower operation latency
    /// and more messages (experiment E5's tick column, 5/50/200, measures
    /// the trade-off).
    ///
    /// # Panics
    ///
    /// Panics if `tick_interval == 0`.
    pub fn new(reads: QuorumFamily, writes: QuorumFamily, initial: S, tick_interval: u64) -> Self {
        assert!(tick_interval > 0, "the periodic push needs a positive period");
        GeneralizedQaf {
            state: initial,
            seq: 0,
            clock: 0,
            reads,
            writes,
            tick_interval,
            latest: BTreeMap::new(),
            gets: Vec::new(),
            sets: Vec::new(),
            updates_applied: 0,
            retry_interval: None,
            retry_armed: false,
            applied: BTreeMap::new(),
            _update: std::marker::PhantomData,
        }
    }

    /// Enables periodic retransmission of unanswered stage-1 requests
    /// every `interval` time units (see the [module docs](self)). Off by
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_retry(mut self, interval: u64) -> Self {
        assert!(interval > 0, "the retry period must be positive");
        self.retry_interval = Some(interval);
        self
    }

    /// The current logical clock (for tests and experiments).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of invocations still in flight at this process.
    pub fn pending(&self) -> usize {
        self.gets.len() + self.sets.len()
    }

    /// Number of `SET_REQ` updates this replica has applied.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Processes with a cached push of clock at least `cutoff`.
    fn processes_at_clock(&self, cutoff: u64) -> ProcessSet {
        self.latest.iter().filter(|(_, (_, c))| *c >= cutoff).map(|(p, _)| *p).collect()
    }

    /// Tries to finish pending stage-2 waits against the push cache;
    /// returns completions. Called after every cache change.
    fn drain_ready(&mut self) -> Vec<QafEvent<S>> {
        let mut events = Vec::new();
        // quorum_get line 8: a read quorum entirely at clock >= cutoff.
        let mut i = 0;
        while i < self.gets.len() {
            let advance = match &self.gets[i].stage {
                GetStage::AwaitStates { cutoff } => {
                    let have = self.processes_at_clock(*cutoff);
                    self.reads.satisfying_quorum(have)
                }
                GetStage::AwaitCutoff { .. } => None,
            };
            if let Some(quorum) = advance {
                let g = self.gets.swap_remove(i);
                let states = quorum.iter().map(|p| (p, self.latest[&p].0.clone())).collect();
                events.push(QafEvent::GetDone { token: g.token, states });
            } else {
                i += 1;
            }
        }
        // quorum_set line 20: a read quorum's clocks reached c_set.
        let mut i = 0;
        while i < self.sets.len() {
            let done = match &self.sets[i].stage {
                SetStage::AwaitReadClocks { c_set } => {
                    let have = self.processes_at_clock(*c_set);
                    self.reads.is_satisfied(have)
                }
                SetStage::AwaitAcks { .. } => false,
            };
            if done {
                let s = self.sets.swap_remove(i);
                events.push(QafEvent::SetDone { token: s.token });
            } else {
                i += 1;
            }
        }
        events
    }

    /// Arms the retry timer if retries are enabled, some invocation is
    /// still in stage 1, and no timer is already armed.
    fn arm_retry<R>(&mut self, ctx: &mut Context<GeneralizedMsg<S, U>, R>) {
        let stage1 = self.gets.iter().any(|g| matches!(g.stage, GetStage::AwaitCutoff { .. }))
            || self.sets.iter().any(|s| matches!(s.stage, SetStage::AwaitAcks { .. }));
        if let Some(interval) = self.retry_interval {
            if !self.retry_armed && stage1 {
                ctx.set_timer(RETRY_TIMER, interval);
                self.retry_armed = true;
            }
        }
    }

    /// Rebroadcasts every stage-1 request still awaiting its quorum (the
    /// stage-2 waits are healed by the periodic push on its own timer).
    fn retransmit_pending<R>(&mut self, ctx: &mut Context<GeneralizedMsg<S, U>, R>) {
        let copies = ctx.n() as u64;
        for g in &self.gets {
            if matches!(g.stage, GetStage::AwaitCutoff { .. }) {
                ctx.broadcast(GeneralizedMsg::ClockReq { seq: g.seq });
                ctx.note_retransmit(copies);
            }
        }
        for s in &self.sets {
            if matches!(s.stage, SetStage::AwaitAcks { .. }) {
                ctx.broadcast(GeneralizedMsg::SetReq { seq: s.seq, update: s.update.clone() });
                ctx.note_retransmit(copies);
            }
        }
    }

    fn push_state<R>(&mut self, ctx: &mut Context<GeneralizedMsg<S, U>, R>) {
        // Line 13-14: advance the clock and push state to all (including
        // ourselves — our own cache entry comes back through the channel).
        self.clock += 1;
        ctx.broadcast(GeneralizedMsg::GetResp { state: self.state.clone(), clock: self.clock });
    }
}

impl<S: Clone + Debug, U: Update<S>> QuorumAccess<S, U> for GeneralizedQaf<S, U> {
    type Msg = GeneralizedMsg<S, U>;

    fn on_start<R>(&mut self, ctx: &mut Context<Self::Msg, R>) {
        // Kick off the periodic propagation immediately: downstream
        // processes must start hearing from us without being asked.
        self.push_state(ctx);
        ctx.set_timer(TICK_TIMER, self.tick_interval);
    }

    fn on_timer<R>(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, R>) {
        if id == TICK_TIMER {
            self.push_state(ctx);
            ctx.set_timer(TICK_TIMER, self.tick_interval);
        } else if id == RETRY_TIMER && self.retry_interval.is_some() {
            self.retry_armed = false;
            self.retransmit_pending(ctx);
            self.arm_retry(ctx);
        }
    }

    fn on_recover<R>(&mut self, ctx: &mut Context<Self::Msg, R>) {
        // The crash cancelled the periodic propagation; without re-arming
        // it a recovered process would never push state again and every
        // downstream read quorum through it would starve.
        self.push_state(ctx);
        ctx.set_timer(TICK_TIMER, self.tick_interval);
        // Likewise for the retry timer: resume pending stage-1 requests
        // immediately and re-arm.
        self.retry_armed = false;
        if self.retry_interval.is_some() {
            self.retransmit_pending(ctx);
            self.arm_retry(ctx);
        }
    }

    fn start_get<R>(&mut self, token: u64, ctx: &mut Context<Self::Msg, R>) {
        // Lines 4-5: broadcast CLOCK_REQ.
        self.seq += 1;
        self.gets.push(PendingGet {
            seq: self.seq,
            token,
            stage: GetStage::AwaitCutoff { clocks: BTreeMap::new() },
        });
        ctx.broadcast(GeneralizedMsg::ClockReq { seq: self.seq });
        self.arm_retry(ctx);
    }

    fn start_set<R>(&mut self, token: u64, update: U, ctx: &mut Context<Self::Msg, R>) {
        // Lines 16-17: broadcast SET_REQ(u).
        self.seq += 1;
        self.sets.push(PendingSet {
            seq: self.seq,
            token,
            stage: SetStage::AwaitAcks { clocks: BTreeMap::new() },
            update: update.clone(),
        });
        ctx.broadcast(GeneralizedMsg::SetReq { seq: self.seq, update });
        self.arm_retry(ctx);
    }

    fn on_message<R>(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, R>,
    ) -> Vec<QafEvent<S>> {
        match msg {
            GeneralizedMsg::ClockReq { seq } => {
                // Lines 10-11.
                ctx.send(from, GeneralizedMsg::ClockResp { seq, clock: self.clock });
                Vec::new()
            }
            GeneralizedMsg::ClockResp { seq, clock } => {
                // Lines 6-7: cut-off = max clock over a write quorum.
                if let Some(g) = self.gets.iter_mut().find(|g| g.seq == seq) {
                    if let GetStage::AwaitCutoff { clocks } = &mut g.stage {
                        clocks.insert(from, clock);
                        let have: ProcessSet = clocks.keys().copied().collect();
                        if let Some(q) = self.writes.satisfying_quorum(have) {
                            let cutoff =
                                q.iter().map(|p| clocks[&p]).max().expect("quorums are nonempty");
                            g.stage = GetStage::AwaitStates { cutoff };
                        }
                    }
                }
                self.drain_ready()
            }
            GeneralizedMsg::GetResp { state, clock } => {
                // Cache the freshest push per sender.
                let stale = matches!(self.latest.get(&from), Some((_, c)) if *c >= clock);
                if !stale {
                    self.latest.insert(from, (state, clock));
                }
                self.drain_ready()
            }
            GeneralizedMsg::SetReq { seq, update } => {
                // Lines 21-24: apply, bump clock, ack with the new clock.
                // A retransmitted SET_REQ must not re-apply or re-bump; it
                // is re-acked with the clock recorded at first application,
                // so a lost SET_RESP costs nothing but a retry round.
                let clock = match self.applied.get(&(from, seq)) {
                    Some(&recorded) => recorded,
                    None => {
                        self.state = update.apply(&self.state);
                        self.clock += 1;
                        self.updates_applied += 1;
                        self.applied.insert((from, seq), self.clock);
                        self.clock
                    }
                };
                ctx.send(from, GeneralizedMsg::SetResp { seq, clock });
                Vec::new()
            }
            GeneralizedMsg::SetResp { seq, clock } => {
                // Lines 18-19: c_set = max acked clock over a write quorum.
                if let Some(s) = self.sets.iter_mut().find(|s| s.seq == seq) {
                    if let SetStage::AwaitAcks { clocks } = &mut s.stage {
                        clocks.insert(from, clock);
                        let have: ProcessSet = clocks.keys().copied().collect();
                        if let Some(q) = self.writes.satisfying_quorum(have) {
                            let c_set =
                                q.iter().map(|p| clocks[&p]).max().expect("quorums are nonempty");
                            s.stage = SetStage::AwaitReadClocks { c_set };
                        }
                    }
                }
                self.drain_ready()
            }
        }
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
    type Engine = GeneralizedQaf<S, U>;
    type Msg = GeneralizedMsg<S, U>;

    /// Figure-1-style families for a 3-process slice: reads {0,2},
    /// writes {0,1}.
    fn engine() -> Engine {
        let reads = QuorumFamily::explicit([pset![0, 2]]).unwrap();
        let writes = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        GeneralizedQaf::new(reads, writes, RegMap::new(0), 10)
    }

    fn ctx(p: usize) -> Context<Msg, ()> {
        Context::new(ProcessId(p), 3, SimTime::ZERO)
    }

    fn push(e: &mut Engine, from: usize, clock: u64, c: &mut Context<Msg, ()>) -> Vec<QafEvent<S>> {
        e.on_message(ProcessId(from), Msg::GetResp { state: RegMap::new(0), clock }, c)
    }

    #[test]
    fn start_arms_tick_and_pushes() {
        let mut e = engine();
        let mut c = ctx(0);
        e.on_start(&mut c);
        // 1 push (broadcast) + 1 timer.
        assert_eq!(c.effect_count(), 2);
        assert_eq!(e.clock(), 1);
    }

    #[test]
    fn tick_advances_clock_and_rearms() {
        let mut e = engine();
        let mut c = ctx(0);
        e.on_timer(TICK_TIMER, &mut c);
        assert_eq!(e.clock(), 1);
        assert_eq!(c.effect_count(), 2);
        e.on_timer(TimerId(99), &mut c); // foreign timer ignored
        assert_eq!(e.clock(), 1);
    }

    #[test]
    fn get_needs_write_quorum_cutoff_then_read_quorum_states() {
        let mut e = engine();
        let mut c = ctx(0);
        e.start_get(42, &mut c);
        // Clock responses from the write quorum {0,1}: cutoff = max(3,5)=5.
        let _ = e.on_message(ProcessId(0), Msg::ClockResp { seq: 1, clock: 3 }, &mut c);
        let ev = e.on_message(ProcessId(1), Msg::ClockResp { seq: 1, clock: 5 }, &mut c);
        assert!(ev.is_empty(), "no pushed states at clock >= 5 yet");
        // A push from 0 at clock 5 is not enough: read quorum is {0,2}.
        assert!(push(&mut e, 0, 5, &mut c).is_empty());
        // A push from 2 at clock 4 is below the cutoff.
        assert!(push(&mut e, 2, 4, &mut c).is_empty());
        // A push from 2 at clock 6 completes the get.
        let ev = push(&mut e, 2, 6, &mut c);
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            QafEvent::GetDone { token, states } => {
                assert_eq!(*token, 42);
                let who: Vec<usize> = states.iter().map(|(p, _)| p.index()).collect();
                assert_eq!(who, vec![0, 2]);
            }
            _ => panic!("expected GetDone"),
        }
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn get_uses_cached_pushes_received_before_cutoff() {
        let mut e = engine();
        let mut c = ctx(0);
        // Pushes arrive BEFORE the get starts; clocks are monotone so the
        // cache may satisfy the cutoff immediately.
        let _ = push(&mut e, 0, 9, &mut c);
        let _ = push(&mut e, 2, 9, &mut c);
        e.start_get(1, &mut c);
        let _ = e.on_message(ProcessId(0), Msg::ClockResp { seq: 1, clock: 2 }, &mut c);
        let ev = e.on_message(ProcessId(1), Msg::ClockResp { seq: 1, clock: 3 }, &mut c);
        assert_eq!(ev.len(), 1, "cutoff 3 already covered by cached pushes at 9");
    }

    #[test]
    fn older_pushes_never_replace_newer() {
        let mut e = engine();
        let mut c = ctx(0);
        let s9 = RegMap::<u8, u64>::new(9);
        let _ = e.on_message(ProcessId(2), Msg::GetResp { state: s9, clock: 7 }, &mut c);
        let _ = push(&mut e, 2, 3, &mut c); // stale push with initial state
        assert_eq!(e.latest[&ProcessId(2)].1, 7);
        assert_eq!(*e.latest[&ProcessId(2)].0.initial(), 9);
    }

    #[test]
    fn set_req_applies_update_bumps_clock_and_acks() {
        let mut e = engine();
        let mut c = ctx(1);
        let u = VersionedWrite { reg: 0, value: 8, version: (1, 0) };
        let ev = e.on_message(ProcessId(0), Msg::SetReq { seq: 5, update: u }, &mut c);
        assert!(ev.is_empty());
        assert_eq!(e.clock(), 1);
        assert_eq!(e.updates_applied(), 1);
        assert_eq!(e.state().get(&0), (8, (1, 0)));
    }

    #[test]
    fn set_completes_only_after_read_quorum_clocks_reach_c_set() {
        let mut e = engine();
        let mut c = ctx(0);
        e.start_set(7, VersionedWrite { reg: 0, value: 1, version: (1, 0) }, &mut c);
        // Write quorum {0,1} acks with clocks 4 and 6: c_set = 6.
        let _ = e.on_message(ProcessId(0), Msg::SetResp { seq: 1, clock: 4 }, &mut c);
        let ev = e.on_message(ProcessId(1), Msg::SetResp { seq: 1, clock: 6 }, &mut c);
        assert!(ev.is_empty(), "read quorum has not caught up");
        let _ = push(&mut e, 0, 6, &mut c);
        let ev = push(&mut e, 2, 6, &mut c);
        assert!(matches!(ev[0], QafEvent::SetDone { token: 7 }));
    }

    #[test]
    fn concurrent_invocations_are_independent() {
        let mut e = engine();
        let mut c = ctx(0);
        e.start_get(1, &mut c);
        e.start_get(2, &mut c);
        assert_eq!(e.pending(), 2);
        // Satisfy only the second (seq 2).
        let _ = e.on_message(ProcessId(0), Msg::ClockResp { seq: 2, clock: 0 }, &mut c);
        let _ = e.on_message(ProcessId(1), Msg::ClockResp { seq: 2, clock: 0 }, &mut c);
        let _ = push(&mut e, 0, 1, &mut c);
        let ev = push(&mut e, 2, 1, &mut c);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token(), 2);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn duplicate_set_req_reacks_the_recorded_clock() {
        let mut e = engine();
        let mut c = ctx(1);
        let u = VersionedWrite { reg: 0, value: 8, version: (1, 0) };
        let req = Msg::SetReq { seq: 5, update: u };
        let _ = e.on_message(ProcessId(0), req.clone(), &mut c);
        // Another update lands in between, advancing the clock.
        let u2 = VersionedWrite { reg: 1, value: 3, version: (1, 2) };
        let _ = e.on_message(ProcessId(2), Msg::SetReq { seq: 1, update: u2 }, &mut c);
        assert_eq!(e.clock(), 2);
        let mut c = ctx(1);
        let _ = e.on_message(ProcessId(0), req, &mut c);
        assert_eq!(e.updates_applied(), 2, "the duplicate did not re-apply");
        assert_eq!(e.clock(), 2, "the duplicate did not re-bump the clock");
        let acked = c.take_effects();
        assert!(
            matches!(
                acked[..],
                [gqs_simnet::Effect::Send { msg: Msg::SetResp { seq: 5, clock: 1 }, .. }]
            ),
            "the re-ack carries the clock recorded at first application, got {acked:?}"
        );
    }

    #[test]
    fn retry_rebroadcasts_only_stage_one_requests() {
        let mut e = engine().with_retry(50);
        let mut c = ctx(0);
        e.start_get(42, &mut c);
        // Broadcast + armed retry timer.
        assert_eq!(c.effect_count(), 2);
        let mut c = ctx(0);
        e.on_timer(RETRY_TIMER, &mut c);
        // Rebroadcast CLOCK_REQ + NoteRetransmit + re-arm.
        assert_eq!(c.effect_count(), 3);
        // Reach stage 2: the cut-off is known, the wait is now on pushes.
        let _ = e.on_message(ProcessId(0), Msg::ClockResp { seq: 1, clock: 3 }, &mut c);
        let _ = e.on_message(ProcessId(1), Msg::ClockResp { seq: 1, clock: 5 }, &mut c);
        let mut c = ctx(0);
        e.on_timer(RETRY_TIMER, &mut c);
        assert_eq!(c.effect_count(), 0, "stage-2 waits ride the periodic push, not retries");
    }

    #[test]
    fn recovery_resends_stage_one_and_rearms_both_timers() {
        let mut e = engine().with_retry(50);
        let mut c = ctx(0);
        e.start_set(7, VersionedWrite { reg: 0, value: 1, version: (1, 0) }, &mut c);
        let mut c = ctx(0);
        e.on_recover(&mut c);
        // push_state broadcast + tick re-arm + SET_REQ rebroadcast
        // + NoteRetransmit + retry re-arm.
        assert_eq!(c.effect_count(), 5);
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn zero_tick_rejected() {
        let fam = QuorumFamily::threshold(3, 2).unwrap();
        let _: Engine = GeneralizedQaf::new(fam.clone(), fam, RegMap::new(0), 0);
    }
}

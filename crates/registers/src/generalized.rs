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
//! [`crate::RETRY_TIMER`] until the quorum answers; replicas suppress
//! duplicate `SET_REQ` applications by `(requester, seq)` and re-ack with
//! the clock recorded at first application, preserving the line-21..24
//! semantics under retransmission. The numbering, retry timer and dedup
//! are the ones [`crate::ClassicalQaf`] uses.
//!
//! A replica's memory of this stays bounded: one [`gqs_simnet::Seen`]
//! record per requester, keeping the clock of its latest set only. A copy
//! of an older set, which can arrive only while its requester has several
//! sets open, is re-acked with the current clock: the update is in the
//! replica's state at every clock since its first application, so that
//! clock acknowledges it as well, and `c_set` can only rise.
//!
//! # When the push cache drains
//!
//! Each process caches the freshest `(state, clock)` push per sender, and
//! a stage-2 wait with cut-off `k` completes once the senders cached at
//! clock `k` or above contain a read quorum. Every message handler ends
//! with no pending wait complete, so a `GET_RESP` that raises a sender's
//! cached clock from `old` (none, if nothing was cached) to `new` can
//! complete a wait only if its cut-off `k` has `old < k ≤ new`: that is
//! the only way the push changes who is at `k`. Only then does the engine
//! check its pending waits against the cache; a stale push costs one
//! comparison, and a fresh one that crosses no pending cut-off one cache
//! write and a scan of the open requests. `CLOCK_RESP` and `SET_RESP` can
//! open a stage-2 wait that the cache already satisfies, so they always
//! check.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gqs_core::{ProcessId, ProcessSet, QuorumFamily};
use gqs_simnet::{Context, TimerId};

use crate::qaf::{QafEvent, QuorumAccess};
use crate::requests::{Request, Requests, Wait};
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

impl<S, U> Request<U> for GeneralizedMsg<S, U> {
    fn get_req(seq: u64) -> Self {
        GeneralizedMsg::ClockReq { seq }
    }
    fn set_req(seq: u64, update: U) -> Self {
        GeneralizedMsg::SetReq { seq, update }
    }
}

/// The two stages of both functions: a write quorum's clocks fix a
/// cut-off (`c_get`, lines 6-7; `c_set`, lines 18-19), then a read
/// quorum's pushes must reach it (lines 8 and 20).
#[derive(Clone, Debug)]
enum Stage {
    /// Awaiting `CLOCK_RESP`s (a get) or `SET_RESP`s (a set) from a write
    /// quorum.
    Clocks(BTreeMap<ProcessId, u64>),
    /// Awaiting a read quorum's pushed clocks at or above the cut-off.
    Pushes(u64),
}

impl Stage {
    /// A `CLOCK_RESP` or `SET_RESP` from `from`: once a write quorum has
    /// replied, the max of its clocks is the cut-off.
    fn clock_reply(&mut self, writes: &QuorumFamily, from: ProcessId, clock: u64) {
        let Stage::Clocks(clocks) = self else { return };
        clocks.insert(from, clock);
        if let Some(q) = writes.satisfying_quorum(clocks.keys().copied().collect()) {
            let cutoff = q.iter().map(|p| clocks[&p]).max().expect("quorums are nonempty");
            *self = Stage::Pushes(cutoff);
        }
    }
}

impl Wait for Stage {
    fn awaits_replies(&self) -> bool {
        matches!(self, Stage::Clocks(_))
    }
}

/// The Figure 3 engine at one process.
#[derive(Clone, Debug)]
pub struct GeneralizedQaf<S, U> {
    state: S,
    clock: u64,
    reads: QuorumFamily,
    writes: QuorumFamily,
    tick_interval: u64,
    /// Latest `(state, clock)` push seen from each process, indexed by
    /// pid and grown on first sight. Clocks are monotone per sender, so
    /// keeping the max-clock push loses nothing.
    latest: Vec<Option<(S, u64)>>,
    updates_applied: u64,
    req: Requests<Stage, Stage, U>,
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
            clock: 0,
            reads,
            writes,
            tick_interval,
            latest: Vec::new(),
            updates_applied: 0,
            req: Requests::new(),
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
        self.req.retry_every(interval);
        self
    }

    /// The current logical clock (for tests and experiments).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of invocations still in flight at this process.
    pub fn pending(&self) -> usize {
        self.req.pending()
    }

    /// Number of `SET_REQ` updates this replica has applied.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// A read quorum whose cached pushes all reach the stage's cut-off,
    /// if the stage has one.
    fn pushed_quorum(&self, stage: &Stage) -> Option<ProcessSet> {
        let Stage::Pushes(cutoff) = *stage else { return None };
        let have = self.latest.iter().enumerate().filter_map(|(p, push)| match push {
            Some((_, c)) if *c >= cutoff => Some(ProcessId(p)),
            _ => None,
        });
        self.reads.satisfying_quorum(have.collect())
    }

    /// Whether some pending stage-2 cut-off `k` has `old < k ≤ new`, i.e.
    /// a sender's cached clock moving from `old` to `new` changes whether
    /// it counts toward that wait (see the [module docs](self)).
    fn crosses_cutoff(&self, old: Option<u64>, new: u64) -> bool {
        let gets = self.req.gets.iter().map(|g| &g.wait);
        gets.chain(self.req.sets.iter().map(|s| &s.wait)).any(|wait| match *wait {
            Stage::Pushes(k) => old.is_none_or(|old| old < k) && k <= new,
            Stage::Clocks(_) => false,
        })
    }

    /// Tries to finish pending stage-2 waits against the push cache, gets
    /// first; returns completions. Called after every stage-1 reply and
    /// every push that crosses a pending cut-off.
    fn drain_ready(&mut self) -> Vec<QafEvent<S>> {
        let mut events = Vec::new();
        let mut i = 0;
        while i < self.req.gets.len() {
            if let Some(quorum) = self.pushed_quorum(&self.req.gets[i].wait) {
                let g = self.req.gets.swap_remove(i);
                let pushed = |p: ProcessId| {
                    let (state, _) =
                        self.latest[p.index()].as_ref().expect("quorum members pushed");
                    (p, state.clone())
                };
                let states = quorum.iter().map(pushed).collect();
                events.push(QafEvent::GetDone { token: g.token, states });
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.req.sets.len() {
            if self.pushed_quorum(&self.req.sets[i].wait).is_some() {
                let s = self.req.sets.swap_remove(i);
                events.push(QafEvent::SetDone { token: s.token });
            } else {
                i += 1;
            }
        }
        events
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
        } else {
            self.req.on_timer(id, ctx);
        }
    }

    fn on_recover<R>(&mut self, ctx: &mut Context<Self::Msg, R>) {
        // The crash cancelled the periodic propagation; without re-arming
        // it a recovered process would never push state again and every
        // downstream read quorum through it would starve. Likewise for
        // the retry timer: pending stage-1 requests resume at once.
        self.push_state(ctx);
        ctx.set_timer(TICK_TIMER, self.tick_interval);
        self.req.resume(ctx);
    }

    fn start_get<R>(&mut self, token: u64, ctx: &mut Context<Self::Msg, R>) {
        // Lines 4-5: broadcast CLOCK_REQ.
        self.req.start_get(token, Stage::Clocks(BTreeMap::new()), ctx);
    }

    fn start_set<R>(&mut self, token: u64, update: U, ctx: &mut Context<Self::Msg, R>) {
        // Lines 16-17: broadcast SET_REQ(u).
        self.req.start_set(token, Stage::Clocks(BTreeMap::new()), update, ctx);
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
                return Vec::new();
            }
            GeneralizedMsg::ClockResp { seq, clock } => {
                // Lines 6-7: cut-off = max clock over a write quorum.
                if let Some(g) = self.req.gets.iter_mut().find(|g| g.seq == seq) {
                    g.wait.clock_reply(&self.writes, from, clock);
                }
            }
            GeneralizedMsg::GetResp { state, clock } => {
                // Cache the freshest push per sender; drain only if the
                // push carries the sender across a pending cut-off.
                let i = from.index();
                if i >= self.latest.len() {
                    self.latest.resize_with(i + 1, || None);
                }
                let old = self.latest[i].as_ref().map(|&(_, c)| c);
                if old.is_some_and(|old| old >= clock) {
                    return Vec::new();
                }
                self.latest[i] = Some((state, clock));
                if !self.crosses_cutoff(old, clock) {
                    return Vec::new();
                }
            }
            GeneralizedMsg::SetReq { seq, update } => {
                // Lines 21-24: apply, bump clock, ack with the new clock.
                // A retransmitted SET_REQ must not re-apply or re-bump; it
                // is re-acked with the clock recorded at first application,
                // so a lost SET_RESP costs nothing but a retry round.
                let clock = self.req.apply_once(from, seq, self.clock, || {
                    self.state = update.apply(&self.state);
                    self.clock += 1;
                    self.updates_applied += 1;
                    self.clock
                });
                ctx.send(from, GeneralizedMsg::SetResp { seq, clock });
                return Vec::new();
            }
            GeneralizedMsg::SetResp { seq, clock } => {
                // Lines 18-19: c_set = max acked clock over a write quorum.
                if let Some(s) = self.req.sets.iter_mut().find(|s| s.seq == seq) {
                    s.wait.clock_reply(&self.writes, from, clock);
                }
            }
        }
        self.drain_ready()
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
    use gqs_simnet::{Effect, SimTime, SplitMix64};

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
        let (state, clock) = e.latest[2].as_ref().unwrap();
        assert_eq!(*clock, 7);
        assert_eq!(*state.initial(), 9);
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
        let _ = e.on_message(ProcessId(0), Msg::SetResp { seq: 0, clock: 4 }, &mut c);
        let ev = e.on_message(ProcessId(1), Msg::SetResp { seq: 0, clock: 6 }, &mut c);
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
            matches!(acked[..], [Effect::Send { msg: Msg::SetResp { seq: 5, clock: 1 }, .. }]),
            "the re-ack carries the clock recorded at first application, got {acked:?}"
        );
    }

    /// A replica's memory of one requester is one record, whatever the
    /// number of sets it applied: a copy of the latest set is re-acked
    /// with its recorded clock, a copy of an older one with the current
    /// clock, and neither is applied again.
    #[test]
    fn a_replica_keeps_one_record_per_requester() {
        let mut e = engine();
        let mut c = ctx(1);
        // Applies or re-acks one set; returns the acked clock.
        let mut set = |e: &mut Engine, from: usize, seq: u64| {
            let update = VersionedWrite { reg: 0, value: seq, version: (seq + 1, from as u64) };
            let _ = e.on_message(ProcessId(from), Msg::SetReq { seq, update }, &mut c);
            match c.take_effects()[..] {
                [Effect::Send { msg: Msg::SetResp { clock, .. }, .. }] => clock,
                ref other => panic!("expected one SET_RESP, got {other:?}"),
            }
        };
        for seq in 0..100 {
            assert_eq!(set(&mut e, 0, seq), seq + 1);
        }
        assert_eq!(set(&mut e, 2, 0), 101, "another requester's set moves the clock");
        assert_eq!(set(&mut e, 0, 99), 100, "the latest set's copy gets its recorded clock");
        assert_eq!(set(&mut e, 0, 50), 101, "an older set's copy gets the current clock");
        assert_eq!(e.updates_applied(), 101, "no copy was applied twice");
        assert_eq!(e.req.applied.len(), 3);
        assert_eq!(e.req.applied[0].last, (99, 100));
        assert!(e.req.applied.iter().all(|a| a.seen.gaps() == 0));
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

    fn retry_timers_armed(c: &mut Context<Msg, ()>) -> usize {
        let effects = c.take_effects();
        effects.iter().filter(|e| matches!(e, Effect::SetTimer { id: RETRY_TIMER, .. })).count()
    }

    /// However many requests are open, one retry timer is armed, and each
    /// firing resends them all and re-arms exactly one.
    #[test]
    fn one_retry_timer_however_many_requests_are_open() {
        let mut e = engine().with_retry(50);
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
        e.start_set(4, VersionedWrite { reg: 0, value: 2, version: (2, 0) }, &mut c);
        assert_eq!(retry_timers_armed(&mut c), 0, "the armed timer covers a new request");
    }

    #[test]
    fn without_retry_the_timer_is_inert() {
        let mut e = engine();
        let mut c = ctx(0);
        e.start_get(42, &mut c);
        assert_eq!(c.effect_count(), 1, "no timer armed");
        let mut c = ctx(0);
        e.on_timer(RETRY_TIMER, &mut c);
        assert_eq!(c.effect_count(), 0);
    }

    #[test]
    #[should_panic(expected = "retry period must be positive")]
    fn zero_retry_interval_rejected() {
        let _ = engine().with_retry(0);
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

    /// What a completion says: the token, and a get's states.
    type Done = (u64, Option<Vec<(ProcessId, S)>>);

    fn done(events: Vec<QafEvent<S>>) -> Vec<Done> {
        let one = |ev| match ev {
            QafEvent::GetDone { token, states } => (token, Some(states)),
            QafEvent::SetDone { token } => (token, None),
        };
        events.into_iter().map(one).collect()
    }

    /// Figure 3's completion rule recomputed from scratch after every
    /// message: every pending stage is checked against the whole push
    /// cache, gets first, in the engine's swap-remove order.
    struct Oracle {
        reads: QuorumFamily,
        writes: QuorumFamily,
        cache: BTreeMap<ProcessId, (S, u64)>,
        /// Open `(seq, token, stage)`s.
        gets: Vec<(u64, u64, Stage)>,
        sets: Vec<(u64, u64, Stage)>,
    }

    impl Oracle {
        fn quorum_at(&self, stage: &Stage) -> Option<ProcessSet> {
            let Stage::Pushes(k) = *stage else { return None };
            let have = self.cache.iter().filter(|(_, (_, c))| *c >= k).map(|(p, _)| *p);
            self.reads.satisfying_quorum(have.collect())
        }

        fn on_message(&mut self, from: ProcessId, msg: &Msg) -> Vec<Done> {
            match *msg {
                Msg::ClockResp { seq, clock } => {
                    if let Some((_, _, stage)) = self.gets.iter_mut().find(|g| g.0 == seq) {
                        stage.clock_reply(&self.writes, from, clock);
                    }
                }
                Msg::SetResp { seq, clock } => {
                    if let Some((_, _, stage)) = self.sets.iter_mut().find(|s| s.0 == seq) {
                        stage.clock_reply(&self.writes, from, clock);
                    }
                }
                Msg::GetResp { ref state, clock } => {
                    if self.cache.get(&from).is_none_or(|(_, c)| *c < clock) {
                        self.cache.insert(from, (state.clone(), clock));
                    }
                }
                _ => unreachable!("the driver sends no requests"),
            }
            let mut out = Vec::new();
            let mut i = 0;
            while i < self.gets.len() {
                if let Some(q) = self.quorum_at(&self.gets[i].2) {
                    let states = q.iter().map(|p| (p, self.cache[&p].0.clone())).collect();
                    out.push((self.gets.swap_remove(i).1, Some(states)));
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < self.sets.len() {
                if self.quorum_at(&self.sets[i].2).is_some() {
                    out.push((self.sets.swap_remove(i).1, None));
                } else {
                    i += 1;
                }
            }
            out
        }
    }

    /// A random explicit or threshold family over `n` processes.
    fn random_family(n: usize, rng: &mut SplitMix64) -> QuorumFamily {
        if rng.chance(0.3) {
            return QuorumFamily::threshold(n, rng.range(1, n as u64) as usize).unwrap();
        }
        let quorums = (0..rng.range(1, 3)).map(|_| {
            let mut q: ProcessSet = (0..n).filter(|_| rng.chance(0.5)).collect();
            q.insert(ProcessId(rng.range(0, n as u64 - 1) as usize));
            q
        });
        QuorumFamily::explicit(quorums.collect::<Vec<_>>()).unwrap()
    }

    /// The drain-skip rule is exact: through random interleavings of
    /// `CLOCK_RESP`s, `SET_RESP`s and stale or fresh `GET_RESP`s with
    /// several gets and sets open, the engine returns after every message
    /// the completions the from-scratch [`Oracle`] computes — same tokens,
    /// same order, same states.
    #[test]
    fn skipped_drains_lose_no_completion() {
        let n = 5;
        let mut rng = SplitMix64::new(0x5eed_d7a1);
        let (mut by_push, mut by_reply) = (0, 0);
        for case in 0..300 {
            let (reads, writes) = (random_family(n, &mut rng), random_family(n, &mut rng));
            let mut e = GeneralizedQaf::new(reads.clone(), writes.clone(), RegMap::new(0), 10);
            let mut o =
                Oracle { reads, writes, cache: BTreeMap::new(), gets: vec![], sets: vec![] };
            let mut c: Context<Msg, ()> = Context::new(ProcessId(0), n, SimTime::ZERO);
            for token in 0..200u64 {
                let top = o.cache.values().map(|(_, c)| *c).max().unwrap_or(0);
                let from = ProcessId(rng.range(0, n as u64 - 1) as usize);
                let open = o.gets.len() + o.sets.len();
                let msg = match rng.range(0, 9) {
                    0 | 1 if open < 6 => {
                        if rng.chance(0.5) {
                            e.start_get(token, &mut c);
                        } else {
                            let u = VersionedWrite { reg: 0, value: token, version: (token, 0) };
                            e.start_set(token, u, &mut c);
                        }
                        match c.take_effects()[..] {
                            [Effect::Broadcast { msg: Msg::ClockReq { seq } }] => {
                                o.gets.push((seq, token, Stage::Clocks(BTreeMap::new())))
                            }
                            [Effect::Broadcast { msg: Msg::SetReq { seq, .. } }] => {
                                o.sets.push((seq, token, Stage::Clocks(BTreeMap::new())))
                            }
                            ref other => panic!("expected one request broadcast, got {other:?}"),
                        }
                        continue;
                    }
                    0..=3 => {
                        let seq = o.gets.get(rng.range(0, 3) as usize).map_or(99, |g| g.0);
                        Msg::ClockResp { seq, clock: rng.range(0, top + 4) }
                    }
                    4..=5 => {
                        let seq = o.sets.get(rng.range(0, 3) as usize).map_or(99, |s| s.0);
                        Msg::SetResp { seq, clock: rng.range(0, top + 4) }
                    }
                    _ => {
                        let old = o.cache.get(&from).map(|(_, c)| *c);
                        let clock = match old {
                            Some(old) if rng.chance(0.3) => rng.range(0, old),
                            _ => old.unwrap_or(0) + rng.range(1, 3),
                        };
                        let marker = clock * n as u64 + from.index() as u64;
                        Msg::GetResp { state: RegMap::new(marker), clock }
                    }
                };
                let push = matches!(msg, Msg::GetResp { .. });
                let want = o.on_message(from, &msg);
                let got = done(e.on_message(from, msg, &mut c));
                assert_eq!(got, want, "case {case}, message {token} from {from:?}");
                assert_eq!(e.pending(), o.gets.len() + o.sets.len());
                if push {
                    by_push += want.len();
                } else {
                    by_reply += want.len();
                }
            }
        }
        assert!(
            by_push > 500 && by_reply > 500,
            "completions: {by_push} by push, {by_reply} by reply"
        );
    }
}

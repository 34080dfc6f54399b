//! What the engines of Figures 2 and 3 share: how a process numbers, keeps
//! and retransmits its own requests, and how a replica applies each
//! `SET_REQ` it receives exactly once.
//!
//! Gets count from 1 and sets from 0, apart from each other, so each
//! requester's `SET_REQ` seqs are dense and a replica remembers the ones
//! it applied in one [`Seen`] record per requester: O(1) per request and
//! no memory beyond the requests that never reached it.
//!
//! Under `with_retry`, one [`RETRY_TIMER`] is armed while some request
//! still awaits replies to its broadcast. Each firing, and each recovery,
//! rebroadcasts those requests, accounts the copies via
//! [`Context::note_retransmit`], and re-arms.

use gqs_core::ProcessId;
use gqs_simnet::{Context, Seen, TimerId};

/// Timer id used by the retrying engines ([`crate::ClassicalQaf::with_retry`],
/// [`crate::GeneralizedQaf::with_retry`]) for request retransmission.
/// Distinct from [`crate::TICK_TIMER`] and the consensus synchronizer's
/// timer.
pub const RETRY_TIMER: TimerId = TimerId(2);

/// The two request messages an engine broadcasts, and rebroadcasts.
pub(crate) trait Request<U> {
    /// The get's request: `GET_REQ` (Figure 2) or `CLOCK_REQ` (Figure 3).
    fn get_req(seq: u64) -> Self;
    /// `SET_REQ(seq, u)`.
    fn set_req(seq: u64, update: U) -> Self;
}

/// What an open request is waiting for.
pub(crate) trait Wait {
    /// Whether the request still awaits replies to its broadcast, and so
    /// is rebroadcast under retries.
    fn awaits_replies(&self) -> bool {
        true
    }
}

/// One request this process started and has not completed.
#[derive(Clone, Debug)]
pub(crate) struct Open<W, U = ()> {
    pub(crate) seq: u64,
    pub(crate) token: u64,
    pub(crate) wait: W,
    /// A set's update, kept for retransmission.
    pub(crate) update: U,
}

/// A replica's memory of one requester's `SET_REQ`s.
#[derive(Clone, Debug, Default)]
pub(crate) struct Applied {
    /// The seqs applied here.
    pub(crate) seen: Seen,
    /// `(seq, stamp)` of the latest one applied: the stamp its first ack
    /// carried, which a retransmitted copy is re-acked with.
    pub(crate) last: (u64, u64),
}

/// One engine's requests: open gets waiting on `G`, open sets waiting on
/// `W`, the retry timer, and the replica-side `SET_REQ` record.
#[derive(Clone, Debug)]
pub(crate) struct Requests<G, W, U> {
    /// Seq of the last get started here.
    last_get: u64,
    /// Seq of the next set started here.
    next_set: u64,
    pub(crate) gets: Vec<Open<G>>,
    pub(crate) sets: Vec<Open<W, U>>,
    /// Period of the retransmission, if enabled.
    retry: Option<u64>,
    /// Whether a [`RETRY_TIMER`] is armed (timers are one-shot and cannot
    /// be cancelled, so arming is tracked to avoid storms).
    armed: bool,
    /// What this replica remembers of each requester's `SET_REQ`s,
    /// indexed by pid.
    pub(crate) applied: Vec<Applied>,
}

impl<G: Wait, W: Wait, U: Clone> Requests<G, W, U> {
    pub(crate) fn new() -> Self {
        Requests {
            last_get: 0,
            next_set: 0,
            gets: Vec::new(),
            sets: Vec::new(),
            retry: None,
            armed: false,
            applied: Vec::new(),
        }
    }

    pub(crate) fn retry_every(&mut self, interval: u64) {
        assert!(interval > 0, "the retry period must be positive");
        self.retry = Some(interval);
    }

    pub(crate) fn pending(&self) -> usize {
        self.gets.len() + self.sets.len()
    }

    pub(crate) fn start_get<M: Request<U>, R>(
        &mut self,
        token: u64,
        wait: G,
        ctx: &mut Context<M, R>,
    ) {
        self.last_get += 1;
        self.gets.push(Open { seq: self.last_get, token, wait, update: () });
        ctx.broadcast(M::get_req(self.last_get));
        self.arm(ctx);
    }

    pub(crate) fn start_set<M: Request<U>, R>(
        &mut self,
        token: u64,
        wait: W,
        update: U,
        ctx: &mut Context<M, R>,
    ) {
        let seq = self.next_set;
        self.next_set += 1;
        self.sets.push(Open { seq, token, wait, update: update.clone() });
        ctx.broadcast(M::set_req(seq, update));
        self.arm(ctx);
    }

    /// Handles the engine's timer `id` if it is the [`RETRY_TIMER`].
    pub(crate) fn on_timer<M: Request<U>, R>(&mut self, id: TimerId, ctx: &mut Context<M, R>) {
        if id == RETRY_TIMER {
            self.resume(ctx);
        }
    }

    /// Under retries, rebroadcasts every request still awaiting replies
    /// and re-arms: on a firing, and on recovery (the crash cancelled the
    /// armed timer).
    pub(crate) fn resume<M: Request<U>, R>(&mut self, ctx: &mut Context<M, R>) {
        if self.retry.is_none() {
            return;
        }
        self.armed = false;
        let copies = ctx.n() as u64;
        for g in self.gets.iter().filter(|g| g.wait.awaits_replies()) {
            ctx.broadcast(M::get_req(g.seq));
            ctx.note_retransmit(copies);
        }
        for s in self.sets.iter().filter(|s| s.wait.awaits_replies()) {
            ctx.broadcast(M::set_req(s.seq, s.update.clone()));
            ctx.note_retransmit(copies);
        }
        self.arm(ctx);
    }

    /// Arms the retry timer if retries are enabled, none is armed and some
    /// request awaits replies.
    fn arm<M, R>(&mut self, ctx: &mut Context<M, R>) {
        let Some(interval) = self.retry else { return };
        if !self.armed
            && (self.gets.iter().any(|g| g.wait.awaits_replies())
                || self.sets.iter().any(|s| s.wait.awaits_replies()))
        {
            ctx.set_timer(RETRY_TIMER, interval);
            self.armed = true;
        }
    }

    /// Applies `SET_REQ(seq)` from `from` at most once, and returns the
    /// stamp to ack it with: `apply` applies the update and returns its
    /// stamp. A copy of the requester's latest set is re-acked with the
    /// stamp of its first application, a copy of an older one with `now`.
    pub(crate) fn apply_once(
        &mut self,
        from: ProcessId,
        seq: u64,
        now: u64,
        apply: impl FnOnce() -> u64,
    ) -> u64 {
        let requester = from.index();
        if requester >= self.applied.len() {
            self.applied.resize_with(requester + 1, Applied::default);
        }
        let applied = &mut self.applied[requester];
        if applied.seen.insert(seq) {
            applied.last = (seq, apply());
            applied.last.1
        } else if applied.last.0 == seq {
            applied.last.1
        } else {
            now
        }
    }
}

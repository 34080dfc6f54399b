//! The consensus protocol of Figure 6 (§7), plus a pull-based Paxos
//! baseline for the separation experiments.
//!
//! The protocol is Paxos-shaped but with two twists the paper highlights:
//!
//! * **No 1A message.** Leader election is controlled entirely by the
//!   view synchronizer; every process *pushes* a `1B` to the new leader
//!   when it enters a view. This is what lets the leader collect a read
//!   quorum even when some of its members can never *receive* anything.
//! * **Quorums from a generalized quorum system.** `1B`s are collected
//!   from a read quorum; `2B`s from a write quorum; Consistency of the
//!   GQS gives Agreement exactly as quorum intersection does in Paxos.
//!
//! [`ProposalMode::Pull`] restores the classical 1A prepare round: the
//! leader must *ask* for `1B`s. Under Figure 1's pattern `f1` the isolated
//! process `c` can send but never receive, so pull-Paxos cannot assemble
//! the read quorum `{a, c}` and stalls — while the push protocol decides.
//! This is experiment E12's consensus separation.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gqs_core::{ProcessId, ProcessSet, QuorumFamily};
use gqs_simnet::{Context, OpId, Protocol, SimTime, TimerId};

use crate::synchronizer::{leader_of, ViewSynchronizer};

/// Whether `1B`s are pushed on view entry (Figure 6) or pulled by a 1A
/// prepare round (classical Paxos, the baseline).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ProposalMode {
    /// Figure 6: processes push `1B` to the new leader unprompted.
    Push,
    /// Baseline: the leader broadcasts `1A` and waits for responses.
    Pull,
}

/// Wire messages.
#[derive(Clone, Debug)]
pub enum ConsensusMsg<V> {
    /// Prepare request (pull mode only).
    OneA {
        /// The leader's view.
        view: u64,
    },
    /// `1B(view, aview, val)`: the sender's last accepted value and the
    /// view it was accepted in.
    OneB {
        /// The view this 1B belongs to.
        view: u64,
        /// View in which `val` was accepted (0 = never).
        aview: u64,
        /// Last accepted value, if any.
        val: Option<V>,
    },
    /// `2A(view, x)`: the leader's proposal.
    TwoA {
        /// The leader's view.
        view: u64,
        /// The proposed value.
        val: V,
    },
    /// `2B(view, x)`: an acceptance, sent to all.
    TwoB {
        /// The view of the acceptance.
        view: u64,
        /// The accepted value.
        val: V,
    },
    /// `DECIDED(x, view)`: a decided process re-broadcasts its decision on
    /// every view entry (i.e. on each synchronizer timeout). Processes cut
    /// off from the deciding quorum — by an outage or message loss — adopt
    /// it after the heal without any client retry; safe by "once chosen,
    /// always chosen". Adopters re-broadcast too, so the decision also
    /// spreads hop-by-hop through partially healed topologies.
    Decided {
        /// The decided value.
        val: V,
        /// The view in which it was decided (propagated verbatim).
        view: u64,
    },
}

/// Protocol phases within a view (Figure 6's `phase` variable).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Just entered the view; leader is collecting `1B`s.
    Enter,
    /// The leader has proposed.
    Propose,
    /// This process has accepted the proposal.
    Accept,
    /// A decision is known.
    Decide,
}

/// The consensus protocol at one process.
#[derive(Clone, Debug)]
pub struct ConsensusNode<V> {
    me: ProcessId,
    n: usize,
    reads: QuorumFamily,
    writes: QuorumFamily,
    mode: ProposalMode,
    sync: ViewSynchronizer,
    phase: Phase,
    my_val: Option<V>,
    val: Option<V>,
    aview: u64,
    /// Buffered `1B`s per view (messages may arrive before we enter the
    /// view; views are only loosely synchronized).
    onebs: BTreeMap<u64, BTreeMap<usize, (u64, Option<V>)>>,
    /// Buffered `2A` per view.
    twoas: BTreeMap<u64, V>,
    /// Buffered `2B`s per view.
    twobs: BTreeMap<u64, BTreeMap<usize, V>>,
    /// In pull mode: views whose `1A` we have seen.
    oneas: Vec<u64>,
    decided: Option<(V, u64, SimTime)>,
    waiting: Vec<OpId>,
}

impl<V: Clone + Debug + PartialEq> ConsensusNode<V> {
    /// Creates the node for process `me` of `n` with the given quorum
    /// families, view duration constant `C` and proposal mode.
    pub fn new(
        me: ProcessId,
        n: usize,
        reads: QuorumFamily,
        writes: QuorumFamily,
        c: u64,
        mode: ProposalMode,
    ) -> Self {
        ConsensusNode {
            me,
            n,
            reads,
            writes,
            mode,
            sync: ViewSynchronizer::new(c),
            phase: Phase::Enter,
            my_val: None,
            val: None,
            aview: 0,
            onebs: BTreeMap::new(),
            twoas: BTreeMap::new(),
            twobs: BTreeMap::new(),
            oneas: Vec::new(),
            decided: None,
            waiting: Vec::new(),
        }
    }

    /// The decided value, with the deciding view and time, if any.
    pub fn decision(&self) -> Option<&(V, u64, SimTime)> {
        self.decided.as_ref()
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.sync.view()
    }

    /// The synchronizer's view-entry log (Proposition 2 data).
    pub fn view_entries(&self) -> &[(u64, SimTime)] {
        self.sync.entries()
    }

    fn enter_view(&mut self, view: u64, ctx: &mut Context<ConsensusMsg<V>, V>) {
        // A decided process no longer runs the view protocol: it repeats
        // its decision instead, healing any process the deciding quorum's
        // 2Bs never reached (dropped by an outage or the loss model).
        if let Some((val, dview, _)) = &self.decided {
            ctx.broadcast(ConsensusMsg::Decided { val: val.clone(), view: *dview });
            return;
        }
        ctx.trace_instant("view_enter", view);
        self.phase = Phase::Enter;
        // Prune buffers of strictly older views.
        self.onebs = self.onebs.split_off(&view);
        self.twoas = self.twoas.split_off(&view);
        self.twobs = self.twobs.split_off(&view);
        match self.mode {
            ProposalMode::Push => {
                // Line 30: push 1B to the new leader, unprompted.
                ctx.send(
                    leader_of(view, self.n),
                    ConsensusMsg::OneB { view, aview: self.aview, val: self.val.clone() },
                );
            }
            ProposalMode::Pull => {
                // Baseline: the leader must ask first.
                if leader_of(view, self.n) == self.me {
                    ctx.broadcast(ConsensusMsg::OneA { view });
                }
                // Respond now if the 1A already arrived.
                if self.oneas.contains(&view) {
                    ctx.send(
                        leader_of(view, self.n),
                        ConsensusMsg::OneB { view, aview: self.aview, val: self.val.clone() },
                    );
                }
            }
        }
        // Buffered messages may already complete this view's steps.
        self.try_leader_propose(view, ctx);
        self.try_accept(view, ctx);
        self.try_decide(view, ctx);
    }

    /// Lines 8–16: the leader assembles a read quorum of `1B`s and
    /// proposes.
    fn try_leader_propose(&mut self, view: u64, ctx: &mut Context<ConsensusMsg<V>, V>) {
        if self.sync.view() != view
            || self.phase != Phase::Enter
            || leader_of(view, self.n) != self.me
        {
            return;
        }
        let Some(entries) = self.onebs.get(&view) else { return };
        let have: ProcessSet = entries.keys().map(|i| ProcessId(*i)).collect();
        let Some(quorum) = self.reads.satisfying_quorum(have) else { return };
        // Pick the value accepted in the maximal view among the quorum.
        let best = quorum
            .iter()
            .filter_map(|p| {
                let (aview, val) = &entries[&p.index()];
                val.as_ref().map(|v| (*aview, v.clone()))
            })
            .max_by_key(|(aview, _)| *aview);
        let proposal = match best {
            Some((_, v)) => v,
            None => match &self.my_val {
                Some(v) => v.clone(),
                None => return, // line 11: nothing to propose; skip the turn
            },
        };
        ctx.broadcast(ConsensusMsg::TwoA { view, val: proposal });
        self.phase = Phase::Propose;
    }

    /// Lines 17–22: accept the leader's proposal.
    fn try_accept(&mut self, view: u64, ctx: &mut Context<ConsensusMsg<V>, V>) {
        if self.sync.view() != view || !matches!(self.phase, Phase::Enter | Phase::Propose) {
            return;
        }
        let Some(x) = self.twoas.get(&view) else { return };
        let x = x.clone();
        self.val = Some(x.clone());
        self.aview = view;
        ctx.broadcast(ConsensusMsg::TwoB { view, val: x });
        self.phase = Phase::Accept;
    }

    /// Lines 23–26: decide on a write quorum of `2B`s.
    fn try_decide(&mut self, view: u64, ctx: &mut Context<ConsensusMsg<V>, V>) {
        if self.sync.view() != view || self.decided.is_some() {
            return;
        }
        let Some(acks) = self.twobs.get(&view) else { return };
        let have: ProcessSet = acks.keys().map(|i| ProcessId(*i)).collect();
        if self.writes.is_satisfied(have) {
            let x = acks.values().next().expect("quorums are nonempty").clone();
            self.val = Some(x.clone());
            self.aview = view;
            self.phase = Phase::Decide;
            self.decided = Some((x.clone(), view, ctx.now()));
            ctx.trace_instant("decide", view);
            for op in self.waiting.drain(..) {
                ctx.complete(op, x.clone());
            }
        }
    }
}

impl<V: Clone + Debug + PartialEq> Protocol for ConsensusNode<V> {
    type Msg = ConsensusMsg<V>;
    type Op = V; // propose(x)
    type Resp = V; // the decision

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let view = self.sync.advance(ctx);
        self.enter_view(view, ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        if let Some(view) = self.sync.on_timer(id, ctx) {
            self.enter_view(view, ctx);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        match msg {
            ConsensusMsg::OneA { view } => {
                if self.mode == ProposalMode::Pull && view >= self.sync.view() {
                    self.oneas.push(view);
                    if view == self.sync.view() {
                        ctx.send(
                            leader_of(view, self.n),
                            ConsensusMsg::OneB { view, aview: self.aview, val: self.val.clone() },
                        );
                    }
                }
            }
            ConsensusMsg::OneB { view, aview, val } => {
                if view >= self.sync.view() {
                    self.onebs.entry(view).or_default().insert(from.index(), (aview, val));
                    self.try_leader_propose(view, ctx);
                }
            }
            ConsensusMsg::TwoA { view, val } => {
                if view >= self.sync.view() {
                    self.twoas.entry(view).or_insert(val);
                    self.try_accept(view, ctx);
                }
            }
            ConsensusMsg::TwoB { view, val } => {
                if view >= self.sync.view() {
                    self.twobs.entry(view).or_default().insert(from.index(), val);
                    self.try_decide(view, ctx);
                }
            }
            ConsensusMsg::Decided { val, view } => {
                // Adopt a relayed decision regardless of our own view:
                // "once chosen, always chosen" makes it final everywhere.
                if self.decided.is_none() {
                    self.val = Some(val.clone());
                    self.aview = view;
                    self.phase = Phase::Decide;
                    self.decided = Some((val.clone(), view, ctx.now()));
                    ctx.trace_instant("decide", view);
                    for op in self.waiting.drain(..) {
                        ctx.complete(op, val.clone());
                    }
                }
            }
        }
    }

    fn on_invoke(&mut self, op: OpId, x: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        if self.my_val.is_none() {
            self.my_val = Some(x);
        }
        match &self.decided {
            Some((v, _, _)) => ctx.complete(op, v.clone()),
            None => self.waiting.push(op),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        // The crash cancelled the view timer, so the synchronizer would
        // stay frozen in its pre-crash view forever. Rejoin by advancing
        // to the next view — re-arming the timer and re-entering the
        // protocol (pushing a fresh 1B in push mode). Views only grow, so
        // Proposition 2's eventual-overlap argument still applies and a
        // recovered process catches up with the decided value.
        let view = self.sync.advance(ctx);
        self.enter_view(view, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqs_core::pset;

    fn node(me: usize, mode: ProposalMode) -> ConsensusNode<u64> {
        let reads = QuorumFamily::explicit([pset![0, 1, 2]]).unwrap();
        let writes = QuorumFamily::explicit([pset![0, 1]]).unwrap();
        ConsensusNode::new(ProcessId(me), 3, reads, writes, 100, mode)
    }

    fn ctx(me: usize) -> Context<ConsensusMsg<u64>, u64> {
        Context::new(ProcessId(me), 3, SimTime(0))
    }

    #[test]
    fn startup_enters_view_one_and_pushes_1b() {
        let mut n = node(1, ProposalMode::Push);
        let mut c = ctx(1);
        n.on_start(&mut c);
        assert_eq!(n.view(), 1);
        let effects = c.take_effects();
        // One timer + one 1B to leader(1) = process 0.
        assert!(effects.iter().any(|e| matches!(
            e,
            gqs_simnet::Effect::Send { to: ProcessId(0), msg: ConsensusMsg::OneB { view: 1, .. } }
        )));
    }

    #[test]
    fn pull_mode_waits_for_1a() {
        let mut n = node(1, ProposalMode::Pull);
        let mut c = ctx(1);
        n.on_start(&mut c);
        let effects = c.take_effects();
        assert!(
            !effects.iter().any(|e| matches!(e, gqs_simnet::Effect::Send { .. })),
            "no 1B before a 1A in pull mode"
        );
        n.on_message(ProcessId(0), ConsensusMsg::OneA { view: 1 }, &mut c);
        let effects = c.take_effects();
        assert!(effects.iter().any(|e| matches!(
            e,
            gqs_simnet::Effect::Send { msg: ConsensusMsg::OneB { view: 1, .. }, .. }
        )));
    }

    #[test]
    fn leader_proposes_after_read_quorum_of_1bs() {
        let mut n = node(0, ProposalMode::Push);
        let mut c = ctx(0);
        n.on_start(&mut c);
        let _ = c.take_effects();
        let mut inv = ctx(0);
        n.on_invoke(OpId(1), 42, &mut inv);
        for p in 0..3 {
            n.on_message(ProcessId(p), ConsensusMsg::OneB { view: 1, aview: 0, val: None }, &mut c);
        }
        let effects = c.take_effects();
        assert!(effects.iter().any(|e| matches!(
            e,
            gqs_simnet::Effect::Broadcast { msg: ConsensusMsg::TwoA { view: 1, val: 42 } }
        )));
    }

    #[test]
    fn leader_skips_without_a_value() {
        let mut n = node(0, ProposalMode::Push);
        let mut c = ctx(0);
        n.on_start(&mut c);
        let _ = c.take_effects();
        for p in 0..3 {
            n.on_message(ProcessId(p), ConsensusMsg::OneB { view: 1, aview: 0, val: None }, &mut c);
        }
        assert!(
            !c.take_effects().iter().any(|e| matches!(
                e,
                gqs_simnet::Effect::Broadcast { msg: ConsensusMsg::TwoA { .. } }
            )),
            "line 11: a leader with no value skips its turn"
        );
    }

    #[test]
    fn leader_adopts_value_from_max_aview() {
        let mut n = node(0, ProposalMode::Push);
        let mut c = ctx(0);
        n.on_start(&mut c);
        let _ = c.take_effects();
        let mut inv = ctx(0);
        n.on_invoke(OpId(1), 42, &mut inv);
        // aview 0 wait: views start at 1; pretend past acceptances in
        // earlier... use small aviews relative to view 1 (still legal in
        // the buffered map).
        n.on_message(ProcessId(0), ConsensusMsg::OneB { view: 1, aview: 0, val: None }, &mut c);
        n.on_message(ProcessId(1), ConsensusMsg::OneB { view: 1, aview: 1, val: Some(7) }, &mut c);
        n.on_message(ProcessId(2), ConsensusMsg::OneB { view: 1, aview: 2, val: Some(9) }, &mut c);
        let effects = c.take_effects();
        assert!(effects.iter().any(|e| matches!(
            e,
            gqs_simnet::Effect::Broadcast { msg: ConsensusMsg::TwoA { view: 1, val: 9 } }
        )));
    }

    #[test]
    fn accept_and_decide_on_write_quorum() {
        let mut n = node(2, ProposalMode::Push);
        let mut c = ctx(2);
        n.on_start(&mut c);
        let _ = c.take_effects();
        n.on_message(ProcessId(0), ConsensusMsg::TwoA { view: 1, val: 5 }, &mut c);
        let effects = c.take_effects();
        assert!(effects.iter().any(|e| matches!(
            e,
            gqs_simnet::Effect::Broadcast { msg: ConsensusMsg::TwoB { view: 1, val: 5 } }
        )));
        n.on_message(ProcessId(0), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        assert!(n.decision().is_none());
        n.on_message(ProcessId(1), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        let (v, view, _) = n.decision().expect("decided");
        assert_eq!((*v, *view), (5, 1));
    }

    #[test]
    fn propose_after_decision_completes_immediately() {
        let mut n = node(2, ProposalMode::Push);
        let mut c = ctx(2);
        n.on_start(&mut c);
        n.on_message(ProcessId(0), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        n.on_message(ProcessId(1), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        let _ = c.take_effects();
        n.on_invoke(OpId(9), 777, &mut c);
        let effects = c.take_effects();
        assert!(effects
            .iter()
            .any(|e| matches!(e, gqs_simnet::Effect::Complete { op: OpId(9), resp: 5 })));
    }

    #[test]
    fn decided_process_rebroadcasts_its_decision_on_view_entry() {
        let mut n = node(2, ProposalMode::Push);
        let mut c = ctx(2);
        n.on_start(&mut c);
        n.on_message(ProcessId(0), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        n.on_message(ProcessId(1), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        assert!(n.decision().is_some());
        let _ = c.take_effects();
        // The next synchronizer timeout repeats the decision to all.
        n.on_timer(crate::synchronizer::VIEW_TIMER, &mut c);
        let decided_broadcasts = c
            .take_effects()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    gqs_simnet::Effect::Broadcast {
                        msg: ConsensusMsg::Decided { val: 5, view: 1 }
                    }
                )
            })
            .count();
        assert_eq!(decided_broadcasts, 1, "the decision is repeated to every process");
    }

    #[test]
    fn received_decision_is_adopted_and_completes_waiting_ops() {
        let mut n = node(1, ProposalMode::Push);
        let mut c = ctx(1);
        n.on_start(&mut c);
        n.on_invoke(OpId(4), 99, &mut c);
        assert!(n.decision().is_none());
        let _ = c.take_effects();
        n.on_message(ProcessId(2), ConsensusMsg::Decided { val: 5, view: 1 }, &mut c);
        let (v, view, _) = n.decision().expect("adopted");
        assert_eq!((*v, *view), (5, 1));
        assert!(c
            .take_effects()
            .iter()
            .any(|e| matches!(e, gqs_simnet::Effect::Complete { op: OpId(4), resp: 5 })));
        // A second copy is ignored (decisions are final).
        n.on_message(ProcessId(0), ConsensusMsg::Decided { val: 5, view: 1 }, &mut c);
        assert_eq!(n.decision().map(|(v, _, _)| *v), Some(5));
    }

    #[test]
    fn stale_view_messages_are_ignored() {
        let mut n = node(0, ProposalMode::Push);
        let mut c = ctx(0);
        n.on_start(&mut c);
        // Force view 2 by timer.
        n.on_timer(crate::synchronizer::VIEW_TIMER, &mut c);
        assert_eq!(n.view(), 2);
        let _ = c.take_effects();
        n.on_message(ProcessId(1), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        n.on_message(ProcessId(2), ConsensusMsg::TwoB { view: 1, val: 5 }, &mut c);
        assert!(n.decision().is_none(), "view-1 2Bs must not decide in view 2");
    }

    #[test]
    fn future_view_messages_are_buffered() {
        let mut n = node(1, ProposalMode::Push); // leader of view 2
        let mut c = ctx(1);
        n.on_start(&mut c);
        let mut inv = ctx(1);
        n.on_invoke(OpId(1), 8, &mut inv);
        // 1Bs for view 2 arrive while still in view 1.
        for p in 0..3 {
            n.on_message(ProcessId(p), ConsensusMsg::OneB { view: 2, aview: 0, val: None }, &mut c);
        }
        let _ = c.take_effects();
        // Entering view 2 must immediately propose from the buffer.
        n.on_timer(crate::synchronizer::VIEW_TIMER, &mut c);
        let effects = c.take_effects();
        assert!(effects.iter().any(|e| matches!(
            e,
            gqs_simnet::Effect::Broadcast { msg: ConsensusMsg::TwoA { view: 2, val: 8 } }
        )));
    }
}

//! Flooding middleware: transitive connectivity by forwarding.
//!
//! The paper assumes WLOG that the connectivity relation of `G \ f` is
//! transitive: "if not, transitivity can be easily simulated by having all
//! processes forward every received message" (§5). [`Flood`] is exactly
//! that construction: it wraps any [`Protocol`], envelopes each logical
//! message with a unique id, and has every process re-broadcast each
//! first-seen envelope to all. A message from `p` to `q` is then delivered
//! whenever a directed path of correct channels from `p` to `q` exists.
//! Every handler of the wrapped protocol runs through the one layering
//! seam, [`Context::nested`]; `Flood` floods the sends that come back and
//! passes everything else through.
//!
//! The cost is exact: one envelope is `n` sends from its origin plus
//! `n − 1` relays from each of the `n` first-time receivers, i.e.
//! `n + n(n − 1) = n²` deliveries on a healthy complete graph, `n` of
//! them (1 direct + `n − 1` relayed) at each process. A point-to-point
//! send is one envelope (`dest: Some(q)`), and so is a logical broadcast
//! (`dest: None`): the paper's `send … to all` costs `n²`, not `n³`. The
//! experiment tables report the resulting messages per operation.

use std::collections::BTreeSet;

use gqs_core::ProcessId;

use crate::protocol::{Context, Effect, OpId, Protocol, TimerId};

/// The envelope carried by the flooding layer.
#[derive(Clone, Debug)]
pub struct FloodMsg<M> {
    /// The process that originated the logical message.
    pub origin: ProcessId,
    /// Origin-local sequence number; `(origin, seq)` is globally unique.
    pub seq: u64,
    /// The logical destination: `Some(q)` for an [`Effect::Send`] to `q`,
    /// `None` for an [`Effect::Broadcast`] — every first-time receiver,
    /// the origin included, hands the payload to its inner protocol.
    pub dest: Option<ProcessId>,
    /// The wrapped protocol message.
    pub payload: M,
}

/// Wraps a protocol so that logical messages travel along directed *paths*
/// of correct channels rather than single channels.
///
/// # Examples
///
/// ```
/// use gqs_simnet::{Flood, SimConfig, Simulation};
/// # use gqs_simnet::{Context, OpId, Protocol, TimerId};
/// # use gqs_core::ProcessId;
/// # #[derive(Clone, Default, Debug)] struct P;
/// # impl Protocol for P {
/// #     type Msg = u8; type Op = (); type Resp = ();
/// #     fn on_start(&mut self, _: &mut Context<u8, ()>) {}
/// #     fn on_message(&mut self, _: ProcessId, _: u8, _: &mut Context<u8, ()>) {}
/// #     fn on_timer(&mut self, _: TimerId, _: &mut Context<u8, ()>) {}
/// #     fn on_invoke(&mut self, op: OpId, _: (), ctx: &mut Context<u8, ()>) { ctx.complete(op, ()) }
/// # }
/// let nodes: Vec<Flood<P>> = (0..3).map(|_| Flood::new(P)).collect();
/// let sim = Simulation::new(SimConfig::default(), nodes);
/// ```
#[derive(Clone, Debug)]
pub struct Flood<P: Protocol> {
    inner: P,
    next_seq: u64,
    /// Envelopes already relayed, one record per origin indexed by
    /// `origin.index()`. It grows on first sight of an origin, because
    /// `new` does not know `n`.
    seen: Vec<Seen>,
    relayed: u64,
}

/// The envelopes of one origin that a process has relayed. An origin
/// numbers its envelopes densely from 0, so every seq below `next` has
/// arrived except the ones in `missing`. An in-order arrival costs O(1),
/// and memory is one record per origin plus the envelopes that have not
/// reached this process: a permanent cut leaves its gaps behind, but
/// later traffic does not add to them.
///
/// `missing` is a `BTreeSet` rather than a hash set so the state has one
/// canonical representation: checkpoint oracles compare node state
/// byte-for-byte via `Debug`, and per-instance hasher seeds would make
/// identical sets format differently.
#[derive(Clone, Debug, Default)]
struct Seen {
    next: u64,
    missing: BTreeSet<u64>,
}

impl Seen {
    /// Records `seq`; true on its first arrival, exactly as
    /// `BTreeSet::insert` would answer for the set of every seq so far.
    fn insert(&mut self, seq: u64) -> bool {
        if seq >= self.next {
            self.missing.extend(self.next..seq);
            self.next = seq + 1;
            true
        } else {
            self.missing.remove(&seq)
        }
    }
}

impl<P: Protocol> Flood<P> {
    /// Wraps `inner` in a flooding layer.
    pub fn new(inner: P) -> Self {
        Flood { inner, next_seq: 0, seen: Vec::new(), relayed: 0 }
    }

    /// The wrapped protocol (for assertions on its state).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped protocol.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Number of envelopes this process has relayed (forwarding cost).
    pub fn relayed(&self) -> u64 {
        self.relayed
    }

    /// The dedup state: one record per origin seen so far.
    #[cfg(test)]
    fn dedup_footprint(&self) -> &[Seen] {
        &self.seen
    }

    /// Runs one handler of the wrapped protocol through
    /// [`Context::nested`] and floods what it emitted: each logical send
    /// and each logical broadcast becomes one flooded envelope; timers and
    /// completions pass through.
    fn run_inner(
        &mut self,
        ctx: &mut Context<FloodMsg<P::Msg>, P::Resp>,
        handler: impl FnOnce(&mut P, &mut Context<P::Msg, P::Resp>),
    ) {
        for eff in ctx.nested(|inner| handler(&mut self.inner, inner)) {
            match eff {
                Effect::Send { to, msg } => self.flood(Some(to), msg, ctx),
                Effect::Broadcast { msg } => self.flood(None, msg, ctx),
                Effect::SetTimer { id, after } => ctx.set_timer(id, after),
                Effect::Complete { op, resp } => ctx.complete(op, resp),
                Effect::NoteRetransmit { count } => ctx.note_retransmit(count),
                Effect::Trace { kind, label, id } => ctx.emit_trace(kind, label, id),
            }
        }
    }

    /// Originates one envelope. The physical broadcast includes self, so
    /// the origin's own copy is delivered through the regular path too.
    fn flood(
        &mut self,
        dest: Option<ProcessId>,
        payload: P::Msg,
        ctx: &mut Context<FloodMsg<P::Msg>, P::Resp>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ctx.broadcast(FloodMsg { origin: ctx.me(), seq, dest, payload });
    }
}

impl<P: Protocol> Protocol for Flood<P> {
    type Msg = FloodMsg<P::Msg>;
    type Op = P::Op;
    type Resp = P::Resp;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |p, inner| p.on_start(inner));
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        env: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        let origin = env.origin.index();
        if origin >= self.seen.len() {
            self.seen.resize_with(origin + 1, Seen::default);
        }
        if !self.seen[origin].insert(env.seq) {
            return; // already relayed and (if addressed to us) delivered
        }
        // Relay to everyone else first so forwarding continues even if the
        // local handler panics in tests. The origin relays too, on the
        // self-delivery of its own envelope, on purpose: those n − 1
        // second copies are what a lossy channel's first copy falls back
        // on, and without them ABD latency under loss measured +11 %.
        self.relayed += 1;
        for p in 0..ctx.n() {
            let p = ProcessId(p);
            if p != ctx.me() {
                ctx.send(p, env.clone());
            }
        }
        let for_me = env.dest.is_none_or(|d| d == ctx.me());
        if for_me {
            self.run_inner(ctx, |p, inner| p.on_message(env.origin, env.payload, inner));
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |p, inner| p.on_timer(id, inner));
    }

    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        self.run_inner(ctx, |p, inner| p.on_invoke(op, body, inner));
    }

    fn on_recover(&mut self, ctx: &mut Context<Self::Msg, Self::Resp>) {
        // The dedup state survives the crash on purpose: envelopes relayed
        // before the crash are not re-delivered to the inner protocol.
        self.run_inner(ctx, |p, inner| p.on_recover(inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::sim::{FailureSchedule, SimConfig, Simulation, StopReason};
    use crate::time::SimTime;
    use gqs_core::Channel;

    /// Sends one message to a target; the target completes an op when it
    /// arrives.
    #[derive(Clone, Default, Debug)]
    struct OneShot {
        pending: Option<OpId>,
        received_from: Vec<ProcessId>,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Hello,
        Ack,
    }

    impl Protocol for OneShot {
        type Msg = Msg;
        type Op = ProcessId;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<Msg, ()>) {}

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, ()>) {
            match msg {
                Msg::Hello => {
                    self.received_from.push(from);
                    ctx.send(from, Msg::Ack);
                }
                Msg::Ack => {
                    if let Some(op) = self.pending.take() {
                        ctx.complete(op, ());
                    }
                }
            }
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Msg, ()>) {}

        fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Msg, ()>) {
            self.pending = Some(op);
            ctx.send(target, Msg::Hello);
        }
    }

    fn flooded(n: usize) -> Simulation<Flood<OneShot>> {
        let nodes = (0..n).map(|_| Flood::new(OneShot::default())).collect();
        Simulation::new(SimConfig::default(), nodes)
    }

    /// Disconnect both direct channels between 0 and 2 but keep the relay
    /// through 1: flooding must still deliver, request AND reply.
    #[test]
    fn flooding_routes_around_disconnected_channels() {
        let mut sim = flooded(3);
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(2)), SimTime::ZERO);
        sched.disconnect(Channel::new(ProcessId(2), ProcessId(0)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
        // The logical sender seen by the target is the origin, not the relay.
        assert_eq!(sim.node(ProcessId(2)).inner().received_from, vec![ProcessId(0)]);
    }

    /// With no path (all channels into 2 cut), delivery must NOT happen.
    #[test]
    fn flooding_cannot_cross_a_full_cut() {
        let mut sim = flooded(3);
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(0), ProcessId(2)), SimTime::ZERO);
        sched.disconnect(Channel::new(ProcessId(1), ProcessId(2)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        sim.run();
        assert!(!sim.history().ops()[0].is_complete());
        assert!(sim.node(ProcessId(2)).inner().received_from.is_empty());
    }

    /// Messages are delivered exactly once despite the n copies that
    /// reach the destination.
    #[test]
    fn dedup_delivers_exactly_once() {
        let mut sim = flooded(4);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(3));
        sim.run_until_ops_complete();
        assert_eq!(sim.node(ProcessId(3)).inner().received_from.len(), 1);
    }

    /// The reply path may differ from the request path (asymmetric cuts).
    #[test]
    fn asymmetric_paths_work() {
        // 0 -> 2 direct is cut; 2 -> 0 direct is cut; 0 -> 1 -> 2 for the
        // request and 2 -> 3 -> 0 for the reply.
        let mut sim = flooded(4);
        let mut sched = FailureSchedule::none();
        for (a, b) in [(0, 2), (2, 0), (3, 2), (2, 1), (1, 0), (0, 3)] {
            sched.disconnect(Channel::new(ProcessId(a), ProcessId(b)), SimTime::ZERO);
        }
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
    }

    /// Over a sparse topology, flooding restores *logical* connectivity:
    /// a unidirectional ring has no direct channel from 0 to 2, but the
    /// envelope hops 0 → 1 → 2 and the reply wraps 2 → 0.
    #[test]
    fn flooding_restores_connectivity_over_sparse_topologies() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        let mut ring = NetworkGraph::empty(3);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            ring.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(ring), ..SimConfig::default() };
        let nodes = (0..3).map(|_| Flood::new(OneShot::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete);
        // The logical sender is still the origin, not the relay.
        assert_eq!(sim.node(ProcessId(2)).inner().received_from, vec![ProcessId(0)]);
        // Direct sends on absent channels were attempted and dropped.
        assert!(sim.stats().dropped_disconnected > 0);
    }

    /// A disconnection *within* a sparse topology can still be routed
    /// around if the graph leaves another directed path.
    #[test]
    fn flooding_routes_around_disconnections_in_sparse_graphs() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        // Diamond: 0 -> {1, 2} -> 3 -> 0. Disconnect (1, 3); the request
        // still flows 0 -> 2 -> 3 and the reply 3 -> 0.
        let mut g = NetworkGraph::empty(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)] {
            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(g), ..SimConfig::default() };
        let nodes = (0..4).map(|_| Flood::new(OneShot::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        let mut sched = FailureSchedule::none();
        sched.disconnect(Channel::new(ProcessId(1), ProcessId(3)), SimTime::ZERO);
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(3));
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
    }

    /// When the sparse graph leaves no directed path, flooding cannot
    /// invent one.
    #[test]
    fn flooding_cannot_cross_a_topology_cut() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        // A line 0 -> 1 -> 2 with no way back: the request arrives at 2,
        // the reply can never return to 0.
        let mut g = NetworkGraph::empty(3);
        for (a, b) in [(0, 1), (1, 2)] {
            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(g), ..SimConfig::default() };
        let nodes = (0..3).map(|_| Flood::new(OneShot::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        sim.run();
        assert_eq!(sim.node(ProcessId(2)).inner().received_from, vec![ProcessId(0)]);
        assert!(!sim.history().ops()[0].is_complete(), "no return path exists");
    }

    /// Like [`OneShot`] but re-sends its Hello every 30 ticks until acked
    /// — the minimal protocol whose liveness survives a flapping link.
    #[derive(Clone, Default, Debug)]
    struct Retry {
        pending: Option<(OpId, ProcessId)>,
    }

    impl Protocol for Retry {
        type Msg = Msg;
        type Op = ProcessId;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<Msg, ()>) {}

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg, ()>) {
            match msg {
                Msg::Hello => ctx.send(from, Msg::Ack),
                Msg::Ack => {
                    if let Some((op, _)) = self.pending.take() {
                        ctx.complete(op, ());
                    }
                }
            }
        }

        fn on_timer(&mut self, _id: TimerId, ctx: &mut Context<Msg, ()>) {
            if let Some((_, target)) = self.pending {
                ctx.send(target, Msg::Hello);
                ctx.set_timer(TimerId(0), 30);
            }
        }

        fn on_invoke(&mut self, op: OpId, target: ProcessId, ctx: &mut Context<Msg, ()>) {
            self.pending = Some((op, target));
            ctx.send(target, Msg::Hello);
            ctx.set_timer(TimerId(0), 30);
        }
    }

    /// Regression for healed-channel accounting: sends through a down
    /// interval count as `dropped_disconnected`, and a retrying flood over
    /// the flapping link *eventually delivers* once the link heals.
    #[test]
    fn flood_over_a_flapping_link_eventually_delivers_post_heal() {
        use crate::topology::Topology;
        use gqs_core::NetworkGraph;
        // Line topology 0 <-> 1 <-> 2: every path from 0 runs over (0,1).
        let mut g = NetworkGraph::empty(3);
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            g.add_channel(Channel::new(ProcessId(a), ProcessId(b)));
        }
        let cfg = SimConfig { topology: Topology::from(g), ..SimConfig::default() };
        let nodes = (0..3).map(|_| Flood::new(Retry::default())).collect();
        let mut sim = Simulation::new(cfg, nodes);
        // (0,1) is down during [0, 100): the first retries all drop.
        let ch = Channel::new(ProcessId(0), ProcessId(1));
        let mut sched = FailureSchedule::none();
        sched.disconnect(ch, SimTime::ZERO).heal(ch, SimTime(100));
        sim.apply_failures(&sched);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(2));
        let reason = sim.run_until_ops_complete();
        assert_eq!(reason, StopReason::OpsComplete, "the op must complete after the heal");
        let done = sim.history().ops()[0].completed_at().unwrap();
        assert!(done >= SimTime(100), "completion cannot precede the heal, got {done:?}");
        let stats = sim.stats();
        assert!(stats.dropped_disconnected > 0, "in-window sends must be counted as dropped");
        assert!(stats.delivered > 0, "post-heal sends must be delivered");
    }

    /// Sends one message — to one process, or to all — and never replies,
    /// so every physical message of a run belongs to that one envelope.
    #[derive(Clone, Default, Debug)]
    struct Shout {
        heard: Vec<ProcessId>,
    }

    impl Protocol for Shout {
        type Msg = ();
        type Op = Option<ProcessId>;
        type Resp = ();

        fn on_start(&mut self, _ctx: &mut Context<(), ()>) {}

        fn on_message(&mut self, from: ProcessId, _msg: (), _ctx: &mut Context<(), ()>) {
            self.heard.push(from);
        }

        fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<(), ()>) {}

        fn on_invoke(&mut self, op: OpId, to: Option<ProcessId>, ctx: &mut Context<(), ()>) {
            match to {
                Some(to) => ctx.send(to, ()),
                None => ctx.broadcast(()),
            }
            ctx.complete(op, ());
        }
    }

    /// Runs one `Shout` from process 0 to quiescence and returns who heard
    /// it (as inner `on_message` counts per process) with the sim.
    fn shout(
        n: usize,
        to: Option<ProcessId>,
        sched: &FailureSchedule,
    ) -> (Vec<usize>, Simulation<Flood<Shout>>) {
        let nodes = (0..n).map(|_| Flood::new(Shout::default())).collect();
        let mut sim = Simulation::new(SimConfig::default(), nodes);
        sim.apply_failures(sched);
        sim.invoke_at(SimTime(1), ProcessId(0), to);
        sim.run();
        let heard = (0..n).map(|p| sim.node(ProcessId(p)).inner().heard.len()).collect();
        (heard, sim)
    }

    /// The module doc's cost, exactly: one envelope per logical broadcast,
    /// n² deliveries, one relay and one inner delivery per process.
    #[test]
    fn a_broadcast_is_one_envelope_of_n_squared_deliveries() {
        for n in [3usize, 5] {
            let (heard, sim) = shout(n, None, &FailureSchedule::none());
            assert_eq!(heard, vec![1; n], "every process, origin included, hears it once");
            assert_eq!(sim.node(ProcessId(1)).inner().heard, vec![ProcessId(0)]);
            assert_eq!(sim.stats().delivered, (n * n) as u64);
            let relayed: u64 = (0..n).map(|p| sim.node(ProcessId(p)).relayed()).sum();
            assert_eq!(relayed, n as u64, "one relay per process: a single envelope");
        }
    }

    /// A point-to-point send costs the same single envelope but reaches
    /// exactly one inner handler.
    #[test]
    fn a_send_is_one_envelope_heard_by_its_destination_only() {
        for n in [3usize, 5] {
            let to = Some(ProcessId(n - 1));
            let (heard, sim) = shout(n, to, &FailureSchedule::none());
            let mut expected = vec![0; n];
            expected[n - 1] = 1;
            assert_eq!(heard, expected);
            assert_eq!(sim.stats().delivered, (n * n) as u64);
        }
    }

    /// A broadcast reaches exactly the processes a directed path of
    /// correct channels leads to: 3 only through the relay 1, 4 not at all.
    #[test]
    fn a_broadcast_reaches_exactly_the_reachable_processes() {
        let mut sched = FailureSchedule::none();
        // Partial cut: 3 hears nothing directly from 0 or 2, only from 1.
        for from in [0, 2] {
            sched.disconnect(Channel::new(ProcessId(from), ProcessId(3)), SimTime::ZERO);
        }
        // Full cut: every channel into 4 is down.
        for from in 0..4 {
            sched.disconnect(Channel::new(ProcessId(from), ProcessId(4)), SimTime::ZERO);
        }
        let (heard, sim) = shout(5, None, &sched);
        assert_eq!(heard, vec![1, 1, 1, 1, 0]);
        assert_eq!(sim.node(ProcessId(3)).inner().heard, vec![ProcessId(0)], "origin, not relay");
    }

    #[test]
    fn relay_counters_track_forwarding_cost() {
        let mut sim = flooded(3);
        sim.invoke_at(SimTime(1), ProcessId(0), ProcessId(1));
        sim.run_until_ops_complete();
        let total: u64 = (0..3).map(|p| sim.node(ProcessId(p)).relayed()).sum();
        assert!(total >= 2, "every process should relay each envelope once");
    }

    /// `Seen::insert` answers exactly what the set of every seq so far
    /// would, on the arrival orders of one origin's envelopes: in order,
    /// shuffled within windows, duplicated, after large jumps, and with
    /// seq 0 last.
    #[test]
    fn seen_agrees_with_a_set_of_every_seq() {
        fn shuffle(v: &mut [u64], rng: &mut SplitMix64) {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.range(0, i as u64) as usize);
            }
        }
        let mut rng = SplitMix64::new(0x5EE7);
        for _ in 0..20 {
            let in_order: Vec<u64> = (0..200).collect();
            let mut windows = in_order.clone();
            let mut at = 0;
            while at < windows.len() {
                let end = (at + rng.range(2, 16) as usize).min(windows.len());
                shuffle(&mut windows[at..end], &mut rng);
                at = end;
            }
            let mut duplicates = Vec::new();
            for (i, &seq) in windows.iter().enumerate() {
                duplicates.push(seq);
                match rng.range(0, 2) {
                    0 => duplicates.push(seq),
                    1 => duplicates.push(windows[rng.range(0, i as u64) as usize]),
                    _ => {}
                }
            }
            let mut jumps = Vec::new();
            let mut top = 0;
            for _ in 0..50 {
                top += rng.range(1, 1000);
                jumps.push(top);
            }
            jumps.extend((0..300).map(|_| rng.range(0, top)));
            let mut zero_last: Vec<u64> = (1..200).collect();
            shuffle(&mut zero_last, &mut rng);
            zero_last.push(0);
            for stream in [in_order, windows, duplicates, jumps, zero_last] {
                let mut seen = Seen::default();
                let mut every = BTreeSet::new();
                for seq in stream {
                    assert_eq!(seen.insert(seq), every.insert(seq), "seq {seq}");
                    assert_eq!(seen.missing.len() as u64, seen.next - every.len() as u64);
                    assert!(every.iter().all(|s| !seen.missing.contains(s)));
                }
            }
        }
    }

    /// Broadcasts `0, 1, 2, …` every 10 ticks, `rounds` times, and records
    /// who it heard what from. Its k-th broadcast is its k-th envelope, so
    /// a payload is the envelope's seq.
    #[derive(Clone, Debug)]
    struct Beacon {
        rounds: u64,
        sent: u64,
        heard: BTreeSet<(usize, u64)>,
    }

    impl Protocol for Beacon {
        type Msg = u64;
        type Op = ();
        type Resp = ();

        fn on_start(&mut self, ctx: &mut Context<u64, ()>) {
            ctx.set_timer(TimerId(0), 10);
        }

        fn on_message(&mut self, from: ProcessId, k: u64, _ctx: &mut Context<u64, ()>) {
            self.heard.insert((from.index(), k));
        }

        fn on_timer(&mut self, _id: TimerId, ctx: &mut Context<u64, ()>) {
            if self.sent < self.rounds {
                ctx.broadcast(self.sent);
                self.sent += 1;
                ctx.set_timer(TimerId(0), 10);
            }
        }

        fn on_invoke(&mut self, op: OpId, _: (), ctx: &mut Context<u64, ()>) {
            ctx.complete(op, ());
        }
    }

    fn beacons(n: usize, rounds: u64, cfg: SimConfig) -> Simulation<Flood<Beacon>> {
        let beacon = Beacon { rounds, sent: 0, heard: BTreeSet::new() };
        Simulation::new(cfg, (0..n).map(|_| Flood::new(beacon.clone())).collect())
    }

    /// Each origin's seqs that `p` has recorded as missing.
    fn missing(sim: &Simulation<Flood<Beacon>>, p: usize) -> Vec<BTreeSet<u64>> {
        let footprint = sim.node(ProcessId(p)).dedup_footprint();
        footprint.iter().map(|s| s.missing.clone()).collect()
    }

    /// On a healthy complete graph the dedup state stays one record per
    /// origin with no gaps, however long the run: it does not grow with
    /// the envelopes relayed.
    #[test]
    fn healthy_dedup_state_is_one_gapless_record_per_origin() {
        let n = 5;
        let mut sim = beacons(n, 300, SimConfig::default());
        for t in (100..=3_100).step_by(100) {
            sim.run_until(SimTime(t));
            for p in 0..n {
                assert!(missing(&sim, p).iter().all(BTreeSet::is_empty), "p{p} at {t}");
            }
        }
        assert_eq!(sim.run(), StopReason::Quiescent);
        for p in 0..n {
            let footprint = sim.node(ProcessId(p)).dedup_footprint();
            assert_eq!(footprint.len(), n);
            assert!(footprint.iter().all(|s| s.next == 300 && s.missing.is_empty()));
            assert_eq!(sim.node(ProcessId(p)).inner().heard.len(), n * 300);
        }
    }

    /// A down window `[from, until)` on the channels from each of `froms`
    /// into process 3.
    fn cut_into_3(froms: &[usize], from: u64, until: u64) -> FailureSchedule {
        let channels: Vec<Channel> =
            froms.iter().map(|&p| Channel::new(ProcessId(p), ProcessId(3))).collect();
        let mut sched = FailureSchedule::none();
        sched.down_window(&channels, SimTime(from), SimTime(until));
        sched
    }

    /// A down window that cuts a process off leaves in its dedup state
    /// exactly the envelopes that never reached it — those whose whole
    /// flood fell inside the window — and the traffic after the heal adds
    /// nothing.
    #[test]
    fn a_healed_cut_leaves_exactly_the_unreachable_envelopes() {
        let mut sim = beacons(4, 300, SimConfig::default());
        sim.apply_failures(&cut_into_3(&[0, 1, 2], 500, 1_500));
        // Past the heal plus the longest delay: the window's gaps are final.
        sim.run_until(SimTime(1_520));
        let after_heal = missing(&sim, 3);
        assert_eq!(sim.run(), StopReason::Quiescent);
        assert_eq!(missing(&sim, 3), after_heal, "post-heal traffic left new gaps");
        let heard = &sim.node(ProcessId(3)).inner().heard;
        for (origin, gaps) in after_heal.iter().enumerate() {
            let never_heard: BTreeSet<u64> =
                (0..300).filter(|&k| !heard.contains(&(origin, k))).collect();
            assert_eq!(gaps, &never_heard, "origin {origin}");
            assert_eq!(sim.node(ProcessId(3)).dedup_footprint()[origin].next, 300);
            if origin == 3 {
                assert!(gaps.is_empty(), "a process always hears itself");
                continue;
            }
            // Seq k is sent at 10(k + 1). Sent before the window, it goes
            // straight through; sent 10 ticks or more before the heal, every
            // relay of it falls inside the window too.
            for k in 0..300u64 {
                let sent = 10 * (k + 1);
                if (500..1_490).contains(&sent) {
                    assert!(gaps.contains(&k), "origin {origin} seq {k}");
                }
                if !(500..1_500).contains(&sent) {
                    assert!(!gaps.contains(&k), "origin {origin} seq {k}");
                }
            }
        }
        for p in 0..3 {
            assert!(missing(&sim, p).iter().all(BTreeSet::is_empty), "p{p} was never cut off");
        }
    }

    /// A checkpoint taken inside a down window while gaps are open restores
    /// them: the continuation lands on the straight run's state byte for
    /// byte. The first window cuts 3 off and leaves gaps; the second cuts
    /// only 0 → 3, so 0's envelopes reach 3 by relay, some out of order.
    #[test]
    fn a_checkpoint_inside_a_down_window_restores_its_open_gaps() {
        fn fingerprint(sim: &Simulation<Flood<Beacon>>) -> String {
            let nodes: Vec<String> =
                (0..sim.len()).map(|p| format!("{:?}", sim.node(ProcessId(p)))).collect();
            format!("{:?}|{:?}|{:?}|{nodes:?}", sim.now(), sim.stats(), sim.rng())
        }
        let run = || {
            let cfg = SimConfig { loss: 0.1, ..SimConfig::default() };
            let mut sim = beacons(4, 300, cfg);
            let mut sched = cut_into_3(&[0, 1, 2], 500, 1_000);
            sched.merge(cut_into_3(&[0], 1_100, 2_000));
            sim.apply_failures(&sched);
            sim
        };
        let mut straight = run();
        straight.run();
        let expected = fingerprint(&straight);

        let mut forked = run();
        forked.run_until(SimTime(1_500));
        assert!(missing(&forked, 3).iter().any(|gaps| !gaps.is_empty()), "no gap open at the cut");
        let cp = forked.checkpoint();
        forked.run();
        assert_eq!(fingerprint(&forked), expected, "first continuation");
        forked.restore(&cp);
        forked.run();
        assert_eq!(fingerprint(&forked), expected, "restored continuation");
    }
}

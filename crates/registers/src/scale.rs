//! Counting-quorum ABD for the scale core: a single MWMR atomic register
//! whose quorums are **sampled arcs** instead of materialized
//! `ProcessSet`s.
//!
//! The quorum-system machinery of this crate tops out at
//! `gqs_core::MAX_PROCESSES` (1024) because quorums are bitset-backed.
//! [`SampledAbd`] sidesteps that for the classical majority setting: a
//! quorum is the contiguous arc `[start, start + q) mod n` with
//! `q = ⌊n/2⌋ + 1` and a seeded per-operation `start`. Any two such arcs
//! intersect — `2q > n` — so the usual ABD argument gives atomicity, while
//! per-process state stays O(1): a replica holds one `(value, version)`
//! pair, its arc-sampling RNG and a pointer (48 bytes for a `u64`
//! register), and a client in flight holds one counter and one
//! best-so-far. The client half — phase and backlog — is allocated the
//! first time a process is invoked, so the million replicas of a scale run
//! that never invoke anything do not carry it.
//! Message complexity is `4q ≈ 2n` per operation, linear in `n` rather
//! than the quadratic a naive broadcast protocol costs.
//!
//! This is the decision-protocol half of the `sim_scale` benchmark rung
//! (the other half is [`gqs_simnet::Gossip`]); it demonstrates that the
//! simulator's pid-space is no longer tied to the decision-structure
//! bound. Channels are assumed reliable and processes crash-free for the
//! scale runs — there is no retransmission layer (wrap the nodes in
//! [`gqs_simnet::Reliable`] where loss matters).
//!
//! ```
//! use gqs_core::ProcessId;
//! use gqs_registers::{sampled_abd_nodes, RegResp, ScaleOp};
//! use gqs_simnet::{SimConfig, SimTime, Simulation, StopReason};
//!
//! let n = 101;
//! let mut sim = Simulation::new(SimConfig::default(), sampled_abd_nodes(n, 0u64, 7));
//! sim.invoke_at(SimTime(1), ProcessId(3), ScaleOp::Write(42));
//! sim.invoke_at(SimTime(5_000), ProcessId(88), ScaleOp::Read);
//! assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
//! assert!(matches!(sim.history().ops()[1].resp(), Some(RegResp::Value { value: 42, .. })));
//! ```

use std::collections::VecDeque;
use std::fmt::Debug;

use gqs_core::ProcessId;
use gqs_simnet::{Context, OpId, Protocol, SplitMix64, TimerId};

use crate::register::RegResp;
use crate::update::{Version, VERSION_ZERO};

/// Client operations on the scale register (single register, so no key).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScaleOp<V> {
    /// `write(value)`.
    Write(V),
    /// `read()`.
    Read,
}

/// Wire messages of the two-phase protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScaleMsg<V> {
    /// Phase 1 request: send me your `(value, version)`.
    GetReq {
        /// Client-side operation token, echoed in the response.
        token: u64,
    },
    /// Phase 1 response.
    GetResp {
        /// Echo of the request token.
        token: u64,
        /// The replica's current value.
        value: V,
        /// The replica's current version.
        version: Version,
    },
    /// Phase 2 request: adopt `(value, version)` if it beats your own.
    SetReq {
        /// Client-side operation token, echoed in the ack.
        token: u64,
        /// Value to install.
        value: V,
        /// Version to install it at.
        version: Version,
    },
    /// Phase 2 acknowledgement.
    SetAck {
        /// Echo of the request token.
        token: u64,
    },
}

/// What the client does once its get phase completes.
#[derive(Clone, Debug)]
enum Pending<V> {
    Write(V),
    Read,
}

/// Client-side phase of the (single) in-flight operation.
#[derive(Clone, Debug)]
enum Phase<V> {
    Idle,
    Get { op: OpId, pending: Pending<V>, acks: usize, best: (V, Version) },
    Set { op: OpId, resp: RegResp<V>, acks: usize },
}

/// The client role of a process: absent until its first invocation.
#[derive(Clone, Debug)]
struct Client<V> {
    phase: Phase<V>,
    /// Invocations arriving while one is in flight, started FIFO.
    backlog: VecDeque<(OpId, ScaleOp<V>)>,
}

/// One process of the sampled-arc majority ABD register. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct SampledAbd<V> {
    value: V,
    version: Version,
    token: u64,
    rng: SplitMix64,
    /// `None` at a process that has never been invoked (all but a handful
    /// in a scale run): such a process ignores client-role messages, which
    /// nobody sends it.
    client: Option<Box<Client<V>>>,
}

impl<V: Clone + PartialEq + Debug> SampledAbd<V> {
    /// A fresh process holding `initial` at version zero; `seed` drives
    /// its arc sampling (distinct per process for spatial spread, see
    /// [`sampled_abd_nodes`]).
    pub fn new(initial: V, seed: u64) -> Self {
        SampledAbd {
            value: initial,
            version: VERSION_ZERO,
            token: 0,
            rng: SplitMix64::new(seed),
            client: None,
        }
    }

    /// The client role of a process that has been invoked.
    fn client(&mut self) -> &mut Client<V> {
        self.client.as_deref_mut().expect("an operation in flight was invoked here")
    }

    /// Majority size `⌊n/2⌋ + 1`.
    fn quorum(n: usize) -> usize {
        n / 2 + 1
    }

    /// Sends `msg` to every member of a freshly sampled arc quorum.
    fn send_arc(&mut self, ctx: &mut Context<ScaleMsg<V>, RegResp<V>>, msg: ScaleMsg<V>) {
        let n = ctx.n();
        let start = self.rng.range(0, n as u64 - 1) as usize;
        for k in 0..Self::quorum(n) {
            ctx.send(ProcessId((start + k) % n), msg.clone());
        }
    }

    /// Starts the get phase of `body` under a fresh token.
    fn start(&mut self, op: OpId, body: ScaleOp<V>, ctx: &mut Context<ScaleMsg<V>, RegResp<V>>) {
        self.token += 1;
        let pending = match body {
            ScaleOp::Write(value) => Pending::Write(value),
            ScaleOp::Read => Pending::Read,
        };
        let best = (self.value.clone(), VERSION_ZERO);
        self.client().phase = Phase::Get { op, pending, acks: 0, best };
        self.send_arc(ctx, ScaleMsg::GetReq { token: self.token });
    }

    /// Phase transition: a full arc answered the get; install the outcome
    /// at a (fresh) write arc.
    fn enter_set(&mut self, ctx: &mut Context<ScaleMsg<V>, RegResp<V>>) {
        let Phase::Get { op, pending, best, .. } =
            std::mem::replace(&mut self.client().phase, Phase::Idle)
        else {
            unreachable!("enter_set outside get phase");
        };
        let (best_value, best_version) = best;
        let (value, version, resp) = match pending {
            Pending::Write(value) => {
                let version = (best_version.0 + 1, ctx.me().index() as u64);
                (value, version, RegResp::Ack { version })
            }
            Pending::Read => {
                let resp = RegResp::Value { value: best_value.clone(), version: best_version };
                (best_value, best_version, resp)
            }
        };
        self.client().phase = Phase::Set { op, resp, acks: 0 };
        self.send_arc(ctx, ScaleMsg::SetReq { token: self.token, value, version });
    }

    /// Operation done: respond, then start the next backlogged invocation.
    fn finish(&mut self, ctx: &mut Context<ScaleMsg<V>, RegResp<V>>) {
        let Phase::Set { op, resp, .. } = std::mem::replace(&mut self.client().phase, Phase::Idle)
        else {
            unreachable!("finish outside set phase");
        };
        ctx.complete(op, resp);
        if let Some((op, body)) = self.client().backlog.pop_front() {
            self.start(op, body, ctx);
        }
    }

    /// The replica's current `(value, version)` — test/metric hook.
    pub fn state(&self) -> (&V, Version) {
        (&self.value, self.version)
    }
}

impl<V: Clone + PartialEq + Debug> Protocol for SampledAbd<V> {
    type Msg = ScaleMsg<V>;
    type Op = ScaleOp<V>;
    type Resp = RegResp<V>;

    fn on_start(&mut self, _ctx: &mut Context<Self::Msg, Self::Resp>) {}

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Resp>,
    ) {
        match msg {
            // Replica role.
            ScaleMsg::GetReq { token } => {
                let resp =
                    ScaleMsg::GetResp { token, value: self.value.clone(), version: self.version };
                ctx.send(from, resp);
            }
            ScaleMsg::SetReq { token, value, version } => {
                if version > self.version {
                    self.value = value;
                    self.version = version;
                }
                ctx.send(from, ScaleMsg::SetAck { token });
            }
            // Client role: count same-token responses until the arc is in.
            ScaleMsg::GetResp { token, value, version } => {
                if token != self.token {
                    return;
                }
                if let Some(Client { phase: Phase::Get { acks, best, .. }, .. }) =
                    self.client.as_deref_mut()
                {
                    *acks += 1;
                    if version >= best.1 {
                        *best = (value, version);
                    }
                    if *acks == Self::quorum(ctx.n()) {
                        self.enter_set(ctx);
                    }
                }
            }
            ScaleMsg::SetAck { token } => {
                if token != self.token {
                    return;
                }
                if let Some(Client { phase: Phase::Set { acks, .. }, .. }) =
                    self.client.as_deref_mut()
                {
                    *acks += 1;
                    if *acks == Self::quorum(ctx.n()) {
                        self.finish(ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, _ctx: &mut Context<Self::Msg, Self::Resp>) {}

    fn on_invoke(&mut self, op: OpId, body: Self::Op, ctx: &mut Context<Self::Msg, Self::Resp>) {
        let client = self.client.get_or_insert_with(|| {
            Box::new(Client { phase: Phase::Idle, backlog: VecDeque::new() })
        });
        if matches!(client.phase, Phase::Idle) {
            self.start(op, body, ctx);
        } else {
            client.backlog.push_back((op, body));
        }
    }
}

/// `n` [`SampledAbd`] processes holding `initial`, arc-sampling seeded by
/// forks of `seed` so different processes probe different arcs.
pub fn sampled_abd_nodes<V: Clone + PartialEq + Debug>(
    n: usize,
    initial: V,
    seed: u64,
) -> Vec<SampledAbd<V>> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| SampledAbd::new(initial.clone(), rng.fork().next_u64())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqs_simnet::{SimConfig, SimTime, Simulation, StopReason};

    fn run_ops(
        n: usize,
        seed: u64,
        ops: &[(u64, usize, ScaleOp<u64>)],
    ) -> Simulation<SampledAbd<u64>> {
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulation::new(cfg, sampled_abd_nodes(n, 0u64, seed));
        for &(at, p, ref body) in ops {
            sim.invoke_at(SimTime(at), ProcessId(p), body.clone());
        }
        assert_eq!(sim.run_until_ops_complete(), StopReason::OpsComplete);
        sim
    }

    #[test]
    fn sequential_write_then_read_observes_the_write() {
        let sim = run_ops(9, 3, &[(1, 0, ScaleOp::Write(7)), (10_000, 5, ScaleOp::Read)]);
        assert!(matches!(sim.history().ops()[1].resp(), Some(RegResp::Value { value: 7, .. })));
    }

    #[test]
    fn any_two_arc_quorums_intersect() {
        // The atomicity argument needs 2q > n for every n; check the
        // arithmetic across sizes and arc placements.
        for n in 1..=64usize {
            let q = SampledAbd::<u64>::quorum(n);
            assert!(2 * q > n, "n={n}");
            for a in 0..n {
                for b in 0..n {
                    let arc = |s: usize| (0..q).map(move |k| (s + k) % n);
                    let hit = arc(a).any(|x| arc(b).any(|y| x == y));
                    assert!(hit, "arcs at {a} and {b} miss each other, n={n}");
                }
            }
        }
    }

    #[test]
    fn concurrent_writes_linearize_by_version() {
        // Two writers race; a later read returns whichever version won,
        // and both writers get distinct versions.
        let sim = run_ops(
            15,
            11,
            &[(1, 2, ScaleOp::Write(100)), (1, 9, ScaleOp::Write(200)), (50_000, 4, ScaleOp::Read)],
        );
        let ops = sim.history().ops();
        let (v0, v1) = match (ops[0].resp(), ops[1].resp()) {
            (Some(RegResp::Ack { version: a }), Some(RegResp::Ack { version: b })) => (*a, *b),
            other => panic!("writes must ack: {other:?}"),
        };
        assert_ne!(v0, v1, "versions carry the writer id");
        let winner = v0.max(v1);
        match ops[2].resp() {
            Some(RegResp::Value { value, version }) => {
                assert_eq!(*version, winner);
                assert_eq!(*value, if winner == v0 { 100 } else { 200 });
            }
            other => panic!("read must return a value: {other:?}"),
        }
    }

    #[test]
    fn backlogged_invocations_run_fifo() {
        // Same process invokes twice at the same instant: the second waits
        // for the first and both complete.
        let sim = run_ops(
            7,
            5,
            &[(1, 0, ScaleOp::Write(1)), (1, 0, ScaleOp::Write(2)), (90_000, 3, ScaleOp::Read)],
        );
        let ops = sim.history().ops();
        assert!(ops.iter().all(|r| r.is_complete()));
        // The second write's version beats the first's.
        let versions: Vec<Version> = ops[..2].iter().map(|r| r.resp().unwrap().version()).collect();
        assert!(versions[1] > versions[0]);
    }

    #[test]
    fn only_invoked_processes_carry_the_client_role() {
        assert_eq!(std::mem::size_of::<SampledAbd<u64>>(), 48);
        let sim = run_ops(9, 3, &[(1, 0, ScaleOp::Write(7)), (10_000, 5, ScaleOp::Read)]);
        for p in 0..9 {
            assert_eq!(sim.node(ProcessId(p)).client.is_some(), p == 0 || p == 5, "process {p}");
        }
    }

    #[test]
    fn message_complexity_is_linear_in_n() {
        // One op = get req+resp and set req+ack to one arc each: 4q ≈ 2n
        // messages, far below the ~n² a broadcast protocol would emit.
        let n = 1_001;
        let sim = run_ops(n, 23, &[(1, 0, ScaleOp::Write(5))]);
        let q = SampledAbd::<u64>::quorum(n) as u64;
        assert_eq!(sim.stats().sent, 4 * q);
    }

    #[test]
    fn same_seed_same_history() {
        let ops = [(1u64, 0usize, ScaleOp::Write(9)), (20_000, 6, ScaleOp::Read)];
        let a = run_ops(33, 17, &ops);
        let b = run_ops(33, 17, &ops);
        let lat = |sim: &Simulation<SampledAbd<u64>>| -> Vec<Option<u64>> {
            sim.history().ops().iter().map(|r| r.latency()).collect()
        };
        assert_eq!(lat(&a), lat(&b));
        assert_eq!(a.stats(), b.stats());
    }
}

//! The benchmark's own in-memory span recorder.
//!
//! Staged trials (see [`crate::staged`]) wrap every call into a layer's
//! public function in [`Probe::span`]. The end-to-end binary passes
//! [`NoProbe`], which compiles to the bare call; the traced binary passes
//! a [`Recorder`], which keeps `(name, start, end, parent, trial)` in
//! memory and writes everything out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use gqs_simnet::{SharedSink, TraceSink};

use crate::json::Json;
use crate::sched::SchedSink;

/// What a staged trial reports its layer boundaries to.
pub trait Probe: Sized {
    /// Runs `f` as a span named `name`, a child of the innermost open
    /// span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Whether the next simulation should run with the schedule-recording
    /// sink attached (see [`Probe::sink`]).
    fn recording(&self) -> bool {
        false
    }

    /// The sink to attach to a simulation whose queue was loaded, before
    /// any event ran, with pushes at the `initial` times (start events,
    /// fault script, invocations — in push order).
    fn sink(&mut self, _initial: Vec<u64>) -> Option<Box<dyn TraceSink>> {
        None
    }
}

/// The probe of the end-to-end runs: nothing attached, nothing recorded.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

/// One recorded span. Times are nanoseconds since the recorder was
/// created; `allocs`/`alloc_bytes` are the allocator-counter deltas over
/// the span (zero unless the binary installed a counting allocator).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer boundary, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The trial the span belongs to: spans of one trial share it.
    pub trial: u64,
    /// Heap allocations made inside the span.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Reads the process's `(allocations, bytes)` counters.
pub type AllocCounters = fn() -> (u64, u64);

/// The traced binary's probe: records every span in memory.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    trial: u64,
    alloc: AllocCounters,
    sched: Option<SharedSink<SchedSink>>,
}

impl Recorder {
    /// A recorder reading allocation counters through `alloc`.
    pub fn new(alloc: AllocCounters) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
            alloc,
            sched: None,
        }
    }

    /// Sets the trial id stamped on the spans recorded from now on.
    pub fn set_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    /// From now on, simulations run with `sink` attached, recording their
    /// queue schedule and delay draws.
    pub fn record_schedule(&mut self, sink: SharedSink<SchedSink>) {
        self.sched = Some(sink);
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of the recorded spans.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStat> {
        summarize(&self.spans, |_| true)
    }

    /// Per-name totals of the spans whose trial id satisfies `keep`.
    pub fn summary_of(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, SpanStat> {
        summarize(&self.spans, |s| keep(s.trial))
    }

    /// The trace file: a name table, one row per span
    /// (`[name, start_ns, end_ns, parent, trial, allocs, alloc_bytes]`,
    /// `parent` −1 at a root), and the per-name summary.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::Arr(
                    [
                        name as f64,
                        s.start_ns as f64,
                        s.end_ns as f64,
                        s.parent.map_or(-1.0, f64::from),
                        s.trial as f64,
                        s.allocs as f64,
                        s.alloc_bytes as f64,
                    ]
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
                )
            })
            .collect();
        let summary = self.summary().into_iter().map(|(name, st)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(st.count as f64)),
                    ("total_ns", Json::Num(st.total_ns as f64)),
                    ("self_ns", Json::Num(st.self_ns as f64)),
                    ("allocs", Json::Num(st.allocs as f64)),
                    ("alloc_bytes", Json::Num(st.alloc_bytes as f64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "trial", "allocs", "alloc_bytes"]
                        .into_iter()
                        .map(Json::str)
                        .collect(),
                ),
            ),
            ("summary", Json::obj(summary)),
            ("names", Json::Arr(names.iter().map(|n| Json::str(*n)).collect())),
            ("spans", Json::Arr(rows)),
        ])
    }
}

impl Probe for Recorder {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len() as u32;
        let (allocs, alloc_bytes) = (self.alloc)();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            trial: self.trial,
            allocs,
            alloc_bytes,
        });
        self.open.push(idx);
        self.spans[idx as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = (self.alloc)();
        self.open.pop();
        let s = &mut self.spans[idx as usize];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
        out
    }

    fn recording(&self) -> bool {
        self.sched.is_some()
    }

    fn sink(&mut self, initial: Vec<u64>) -> Option<Box<dyn TraceSink>> {
        let sink = self.sched.as_ref()?;
        sink.with(|s| s.begin(initial));
        Some(Box::new(sink.clone()))
    }
}

/// Totals of every span sharing one name.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part of the interval
    /// their child spans cover.
    pub self_ns: u64,
    /// Sum of their allocation counts.
    pub allocs: u64,
    /// Sum of their allocated bytes.
    pub alloc_bytes: u64,
}

impl SpanStat {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name totals of the spans `keep` selects. A span's self time is its
/// duration minus the summed durations of its direct children (children
/// run sequentially inside the parent, so their intervals never overlap).
pub fn summarize(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SpanStat> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns).filter(|(s, _)| keep(s)) {
        let st = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        st.count += 1;
        st.total_ns += dur;
        st.self_ns += dur.saturating_sub(kids);
        st.allocs += s.allocs;
        st.alloc_bytes += s.alloc_bytes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, trial: 0, allocs: 0, alloc_bytes: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // trial [0,100] ─ run [10,70] ─ handler [20,50]
        //               └ read [70,90]
        let spans = vec![
            span("trial", 0, 100, None),
            span("run", 10, 70, Some(0)),
            span("handler", 20, 50, Some(1)),
            span("read", 70, 90, Some(0)),
            span("trial", 100, 130, None),
        ];
        let s = summarize(&spans, |_| true);
        assert_eq!(
            s["trial"],
            SpanStat { count: 2, total_ns: 130, self_ns: 20 + 30, ..Default::default() }
        );
        assert_eq!(s["run"].self_ns, 30, "grandchildren are not subtracted twice");
        assert_eq!(s["handler"].self_ns, 30);
        assert_eq!(s["read"].total_ns, 20);
        // Self times partition the root spans' wall time.
        assert_eq!(s.values().map(|st| st.self_ns).sum::<u64>(), 130);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_trials() {
        let mut r = Recorder::new(|| (0, 0));
        r.set_trial(7);
        let v = r.span("outer", |r| r.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = r.spans();
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].trial), ("inner", Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(!r.recording());
        let j = r.to_json("w");
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}

//! Per-request tracing: phase traces and the ring/slow-log buffers
//! behind the `TRACE` protocol verb. Counters and latency histograms
//! live in the metric registry ([`stats`](crate::stats)).
//!
//! A [`Trace`] is threaded through one request's dispatch; when tracing
//! is disabled it is a `None` and every recording call is a branch on a
//! dead option — the overhead budget for the enabled path is ≤ 3% of
//! `bench_smoke serve_mixed` (gated in CI via the `obs_overhead` row).
//! Completed traces become immutable [`RequestTrace`]s pushed into a
//! bounded ring of recent requests (atomic head reservation + per-slot
//! pointer swap; pushers never contend on a shared lock, only on their
//! own slot) and offered to a slowest-N log whose admission fast path
//! is a single relaxed load of the current threshold.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xust_core::Method;

use crate::stats::{named_enum, Verb};

named_enum! {
    /// One phase of a request's service time (see [`Trace::phase`] call
    /// sites in `server.rs` for exactly what each covers).
    pub enum Phase {
        /// Request/query text parsing (incl. file→DOM parses).
        Parse => "parse",
        /// Planner method choice.
        Plan => "plan",
        /// Prepared-query / view-result cache lookups.
        Cache => "cache",
        /// Document store snapshot/version acquisition.
        Snapshot => "snapshot",
        /// Write-ahead-log append (write path, WAL attached).
        Wal => "wal",
        /// Copy-on-write of the tree a write applies to (write path):
        /// a whole-tree copy only while a snapshot still reads it.
        Clone => "clone",
        /// Query/transform evaluation.
        Eval => "eval",
        /// Delta-aware view-result maintenance (write path).
        Maintain => "maintain",
        /// In-place fragment patching of cached results (write path).
        Patch => "patch",
        /// Result serialization + cache install, and re-serialization of
        /// a maintained result-cache entry on its first hit.
        Serialize => "serialize",
    }
}

/// Distinct phases per trace: phase timings are merged into a fixed
/// inline array at record time, so a trace never allocates for its
/// breakdown.
const MAX_PHASES: usize = Phase::ALL.len();

/// A completed, immutable request trace (what `TRACE` renders).
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Monotonic sequence number of the traced request.
    pub seq: u64,
    /// The request's verb.
    pub verb: Verb,
    /// What the request addressed (`view/doc` or `doc`).
    pub target: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Total service time (µs).
    pub micros: u64,
    /// Per-phase timings, merged by phase at record time into a fixed
    /// inline array (first-seen order); see [`RequestTrace::phases`].
    phases: [(Phase, u64); MAX_PHASES],
    nphases: u8,
    /// The evaluation method that produced the response, if one ran.
    pub method: Option<Method>,
    /// Prepared-cache outcome, when the request consulted it.
    pub prepared_hit: Option<bool>,
    /// View-result-cache outcome, when the request consulted it.
    pub result_hit: Option<bool>,
    /// Planner decision inputs, one entry per planned link.
    pub plan: Vec<String>,
}

impl RequestTrace {
    /// Per-phase timings (µs), merged by phase, in first-seen order.
    /// Phases cover the instrumented sections only, so their sum is a
    /// lower bound on `micros` (dispatch glue is uninstrumented).
    pub fn phases(&self) -> &[(Phase, u64)] {
        &self.phases[..self.nphases as usize]
    }

    /// One-line rendering with the phase breakdown, as shipped by the
    /// `TRACE` verb.
    pub fn render(&self) -> String {
        let mut s = format!(
            "#{} {} {} {} total={}µs",
            self.seq,
            if self.ok { "ok" } else { "err" },
            self.verb.name(),
            self.target,
            self.micros
        );
        if let Some(m) = self.method {
            s.push_str(&format!(" method={m}"));
        }
        if let Some(hit) = self.prepared_hit {
            s.push_str(if hit {
                " prepared=hit"
            } else {
                " prepared=miss"
            });
        }
        if let Some(hit) = self.result_hit {
            s.push_str(if hit { " result=hit" } else { " result=miss" });
        }
        s.push_str(" phases[");
        for (i, (p, us)) in self.phases().iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(&format!("{}={us}µs", p.name()));
        }
        s.push(']');
        if !self.plan.is_empty() {
            s.push_str(&format!(" plan[{}]", self.plan.join("; ")));
        }
        s
    }
}

#[derive(Debug)]
struct TraceBuf {
    verb: Verb,
    target: String,
    phases: [(Phase, u64); MAX_PHASES],
    nphases: u8,
    method: Option<Method>,
    prepared_hit: Option<bool>,
    result_hit: Option<bool>,
    plan: Vec<String>,
}

impl TraceBuf {
    /// Attributes `us` to `phase`, merging into an existing entry or
    /// claiming the next inline slot. No allocation.
    fn push_phase(&mut self, phase: Phase, us: u64) {
        let n = self.nphases as usize;
        match self.phases[..n].iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += us,
            None => {
                self.phases[n] = (phase, us);
                self.nphases = n as u8 + 1;
            }
        }
    }
}

/// A per-request trace builder, cheap when tracing is off.
///
/// Handlers call the recording methods unconditionally; with tracing
/// disabled the inner buffer is `None` and every call is a branch on a
/// dead option — no timestamps, no allocation.
#[derive(Debug)]
pub struct Trace {
    buf: Option<Box<TraceBuf>>,
}

impl Trace {
    /// A disabled trace (records nothing).
    pub fn off() -> Trace {
        Trace { buf: None }
    }

    /// True when this trace is recording.
    pub fn is_on(&self) -> bool {
        self.buf.is_some()
    }

    /// Starts timing a phase: `Some(now)` when recording, else `None`.
    /// Pair with [`Trace::phase`].
    pub fn start(&self) -> Option<Instant> {
        self.buf.as_ref().map(|_| Instant::now())
    }

    /// Ends a phase started by [`Trace::start`], attributing the
    /// elapsed time to `phase`.
    pub fn phase(&mut self, phase: Phase, started: Option<Instant>) {
        if let (Some(buf), Some(t)) = (self.buf.as_deref_mut(), started) {
            buf.push_phase(phase, t.elapsed().as_micros() as u64);
        }
    }

    /// Ends a phase started by [`Trace::start`] that contained a
    /// separately timed section of `inner` µs (if it ran): that time
    /// goes to `inner_phase`, the remainder to `phase`.
    pub fn phase_split(
        &mut self,
        phase: Phase,
        started: Option<Instant>,
        inner_phase: Phase,
        inner: Option<u64>,
    ) {
        if let (Some(buf), Some(t)) = (self.buf.as_deref_mut(), started) {
            let total = t.elapsed().as_micros() as u64;
            buf.push_phase(phase, total.saturating_sub(inner.unwrap_or(0)));
            if let Some(us) = inner {
                buf.push_phase(inner_phase, us);
            }
        }
    }

    /// Attributes an externally measured duration to `phase` (for
    /// sections that already time themselves for planner feedback).
    pub fn phase_micros(&mut self, phase: Phase, micros: u64) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.push_phase(phase, micros);
        }
    }

    /// Notes the evaluation method that produced the response.
    pub fn set_method(&mut self, method: Method) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.method = Some(method);
        }
    }

    /// Notes a prepared-cache outcome.
    pub fn note_prepared(&mut self, hit: bool) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.prepared_hit = Some(hit);
        }
    }

    /// Notes a view-result-cache outcome.
    pub fn note_result(&mut self, hit: bool) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.result_hit = Some(hit);
        }
    }

    /// Appends one planner-decision note; `f` runs (and allocates) only
    /// when the trace is recording.
    pub fn note_plan(&mut self, f: impl FnOnce() -> String) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.plan.push(f());
        }
    }
}

/// Bounded ring of the most recent completed traces. Pushing reserves
/// a slot with one atomic `fetch_add` on the head counter, then swaps
/// the trace pointer into that slot; two pushers contend only if they
/// wrap onto the same slot (ring-capacity pushes apart).
struct TraceRing {
    slots: Box<[Mutex<Option<Arc<RequestTrace>>>]>,
    head: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, trace: Arc<RequestTrace>) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len(); // relaxed: monotone counter; no data published
        *self.slots[i].lock().expect("trace ring slot poisoned") = Some(trace);
    }

    fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Up to `n` most recent traces, newest first. Best-effort under
    /// concurrent pushes (a slot may hold a newer trace than the head
    /// we read — fine for an operator view).
    fn recent(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        let head = self.pushed();
        let len = self.slots.len() as u64;
        let mut out = Vec::with_capacity(n.min(self.slots.len()));
        let floor = head.saturating_sub(len);
        let mut at = head;
        while at > floor && out.len() < n {
            at -= 1;
            let slot = self.slots[(at % len) as usize]
                .lock()
                .expect("trace ring slot poisoned");
            if let Some(t) = slot.as_ref() {
                out.push(Arc::clone(t));
            }
        }
        out
    }
}

/// The slowest-N log: a small sorted vector behind a mutex, with a
/// lock-free admission check — a request faster than the current
/// N-th-slowest threshold never takes the lock.
struct SlowLog {
    capacity: usize,
    /// Admission floor (µs): 0 until the log fills, then the smallest
    /// resident total. Monotonically non-decreasing.
    floor: AtomicU64,
    entries: Mutex<Vec<Arc<RequestTrace>>>,
}

impl SlowLog {
    fn new(capacity: usize) -> SlowLog {
        SlowLog {
            capacity: capacity.max(1),
            floor: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    fn offer(&self, trace: &Arc<RequestTrace>) {
        // relaxed: point-in-time read; staleness is fine
        if trace.micros < self.floor.load(Ordering::Relaxed) {
            return; // fast path: provably not among the slowest N
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        let pos = entries.partition_point(|e| e.micros >= trace.micros);
        entries.insert(pos, Arc::clone(trace));
        if entries.len() > self.capacity {
            entries.pop();
        }
        if entries.len() == self.capacity {
            let floor = entries.last().expect("non-empty at capacity").micros;
            self.floor.store(floor, Ordering::Relaxed); // relaxed: advisory value; racy readers re-check or tolerate staleness
        }
    }

    fn slowest(&self) -> Vec<Arc<RequestTrace>> {
        self.entries.lock().expect("slow log poisoned").clone()
    }
}

/// Capacity of the recent-trace ring.
const RING_CAPACITY: usize = 128;
/// Capacity of the slowest-N log.
const SLOW_CAPACITY: usize = 16;

/// The server's tracing state: the trace ring and slow log. One per
/// server, shared by all request threads.
pub struct Obs {
    /// Runtime-togglable so one server can be compared against itself
    /// with instrumentation on and off (`bench_smoke`'s `obs_overhead`
    /// row) — two separate processes would differ in heap layout by
    /// more than the instrumentation costs.
    enabled: AtomicBool,
    seq: AtomicU64,
    ring: TraceRing,
    slow: SlowLog,
}

impl Obs {
    /// Creates the tracing state; `enabled == false` turns every trace
    /// into a no-op (the `--no-trace` mode benched by `obs_overhead`).
    pub fn new(enabled: bool) -> Obs {
        Obs {
            enabled: AtomicBool::new(enabled),
            seq: AtomicU64::new(0),
            ring: TraceRing::new(RING_CAPACITY),
            slow: SlowLog::new(SLOW_CAPACITY),
        }
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Switches tracing on or off at runtime. Already-recorded traces
    /// are kept either way; only future requests are affected.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed); // relaxed: advisory value; racy readers re-check or tolerate staleness
    }

    /// Begins a trace for one request; `target` is rendered lazily (it
    /// never allocates when tracing is off).
    pub fn begin(&self, verb: Verb, target: impl FnOnce() -> String) -> Trace {
        if !self.is_enabled() {
            return Trace::off();
        }
        Trace {
            buf: Some(Box::new(TraceBuf {
                verb,
                target: target(),
                phases: [(Phase::Parse, 0); MAX_PHASES],
                nphases: 0,
                method: None,
                prepared_hit: None,
                result_hit: None,
                plan: Vec::new(),
            })),
        }
    }

    /// Completes a trace: publishes it to the ring and slow log. No-op
    /// for disabled traces.
    pub fn finish(&self, trace: Trace, micros: u64, ok: bool) {
        let Some(buf) = trace.buf else { return };
        let trace = Arc::new(RequestTrace {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1, // relaxed: monotone counter; no data published
            verb: buf.verb,
            target: buf.target,
            ok,
            micros,
            phases: buf.phases,
            nphases: buf.nphases,
            method: buf.method,
            prepared_hit: buf.prepared_hit,
            result_hit: buf.result_hit,
            plan: buf.plan,
        });
        self.slow.offer(&trace);
        self.ring.push(trace);
    }

    /// Total requests traced (pushed into the ring) so far.
    pub fn requests_traced(&self) -> u64 {
        self.ring.pushed()
    }

    /// The `n` most recent completed traces, newest first.
    pub fn recent_traces(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        self.ring.recent(n)
    }

    /// The slowest traces seen so far, slowest first.
    pub fn slowest_traces(&self) -> Vec<Arc<RequestTrace>> {
        self.slow.slowest()
    }

    /// Renders the `TRACE [n]` reply: the last `n` traces plus the slow
    /// log, one line each.
    pub fn render_traces(&self, n: usize) -> String {
        if !self.is_enabled() {
            return "tracing disabled (--no-trace)".to_string();
        }
        let recent = self.recent_traces(n);
        let mut s = format!(
            "traced={} recent={}\n",
            self.requests_traced(),
            recent.len()
        );
        for t in &recent {
            s.push_str(&t.render());
            s.push('\n');
        }
        s.push_str("slowest:\n");
        for t in self.slowest_traces() {
            s.push_str(&t.render());
            s.push('\n');
        }
        s.pop();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(seq: u64, micros: u64) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            seq,
            verb: Verb::View,
            target: "v/d".into(),
            ok: true,
            micros,
            phases: [(Phase::Eval, micros); MAX_PHASES],
            nphases: 1,
            method: None,
            prepared_hit: None,
            result_hit: None,
            plan: Vec::new(),
        })
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let ring = TraceRing::new(4);
        for i in 1..=10 {
            ring.push(trace_of(i, i));
        }
        assert_eq!(ring.pushed(), 10);
        let recent = ring.recent(3);
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![10, 9, 8]);
        assert_eq!(ring.recent(100).len(), 4, "bounded by capacity");
    }

    #[test]
    fn slow_log_keeps_top_n_sorted() {
        let log = SlowLog::new(3);
        for (seq, micros) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 700), (6, 20)] {
            log.offer(&trace_of(seq, micros));
        }
        let slow: Vec<u64> = log.slowest().iter().map(|t| t.micros).collect();
        assert_eq!(slow, vec![700, 500, 300]);
        // Below-floor offers take the fast path and change nothing.
        log.offer(&trace_of(7, 5));
        assert_eq!(log.slowest().len(), 3);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::new(false);
        let trace = obs.begin(Verb::View, || unreachable!("lazy target must not run"));
        assert!(!trace.is_on());
        obs.finish(trace, 1000, true);
        assert_eq!(obs.requests_traced(), 0);
        assert!(obs.render_traces(4).contains("tracing disabled"));
    }

    #[test]
    fn finish_merges_phases_in_first_seen_order() {
        let obs = Obs::new(true);
        let mut trace = obs.begin(Verb::Query, || "v/d".into());
        assert!(trace.is_on());
        trace.phase_micros(Phase::Eval, 30);
        trace.phase_micros(Phase::Cache, 5);
        trace.phase_micros(Phase::Eval, 20);
        trace.note_prepared(true);
        obs.finish(trace, 60, true);
        let t = &obs.recent_traces(1)[0];
        assert_eq!(t.phases(), &[(Phase::Eval, 50), (Phase::Cache, 5)]);
        assert_eq!(t.prepared_hit, Some(true));
        let rendered = t.render();
        assert!(rendered.contains("eval=50µs"), "{rendered}");
        assert!(rendered.contains("prepared=hit"), "{rendered}");
    }

    /// Every phase fits the inline array at once: `MAX_PHASES` is
    /// derived from the variant list, so a new phase cannot overflow it.
    #[test]
    fn every_phase_fits_one_trace() {
        let obs = Obs::new(true);
        let mut trace = obs.begin(Verb::Update, || "d".into());
        for (i, &p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            trace.phase_micros(p, 1);
        }
        obs.finish(trace, 10, true);
        assert_eq!(obs.recent_traces(1)[0].phases().len(), Phase::ALL.len());
    }
}

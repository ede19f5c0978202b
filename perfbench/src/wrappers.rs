//! Timing wrappers placed at the two layer boundaries the engine exposes:
//! the [`Scheduler`] trait (the `core` layer) and the [`JobSource`] trait
//! (the `workload` layer).
//!
//! Both wrappers only forward calls and read the clock around them, so a
//! wrapped run makes exactly the decisions and produces exactly the trace
//! of an unwrapped one (the wrapper tests pin this byte for byte). The
//! engine's own time is whatever the wall clock saw outside these spans.

use nodeshare_engine::{Decision, SchedContext, Scheduler, StartReason};
use nodeshare_workload::{JobSource, JobSpec, Seconds, SourceError};
use std::cell::Cell;
use std::time::Instant;

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the timing scheduler saw across one run.
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// Total time inside `schedule`, ns.
    pub schedule_ns: u64,
    /// Total time inside `explain` and `explain_all` (traced runs only), ns.
    pub explain_ns: u64,
    /// `schedule` invocations.
    pub passes: u64,
    /// Queue length summed over passes: the jobs each pass had to consider.
    pub queue_scanned: u64,
    /// Decisions returned over all passes.
    pub decisions: u64,
    /// Duration of every pass, ns, in call order.
    pub pass_ns: Vec<u64>,
}

impl SchedStats {
    /// The `q`-quantile (0..=1) of pass durations in µs, nearest rank.
    pub fn pass_quantile_us(&self, q: f64) -> f64 {
        if self.pass_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.pass_ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1e3
    }
}

/// A [`Scheduler`] that forwards every call to `inner` and times it.
pub struct TimingScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    stats: SchedStats,
    /// `explain`/`explain_all` take `&self`; their time accumulates here.
    explain_ns: Cell<u64>,
}

impl<'a> TimingScheduler<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        TimingScheduler {
            inner,
            stats: SchedStats::default(),
            explain_ns: Cell::new(0),
        }
    }

    /// The counters and clocks gathered so far.
    pub fn into_stats(self) -> SchedStats {
        SchedStats {
            explain_ns: self.explain_ns.get(),
            ..self.stats
        }
    }
}

impl Scheduler for TimingScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        let start = Instant::now();
        let decisions = self.inner.schedule(ctx);
        let ns = nanos_since(start);
        let s = &mut self.stats;
        s.schedule_ns += ns;
        s.passes += 1;
        s.queue_scanned += ctx.queue.len() as u64;
        s.decisions += decisions.len() as u64;
        s.pass_ns.push(ns);
        decisions
    }

    fn explain(&self, ctx: &SchedContext<'_>, decision: &Decision) -> StartReason {
        let start = Instant::now();
        let reason = self.inner.explain(ctx, decision);
        self.explain_ns
            .set(self.explain_ns.get() + nanos_since(start));
        reason
    }

    fn explain_all(&self, ctx: &SchedContext<'_>, decisions: &[Decision]) -> Vec<StartReason> {
        let start = Instant::now();
        let reasons = self.inner.explain_all(ctx, decisions);
        self.explain_ns
            .set(self.explain_ns.get() + nanos_since(start));
        reasons
    }
}

/// What the timing source saw across one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Total time inside `next_chunk`, ns.
    pub ns: u64,
    /// `next_chunk` calls.
    pub chunks: u64,
    /// Jobs delivered.
    pub jobs: u64,
}

/// A [`JobSource`] that forwards every call to `inner` and times it.
pub struct TimingSource<'a> {
    inner: &'a mut dyn JobSource,
    /// The counters and clocks gathered so far.
    pub stats: SourceStats,
}

impl<'a> TimingSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn JobSource) -> Self {
        TimingSource {
            inner,
            stats: SourceStats::default(),
        }
    }
}

impl JobSource for TimingSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<JobSpec>) -> Result<Option<Seconds>, SourceError> {
        let before = out.len();
        let start = Instant::now();
        let res = self.inner.next_chunk(out);
        self.stats.ns += nanos_since(start);
        self.stats.chunks += 1;
        self.stats.jobs += (out.len() - before) as u64;
        res
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// The first `limit` jobs of `inner`: how the telemetry runs take a
/// prefix of a workload without materializing it.
pub struct PrefixSource<'a> {
    inner: &'a mut dyn JobSource,
    left: usize,
}

impl<'a> PrefixSource<'a> {
    /// Delivers at most `limit` jobs of `inner`, then reports exhaustion.
    pub fn new(inner: &'a mut dyn JobSource, limit: usize) -> Self {
        PrefixSource { inner, left: limit }
    }
}

impl JobSource for PrefixSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<JobSpec>) -> Result<Option<Seconds>, SourceError> {
        let before = out.len();
        let res = self.inner.next_chunk(out)?;
        let got = out.len() - before;
        if got >= self.left {
            out.truncate(before + self.left);
            self.left = 0;
            return Ok(None);
        }
        self.left -= got;
        Ok(res)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(
            self.inner
                .size_hint()
                .map_or(self.left, |n| n.min(self.left)),
        )
    }
}

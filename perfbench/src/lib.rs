#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-perfbench
//!
//! The repository benchmark: three seeded workloads run through the
//! public `nodeshare_engine` entry points, timed end to end and split
//! into layers at the [`Scheduler`] and [`JobSource`] boundaries (see
//! [`wrappers`]). `perfbench/run.py` drives the `nodeshare-perfbench`
//! binary; `perfbench/README.md` explains the workloads and metrics.

pub mod calibrate;
pub mod wrappers;

use nodeshare_bench::World;
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_engine::{
    run_streamed, run_streamed_traced, run_streamed_with_telemetry, Auditor, DecisionTrace,
    Scheduler, SimConfig, SimOutcome, SimTelemetry,
};
use nodeshare_workload::{swf, JobSource, Workload, WorkloadSpec};
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wrappers::{PrefixSource, SchedStats, SourceStats, TimingScheduler, TimingSource};

/// Jobs per `next_chunk` for in-memory workloads; the same chunking
/// `nodeshare_engine::run` uses internally.
pub const CHUNK_JOBS: usize = 8192;

/// Simulated seconds between telemetry samples (the CLI default).
pub const SAMPLE_INTERVAL: f64 = 300.0;

/// The benchmark's workloads, all on the 128-node evaluation cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchWorkload {
    /// EASY backfill, exclusive, on the ~90%-load online mix, streamed in
    /// lean mode from an SWF file written at set-up.
    OnlineStream,
    /// CoBackfill with sharing on the saturated mix.
    SaturatedCoBackfill,
    /// Conservative backfill, exclusive, on the saturated mix.
    SaturatedConservative,
}

impl BenchWorkload {
    /// Every workload, in reporting order.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::OnlineStream,
        BenchWorkload::SaturatedCoBackfill,
        BenchWorkload::SaturatedConservative,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::OnlineStream => "online-stream",
            BenchWorkload::SaturatedCoBackfill => "saturated-cobackfill",
            BenchWorkload::SaturatedConservative => "saturated-conservative",
        }
    }

    /// Inverse of [`BenchWorkload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scheduling policy under test.
    pub fn strategy(self) -> StrategyConfig {
        match self {
            BenchWorkload::OnlineStream => StrategyConfig::exclusive(StrategyKind::EasyBackfill),
            BenchWorkload::SaturatedCoBackfill => StrategyConfig::sharing(StrategyKind::CoBackfill),
            BenchWorkload::SaturatedConservative => {
                StrategyConfig::exclusive(StrategyKind::Conservative)
            }
        }
    }

    /// Independent campaigns a run simulates one after another. The
    /// saturated mixes amplify small differences in offered load into
    /// large differences in queue depth, so one campaign's speed varies
    /// widely from seed to seed; a run times several and sums them.
    pub fn campaigns(self) -> usize {
        match self {
            BenchWorkload::OnlineStream => 4,
            BenchWorkload::SaturatedCoBackfill => 16,
            BenchWorkload::SaturatedConservative => 48,
        }
    }

    /// Jobs in each campaign.
    pub fn jobs(self) -> usize {
        match self {
            BenchWorkload::OnlineStream => 25_000,
            BenchWorkload::SaturatedCoBackfill => 2_000,
            BenchWorkload::SaturatedConservative => 800,
        }
    }

    /// Jobs per campaign the telemetry runs simulate, when fewer than
    /// all: telemetry multiplies CoBackfill's cost, so its runs take a
    /// prefix of each campaign.
    pub fn telemetry_prefix(self) -> Option<usize> {
        match self {
            BenchWorkload::SaturatedCoBackfill => Some(500),
            _ => None,
        }
    }

    /// Whether plain runs stream from a file in lean mode (no per-job
    /// records) rather than from an in-memory workload.
    pub fn streamed(self) -> bool {
        self == BenchWorkload::OnlineStream
    }

    /// The generator spec of campaign `k` (< [`BenchWorkload::campaigns`])
    /// for the benchmark seed `seed`.
    pub fn spec(self, world: &World, seed: u64, k: usize) -> WorkloadSpec {
        let campaign_seed = seed.wrapping_mul(1000).wrapping_add(k as u64);
        let mut spec = match self {
            BenchWorkload::OnlineStream => world.online_spec(campaign_seed),
            _ => world.saturated_spec(campaign_seed),
        };
        spec.n_jobs = self.jobs();
        spec
    }
}

/// Where one campaign's jobs come from.
pub enum Input {
    /// An SWF file on disk holding `jobs` jobs, parsed while streaming.
    Swf {
        /// The file.
        path: PathBuf,
        /// Jobs written to it.
        jobs: usize,
    },
    /// A generated workload held in memory.
    Memory(Workload),
}

impl Input {
    fn jobs(&self) -> usize {
        match self {
            Input::Swf { jobs, .. } => *jobs,
            Input::Memory(w) => w.len(),
        }
    }
}

/// One workload ready to run: world, campaign inputs, and policy recipe.
pub struct Bench {
    /// Which workload.
    pub workload: BenchWorkload,
    /// The evaluation world (catalog, contention truth, cluster).
    pub world: World,
    /// The campaigns, in run order.
    pub campaigns: Vec<Input>,
}

/// Where campaign `k`'s SWF file lives under `data`.
fn swf_path(data: &Path, k: usize) -> PathBuf {
    data.join(format!("campaign-{k}.swf"))
}

impl Bench {
    /// The timed set-up: builds the world, generates every campaign (and,
    /// for the streamed workload, writes each to an SWF file in `data`),
    /// and constructs the scheduler once.
    pub fn setup(workload: BenchWorkload, seed: u64, data: &Path) -> io::Result<Bench> {
        let world = World::evaluation();
        let mut campaigns = Vec::new();
        for k in 0..workload.campaigns() {
            let generated = workload.spec(&world, seed, k).generate(&world.catalog);
            campaigns.push(if workload.streamed() {
                let path = swf_path(data, k);
                std::fs::write(&path, swf::write(&generated, world.cluster.node.cores()))?;
                Input::Swf {
                    path,
                    jobs: generated.len(),
                }
            } else {
                Input::Memory(generated)
            });
        }
        let bench = Bench {
            workload,
            world,
            campaigns,
        };
        drop(bench.scheduler());
        Ok(bench)
    }

    /// A bench over the SWF files an earlier [`Bench::setup`] of the same
    /// workload and seed wrote to `data`, without rewriting them (the
    /// peak-memory run uses this so its high-water mark is the
    /// simulation's, not the file writer's).
    pub fn reopen(workload: BenchWorkload, seed: u64, data: &Path) -> io::Result<Bench> {
        if !workload.streamed() {
            return Bench::setup(workload, seed, data);
        }
        let mut campaigns = Vec::new();
        for k in 0..workload.campaigns() {
            let path = swf_path(data, k);
            if !path.is_file() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{} is missing: run set-up first", path.display()),
                ));
            }
            campaigns.push(Input::Swf {
                path,
                jobs: workload.jobs(),
            });
        }
        Ok(Bench {
            workload,
            world: World::evaluation(),
            campaigns,
        })
    }

    /// A fresh scheduler (policies carry state across passes).
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        self.workload
            .strategy()
            .build(&self.world.catalog, &self.world.model)
    }

    /// Jobs a run over the first `prefix` jobs (all when `None`) of
    /// campaign `campaign` submits.
    pub fn submitted(&self, campaign: usize, prefix: Option<usize>) -> u64 {
        let jobs = self.campaigns[campaign].jobs();
        prefix.map_or(jobs, |p| p.min(jobs)) as u64
    }

    /// Calls `f` with a fresh source over the first `prefix` jobs of
    /// `campaign`.
    fn with_source<R>(
        &self,
        campaign: &Input,
        prefix: Option<usize>,
        f: impl FnOnce(&mut dyn JobSource) -> R,
    ) -> io::Result<R> {
        let run = |source: &mut dyn JobSource| match prefix {
            Some(limit) => f(&mut PrefixSource::new(source, limit)),
            None => f(source),
        };
        Ok(match campaign {
            Input::Swf { path, .. } => {
                let reader = BufReader::new(std::fs::File::open(path)?);
                let opts = swf::SwfImportOptions {
                    cores_per_node: self.world.cluster.node.cores(),
                    ..Default::default()
                };
                run(&mut swf::SwfSource::new(reader, &self.world.catalog, opts))
            }
            Input::Memory(w) => run(&mut w.source(CHUNK_JOBS)),
        })
    }
}

/// How a run observes the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `run_streamed`: what a campaign pays.
    Plain,
    /// `run_streamed_traced` plus [`Auditor::audit`]: what `nodeshare
    /// audit` and `--audit` campaigns pay. Keeps per-job records.
    Audited,
    /// `run_streamed_with_telemetry` with a fresh [`SimTelemetry`].
    Telemetry,
}

/// One run to make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Entry point.
    pub mode: Mode,
    /// Simulate only the first this-many jobs.
    pub prefix: Option<usize>,
    /// Wrap the policy and the source in the timing wrappers.
    pub wrapped: bool,
}

/// Exact facts about a run's outcome, for the output checks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Facts {
    /// Jobs the source delivered.
    pub submitted: u64,
    /// Jobs that finished (walltime kills included).
    pub completed: u64,
    /// Jobs rejected at submission as unsatisfiable.
    pub rejected: u64,
    /// Jobs still waiting when the events ran out.
    pub unscheduled: u64,
    /// Engine events processed.
    pub events: u64,
    /// `(E_sched, E_comp)` of each campaign, when the run kept per-job
    /// records (empty in lean mode).
    pub efficiency: Vec<(f64, f64)>,
}

impl Facts {
    fn of(out: &SimOutcome, submitted: u64, world: &World) -> Facts {
        let efficiency = if out.records.is_empty() {
            Vec::new()
        } else {
            let m = out.metrics(&world.cluster);
            vec![(m.scheduling_efficiency, m.computational_efficiency)]
        };
        Facts {
            submitted,
            completed: out.completed_jobs,
            rejected: out.rejected.len() as u64,
            unscheduled: out.unscheduled.len() as u64,
            events: out.events_processed,
            efficiency,
        }
    }

    /// The facts of a run that failed outright: every job counts as lost.
    pub fn lost_all(submitted: u64) -> Facts {
        Facts {
            submitted,
            unscheduled: submitted,
            ..Facts::default()
        }
    }

    fn add(&mut self, other: Facts) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.unscheduled += other.unscheduled;
        self.events += other.events;
        self.efficiency.extend(other.efficiency);
    }

    /// Jobs neither completed nor rejected as unsatisfiable.
    pub fn lost(&self) -> u64 {
        let accounted = self.completed + self.rejected;
        if accounted == self.submitted && self.unscheduled == 0 {
            0
        } else {
            self.submitted
                .saturating_sub(accounted)
                .max(self.unscheduled)
                .max(1)
        }
    }

    /// Mean `(E_sched, E_comp)` over the campaigns, when recorded.
    pub fn mean_efficiency(&self) -> Option<(f64, f64)> {
        let n = self.efficiency.len() as f64;
        (n > 0.0).then(|| {
            let (s, c) = self
                .efficiency
                .iter()
                .fold((0.0, 0.0), |(s, c), &(es, ec)| (s + es, c + ec));
            (s / n, c / n)
        })
    }
}

/// Everything a run measured; [`RunResult::add`] sums campaigns.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Outcome facts.
    pub facts: Facts,
    /// Wall time of the simulation calls, s.
    pub run_s: f64,
    /// Wall time of the replay audits ([`Mode::Audited`] only), s.
    pub audit_s: f64,
    /// Trace events recorded ([`Mode::Audited`] only).
    pub trace_events: u64,
    /// Audit violations and run failures, rendered.
    pub errors: Vec<String>,
    /// Policy-side clocks and counters (wrapped runs only).
    pub sched: Option<SchedStats>,
    /// Source-side clocks and counters (wrapped runs only).
    pub source: Option<SourceStats>,
}

impl RunResult {
    /// A run that failed outright (a panic, an unreadable input): every
    /// job counts as lost.
    pub fn failed(submitted: u64, error: String) -> RunResult {
        RunResult {
            facts: Facts::lost_all(submitted),
            run_s: f64::NAN,
            errors: vec![error],
            ..RunResult::default()
        }
    }

    /// Folds another campaign's run into this one.
    pub fn add(&mut self, other: RunResult) {
        self.facts.add(other.facts);
        self.run_s += other.run_s;
        self.audit_s += other.audit_s;
        self.trace_events += other.trace_events;
        self.errors.extend(other.errors);
        if let Some(o) = other.sched {
            let s = self.sched.get_or_insert_with(SchedStats::default);
            s.schedule_ns += o.schedule_ns;
            s.explain_ns += o.explain_ns;
            s.passes += o.passes;
            s.queue_scanned += o.queue_scanned;
            s.decisions += o.decisions;
            s.pass_ns.extend(o.pass_ns);
        }
        if let Some(o) = other.source {
            let s = self.source.get_or_insert_with(SourceStats::default);
            s.ns += o.ns;
            s.chunks += o.chunks;
            s.jobs += o.jobs;
        }
    }

    /// Jobs simulated per wall second, the audit included.
    pub fn jobs_per_s(&self) -> f64 {
        self.facts.submitted as f64 / (self.run_s + self.audit_s)
    }

    /// Wall time outside the policy and the source: the engine's self
    /// time (wrapped runs only; 0 otherwise).
    pub fn engine_self_s(&self) -> f64 {
        let inside = self
            .sched
            .as_ref()
            .map_or(0, |s| s.schedule_ns + s.explain_ns)
            + self.source.map_or(0, |s| s.ns);
        self.run_s - inside as f64 / 1e9
    }
}

/// Makes one run of campaign `campaign` of `bench` as `spec` says.
/// Scheduler construction and source opening happen outside the clocks.
pub fn execute(bench: &Bench, campaign: usize, spec: RunSpec) -> io::Result<RunResult> {
    let mut config = SimConfig::new(bench.world.cluster);
    config.audit = false;
    config.retain_detail = spec.mode == Mode::Audited || !bench.workload.streamed();
    let telemetry = (spec.mode == Mode::Telemetry).then(|| SimTelemetry::new(SAMPLE_INTERVAL));
    let mut policy = bench.scheduler();
    let submitted = bench.submitted(campaign, spec.prefix);
    bench.with_source(&bench.campaigns[campaign], spec.prefix, |source| {
        let drive = |source: &mut dyn JobSource, policy: &mut dyn Scheduler| {
            let start = Instant::now();
            let (out, trace) = simulate(
                bench,
                spec.mode,
                source,
                policy,
                &config,
                telemetry.as_ref(),
            );
            (out, trace, start.elapsed().as_secs_f64())
        };
        let (out, trace, run_s, sched, source_stats) = if spec.wrapped {
            let mut timed_source = TimingSource::new(source);
            let mut timed_policy = TimingScheduler::new(policy.as_mut());
            let (out, trace, run_s) = drive(&mut timed_source, &mut timed_policy);
            let stats = timed_policy.into_stats();
            (out, trace, run_s, Some(stats), Some(timed_source.stats))
        } else {
            let (out, trace, run_s) = drive(source, policy.as_mut());
            (out, trace, run_s, None, None)
        };
        let mut result = RunResult {
            facts: Facts::of(&out, submitted, &bench.world),
            run_s,
            sched,
            source: source_stats,
            ..RunResult::default()
        };
        if let Some(trace) = trace {
            let start = Instant::now();
            let verdict = Auditor::new(&bench.world.matrix, &config).audit(&trace, &out);
            result.audit_s = start.elapsed().as_secs_f64();
            result.trace_events = trace.len() as u64;
            if let Err(violations) = verdict {
                result.errors = violations
                    .iter()
                    .map(|v| format!("audit violation: {v}"))
                    .collect();
            }
        }
        result
    })
}

/// The engine entry point for one mode; only [`Mode::Audited`] returns a
/// trace.
fn simulate(
    bench: &Bench,
    mode: Mode,
    source: &mut dyn JobSource,
    policy: &mut dyn Scheduler,
    config: &SimConfig,
    telemetry: Option<&SimTelemetry>,
) -> (SimOutcome, Option<DecisionTrace>) {
    let truth = &bench.world.matrix;
    match (mode, telemetry) {
        (Mode::Audited, _) => {
            let (out, trace) = run_streamed_traced(source, truth, policy, config);
            (out, Some(trace))
        }
        (Mode::Telemetry, Some(t)) => (
            run_streamed_with_telemetry(source, truth, policy, config, t),
            None,
        ),
        _ => (run_streamed(source, truth, policy, config), None),
    }
}

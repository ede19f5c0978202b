//! The timing wrappers must be invisible to the simulation: they forward
//! every trait method, and wrapped runs reproduce unwrapped ones byte for
//! byte.

use nodeshare_bench::World;
use nodeshare_cluster::Cluster;
use nodeshare_engine::{
    run_streamed_traced, Decision, SchedContext, Scheduler, SimConfig, StartReason, TraceEvent,
};
use nodeshare_perfbench::wrappers::{PrefixSource, TimingScheduler, TimingSource};
use nodeshare_perfbench::{BenchWorkload, CHUNK_JOBS};
use nodeshare_workload::Workload;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Forwards `schedule` to a real policy and answers the two justification
/// methods with different, recognisable reasons, counting each call.
struct Probe {
    inner: Box<dyn Scheduler>,
    schedules: u64,
    explains: Cell<u64>,
    batches: Cell<u64>,
}

const PER_DECISION: StartReason = StartReason::Backfilled { ahead: 4242 };
const BATCHED: StartReason = StartReason::CoScheduled { occupied: 4242 };

impl Scheduler for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        self.schedules += 1;
        self.inner.schedule(ctx)
    }

    fn explain(&self, _ctx: &SchedContext<'_>, _decision: &Decision) -> StartReason {
        self.explains.set(self.explains.get() + 1);
        PER_DECISION
    }

    fn explain_all(&self, _ctx: &SchedContext<'_>, decisions: &[Decision]) -> Vec<StartReason> {
        self.batches.set(self.batches.get() + 1);
        vec![BATCHED; decisions.len()]
    }
}

fn probe(world: &World, workload: BenchWorkload) -> Probe {
    Probe {
        inner: workload.strategy().build(&world.catalog, &world.model),
        schedules: 0,
        explains: Cell::new(0),
        batches: Cell::new(0),
    }
}

fn small_workload(world: &World, workload: BenchWorkload, jobs: usize) -> Workload {
    let mut spec = workload.spec(world, 7, 0);
    spec.n_jobs = jobs;
    spec.generate(&world.catalog)
}

fn config(world: &World) -> SimConfig {
    let mut config = SimConfig::new(world.cluster);
    config.audit = false;
    config
}

#[test]
fn timing_scheduler_forwards_every_method() {
    let world = World::evaluation();
    let mut inner = probe(&world, BenchWorkload::SaturatedCoBackfill);
    let mut timed = TimingScheduler::new(&mut inner);
    assert_eq!(timed.name(), "probe");

    let cluster = Cluster::new(world.cluster);
    let running = BTreeMap::new();
    let ctx = SchedContext {
        now: 0.0,
        queue: &[],
        cluster: &cluster,
        running: &running,
        shared_grace: 1.5,
        completed: &[],
        telemetry: None,
    };
    assert!(timed.schedule(&ctx).is_empty());
    let decision = Decision::StartExclusive {
        job: nodeshare_cluster::JobId(1),
        nodes: vec![nodeshare_cluster::NodeId(0)],
    };
    assert_eq!(timed.explain(&ctx, &decision), PER_DECISION);
    assert_eq!(
        timed.explain_all(&ctx, &[decision.clone(), decision]),
        vec![BATCHED, BATCHED]
    );
    let stats = timed.into_stats();
    assert_eq!(
        (stats.passes, stats.queue_scanned, stats.decisions),
        (1, 0, 0)
    );
    assert_eq!(stats.pass_ns.len(), 1);
    assert_eq!(inner.schedules, 1);
    assert_eq!((inner.explains.get(), inner.batches.get()), (1, 1));
}

#[test]
fn traced_runs_reach_the_inner_batch_justification() {
    // The engine justifies a traced pass through `explain_all`. A wrapper
    // that dropped it would fall back to per-decision `explain` and the
    // trace would carry PER_DECISION reasons.
    let world = World::evaluation();
    let jobs = small_workload(&world, BenchWorkload::SaturatedCoBackfill, 150);
    let mut inner = probe(&world, BenchWorkload::SaturatedCoBackfill);
    let mut timed = TimingScheduler::new(&mut inner);
    let (out, trace) = run_streamed_traced(
        &mut jobs.source(CHUNK_JOBS),
        &world.matrix,
        &mut timed,
        &config(&world),
    );
    assert_eq!(out.scheduler, "probe");
    let reasons: Vec<StartReason> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Started { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect();
    assert_eq!(reasons.len() as u64, out.completed_jobs);
    assert!(reasons.iter().all(|r| *r == BATCHED));
    assert_eq!(inner.explains.get(), 0);
    assert!(inner.batches.get() > 0);
}

#[test]
fn wrapped_runs_match_unwrapped_byte_for_byte() {
    let world = World::evaluation();
    let config = config(&world);
    for workload in BenchWorkload::ALL {
        let jobs = small_workload(&world, workload, 300);
        let mut plain = workload.strategy().build(&world.catalog, &world.model);
        let (out, trace) = run_streamed_traced(
            &mut jobs.source(CHUNK_JOBS),
            &world.matrix,
            plain.as_mut(),
            &config,
        );

        let mut policy = workload.strategy().build(&world.catalog, &world.model);
        let mut timed_policy = TimingScheduler::new(policy.as_mut());
        let mut inner_source = jobs.source(CHUNK_JOBS);
        let mut timed_source = TimingSource::new(&mut inner_source);
        let (wrapped_out, wrapped_trace) =
            run_streamed_traced(&mut timed_source, &world.matrix, &mut timed_policy, &config);

        let name = workload.name();
        assert_eq!(format!("{out:?}"), format!("{wrapped_out:?}"), "{name}");
        assert_eq!(trace.to_json(), wrapped_trace.to_json(), "{name}");
        let stats = timed_policy.into_stats();
        let starts = trace.starts().count() as u64;
        assert_eq!(stats.decisions, starts, "{name}");
        assert_eq!(stats.pass_ns.len() as u64, stats.passes, "{name}");
        assert!(stats.passes >= starts, "{name}");
        assert_eq!(timed_source.stats.jobs, 300, "{name}");
        assert!(timed_source.stats.chunks >= 1, "{name}");
    }
}

#[test]
fn prefix_source_matches_a_materialized_prefix() {
    let world = World::evaluation();
    let config = config(&world);
    let workload = BenchWorkload::SaturatedConservative;
    let jobs = small_workload(&world, workload, 400);
    let head = Workload::new(jobs.jobs()[..250].to_vec()).expect("a prefix stays sorted");

    let mut policy = workload.strategy().build(&world.catalog, &world.model);
    let (expected, expected_trace) = run_streamed_traced(
        &mut head.source(CHUNK_JOBS),
        &world.matrix,
        policy.as_mut(),
        &config,
    );
    for chunk in [1, 7, 100, CHUNK_JOBS] {
        let mut policy = workload.strategy().build(&world.catalog, &world.model);
        let mut inner = jobs.source(chunk);
        let mut prefix = PrefixSource::new(&mut inner, 250);
        let (out, trace) =
            run_streamed_traced(&mut prefix, &world.matrix, policy.as_mut(), &config);
        assert_eq!(format!("{expected:?}"), format!("{out:?}"), "chunk {chunk}");
        assert_eq!(expected_trace.to_json(), trace.to_json(), "chunk {chunk}");
    }
}

#[test]
fn pass_quantiles_use_nearest_rank() {
    let stats = nodeshare_perfbench::wrappers::SchedStats {
        pass_ns: (1..=100).rev().map(|i| i * 1000).collect(),
        ..Default::default()
    };
    assert_eq!(stats.pass_quantile_us(0.50), 50.0);
    assert_eq!(stats.pass_quantile_us(0.99), 99.0);
    assert_eq!(stats.pass_quantile_us(1.0), 100.0);
}

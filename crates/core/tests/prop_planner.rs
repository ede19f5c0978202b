//! Property tests for the journal-refreshed shared-placement planner: at
//! **every scheduling pass** of randomized campaigns, the planner behind
//! the optimized [`Backfill`], [`FirstFit`] and [`Adaptive`] paths —
//! whose node slots are re-derived only for the nodes the cluster
//! journals as touched — must equal a from-scratch rebuild (slots,
//! partial list, eligible count, free times), and every per-app candidate
//! list must equal a brute-force filter-and-sort over all partial nodes.
//! Campaigns cover the mutation sources the journal must see: starts,
//! completions, walltime kills, node failures with requeues, and
//! malleable reshapes; memory requests vary so some stacks are full.

use nodeshare_cluster::{ClusterSpec, JobId, NodeSpec};
use nodeshare_core::{Adaptive, Backfill, FirstFit, Pairing, PairingPolicy};
use nodeshare_engine::{run, Decision, FailureModel, SchedContext, Scheduler, SimConfig};
use nodeshare_perf::{AppCatalog, AppId, CoRunTruth, ContentionModel, Predictor};
use nodeshare_workload::{JobSpec, Malleability, Workload};
use proptest::prelude::*;

const NODES: u32 = 8;

/// The strategies whose planner the check reaches.
trait PlannerChecked: Scheduler {
    fn check(&mut self, ctx: &SchedContext<'_>) -> Result<bool, String>;
}

impl PlannerChecked for Backfill {
    fn check(&mut self, ctx: &SchedContext<'_>) -> Result<bool, String> {
        self.check_planner(ctx)
    }
}

impl PlannerChecked for FirstFit {
    fn check(&mut self, ctx: &SchedContext<'_>) -> Result<bool, String> {
        self.check_planner(ctx)
    }
}

impl PlannerChecked for Adaptive {
    fn check(&mut self, ctx: &SchedContext<'_>) -> Result<bool, String> {
        self.check_planner(ctx)
    }
}

/// Forwards every pass to the optimized scheduler, then holds its
/// planner to the rebuild for the same context.
struct Checked<S> {
    inner: S,
    passes: u64,
    checked: u64,
}

impl<S: PlannerChecked> Scheduler for Checked<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        self.passes += 1;
        let decisions = self.inner.schedule(ctx);
        match self.inner.check(ctx) {
            Ok(checked) => self.checked += checked as u64,
            Err(e) => panic!("t={} pass {}: {e}", ctx.now, self.passes),
        }
        decisions
    }
}

#[derive(Clone, Debug)]
struct RawJob {
    nodes: u32,
    runtime: f64,
    submit_gap: f64,
    /// Estimate multiplier; < 1 produces walltime kills.
    est_factor: f64,
    app: u8,
    /// Index into `MEM_MIB`: the largest requests cannot stack.
    mem: usize,
    share: bool,
    /// Contract width above `nodes`; 0 keeps the job rigid.
    grow: u32,
}

/// Per-node memory requests, in MiB, against 16 GiB tiny nodes.
const MEM_MIB: [u32; 3] = [64, 6_000, 9_000];

fn raw_job() -> impl Strategy<Value = RawJob> {
    (
        (1u32..=NODES / 2, 10.0f64..400.0, 0.0f64..120.0, 0.5f64..2.0),
        (
            0u8..8,
            0usize..MEM_MIB.len(),
            prop::bool::weighted(0.85),
            0u32..3,
        ),
    )
        .prop_map(
            |((nodes, runtime, submit_gap, est_factor), (app, mem, share, grow))| RawJob {
                nodes,
                runtime,
                submit_gap,
                est_factor,
                app,
                mem,
                share,
                grow,
            },
        )
}

fn build_workload(raw: Vec<RawJob>, malleable: bool) -> Workload {
    let mut t = 0.0;
    let jobs: Vec<JobSpec> = raw
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            t += r.submit_gap;
            JobSpec {
                malleable: if malleable && r.grow > 0 {
                    Malleability::range(1, (r.nodes + r.grow).min(NODES), 5.0)
                } else {
                    Malleability::RIGID
                },
                id: JobId(i as u64),
                app: AppId(r.app),
                nodes: r.nodes,
                submit: t,
                runtime_exclusive: r.runtime,
                walltime_estimate: (r.runtime * r.est_factor).max(1.0),
                mem_per_node_mib: MEM_MIB[r.mem],
                share_eligible: r.share && !malleable,
                user: 0,
            }
        })
        .collect();
    Workload::new(jobs).unwrap()
}

fn pairing(duration_match: bool) -> Pairing {
    let catalog = AppCatalog::trinity();
    let pairing = Pairing::new(
        PairingPolicy::default_threshold(),
        Predictor::oracle(&catalog, &ContentionModel::calibrated()),
    );
    if duration_match {
        pairing.with_duration_match(0.3)
    } else {
        pairing
    }
}

fn config(smt: u8, failures: Option<(f64, u64)>) -> (CoRunTruth, SimConfig) {
    let catalog = AppCatalog::trinity();
    let matrix = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
    let node = NodeSpec {
        smt,
        ..NodeSpec::tiny()
    };
    let mut config = SimConfig::new(ClusterSpec::new(NODES, node));
    config.failures = failures.map(|(mtbf, seed)| FailureModel {
        mtbf_per_node: mtbf,
        repair_time: 120.0,
        seed,
    });
    (matrix, config)
}

/// Runs `make()` checked at every pass and plain on `smt`-lane nodes,
/// and asserts both runs agree and that some passes were checked.
fn check_campaign<S: PlannerChecked>(
    make: impl Fn() -> S,
    workload: &Workload,
    smt: u8,
    failures: Option<(f64, u64)>,
) -> Result<(), String> {
    let (matrix, config) = config(smt, failures);
    let mut checked = Checked {
        inner: make(),
        passes: 0,
        checked: 0,
    };
    let out = run(workload, &matrix, &mut checked, &config);
    prop_assert!(checked.checked > 0, "no pass refreshed the planner");
    let mut plain = make();
    let out_plain = run(workload, &matrix, &mut plain, &config);
    prop_assert!(out == out_plain, "checking changed the outcome");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CoBackfill, with and without duration matching, on SMT-2 and
    /// SMT-4 nodes (stacks of several residents) under node failures:
    /// head reservations, restricted backfill and failures all see slots
    /// equal to a rebuild.
    #[test]
    fn cobackfill_planner_matches_rebuild_everywhere(
        raw in prop::collection::vec(raw_job(), 1..30),
        duration_match in prop::bool::weighted(0.5),
        smt4 in prop::bool::weighted(0.5),
        mtbf in 2_000.0f64..40_000.0,
        fseed in 0u64..64,
    ) {
        let workload = build_workload(raw, false);
        check_campaign(
            || Backfill::co(pairing(duration_match)),
            &workload,
            if smt4 { 4 } else { 2 },
            Some((mtbf, fseed)),
        )?;
    }

    /// CoFirstFit under node failures: several starts per instant, each
    /// refreshing only the nodes it touched.
    #[test]
    fn cofirstfit_planner_matches_rebuild_everywhere(
        raw in prop::collection::vec(raw_job(), 1..30),
        mtbf in 2_000.0f64..40_000.0,
        fseed in 0u64..64,
    ) {
        let workload = build_workload(raw, false);
        check_campaign(|| FirstFit::sharing(pairing(false)), &workload, 2, Some((mtbf, fseed)))?;
    }

    /// EASY (exclusive, pairing never runs) under node failures: the
    /// free times behind its reservation stay exact.
    #[test]
    fn easy_planner_matches_rebuild_everywhere(
        raw in prop::collection::vec(raw_job(), 1..30),
        mtbf in 2_000.0f64..40_000.0,
        fseed in 0u64..64,
    ) {
        let workload = build_workload(raw, false);
        check_campaign(Backfill::easy, &workload, 2, Some((mtbf, fseed)))?;
    }

    /// Adaptive with malleable jobs under node failures: reshapes move a
    /// running job's nodes and its kill bound, and the journal must name
    /// every node whose free time moved.
    #[test]
    fn adaptive_planner_survives_reshapes(
        raw in prop::collection::vec(raw_job(), 1..30),
        mtbf in 2_000.0f64..40_000.0,
        fseed in 0u64..64,
    ) {
        let workload = build_workload(raw, true);
        check_campaign(Adaptive::new, &workload, 2, Some((mtbf, fseed)))?;
    }
}

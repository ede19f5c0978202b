//! Adaptive width-malleable scheduling: EASY backfill plus reshape.
//!
//! Wraps [`Backfill::easy`] and adds two reshape behaviors for running
//! *exclusive* jobs with a non-rigid
//! [`Malleability`](nodeshare_workload::Malleability) contract:
//!
//! * **Shrink to admit.** When the inner policy can start nothing and
//!   the queue is non-empty, shrink running malleable jobs toward their
//!   contract minimum — in job-id order, dropping each job's highest-id
//!   nodes — until the freed nodes plus the already-idle ones cover the
//!   head's request, then start the head in the same decision batch.
//!   All-or-nothing: if shrinking every malleable job to its minimum
//!   still cannot admit the head, no reshape is issued.
//! * **Grow to fill.** When nothing can start — the queue is empty, or
//!   the head is blocked beyond what shrinking could fix — idle nodes
//!   are pure slack (including the ones EASY strands behind its head
//!   reservation), so grow running malleable jobs toward their contract
//!   maximum, in job-id order, lowest-id idle nodes first, all in one
//!   batch. Grown width is reclaimed by the shrink path the moment a
//!   waiting job could use it, so growing never delays a start.
//!
//! On an all-rigid workload neither path ever fires — no job passes the
//! malleability filter — so the policy is decision-for-decision
//! identical to EASY backfill; the rigid differential suite pins this
//! down to byte-identical traces.

use crate::backfill::Backfill;
use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_engine::{Decision, SchedContext, Scheduler};
use nodeshare_workload::JobSpec;

/// EASY backfill with width-malleability: shrinks running malleable jobs
/// to admit a blocked queue head, re-grows them when the queue drains.
pub struct Adaptive {
    inner: Backfill,
}

impl Adaptive {
    /// The adaptive policy over the optimized EASY backfill core.
    pub fn new() -> Adaptive {
        Adaptive {
            inner: Backfill::easy(),
        }
    }

    /// Switches the inner backfill to its pre-optimization reference
    /// implementation (see [`Backfill::reference`]); the reshape logic
    /// is identical.
    #[must_use]
    pub fn reference(self) -> Adaptive {
        Adaptive {
            inner: self.inner.reference(),
        }
    }

    /// See [`Backfill::check_planner`].
    #[doc(hidden)]
    pub fn check_planner(&mut self, ctx: &SchedContext<'_>) -> Result<bool, String> {
        self.inner.check_planner(ctx)
    }

    /// The nodes `job` currently holds, in grant order.
    fn held_nodes(ctx: &SchedContext<'_>, job: JobId) -> Vec<NodeId> {
        ctx.cluster
            .allocation(job)
            .map(|a| a.nodes().collect())
            .unwrap_or_default()
    }

    /// Idle up-nodes able to host `job` exclusively, ascending id.
    fn idle_for(ctx: &SchedContext<'_>, job: &JobSpec) -> Vec<NodeId> {
        let mut idle: Vec<NodeId> = ctx
            .cluster
            .idle_nodes()
            .filter(|&n| {
                ctx.cluster
                    .node(n)
                    .is_some_and(|node| node.mem_free() >= u64::from(job.mem_per_node_mib))
            })
            .collect();
        idle.sort_unstable();
        idle
    }

    /// Shrink running malleable jobs until the queue head fits, then
    /// start it. Returns the whole batch, or nothing if infeasible.
    fn shrink_to_admit(ctx: &SchedContext<'_>) -> Vec<Decision> {
        let Some(head) = ctx.queue.first() else {
            return Vec::new();
        };
        let need = head.nodes as usize;
        let mut available = Self::idle_for(ctx, head);
        if available.len() >= need {
            // The inner policy starts a fitting head itself; reaching
            // here means it declined (it never does today), so defer.
            return Vec::new();
        }
        let mut reshapes = Vec::new();
        for r in ctx.running.values() {
            if available.len() >= need {
                break;
            }
            if r.mode != ShareMode::Exclusive || r.malleable.is_rigid() {
                continue;
            }
            let min = r.malleable.min_nodes.max(1);
            if r.nodes <= min {
                continue;
            }
            let deficit = (need - available.len()) as u32;
            let give = (r.nodes - min).min(deficit) as usize;
            let held = Self::held_nodes(ctx, r.job);
            if held.len() != r.nodes as usize {
                continue;
            }
            // Freed nodes must be able to host the head once idle; the
            // job's exclusive memory footprint is released with them.
            let mut by_id = held.clone();
            by_id.sort_unstable();
            let freed: Vec<NodeId> = by_id.split_off(by_id.len() - give);
            let hostable = freed.iter().all(|&n| {
                ctx.cluster
                    .node(n)
                    .is_some_and(|node| node.spec().mem_mib >= u64::from(head.mem_per_node_mib))
            });
            if !hostable {
                continue;
            }
            // Keep the survivors in grant order (the engine treats the
            // reshape's node list as the new grant order).
            let kept: Vec<NodeId> = held
                .iter()
                .copied()
                .filter(|n| !freed.contains(n))
                .collect();
            reshapes.push(Decision::Reshape {
                job: r.job,
                nodes: kept,
            });
            available.extend(freed);
        }
        if available.len() < need {
            return Vec::new(); // all-or-nothing: leave everything as is
        }
        available.sort_unstable();
        available.truncate(need);
        reshapes.push(Decision::StartExclusive {
            job: head.id,
            nodes: available,
        });
        reshapes
    }

    /// Grow running malleable jobs into idle nodes, one batch.
    fn grow_into_idle(ctx: &SchedContext<'_>) -> Vec<Decision> {
        let mut idle: Vec<NodeId> = ctx.cluster.idle_nodes().collect();
        idle.sort_unstable();
        let mut out = Vec::new();
        let mut cursor = 0usize;
        for r in ctx.running.values() {
            if cursor >= idle.len() {
                break;
            }
            if r.mode != ShareMode::Exclusive
                || r.malleable.is_rigid()
                || r.nodes >= r.malleable.max_nodes
            {
                continue;
            }
            let take = ((r.malleable.max_nodes - r.nodes) as usize).min(idle.len() - cursor);
            let mut nodes = Self::held_nodes(ctx, r.job);
            if nodes.len() != r.nodes as usize {
                continue;
            }
            nodes.extend_from_slice(&idle[cursor..cursor + take]);
            cursor += take;
            out.push(Decision::Reshape { job: r.job, nodes });
        }
        out
    }
}

impl Default for Adaptive {
    fn default() -> Adaptive {
        Adaptive::new()
    }
}

impl Scheduler for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        let base = self.inner.schedule(ctx);
        if !base.is_empty() {
            return base;
        }
        if !ctx.queue.is_empty() {
            let shrunk = Self::shrink_to_admit(ctx);
            if !shrunk.is_empty() {
                return shrunk;
            }
        }
        // Nothing can start even after shrinking: idle nodes — including
        // the ones EASY strands behind its head reservation — are pure
        // slack, so grow malleable jobs into them. The grown width is
        // reclaimable by the shrink path the instant the head could use
        // the nodes, so this never delays a start.
        Self::grow_into_idle(ctx)
    }

    fn explain_all(
        &self,
        ctx: &SchedContext<'_>,
        decisions: &[Decision],
    ) -> Vec<nodeshare_engine::StartReason> {
        // Forward so the inner policy's batched classification is kept;
        // reshapes classify as Unspecified (they are not starts).
        self.inner.explain_all(ctx, decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, job};
    use nodeshare_workload::Malleability;

    /// A malleable variant of the testkit job: `[min, max]` around the
    /// requested width with a small reshape cost.
    fn mjob(id: u64, nodes: u32, runtime: f64, min: u32, max: u32) -> nodeshare_workload::JobSpec {
        let mut j = job(id, nodes, runtime);
        j.malleable = Malleability::range(min, max, 10.0);
        j
    }

    fn traced(
        world: &testkit::World,
        policy: &mut dyn Scheduler,
    ) -> (
        nodeshare_engine::SimOutcome,
        nodeshare_engine::DecisionTrace,
    ) {
        nodeshare_engine::run_traced(&world.workload, &world.matrix, policy, &world.config)
    }

    #[test]
    fn rigid_workload_matches_easy_backfill_outcomes() {
        let jobs = vec![job(0, 3, 100.0), job(1, 4, 100.0), job(2, 1, 10.0)];
        let world = testkit::world(4, jobs);
        let (adaptive, atrace) = traced(&world, &mut Adaptive::new());
        let (easy, etrace) = traced(&world, &mut Backfill::easy());
        assert_eq!(adaptive.scheduler, "adaptive");
        assert_eq!(adaptive.records, easy.records);
        assert_eq!(
            format!("{:?}", atrace.events()),
            format!("{:?}", etrace.events())
        );
    }

    #[test]
    fn shrinks_wide_malleable_job_to_admit_blocked_head() {
        // Job 0: malleable, requests all 4 nodes, may shrink to 2, runs
        // long. Job 1 (head) wants 2 nodes — blocked under EASY until
        // job 0 ends; Adaptive shrinks job 0 and starts job 1 early.
        let jobs = vec![mjob(0, 4, 400.0, 2, 4), job(1, 2, 50.0)];
        let world = testkit::world(4, jobs);
        let (out, trace) = traced(&world, &mut Adaptive::new());
        assert!(out.records.iter().all(|r| !r.killed));
        let reshapes = trace
            .events()
            .iter()
            .filter(|e| matches!(e, nodeshare_engine::TraceEvent::Reshape { .. }))
            .count();
        assert!(reshapes >= 1, "expected at least one reshape");
        // Job 1 starts when it arrives (t=1), not when job 0 ends.
        let r1 = out.records.iter().find(|r| r.id.0 == 1).unwrap();
        assert!(
            r1.start < 100.0,
            "head should start early via shrink, started at {}",
            r1.start
        );
    }

    #[test]
    fn grows_malleable_job_into_idle_nodes_when_queue_drains() {
        // One malleable job alone on a 4-node machine, requesting 2 of
        // 4: the grow path widens it to its max and it finishes early.
        let jobs = vec![mjob(0, 2, 400.0, 1, 4)];
        let world = testkit::world(4, jobs);
        let out = testkit::simulate(&world, &mut Adaptive::new());
        let r0 = &out.records[0];
        assert!(!r0.killed);
        // Perfect-speedup model: 400 s of 2-node work on 4 nodes takes
        // ~200 s plus the charged reshape cost.
        assert!(
            r0.finish - r0.start < 250.0,
            "grow should shorten the run, took {}",
            r0.finish - r0.start
        );
    }

    #[test]
    fn rigid_jobs_are_never_reshaped() {
        let jobs = vec![job(0, 4, 200.0), job(1, 2, 50.0), job(2, 1, 20.0)];
        let world = testkit::world(4, jobs);
        let (_, trace) = traced(&world, &mut Adaptive::new());
        assert!(trace
            .events()
            .iter()
            .all(|e| !matches!(e, nodeshare_engine::TraceEvent::Reshape { .. })));
    }
}

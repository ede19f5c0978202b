//! Property tests: the cluster's allocation table, node lane state, and
//! capacity indices stay mutually consistent under arbitrary interleavings
//! of allocate/release/drain/resume operations, and the node journal
//! names every node those operations changed.

use nodeshare_cluster::{AdminState, AllocError, Cluster, ClusterSpec, JobId, NodeId, NodeSpec};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    AllocExclusive { job: u64, nodes: Vec<u32>, mem: u64 },
    AllocShared { job: u64, nodes: Vec<u32>, mem: u64 },
    Release { job: u64 },
    Drain { node: u32 },
    Resume { node: u32 },
}

const NODES: u32 = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    let node = 0..NODES;
    let nodes = prop::collection::vec(0..NODES, 1..4);
    let job = 0u64..12;
    let mem = 0u64..(NodeSpec::tiny().mem_mib + 1024);
    prop_oneof![
        (job.clone(), nodes.clone(), mem.clone())
            .prop_map(|(job, nodes, mem)| Op::AllocExclusive { job, nodes, mem }),
        (job.clone(), nodes, mem).prop_map(|(job, nodes, mem)| Op::AllocShared { job, nodes, mem }),
        job.prop_map(|job| Op::Release { job }),
        node.clone().prop_map(|node| Op::Drain { node }),
        node.prop_map(|node| Op::Resume { node }),
    ]
}

/// Applies one op, ignoring allocation errors (they change nothing).
fn apply(c: &mut Cluster, op: &Op) {
    let ids = |nodes: &[u32]| -> Vec<NodeId> { nodes.iter().copied().map(NodeId).collect() };
    match op {
        Op::AllocExclusive { job, nodes, mem } => {
            let _ = c.allocate_exclusive(JobId(*job), &ids(nodes), *mem);
        }
        Op::AllocShared { job, nodes, mem } => {
            let _ = c.allocate_shared(JobId(*job), &ids(nodes), *mem);
        }
        Op::Release { job } => {
            let _ = c.release(JobId(*job));
        }
        Op::Drain { node } => c.drain(NodeId(*node)).unwrap(),
        Op::Resume { node } => c.resume(NodeId(*node)).unwrap(),
    }
}

/// What a journal consumer may cache about one node: its lane owners in
/// lane order, admin state and free memory.
type NodeView = (Vec<Option<JobId>>, AdminState, u64);

fn node_views(c: &Cluster) -> Vec<NodeView> {
    c.nodes()
        .iter()
        .map(|n| {
            let mut lanes = vec![None; n.spec().smt as usize];
            for j in n.occupants() {
                for lane in n.lanes_of(j) {
                    lanes[lane.0 as usize] = Some(j);
                }
            }
            (lanes, n.admin_state(), n.mem_free())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every version `v` the journal still answers for, the nodes it
    /// names as touched since `v` cover every node whose lanes, admin
    /// state or memory differ from the snapshot taken at `v`; versions
    /// that were truncated away answer `None`, and the present version
    /// always answers with no node.
    #[test]
    fn journal_covers_every_changed_node(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        let mut snapshots = vec![(c.version(), node_views(&c))];
        for op in &ops {
            apply(&mut c, op);
            if snapshots.last().map(|s| s.0) != Some(c.version()) {
                snapshots.push((c.version(), node_views(&c)));
            }
            let now = node_views(&c);
            let mut answered = 0;
            for (v, then) in &snapshots {
                let Some(touched) = c.touched_since(*v) else {
                    // Once a version is truncated away, so is every
                    // older one.
                    prop_assert_eq!(answered, 0);
                    continue;
                };
                answered += 1;
                let touched: Vec<NodeId> = touched.collect();
                for (i, (a, b)) in then.iter().zip(&now).enumerate() {
                    if a != b {
                        prop_assert!(
                            touched.contains(&NodeId(i as u32)),
                            "node {} changed since version {} but is not journaled",
                            i,
                            v
                        );
                    }
                }
            }
            prop_assert!(c.touched_since(c.version()).is_some_and(|mut t| t.next().is_none()));
        }
    }

    /// After every operation — success or failure — all invariants hold,
    /// and failures leave state unchanged (atomicity).
    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        for op in ops {
            let before_allocs = c.allocation_count();
            let before_busy = c.busy_hw_threads();
            match op {
                Op::AllocExclusive { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    if c.allocate_exclusive(JobId(job), &ids, mem).is_err() {
                        prop_assert_eq!(c.allocation_count(), before_allocs);
                        prop_assert_eq!(c.busy_hw_threads(), before_busy);
                    }
                }
                Op::AllocShared { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    if c.allocate_shared(JobId(job), &ids, mem).is_err() {
                        prop_assert_eq!(c.allocation_count(), before_allocs);
                        prop_assert_eq!(c.busy_hw_threads(), before_busy);
                    }
                }
                Op::Release { job } => {
                    let had = c.allocation(JobId(job)).is_some();
                    let res = c.release(JobId(job));
                    prop_assert_eq!(res.is_ok(), had);
                }
                Op::Drain { node } => { c.drain(NodeId(node)).unwrap(); }
                Op::Resume { node } => { c.resume(NodeId(node)).unwrap(); }
            }
            if let Err(e) = c.check_invariants() {
                return Err(TestCaseError::fail(e));
            }
        }
        // Releasing everything returns the cluster to full idle capacity.
        let jobs: Vec<JobId> = c.allocations().map(|a| a.job).collect();
        for j in jobs {
            c.release(j).unwrap();
        }
        prop_assert_eq!(c.busy_hw_threads(), 0);
        prop_assert_eq!(c.busy_cores(), 0);
        c.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Memory is conserved: the sum of per-node used memory equals the sum
    /// over live allocations of `mem_per_node × node_count`.
    #[test]
    fn memory_is_conserved(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        for op in ops {
            match op {
                Op::AllocExclusive { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    let _ = c.allocate_exclusive(JobId(job), &ids, mem);
                }
                Op::AllocShared { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    let _ = c.allocate_shared(JobId(job), &ids, mem);
                }
                Op::Release { job } => { let _ = c.release(JobId(job)); }
                Op::Drain { node } => { c.drain(NodeId(node)).unwrap(); }
                Op::Resume { node } => { c.resume(NodeId(node)).unwrap(); }
            }
            let node_view: u64 = c.nodes().iter().map(|n| n.mem_used()).sum();
            let alloc_view: u64 = c
                .allocations()
                .map(|a| a.mem_per_node * a.node_count() as u64)
                .sum();
            prop_assert_eq!(node_view, alloc_view);
        }
    }

    /// A node never hosts more jobs than its SMT width, and never hosts the
    /// same job on two lanes.
    #[test]
    fn smt_bound_is_respected(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut c = Cluster::new(ClusterSpec::new(NODES, NodeSpec::tiny()));
        for op in ops {
            match op {
                Op::AllocExclusive { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    let _ = c.allocate_exclusive(JobId(job), &ids, mem);
                }
                Op::AllocShared { job, nodes, mem } => {
                    let ids: Vec<NodeId> = nodes.iter().copied().map(NodeId).collect();
                    let _ = c.allocate_shared(JobId(job), &ids, mem);
                }
                Op::Release { job } => { let _ = c.release(JobId(job)); }
                _ => {}
            }
            for n in c.nodes() {
                let occ = n.occupants();
                prop_assert!(occ.len() <= NodeSpec::tiny().smt as usize);
                for j in &occ {
                    // lanes_of is deduplicated occupancy: a shared job holds
                    // exactly one lane per node, an exclusive job all lanes.
                    let lanes = n.lanes_of(*j).len();
                    prop_assert!(lanes == 1 || lanes == NodeSpec::tiny().smt as usize);
                }
            }
        }
    }
}

#[test]
fn journal_truncates_and_clones_start_fresh() {
    // 2 nodes keep the last 8 node refreshes.
    let mut c = Cluster::new(ClusterSpec::new(2, NodeSpec::tiny()));
    c.allocate_shared(JobId(1), &[NodeId(0), NodeId(1)], 0)
        .unwrap();
    let v1 = c.version();
    c.set_down(NodeId(0)).unwrap_err();
    c.release(JobId(1)).unwrap();
    c.set_down(NodeId(1)).unwrap();
    let touched: Vec<NodeId> = c.touched_since(v1).unwrap().collect();
    assert_eq!(touched, [NodeId(0), NodeId(1), NodeId(1)]);
    for _ in 0..4 {
        c.drain(NodeId(0)).unwrap();
    }
    assert!(c.touched_since(0).is_none(), "version 0 was truncated away");
    assert!(c.touched_since(v1).is_some());
    for _ in 0..4 {
        c.resume(NodeId(0)).unwrap();
    }
    assert!(c.touched_since(v1).is_none());
    assert!(
        c.touched_since(c.version() + 1).is_none(),
        "a future version"
    );
    // A clone is a new instance whose journal covers only its own
    // mutations.
    let v = c.version();
    let mut d = c.clone();
    assert_ne!(d.instance_id(), c.instance_id());
    assert!(d.touched_since(v - 1).is_none());
    d.resume(NodeId(1)).unwrap();
    assert_eq!(d.touched_since(v).unwrap().collect::<Vec<_>>(), [NodeId(1)]);
    assert_eq!(c.touched_since(v).unwrap().count(), 0);
}

#[test]
fn shared_then_exclusive_conflict_is_clean() {
    let mut c = Cluster::new(ClusterSpec::test_small());
    c.allocate_shared(JobId(1), &[NodeId(0)], 0).unwrap();
    let err = c.allocate_exclusive(JobId(2), &[NodeId(0)], 0).unwrap_err();
    assert!(matches!(err, AllocError::Node(_)));
    c.check_invariants().unwrap();
}

//! Incremental planning state for the optimized scheduler hot path.
//!
//! The reference pickers in [`crate::util`] re-derive everything from the
//! cluster on every call: they walk all nodes for free times, allocate a
//! fresh occupant list per partial node, and re-evaluate the predictor
//! per (candidate, resident) pair. A saturated campaign calls them
//! millions of times against a cluster that changed only once in between.
//!
//! The `Planner` behind [`crate::Backfill`] and [`crate::FirstFit`] keeps
//! the derived state and updates it by *events* instead of recomputing it
//! per pass:
//!
//! * **Journal-refreshed node slots** — raw free time, free memory,
//!   eligibility and residents per node. When the cluster's `(instance,
//!   version)` stamp moves, only the nodes its journal names
//!   ([`Cluster::touched_since`]) are re-derived; a new cluster instance
//!   or a journal that no longer reaches back rebuilds every slot. The
//!   compact partial-node list is rebuilt from the slots only when a
//!   touched node was or is partial.
//! * **Per-app candidate lists** — for each candidate app, the eligible
//!   partial nodes whose resident stack accepts it, sorted by (pairing
//!   score desc, node id). A list is built lazily, the first time a
//!   queued job of that app asks after the partial nodes changed; an
//!   evaluation then walks it applying only the job-dependent filters
//!   (reservation, memory, duration match at `now`) and takes the first
//!   `k`.
//! * **Reservation as a bitset** — the head reservation is a shadow time
//!   plus a `Vec<bool>` over node ids, computed once per pass with a
//!   selection (not a full sort) over the slots' free times.
//! * **Pairing table** — all pairwise policy answers come from the dense
//!   [`PairingTable`] instead of predictor evaluations.
//! * **Exact upper bound** — an attempt that cannot assemble `k` nodes
//!   from its list, the memory-fitting partial nodes and the allowed idle
//!   nodes exits before walking anything (`bound_exits`).
//!
//! Every shortcut here is *exact*: for any context, the pickers return
//! bit-identical results to [`crate::util::pick_exclusive`] and
//! [`crate::util::pick_shared`] — `tests/differential.rs` holds the
//! optimized strategies to byte-equal decision traces against the
//! reference implementations, and `crates/core/tests/prop_planner.rs`
//! holds the journal-refreshed state to a from-scratch rebuild at every
//! pass.
//!
//! [`Cluster::touched_since`]: nodeshare_cluster::Cluster::touched_since

use crate::pairing::Pairing;
use crate::pairtab::PairingTable;
use crate::util::PLAN_EPS;
use nodeshare_cluster::{AdminState, JobId, NodeId};
use nodeshare_engine::SchedContext;
use nodeshare_perf::AppId;
use nodeshare_workload::JobSpec;

/// One resident of a node, denormalized from the running map.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Resident {
    job: JobId,
    app: AppId,
    est_end: f64,
    nodes: u32,
}

const NO_RESIDENT: Resident = Resident {
    job: JobId(0),
    app: AppId(0),
    est_end: 0.0,
    nodes: 0,
};

/// Cached planning facts of one node. Its distinct residents live in
/// `Planner::residents` at stride `smt` from `node × smt`, so a slot is
/// re-derived in place without allocating.
#[derive(Clone, Copy, Debug, PartialEq)]
struct NodeSlot {
    /// Max `est_end` over running lane owners; −∞ when there are none
    /// (clamped to `now` at reservation time, matching the reference
    /// fold that starts at `now`).
    free_raw: f64,
    mem_free: u64,
    up: bool,
    /// In the cluster's partial index: up, occupied, a lane free.
    partial: bool,
    /// Every resident is known to the running map and share-eligible —
    /// the per-resident preconditions that do not depend on the candidate.
    eligible: bool,
    /// Residents stored for the node (0 when not eligible).
    res_len: u8,
}

const EMPTY_SLOT: NodeSlot = NodeSlot {
    free_raw: f64::NEG_INFINITY,
    mem_free: 0,
    up: false,
    partial: false,
    eligible: false,
    res_len: 0,
};

/// One candidate app's compatible eligible partial nodes with their
/// pairing scores, sorted by (score desc, node id).
#[derive(Clone, Debug, Default)]
struct PairingList {
    /// `Planner::list_gen` the entries were built for.
    gen: u64,
    entries: Vec<(NodeId, f64)>,
}

/// Event-invalidated planning cache + allocation-free picker scratch.
#[derive(Clone, Debug)]
pub(crate) struct Planner {
    table: PairingTable,
    /// Cluster stamp the slots were derived for.
    cache_key: Option<(u64, u64)>,
    smt: usize,
    slots: Vec<NodeSlot>,
    residents: Vec<Resident>,
    up_count: usize,
    /// Partial nodes in id order.
    partials: Vec<NodeId>,
    eligible_count: usize,
    /// Ascending `mem_free` of all partial nodes, for the memory term of
    /// the upper bound.
    mem_sorted: Vec<u64>,
    /// Bumped whenever the partial nodes' slots change; a list built for
    /// an older generation is rebuilt on its next use.
    list_gen: u64,
    /// Indexed by candidate app.
    lists: Vec<PairingList>,
    // Per-pass reservation state.
    shadow: f64,
    reserved: Vec<bool>,
    reserved_idle: usize,
    eligible_unreserved: usize,
    unreserved_partials: usize,
    // Scratch buffers reused across calls.
    sort_buf: Vec<(NodeId, f64)>,
    touched_buf: Vec<NodeId>,
    nodes_buf: Vec<NodeId>,
    apps_buf: Vec<AppId>,
    partner_buf: Vec<(JobId, u32, f64)>,
}

impl Planner {
    pub fn new(pairing: &Pairing) -> Self {
        Planner {
            table: PairingTable::build(pairing),
            cache_key: None,
            smt: 0,
            slots: Vec::new(),
            residents: Vec::new(),
            up_count: 0,
            partials: Vec::new(),
            eligible_count: 0,
            mem_sorted: Vec::new(),
            list_gen: 0,
            lists: Vec::new(),
            shadow: f64::INFINITY,
            reserved: Vec::new(),
            reserved_idle: 0,
            eligible_unreserved: 0,
            unreserved_partials: 0,
            sort_buf: Vec::new(),
            touched_buf: Vec::new(),
            nodes_buf: Vec::new(),
            apps_buf: Vec::new(),
            partner_buf: Vec::new(),
        }
    }

    /// Partial nodes whose whole stack could accept *some* candidate.
    #[inline]
    pub fn eligible_partial_count(&self) -> usize {
        self.eligible_count
    }

    /// The current pass's shadow time (∞ before a reservation is set).
    #[inline]
    pub fn shadow(&self) -> f64 {
        self.shadow
    }

    /// Starts one scheduling pass: brings the slots up to the cluster's
    /// stamp and resets the reservation to "none" (shadow ∞, nothing
    /// restricted).
    pub fn begin_pass(&mut self, ctx: &SchedContext<'_>) {
        self.refresh(ctx);
        self.shadow = f64::INFINITY;
        self.reserved.fill(false);
        self.reserved_idle = 0;
        self.eligible_unreserved = self.eligible_count;
        self.unreserved_partials = self.partials.len();
    }

    /// Re-derives the slots of the nodes touched since the cached stamp
    /// (every slot on a new cluster instance or a truncated journal),
    /// then the partial-node summary if any touched node was or is
    /// partial.
    ///
    /// Sound because a slot reads only its node and the running entries
    /// of the node's residents, and every change to either passes through
    /// the journal: a job's `kill_at` (its `est_end`) and width change
    /// only when it starts or is reshaped, and both allocate every node
    /// it ends up on (a reshape releases the old set first).
    fn refresh(&mut self, ctx: &SchedContext<'_>) {
        let key = ctx.cluster.stamp();
        if self.cache_key == Some(key) {
            return;
        }
        let mut touched = std::mem::take(&mut self.touched_buf);
        touched.clear();
        let incremental = match self.cache_key {
            Some((instance, version)) if instance == key.0 => ctx
                .cluster
                .touched_since(version)
                .map(|nodes| touched.extend(nodes))
                .is_some(),
            _ => false,
        };
        let mut partials_changed = !incremental;
        if incremental {
            touched.sort_unstable();
            touched.dedup();
            for &id in &touched {
                let was_partial = self.slots[id.index()].partial;
                self.derive_slot(ctx, id);
                partials_changed |= was_partial || self.slots[id.index()].partial;
            }
        } else {
            let n = ctx.cluster.node_count();
            self.smt = ctx.cluster.spec().node.smt as usize;
            self.slots.clear();
            self.slots.resize(n, EMPTY_SLOT);
            self.residents.clear();
            self.residents.resize(n * self.smt, NO_RESIDENT);
            self.reserved.clear();
            self.reserved.resize(n, false);
            self.up_count = 0;
            touched.extend(ctx.cluster.nodes().iter().map(|node| node.id()));
            for &id in &touched {
                self.derive_slot(ctx, id);
            }
        }
        if let Some(t) = ctx.telemetry {
            t.planner_nodes_refreshed.add(touched.len() as u64);
        }
        self.touched_buf = touched;
        if partials_changed {
            self.partials.clear();
            self.mem_sorted.clear();
            self.eligible_count = 0;
            for id in ctx.cluster.partial_nodes() {
                let slot = &self.slots[id.index()];
                self.partials.push(id);
                self.mem_sorted.push(slot.mem_free);
                self.eligible_count += slot.eligible as usize;
            }
            self.mem_sorted.sort_unstable();
            self.list_gen += 1;
        }
        self.cache_key = Some(key);
    }

    /// Re-derives one node's slot and residents from the cluster and the
    /// running map.
    fn derive_slot(&mut self, ctx: &SchedContext<'_>, id: NodeId) {
        let node = &ctx.cluster.nodes()[id.index()];
        let base = id.index() * self.smt;
        let up = node.admin_state() == AdminState::Up;
        let mut free_raw = f64::NEG_INFINITY;
        let mut eligible = true;
        let mut len = 0;
        for j in node.lane_owners() {
            let summary = ctx.running.get(&j);
            if let Some(r) = summary {
                free_raw = free_raw.max(r.est_end());
            }
            if !eligible || self.residents[base..base + len].iter().any(|r| r.job == j) {
                continue;
            }
            match summary {
                Some(r) if r.share_eligible => {
                    self.residents[base + len] = Resident {
                        job: j,
                        app: r.app,
                        est_end: r.est_end(),
                        nodes: r.nodes,
                    };
                    len += 1;
                }
                // Unknown or non-eligible resident: the node can never
                // host a co-runner, whatever the candidate.
                _ => eligible = false,
            }
        }
        let slot = &mut self.slots[id.index()];
        self.up_count = self.up_count - slot.up as usize + up as usize;
        *slot = NodeSlot {
            free_raw,
            mem_free: node.mem_free(),
            up,
            partial: up && !node.is_idle() && node.free_lane_count() > 0,
            eligible,
            res_len: if eligible { len as u8 } else { 0 },
        };
    }

    /// Computes the head reservation for `k` nodes: same shadow and same
    /// reserved-node set as [`crate::util::HeadReservation::compute`],
    /// via a selection over the slots' free times instead of a full sort
    /// (the `(free time, id)` key is a unique total order, so the k
    /// smallest — and the k-th itself — are identical).
    pub fn compute_reservation(&mut self, ctx: &SchedContext<'_>, k: usize) {
        assert!(k >= 1, "reservation for a zero-node head");
        self.reserved.fill(false);
        if self.up_count < k {
            self.shadow = f64::INFINITY;
            self.reserved_idle = 0;
            self.eligible_unreserved = self.eligible_count;
            self.unreserved_partials = self.partials.len();
            return;
        }
        self.sort_buf.clear();
        self.sort_buf.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.up)
                .map(|(i, s)| (NodeId(i as u32), s.free_raw.max(ctx.now))),
        );
        self.sort_buf
            .select_nth_unstable_by(k - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.shadow = self.sort_buf[k - 1].1;
        for &(n, _) in &self.sort_buf[..k] {
            self.reserved[n.index()] = true;
        }
        self.reserved_idle = ctx
            .cluster
            .idle_nodes()
            .filter(|n| self.reserved[n.index()])
            .count();
        self.eligible_unreserved = 0;
        self.unreserved_partials = 0;
        for p in &self.partials {
            if !self.reserved[p.index()] {
                self.unreserved_partials += 1;
                self.eligible_unreserved += self.slots[p.index()].eligible as usize;
            }
        }
    }

    /// [`crate::util::pick_exclusive`] with `allowed = !restricted-or-
    /// unreserved`, in O(k): idle nodes always have their full memory
    /// free (memory is charged with lanes and released with them), so the
    /// per-node memory check collapses to one capacity comparison and the
    /// result is simply the first `k` allowed idle ids.
    pub fn pick_exclusive(
        &self,
        ctx: &SchedContext<'_>,
        job: &JobSpec,
        restricted: bool,
    ) -> Option<Vec<NodeId>> {
        let k = job.nodes as usize;
        if k == 0 {
            return Some(Vec::new());
        }
        if u64::from(job.mem_per_node_mib) > ctx.cluster.spec().node.mem_mib {
            return None;
        }
        let avail = ctx.cluster.idle_count() - if restricted { self.reserved_idle } else { 0 };
        if k > avail {
            return None;
        }
        let picked: Vec<NodeId> = if restricted {
            ctx.cluster
                .idle_nodes()
                .filter(|n| !self.reserved[n.index()])
                .take(k)
                .collect()
        } else {
            ctx.cluster.idle_nodes().take(k).collect()
        };
        debug_assert_eq!(picked.len(), k);
        Some(picked)
    }

    /// [`crate::util::pick_shared`] against the cached state. Attempts
    /// that provably cannot assemble `k` nodes exit before walking
    /// anything; the rest walk the app's candidate list.
    pub fn pick_shared(
        &mut self,
        ctx: &SchedContext<'_>,
        job: &JobSpec,
        pairing: &Pairing,
        restricted: bool,
    ) -> Option<Vec<NodeId>> {
        if !job.share_eligible || !self.table.sharing_enabled() {
            return None;
        }
        let k = job.nodes as usize;
        let idle_ok = u64::from(job.mem_per_node_mib) <= ctx.cluster.spec().node.mem_mib;
        // Upper bound on assemblable nodes — never below the true count,
        // so the exit is exact: eligible partial nodes passing the
        // reservation and memory filters, capped by the app's list
        // length, plus allowed idle nodes.
        let fit_mem = self.partials.len()
            - self
                .mem_sorted
                .partition_point(|&m| m < u64::from(job.mem_per_node_mib));
        let avail_partials = if restricted {
            self.eligible_unreserved
        } else {
            self.eligible_count
        }
        .min(fit_mem);
        let avail_idle = if idle_ok {
            ctx.cluster.idle_count() - if restricted { self.reserved_idle } else { 0 }
        } else {
            0
        };
        if k > avail_partials + avail_idle
            || k > self.list(ctx, pairing, job.app).min(avail_partials) + avail_idle
        {
            if let Some(tm) = ctx.telemetry {
                tm.bound_exits.inc();
            }
            return None;
        }
        let net_gain = {
            let _pairing_span = ctx.telemetry.and_then(|tm| tm.sample_pairing());
            self.plan_and_eval(ctx, job, pairing, restricted, k, idle_ok)
        };
        match net_gain {
            Some(net_gain) if net_gain > pairing.net_gain_floor => Some(self.nodes_buf.clone()),
            _ => None,
        }
    }

    /// Brings `app`'s candidate list up to the current generation and
    /// returns its length: the eligible partial nodes whose resident
    /// stack accepts `app`, with the reference's score (the minimum
    /// pairwise score over the stack), sorted by (score desc, node id) —
    /// a unique total order, so the unstable sort is deterministic.
    fn list(&mut self, ctx: &SchedContext<'_>, pairing: &Pairing, app: AppId) -> usize {
        if app.index() >= self.lists.len() {
            self.lists
                .resize_with(app.index() + 1, PairingList::default);
        }
        if self.lists[app.index()].gen != self.list_gen {
            let mut entries = std::mem::take(&mut self.lists[app.index()].entries);
            entries.clear();
            for &node in &self.partials {
                if !self.slots[node.index()].eligible {
                    continue;
                }
                let res = stack(&self.residents, &self.slots, self.smt, node);
                let mut score = f64::INFINITY;
                for r in res {
                    score = score.min(self.table.score(pairing, app, r.app));
                }
                let ok = match res {
                    [r] => self.table.allows(pairing, app, r.app),
                    _ => {
                        self.apps_buf.clear();
                        self.apps_buf.extend(res.iter().map(|r| r.app));
                        self.table.allows_stack(pairing, app, &self.apps_buf)
                    }
                };
                if ok {
                    entries.push((node, score));
                }
            }
            entries.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            self.lists[app.index()] = PairingList {
                gen: self.list_gen,
                entries,
            };
            if let Some(t) = ctx.telemetry {
                t.pairing_list_builds.inc();
            }
        }
        self.lists[app.index()].entries.len()
    }

    /// The body of [`crate::util::plan_shared`] over the app's candidate
    /// list: the reference's filters, applied to nodes already in the
    /// reference's sort order, pick the same first `k` partial nodes, and
    /// the rate/loss fold runs over them in that order — so rates and the
    /// net gain come out bit-identical. Leaves the chosen nodes in
    /// `nodes_buf` and returns the net gain.
    ///
    /// With telemetry attached the walk goes on past the `k`-th node to
    /// count every node passing the filters as a pairing hit, the count
    /// the reference reports; the queries (unreserved partial nodes) are
    /// known without walking.
    fn plan_and_eval(
        &mut self,
        ctx: &SchedContext<'_>,
        job: &JobSpec,
        pairing: &Pairing,
        restricted: bool,
        k: usize,
        idle_ok: bool,
    ) -> Option<f64> {
        let cand_bound = job.walltime_estimate * ctx.shared_grace.max(1.0);
        let mut hits = 0u64;
        self.nodes_buf.clear();
        'nodes: for &(node, _) in &self.lists[job.app.index()].entries {
            if restricted && self.reserved[node.index()] {
                continue;
            }
            if self.slots[node.index()].mem_free < u64::from(job.mem_per_node_mib) {
                continue;
            }
            if let Some(theta) = pairing.duration_match {
                for r in stack(&self.residents, &self.slots, self.smt, node) {
                    let remaining = (r.est_end - ctx.now).max(0.0);
                    let overlap = remaining.min(cand_bound) / remaining.max(cand_bound).max(1e-9);
                    if overlap < theta {
                        continue 'nodes;
                    }
                }
            }
            hits += 1;
            if self.nodes_buf.len() < k {
                self.nodes_buf.push(node);
            } else if ctx.telemetry.is_none() {
                break;
            }
        }
        if let Some(t) = ctx.telemetry {
            t.pairing_queries.add(if restricted {
                self.unreserved_partials
            } else {
                self.partials.len()
            } as u64);
            t.pairing_hits.add(hits);
        }
        let chosen = self.nodes_buf.len();
        if chosen < k && idle_ok {
            let need = k - chosen;
            if restricted {
                self.nodes_buf.extend(
                    ctx.cluster
                        .idle_nodes()
                        .filter(|n| !self.reserved[n.index()])
                        .take(need),
                );
            } else {
                self.nodes_buf.extend(ctx.cluster.idle_nodes().take(need));
            }
        }
        if self.nodes_buf.len() < k {
            return None;
        }
        // Idle nodes host no residents, so only the chosen partial nodes
        // contribute to the rates and losses.
        let mut candidate_rate = 1.0f64;
        self.partner_buf.clear();
        for &node in &self.nodes_buf[..chosen] {
            let res = stack(&self.residents, &self.slots, self.smt, node);
            match res {
                [r] => {
                    let (cr, rr) = self.table.stack_pair(pairing, job.app, r.app);
                    candidate_rate = candidate_rate.min(cr);
                    update_partner(&mut self.partner_buf, r, rr);
                }
                _ => {
                    self.apps_buf.clear();
                    self.apps_buf.extend(res.iter().map(|r| r.app));
                    let sr = self.table.stack_rates(pairing, job.app, &self.apps_buf);
                    candidate_rate = candidate_rate.min(sr.candidate);
                    for (r, &rate) in res.iter().zip(&sr.residents) {
                        update_partner(&mut self.partner_buf, r, rate);
                    }
                }
            }
        }
        let losses: f64 = self
            .partner_buf
            .iter()
            .map(|&(_, nodes, rate)| nodes as f64 * (1.0 - rate))
            .sum();
        Some(k as f64 * candidate_rate - losses)
    }
}

impl Planner {
    /// Holds the journal-refreshed state to a from-scratch rebuild — node
    /// slots and residents, the partial list, the eligible count, the
    /// memory ranks — and the candidate list of every app the planner
    /// holds a current list for or `ctx` queues to a brute-force
    /// filter-and-sort over the cluster's partial nodes, using the
    /// reference [`Pairing`] answers. Returns `Ok(false)` without
    /// checking when the planner has not been refreshed to `ctx`'s stamp.
    ///
    /// Brings the lists of queued apps up to date, which changes no
    /// later decision: a list is a function of the refreshed state. The
    /// check's own work is not counted in `ctx`'s telemetry.
    pub(crate) fn check_against_rebuild(
        &mut self,
        ctx: &SchedContext<'_>,
        pairing: &Pairing,
    ) -> Result<bool, String> {
        if self.cache_key != Some(ctx.cluster.stamp()) {
            return Ok(false);
        }
        let ctx = &SchedContext {
            telemetry: None,
            ..*ctx
        };
        let mut fresh = Planner::new(pairing);
        fresh.refresh(ctx);
        for (i, (mine, want)) in self.slots.iter().zip(&fresh.slots).enumerate() {
            let node = NodeId(i as u32);
            if mine != want
                || stack(&self.residents, &self.slots, self.smt, node)
                    != stack(&fresh.residents, &fresh.slots, fresh.smt, node)
            {
                return Err(format!(
                    "slot of {node} diverged: {mine:?} vs rebuilt {want:?}"
                ));
            }
        }
        if self.slots.len() != fresh.slots.len()
            || self.up_count != fresh.up_count
            || self.partials != fresh.partials
            || self.eligible_count != fresh.eligible_count
            || self.mem_sorted != fresh.mem_sorted
        {
            return Err(format!(
                "partial summary diverged: {:?}/{}/{} vs rebuilt {:?}/{}/{}",
                self.partials,
                self.eligible_count,
                self.up_count,
                fresh.partials,
                fresh.eligible_count,
                fresh.up_count
            ));
        }
        let mut apps: Vec<AppId> = (0..self.lists.len())
            .filter(|&i| self.lists[i].gen == self.list_gen)
            .map(|i| AppId(i as u8))
            .chain(ctx.queue.iter().map(|j| j.app))
            .collect();
        apps.sort_unstable();
        apps.dedup();
        for app in apps {
            self.list(ctx, pairing, app);
            let want = brute_force_list(ctx, pairing, app);
            let mine: Vec<(NodeId, u64)> = self.lists[app.index()]
                .entries
                .iter()
                .map(|&(n, s)| (n, s.to_bits()))
                .collect();
            if mine != want {
                return Err(format!(
                    "list of app {} diverged: {mine:?} vs brute force {want:?}",
                    app.index()
                ));
            }
        }
        Ok(true)
    }
}

/// `app`'s candidate list straight from the cluster, the running map and
/// the reference pairing answers: every partial node whose residents are
/// all running and share-eligible and whose stack accepts `app`, as
/// `(node, score bits)` sorted by (score desc, node id).
fn brute_force_list(ctx: &SchedContext<'_>, pairing: &Pairing, app: AppId) -> Vec<(NodeId, u64)> {
    let mut out: Vec<(NodeId, f64)> = Vec::new();
    'nodes: for n in ctx.cluster.partial_nodes() {
        let mut apps = Vec::new();
        for j in ctx.cluster.nodes()[n.index()].occupants() {
            match ctx.running.get(&j) {
                Some(r) if r.share_eligible => apps.push(r.app),
                _ => continue 'nodes,
            }
        }
        if pairing.allows_stack(app, &apps) {
            let score = apps
                .iter()
                .map(|&a| pairing.score(app, a))
                .fold(f64::INFINITY, f64::min);
            out.push((n, score));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.into_iter().map(|(n, s)| (n, s.to_bits())).collect()
}

/// The residents stored for `node`: `res_len` of them from `node × smt`.
#[inline]
fn stack<'a>(
    residents: &'a [Resident],
    slots: &[NodeSlot],
    smt: usize,
    node: NodeId,
) -> &'a [Resident] {
    let base = node.index() * smt;
    &residents[base..base + slots[node.index()].res_len as usize]
}

/// Tracks each distinct partner once at its worst predicted rate, in
/// first-encounter order (the order the reference's loss sum uses).
fn update_partner(buf: &mut Vec<(JobId, u32, f64)>, r: &Resident, rate: f64) {
    match buf.iter_mut().find(|p| p.0 == r.job) {
        Some(p) => p.2 = p.2.min(rate),
        None => buf.push((r.job, r.nodes, rate)),
    }
}

/// Incrementally maintained availability profile for conservative
/// backfill — the diffable reservation timeline behind the optimized
/// [`crate::Conservative`] path.
///
/// The reference implementation rebuilds an
/// [`crate::util::AvailabilityProfile`] from the context on every
/// scheduling pass and then, per queued job, runs an `earliest_fit` that
/// rescans every step per candidate and a `reserve` that re-sorts and
/// rebuilds the whole step vector. At a 4096-deep queue that is the
/// quadratic outlier of the F6 table (~285 ms per decision).
///
/// This structure produces **bit-identical plans** (same candidate
/// comparisons, same `PLAN_EPS` expressions, same step merging) with
/// three incremental layers:
///
/// 1. **Version-keyed base** — the sorted `(est_end, nodes)` release
///    list is cached under the cluster [`stamp`](nodeshare_cluster::Cluster::stamp)
///    and re-sorted only when an allocation or release actually happened;
///    per pass it is clamped to `now` and merged into the step vector in
///    one O(R) sweep.
/// 2. **Allocation-free planning** — `earliest_fit` walks candidates and
///    deficient steps with two monotone cursors (amortized O(S) per job
///    instead of O(S²)), and `reserve` splices the two breakpoints in
///    place instead of rebuilding. A request above the final level (the
///    whole machine once every reservation has ended) can never fit and
///    plans to ∞ in O(1) without touching the steps.
/// 3. **Cross-pass placement cache** — the planned queue prefix and its
///    steps carry over to the next pass instead of being re-planned:
///    when a pass ends with no decision the prefix is sealed, and a later
///    pass with an equal stamp (or an anchor move the plan provably
///    ignores) resumes at the first new job; when a pass starts a job
///    that was planned exactly at `now`, [`ReservationTimeline::commit_start`]
///    keeps the prefix and the next pass resumes at the started job's
///    index (see [`ReservationTimeline::begin_pass`] for the exact
///    soundness conditions of both).
///
/// `crates/core/tests/prop_profile.rs` checks the timeline step-for-step
/// against a from-scratch rebuild at every decision point of randomized
/// campaigns, and `tests/differential.rs` holds the full strategy to
/// byte-equal traces against [`crate::Conservative::reference`].
#[derive(Clone, Debug, Default)]
pub struct ReservationTimeline {
    /// Cluster stamp the `ends` cache was built for.
    cache_key: Option<(u64, u64)>,
    /// Raw (unclamped) `(est_end, nodes)` of all running jobs, sorted by
    /// time — the version-keyed base the per-pass profile derives from.
    ends: Vec<(f64, i64)>,
    /// The working profile: `(time, free_node_count)` breakpoints,
    /// strictly time-ascending, value holds until the next breakpoint.
    /// Identical contents to the reference profile's steps at every
    /// point of the planning loop.
    steps: Vec<(f64, i64)>,
    /// How the planned prefix may carry over to the next pass.
    carry: Carry,
    /// Whether any planned reservation was anchored at `now` (start ≤
    /// `now + PLAN_EPS`), which makes the profile sensitive to where the
    /// anchor sits.
    memo_anchored: bool,
    /// `memo_anchored` as it was before the last planned job, restored
    /// when that job starts instead of being reserved.
    anchored_before_last: bool,
    /// Queue prefix (job ids, in order) the retained steps account for.
    memo_ids: Vec<JobId>,
    /// `now` of the pass currently being planned.
    pass_now: f64,
}

/// What the last pass left for the next one to resume from.
#[derive(Clone, Copy, Debug, Default)]
enum Carry {
    /// Nothing: the next pass rebuilds.
    #[default]
    None,
    /// A pass at `now` ended with no decision ([`ReservationTimeline::seal`]).
    Sealed { now: f64 },
    /// A pass committed a start in place
    /// ([`ReservationTimeline::commit_start`]). It stands if the next pass
    /// sees the same instant, exactly one cluster mutation since `key`,
    /// and `job` running until `end` on `nodes` nodes.
    Started {
        job: JobId,
        now: f64,
        key: (u64, u64),
        end: f64,
        nodes: i64,
    },
}

impl ReservationTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a scheduling pass and returns the queue index to resume
    /// planning at: `0` means the profile was rebuilt and every queued
    /// job must be planned; `n > 0` means the first `n` jobs are already
    /// accounted for by the retained steps and planning continues at
    /// `queue[n..]`.
    ///
    /// After a pass that committed a start in place
    /// ([`ReservationTimeline::commit_start`]) the prefix planned before
    /// the started job is reused when `now` is unchanged, the cluster
    /// instance is the same with its version exactly one higher, the
    /// started job runs with exactly the reserved end and node count, and
    /// the queue still begins with the prefix. Then the only change since
    /// the pass is that job's start, whose window the steps already
    /// reserve; its release joins the `ends` cache in place and planning
    /// resumes at its old index.
    ///
    /// After a sealed no-decision pass the prefix is reusable when the
    /// cluster stamp is unchanged (equal stamps mean identical occupancy,
    /// so the base profile and every prefix decision replay identically),
    /// the queued job ids still match the sealed prefix, and either
    ///
    /// * `now` is unchanged (the engine re-invokes the policy within one
    ///   instant until it returns no decision), or
    /// * `now` advanced, no reservation was anchored at the old `now`,
    ///   and no profile breakpoint lies in `(old now, new now + PLAN_EPS]`.
    ///   A job's `now` candidate then either failed its count check in
    ///   both passes (the anchor level is unchanged) or failed on a
    ///   deficient step after `old now + PLAN_EPS`, which also lies after
    ///   `new now + PLAN_EPS` and still inside the shifted window; every
    ///   later candidate is the same breakpoint in both passes. The fresh
    ///   rebuild would produce these exact steps with the anchor moved,
    ///   so the anchor is moved in place.
    pub fn begin_pass(&mut self, ctx: &SchedContext<'_>) -> usize {
        self.pass_now = ctx.now;
        let key = ctx.cluster.stamp();
        // Whatever resumes is re-sealed or re-committed by this pass.
        match std::mem::take(&mut self.carry) {
            Carry::Started {
                job,
                now,
                key: old,
                end,
                nodes,
            } if ctx.now == now
                && key.0 == old.0
                && key.1 == old.1.wrapping_add(1)
                && ctx.running.get(&job).is_some_and(|r| {
                    r.est_end().to_bits() == end.to_bits() && r.nodes as i64 == nodes
                })
                && self.prefix_matches(ctx) =>
            {
                let at = self.ends.partition_point(|e| e.0 <= end);
                self.ends.insert(at, (end, nodes));
                self.cache_key = Some(key);
                return self.memo_ids.len();
            }
            Carry::Sealed { now } if self.cache_key == Some(key) && self.prefix_matches(ctx) => {
                if ctx.now == now {
                    return self.memo_ids.len();
                }
                if ctx.now > now
                    && !self.memo_anchored
                    && self.no_breakpoint_in(now, ctx.now + PLAN_EPS)
                {
                    self.steps[0].0 = ctx.now;
                    return self.memo_ids.len();
                }
            }
            _ => {}
        }
        self.rebuild(ctx, key);
        0
    }

    /// Whether the queue still begins with the planned prefix.
    fn prefix_matches(&self, ctx: &SchedContext<'_>) -> bool {
        self.memo_ids.len() <= ctx.queue.len()
            && self.memo_ids.iter().zip(ctx.queue).all(|(m, j)| *m == j.id)
    }

    /// Rebuilds the working steps from the (possibly refreshed) base:
    /// idle nodes free at `now`, each running job returning its nodes at
    /// `max(est_end, now)` — the same deltas, ordering, and equal-time
    /// merging as [`crate::util::AvailabilityProfile::from_context`].
    fn rebuild(&mut self, ctx: &SchedContext<'_>, key: (u64, u64)) {
        if self.cache_key != Some(key) {
            self.ends.clear();
            self.ends
                .extend(ctx.running.values().map(|r| (r.est_end(), r.nodes as i64)));
            self.ends.sort_by(|a, b| a.0.total_cmp(&b.0));
            self.cache_key = Some(key);
        }
        let now = ctx.now;
        // Releases at or before `now` clamp onto the anchor, exactly as
        // the reference's `max(est_end, now)` merges them there.
        let cut = self.ends.partition_point(|e| e.0 <= now);
        let mut level = ctx.cluster.idle_count() as i64;
        for e in &self.ends[..cut] {
            level += e.1;
        }
        self.steps.clear();
        self.steps.push((now, level));
        for &(t, k) in &self.ends[cut..] {
            level += k;
            match self.steps.last_mut() {
                Some(last) if last.0 == t => last.1 = level,
                _ => self.steps.push((t, level)),
            }
        }
        self.memo_ids.clear();
        self.memo_anchored = false;
    }

    /// Whether no breakpoint time `t` satisfies `lo < t ≤ hi`.
    fn no_breakpoint_in(&self, lo: f64, hi: f64) -> bool {
        let i = self.steps.partition_point(|s| s.0 <= lo);
        i >= self.steps.len() || self.steps[i].0 > hi
    }

    /// Plans one queued job: earliest `t ≥ now` with `nodes` free
    /// throughout `[t, t + duration)`, bit-identical to
    /// [`crate::util::AvailabilityProfile::earliest_fit`], plus the
    /// cross-pass memo bookkeeping. The caller then either starts the
    /// job (and must [`ReservationTimeline::commit_start`]) or commits
    /// the finite plan with [`ReservationTimeline::reserve`].
    pub fn plan(&mut self, id: JobId, nodes: i64, duration: f64) -> f64 {
        self.memo_ids.push(id);
        self.anchored_before_last = self.memo_anchored;
        // Past the last breakpoint every running job and reservation has
        // ended, so the last level is the profile's maximum: a request
        // above it fails every candidate's count check, and one at or
        // below it fits at the last breakpoint at the latest.
        if self.steps.last().is_some_and(|s| nodes > s.1) {
            debug_assert!(self
                .earliest_fit(self.pass_now, nodes, duration)
                .is_infinite());
            return f64::INFINITY;
        }
        let start = self.earliest_fit(self.pass_now, nodes, duration);
        if start <= self.pass_now + PLAN_EPS {
            self.memo_anchored = true;
        }
        start
    }

    /// The reference `earliest_fit` with two monotone cursors. The
    /// candidate sequence (`from`, then each breakpoint after it) and
    /// every comparison — `free_at(t) < nodes`, `st > t + PLAN_EPS`,
    /// `st < end - PLAN_EPS` — are the reference's own expressions; only
    /// the rescans are gone: the deficient-step cursor `q` never moves
    /// backwards because both of its conditions are monotone in the
    /// candidate time (a breakpoint inside the epsilon guard for one
    /// candidate stays inside it for every later candidate, and a level
    /// `≥ nodes` never becomes deficient within one call).
    fn earliest_fit(&self, from: f64, nodes: i64, duration: f64) -> f64 {
        let steps = &self.steps[..];
        let n = steps.len();
        let first_after = steps.partition_point(|s| s.0 <= from);
        let mut free = if first_after > 0 {
            steps[first_after - 1].1
        } else {
            0
        };
        let mut t = from;
        let mut i = first_after;
        let mut q = 0usize;
        loop {
            if free >= nodes {
                let end = t + duration;
                while q < n && !(steps[q].0 > t + PLAN_EPS && steps[q].1 < nodes) {
                    q += 1;
                }
                if !(q < n && steps[q].0 < end - PLAN_EPS) {
                    return t;
                }
            }
            if i >= n {
                return f64::INFINITY;
            }
            t = steps[i].0;
            free = steps[i].1;
            i += 1;
        }
    }

    /// Subtracts `nodes` during `[start, start + duration)` — the
    /// committed reservation of a planned job. Equivalent to the
    /// reference's delta-rebuild: the two breakpoints are spliced in with
    /// the pre-existing level (so a zero-length reservation still leaves
    /// its breakpoint, as the rebuild would) and the covered range is
    /// decremented in place.
    pub fn reserve(&mut self, start: f64, duration: f64, nodes: i64) {
        let end = start + duration;
        let i0 = self.ensure_breakpoint(start);
        let i1 = self.ensure_breakpoint(end);
        for s in &mut self.steps[i0..i1] {
            s.1 -= nodes;
        }
    }

    /// Index of the breakpoint at exactly `t`, inserting one carrying the
    /// current level if absent. (Times here are non-negative event times,
    /// so the `total_cmp` search agrees with the reference's `==` merge;
    /// there is no `-0.0` to disagree on.)
    fn ensure_breakpoint(&mut self, t: f64) -> usize {
        match self.steps.binary_search_by(|s| s.0.total_cmp(&t)) {
            Ok(i) => i,
            Err(i) => {
                let level = if i > 0 { self.steps[i - 1].1 } else { 0 };
                self.steps.insert(i, (t, level));
                i
            }
        }
    }

    /// Records that the job planned last is being started on `nodes`
    /// nodes for `duration` (its estimate) from its planned `start`, and
    /// keeps the prefix planned before it for the next pass.
    ///
    /// The engine then runs the job until `now + duration`, so a rebuilt
    /// profile differs from the prefix's steps by exactly the window
    /// `[now, now + duration)`, which is reserved here. The prefix plans
    /// stay the same: their reservations left the job's window free, so
    /// taking the window away removes no earlier candidate's fit, and
    /// the job's end, a new candidate for them, fails wherever the
    /// breakpoint before it failed. Both arguments hold only where the
    /// job's fit check looked, so the prefix is dropped (and the next
    /// pass rebuilds) when the start is not exactly `now`, a breakpoint
    /// lies in `(now, now + PLAN_EPS]`, or one lies within `PLAN_EPS` of
    /// the end other than exactly at it.
    pub fn commit_start(&mut self, start: f64, duration: f64, nodes: i64) {
        self.carry = Carry::None;
        let (Some(key), Some(job)) = (self.cache_key, self.memo_ids.pop()) else {
            return;
        };
        self.memo_anchored = self.anchored_before_last;
        let now = self.pass_now;
        let end = start + duration;
        let near_end = self.steps.partition_point(|s| s.0 < end - PLAN_EPS);
        let blind = start != now
            || !self.no_breakpoint_in(now, now + PLAN_EPS)
            || self.steps[near_end..]
                .iter()
                .take_while(|s| s.0 <= end + PLAN_EPS)
                .any(|s| s.0 != end);
        if blind {
            return;
        }
        self.reserve(start, duration, nodes);
        self.carry = Carry::Started {
            job,
            now,
            key,
            end,
            nodes,
        };
    }

    /// Ends a no-decision pass: seals the planned prefix so the next
    /// pass may resume after it.
    pub fn seal(&mut self) {
        self.carry = Carry::Sealed { now: self.pass_now };
    }

    /// The working profile steps (for equivalence tests).
    pub fn steps(&self) -> &[(f64, i64)] {
        &self.steps
    }

    /// Fault-injection hook for the audit tests: corrupts the anchor
    /// entry of the working profile by `delta` free nodes. Not part of
    /// the scheduling API.
    #[doc(hidden)]
    pub fn corrupt_anchor_for_test(&mut self, delta: i64) {
        if let Some(first) = self.steps.first_mut() {
            first.1 -= delta;
        }
    }
}

#[cfg(test)]
mod list_tests {
    use super::*;
    use crate::pairing::{Pairing, PairingPolicy};
    use crate::testkit::oracle;
    use nodeshare_cluster::{Cluster, ClusterSpec, NodeSpec, ShareMode};
    use nodeshare_engine::{RunningSummary, SimTelemetry};
    use nodeshare_perf::AppCatalog;
    use std::collections::BTreeMap;

    struct Rig {
        cluster: Cluster,
        running: BTreeMap<JobId, RunningSummary>,
    }

    fn app(name: &str) -> AppId {
        AppCatalog::trinity().by_name(name).unwrap().id
    }

    /// `nodes` tiny nodes; each `(job, app, node ids, kill_at)` holds one
    /// shared lane on its nodes.
    fn rig(nodes: u32, residents: &[(u64, &str, &[u32], f64)]) -> Rig {
        let mut cluster = Cluster::new(ClusterSpec::new(nodes, NodeSpec::tiny()));
        let mut running = BTreeMap::new();
        for &(id, name, on, kill_at) in residents {
            let ids: Vec<NodeId> = on.iter().copied().map(NodeId).collect();
            cluster.allocate_shared(JobId(id), &ids, 64).unwrap();
            running.insert(
                JobId(id),
                RunningSummary {
                    job: JobId(id),
                    app: app(name),
                    nodes: on.len() as u32,
                    requested_nodes: on.len() as u32,
                    malleable: Default::default(),
                    start: 0.0,
                    walltime_estimate: kill_at,
                    kill_at,
                    share_eligible: true,
                    mode: ShareMode::Shared,
                },
            );
        }
        Rig { cluster, running }
    }

    fn candidate(id: u64, name: &str, nodes: u32, walltime: f64) -> JobSpec {
        JobSpec {
            malleable: Default::default(),
            id: JobId(id),
            app: app(name),
            nodes,
            submit: 0.0,
            runtime_exclusive: walltime / 2.0,
            walltime_estimate: walltime,
            mem_per_node_mib: 64,
            share_eligible: true,
            user: 0,
        }
    }

    impl Rig {
        fn ctx<'a>(
            &'a self,
            now: f64,
            queue: &'a [JobSpec],
            telemetry: Option<&'a nodeshare_engine::SchedTelemetry>,
        ) -> SchedContext<'a> {
            SchedContext {
                now,
                queue,
                cluster: &self.cluster,
                running: &self.running,
                shared_grace: 1.5,
                completed: &[],
                telemetry,
            }
        }
    }

    fn entries(planner: &Planner, app: AppId) -> Vec<(NodeId, u64)> {
        planner.lists[app.index()]
            .entries
            .iter()
            .map(|&(n, s)| (n, s.to_bits()))
            .collect()
    }

    #[test]
    fn telemetry_does_not_change_lists_or_picks() {
        // Four partial nodes under three resident apps; candidates of
        // several apps and widths, each asked twice in each of two passes.
        let rig = rig(
            6,
            &[
                (1, "AMG", &[0, 1], 500.0),
                (2, "miniDFT", &[2], 400.0),
                (3, "miniFE", &[3], 300.0),
            ],
        );
        let queue = vec![
            candidate(10, "miniDFT", 1, 100.0),
            candidate(11, "AMG", 2, 100.0),
            candidate(12, "miniFE", 3, 100.0),
            candidate(13, "miniDFT", 4, 100.0),
        ];
        let pairing = Pairing::new(PairingPolicy::default_threshold(), oracle());
        let tele = SimTelemetry::new(60.0);
        let mut runs = Vec::new();
        for telemetry in [None, Some(&tele.sched)] {
            let mut planner = Planner::new(&pairing);
            let ctx = rig.ctx(10.0, &queue, telemetry);
            let mut picks = Vec::new();
            for _ in 0..2 {
                planner.begin_pass(&ctx);
                for job in &queue {
                    for _ in 0..2 {
                        picks.push(planner.pick_shared(&ctx, job, &pairing, false));
                    }
                }
            }
            let lists: Vec<_> = queue.iter().map(|j| entries(&planner, j.app)).collect();
            runs.push((picks, lists));
        }
        assert_eq!(runs[0], runs[1], "telemetry must not change lists or picks");
        assert!(
            runs[0].0.iter().any(Option::is_some),
            "the rig must place something"
        );
        // One build per distinct app, reused by every later attempt.
        assert_eq!(tele.sched.pairing_list_builds.get(), 3);
        assert_eq!(tele.sched.planner_nodes_refreshed.get(), 6);
    }

    #[test]
    fn a_new_head_width_refilters_the_list() {
        // Both nodes host AMG and free up at 500 and 600. A 1-node head
        // reserves node 0 only; a 2-node head reserves both.
        let rig = rig(2, &[(1, "AMG", &[0], 500.0), (2, "AMG", &[1], 600.0)]);
        let queue = vec![candidate(10, "miniDFT", 1, 100.0)];
        let pairing = Pairing::new(PairingPolicy::default_threshold(), oracle());
        let mut planner = Planner::new(&pairing);
        let ctx = rig.ctx(10.0, &queue, None);
        planner.begin_pass(&ctx);
        planner.compute_reservation(&ctx, 1);
        assert_eq!(
            planner.pick_shared(&ctx, &queue[0], &pairing, true),
            Some(vec![NodeId(1)])
        );
        planner.compute_reservation(&ctx, 2);
        assert_eq!(
            planner.pick_shared(&ctx, &queue[0], &pairing, true),
            None,
            "a wider head reserves node 1 too"
        );
        planner.compute_reservation(&ctx, 1);
        assert_eq!(
            planner.pick_shared(&ctx, &queue[0], &pairing, true),
            Some(vec![NodeId(1)])
        );
        // Unrestricted, the best-scored node comes first.
        assert!(planner
            .pick_shared(&ctx, &queue[0], &pairing, false)
            .is_some());
    }

    #[test]
    fn an_unchanged_stamp_reuses_the_lists_and_filters_by_now() {
        // The resident runs until 300. A 100 s candidate (150 s with the
        // grace) overlaps it fully at t=150, but not at t=10 (150 / 290 <
        // 0.6) or at t=290 (remaining 10).
        let rig = rig(1, &[(1, "AMG", &[0], 300.0)]);
        let queue = vec![candidate(10, "miniDFT", 1, 100.0)];
        let pairing =
            Pairing::new(PairingPolicy::default_threshold(), oracle()).with_duration_match(0.6);
        let tele = SimTelemetry::new(60.0);
        let mut planner = Planner::new(&pairing);
        let mut picks = Vec::new();
        for now in [150.0, 10.0, 290.0] {
            let ctx = rig.ctx(now, &queue, Some(&tele.sched));
            planner.begin_pass(&ctx);
            picks.push(planner.pick_shared(&ctx, &queue[0], &pairing, false));
        }
        assert_eq!(picks, [Some(vec![NodeId(0)]), None, None]);
        assert_eq!(
            tele.sched.pairing_list_builds.get(),
            1,
            "same stamp: the list carries across instants"
        );
        assert_eq!(tele.sched.planner_nodes_refreshed.get(), 1);
        assert_eq!(entries(&planner, queue[0].app).len(), 1);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::util::AvailabilityProfile;
    use nodeshare_cluster::{Cluster, ClusterSpec, NodeSpec, ShareMode};
    use nodeshare_engine::RunningSummary;
    use std::collections::BTreeMap;

    fn queued(id: u64, nodes: u32, est: f64) -> JobSpec {
        JobSpec {
            malleable: Default::default(),
            id: JobId(id),
            app: AppId(0),
            nodes,
            submit: 0.0,
            runtime_exclusive: est / 2.0,
            walltime_estimate: est,
            mem_per_node_mib: 64,
            share_eligible: false,
            user: 0,
        }
    }

    fn running_job(job: JobId, nodes: u32, start: f64, kill_at: f64) -> RunningSummary {
        RunningSummary {
            job,
            app: AppId(0),
            nodes,
            requested_nodes: nodes,
            malleable: Default::default(),
            start,
            walltime_estimate: kill_at - start,
            kill_at,
            share_eligible: false,
            mode: ShareMode::Exclusive,
        }
    }

    struct Rig {
        cluster: Cluster,
        running: BTreeMap<JobId, RunningSummary>,
        queue: Vec<JobSpec>,
    }

    /// `total`-node cluster with `busy` = `(job id, nodes, est end)`
    /// exclusive residents packed from node 0 up.
    fn rig(total: u32, busy: &[(u64, u32, f64)], queue: Vec<JobSpec>) -> Rig {
        let mut cluster = Cluster::new(ClusterSpec::new(total, NodeSpec::tiny()));
        let mut running = BTreeMap::new();
        let mut next = 0u32;
        for &(id, nodes, end) in busy {
            let ids: Vec<NodeId> = (next..next + nodes).map(NodeId).collect();
            next += nodes;
            cluster.allocate_exclusive(JobId(id), &ids, 64).unwrap();
            running.insert(JobId(id), running_job(JobId(id), nodes, 0.0, end));
        }
        Rig {
            cluster,
            running,
            queue,
        }
    }

    impl Rig {
        fn ctx(&self, now: f64) -> SchedContext<'_> {
            self.ctx_prefix(now, self.queue.len())
        }

        /// Applies a start as the engine does: the job leaves the queue
        /// and holds idle nodes until `kill_at`.
        fn start(&mut self, id: JobId, now: f64, kill_at: f64) {
            let pos = self.queue.iter().position(|j| j.id == id).unwrap();
            let job = self.queue.remove(pos);
            let ids: Vec<NodeId> = self.cluster.idle_nodes().take(job.nodes as usize).collect();
            self.cluster.allocate_exclusive(id, &ids, 64).unwrap();
            self.running
                .insert(id, running_job(id, job.nodes, now, kill_at));
        }

        fn ctx_prefix(&self, now: f64, n: usize) -> SchedContext<'_> {
            SchedContext {
                now,
                queue: &self.queue[..n],
                cluster: &self.cluster,
                running: &self.running,
                shared_grace: 1.5,
                completed: &[],
                telemetry: None,
            }
        }
    }

    /// Plans and reserves every queued job against both profiles,
    /// asserting bit-equal plans and identical steps after each commit.
    fn plan_all_checked(tl: &mut ReservationTimeline, ctx: &SchedContext<'_>) {
        let mut profile = AvailabilityProfile::from_context(ctx);
        assert_eq!(tl.steps(), profile.steps());
        for job in ctx.queue {
            let fast = tl.plan(job.id, job.nodes as i64, job.walltime_estimate);
            let refr = profile.earliest_fit(ctx.now, job.nodes as i64, job.walltime_estimate);
            assert_eq!(fast.to_bits(), refr.to_bits(), "plan for job {}", job.id);
            if fast.is_finite() {
                tl.reserve(fast, job.walltime_estimate, job.nodes as i64);
                profile.reserve(refr, job.walltime_estimate, job.nodes as i64);
                assert_eq!(tl.steps(), profile.steps(), "steps after job {}", job.id);
            }
        }
    }

    #[test]
    fn matches_from_scratch_profile_at_every_step() {
        let rig = rig(
            8,
            &[(100, 4, 50.0), (101, 2, 80.0)],
            vec![
                queued(0, 8, 60.0),
                queued(1, 2, 30.0),
                queued(2, 4, 200.0),
                queued(3, 1, 10.0),
                queued(4, 8, 10_000.0),
                queued(5, 3, 45.0),
            ],
        );
        let ctx = rig.ctx(5.0);
        let mut tl = ReservationTimeline::new();
        assert_eq!(tl.begin_pass(&ctx), 0);
        plan_all_checked(&mut tl, &ctx);
    }

    /// One pass of the conservative loop on counts alone: plans from the
    /// resume index, commits the first job that fits now as a start, and
    /// otherwise reserves every finite plan and seals. Returns the resume
    /// index and the started job.
    fn pass(tl: &mut ReservationTimeline, ctx: &SchedContext<'_>) -> (usize, Option<JobId>) {
        let resume = tl.begin_pass(ctx);
        for job in &ctx.queue[resume..] {
            let (nodes, est) = (job.nodes as i64, job.walltime_estimate);
            let start = tl.plan(job.id, nodes, est);
            if start <= ctx.now + PLAN_EPS {
                tl.commit_start(start, est, nodes);
                return (resume, Some(job.id));
            }
            if start.is_finite() {
                tl.reserve(start, est, nodes);
            }
        }
        tl.seal();
        (resume, None)
    }

    /// Steps a fresh timeline reaches by planning all of `ctx`'s queue,
    /// checked against the reference profile along the way.
    fn rebuilt_steps(ctx: &SchedContext<'_>) -> Vec<(f64, i64)> {
        let mut fresh = ReservationTimeline::new();
        assert_eq!(fresh.begin_pass(ctx), 0);
        plan_all_checked(&mut fresh, ctx);
        fresh.steps().to_vec()
    }

    #[test]
    fn requests_above_the_final_level_plan_to_infinity_in_place() {
        // 4 nodes, one reservation planned: the final level is 4, so a
        // 5-node request can never fit and must leave the steps alone.
        let rig = rig(4, &[(100, 2, 50.0)], vec![queued(0, 4, 30.0)]);
        let ctx = rig.ctx(0.0);
        let mut tl = ReservationTimeline::new();
        tl.begin_pass(&ctx);
        plan_all_checked(&mut tl, &ctx);
        let before = tl.steps().to_vec();
        assert!(tl.plan(JobId(1), 5, 10.0).is_infinite());
        assert!(tl.plan(JobId(2), 5, 0.0).is_infinite());
        assert_eq!(tl.steps(), &before[..]);
        // At the final level the request still fits, after the others.
        assert_eq!(tl.plan(JobId(3), 4, 10.0), 80.0);
    }

    #[test]
    fn a_start_resumes_at_the_started_jobs_index() {
        // 8 nodes, 4 busy until 50. Job 0 (6 nodes) waits for 50; job 1
        // (2 nodes, 30 s) fits now and starts; job 2 (8 nodes) waits.
        let mut rig = rig(
            8,
            &[(100, 4, 50.0)],
            vec![queued(0, 6, 60.0), queued(1, 2, 30.0), queued(2, 8, 10.0)],
        );
        let mut tl = ReservationTimeline::new();
        assert_eq!(pass(&mut tl, &rig.ctx(0.0)), (0, Some(JobId(1))));
        rig.start(JobId(1), 0.0, 30.0);
        let ctx = rig.ctx(0.0);
        assert_eq!(pass(&mut tl, &ctx), (1, None), "resume at job 1's index");
        assert_eq!(tl.steps(), &rebuilt_steps(&ctx)[..]);
        // The sealed prefix is a valid base for the next resume too.
        assert_eq!(pass(&mut tl, &ctx), (2, None));
        assert_eq!(tl.steps(), &rebuilt_steps(&ctx)[..]);
    }

    #[test]
    fn a_start_is_dropped_when_the_engine_did_more_than_apply_it() {
        let fresh = || {
            rig(
                8,
                &[(100, 4, 50.0)],
                vec![queued(0, 6, 60.0), queued(1, 2, 30.0), queued(2, 8, 10.0)],
            )
        };
        // Another mutation besides the start: the version moved by two.
        let mut rig = fresh();
        let mut tl = ReservationTimeline::new();
        assert_eq!(pass(&mut tl, &rig.ctx(0.0)).1, Some(JobId(1)));
        rig.start(JobId(1), 0.0, 30.0);
        rig.cluster.drain(NodeId(7)).unwrap();
        let ctx = rig.ctx(0.0);
        assert_eq!(pass(&mut tl, &ctx).0, 0, "an unseen mutation must rebuild");
        // The job runs to another end than the one reserved (a shared
        // start's walltime grace).
        let mut rig = fresh();
        let mut tl = ReservationTimeline::new();
        assert_eq!(pass(&mut tl, &rig.ctx(0.0)).1, Some(JobId(1)));
        rig.start(JobId(1), 0.0, 45.0);
        let ctx = rig.ctx(0.0);
        assert_eq!(pass(&mut tl, &ctx).0, 0, "another end must rebuild");
        assert_eq!(tl.steps(), &rebuilt_steps(&ctx)[..]);
    }

    #[test]
    fn a_start_ending_near_another_breakpoint_rebuilds() {
        // Job 0 (4 nodes) is reserved from 50, when job 100 releases.
        // Job 1 ends within PLAN_EPS of 50, inside the window its fit
        // check does not look at, so its start cannot be committed.
        let est = 50.0 + PLAN_EPS / 2.0;
        let mut rig = rig(
            4,
            &[(100, 2, 50.0)],
            vec![queued(0, 4, 100.0), queued(1, 2, est)],
        );
        let mut tl = ReservationTimeline::new();
        assert_eq!(pass(&mut tl, &rig.ctx(0.0)), (0, Some(JobId(1))));
        rig.start(JobId(1), 0.0, est);
        let ctx = rig.ctx(0.0);
        assert_eq!(pass(&mut tl, &ctx), (0, None));
        assert_eq!(tl.steps(), &rebuilt_steps(&ctx)[..]);
    }

    #[test]
    fn sealed_pass_resumes_after_the_planned_prefix() {
        let rig = rig(
            4,
            &[(100, 4, 50.0)],
            vec![queued(0, 2, 30.0), queued(1, 4, 60.0), queued(2, 1, 5.0)],
        );
        let mut tl = ReservationTimeline::new();
        let ctx2 = rig.ctx_prefix(0.0, 2);
        assert_eq!(tl.begin_pass(&ctx2), 0);
        plan_all_checked(&mut tl, &ctx2);
        tl.seal();
        let sealed = tl.steps().to_vec();
        // Same instant, the queue grew at the tail: only job 2 is new.
        let ctx3 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx3), 2);
        assert_eq!(tl.steps(), &sealed[..]);
    }

    #[test]
    fn occupancy_change_invalidates_the_sealed_prefix() {
        let mut rig = rig(4, &[(100, 2, 50.0)], vec![queued(0, 4, 60.0)]);
        let mut tl = ReservationTimeline::new();
        {
            let ctx = rig.ctx(0.0);
            assert_eq!(tl.begin_pass(&ctx), 0);
            plan_all_checked(&mut tl, &ctx);
            tl.seal();
        }
        rig.cluster
            .allocate_exclusive(JobId(101), &[NodeId(2)], 64)
            .unwrap();
        let ctx = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx), 0, "stamp change must force a rebuild");
    }

    #[test]
    fn now_advance_shifts_the_anchor_when_provably_safe() {
        // All nodes busy until t=1000; the only plan sits at 1000, far
        // from the anchor, and needs more nodes than are ever free now.
        let rig = rig(4, &[(100, 4, 1_000.0)], vec![queued(0, 2, 10.0)]);
        let mut tl = ReservationTimeline::new();
        let ctx0 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx0), 0);
        plan_all_checked(&mut tl, &ctx0);
        tl.seal();
        let ctx5 = rig.ctx(5.0);
        assert_eq!(tl.begin_pass(&ctx5), 1, "anchor shift should resume");
        // The shifted steps must equal a from-scratch replay at t=5.
        assert_eq!(tl.steps(), &rebuilt_steps(&ctx5)[..]);
    }

    #[test]
    fn now_advance_resumes_with_a_request_within_the_anchor_level() {
        // 2 of 4 nodes free until 1000. Job 0 takes the whole machine at
        // [1000, 1010); job 1 asks for the 2 free nodes but its window
        // from now runs into job 0's, so it plans at 1010. Its request
        // does not exceed the anchor level, yet moving the anchor cannot
        // change its plan: the deficient step at 1000 stays in its window.
        let rig = rig(
            4,
            &[(100, 2, 1_000.0)],
            vec![queued(0, 4, 10.0), queued(1, 2, 2_000.0)],
        );
        let mut tl = ReservationTimeline::new();
        let ctx0 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx0), 0);
        plan_all_checked(&mut tl, &ctx0);
        tl.seal();
        let ctx5 = rig.ctx(5.0);
        assert_eq!(tl.begin_pass(&ctx5), 2, "anchor shift should resume");
        assert_eq!(tl.steps(), &rebuilt_steps(&ctx5)[..]);
    }

    #[test]
    fn now_advance_rebuilds_when_a_breakpoint_is_crossed() {
        // A release at t=3 lies inside (0, 5 + eps]: the sealed profile
        // is anchor-sensitive, so the pass must rebuild.
        let rig = rig(4, &[(100, 4, 3.0)], vec![queued(0, 2, 10.0)]);
        let mut tl = ReservationTimeline::new();
        let ctx0 = rig.ctx(0.0);
        assert_eq!(tl.begin_pass(&ctx0), 0);
        plan_all_checked(&mut tl, &ctx0);
        tl.seal();
        let ctx5 = rig.ctx(5.0);
        assert_eq!(tl.begin_pass(&ctx5), 0);
        plan_all_checked(&mut tl, &ctx5);
    }
}

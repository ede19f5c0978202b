//! Chrome/Perfetto trace-event export.
//!
//! Renders a decision trace as the JSON object format both `chrome://
//! tracing` and <https://ui.perfetto.dev> accept: one process for the
//! cluster, one thread ("lane") track per concurrent resident slot of
//! each node, jobs as `X` duration slices, scheduler decisions and node
//! state changes as `i` instants on a dedicated decisions track, and
//! queue-depth / busy-core / shared-node `C` counters.
//!
//! Lane assignment replays the trace: when a job starts on a node it
//! takes the lowest free lane of that node, so exclusive runs occupy
//! lane 0 and co-scheduled partners stack on lane 1+ — the visual
//! counterpart of the paper's node-sharing argument. Lanes are created
//! on demand, so n-way stacking renders without any cluster-shape
//! input.
//!
//! Timestamps are simulation seconds scaled to integer microseconds
//! (the trace-event `ts` unit); events are emitted time-sorted as the
//! format requires.

use crate::analysis::Analysis;
use crate::json::escape;
use nodeshare_cluster::{NodeId, ShareMode};
use nodeshare_engine::{DecisionTrace, TraceEvent};
use std::collections::BTreeMap;

/// The synthetic pid under which all tracks are emitted.
const PID: u64 = 1;
/// The decisions track's tid; node lanes start above it.
const DECISIONS_TID: u64 = 0;
/// Tid stride per node: lane `l` of node `n` is tid `n*16 + l + 1`.
const LANE_STRIDE: u64 = 16;

fn lane_tid(node: u64, lane: usize) -> u64 {
    node * LANE_STRIDE + lane as u64 + 1
}

/// `(ts, json)` pairs the renderer accumulates before the final stable
/// time-sort (which keeps insertion order among equal timestamps);
/// metadata sorts first via `ts = i64::MIN`.
type EventBuf = Vec<(i64, String)>;

struct OpenSlice {
    node: u64,
    lane: usize,
    start: f64,
    shared: bool,
    reason: &'static str,
}

/// Lane bookkeeping: the job holding each lane of each node, the
/// slices each running job has open, and the name of every track used.
#[derive(Default)]
struct Lanes {
    held: BTreeMap<u64, Vec<Option<u64>>>,
    open: BTreeMap<u64, Vec<OpenSlice>>,
    tracks: BTreeMap<u64, String>,
}

impl Lanes {
    /// Opens a slice for `job` on the lowest free lane of each node.
    fn open(&mut self, job: u64, nodes: &[NodeId], start: f64, shared: bool, reason: &'static str) {
        for n in nodes {
            let node = u64::from(n.0);
            let node_lanes = self.held.entry(node).or_default();
            let lane = node_lanes
                .iter()
                .position(Option::is_none)
                .unwrap_or_else(|| {
                    node_lanes.push(None);
                    node_lanes.len() - 1
                });
            node_lanes[lane] = Some(job);
            self.tracks
                .entry(lane_tid(node, lane))
                .or_insert_with(|| format!("node {node} / lane {lane}"));
            self.open.entry(job).or_default().push(OpenSlice {
                node,
                lane,
                start,
                shared,
                reason,
            });
        }
    }

    /// Emits `job`'s open slices as duration events ending at `t` and
    /// frees their lanes.
    fn close(&mut self, events: &mut EventBuf, job: u64, t: f64) {
        for slice in self.open.remove(&job).unwrap_or_default() {
            let ts = micros(slice.start);
            let dur = micros(t).saturating_sub(ts);
            events.push((
                ts,
                format!(
                    "{{\"name\":\"job {job}\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":{ts},\
                     \"dur\":{dur},\"pid\":{PID},\"tid\":{},\"args\":{{\"job\":{job},\
                     \"mode\":\"{}\",\"reason\":\"{}\"}}}}",
                    lane_tid(slice.node, slice.lane),
                    if slice.shared { "shared" } else { "exclusive" },
                    slice.reason,
                ),
            ));
            if let Some(node_lanes) = self.held.get_mut(&slice.node) {
                if node_lanes.get(slice.lane).copied().flatten() == Some(job) {
                    node_lanes[slice.lane] = None;
                }
            }
        }
    }
}

/// Converts sim-seconds to the trace-event integer microsecond unit.
fn micros(t: f64) -> i64 {
    (t * 1e6).round() as i64
}

/// A scheduler-decision or node-state instant on the decisions track.
fn instant(events: &mut EventBuf, t: f64, cat: &str, name: &str) {
    let ts = micros(t);
    events.push((
        ts,
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":{PID},\"tid\":{DECISIONS_TID},\"s\":\"t\"}}"
        ),
    ));
}

/// A counter sample.
fn counter(events: &mut EventBuf, t: f64, name: &str, value: impl std::fmt::Display) {
    let ts = micros(t);
    events.push((
        ts,
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{PID},\
             \"args\":{{\"value\":{value}}}}}"
        ),
    ));
}

/// Renders the Perfetto/Chrome trace-event JSON for a decision trace.
pub fn render(trace: &DecisionTrace) -> String {
    let mut events: EventBuf = Vec::new();
    let mut lanes = Lanes::default();
    lanes
        .tracks
        .insert(DECISIONS_TID, "scheduler decisions".to_string());

    for e in trace.events() {
        let t = e.time();
        match e {
            TraceEvent::Started {
                job,
                mode,
                nodes,
                reason,
                ..
            } => {
                let label = reason.label();
                let name = format!("start job {} ({label})", job.0);
                instant(&mut events, t, "decision", &name);
                lanes.open(job.0, nodes, t, *mode == ShareMode::Shared, label);
            }
            TraceEvent::Reshape { job, to, .. } => {
                // Close the slices on the old node set and reopen on the
                // new one, so the track view shows the width change.
                let name = format!("reshape job {} to {} nodes", job.0, to.len());
                instant(&mut events, t, "decision", &name);
                lanes.close(&mut events, job.0, t);
                lanes.open(job.0, to, t, false, "reshape");
            }
            TraceEvent::Finished { job, .. } => lanes.close(&mut events, job.0, t),
            TraceEvent::Requeued { job, .. } => {
                let name = format!("requeue job {}", job.0);
                instant(&mut events, t, "decision", &name);
                lanes.close(&mut events, job.0, t);
            }
            TraceEvent::NodeDown { node, cause, .. } => {
                let name = format!("node {} down ({})", node.0, cause.label());
                instant(&mut events, t, "node", &name);
            }
            TraceEvent::NodeUp { node, .. } => {
                instant(&mut events, t, "node", &format!("node {} up", node.0));
            }
            TraceEvent::Occupancy {
                busy_cores,
                shared_nodes,
                ..
            } => {
                counter(&mut events, t, "busy_cores", busy_cores);
                counter(&mut events, t, "shared_nodes", shared_nodes);
            }
            TraceEvent::Submitted { .. } | TraceEvent::Rejected { .. } => {}
        }
    }

    // Queue-depth counter from the derived timeline (submissions and
    // rejections are folded there rather than emitted per event).
    let analysis = Analysis::from_trace(trace);
    for &(t, v) in analysis.queue_depth.points() {
        counter(&mut events, t, "queue_depth", v);
    }

    // Jobs still running when the trace ends render to its edge.
    let still_open: Vec<u64> = lanes.open.keys().copied().collect();
    for job in still_open {
        lanes.close(&mut events, job, analysis.end_time);
    }

    // Track metadata: process name plus one thread_name per used tid.
    events.push((
        i64::MIN,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\
             \"args\":{{\"name\":\"cluster\"}}}}"
        ),
    ));
    for (tid, name) in &lanes.tracks {
        events.push((
            i64::MIN,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name),
            ),
        ));
        events.push((
            i64::MIN,
            format!(
                "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ),
        ));
    }

    events.sort_by_key(|&(ts, _)| ts);

    let body: Vec<String> = events.into_iter().map(|(_, json)| json).collect();
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::model::parse_trace;

    const TWO_JOBS_SHARING_NODE_0: &str = r#"
        {"type":"submitted","t":0,"job":1,"app":0,"nodes":1,"walltime":100,"share":true},
        {"type":"submitted","t":0,"job":2,"app":1,"nodes":1,"walltime":100,"share":true},
        {"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
         "reason":"head-of-queue","idle_before":2,"partners":[]},
        {"type":"occupancy","t":0,"busy_cores":4,"shared_nodes":0},
        {"type":"started","t":1,"job":2,"mode":"shared","nodes":[0],
         "reason":"co-scheduled","occupied":1,"idle_before":1,"partners":[{"node":0,"job":1}]},
        {"type":"occupancy","t":1,"busy_cores":4,"shared_nodes":1},
        {"type":"finished","t":10,"job":1,"killed":false},
        {"type":"finished","t":20,"job":2,"killed":false}"#;

    /// `(tid, dur)` of every duration slice in the rendered trace.
    fn slices(events_json: &str) -> Vec<(u64, f64)> {
        let trace = parse_trace(&format!("{{\"events\":[{events_json}]}}")).expect("valid trace");
        let doc = JsonValue::parse(&render(&trace)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array);
        let field = |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_f64);
        events
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| {
                (
                    field(e, "tid").expect("tid") as u64,
                    field(e, "dur").expect("dur"),
                )
            })
            .collect()
    }

    #[test]
    fn co_resident_jobs_land_on_distinct_lanes() {
        // Job 1: lane 0 of node 0; job 2 co-resident: lane 1.
        assert_eq!(
            slices(TWO_JOBS_SHARING_NODE_0),
            vec![(lane_tid(0, 0), 10e6), (lane_tid(0, 1), 19e6)]
        );
    }

    #[test]
    fn lanes_are_reused_after_release() {
        let tids: Vec<u64> = slices(
            r#"{"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
                "reason":"head-of-queue","idle_before":1,"partners":[]},
               {"type":"finished","t":5,"job":1,"killed":false},
               {"type":"started","t":6,"job":2,"mode":"exclusive","nodes":[0],
                "reason":"head-of-queue","idle_before":1,"partners":[]},
               {"type":"finished","t":9,"job":2,"killed":false}"#,
        )
        .into_iter()
        .map(|(tid, _)| tid)
        .collect();
        assert_eq!(tids, vec![lane_tid(0, 0), lane_tid(0, 0)]);
    }

    #[test]
    fn unfinished_jobs_extend_to_trace_end() {
        let got = slices(
            r#"{"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
                "reason":"head-of-queue","idle_before":1,"partners":[]},
               {"type":"occupancy","t":30,"busy_cores":4,"shared_nodes":0}"#,
        );
        assert_eq!(got, vec![(lane_tid(0, 0), 30e6)]);
        // A start far in the past saturates the duration, not the math.
        let got = slices(
            r#"{"type":"started","t":-1e300,"job":1,"mode":"exclusive","nodes":[0],
                "reason":"head-of-queue","idle_before":1,"partners":[]},
               {"type":"finished","t":30,"job":1,"killed":false}"#,
        );
        assert_eq!(got, vec![(lane_tid(0, 0), i64::MAX as f64)]);
    }
}

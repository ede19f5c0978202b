//! The trace reader: JSON on disk back to the engine's own
//! [`DecisionTrace`].
//!
//! [`parse_trace`] inverts [`DecisionTrace::to_json`] exactly —
//! `parse_trace(&t.to_json()) == Ok(t)` — so a trace read from a file
//! and one handed over in-process reach [`crate::analysis`] and the
//! exporters as the same type, and their reports are identical.
//!
//! The reader never panics. Every error starts with `event N:` or names
//! a byte offset; integers that do not fit their field are errors, not
//! truncations.

use crate::json::JsonValue;
use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_engine::{AppId, DecisionTrace, DownCause, StartReason, TraceEvent};
use nodeshare_workload::Malleability;

/// Parses the JSON written by [`DecisionTrace::to_json`]
/// (`{"events":[{"type":...},...]}`).
///
/// Unknown event types, start reasons, modes and down causes are errors
/// — a trace from a newer writer should fail loudly rather than silently
/// drop events — and so is an event earlier than its predecessor (with
/// the 1e-9 s slack [`DecisionTrace::push`] allows).
pub fn parse_trace(text: &str) -> Result<DecisionTrace, String> {
    let doc = JsonValue::parse(text)?;
    let raw = doc
        .get("events")
        .and_then(JsonValue::as_array)
        .ok_or("missing top-level \"events\" array at byte 0")?;
    let mut trace = DecisionTrace::new();
    let mut last = f64::NEG_INFINITY;
    for (i, e) in raw.iter().enumerate() {
        let event = decode_event(e).map_err(|msg| format!("event {i}: {msg}"))?;
        if event.time() + 1e-9 < last {
            return Err(format!("event {i}: time goes backwards"));
        }
        last = event.time();
        trace.push(event);
    }
    Ok(trace)
}

/// A required field, read by `get`; `kind` names what it should be.
fn field<'a, T>(
    e: &'a JsonValue,
    key: &str,
    kind: &str,
    get: fn(&'a JsonValue) -> Option<T>,
) -> Result<T, String> {
    e.get(key)
        .and_then(get)
        .ok_or_else(|| format!("missing {kind} \"{key}\""))
}

/// An integer narrowed to its in-memory type; `what` names it in errors.
fn int<T: TryFrom<u64>>(v: &JsonValue, what: impl Fn() -> String) -> Result<T, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{} is not an integer in [0, 2^53)", what()))?;
    T::try_from(n).map_err(|_| format!("{} out of range: {n}", what()))
}

fn field_int<T: TryFrom<u64>>(e: &JsonValue, key: &str) -> Result<T, String> {
    let v = e
        .get(key)
        .ok_or_else(|| format!("missing integer \"{key}\""))?;
    int(v, || format!("\"{key}\""))
}

fn job(e: &JsonValue) -> Result<JobId, String> {
    field_int(e, "job").map(JobId)
}

fn node(e: &JsonValue) -> Result<NodeId, String> {
    field_int(e, "node").map(NodeId)
}

fn node_list(e: &JsonValue, key: &str) -> Result<Vec<NodeId>, String> {
    let what = || format!("node id in \"{key}\"");
    field(e, key, "array", JsonValue::as_array)?
        .iter()
        .map(|n| int(n, what).map(NodeId))
        .collect()
}

fn decode_event(e: &JsonValue) -> Result<TraceEvent, String> {
    let time = field(e, "t", "number", JsonValue::as_f64)?;
    Ok(match field(e, "type", "string", JsonValue::as_str)? {
        "submitted" => TraceEvent::Submitted {
            time,
            job: job(e)?,
            app: field_int(e, "app").map(AppId)?,
            nodes: field_int(e, "nodes")?,
            walltime_estimate: field(e, "walltime", "number", JsonValue::as_f64)?,
            share_eligible: field(e, "share", "bool", JsonValue::as_bool)?,
            malleable: match e.get("malleable") {
                None => Malleability::RIGID,
                Some(m) => {
                    let cost = field(m, "cost", "number", JsonValue::as_f64)? as f32;
                    if !cost.is_finite() {
                        return Err("number \"cost\" out of range".into());
                    }
                    Malleability::range(field_int(m, "min")?, field_int(m, "max")?, cost)
                }
            },
        },
        "rejected" => TraceEvent::Rejected { time, job: job(e)? },
        "started" => TraceEvent::Started {
            time,
            job: job(e)?,
            mode: match field(e, "mode", "string", JsonValue::as_str)? {
                "shared" => ShareMode::Shared,
                "exclusive" => ShareMode::Exclusive,
                other => return Err(format!("unknown mode \"{other}\"")),
            },
            nodes: node_list(e, "nodes")?,
            reason: match field(e, "reason", "string", JsonValue::as_str)? {
                "head-of-queue" => StartReason::HeadOfQueue,
                "backfilled" => StartReason::Backfilled {
                    ahead: field_int(e, "ahead")?,
                },
                "co-scheduled" => StartReason::CoScheduled {
                    occupied: field_int(e, "occupied")?,
                },
                "unspecified" => StartReason::Unspecified,
                other => return Err(format!("unknown reason \"{other}\"")),
            },
            idle_before: field_int(e, "idle_before")?,
            head_waiting: match e.get("head_waiting") {
                None => None,
                Some(h) => Some((job(h)?, field_int(h, "nodes")?)),
            },
            partners: field(e, "partners", "array", JsonValue::as_array)?
                .iter()
                .map(|p| Ok((node(p)?, job(p)?)))
                .collect::<Result<_, String>>()?,
        },
        "reshape" => TraceEvent::Reshape {
            time,
            job: job(e)?,
            from: node_list(e, "from")?,
            to: node_list(e, "to")?,
            cost: field(e, "cost", "number", JsonValue::as_f64)?,
        },
        "finished" => TraceEvent::Finished {
            time,
            job: job(e)?,
            killed: field(e, "killed", "bool", JsonValue::as_bool)?,
        },
        "requeued" => TraceEvent::Requeued {
            time,
            job: job(e)?,
            node: node(e)?,
        },
        "node_down" => TraceEvent::NodeDown {
            time,
            node: node(e)?,
            cause: match field(e, "cause", "string", JsonValue::as_str)? {
                "failed" => DownCause::Failed,
                "drained" => DownCause::Drained,
                other => return Err(format!("unknown cause \"{other}\"")),
            },
        },
        "node_up" => TraceEvent::NodeUp {
            time,
            node: node(e)?,
        },
        "occupancy" => TraceEvent::Occupancy {
            time,
            busy_cores: field_int(e, "busy_cores")?,
            shared_nodes: field_int(e, "shared_nodes")?,
        },
        other => return Err(format!("unknown event type \"{other}\"")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(events: &str) -> String {
        parse_trace(&format!("{{\"events\":[{events}]}}")).expect_err("must fail")
    }

    #[test]
    fn bad_fields_are_errors_naming_event_and_field() {
        let started = r#"{"type":"started","t":0,"job":1,"mode":"exclusive","nodes":[0],
                          "idle_before":1,"partners":[],"reason":"#;
        let submitted = r#"{"type":"submitted","t":0,"job":1,"walltime":100,"share":true,"#;
        for (events, want) in [
            (
                r#"{"type":"warp","t":0}"#.into(),
                r#"unknown event type "warp""#,
            ),
            (
                r#"{"type":"finished","t":1}"#.into(),
                r#"missing integer "job""#,
            ),
            (
                format!("{started}\"backfilled\"}}"),
                r#"missing integer "ahead""#,
            ),
            (
                format!("{started}\"co-scheduled\"}}"),
                r#"missing integer "occupied""#,
            ),
            (
                format!(r#"{submitted}"app":0,"nodes":4294967297}}"#),
                r#""nodes" out of range: 4294967297"#,
            ),
            (
                format!(r#"{submitted}"app":256,"nodes":1}}"#),
                r#""app" out of range: 256"#,
            ),
            (
                r#"{"type":"reshape","t":0,"job":1,"from":[0],"to":[4294967296],"cost":1}"#.into(),
                r#"node id in "to" out of range: 4294967296"#,
            ),
            // 2^53 + 1 would silently read back as 2^53.
            (
                r#"{"type":"rejected","t":0,"job":9007199254740993}"#.into(),
                r#""job" is not an integer in [0, 2^53)"#,
            ),
        ] {
            assert_eq!(err(&events), format!("event 0: {want}"));
        }
        let backwards = r#"{"type":"rejected","t":10,"job":1},{"type":"rejected","t":5,"job":2}"#;
        assert_eq!(err(backwards), "event 1: time goes backwards");
        assert_eq!(
            parse_trace("{}"),
            Err("missing top-level \"events\" array at byte 0".into())
        );
    }

    #[test]
    fn largest_safe_integer_and_in_slack_times_are_read() {
        let text = r#"{"events":[{"type":"rejected","t":10,"job":9007199254740991},
                                 {"type":"rejected","t":9.9999999999,"job":2}]}"#;
        let trace = parse_trace(text).expect("valid");
        let TraceEvent::Rejected { job, .. } = trace.events()[0] else {
            panic!("a rejection comes first");
        };
        assert_eq!(job, JobId(9_007_199_254_740_991));
        // The analysis timelines accept the step back within the slack.
        assert!(crate::Report::from_json(text, &Default::default()).is_ok());
    }
}

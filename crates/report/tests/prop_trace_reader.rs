//! The trace reader inverts the trace writer and never panics:
//! `parse_trace(&t.to_json()) == t` for real traced runs (every lineup
//! strategy, Adaptive on a malleable mix, a run with node failures) and
//! for generated traces over every event type; arbitrary bytes and
//! single-field mutations of real traces yield a located error or a
//! trace that re-encodes exactly and renders a report.

use nodeshare_cluster::{ClusterSpec, JobId, NodeId, ShareMode};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_engine::{
    run_traced, AppId, DecisionTrace, DownCause, FailureModel, SimConfig, StartReason,
    TraceEvent as E,
};
use nodeshare_perf::{AppCatalog, CoRunTruth, ContentionModel};
use nodeshare_report::{parse_trace, Report, ReportOptions};
use nodeshare_workload::{ArrivalProcess, Malleability, WorkloadSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Integers up to 2^53 − 1 survive the f64 JSON number exactly.
const SAFE: u64 = (1 << 53) - 1;

/// A traced run of `cfg` on a saturated 70-job evaluation workload.
fn traced_run(cfg: StrategyConfig, malleable: f64, faults: Option<FailureModel>) -> DecisionTrace {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let mut config = SimConfig::new(ClusterSpec::evaluation());
    config.audit = false;
    config.failures = faults;
    let mut spec = WorkloadSpec::evaluation(&catalog, 11);
    spec.n_jobs = 70;
    spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
    spec.malleable_fraction = malleable;
    let mut sched = cfg.build(&catalog, &model);
    run_traced(&spec.generate(&catalog), &matrix, sched.as_mut(), &config).1
}

/// Every lineup strategy, then Adaptive on a malleable mix, then
/// CoBackfill under node failures.
fn real_traces() -> &'static [DecisionTrace] {
    static TRACES: OnceLock<Vec<DecisionTrace>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let mut out: Vec<_> = StrategyConfig::lineup()
            .into_iter()
            .map(|cfg| traced_run(cfg, 0.0, None))
            .collect();
        let adaptive = StrategyConfig::exclusive(StrategyKind::Adaptive);
        out.push(traced_run(adaptive, 0.5, None));
        let failures = FailureModel {
            mtbf_per_node: 24.0 * 3_600.0,
            repair_time: 1_800.0,
            seed: 7,
        };
        let co_backfill = StrategyConfig::sharing(StrategyKind::CoBackfill);
        out.push(traced_run(co_backfill, 0.0, Some(failures)));
        out
    })
}

#[test]
fn real_traces_round_trip_exactly() {
    for trace in real_traces() {
        assert_eq!(parse_trace(&trace.to_json()).as_ref(), Ok(trace));
    }
    // Between them the runs record every start reason, head_waiting,
    // contracts, reshapes, failures and requeues.
    let all: String = real_traces().iter().map(DecisionTrace::to_json).collect();
    let shapes = r#""head-of-queue" "backfilled","ahead": "co-scheduled","occupied":
                    "head_waiting": "malleable": "reshape" "node_down" "node_up" "requeued""#;
    for shape in shapes.split_whitespace() {
        assert!(all.contains(shape), "no traced run records {shape}");
    }
}

/// Raw material for one generated event; [`build_trace`] shapes it.
type Seed = (
    (u8, f64, bool, bool),
    (u64, u64, u64),
    (u32, u32, u32),
    (f32, f64),
    Vec<u32>,
);

fn seed() -> impl Strategy<Value = Seed> {
    let dt = prop_oneof![Just(0.0), 0.0f64..100.0, (0u32..100).prop_map(f64::from)];
    let flag = || prop::bool::weighted(0.5);
    (
        (0u8..9, dt, flag(), flag()),
        (0..=SAFE, 0..=SAFE, 0..=SAFE),
        (0..=u32::MAX, 0..=u32::MAX, 0..=u32::MAX),
        (0.0f32..1000.0, 0.0f64..1e6),
        prop::collection::vec(0..=u32::MAX, 0..5),
    )
}

fn build_trace(seeds: Vec<Seed>) -> DecisionTrace {
    let mut trace = DecisionTrace::new();
    let mut time = 0.0;
    for ((kind, dt, p, q), (a, b, c), (x, y, z), (cost, f), v) in seeds {
        time += dt;
        let (ahead, occupied) = (b as usize, b as usize);
        let (job, node, killed) = (JobId(a), NodeId(x), p);
        let cause = [DownCause::Drained, DownCause::Failed][usize::from(p)];
        let nodes: Vec<NodeId> = v.iter().map(|&n| NodeId(n)).collect();
        trace.push(match kind {
            0 => E::Submitted {
                time,
                job,
                app: AppId(x as u8),
                nodes: y,
                walltime_estimate: f,
                share_eligible: p,
                malleable: [Malleability::RIGID, Malleability::range(z, y.max(1), cost)]
                    [usize::from(q)],
            },
            1 => E::Rejected { time, job },
            2 => E::Started {
                time,
                job,
                mode: [ShareMode::Exclusive, ShareMode::Shared][usize::from(p)],
                reason: [
                    StartReason::HeadOfQueue,
                    StartReason::Backfilled { ahead },
                    StartReason::CoScheduled { occupied },
                    StartReason::Unspecified,
                ][z as usize % 4],
                idle_before: c as usize,
                head_waiting: q.then_some((JobId(b), y)),
                partners: nodes.iter().map(|&n| (n, JobId(c))).collect(),
                nodes,
            },
            3 => E::Reshape {
                time,
                job,
                to: nodes.iter().rev().copied().collect(),
                from: nodes,
                cost: f,
            },
            4 => E::Finished { time, job, killed },
            5 => E::Requeued { time, job, node },
            6 => E::NodeDown { time, node, cause },
            7 => E::NodeUp { time, node },
            _ => E::Occupancy {
                time,
                busy_cores: a,
                shared_nodes: b as usize,
            },
        });
    }
    trace
}

/// Reads `text`: an error must start with `event N:` or name a byte
/// offset; an accepted trace must re-encode exactly and render a report.
fn check_reader(text: &str) -> Result<Result<DecisionTrace, String>, String> {
    let parsed = parse_trace(text);
    match &parsed {
        Err(e) => {
            let at_event = e
                .strip_prefix("event ")
                .and_then(|rest| rest.split_once(": "))
                .is_some_and(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
            prop_assert!(at_event || e.contains(" at byte "), "unlocated error: {e}");
        }
        Ok(trace) => {
            prop_assert_eq!(parse_trace(&trace.to_json()).as_ref(), Ok(trace));
            prop_assert!(Report::from_json(text, &ReportOptions::default()).is_ok());
        }
    }
    Ok(parsed)
}

/// `(key, value, end, depth)` byte spans of every field of every event
/// in writer output (whose strings hold no `:`, `,` or brackets), with
/// its nesting depth: 3 for a field of the event object itself.
fn fields(text: &str) -> Vec<(usize, usize, usize, i32)> {
    let b = text.as_bytes();
    let nesting = |c: u8| match c {
        b'{' | b'[' => 1,
        b'}' | b']' => -1,
        _ => 0,
    };
    let (mut out, mut depth) = (Vec::new(), 0);
    for (colon, &c) in b.iter().enumerate() {
        depth += nesting(c);
        // Depth 1 is the top-level "events" key.
        if c != b':' || depth == 1 {
            continue;
        }
        let key = text[..colon - 1].rfind('"').expect("keys are quoted");
        let (mut end, mut inner) = (colon + 1, 0);
        while inner > 0 || !matches!(b[end], b',' | b']' | b'}') {
            inner += nesting(b[end]);
            end += 1;
        }
        out.push((key, colon + 1, end, depth));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated traces over every event type round-trip exactly.
    #[test]
    fn arbitrary_traces_round_trip_exactly(
        trace in prop::collection::vec(seed(), 0..40).prop_map(build_trace),
    ) {
        prop_assert_eq!(parse_trace(&trace.to_json()), Ok(trace));
    }

    /// Arbitrary bytes never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let _ = check_reader(&String::from_utf8_lossy(&bytes))?;
    }

    /// One damaged field of a real trace: dropped, turned into a string,
    /// a negative number or 1e300, or two events' times swapped.
    #[test]
    fn mutated_real_traces_never_panic(
        which in 0usize..8,
        pick in (0..=u64::MAX, 0..=u64::MAX),
        mutation in 0u8..5,
    ) {
        let traces = real_traces();
        let text = traces[which % traces.len()].to_json();
        let spans = fields(&text);
        let nth = |n: u64, of: &[(usize, usize, usize, i32)]| of[(n % of.len() as u64) as usize];
        let (key, value, end, depth) = nth(pick.0, &spans);
        let mutated = match mutation {
            // Drop the field with the comma that joins it to a neighbour.
            0 if &text[key - 1..key] == "," => format!("{}{}", &text[..key - 1], &text[end..]),
            0 => format!("{}{}", &text[..key], &text[end + 1..]),
            1..=3 => {
                let new = ["\"mutant\"", "-1.5", "1e300"][usize::from(mutation) - 1];
                format!("{}{new}{}", &text[..value], &text[end..])
            }
            _ => {
                let times: Vec<_> =
                    spans.iter().copied().filter(|s| &text[s.0..s.1] == "\"t\":").collect();
                let (i, j) = (nth(pick.0, &times), nth(pick.1, &times));
                let (a, b) = (i.min(j), i.max(j));
                let (t_a, t_b) = (&text[a.1..a.2], &text[b.1..b.2]);
                let swapped = format!("{t_b}{}{t_a}", &text[a.2..b.1]);
                format!("{}{}{}", &text[..a.1], if a == b { t_a } else { &swapped }, &text[a.2.max(b.2)..])
            }
        };
        let result = check_reader(&mutated)?;
        let at_event = format!("event {}: ", text[..value].matches("{\"type\":").count() - 1);
        let name = &text[key + 1..value - 2];
        match mutation {
            // Only "malleable" and "head_waiting" may go missing; an
            // unknown string is never a valid value. Either error names
            // the damaged event.
            0 if depth == 3 && name != "malleable" && name != "head_waiting" => {
                prop_assert!(result.is_err_and(|e| e.starts_with(&at_event)));
            }
            1 => prop_assert!(result.is_err_and(|e| e.starts_with(&at_event))),
            4 => {
                if let Err(e) = result {
                    prop_assert!(e.ends_with(": time goes backwards"), "{e}");
                }
            }
            _ => {}
        }
    }
}

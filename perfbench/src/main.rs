#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! The benchmark's measuring process. `perfbench/run.py` builds and
//! drives it; run directly for one workload:
//!
//! ```text
//! nodeshare-perfbench measure --workload saturated-cobackfill --seed 1 \
//!     --seconds 20 --trace 0 --data .bench_build/perfbench-data
//! nodeshare-perfbench peak --workload saturated-cobackfill --seed 1 \
//!     --data .bench_build/perfbench-data
//! ```
//!
//! `measure` makes the timed set-ups, then rounds of runs until the time
//! budget is spent, with the calibration kernel timed after every set-up
//! and every run ([`calibrate`]); end-to-end times are scaled to the
//! reference host. It checks every run's outputs and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `peak` makes a single plain run in a fresh process and
//! prints the process's peak resident memory (`VmHWM`, the
//! `peak_rss_mib` metric) and that run's exact counters, for the
//! cross-process determinism check.

use nodeshare_perfbench::calibrate::{self, kernel_s};
use nodeshare_perfbench::{execute, Bench, BenchWorkload, Facts, Mode, RunResult, RunSpec};
use nodeshare_report::json::escape;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Timed set-ups per `measure --trace 0` at least; `setup_s` is their
/// median.
const SETUP_MIN_REPS: usize = 5;
/// Seconds of set-up repetitions per `measure --trace 0` at least.
const SETUP_BUDGET_S: f64 = 1.0;
/// Rounds of runs a measurement makes at least, whatever its budget.
const MIN_ROUNDS: usize = 3;

struct Args {
    command: String,
    workload: BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("usage: nodeshare-perfbench measure|peak [options]")?;
    let (mut workload, mut seed, mut seconds, mut trace, mut data) = (None, 1, 10.0, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    BenchWorkload::parse(&value).ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            "--data" => data = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        data: data.ok_or("--data is required")?,
    })
}

/// Runs `spec` on one campaign, turning a panic or an i/o error into a
/// failed run whose jobs all count as lost.
fn guarded(bench: &Bench, campaign: usize, spec: RunSpec) -> RunResult {
    let failed = |e: String| RunResult::failed(bench.submitted(campaign, spec.prefix), e);
    match catch_unwind(AssertUnwindSafe(|| execute(bench, campaign, spec))) {
        Ok(Ok(result)) => result,
        Ok(Err(e)) => failed(format!("i/o error: {e}")),
        Err(_) => failed("the run panicked".into()),
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The round of `runs` with the median wall time (the lower middle one
/// of an even count), so every number quoted from it comes from one run
/// and its layer times add up to its wall time.
fn median_run(runs: &[RunResult]) -> RunResult {
    let mut sorted: Vec<&RunResult> = runs.iter().collect();
    sorted.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    sorted[(sorted.len() - 1) / 2].clone()
}

/// One kind of run, made once per campaign per round.
struct Series {
    spec: RunSpec,
    /// Per round, summed over the campaigns.
    runs: Vec<RunResult>,
}

impl Series {
    /// Wall time (audits included) of one pass over every campaign, on
    /// the reference host: the median over rounds of each round's time
    /// times that round's host-speed scale (see README.md, "Noise").
    fn wall(&self, scales: &[f64]) -> f64 {
        let rounds = self.runs.iter().zip(scales);
        median(rounds.map(|(r, k)| (r.run_s + r.audit_s) * k).collect())
    }

    /// Jobs per second over one pass, on the reference host.
    fn jobs_per_s(&self, scales: &[f64]) -> f64 {
        self.runs[0].facts.submitted as f64 / self.wall(scales)
    }
}

/// Output checks over every run of a measurement; errors name the run.
struct Checker {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new() -> Self {
        Checker {
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records `problems` against one run; any problem fails all its jobs.
    fn charge(&mut self, submitted: u64, problems: Vec<String>) {
        self.attempted += submitted;
        if !problems.is_empty() {
            self.failed += submitted;
            self.errors.extend(problems);
        }
    }

    /// Checks a series: each run accounts for every job and audits
    /// clean, and every round repeats the first round's exact counters.
    fn series(&mut self, s: &Series) {
        let first = &s.runs[0];
        for (round, r) in s.runs.iter().enumerate() {
            let tag = format!("{:?} round {round}", s.spec);
            let mut problems = Vec::new();
            let f = &r.facts;
            if f.lost() > 0 {
                problems.push(format!(
                    "{tag}: {} of {} jobs lost ({} completed, {} rejected, {} unscheduled)",
                    f.lost(),
                    f.submitted,
                    f.completed,
                    f.rejected,
                    f.unscheduled
                ));
            }
            for e in r.errors.iter().take(5) {
                problems.push(format!("{tag}: {e}"));
            }
            if r.facts != first.facts || r.trace_events != first.trace_events {
                problems.push(format!(
                    "{tag}: nondeterminism: {:?} / {} trace events, round 0 had {:?} / {}",
                    r.facts, r.trace_events, first.facts, first.trace_events
                ));
            }
            let work = |r: &RunResult| {
                let s = r
                    .sched
                    .as_ref()
                    .map(|s| (s.passes, s.queue_scanned, s.decisions));
                (s, r.source.map(|s| (s.chunks, s.jobs)))
            };
            if work(r) != work(first) {
                problems.push(format!(
                    "{tag}: nondeterminism: layer counters {:?}, round 0 had {:?}",
                    work(r),
                    work(first)
                ));
            }
            self.charge(f.submitted, problems);
        }
    }

    /// Checks that runs of the same jobs by different entry points agree
    /// on the exact outcome facts (efficiencies where both kept records).
    fn agree(&mut self, a: &Series, b: &Series) {
        let (fa, fb) = (&a.runs[0].facts, &b.runs[0].facts);
        let same_counts = (fa.submitted, fa.events, fa.completed, fa.rejected)
            == (fb.submitted, fb.events, fb.completed, fb.rejected);
        let same_eff =
            fa.efficiency.is_empty() || fb.efficiency.is_empty() || fa.efficiency == fb.efficiency;
        if !same_counts || !same_eff {
            let msg = format!("{:?} and {:?} disagree: {fa:?} vs {fb:?}", a.spec, b.spec);
            self.errors.push(msg);
            self.failed += fa.submitted;
        }
    }
}

/// The JSON object both subcommands print (one line).
struct Report {
    checker: Checker,
    metrics: Vec<(&'static str, f64, &'static str)>,
    counters: Vec<(&'static str, u64)>,
}

impl Report {
    /// Non-finite metric values print as `null`, which `run.py` rejects.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        let errors: Vec<String> = self
            .checker
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \
             \"counters\": {{{}}}, \"metrics\": {{{}}}}}",
            errors.is_empty(),
            self.checker.attempted,
            self.checker.failed,
            errors.join(", "),
            counters.join(", "),
            metrics.join(", "),
        )
    }
}

/// The exact counters of a run that the parent compares across processes.
fn outcome_counters(f: &Facts) -> Vec<(&'static str, u64)> {
    vec![
        ("engine.events", f.events),
        ("jobs.submitted", f.submitted),
        ("jobs.completed", f.completed),
        ("jobs.rejected", f.rejected),
    ]
}

fn measure(args: &Args, started: Instant) -> Result<Report, String> {
    let setup = || -> Result<(Bench, f64), String> {
        let t = Instant::now();
        let bench = Bench::setup(args.workload, args.seed, &args.data)
            .map_err(|e| format!("set-up failed: {e}"))?;
        Ok((bench, t.elapsed().as_secs_f64()))
    };
    // Set-up is short next to the runs, so it repeats until it has filled
    // its own slice of the budget; `setup_s` is the median repetition,
    // scaled by the median kernel time over the set-up phase.
    let (mut bench, first_s) = setup()?;
    let mut setup_s = vec![first_s];
    let mut setup_kernel_s = vec![kernel_s()];
    while !args.trace
        && (setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(bench);
        let (b, s) = setup()?;
        bench = b;
        setup_s.push(s);
        setup_kernel_s.push(kernel_s());
    }

    let w = args.workload;
    let spec = |mode, prefixed: bool, wrapped| RunSpec {
        mode,
        prefix: if prefixed { w.telemetry_prefix() } else { None },
        wrapped,
    };
    // Without a telemetry prefix the prefixed plain run is the full one.
    let mut specs: Vec<RunSpec> = Vec::new();
    let wanted = if args.trace {
        [
            spec(Mode::Plain, false, true),
            spec(Mode::Plain, false, false),
            spec(Mode::Audited, false, true),
            spec(Mode::Plain, true, true),
            spec(Mode::Telemetry, true, true),
        ]
        .to_vec()
    } else {
        [
            spec(Mode::Plain, false, false),
            spec(Mode::Audited, false, false),
            spec(Mode::Telemetry, true, false),
        ]
        .to_vec()
    };
    for s in wanted {
        if !specs.contains(&s) {
            specs.push(s);
        }
    }
    let campaigns = bench.campaigns.len();
    let mut series: Vec<Series> = specs
        .into_iter()
        .map(|spec| Series {
            spec,
            runs: Vec::new(),
        })
        .collect();
    // Per round, the median kernel time over the round.
    let mut round_kernel_s = Vec::new();
    loop {
        let round = Instant::now();
        let mut sums = vec![RunResult::default(); series.len()];
        let mut kernel = Vec::new();
        for k in 0..campaigns {
            for (s, sum) in series.iter().zip(&mut sums) {
                sum.add(guarded(&bench, k, s.spec));
                kernel.push(kernel_s());
            }
        }
        for (s, sum) in series.iter_mut().zip(sums) {
            s.runs.push(sum);
        }
        round_kernel_s.push(median(kernel));
        let end = started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64();
        if series[0].runs.len() >= MIN_ROUNDS && end > args.seconds {
            break;
        }
    }

    let mut checker = Checker::new();
    for s in &series {
        checker.series(s);
    }
    let full: Vec<&Series> = series.iter().filter(|s| s.spec.prefix.is_none()).collect();
    let prefixed: Vec<&Series> = series.iter().filter(|s| s.spec.prefix.is_some()).collect();
    for group in [&full, &prefixed] {
        for pair in group.windows(2) {
            checker.agree(pair[0], pair[1]);
        }
    }

    let find = |mode: Mode, prefixed: bool, wrapped: bool| -> &Series {
        let wanted = spec(mode, prefixed, wrapped);
        series
            .iter()
            .find(|s| s.spec == wanted)
            .expect("spec was measured")
    };
    let scales: Vec<f64> = round_kernel_s
        .iter()
        .map(|&k| calibrate::scale(k))
        .collect();
    let audited = median_run(&find(Mode::Audited, false, args.trace).runs);
    let counters = outcome_counters(&audited.facts);

    let metrics = if !args.trace {
        let (e_sched, e_comp) = audited
            .facts
            .mean_efficiency()
            .unwrap_or((f64::NAN, f64::NAN));
        vec![
            (
                "jobs_per_s",
                find(Mode::Plain, false, false).jobs_per_s(&scales),
                "jobs/s",
            ),
            (
                "setup_s",
                median(setup_s) * calibrate::scale(median(setup_kernel_s)),
                "s",
            ),
            (
                "audited_jobs_per_s",
                find(Mode::Audited, false, false).jobs_per_s(&scales),
                "jobs/s",
            ),
            (
                "telemetry_jobs_per_s",
                find(Mode::Telemetry, true, false).jobs_per_s(&scales),
                "jobs/s",
            ),
            ("sched_efficiency", e_sched, "ratio"),
            ("comp_efficiency", e_comp, "ratio"),
        ]
    } else {
        let layer = median_run(&find(Mode::Plain, false, true).runs);
        let sched = layer.sched.clone().unwrap_or_default();
        let source = layer.source.unwrap_or_default();
        let ns = |x: u64| x as f64 / 1e9;
        let per = |num: f64, den: u64| num / den.max(1) as f64;
        let telemetry = median_run(&find(Mode::Telemetry, true, true).runs);
        let audit_sched = audited.sched.clone().unwrap_or_default();
        vec![
            ("core.schedule_s", ns(sched.schedule_ns), "s"),
            ("core.pass_p50_us", sched.pass_quantile_us(0.50), "us"),
            ("core.pass_p99_us", sched.pass_quantile_us(0.99), "us"),
            (
                "core.ns_per_queued_job",
                per(sched.schedule_ns as f64, sched.queue_scanned),
                "ns",
            ),
            ("core.passes", sched.passes as f64, "count"),
            ("core.queue_scanned", sched.queue_scanned as f64, "count"),
            (
                "core.starts_per_pass",
                per(sched.decisions as f64, sched.passes),
                "ratio",
            ),
            ("workload.next_chunk_s", ns(source.ns), "s"),
            (
                "workload.ns_per_job",
                per(source.ns as f64, source.jobs),
                "ns",
            ),
            ("workload.chunks", source.chunks as f64, "count"),
            ("engine.self_s", layer.engine_self_s(), "s"),
            (
                "engine.ns_per_event",
                per(layer.engine_self_s() * 1e9, layer.facts.events),
                "ns",
            ),
            ("engine.events", layer.facts.events as f64, "count"),
            ("core.explain_s", ns(audit_sched.explain_ns), "s"),
            ("engine.traced_self_s", audited.engine_self_s(), "s"),
            ("audit.replay_s", audited.audit_s, "s"),
            (
                "audit.ns_per_trace_event",
                per(audited.audit_s * 1e9, audited.trace_events),
                "ns",
            ),
            ("audit.trace_events", audited.trace_events as f64, "count"),
            (
                "telemetry.overhead_x",
                find(Mode::Telemetry, true, true).wall(&scales)
                    / find(Mode::Plain, true, true).wall(&scales),
                "x",
            ),
            (
                "telemetry.core_schedule_s",
                ns(telemetry.sched.map_or(0, |s| s.schedule_ns)),
                "s",
            ),
            ("bench.layer_wall_s", layer.run_s, "s"),
            (
                "bench.kernel_ms",
                median(round_kernel_s.clone()) * 1e3,
                "ms",
            ),
            (
                "bench.span_overhead",
                find(Mode::Plain, false, true).wall(&scales)
                    / find(Mode::Plain, false, false).wall(&scales),
                "x",
            ),
        ]
    };
    Ok(Report {
        checker,
        metrics,
        counters,
    })
}

fn peak(args: &Args) -> Result<Report, String> {
    let bench = Bench::reopen(args.workload, args.seed, &args.data).map_err(|e| e.to_string())?;
    let spec = RunSpec {
        mode: Mode::Plain,
        prefix: None,
        wrapped: false,
    };
    let mut run = RunResult::default();
    for k in 0..bench.campaigns.len() {
        run.add(guarded(&bench, k, spec));
    }
    let mut checker = Checker::new();
    checker.series(&Series {
        spec,
        runs: vec![run.clone()],
    });
    Ok(Report {
        checker,
        metrics: vec![("peak_rss_mib", peak_rss_mib()?, "MiB")],
        counters: outcome_counters(&run.facts),
    })
}

/// This process's peak resident memory in MiB (`VmHWM`). The process
/// was exec'd fresh for one plain run, so the figure is that run's,
/// set-up included, and nothing the parent held before the exec.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nodeshare-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.command.as_str() {
        "measure" => measure(&args, started),
        "peak" => peak(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match report {
        Ok(report) => {
            let ok = report.checker.errors.is_empty();
            println!("{}", report.to_json());
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("nodeshare-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

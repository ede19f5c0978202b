#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-report
//!
//! Trace analytics and reporting: turns a
//! [`nodeshare_engine::DecisionTrace`] — live from `run_traced`, or read
//! back from its JSON form on disk — into first-class observability
//! artifacts. Both roads yield the engine's own type, so a report built
//! from a file equals one built in-process.
//!
//! * [`model`] — [`parse_trace`], the exact inverse of
//!   [`nodeshare_engine::DecisionTrace::to_json`];
//! * [`analysis`] — per-job lifecycle spans and exact step-function
//!   timelines ([`Analysis`]), with aggregates defined identically to
//!   [`nodeshare_metrics::CampaignMetrics`] (the differential suite
//!   proves them equal);
//! * [`perfetto`] — Chrome/Perfetto trace-event JSON export (node-lane
//!   tracks, decision instants, occupancy counters) for
//!   <https://ui.perfetto.dev>;
//! * [`summary`] — a markdown run report;
//! * [`json`] — the minimal hand-rolled JSON reader the above share
//!   (the vendored `serde` stand-in provides no parser).
//!
//! The `nodeshare report <trace.json>` CLI subcommand and the campaign
//! orchestrator's per-cell reports are thin wrappers over
//! [`Report::from_json`] / [`Report::from_trace`].

pub mod analysis;
pub mod json;
pub mod model;
pub mod perfetto;
pub mod summary;

pub use analysis::{Analysis, JobSpan, StartRecord};
pub use json::JsonValue;
pub use model::parse_trace;
pub use summary::ReportOptions;

/// A fully derived report: analysis plus both export formats.
#[derive(Clone, Debug)]
pub struct Report {
    /// The derived analytics.
    pub analysis: Analysis,
    /// Perfetto/Chrome trace-event JSON.
    pub perfetto_json: String,
    /// Markdown run summary.
    pub markdown: String,
}

impl Report {
    /// Builds the report from a decision trace.
    pub fn from_trace(trace: &nodeshare_engine::DecisionTrace, opts: &ReportOptions) -> Report {
        let analysis = Analysis::from_trace(trace);
        let perfetto_json = perfetto::render(trace);
        let markdown = summary::render_markdown(&analysis, opts);
        Report {
            analysis,
            perfetto_json,
            markdown,
        }
    }

    /// Builds the report from trace JSON
    /// (`nodeshare audit --trace` / campaign `trace.json` output).
    pub fn from_json(text: &str, opts: &ReportOptions) -> Result<Report, String> {
        Ok(Report::from_trace(&parse_trace(text)?, opts))
    }
}

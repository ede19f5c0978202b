#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-obs
//!
//! Dependency-free runtime telemetry for the nodeshare workspace:
//!
//! * [`registry`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   fixed-bucket histograms with cheap atomic updates and label support,
//! * [`logger`] — a leveled structured logger (`error`..`trace`,
//!   `key=value` fields) with per-target filtering via `NODESHARE_LOG`
//!   and writer injection for tests,
//! * [`span`](mod@span) — RAII span timers feeding wall-clock histograms
//!   (`span!(hist)`),
//! * [`prometheus`] — text-exposition rendering (`# HELP`/`# TYPE`,
//!   labels, cumulative histogram buckets).
//!
//! The crate intentionally has **no dependencies** — the build
//! environment is offline (see the workspace `vendor/` stand-ins), so the
//! usual `log`/`tracing`/`prometheus` crates are hand-rolled here in the
//! exact shape this workspace needs. Everything is `Send + Sync`;
//! instruments are `Arc`-backed clones, so a registry can be shared
//! across Rayon replications.

pub mod logger;
pub mod prometheus;
pub mod registry;
pub mod span;

pub use logger::{Filter, Level};
pub use registry::{exponential_buckets, Counter, Gauge, Histogram, MetricKind, MetricsRegistry};
pub use span::SpanTimer;

/// Renders `registry` in the Prometheus text exposition format.
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    prometheus::render(registry)
}

//! Dependency-free observability for the `heterovliw` reproduction: a
//! process-wide [`MetricsRegistry`] of counters, gauges and
//! fixed-log-bucket [`Histogram`]s with a byte-stable Prometheus-style
//! text exposition, a structured span [tracer](crate::trace) writing
//! newline-JSON events with monotonic ordering and parent/child span
//! IDs, and the shared [nearest-rank percentile](crate::percentile)
//! used by loadgen and the daemon's server-side quantiles.
//!
//! # Cost model
//!
//! Counters and gauges are always live: an update is one relaxed
//! atomic add, and hot paths cache their `Arc` handle in a `OnceLock`
//! so the steady state allocates nothing and takes no lock. Clock
//! reads feeding latency histograms are gated behind
//! [`enable_timing`] (the daemon turns it on at startup; one-shot
//! runs opt in with `paper --metrics`), and span emission is gated on
//! the tracer being [installed](trace::init) (`--trace FILE`) — with
//! neither consumer active the instrumentation is near-zero-cost and
//! the scheduler's steady-state zero-allocation discipline holds.
//! Where an event is too frequent even for one atomic add — an IMS
//! placement or ejection — the producer counts it in a plain integer
//! and adds the total once per unit of work (the scheduler flushes
//! once per loop).
//!
//! # Naming conventions
//!
//! Metric names are `<layer>_<what>[_total|_nanos|_bytes]` with at
//! most one label (`kind`, `phase`, `worker`): `engine_requests_total
//! {kind="figure6"}`, `sched_phase_nanos{phase="place"}`,
//! `exec_queue_depth`. The exposition sorts families by name and
//! samples by label value, so rendered output is deterministic given
//! the same recorded samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod percentile;
pub mod trace;

pub use metrics::{
    counter, counter_with, enable_timing, gauge, gauge_with, histogram, histogram_with, registry,
    render, timing_enabled, Counter, Gauge, Histogram, MetricsRegistry,
};
pub use percentile::{nearest_rank, nearest_rank_index};
pub use trace::{span, span_kv, Span};

/// Reads the monotonic clock only when [`timing_enabled`] — the gate
/// every hot-path latency measurement goes through.
#[must_use]
pub fn timer_start() -> Option<std::time::Instant> {
    if timing_enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Elapsed nanoseconds since a [`timer_start`] instant (saturating at
/// `u64::MAX`).
#[must_use]
pub fn elapsed_nanos(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

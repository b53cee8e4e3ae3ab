//! Exact work counts and opt-in phase timing of the scheduling pipeline.
//!
//! The cost of the §4 scheduler is algorithmic work: IMS placements and
//! ejections, IT retries, and the pseudo-schedule pricings and accepted
//! moves of partition refinement. A [`SchedWorkspace`] counts each in a
//! plain `u64`, and [`crate::schedule_loop_ws`] adds them to the
//! process-wide obs counters once per loop, so no atomic is paid per
//! placement and the steady state allocates nothing. The counts are
//! deterministic: the same loops yield the same numbers on any machine
//! and at any worker count.
//!
//! Wall time is split into the pipeline's phases — clock selection,
//! partitioning, extended-graph construction, placement (ejections
//! included) and the register-pressure check — and recorded into
//! `sched_phase_nanos{phase}`, but only for a scheduling call that
//! started while obs timing was on ([`vliw_obs::timer_start`]).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use vliw_obs::{Counter, Histogram};

use crate::workspace::SchedWorkspace;

/// The counter each work count is added to, in [`SchedWorkspace::take_work`]
/// order.
const WORK_COUNTERS: [&str; 5] = [
    "sched_placements_total",
    "sched_ejections_total",
    "sched_it_retries_total",
    "sched_pricings_total",
    "sched_refine_moves_total",
];

/// A timed phase of the pipeline; its `phase` label is [`Phase::NAMES`]
/// at its index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Clocks,
    Partition,
    ExtGraph,
    Place,
    Regs,
}

impl Phase {
    const NAMES: [&'static str; 5] = ["clocks", "partition", "extgraph", "place", "regs"];
}

/// Adds the workspace's work counts to the process-wide counters and
/// zeroes them.
pub(crate) fn flush(ws: &mut SchedWorkspace) {
    static COUNTERS: OnceLock<[Arc<Counter>; 5]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| WORK_COUNTERS.map(vliw_obs::counter));
    for (counter, n) in counters.iter().zip(ws.take_work()) {
        counter.add(n);
    }
}

/// Records the time since `start` into `phase`'s histogram; a `None`
/// start (an untimed call) records nothing.
pub(crate) fn phase_done(phase: Phase, start: Option<Instant>) {
    static NANOS: OnceLock<[Arc<Histogram>; 5]> = OnceLock::new();
    if let Some(t0) = start {
        let nanos = NANOS.get_or_init(|| {
            Phase::NAMES.map(|name| vliw_obs::histogram_with("sched_phase_nanos", "phase", name))
        });
        nanos[phase as usize].record(vliw_obs::elapsed_nanos(t0));
    }
}

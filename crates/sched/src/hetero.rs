//! The top-level scheduling driver (Figure 5 of the paper).

use vliw_ir::Ddg;
use vliw_machine::{ClockedConfig, FrequencyMenu};
use vliw_power::PowerModel;

use crate::comm::ExtGraph;
use crate::error::SchedError;
use crate::ims;
use crate::partition::{fill_candidates, Partition, PartitionObjective};
use crate::schedule::ScheduledLoop;
use crate::timing::{compute_mit, next_it_candidate, LoopClocks};
use crate::work::{self, phase_done, Phase};
use crate::workspace::SchedWorkspace;

/// How many initiation times [`schedule_loop`] tries before giving up.
pub const MAX_IT_ATTEMPTS: u32 = 256;

/// The inputs of [`schedule_loop`] that vary between calls.
#[derive(Debug, Clone)]
pub struct ScheduleOptions {
    /// The frequencies the clock network supports (Figure 7 varies this).
    pub menu: FrequencyMenu,
    /// Loop trip count assumed by the partitioner's ED² objective.
    pub trip_count: u64,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            menu: FrequencyMenu::unrestricted(),
            trip_count: 100,
        }
    }
}

/// Modulo schedules `ddg` on `config`, following the paper's Figure 5 flow:
/// compute `MIT`, select `(frequency, II)` pairs, partition, schedule, and
/// increase the `IT` on any failure.
///
/// Pass a [`PowerModel`] to drive the partitioner's ED² objective
/// (heterogeneous mode); `None` optimises execution time only (the
/// homogeneous baseline).
///
/// # Errors
///
/// * [`SchedError::Unschedulable`] — the DDG has a zero-distance cycle;
/// * [`SchedError::NoFeasibleIt`] — capacity can never be satisfied;
/// * [`SchedError::NoSchedule`] — the retry budget ran out.
pub fn schedule_loop(
    ddg: &Ddg,
    config: &ClockedConfig,
    power: Option<&PowerModel>,
    opts: &ScheduleOptions,
) -> Result<ScheduledLoop, SchedError> {
    let mut ws = SchedWorkspace::new();
    schedule_impl(ddg, config, power, opts, None, &mut ws)
}

/// [`schedule_loop`] with a caller-provided [`SchedWorkspace`], reused
/// across the IT-retry loop and across calls.
///
/// The workspace only changes *where* scratch memory lives: results are
/// byte-identical to [`schedule_loop`]. The exploration layer keeps one
/// workspace per worker thread so re-scheduling thousands of loops
/// performs no steady-state allocation inside the IMS.
///
/// # Example
///
/// One workspace amortised across a whole batch of loops:
///
/// ```
/// use vliw_ir::{DdgBuilder, OpClass};
/// use vliw_machine::{ClockedConfig, MachineDesign};
/// use vliw_sched::{schedule_loop_ws, SchedWorkspace, ScheduleOptions};
///
/// let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
/// let opts = ScheduleOptions::default();
/// let mut ws = SchedWorkspace::new(); // created once, reused below
/// for n in 2..5 {
///     let mut b = DdgBuilder::new(format!("chain{n}"));
///     let ops: Vec<_> = (0..n).map(|i| b.op(format!("n{i}"), OpClass::FpArith)).collect();
///     for w in ops.windows(2) {
///         b.flow(w[0], w[1]);
///     }
///     let ddg = b.build()?;
///     let sched = schedule_loop_ws(&ddg, &config, None, &opts, &mut ws)?;
///     assert!(sched.it().as_ns() >= 1.0);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// As [`schedule_loop`].
pub fn schedule_loop_ws(
    ddg: &Ddg,
    config: &ClockedConfig,
    power: Option<&PowerModel>,
    opts: &ScheduleOptions,
    ws: &mut SchedWorkspace,
) -> Result<ScheduledLoop, SchedError> {
    schedule_impl(ddg, config, power, opts, None, ws)
}

/// Like [`schedule_loop`] but with a fixed, caller-provided partition —
/// used by ablation studies and tests that isolate the scheduler from the
/// partitioner.
///
/// # Errors
///
/// As [`schedule_loop`]; additionally the fixed partition may simply not
/// admit a schedule, reported as [`SchedError::NoSchedule`].
pub fn schedule_loop_with_partition(
    ddg: &Ddg,
    config: &ClockedConfig,
    partition: &Partition,
    opts: &ScheduleOptions,
) -> Result<ScheduledLoop, SchedError> {
    let mut ws = SchedWorkspace::new();
    schedule_impl(ddg, config, None, opts, Some(partition), &mut ws)
}

fn schedule_impl(
    ddg: &Ddg,
    config: &ClockedConfig,
    power: Option<&PowerModel>,
    opts: &ScheduleOptions,
    fixed: Option<&Partition>,
    ws: &mut SchedWorkspace,
) -> Result<ScheduledLoop, SchedError> {
    // Process-wide scheduling telemetry. Handles are interned once and
    // cached; the steady-state cost is a handful of relaxed atomic adds
    // per loop for the counters (the work counts accumulate as plain
    // integers in the workspace and are flushed here) and — only when a
    // metrics consumer enabled timing — clock reads plus lock-free
    // histogram records per phase. Nothing here allocates after the
    // first call, preserving the zero-alloc discipline.
    use std::sync::{Arc, OnceLock};
    static LOOPS: OnceLock<Arc<vliw_obs::Counter>> = OnceLock::new();
    static NANOS: OnceLock<Arc<vliw_obs::Histogram>> = OnceLock::new();
    LOOPS
        .get_or_init(|| vliw_obs::counter("sched_loops_scheduled_total"))
        .inc();
    // Counts left by direct IMS or partitioner calls belong to no loop.
    let _ = ws.take_work();
    let start = vliw_obs::timer_start();
    ws.timed = start.is_some();
    let result = schedule_impl_untimed(ddg, config, power, opts, fixed, ws);
    ws.timed = false;
    if let Some(s) = start {
        NANOS
            .get_or_init(|| vliw_obs::histogram("sched_schedule_nanos"))
            .record(vliw_obs::elapsed_nanos(s));
    }
    work::flush(ws);
    result
}

fn schedule_impl_untimed(
    ddg: &Ddg,
    config: &ClockedConfig,
    power: Option<&PowerModel>,
    opts: &ScheduleOptions,
    fixed: Option<&Partition>,
    ws: &mut SchedWorkspace,
) -> Result<ScheduledLoop, SchedError> {
    ddg.validate_schedulable()
        .map_err(|_| SchedError::Unschedulable {
            loop_name: ddg.name().to_owned(),
        })?;
    if let Some(p) = fixed {
        assert_eq!(p.len(), ddg.num_ops(), "fixed partition must cover the DDG");
    }
    let clocks_start = ws.phase_start();
    let mit = compute_mit(ddg, config, &opts.menu);
    phase_done(Phase::Clocks, clocks_start);
    let mit = mit?;
    let mut it = mit;
    let objective = PartitionObjective {
        power,
        trip_count: opts.trip_count,
    };

    for _ in 0..MAX_IT_ATTEMPTS {
        let clocks_start = ws.phase_start();
        let selected = LoopClocks::select(config, &opts.menu, it);
        phase_done(Phase::Clocks, clocks_start);
        let Some(clocks) = selected else {
            ws.it_retries += 1;
            it = next_it_candidate(config, &opts.menu, it);
            continue;
        };
        // Candidate partitions for this IT (see `partition_candidates_ws`),
        // kept in the workspace; pinning is the only step that can fail.
        let partition_start = ws.phase_start();
        let pinned = fixed.is_some()
            || fill_candidates(ddg, config, &clocks, &objective, &mut ws.part).is_ok();
        phase_done(Phase::Partition, partition_start);
        if !pinned {
            ws.it_retries += 1;
            it = next_it_candidate(config, &opts.menu, it);
            continue;
        }
        let candidates = std::mem::take(&mut ws.part.candidates);
        let tried = match fixed {
            Some(p) => std::slice::from_ref(&p.assignment),
            None => candidates.as_slice(),
        };
        let mut best: Option<ScheduledLoop> = None;
        for assignment in tried {
            let ext_start = ws.phase_start();
            let graph = ExtGraph::build(ddg, assignment, config, &clocks);
            phase_done(Phase::ExtGraph, ext_start);
            if ims::schedule_into(&graph, config, &clocks, ws).is_ok() {
                let scheduled = ScheduledLoop::from_ims(
                    ddg,
                    &graph,
                    clocks.clone(),
                    assignment.clone(),
                    &ws.issue_cycles,
                    &ws.issue_ticks,
                    &ws.max_live,
                    config.design().num_clusters,
                );
                // Same IT: prefer fewer communications (less bus energy),
                // then shorter iterations.
                let better = best.as_ref().is_none_or(|b| {
                    (scheduled.comms_per_iter(), scheduled.it_length_ticks())
                        < (b.comms_per_iter(), b.it_length_ticks())
                });
                if better {
                    best = Some(scheduled);
                }
            }
        }
        ws.part.candidates = candidates;
        if let Some(s) = best {
            return Ok(s);
        }
        ws.it_retries += 1;
        it = next_it_candidate(config, &opts.menu, it);
    }
    Err(SchedError::NoSchedule {
        loop_name: ddg.name().to_owned(),
        attempts: MAX_IT_ATTEMPTS,
        last_it: it,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{DdgBuilder, OpClass};
    use vliw_machine::{MachineDesign, Time};

    fn reference() -> ClockedConfig {
        ClockedConfig::reference(MachineDesign::paper_machine(1))
    }

    /// A DDG shaped like an fp stencil inner loop.
    fn stencil() -> Ddg {
        let mut b = DdgBuilder::new("stencil");
        let l0 = b.op("ld a[i-1]", OpClass::FpMemory);
        let l1 = b.op("ld a[i]", OpClass::FpMemory);
        let l2 = b.op("ld a[i+1]", OpClass::FpMemory);
        let m0 = b.op("mul0", OpClass::FpMul);
        let m1 = b.op("mul1", OpClass::FpMul);
        let s0 = b.op("add0", OpClass::FpArith);
        let s1 = b.op("add1", OpClass::FpArith);
        let st = b.op("st b[i]", OpClass::FpMemory);
        b.flow(l0, m0);
        b.flow(l1, m0);
        b.flow(l1, m1);
        b.flow(l2, m1);
        b.flow(m0, s0);
        b.flow(m1, s0);
        b.flow(s0, s1);
        b.flow(s1, st);
        b.build().unwrap()
    }

    #[test]
    fn schedules_stencil_on_reference_machine() {
        let config = reference();
        let s = schedule_loop(&stencil(), &config, None, &ScheduleOptions::default()).unwrap();
        // 3 memory ops on 4 ports fit at II 1, but dependences stretch the
        // iteration; IT must be at least the fastest conceivable.
        assert!(s.it() >= Time::from_ns(1.0));
        assert!(
            s.it_length() > s.it(),
            "software pipelining overlaps iterations"
        );
        assert_eq!(s.assignment().len(), 8);
        // Executing N iterations takes (N-1)·IT + it_length.
        let t10 = s.exec_time(10);
        let t11 = s.exec_time(11);
        assert_eq!(t11 - t10, s.it());
    }

    #[test]
    fn recurrence_bound_is_respected() {
        let config = reference();
        let mut b = DdgBuilder::new("acc");
        let a = b.op("acc", OpClass::FpArith);
        b.flow_carried(a, a, 1);
        let ddg = b.build().unwrap();
        let s = schedule_loop(&ddg, &config, None, &ScheduleOptions::default()).unwrap();
        assert!(s.it() >= Time::from_ns(3.0));
    }

    #[test]
    fn heterogeneous_machine_schedules_and_uses_fast_cluster_for_recurrence() {
        let design = MachineDesign::paper_machine(1);
        let config =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5));
        // Recurrence with min II 6 (fp mul self-loop).
        let mut b = DdgBuilder::new("recloop");
        let m = b.op("mul-acc", OpClass::FpMul);
        b.flow_carried(m, m, 1);
        // Independent fp work that can go anywhere.
        for i in 0..4 {
            b.op(format!("f{i}"), OpClass::FpArith);
        }
        let ddg = b.build().unwrap();
        let s = schedule_loop(&ddg, &config, None, &ScheduleOptions::default()).unwrap();
        // IT ≥ 6 fast-cluster cycles = 6 ns; at IT = 6 ns the slow clusters
        // have II 4 < 6, so the recurrence must sit in the fast cluster.
        assert!(s.it() >= Time::from_ns(6.0));
        if s.it() < Time::from_ns(9.0) {
            assert_eq!(s.assignment()[0], vliw_machine::ClusterId(0));
        }
    }

    #[test]
    fn fixed_partition_is_respected() {
        let config = reference();
        let ddg = stencil();
        let partition = Partition {
            assignment: vec![vliw_machine::ClusterId(1); 8],
        };
        let s =
            schedule_loop_with_partition(&ddg, &config, &partition, &ScheduleOptions::default())
                .unwrap();
        assert!(s
            .assignment()
            .iter()
            .all(|&c| c == vliw_machine::ClusterId(1)));
        assert_eq!(s.comms_per_iter(), 0);
    }

    #[test]
    fn unschedulable_ddg_is_reported() {
        let config = reference();
        let mut b = DdgBuilder::new("bad");
        let a = b.op("a", OpClass::IntArith);
        let c = b.op("b", OpClass::IntArith);
        b.dep(a, c, 1);
        b.dep(c, a, 1);
        let ddg = b.build().unwrap();
        assert!(matches!(
            schedule_loop(&ddg, &config, None, &ScheduleOptions::default()),
            Err(SchedError::Unschedulable { .. })
        ));
    }

    #[test]
    fn usage_profile_accounts_every_event() {
        let config = reference();
        let ddg = stencil();
        let s = schedule_loop(&ddg, &config, None, &ScheduleOptions::default()).unwrap();
        let usage = s.usage(50);
        let total_ins: f64 = usage.weighted_ins_per_cluster.iter().sum();
        assert!((total_ins - ddg.iteration_energy() * 50.0).abs() < 1e-9);
        assert_eq!(
            usage.mem_accesses,
            4 * 50,
            "3 loads + 1 store per iteration"
        );
        assert_eq!(usage.comms, s.comms_per_iter() * 50);
        assert_eq!(usage.exec_time, s.exec_time(50));
    }
}

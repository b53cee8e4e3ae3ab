//! Reference-machine profiling (the paper's §3 "profile data").

use vliw_ir::FuKind;
use vliw_machine::{ClockedConfig, MachineDesign, Time};
use vliw_power::ReferenceProfile;
use vliw_sched::{schedule_loop_ws, SchedError, SchedWorkspace, ScheduleOptions, ScheduledLoop};
use vliw_workloads::Benchmark;

/// Nominal whole-program execution time on the reference machine. Loop
/// invocation counts are scaled so each loop's share of this time equals
/// its profile weight; all model outputs are ratios, so the absolute value
/// is arbitrary.
pub(crate) const T_TOTAL: Time = Time::from_fs(1_000_000 * Time::FS_PER_NS); // 1 ms

/// Everything the §3 models need to know about one loop, measured on the
/// reference homogeneous machine.
#[derive(Debug, Clone)]
pub struct LoopProfile {
    /// Loop name.
    pub name: String,
    /// Fraction of program time this loop accounts for.
    pub weight: f64,
    /// Iterations per invocation.
    pub trips: u64,
    /// Recurrence-constrained minimum II (cycles).
    pub rec_mii: u32,
    /// Operations per FU kind `[int, fp, mem]`.
    pub fu_counts: [u64; 3],
    /// Inter-cluster communications per iteration in the reference
    /// schedule.
    pub comms: u64,
    /// Sum of register lifetimes per iteration (time).
    pub lifetime_time: Time,
    /// Iteration length of the reference schedule.
    pub it_length: Time,
    /// Initiation time of the reference schedule.
    pub it_ref: Time,
    /// Energy-weighted instructions per iteration (whole loop).
    pub weighted_ins: f64,
    /// Energy-weighted instructions per iteration on non-trivial
    /// recurrences (the critical subset the fast cluster must host).
    pub rec_weighted_ins: f64,
    /// Memory accesses per iteration.
    pub mem_accesses: u64,
    /// Execution time of one invocation (`trips` iterations).
    pub exec_time_ref: Time,
    /// Invocation multiplier: `weight · T_TOTAL / exec_time_ref`.
    pub invocations: f64,
}

/// A profiled benchmark: per-loop profiles plus the aggregate reference
/// profile that calibrates the energy model.
#[derive(Debug, Clone)]
pub struct BenchmarkProfile {
    /// Benchmark name.
    pub name: String,
    /// Per-loop measurements.
    pub loops: Vec<LoopProfile>,
    /// Aggregate reference-run profile (total energy normalisation point).
    pub reference: ReferenceProfile,
}

/// Aggregates per-benchmark reference profiles into one suite-level
/// profile: each benchmark contributes the same nominal time (1 ms), so
/// the suite runs for `n` times that and its event counts are the
/// per-benchmark sums.
///
/// The paper's §5 energy shares describe the reference machine running the
/// *whole* workload, so the energy units are calibrated once on this
/// aggregate; per-benchmark dynamic/static mixes then differ with their
/// IPC, exactly the effect §5.2 discusses for swim/mgrid.
///
/// # Panics
///
/// Panics if `profiles` is empty.
#[must_use]
pub fn suite_reference(profiles: &[BenchmarkProfile]) -> ReferenceProfile {
    assert!(!profiles.is_empty(), "cannot aggregate an empty suite");
    ReferenceProfile {
        weighted_ins: profiles.iter().map(|p| p.reference.weighted_ins).sum(),
        comms: profiles.iter().map(|p| p.reference.comms).sum(),
        mem_accesses: profiles.iter().map(|p| p.reference.mem_accesses).sum(),
        exec_time: T_TOTAL * profiles.len() as u64,
    }
}

/// The aggregate reference run of a benchmark's loops: every count is
/// `Σ invocations · trips · per-iteration count`, over the nominal
/// [`T_TOTAL`].
pub(crate) fn reference_aggregate(loops: &[LoopProfile]) -> ReferenceProfile {
    let mut agg_ins = 0.0f64;
    let mut agg_comms = 0.0f64;
    let mut agg_mem = 0.0f64;
    for l in loops {
        let trips = l.trips as f64;
        agg_ins += l.invocations * l.weighted_ins * trips;
        agg_comms += l.invocations * l.comms as f64 * trips;
        agg_mem += l.invocations * l.mem_accesses as f64 * trips;
    }
    ReferenceProfile {
        weighted_ins: agg_ins,
        comms: agg_comms.round() as u64,
        mem_accesses: agg_mem.round() as u64,
        exec_time: T_TOTAL,
    }
}

/// Schedules and simulates every loop of `bench` on the reference
/// homogeneous machine under the unrestricted frequency menu, producing
/// the profile the §3 models start from.
///
/// `ws` is a caller-provided scheduling workspace, reused across every
/// loop of the benchmark (and across benchmarks when the caller keeps one
/// workspace per worker thread); it never changes the result.
///
/// # Errors
///
/// Propagates scheduling failures (which indicate a malformed workload —
/// generated suites always schedule).
pub(crate) fn profile_benchmark(
    bench: &Benchmark,
    design: MachineDesign,
    ws: &mut SchedWorkspace,
) -> Result<BenchmarkProfile, SchedError> {
    let config = ClockedConfig::reference(design);
    let mut loops = Vec::with_capacity(bench.loops.len());
    for l in &bench.loops {
        let ddg = l.ddg();
        let opts = ScheduleOptions {
            trip_count: l.trip_count(),
            ..ScheduleOptions::default()
        };
        let sched: ScheduledLoop = schedule_loop_ws(ddg, &config, None, &opts, ws)?;
        let exec_time_ref = sched.exec_time(l.trip_count());
        let invocations = l.weight() * T_TOTAL.as_ns() / exec_time_ref.as_ns();

        let rec_weighted_ins: f64 = ddg
            .recurrences()
            .iter()
            .flat_map(|r| r.ops.iter())
            .map(|&op| ddg.op(op).class().relative_energy())
            .sum();

        let lifetime_time = sched.clocks().ticks_to_time(sched.lifetime_sum_ticks());
        loops.push(LoopProfile {
            name: ddg.name().to_owned(),
            weight: l.weight(),
            trips: l.trip_count(),
            rec_mii: ddg.rec_mii(),
            fu_counts: [
                ddg.count_fu(FuKind::Int) as u64,
                ddg.count_fu(FuKind::Fp) as u64,
                ddg.count_fu(FuKind::Mem) as u64,
            ],
            comms: sched.comms_per_iter(),
            lifetime_time,
            it_length: sched.it_length(),
            it_ref: sched.it(),
            weighted_ins: ddg.iteration_energy(),
            rec_weighted_ins,
            mem_accesses: sched.mem_accesses_per_iter(),
            exec_time_ref,
            invocations,
        });
    }
    Ok(BenchmarkProfile {
        name: bench.name.clone(),
        reference: reference_aggregate(&loops),
        loops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_workloads::{generate, spec_fp2000};

    #[test]
    fn profile_shares_reconstruct_t_total() {
        let bench = generate(&spec_fp2000()[1], 8); // swim
        let design = MachineDesign::paper_machine(1);
        let mut ws = SchedWorkspace::new();
        let p = profile_benchmark(&bench, design, &mut ws).unwrap();
        assert_eq!(p.loops.len(), bench.loops.len());
        // Σ invocations · exec_time = T_TOTAL by construction.
        let total: f64 = p
            .loops
            .iter()
            .map(|l| l.invocations * l.exec_time_ref.as_ns())
            .sum();
        assert!((total - T_TOTAL.as_ns()).abs() / T_TOTAL.as_ns() < 1e-9);
        assert_eq!(p.reference.exec_time, T_TOTAL);
        assert!(p.reference.weighted_ins > 0.0);
    }

    #[test]
    fn recurrence_heavy_benchmarks_report_rec_ins() {
        let bench = generate(&spec_fp2000()[8], 6); // sixtrack
        let design = MachineDesign::paper_machine(1);
        let mut ws = SchedWorkspace::new();
        let p = profile_benchmark(&bench, design, &mut ws).unwrap();
        let with_recs = p.loops.iter().filter(|l| l.rec_weighted_ins > 0.0).count();
        assert!(
            with_recs >= p.loops.len() - 1,
            "sixtrack loops are recurrence bound"
        );
        for l in &p.loops {
            assert!(l.rec_weighted_ins <= l.weighted_ins + 1e-9);
        }
    }
}

//! Compile-time estimation of a configuration's execution time and energy
//! from the reference profile (§3.2 of the paper).

use vliw_machine::{ClockedConfig, ClusterId, FrequencyMenu, Time};
use vliw_power::{ed2, PowerModel, UsageProfile};
use vliw_sched::timing::{next_it_candidate, LoopClocks};

use crate::profile::{BenchmarkProfile, LoopProfile};

/// Model-estimated behaviour of one configuration on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HetEstimate {
    /// Estimated program execution time.
    pub exec_time: Time,
    /// Estimated energy (reference-run units).
    pub energy: f64,
    /// Estimated ED².
    pub ed2: f64,
}

/// §3.2's per-loop `IT` estimate: the smallest synchronisable initiation
/// time such that
///
/// * `IT ≥ MIT` — slots for every instruction and room for the longest
///   recurrence (paced by the fastest cluster);
/// * the buses fit the communications of the *reference* schedule;
/// * the register files fit the summed value lifetimes of the reference
///   schedule.
///
/// Returns `None` when no `IT` within the search horizon qualifies.
#[must_use]
pub(crate) fn estimate_loop_it(
    profile: &LoopProfile,
    config: &ClockedConfig,
    menu: &FrequencyMenu,
) -> Option<Time> {
    let design = config.design();
    let rec_mit = config.fastest_cluster_cycle() * u64::from(profile.rec_mii);
    let mut it = rec_mit.max(config.fastest_cluster_cycle());
    for _ in 0..10_000u32 {
        if let Some(clocks) = LoopClocks::select(config, menu, it) {
            if capacity_fits(profile, design, &clocks)
                && comms_fit(profile, design, &clocks)
                && lifetimes_fit(profile, design, it)
            {
                return Some(it);
            }
        }
        it = next_it_candidate(config, menu, it);
    }
    None
}

fn capacity_fits(
    profile: &LoopProfile,
    design: vliw_machine::MachineDesign,
    clocks: &LoopClocks,
) -> bool {
    use vliw_ir::FuKind;
    for (i, kind) in [FuKind::Int, FuKind::Fp, FuKind::Mem]
        .into_iter()
        .enumerate()
    {
        let capacity: u64 = design
            .clusters()
            .map(|c| u64::from(design.cluster.fu_count(kind)) * clocks.cluster_ii(c))
            .sum();
        if profile.fu_counts[i] > capacity {
            return false;
        }
    }
    true
}

fn comms_fit(
    profile: &LoopProfile,
    design: vliw_machine::MachineDesign,
    clocks: &LoopClocks,
) -> bool {
    profile.comms <= u64::from(design.buses) * clocks.icn_ii()
}

fn lifetimes_fit(profile: &LoopProfile, design: vliw_machine::MachineDesign, it: Time) -> bool {
    // Register files provide `registers · IT` register-time per iteration.
    let provided_fs = u128::from(design.total_registers()) * u128::from(it.as_fs());
    u128::from(profile.lifetime_time.as_fs()) <= provided_fs
}

/// The §3.2 `it_length` approximation: the reference iteration's cycle
/// count priced at the arithmetic mean of the heterogeneous cluster cycle
/// times ("half the iteration executes on fast clusters, half on slow").
#[must_use]
pub fn estimate_it_length(profile: &LoopProfile, config: &ClockedConfig) -> Time {
    let design = config.design();
    let cycles = profile.it_length.as_ns() / ClockedConfig::REFERENCE_CYCLE.as_ns();
    let mean_ct_ns = design
        .clusters()
        .map(|c| config.cluster_cycle(c).as_ns())
        .sum::<f64>()
        / f64::from(design.num_clusters);
    Time::from_ns(cycles * mean_ct_ns)
}

/// Estimates the *usage profile* (per-cluster instruction distribution,
/// event counts, execution time) of a whole benchmark on `config`: the
/// voltage-independent half of an estimate, priced by [`price_usage`].
///
/// A frequency-homogeneous `config` gets the exact §5.1 usage,
/// [`UsageProfile::homogeneous`]. Any other gets the §3.2 estimate: each
/// loop's `IT` from its reference profile, the `it_length`
/// approximation, and the critical-recurrence instructions attributed to
/// the fastest cluster(s) with the rest spread by slot capacity.
///
/// Cycle times and the frequency menu fully determine the result; supply
/// voltages only enter the energy model afterwards. The selection scheme
/// exploits that split: one usage estimate per candidate configuration is
/// shared across the entire voltage-descent grid, and the profiled suite
/// memoises it across selections
/// ([`ProfiledSuite::estimate_memoised`](crate::experiments::ProfiledSuite::estimate_memoised)).
///
/// Returns `None` when some loop cannot synchronise within the search
/// horizon.
#[must_use]
pub fn estimate_usage(
    profile: &BenchmarkProfile,
    config: &ClockedConfig,
    menu: &FrequencyMenu,
) -> Option<UsageProfile> {
    if let Some(usage) = UsageProfile::homogeneous(&profile.reference, config) {
        return Some(usage);
    }
    let design = config.design();
    let fastest = config.fastest_cluster_cycle();
    let fast_clusters: Vec<ClusterId> = design
        .clusters()
        .filter(|&c| config.cluster_cycle(c) == fastest)
        .collect();
    // Capacity ∝ 1 / cycle time (II per unit of IT).
    let inv_ct: Vec<f64> = design
        .clusters()
        .map(|c| 1.0 / config.cluster_cycle(c).as_ns())
        .collect();
    let total_cap: f64 = inv_ct.iter().sum();

    let mut total_ns = 0.0f64;
    let mut weighted = vec![0.0f64; usize::from(design.num_clusters)];
    let mut comms = 0.0f64;
    let mut mems = 0.0f64;
    for l in &profile.loops {
        let it = estimate_loop_it(l, config, menu)?;
        let itlen = estimate_it_length(l, config);
        let t_loop = it.as_ns() * (l.trips.saturating_sub(1)) as f64 + itlen.as_ns();
        total_ns += l.invocations * t_loop;

        // Instruction distribution: critical-recurrence work must sit on
        // the fast cluster(s); the remainder spreads across *all* clusters
        // proportionally to their slot capacity (their II), which is how
        // the partitioner actually balances resource-bound work.
        let per_iter = l.weighted_ins * l.invocations * l.trips as f64;
        let rec_share = if l.weighted_ins > 0.0 {
            (l.rec_weighted_ins / l.weighted_ins).min(1.0)
        } else {
            0.0
        };
        let rec_part = per_iter * rec_share / fast_clusters.len() as f64;
        for &c in &fast_clusters {
            weighted[c.index()] += rec_part;
        }
        let rest = per_iter * (1.0 - rec_share);
        for c in design.clusters() {
            weighted[c.index()] += rest * inv_ct[c.index()] / total_cap;
        }
        comms += l.invocations * l.comms as f64 * l.trips as f64;
        mems += l.invocations * l.mem_accesses as f64 * l.trips as f64;
    }

    Some(UsageProfile {
        weighted_ins_per_cluster: weighted,
        comms: comms.round() as u64,
        mem_accesses: mems.round() as u64,
        exec_time: Time::from_ns(total_ns),
    })
}

/// Turns a usage estimate into a full [`HetEstimate`] by pricing it with
/// the §3.1 energy model at `config`'s voltages.
///
/// Returns `None` when a domain's (frequency, voltage) pair is
/// electrically infeasible.
#[must_use]
pub fn price_usage(
    usage: &UsageProfile,
    config: &ClockedConfig,
    power: &PowerModel,
) -> Option<HetEstimate> {
    let energy = power.estimate_energy(config, usage)?;
    Some(HetEstimate {
        exec_time: usage.exec_time,
        energy,
        ed2: ed2(energy, usage.exec_time.as_secs()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::MachineDesign;
    use vliw_power::EnergyShares;
    use vliw_sched::SchedWorkspace;
    use vliw_workloads::{generate, spec_fp2000};

    use crate::profile::profile_benchmark;

    fn profiled(spec_idx: usize, n: usize) -> (BenchmarkProfile, MachineDesign) {
        let design = MachineDesign::paper_machine(1);
        let bench = generate(&spec_fp2000()[spec_idx], n);
        let mut ws = SchedWorkspace::new();
        let p = profile_benchmark(&bench, design, &mut ws).unwrap();
        (p, design)
    }

    #[test]
    fn reference_estimate_is_consistent_with_profile() {
        // swim on one cluster at the reference cycle and three 25% slower:
        // a heterogeneous machine, so the §3.2 estimator answers.
        let (p, design) = profiled(1, 8);
        let config =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25));
        let power = PowerModel::calibrate(design, EnergyShares::PAPER, &p.reference);
        let usage = estimate_usage(&p, &config, &FrequencyMenu::unrestricted()).unwrap();
        let est = price_usage(&usage, &config, &power).unwrap();
        // The IT estimator lower-bounds the scheduler (it ignores schedule
        // imperfection), so estimated time is within ~2× of the measured
        // T_TOTAL and energy is near 1.
        let ratio = est.exec_time.as_ns() / crate::profile::T_TOTAL.as_ns();
        assert!(ratio > 0.3 && ratio < 1.5, "time ratio {ratio}");
        assert!(
            est.energy > 0.5 && est.energy < 1.5,
            "energy {}",
            est.energy
        );
    }

    #[test]
    fn recurrence_loops_speed_up_with_a_fast_cluster() {
        let (p, design) = profiled(8, 6); // sixtrack
        let menu = FrequencyMenu::unrestricted();
        let reference = ClockedConfig::reference(design);
        let fast =
            ClockedConfig::heterogeneous(design, Time::from_ns(0.9), 1, Time::from_ns(0.9 * 1.25));
        for l in &p.loops {
            let it_ref = estimate_loop_it(l, &reference, &menu).unwrap();
            let it_fast = estimate_loop_it(l, &fast, &menu).unwrap();
            if l.rec_mii >= 4 {
                assert!(
                    it_fast < it_ref,
                    "loop {}: recurrence paced by the 0.9 ns cluster ({it_fast} vs {it_ref})",
                    l.name
                );
            }
        }
    }

    #[test]
    fn resource_loops_slow_down_when_clusters_slow_down() {
        let (p, design) = profiled(1, 6); // swim: resource constrained
        let menu = FrequencyMenu::unrestricted();
        let reference = ClockedConfig::reference(design);
        // One fast cluster at the reference speed, three at 1.5 ns: slot
        // capacity shrinks, so resource-bound ITs must grow.
        let hetero =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.5));
        let mut grew = 0;
        for l in &p.loops {
            let a = estimate_loop_it(l, &reference, &menu).unwrap();
            let b = estimate_loop_it(l, &hetero, &menu).unwrap();
            assert!(b >= a);
            if b > a {
                grew += 1;
            }
        }
        assert!(grew > 0, "capacity loss must bite somewhere");
    }

    #[test]
    fn equal_cluster_cycles_split_the_work_evenly() {
        // Four 1 ns clusters behind a 1.25 ns ICN: not homogeneous, so the
        // §3.2 estimator answers, and every cluster is a fast one.
        let (p, design) = profiled(8, 6); // sixtrack: recurrence work too
        let config = ClockedConfig::from_parts(
            design,
            vec![Time::from_ns(1.0); 4],
            Time::from_ns(1.25),
            Time::from_ns(1.0),
            vliw_machine::Voltages::reference(design.num_clusters),
        );
        assert!(!config.is_homogeneous());
        let usage = estimate_usage(&p, &config, &FrequencyMenu::unrestricted()).unwrap();
        let total: f64 = p
            .loops
            .iter()
            .map(|l| l.weighted_ins * l.invocations * l.trips as f64)
            .sum();
        let even = total / 4.0;
        for &w in &usage.weighted_ins_per_cluster {
            assert!(((w - even) / even).abs() < 1e-12, "{w} vs even {even}");
        }
    }

    #[test]
    fn it_length_estimate_uses_mean_cycle_time() {
        let (p, design) = profiled(0, 4);
        let hetero =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 2, Time::from_ns(2.0));
        let l = &p.loops[0];
        let est = estimate_it_length(l, &hetero);
        // Mean cycle time = (1+1+2+2)/4 = 1.5 ⇒ itlen scales by 1.5.
        let expect = l.it_length.as_ns() * 1.5;
        assert!((est.as_ns() - expect).abs() < 1e-6);
    }
}

//! Differential test of the energy model's pricing: the §3.1.3 formula
//! priced from precomputed domain scalings (`scale_config` then `price`,
//! and `estimate_energy`, which is the two in sequence) against an oracle
//! that derives every domain's δ/σ inline where the formula uses it, bit
//! for bit, including `None` for infeasible (frequency, supply) pairs.

use proptest::prelude::*;
use vliw_machine::{ClockedConfig, DomainId, MachineDesign, Time, Voltages};
use vliw_power::{
    dynamic_scale, static_scale, threshold_for, ConfigScaling, EnergyShares, PowerModel,
    ReferenceProfile, UsageProfile,
};

fn model(buses: u32) -> PowerModel {
    PowerModel::calibrate(
        MachineDesign::paper_machine(buses),
        EnergyShares::PAPER,
        &ReferenceProfile {
            weighted_ins: 10_000.0,
            comms: 800,
            mem_accesses: 2_500,
            exec_time: Time::from_ns(20_000.0),
        },
    )
}

/// The §3.1.3 formula with each domain's δ/σ derived from the α-power
/// model at the point of use, in the formula's order.
fn oracle_energy(power: &PowerModel, config: &ClockedConfig, usage: &UsageProfile) -> Option<f64> {
    let units = power.units();
    let scale = |d: DomainId| -> Option<(f64, f64)> {
        let vdd = config.voltages().domain(d);
        let vth = threshold_for(config.domain_cycle(d).freq_ghz(), vdd)?;
        Some((dynamic_scale(vdd), static_scale(vdd, vth)))
    };
    let secs = usage.exec_time.as_secs();
    let mut dynamic = 0.0;
    let mut static_per_s = 0.0;
    for c in power.design().clusters() {
        let (delta, sigma) = scale(DomainId::Cluster(c))?;
        dynamic += usage.weighted_ins_per_cluster[c.index()] * units.e_ins * delta;
        static_per_s += units.e_static_cluster_per_s * sigma;
    }
    let (delta, sigma) = scale(DomainId::Icn)?;
    dynamic += usage.comms as f64 * units.e_comm * delta;
    static_per_s += units.e_static_icn_per_s * sigma;
    let (delta, sigma) = scale(DomainId::Cache)?;
    dynamic += usage.mem_accesses as f64 * units.e_access * delta;
    static_per_s += units.e_static_cache_per_s * sigma;
    Some(dynamic + static_per_s * secs)
}

/// A four-cluster configuration with an arbitrary cycle time and supply
/// per domain.
fn config(cycles_ns: &[f64], vdds: &[f64]) -> ClockedConfig {
    let design = MachineDesign::paper_machine(1);
    let cycle = |i: usize| Time::from_ns(cycles_ns[i]);
    ClockedConfig::from_parts(
        design,
        (0..4).map(cycle).collect(),
        cycle(4),
        cycle(5),
        Voltages {
            clusters: vdds[..4].to_vec(),
            icn: vdds[4],
            cache: vdds[5],
        },
    )
}

fn bits(e: Option<f64>) -> Option<u64> {
    e.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pricing_from_scalings_matches_the_inline_formula(
        cycles_ns in proptest::collection::vec(0.6f64..2.0, 6..7),
        vdds in proptest::collection::vec(0.6f64..1.5, 6..7),
        weighted in proptest::collection::vec(0.0f64..1.0e6, 4..5),
        comms in 0u64..200_000,
        mem_accesses in 0u64..500_000,
        exec_ns in 1.0f64..1.0e7,
        buses in 1u32..3,
    ) {
        let power = model(buses);
        let config = config(&cycles_ns, &vdds);
        let usage = UsageProfile {
            weighted_ins_per_cluster: weighted,
            comms,
            mem_accesses,
            exec_time: Time::from_ns(exec_ns),
        };
        let expected = bits(oracle_energy(&power, &config, &usage));
        prop_assert_eq!(bits(power.estimate_energy(&config, &usage)), expected);

        let mut scaling = ConfigScaling::default();
        let feasible = power.scale_config(&config, &mut scaling);
        prop_assert_eq!(feasible, expected.is_some());
        if feasible {
            prop_assert_eq!(Some(power.price(&scaling, &usage).to_bits()), expected);

            // Tabulating one (cycle, supply) pair per domain, as the
            // voltage descent does, yields the same scalings.
            let mut tabulated = ConfigScaling::default();
            for d in config.domains() {
                let s = vliw_power::scaling(config.domain_cycle(d), config.voltages().domain(d));
                match d {
                    DomainId::Cluster(_) => tabulated.clusters.push(s.unwrap()),
                    _ => *tabulated.domain_mut(d) = s.unwrap(),
                }
            }
            prop_assert_eq!(&tabulated, &scaling);
            prop_assert_eq!(Some(power.price(&tabulated, &usage).to_bits()), expected);
        }
    }
}

/// The per-pair scaling is infeasible exactly where the oracle's
/// threshold solve fails, and the sweep covers both outcomes.
#[test]
fn scaling_feasibility_matches_the_threshold_solve() {
    let (mut feasible, mut infeasible) = (0, 0);
    for ci in 0..=30 {
        let cycle = Time::from_ns(0.5 + 0.05 * f64::from(ci));
        for vi in 0..=36 {
            let vdd = 0.6 + 0.025 * f64::from(vi);
            let s = vliw_power::scaling(cycle, vdd);
            let vth = threshold_for(cycle.freq_ghz(), vdd);
            assert_eq!(s.map(|s| s.vth.to_bits()), vth.map(f64::to_bits));
            if s.is_some() {
                feasible += 1;
            } else {
                infeasible += 1;
            }
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
}

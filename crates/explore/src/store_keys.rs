//! Content addresses for the persistent measurement store.
//!
//! The store (`vliw-store`) is domain-blind; this module is the bridge:
//! it hashes benchmarks and machine configurations into
//! [`StoreKey`](vliw_store::StoreKey) halves and converts between the
//! domain types ([`UsageProfile`],
//! [`BenchmarkProfile`]) and the store's plain-number records. The same
//! key addresses a measurement in the in-memory memo
//! ([`MeasureCache`](crate::experiments::MeasureCache)) and on disk.
//!
//! Both hashes use [`StableHasher`]: floats are hashed by exact bit
//! pattern, with no epsilon classes, into digests that are stable across
//! processes, machines and compiler releases.

use vliw_machine::{ClockedConfig, FrequencyMenu, Time};
use vliw_power::{
    PowerModel, ReferenceProfile, UsageProfile, ALPHA, FREQ_REF_GHZ, SUBTHRESHOLD_SWING_V, VDD_REF,
    VTH_REF,
};
use vliw_sched::{ims, MAX_IT_ATTEMPTS};
use vliw_store::{LoopProfileRecord, MeasureRecord, ProfileRecord, StableHasher};
use vliw_workloads::Benchmark;

use crate::profile::{BenchmarkProfile, LoopProfile};

/// Structural hash of a benchmark: its name plus, per loop, the DDG
/// (op classes and latencies in `OpId` order, edges in `EdgeId` order),
/// the trip count and the profile weight. Everything a measurement of
/// this benchmark can depend on, and nothing about where the benchmark
/// came from (generator seed, corpus file, …).
///
/// Names are included deliberately: stored reference profiles carry
/// loop names, so the address must pin them too.
#[must_use]
pub(crate) fn benchmark_content_hash(bench: &Benchmark) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&bench.name);
    h.write_u64(bench.loops.len() as u64);
    for l in &bench.loops {
        let ddg = l.ddg();
        h.write_str(ddg.name());
        h.write_u64(ddg.num_ops() as u64);
        for op in ddg.ops() {
            h.write_str(op.class().as_str());
            h.write_u32(op.latency());
        }
        h.write_u64(ddg.num_edges() as u64);
        for e in ddg.edges() {
            h.write_u32(e.src().0);
            h.write_u32(e.dst().0);
            h.write_u32(e.latency());
            h.write_u32(e.distance());
            h.write_str(e.kind().as_str());
        }
        h.write_u64(l.trip_count());
        h.write_f64(l.weight());
    }
    h.finish()
}

/// Fingerprint of everything on the machine side that determines a
/// measurement: the machine design, every domain's cycle time and
/// supply voltage, the scheduler's eject budget and IT-retry cap
/// followed by the frequency `menu`, and — when measuring heterogeneous
/// configurations — the calibrated power model driving the
/// partitioner's ED² objective.
///
/// Reference profiling passes `power: None` and the unrestricted menu
/// (profiles are taken before the model is calibrated and do not depend
/// on it).
#[must_use]
pub fn config_fingerprint(
    config: &ClockedConfig,
    power: Option<&PowerModel>,
    menu: &FrequencyMenu,
) -> u64 {
    let mut h = StableHasher::new();
    let design = config.design();
    h.write_u8(design.num_clusters);
    h.write_u32(design.buses);
    h.write_u32(design.cluster.int_fus);
    h.write_u32(design.cluster.fp_fus);
    h.write_u32(design.cluster.mem_ports);
    h.write_u32(design.cluster.registers);
    for c in design.clusters() {
        h.write_u64(config.cluster_cycle(c).as_fs());
    }
    h.write_u64(config.icn_cycle().as_fs());
    h.write_u64(config.cache_cycle().as_fs());
    for &vdd in &config.voltages().clusters {
        h.write_f64(vdd);
    }
    h.write_f64(config.voltages().icn);
    h.write_f64(config.voltages().cache);
    hash_scheduler(&mut h, menu);
    match power {
        None => h.write_u8(0),
        Some(p) => {
            h.write_u8(1);
            hash_power(&mut h, p);
        }
    }
    h.finish()
}

/// Absorbs what a measurement's schedules depend on besides the machine
/// and the loops: the scheduler's eject budget ([`ims::BUDGET_RATIO`])
/// and IT-retry cap ([`MAX_IT_ATTEMPTS`]), then the frequency menu.
/// Hashing the two constants keeps every address as it was when they
/// were options, and changing either re-addresses every measurement.
pub(crate) fn hash_scheduler(h: &mut StableHasher, menu: &FrequencyMenu) {
    h.write_u32(ims::BUDGET_RATIO);
    h.write_u32(MAX_IT_ATTEMPTS);
    match menu.cycle_times_at_least(Time::from_fs(1)) {
        // Unrestricted menus have no cycle-time list; tag the variant.
        None => h.write_u64(u64::MAX),
        Some(cts) => {
            h.write_u64(cts.len() as u64);
            for ct in &cts {
                h.write_u64(ct.as_fs());
            }
        }
    }
}

/// Absorbs every stable parameter of a calibrated power model: its
/// shares and unit energies, then the α-power reference point and the
/// subthreshold swing. The reference point is constant, but hashing it
/// keeps every address as it was when it was an option.
pub(crate) fn hash_power(h: &mut StableHasher, p: &PowerModel) {
    let s = p.shares();
    let u = p.units();
    for v in [
        s.icn,
        s.cache,
        s.leak_cluster,
        s.leak_icn,
        s.leak_cache,
        u.e_ins,
        u.e_comm,
        u.e_access,
        u.e_static_cluster_per_s,
        u.e_static_icn_per_s,
        u.e_static_cache_per_s,
        ALPHA,
        VDD_REF,
        VTH_REF,
        FREQ_REF_GHZ,
        SUBTHRESHOLD_SWING_V,
    ] {
        h.write_f64(v);
    }
}

pub(crate) fn usage_to_record(usage: &UsageProfile) -> MeasureRecord {
    MeasureRecord {
        weighted_ins_per_cluster: usage.weighted_ins_per_cluster.clone(),
        comms: usage.comms,
        mem_accesses: usage.mem_accesses,
        exec_time_fs: usage.exec_time.as_fs(),
    }
}

pub(crate) fn record_to_usage(record: &MeasureRecord) -> UsageProfile {
    UsageProfile {
        weighted_ins_per_cluster: record.weighted_ins_per_cluster.clone(),
        comms: record.comms,
        mem_accesses: record.mem_accesses,
        exec_time: Time::from_fs(record.exec_time_fs),
    }
}

pub(crate) fn profile_to_record(profile: &BenchmarkProfile) -> ProfileRecord {
    ProfileRecord {
        name: profile.name.clone(),
        loops: profile
            .loops
            .iter()
            .map(|l| LoopProfileRecord {
                name: l.name.clone(),
                weight: l.weight,
                trips: l.trips,
                rec_mii: l.rec_mii,
                fu_counts: l.fu_counts,
                comms: l.comms,
                lifetime_fs: l.lifetime_time.as_fs(),
                it_length_fs: l.it_length.as_fs(),
                it_ref_fs: l.it_ref.as_fs(),
                weighted_ins: l.weighted_ins,
                rec_weighted_ins: l.rec_weighted_ins,
                mem_accesses: l.mem_accesses,
                exec_time_fs: l.exec_time_ref.as_fs(),
                invocations: l.invocations,
            })
            .collect(),
        ref_weighted_ins: profile.reference.weighted_ins,
        ref_comms: profile.reference.comms,
        ref_mem_accesses: profile.reference.mem_accesses,
        ref_exec_time_fs: profile.reference.exec_time.as_fs(),
    }
}

pub(crate) fn record_to_profile(record: &ProfileRecord) -> BenchmarkProfile {
    BenchmarkProfile {
        name: record.name.clone(),
        loops: record
            .loops
            .iter()
            .map(|l| LoopProfile {
                name: l.name.clone(),
                weight: l.weight,
                trips: l.trips,
                rec_mii: l.rec_mii,
                fu_counts: l.fu_counts,
                comms: l.comms,
                lifetime_time: Time::from_fs(l.lifetime_fs),
                it_length: Time::from_fs(l.it_length_fs),
                it_ref: Time::from_fs(l.it_ref_fs),
                weighted_ins: l.weighted_ins,
                rec_weighted_ins: l.rec_weighted_ins,
                mem_accesses: l.mem_accesses,
                exec_time_ref: Time::from_fs(l.exec_time_fs),
                invocations: l.invocations,
            })
            .collect(),
        reference: ReferenceProfile {
            weighted_ins: record.ref_weighted_ins,
            comms: record.ref_comms,
            mem_accesses: record.ref_mem_accesses,
            exec_time: Time::from_fs(record.ref_exec_time_fs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::MachineDesign;
    use vliw_workloads::{generate, spec_fp2000};

    #[test]
    fn content_hash_is_stable_and_structure_sensitive() {
        let a = generate(&spec_fp2000()[1], 4);
        let b = generate(&spec_fp2000()[1], 4);
        assert_eq!(
            benchmark_content_hash(&a),
            benchmark_content_hash(&b),
            "generation is deterministic, so the address must repeat"
        );
        let c = generate(&spec_fp2000()[1], 5); // one more loop
        assert_ne!(benchmark_content_hash(&a), benchmark_content_hash(&c));
        let d = generate(&spec_fp2000()[2], 4); // different benchmark
        assert_ne!(benchmark_content_hash(&a), benchmark_content_hash(&d));
    }

    #[test]
    fn config_fingerprint_separates_configs_menus_and_power() {
        let design = MachineDesign::paper_machine(1);
        let reference = ClockedConfig::reference(design);
        let menu = FrequencyMenu::unrestricted();
        let base = config_fingerprint(&reference, None, &menu);
        assert_eq!(
            base,
            config_fingerprint(&reference, None, &menu),
            "pure function of its inputs"
        );

        let faster = ClockedConfig::homogeneous(design, Time::from_fs(900_000));
        assert_ne!(base, config_fingerprint(&faster, None, &menu));

        let menu16 = FrequencyMenu::from_kind(vliw_machine::MenuKind::Uniform(16));
        assert_ne!(base, config_fingerprint(&reference, None, &menu16));

        let design2 = MachineDesign::paper_machine(2);
        let reference2 = ClockedConfig::reference(design2);
        assert_ne!(
            base,
            config_fingerprint(&reference2, None, &menu),
            "the bus count is part of the machine"
        );

        let power = PowerModel::calibrate(
            design,
            vliw_power::EnergyShares::PAPER,
            &ReferenceProfile {
                weighted_ins: 1000.0,
                comms: 10,
                mem_accesses: 20,
                exec_time: Time::from_ns(1000.0),
            },
        );
        assert_ne!(base, config_fingerprint(&reference, Some(&power), &menu));
    }
}

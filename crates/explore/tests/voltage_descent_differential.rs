//! Differential tests of the table-driven voltage descent, of the
//! profiled suite's selection tables and of the §5.1 homogeneous usage.
//!
//! The descent's oracle is the closure-driven coordinate descent: every
//! candidate supply vector is range-checked, turned into a configuration
//! and priced with one `PowerModel::estimate_energy` call per usage. Over
//! three suite seeds and both bus counts, every §5.1 homogeneous cycle
//! factor and every §3.3 candidate of every benchmark must get
//! bit-identical voltages and energies from `optimise_voltages_grouped`
//! over the suite's supply rows, and the public `optimum_homogeneous_suite`
//! and `select_heterogeneous` — the path `figure6` takes — must pick the
//! oracle's winners with the oracle's numbers. The suite's rows are
//! filled first under a Figure 8 energy-share variant, so the match also
//! shows that the rows do not depend on the power model. Speed groups the
//! §3.3 grid never forms (two or three fast clusters, groups neither
//! contiguous nor in domain order, a six-cluster machine) must match the
//! oracle too, since the descent resumes each candidate's pricing at the
//! swept group's first domain and skips second-pass sweeps that cannot
//! move.
//!
//! The suite's memoised §3.2 estimates must equal a fresh
//! `estimate_usage` bit for bit under every Figure 7 menu.
//!
//! The usage's oracle scales the reference run by the raw grid factor,
//! where `UsageProfile::homogeneous` scales it by the ratio of the
//! configuration's cycle time to the reference cycle.

use vliw_exec::Executor;
use vliw_explore::experiments::{figure7_menus, profile_suite, ProfiledSuite, FIGURE8_SHARES};
use vliw_explore::search::EXT_FAST_FACTORS;
use vliw_explore::{
    candidate_grid, estimate_usage, optimise_voltages_grouped, optimum_homogeneous_suite,
    select_heterogeneous, suite_reference, BenchmarkProfile, HetEstimate, HOMOG_CYCLE_FACTORS,
};
use vliw_machine::{ClockedConfig, ClusterDesign, FrequencyMenu, MachineDesign, Time, Voltages};
use vliw_power::{ConfigScaling, EnergyShares, PowerModel, UsageProfile};
use vliw_workloads::suite_seeded;

const LOOPS: usize = 2;
const SEEDS: [u64; 3] = [0, 1, 2];

/// Voltage-grid step of the descent (volts).
const V_STEP: f64 = 0.025;

/// The coordinate descent priced through a closure, one call per
/// candidate supply vector.
fn oracle_descent(
    design: MachineDesign,
    cluster_groups: &[Vec<usize>],
    evaluate: impl Fn(Voltages) -> Option<f64>,
) -> Option<Voltages> {
    let grid = |(lo, hi): (f64, f64)| -> Vec<f64> {
        let mut v = Vec::new();
        let mut x = lo;
        while x <= hi + 1e-9 {
            v.push(x);
            x += V_STEP;
        }
        v
    };
    let mut current = Voltages::reference(design.num_clusters);
    let mut current_e = evaluate(current.clone());
    if current_e.is_none() {
        let mut v = Voltages::reference(design.num_clusters);
        for c in &mut v.clusters {
            *c = Voltages::CLUSTER_RANGE.1;
        }
        v.icn = Voltages::ICN_RANGE.1;
        v.cache = Voltages::CACHE_RANGE.1;
        current_e = evaluate(v.clone());
        current = v;
    }
    current_e?;
    for _ in 0..2 {
        for group in cluster_groups {
            for vdd in grid(Voltages::CLUSTER_RANGE) {
                let mut cand = current.clone();
                for &c in group {
                    cand.clusters[c] = vdd;
                }
                if let Some(e) = evaluate(cand.clone()) {
                    if current_e.is_none_or(|c| e < c) {
                        current = cand;
                        current_e = Some(e);
                    }
                }
            }
        }
        for vdd in grid(Voltages::ICN_RANGE) {
            let mut cand = current.clone();
            cand.icn = vdd;
            if let Some(e) = evaluate(cand.clone()) {
                if current_e.is_none_or(|c| e < c) {
                    current = cand;
                    current_e = Some(e);
                }
            }
        }
        for vdd in grid(Voltages::CACHE_RANGE) {
            let mut cand = current.clone();
            cand.cache = vdd;
            if let Some(e) = evaluate(cand.clone()) {
                if current_e.is_none_or(|c| e < c) {
                    current = cand;
                    current_e = Some(e);
                }
            }
        }
    }
    current_e.map(|_| current)
}

/// The oracle's pricing: the summed energy of `usages` on `base` at the
/// candidate supplies, `None` when out of range or infeasible.
fn oracle_pricing<'a>(
    base: &'a ClockedConfig,
    power: &'a PowerModel,
    usages: &'a [UsageProfile],
) -> impl Fn(Voltages) -> Option<f64> + 'a {
    move |voltages| {
        if !voltages.in_range() {
            return None;
        }
        let config = base.clone().with_voltages(voltages);
        let mut total = 0.0;
        for usage in usages {
            total += power.estimate_energy(&config, usage)?;
        }
        Some(total)
    }
}

/// The oracle's estimate: `usage` priced at `config`'s supplies, `None`
/// when a domain cannot sustain its frequency there.
fn price_usage(
    usage: &UsageProfile,
    config: &ClockedConfig,
    power: &PowerModel,
) -> Option<HetEstimate> {
    let energy = power.estimate_energy(config, usage)?;
    Some(HetEstimate {
        exec_time: usage.exec_time,
        energy,
        ed2: vliw_power::ed2(energy, usage.exec_time.as_secs()),
    })
}

fn voltage_bits(v: &Voltages) -> Vec<u64> {
    v.clusters
        .iter()
        .chain([&v.icn, &v.cache])
        .map(|x| x.to_bits())
        .collect()
}

/// Runs both descents on one problem, the table-driven one over
/// `suite`'s supply rows, and asserts they agree bit for bit, and that
/// the scaling the table-driven one returns is the winner's
/// `scale_config`.
fn descend_both(
    suite: &ProfiledSuite,
    base: &ClockedConfig,
    groups: &[Vec<usize>],
    power: &PowerModel,
    usages: &[UsageProfile],
    what: &str,
) -> Option<Voltages> {
    let rows = suite.supply_rows(base);
    let tabled = optimise_voltages_grouped(base, groups, power, usages, &rows);
    let oracle = oracle_descent(base.design(), groups, oracle_pricing(base, power, usages));
    assert_eq!(
        tabled.as_ref().map(|d| voltage_bits(&d.voltages)),
        oracle.as_ref().map(voltage_bits),
        "{what}: voltages differ"
    );
    if let (Some(tabled), Some(voltages)) = (&tabled, &oracle) {
        let mut scaling = ConfigScaling::default();
        let config = base.clone().with_voltages(voltages.clone());
        assert!(power.scale_config(&config, &mut scaling), "{what}");
        assert_eq!(
            scaling_bits(&tabled.scaling),
            scaling_bits(&scaling),
            "{what}: scaling"
        );
    }
    oracle
}

fn scaling_bits(s: &ConfigScaling) -> Vec<[u64; 3]> {
    s.clusters
        .iter()
        .chain([&s.icn, &s.cache])
        .map(|d| [d.delta.to_bits(), d.sigma.to_bits(), d.vth.to_bits()])
        .collect()
}

fn all_clusters(design: MachineDesign) -> Vec<Vec<usize>> {
    vec![(0..usize::from(design.num_clusters)).collect()]
}

/// Every benchmark's §5.1 usage on the homogeneous `base`.
fn homogeneous_usages(suite: &ProfiledSuite, base: &ClockedConfig) -> Vec<UsageProfile> {
    suite
        .profiles
        .iter()
        .map(|p| UsageProfile::homogeneous(&p.reference, base).expect("one clock"))
        .collect()
}

fn profiled(seed: u64, buses: u32) -> ProfiledSuite {
    profile_suite(&suite_seeded(LOOPS, seed), buses, &Executor::serial(), None)
        .expect("generated suites schedule")
}

/// Every homogeneous cycle factor's descent, and the suite baseline the
/// public search picks from them.
fn check_homogeneous(suite: &ProfiledSuite, power: &PowerModel, tag: &str) {
    let design = suite.design;
    let mut best: Option<(f64, ClockedConfig, Vec<u64>)> = None;
    for &factor in &HOMOG_CYCLE_FACTORS {
        let what = format!("{tag} homogeneous factor {factor}");
        let base = ClockedConfig::homogeneous(
            design,
            Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor),
        );
        let usages = homogeneous_usages(suite, &base);
        let groups = all_clusters(design);
        let Some(voltages) = descend_both(suite, &base, &groups, power, &usages, &what) else {
            continue;
        };
        let config = base.with_voltages(voltages);
        let mut suite_ed2 = 0.0;
        let mut energies = Vec::new();
        for usage in &usages {
            let energy = power.estimate_energy(&config, usage).expect("feasible");
            let secs = usage.exec_time.as_secs();
            suite_ed2 += energy * secs * secs;
            energies.push(energy.to_bits());
        }
        if best.as_ref().is_none_or(|b| suite_ed2 < b.0) {
            best = Some((suite_ed2, config, energies));
        }
    }
    let (suite_ed2, config, energies) = best.expect("a feasible factor");
    let baseline = optimum_homogeneous_suite(suite, power, &Executor::serial());
    assert_eq!(baseline.config, config, "{tag}: baseline configuration");
    assert_eq!(baseline.suite_ed2.to_bits(), suite_ed2.to_bits(), "{tag}");
    let got: Vec<u64> = baseline
        .per_benchmark
        .iter()
        .map(|c| c.energy.to_bits())
        .collect();
    assert_eq!(got, energies, "{tag}: per-benchmark baseline energies");
}

/// Every §3.3 candidate's descent for benchmark `index`, and the
/// selection the public sweep makes from them.
fn check_selection(suite: &ProfiledSuite, index: usize, power: &PowerModel, tag: &str) {
    let (profile, design) = (&suite.profiles[index], suite.design);
    let menu = FrequencyMenu::unrestricted();
    let mut best: Option<(ClockedConfig, [u64; 3])> = None;
    let mut best_ed2 = f64::INFINITY;
    for (fast_factor, slow_ratio) in candidate_grid() {
        let what = format!(
            "{tag} {} candidate ({fast_factor}, {slow_ratio})",
            profile.name
        );
        let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
        let slow = Time::from_ns(fast.as_ns() * slow_ratio);
        let base = ClockedConfig::heterogeneous(design, fast, 1, slow);
        let nc = usize::from(design.num_clusters);
        let groups = if slow_ratio > 1.0 {
            vec![vec![0], (1..nc).collect()]
        } else {
            all_clusters(design)
        };
        let usage = UsageProfile::homogeneous(&profile.reference, &base)
            .or_else(|| estimate_usage(profile, &base, &menu));
        let Some(usage) = usage else {
            continue;
        };
        let usages = std::slice::from_ref(&usage);
        let Some(voltages) = descend_both(suite, &base, &groups, power, usages, &what) else {
            continue;
        };
        let config = base.with_voltages(voltages);
        let estimate = price_usage(&usage, &config, power).expect("feasible");
        if best.is_none() || estimate.ed2 < best_ed2 {
            best_ed2 = estimate.ed2;
            best = Some((
                config,
                [
                    estimate.exec_time.as_ns().to_bits(),
                    estimate.energy.to_bits(),
                    estimate.ed2.to_bits(),
                ],
            ));
        }
    }
    let (config, numbers) = best.expect("a feasible candidate");
    let choice = select_heterogeneous(suite, index, power, &menu, &Executor::serial())
        .expect("a feasible candidate");
    assert_eq!(choice.config, config, "{tag} {}: selection", profile.name);
    let got = [
        choice.estimate.exec_time.as_ns().to_bits(),
        choice.estimate.energy.to_bits(),
        choice.estimate.ed2.to_bits(),
    ];
    assert_eq!(got, numbers, "{tag} {}: selected estimate", profile.name);
}

/// Runs the §5.1 baseline and every benchmark's §3.3 selection under
/// `power`, as `figure6` does, filling the suite's tables.
fn warm_tables(suite: &ProfiledSuite, power: &PowerModel) {
    let serial = Executor::serial();
    let menu = FrequencyMenu::unrestricted();
    let _ = optimum_homogeneous_suite(suite, power, &serial);
    for i in 0..suite.profiles.len() {
        let _ = select_heterogeneous(suite, i, power, &menu, &serial);
    }
}

#[test]
fn table_driven_descent_matches_the_closure_oracle() {
    for seed in SEEDS {
        for buses in [1, 2] {
            let tag = format!("seed {seed}, {buses} bus(es)");
            let suite = profiled(seed, buses);
            let reference = suite_reference(&suite.profiles);
            let (icn, cache) = FIGURE8_SHARES[4];
            let variant = EnergyShares::with_component_shares(icn, cache);
            warm_tables(
                &suite,
                &PowerModel::calibrate(suite.design, variant, &reference),
            );
            let warmed = suite.table_entries();
            let power = PowerModel::calibrate(suite.design, EnergyShares::PAPER, &reference);
            check_homogeneous(&suite, &power, &tag);
            for i in 0..suite.profiles.len() {
                check_selection(&suite, i, &power, &tag);
            }
            assert_eq!(
                suite.table_entries(),
                warmed,
                "{tag}: the paper's shares reuse the variant's rows and estimates"
            );
        }
    }
}

/// Under every Figure 7 menu and both bus counts, every §3.3 candidate's
/// memoised estimate is a fresh `estimate_usage` bit for bit; only the
/// heterogeneous candidates enter the memo, and a second pass adds no
/// entry.
#[test]
fn memoised_estimates_match_a_fresh_estimate_under_every_menu() {
    for buses in [1, 2] {
        let suite = profiled(0, buses);
        let design = suite.design;
        let mut expected_entries = 0;
        for (name, menu) in figure7_menus() {
            for pass in 0..2 {
                for (i, profile) in suite.profiles.iter().enumerate() {
                    for (fast_factor, slow_ratio) in candidate_grid() {
                        let fast =
                            Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
                        let slow = Time::from_ns(fast.as_ns() * slow_ratio);
                        let base = ClockedConfig::heterogeneous(design, fast, 1, slow);
                        let memo = suite.estimate_memoised(i, &base, &menu);
                        let fresh = estimate_usage(profile, &base, &menu);
                        assert_eq!(
                            memo.as_ref().map(usage_bits),
                            fresh.as_ref().map(usage_bits),
                            "{buses} bus(es), {name}, pass {pass}, {} ({fast_factor}, {slow_ratio})",
                            profile.name
                        );
                        if pass == 0 && !base.is_homogeneous() {
                            expected_entries += 1;
                        }
                    }
                }
                assert_eq!(
                    suite.table_entries().1,
                    expected_entries,
                    "{buses} bus(es), {name}, pass {pass}: one entry per heterogeneous estimate"
                );
            }
        }
        assert_eq!(expected_entries, 4 * 15 * suite.profiles.len());
    }
}

/// A cycle time too fast for 1 V starts the descent from the range
/// maxima; both descents take that fallback identically.
#[test]
fn range_maximum_fallback_matches_the_oracle() {
    let suite = profiled(0, 1);
    let design = suite.design;
    let power = PowerModel::calibrate(
        design,
        EnergyShares::PAPER,
        &suite_reference(&suite.profiles),
    );
    let (mut fell_back, mut infeasible) = (0, 0);
    for factor in [0.70, 0.72, 0.75, 0.77] {
        let base = ClockedConfig::homogeneous(
            design,
            Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor),
        );
        let usages = homogeneous_usages(&suite, &base);
        let what = format!("fallback factor {factor}");
        let groups = all_clusters(design);
        let chosen = descend_both(&suite, &base, &groups, &power, &usages, &what);
        match chosen {
            None => infeasible += 1,
            Some(_) if power.estimate_energy(&base, &usages[0]).is_none() => fell_back += 1,
            Some(_) => {}
        }
    }
    assert!(fell_back > 0, "some factor starts from the range maxima");
    assert!(infeasible > 0, "some factor is infeasible even there");
}

/// Every benchmark's usage on `base` (the §5.1 usage when it is
/// homogeneous, the §3.2 estimate otherwise), where there is one.
fn estimated_usages(suite: &ProfiledSuite, base: &ClockedConfig) -> Vec<UsageProfile> {
    let menu = FrequencyMenu::unrestricted();
    suite
        .profiles
        .iter()
        .filter_map(|p| estimate_usage(p, base, &menu))
        .collect()
}

/// Descends `base` over `groups` with each usage alone and with all of
/// them together, against the oracle.
fn descend_each_and_all(
    suite: &ProfiledSuite,
    base: &ClockedConfig,
    groups: &[Vec<usize>],
    power: &PowerModel,
    usages: &[UsageProfile],
    what: &str,
) {
    assert!(!usages.is_empty(), "{what}: some usage");
    for (i, usage) in usages.iter().enumerate() {
        let what = format!("{what}, usage {i}");
        descend_both(
            suite,
            base,
            groups,
            power,
            std::slice::from_ref(usage),
            &what,
        );
    }
    descend_both(
        suite,
        base,
        groups,
        power,
        usages,
        &format!("{what}, all usages"),
    );
}

/// Speed groups the §3.3 grid never forms: two and three fast clusters
/// on every candidate of the grid; groups neither contiguous nor in
/// domain order on configurations with three cycle times, some too fast
/// for 1 V; and a six-cluster machine, wider than the paper's, which
/// `MachineDesign::new` allows.
#[test]
fn unusual_speed_groups_match_the_closure_oracle() {
    let suite = profiled(0, 1);
    let design = suite.design;
    let reference = suite_reference(&suite.profiles);
    let power = PowerModel::calibrate(design, EnergyShares::PAPER, &reference);
    for num_fast in [2u8, 3] {
        for (fast_factor, slow_ratio) in candidate_grid() {
            let what = format!("{num_fast} fast, candidate ({fast_factor}, {slow_ratio})");
            let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * fast_factor);
            let slow = Time::from_ns(fast.as_ns() * slow_ratio);
            let base = ClockedConfig::heterogeneous(design, fast, num_fast, slow);
            let split = usize::from(num_fast);
            let groups = if slow_ratio > 1.0 {
                vec![(0..split).collect(), (split..4).collect()]
            } else {
                all_clusters(design)
            };
            let usages = estimated_usages(&suite, &base);
            descend_each_and_all(&suite, &base, &groups, &power, &usages, &what);
        }
    }

    let groups = vec![vec![1, 3], vec![0, 2]];
    for factor in [0.75, 0.9, 1.0, 1.2] {
        let cycle = |ns: f64| Time::from_ns(ns * factor);
        let base = ClockedConfig::from_parts(
            design,
            vec![cycle(1.25), cycle(1.0), cycle(1.25), cycle(1.0)],
            cycle(1.0),
            cycle(1.1),
            Voltages::reference(4),
        );
        let usages = estimated_usages(&suite, &base);
        let what = format!("groups {groups:?}, factor {factor}");
        descend_each_and_all(&suite, &base, &groups, &power, &usages, &what);
    }

    let wide = MachineDesign::new(6, ClusterDesign::PAPER, 1);
    let power = PowerModel::calibrate(wide, EnergyShares::PAPER, &reference);
    let base = ClockedConfig::from_parts(
        wide,
        [0.9, 1.2, 0.9, 1.2, 1.0, 1.2].map(Time::from_ns).to_vec(),
        Time::from_ns(0.9),
        Time::from_ns(1.0),
        Voltages::reference(6),
    );
    let usages: Vec<UsageProfile> = suite
        .profiles
        .iter()
        .map(|p| {
            let mut usage =
                UsageProfile::homogeneous(&p.reference, &ClockedConfig::reference(wide))
                    .expect("one clock");
            for (c, w) in usage.weighted_ins_per_cluster.iter_mut().enumerate() {
                *w *= 1.0 + 0.25 * c as f64;
            }
            usage
        })
        .collect();
    let groups = vec![vec![5, 1, 3], vec![4], vec![2, 0]];
    descend_each_and_all(&suite, &base, &groups, &power, &usages, "six clusters");
}

/// The §5.1 shortcut as the call sites wrote it before it became one
/// function: the reference run with its time scaled by the raw grid
/// factor and its work spread evenly over the clusters.
fn oracle_usage(profile: &BenchmarkProfile, num_clusters: u8, factor: f64) -> UsageProfile {
    let exec_time = Time::from_ns(profile.reference.exec_time.as_ns() * factor);
    let per = profile.reference.weighted_ins / f64::from(num_clusters);
    UsageProfile {
        weighted_ins_per_cluster: vec![per; usize::from(num_clusters)],
        comms: profile.reference.comms,
        mem_accesses: profile.reference.mem_accesses,
        exec_time,
    }
}

fn usage_bits(u: &UsageProfile) -> (Vec<u64>, u64, u64, u64) {
    let ins = u
        .weighted_ins_per_cluster
        .iter()
        .map(|w| w.to_bits())
        .collect();
    (ins, u.comms, u.mem_accesses, u.exec_time.as_fs())
}

/// Every cycle factor of the three grids the code scales by — the §3.3
/// fast factors, the extended space's and the §5.1 baseline's — on every
/// benchmark: the configuration's usage is the oracle's bit for bit, on
/// a homogeneous machine and on a paper-shaped one at slow/fast ratio 1.
/// On a homogeneous configuration `measure_memoised` answers it too,
/// without touching the memo.
#[test]
fn homogeneous_usage_matches_the_raw_factor_oracle() {
    let mut paper: Vec<f64> = candidate_grid().into_iter().map(|(f, _)| f).collect();
    paper.dedup();
    let grids = [
        ("paper", &paper[..]),
        ("extended", &EXT_FAST_FACTORS[..]),
        ("homogeneous", &HOMOG_CYCLE_FACTORS[..]),
    ];
    let mut differ = Vec::new();
    for seed in SEEDS {
        for buses in [1, 2] {
            let suite = profiled(seed, buses);
            let design = suite.design;
            let power = PowerModel::calibrate(
                design,
                EnergyShares::PAPER,
                &suite_reference(&suite.profiles),
            );
            let menu = FrequencyMenu::unrestricted();
            for (grid, factors) in grids {
                for &factor in factors {
                    let fast = Time::from_ns(ClockedConfig::REFERENCE_CYCLE.as_ns() * factor);
                    let homogeneous = ClockedConfig::homogeneous(design, fast);
                    let ratio_one = ClockedConfig::heterogeneous(
                        design,
                        fast,
                        1,
                        Time::from_ns(fast.as_ns() * 1.0),
                    );
                    for (i, profile) in suite.profiles.iter().enumerate() {
                        let want = usage_bits(&oracle_usage(profile, design.num_clusters, factor));
                        let measured = suite
                            .measure_memoised(i, &homogeneous, &power, &menu, &Executor::serial())
                            .ok();
                        let got = [
                            (
                                "homogeneous",
                                UsageProfile::homogeneous(&profile.reference, &homogeneous),
                            ),
                            (
                                "ratio 1",
                                UsageProfile::homogeneous(&profile.reference, &ratio_one),
                            ),
                            ("measure_memoised", measured),
                        ];
                        for (how, usage) in got {
                            if usage.as_ref().map(usage_bits) != Some(want.clone()) {
                                differ.push(format!(
                                    "seed {seed}, {buses} bus(es), {grid} factor {factor}, {}, {how}",
                                    profile.name
                                ));
                            }
                        }
                    }
                }
            }
            assert_eq!(
                (
                    suite.cache().hits(),
                    suite.cache().misses(),
                    suite.measured()
                ),
                (0, 0, 0),
                "homogeneous configurations never reach the memo"
            );
        }
    }
    assert!(differ.is_empty(), "differs from the oracle at {differ:#?}");
}

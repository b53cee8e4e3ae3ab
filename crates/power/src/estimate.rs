//! Energy estimation for arbitrary clocked configurations (§3.1.3).

use vliw_machine::{ClockedConfig, DomainId, MachineDesign, Time};

use crate::reference::{EnergyShares, EnergyUnits, ReferenceProfile};
use crate::scaling::scaling;

/// Resource usage of a program on some (possibly heterogeneous) machine:
/// where the instructions executed and how long the run took.
///
/// Unlike [`ReferenceProfile`], instruction work is split per cluster —
/// δ scaling is per-cluster because each cluster may use a different supply
/// voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageProfile {
    /// Energy-weighted instruction count executed in each cluster
    /// (add-units).
    pub weighted_ins_per_cluster: Vec<f64>,
    /// Inter-cluster communications.
    pub comms: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Total execution time on this machine.
    pub exec_time: Time,
}

impl UsageProfile {
    /// The §5.1 usage of the reference run on a frequency-homogeneous
    /// `config`, or `None` when `config` is not homogeneous.
    ///
    /// The homogeneous model is exact: every loop keeps its reference
    /// schedule at any frequency, so the event counts are the reference
    /// run's, work is spread evenly across the identical clusters
    /// (`p_Ci = 1/n`), and execution time scales with the cycle time.
    #[must_use]
    pub fn homogeneous(reference: &ReferenceProfile, config: &ClockedConfig) -> Option<Self> {
        if !config.is_homogeneous() {
            return None;
        }
        let factor =
            config.fastest_cluster_cycle().as_ns() / ClockedConfig::REFERENCE_CYCLE.as_ns();
        let num_clusters = config.design().num_clusters;
        let per = reference.weighted_ins / f64::from(num_clusters);
        Some(UsageProfile {
            weighted_ins_per_cluster: vec![per; usize::from(num_clusters)],
            comms: reference.comms,
            mem_accesses: reference.mem_accesses,
            exec_time: Time::from_ns(reference.exec_time.as_ns() * factor),
        })
    }

    /// Total weighted instructions across clusters.
    #[must_use]
    pub fn total_weighted_ins(&self) -> f64 {
        self.weighted_ins_per_cluster.iter().sum()
    }
}

/// Voltage/frequency scaling factors of one clock domain relative to the
/// reference machine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DomainScaling {
    /// Dynamic-energy ratio δ.
    pub delta: f64,
    /// Static-energy ratio σ.
    pub sigma: f64,
    /// The threshold voltage the α-power model selected.
    pub vth: f64,
}

/// The scaling factors of every clock domain of one configuration: all
/// the §3.1.3 pricing needs besides the usage profile.
///
/// A domain's δ/σ depend only on its cycle time and supply, so a caller
/// that prices many usages, or many supplies at fixed cycle times, fills
/// this once (with [`PowerModel::scale_config`], or from tabulated
/// [`scaling`] values) and prices each usage with [`PowerModel::price`].
#[derive(Debug, Default, PartialEq)]
pub struct ConfigScaling {
    /// One entry per cluster, in cluster order.
    pub clusters: Vec<DomainScaling>,
    /// The interconnect's scaling.
    pub icn: DomainScaling,
    /// The memory hierarchy's scaling.
    pub cache: DomainScaling,
}

impl Clone for ConfigScaling {
    fn clone(&self) -> Self {
        ConfigScaling {
            clusters: self.clusters.clone(),
            icn: self.icn,
            cache: self.cache,
        }
    }

    /// Reuses `self`'s cluster buffer.
    fn clone_from(&mut self, source: &Self) {
        self.clusters.clone_from(&source.clusters);
        self.icn = source.icn;
        self.cache = source.cache;
    }
}

impl ConfigScaling {
    /// The scaling of `domain`, for in-place updates.
    ///
    /// # Panics
    ///
    /// Panics if a cluster id is out of range.
    pub fn domain_mut(&mut self, domain: DomainId) -> &mut DomainScaling {
        match domain {
            DomainId::Cluster(c) => &mut self.clusters[c.index()],
            DomainId::Icn => &mut self.icn,
            DomainId::Cache => &mut self.cache,
        }
    }
}

/// The calibrated §3 energy model: estimates the energy any clocked
/// configuration spends executing a given usage profile, **in units of the
/// reference run's total energy**.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    design: MachineDesign,
    shares: EnergyShares,
    units: EnergyUnits,
}

impl PowerModel {
    /// Calibrates a model from the reference homogeneous run.
    ///
    /// # Panics
    ///
    /// Panics if the profile is degenerate (see
    /// [`ReferenceProfile::validate`]).
    #[must_use]
    pub fn calibrate(
        design: MachineDesign,
        shares: EnergyShares,
        profile: &ReferenceProfile,
    ) -> Self {
        let units = EnergyUnits::calibrate(design, shares, profile);
        PowerModel {
            design,
            shares,
            units,
        }
    }

    /// The calibrated unit energies.
    #[must_use]
    pub fn units(&self) -> &EnergyUnits {
        &self.units
    }

    /// The energy shares this model was calibrated with.
    #[must_use]
    pub fn shares(&self) -> EnergyShares {
        self.shares
    }

    /// The machine design this model was calibrated for.
    #[must_use]
    pub fn design(&self) -> MachineDesign {
        self.design
    }

    /// Scaling factors for one domain of `config` ([`scaling`] at the
    /// domain's cycle time and supply), or `None` when the domain's
    /// frequency is unreachable at its supply voltage.
    #[must_use]
    pub fn domain_scaling(
        &self,
        config: &ClockedConfig,
        domain: DomainId,
    ) -> Option<DomainScaling> {
        scaling(
            config.domain_cycle(domain),
            config.voltages().domain(domain),
        )
    }

    /// Fills `out` with the scaling of every domain of `config`, reusing
    /// its cluster buffer. Returns `false`, leaving `out` partly filled,
    /// when some domain's (frequency, voltage) pair is electrically
    /// infeasible.
    pub fn scale_config(&self, config: &ClockedConfig, out: &mut ConfigScaling) -> bool {
        out.clusters.clear();
        for c in self.design.clusters() {
            match self.domain_scaling(config, DomainId::Cluster(c)) {
                Some(s) => out.clusters.push(s),
                None => return false,
            }
        }
        let (Some(icn), Some(cache)) = (
            self.domain_scaling(config, DomainId::Icn),
            self.domain_scaling(config, DomainId::Cache),
        ) else {
            return false;
        };
        out.icn = icn;
        out.cache = cache;
        true
    }

    /// Prices `usage` at precomputed domain scalings (§3.1.3):
    ///
    /// ```text
    /// E_het = Σ_c Ins_c·E_ins·δ_c + Comms·E_comm·δ_ICN
    ///       + MemIns·E_access·δ_cache
    ///       + T · (Σ_c E_s_C·σ_c + E_s_ICN·σ_ICN + E_s_cache·σ_cache)
    /// ```
    ///
    /// This is the model's reference pricing body:
    /// [`estimate_energy`](Self::estimate_energy) is
    /// [`scale_config`](Self::scale_config) followed by this, and a
    /// [`PriceFold`] makes its operations in its order.
    ///
    /// # Panics
    ///
    /// Panics if `usage` or `scaling` has a different cluster count than
    /// the design.
    #[must_use]
    pub fn price(&self, scaling: &ConfigScaling, usage: &UsageProfile) -> f64 {
        let nc = usize::from(self.design.num_clusters);
        assert_eq!(
            usage.weighted_ins_per_cluster.len(),
            nc,
            "usage profile must cover every cluster"
        );
        assert_eq!(scaling.clusters.len(), nc, "one scaling per cluster");
        let mut dynamic = 0.0;
        let mut static_per_s = 0.0;
        for (&ins, s) in usage.weighted_ins_per_cluster.iter().zip(&scaling.clusters) {
            dynamic += ins * self.units.e_ins * s.delta;
            static_per_s += self.units.e_static_cluster_per_s * s.sigma;
        }
        dynamic += usage.comms as f64 * self.units.e_comm * scaling.icn.delta;
        static_per_s += self.units.e_static_icn_per_s * scaling.icn.sigma;
        dynamic += usage.mem_accesses as f64 * self.units.e_access * scaling.cache.delta;
        static_per_s += self.units.e_static_cache_per_s * scaling.cache.sigma;
        dynamic + static_per_s * usage.exec_time.as_secs()
    }

    /// A [`PriceFold`] of `usages` that keeps `start`, every domain's
    /// scaling in [`MachineDesign::domains`] order, and folds every
    /// domain until [`PriceFold::resume_at`] says otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a usage has a different cluster count than the design,
    /// or `start` fewer scalings than the design has domains.
    #[must_use]
    pub fn fold<'a>(
        &'a self,
        usages: &'a [UsageProfile],
        start: impl IntoIterator<Item = DomainScaling>,
    ) -> PriceFold<'a> {
        let nc = usize::from(self.design.num_clusters);
        let u = &self.units;
        let domains: Vec<FoldDomain> = self
            .design
            .domains()
            .zip(start)
            .map(|(domain, s)| FoldDomain {
                e_static: match domain {
                    DomainId::Cluster(_) => u.e_static_cluster_per_s,
                    DomainId::Icn => u.e_static_icn_per_s,
                    DomainId::Cache => u.e_static_cache_per_s,
                },
                kept: s,
                candidate: s,
            })
            .collect();
        assert_eq!(domains.len(), nc + 2, "one scaling per domain");
        let mut terms = Vec::with_capacity(usages.len() * (nc + 4));
        for usage in usages {
            assert_eq!(
                usage.weighted_ins_per_cluster.len(),
                nc,
                "usage profile must cover every cluster"
            );
            let clusters = usage.weighted_ins_per_cluster.iter();
            terms.extend(clusters.map(|&ins| ins * u.e_ins));
            terms.extend([
                usage.comms as f64 * u.e_comm,
                usage.mem_accesses as f64 * u.e_access,
                usage.exec_time.as_secs(),
                0.0,
            ]);
        }
        PriceFold {
            power: self,
            usages,
            domains,
            terms,
            static_prefix: 0.0,
            first: 0,
            prices: 0,
            whole: ConfigScaling {
                clusters: vec![DomainScaling::default(); nc],
                ..ConfigScaling::default()
            },
        }
    }

    /// Estimates the total energy `config` spends executing `usage`: the
    /// scaling of every domain, then [`price`](Self::price).
    ///
    /// Returns `None` when any domain's (frequency, voltage) pair is
    /// electrically infeasible.
    ///
    /// # Panics
    ///
    /// Panics if `usage` has a different cluster count than the design.
    #[must_use]
    pub fn estimate_energy(&self, config: &ClockedConfig, usage: &UsageProfile) -> Option<f64> {
        let mut scaling = ConfigScaling::default();
        self.scale_config(config, &mut scaling)
            .then(|| self.price(&scaling, usage))
    }
}

/// [`PowerModel::price`] summed over fixed usages, for a search that
/// changes a few domains' scalings at a time, such as a supply descent
/// sweeping one group of domains.
///
/// `price` folds over the domains in [`MachineDesign::domains`] order
/// (every cluster, the ICN, the cache): from 0, `dynamic += a·δ`, with
/// `a` the usage's coefficient (`Ins_c·E_ins`, `Comms·E_comm`,
/// `MemIns·E_access`), and `static_per_s += E_s·σ`; it returns
/// `dynamic + static_per_s·T`. A fold keeps every usage's `a`s and `T`,
/// and every domain's kept and candidate scaling. It folds the domains
/// before a first one once, at their kept scalings
/// ([`resume_at`](Self::resume_at)), and each [`price`](Self::price)
/// folds the candidate from there, the static terms once for all usages.
/// These are `price`'s operations in `price`'s order, so a fold's price
/// is the sum of `price` over the usages from 0, to the bit; debug builds
/// check every 50th against that sum.
#[derive(Debug)]
pub struct PriceFold<'a> {
    power: &'a PowerModel,
    usages: &'a [UsageProfile],
    /// Every domain, in domain order.
    domains: Vec<FoldDomain>,
    /// Per usage, one `a` per domain, then `T` in seconds, then its
    /// dynamic sum over the domains before `first`.
    terms: Vec<f64>,
    /// The static sum over the domains before `first`.
    static_prefix: f64,
    /// The first domain a price folds.
    first: usize,
    /// Prices made so far.
    prices: u64,
    /// The scalings handed to `price` by the oracle, and the kept ones by
    /// [`into_scaling`](PriceFold::into_scaling).
    whole: ConfigScaling,
}

/// One domain of a [`PriceFold`].
#[derive(Debug, Clone, Copy)]
struct FoldDomain {
    /// The static energy per second it burns at σ = 1 (`E_s`).
    e_static: f64,
    kept: DomainScaling,
    candidate: DomainScaling,
}

impl PriceFold<'_> {
    /// Resets the candidate to the kept scalings and folds the domains
    /// before `first` once: until the next call, the candidate differs
    /// from the kept scalings only from `first` on.
    ///
    /// # Panics
    ///
    /// Panics if `first` is past the last domain.
    #[inline]
    pub fn resume_at(&mut self, first: usize) {
        let nd = self.domains.len();
        assert!(first <= nd, "domain {first} of {nd}");
        self.first = first;
        for d in &mut self.domains {
            d.candidate = d.kept;
        }
        self.static_prefix = 0.0;
        for d in &self.domains[..first] {
            self.static_prefix += d.e_static * d.kept.sigma;
        }
        for usage in self.terms.chunks_exact_mut(nd + 2) {
            let mut dynamic = 0.0;
            for (a, d) in usage[..first].iter().zip(&self.domains) {
                dynamic += a * d.kept.delta;
            }
            usage[nd + 1] = dynamic;
        }
    }

    /// Sets the candidate's scaling of domain `domain` (its index in
    /// [`MachineDesign::domains`] order), which must not come before the
    /// first domain [`resume_at`](Self::resume_at) named.
    #[inline]
    pub fn set(&mut self, domain: usize, scaling: DomainScaling) {
        debug_assert!(domain >= self.first, "domain {domain} is folded");
        self.domains[domain].candidate = scaling;
    }

    /// The sum of [`PowerModel::price`] over the usages at the candidate.
    #[inline]
    pub fn price(&mut self) -> f64 {
        let (first, nd) = (self.first, self.domains.len());
        let swept = &self.domains[first..];
        let mut static_per_s = self.static_prefix;
        for d in swept {
            static_per_s += d.e_static * d.candidate.sigma;
        }
        let mut total = 0.0;
        for usage in self.terms.chunks_exact(nd + 2) {
            let mut dynamic = usage[nd + 1];
            for (a, d) in usage[first..nd].iter().zip(swept) {
                dynamic += a * d.candidate.delta;
            }
            total += dynamic + static_per_s * usage[nd];
        }
        #[cfg(debug_assertions)]
        if self.prices.is_multiple_of(50) {
            self.fill(|d| d.candidate);
            assert_eq!(
                total.to_bits(),
                self.summed_price().to_bits(),
                "a fold prices as `PowerModel::price` does"
            );
        }
        self.prices += 1;
        total
    }

    /// Keeps the candidate.
    #[inline]
    pub fn keep(&mut self) {
        for d in &mut self.domains[self.first..] {
            d.kept = d.candidate;
        }
    }

    /// What a price of the kept scalings reproduces: [`PowerModel::price`]
    /// of each usage at them, summed from 0 in order.
    #[must_use]
    pub fn reference(&mut self) -> f64 {
        self.fill(|d| d.kept);
        self.summed_price()
    }

    /// The kept scalings.
    #[must_use]
    pub fn into_scaling(mut self) -> ConfigScaling {
        self.fill(|d| d.kept);
        self.whole
    }

    /// Writes `pick` of every domain into `self.whole`.
    fn fill(&mut self, pick: impl Fn(&FoldDomain) -> DomainScaling) {
        for (id, d) in self.power.design.domains().zip(&self.domains) {
            *self.whole.domain_mut(id) = pick(d);
        }
    }

    /// [`PowerModel::price`] of each usage at `self.whole`, summed from 0
    /// in order.
    fn summed_price(&self) -> f64 {
        let mut total = 0.0;
        for usage in self.usages {
            total += self.power.price(&self.whole, usage);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::Voltages;

    fn reference_profile() -> ReferenceProfile {
        ReferenceProfile {
            weighted_ins: 10_000.0,
            comms: 800,
            mem_accesses: 2_500,
            exec_time: Time::from_ns(20_000.0),
        }
    }

    fn model() -> PowerModel {
        PowerModel::calibrate(
            MachineDesign::paper_machine(1),
            EnergyShares::PAPER,
            &reference_profile(),
        )
    }

    /// The reference run's usage on the reference machine.
    fn reference_usage() -> UsageProfile {
        let config = ClockedConfig::reference(MachineDesign::paper_machine(1));
        UsageProfile::homogeneous(&reference_profile(), &config).expect("one clock")
    }

    #[test]
    fn homogeneous_usage_scales_time_on_one_clock_only() {
        let design = MachineDesign::paper_machine(1);
        let usage = reference_usage();
        assert_eq!(usage.weighted_ins_per_cluster, vec![2_500.0; 4]);
        assert_eq!((usage.comms, usage.mem_accesses), (800, 2_500));
        assert_eq!(usage.exec_time, reference_profile().exec_time);

        let slow = ClockedConfig::homogeneous(design, Time::from_ns(1.25));
        let scaled = UsageProfile::homogeneous(&reference_profile(), &slow).unwrap();
        assert_eq!(scaled.exec_time, Time::from_ns(25_000.0));
        assert_eq!(
            scaled.weighted_ins_per_cluster,
            usage.weighted_ins_per_cluster
        );

        let hetero =
            ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25));
        assert_eq!(
            UsageProfile::homogeneous(&reference_profile(), &hetero),
            None
        );
    }

    #[test]
    fn reference_config_estimates_unit_energy() {
        let m = model();
        let cfg = ClockedConfig::reference(m.design());
        let usage = reference_usage();
        let e = m.estimate_energy(&cfg, &usage).unwrap();
        assert!((e - 1.0).abs() < 1e-12, "reference energy = {e}");
    }

    #[test]
    fn slower_run_leaks_more() {
        let m = model();
        let cfg = ClockedConfig::reference(m.design());
        let mut usage = reference_usage();
        usage.exec_time = Time::from_ns(40_000.0); // twice as long
        let e = m.estimate_energy(&cfg, &usage).unwrap();
        assert!(e > 1.0);
        // Static share of the reference machine: clusters 1/3·cluster-share
        // + ICN 10%·10% + cache 2/3·(1/3). Doubling time doubles it.
        let static_share = (1.0 - 0.1 - 1.0 / 3.0) / 3.0 + 0.1 * 0.1 + (1.0 / 3.0) * (2.0 / 3.0);
        assert!((e - (1.0 + static_share)).abs() < 1e-9);
    }

    #[test]
    fn lower_voltage_lower_frequency_saves_energy_at_equal_time() {
        let m = model();
        let design = m.design();
        // Same cycle count, 1.25 ns cycles at 0.9 V, same wall-clock usage
        // scaled: here simply keep the usage identical to isolate voltage.
        let slow =
            ClockedConfig::homogeneous(design, Time::from_ns(1.25)).with_voltages(Voltages {
                clusters: vec![0.9; 4],
                icn: 0.9,
                cache: 1.0,
            });
        let usage = reference_usage();
        let e_slow = m.estimate_energy(&slow, &usage).unwrap();
        // Dynamic scales by 0.81 on clusters and ICN; cache still 1.0 V but
        // at 0.8 GHz it can raise vth, cutting σ. Everything ≤ reference.
        assert!(e_slow < 1.0, "e_slow = {e_slow}");
    }

    #[test]
    fn infeasible_frequency_voltage_returns_none() {
        let m = model();
        let design = m.design();
        // 0.5 ns cycles (2 GHz) at 0.7 V is unreachable.
        let cfg = ClockedConfig::homogeneous(design, Time::from_ns(0.5)).with_voltages(Voltages {
            clusters: vec![0.7; 4],
            icn: 0.7,
            cache: 0.7,
        });
        let usage = reference_usage();
        assert!(m.estimate_energy(&cfg, &usage).is_none());
    }

    #[test]
    fn moving_work_to_low_voltage_cluster_saves_dynamic_energy() {
        let m = model();
        let design = m.design();
        // Cluster 0 fast at 1 V; clusters 1-3 at 1.25 ns and 0.8 V.
        let cfg = ClockedConfig::heterogeneous(design, Time::from_ns(1.0), 1, Time::from_ns(1.25))
            .with_voltages(Voltages {
                clusters: vec![1.0, 0.8, 0.8, 0.8],
                icn: 1.0,
                cache: 1.0,
            });
        let balanced = reference_usage();
        let mut skewed = balanced.clone();
        // Push most work into the low-voltage clusters.
        skewed.weighted_ins_per_cluster = vec![1_000.0, 3_000.0, 3_000.0, 3_000.0];
        let e_balanced = m.estimate_energy(&cfg, &balanced).unwrap();
        let e_skewed = m.estimate_energy(&cfg, &skewed).unwrap();
        assert!(e_skewed < e_balanced);
    }

    #[test]
    fn domain_scaling_reference_is_identity() {
        let m = model();
        let cfg = ClockedConfig::reference(m.design());
        for d in cfg.domains() {
            let s = m.domain_scaling(&cfg, d).unwrap();
            assert!((s.delta - 1.0).abs() < 1e-12);
            assert!((s.sigma - 1.0).abs() < 1e-9);
            assert!((s.vth - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn a_resumed_fold_prices_as_price_does() {
        let m = model();
        let design = m.design();
        let cfg = ClockedConfig::heterogeneous(design, Time::from_ns(0.9), 2, Time::from_ns(1.3))
            .with_voltages(Voltages {
                clusters: vec![1.1, 1.05, 0.8, 0.75],
                icn: 0.95,
                cache: 1.05,
            });
        let mut scaling = ConfigScaling::default();
        assert!(m.scale_config(&cfg, &mut scaling));
        let start: Vec<DomainScaling> = design.domains().map(|d| *scaling.domain_mut(d)).collect();
        let mut skewed = reference_usage();
        skewed.weighted_ins_per_cluster = vec![4_000.0, 3_000.0, 2_000.0, 1_000.0];
        skewed.exec_time = Time::from_ns(27_000.0);
        let usages = [reference_usage(), skewed];
        let whole = usages.iter().fold(0.0, |t, u| t + m.price(&scaling, u));
        for first in 0..=start.len() {
            let mut fold = m.fold(&usages, start.iter().copied());
            assert_eq!(fold.price().to_bits(), whole.to_bits());
            fold.resume_at(first);
            assert_eq!(fold.price().to_bits(), whole.to_bits(), "first {first}");
            // A candidate that differs from `first` on resumes there.
            for (d, s) in start.iter().enumerate().skip(first) {
                let (delta, sigma) = (s.delta * 0.9, s.sigma * 1.1);
                fold.set(d, DomainScaling { delta, sigma, ..*s });
            }
            let candidate = fold.price();
            fold.keep();
            assert_eq!(
                candidate.to_bits(),
                fold.reference().to_bits(),
                "first {first}"
            );
            assert_eq!(
                fold.into_scaling().icn.delta == scaling.icn.delta,
                first > 4
            );
        }
    }

    #[test]
    #[should_panic(expected = "every cluster")]
    fn wrong_cluster_count_panics() {
        let m = model();
        let cfg = ClockedConfig::reference(m.design());
        let usage = UsageProfile {
            weighted_ins_per_cluster: vec![1.0; 2],
            comms: 0,
            mem_accesses: 0,
            exec_time: Time::from_ns(1.0),
        };
        let _ = m.estimate_energy(&cfg, &usage);
    }
}

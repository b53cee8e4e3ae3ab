//! Energy estimation for arbitrary clocked configurations (§3.1.3).

use vliw_machine::{ClockedConfig, DomainId, MachineDesign, Time};

use crate::alpha::AlphaPowerModel;
use crate::reference::{EnergyShares, EnergyUnits, ReferenceProfile};
use crate::scaling::{dynamic_scale, static_scale, SUBTHRESHOLD_SWING_V};

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
    /// Derives a usage profile from a reference profile assuming work is
    /// spread evenly across `num_clusters` identical clusters — exact for
    /// the reference homogeneous machine where `p_Ci = 1/n` for all `i`.
    #[must_use]
    pub fn homogeneous(profile: &ReferenceProfile, num_clusters: u8) -> Self {
        let per = profile.weighted_ins / f64::from(num_clusters);
        UsageProfile {
            weighted_ins_per_cluster: vec![per; usize::from(num_clusters)],
            comms: profile.comms,
            mem_accesses: profile.mem_accesses,
            exec_time: profile.exec_time,
        }
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
/// [`PowerModel::scaling`] values) and prices each usage with
/// [`PowerModel::price`].
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
    alpha: AlphaPowerModel,
}

impl PowerModel {
    /// Calibrates a model from the reference homogeneous run, using the
    /// paper's α-power reference point.
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
            alpha: AlphaPowerModel::paper_reference(),
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

    /// The α-power model in use.
    #[must_use]
    pub fn alpha_model(&self) -> &AlphaPowerModel {
        &self.alpha
    }

    /// The machine design this model was calibrated for.
    #[must_use]
    pub fn design(&self) -> MachineDesign {
        self.design
    }

    /// Scaling factors of a clock domain with cycle time `cycle` supplied
    /// with `vdd`, or `None` when that frequency is unreachable at that
    /// supply (no valid threshold exists).
    ///
    /// Nothing else of a configuration enters a domain's δ/σ, so callers
    /// pricing many configurations over a fixed set of (cycle, supply)
    /// pairs tabulate this once per pair.
    #[must_use]
    pub fn scaling(&self, cycle: Time, vdd: f64) -> Option<DomainScaling> {
        let vth = self.alpha.threshold_for(cycle.freq_ghz(), vdd)?;
        Some(DomainScaling {
            delta: dynamic_scale(vdd, self.alpha.vdd_ref()),
            sigma: static_scale(
                vdd,
                vth,
                self.alpha.vdd_ref(),
                self.alpha.vth_ref(),
                SUBTHRESHOLD_SWING_V,
            ),
            vth,
        })
    }

    /// Scaling factors for one domain of `config`, or `None` when the
    /// domain's frequency is unreachable at its supply voltage.
    #[must_use]
    pub fn domain_scaling(
        &self,
        config: &ClockedConfig,
        domain: DomainId,
    ) -> Option<DomainScaling> {
        self.scaling(
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
    /// This is the model's only pricing body:
    /// [`estimate_energy`](Self::estimate_energy) is
    /// [`scale_config`](Self::scale_config) followed by this.
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

    /// A stable 64-bit fingerprint of every quantity that influences this
    /// model's estimates: the machine design, the calibration shares, the
    /// calibrated unit energies and the α-power parameters.
    ///
    /// Two models with equal fingerprints produce identical estimates for
    /// every `(config, usage)` pair, which makes the fingerprint a sound
    /// memoisation-key component for caches layered over the exploration
    /// pipeline. Floats are hashed by bit pattern, so the fingerprint is
    /// exact (no epsilon classes) and deterministic across runs.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.design.num_clusters.hash(&mut h);
        self.design.buses.hash(&mut h);
        self.design.cluster.int_fus.hash(&mut h);
        self.design.cluster.fp_fus.hash(&mut h);
        self.design.cluster.mem_ports.hash(&mut h);
        self.design.cluster.registers.hash(&mut h);
        for v in [
            self.shares.icn,
            self.shares.cache,
            self.shares.leak_cluster,
            self.shares.leak_icn,
            self.shares.leak_cache,
            self.units.e_ins,
            self.units.e_comm,
            self.units.e_access,
            self.units.e_static_cluster_per_s,
            self.units.e_static_icn_per_s,
            self.units.e_static_cache_per_s,
            self.alpha.alpha(),
            self.alpha.vdd_ref(),
            self.alpha.vth_ref(),
            self.alpha.freq_ref_ghz(),
            SUBTHRESHOLD_SWING_V,
        ] {
            v.to_bits().hash(&mut h);
        }
        h.finish()
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

    #[test]
    fn reference_config_estimates_unit_energy() {
        let m = model();
        let cfg = ClockedConfig::reference(m.design());
        let usage = UsageProfile::homogeneous(&reference_profile(), 4);
        let e = m.estimate_energy(&cfg, &usage).unwrap();
        assert!((e - 1.0).abs() < 1e-12, "reference energy = {e}");
    }

    #[test]
    fn slower_run_leaks_more() {
        let m = model();
        let cfg = ClockedConfig::reference(m.design());
        let mut usage = UsageProfile::homogeneous(&reference_profile(), 4);
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
        let usage = UsageProfile::homogeneous(&reference_profile(), 4);
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
        let usage = UsageProfile::homogeneous(&reference_profile(), 4);
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
        let p = reference_profile();
        let balanced = UsageProfile::homogeneous(&p, 4);
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

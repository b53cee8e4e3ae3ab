//! Clocked machine configurations: which frequency and voltage each clock
//! domain runs at.

use std::fmt;

use crate::design::{ClusterId, MachineDesign};
use crate::time::Time;

/// One clock domain of the MCD organisation (paper Figure 2): each cluster,
/// the inter-cluster connection network, and the on-chip memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainId {
    /// A cluster domain.
    Cluster(ClusterId),
    /// The inter-cluster connection network (register buses).
    Icn,
    /// The on-chip memory hierarchy.
    Cache,
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainId::Cluster(c) => write!(f, "{c}"),
            DomainId::Icn => f.write_str("ICN"),
            DomainId::Cache => f.write_str("cache"),
        }
    }
}

/// Supply voltages per component, in volts.
#[derive(Debug, Clone, PartialEq)]
pub struct Voltages {
    /// One entry per cluster.
    pub clusters: Vec<f64>,
    /// Interconnection network supply.
    pub icn: f64,
    /// Memory hierarchy supply.
    pub cache: f64,
}

impl Voltages {
    /// Allowed cluster supply range (paper §5): 0.7 V – 1.2 V.
    pub const CLUSTER_RANGE: (f64, f64) = (0.7, 1.2);
    /// Allowed ICN supply range (paper §5): 0.8 V – 1.1 V.
    pub const ICN_RANGE: (f64, f64) = (0.8, 1.1);
    /// Allowed cache supply range (paper §5): 1.0 V – 1.4 V ("higher for the
    /// cache because its static energy consumption is large").
    pub const CACHE_RANGE: (f64, f64) = (1.0, 1.4);

    /// The reference supplies: 1 V everywhere (paper §5 baseline).
    #[must_use]
    pub fn reference(num_clusters: u8) -> Self {
        Voltages {
            clusters: vec![1.0; usize::from(num_clusters)],
            icn: 1.0,
            cache: 1.0,
        }
    }

    /// The supply of `domain`.
    ///
    /// # Panics
    ///
    /// Panics if a cluster id is out of range.
    #[must_use]
    pub fn domain(&self, domain: DomainId) -> f64 {
        match domain {
            DomainId::Cluster(c) => self.clusters[c.index()],
            DomainId::Icn => self.icn,
            DomainId::Cache => self.cache,
        }
    }

    /// The supply of `domain`, for in-place updates.
    ///
    /// # Panics
    ///
    /// Panics if a cluster id is out of range.
    pub fn domain_mut(&mut self, domain: DomainId) -> &mut f64 {
        match domain {
            DomainId::Cluster(c) => &mut self.clusters[c.index()],
            DomainId::Icn => &mut self.icn,
            DomainId::Cache => &mut self.cache,
        }
    }

    /// Whether every supply lies inside its legal range.
    #[must_use]
    pub fn in_range(&self) -> bool {
        let ok = |v: f64, (lo, hi): (f64, f64)| v >= lo - 1e-9 && v <= hi + 1e-9;
        self.clusters.iter().all(|&v| ok(v, Self::CLUSTER_RANGE))
            && ok(self.icn, Self::ICN_RANGE)
            && ok(self.cache, Self::CACHE_RANGE)
    }
}

/// A fully clocked machine: the static [`MachineDesign`] plus a cycle time
/// and supply voltage for every clock domain.
///
/// The paper's heterogeneous scheme (§2.1, §5) constrains the shape: the
/// cache and the ICN run at the frequency of the fastest cluster; clusters
/// split into "performance-oriented" (fast) and "low-power-oriented" (slow)
/// groups. The constructors encode those conventions; arbitrary shapes can
/// still be built with [`ClockedConfig::from_parts`] for sensitivity
/// studies.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockedConfig {
    design: MachineDesign,
    cluster_cycles: Vec<Time>,
    icn_cycle: Time,
    cache_cycle: Time,
    voltages: Voltages,
}

impl ClockedConfig {
    /// The reference cycle time: 1 ns (1 GHz, paper §5).
    pub const REFERENCE_CYCLE: Time = Time::from_fs(Time::FS_PER_NS);

    /// The reference homogeneous machine: every domain at 1 GHz and 1 V.
    #[must_use]
    pub fn reference(design: MachineDesign) -> Self {
        Self::homogeneous(design, Self::REFERENCE_CYCLE)
    }

    /// A homogeneous machine: every domain at cycle time `cycle`, 1 V
    /// supplies (adjust with [`ClockedConfig::with_voltages`]).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is zero.
    #[must_use]
    pub fn homogeneous(design: MachineDesign, cycle: Time) -> Self {
        assert!(!cycle.is_zero(), "cycle time must be positive");
        ClockedConfig {
            design,
            cluster_cycles: vec![cycle; usize::from(design.num_clusters)],
            icn_cycle: cycle,
            cache_cycle: cycle,
            voltages: Voltages::reference(design.num_clusters),
        }
    }

    /// A paper-shaped heterogeneous machine: the first `num_fast` clusters
    /// run at `fast_cycle`, the rest at `slow_cycle`; ICN and cache follow
    /// the fast clusters (§5). Voltages default to 1 V.
    ///
    /// # Panics
    ///
    /// Panics if `num_fast` is zero or exceeds the cluster count, if either
    /// cycle is zero, or if `slow_cycle < fast_cycle`.
    #[must_use]
    pub fn heterogeneous(
        design: MachineDesign,
        fast_cycle: Time,
        num_fast: u8,
        slow_cycle: Time,
    ) -> Self {
        assert!(
            !fast_cycle.is_zero() && !slow_cycle.is_zero(),
            "cycle times must be positive"
        );
        assert!(
            (1..=design.num_clusters).contains(&num_fast),
            "num_fast must be in 1..={}",
            design.num_clusters
        );
        assert!(
            slow_cycle >= fast_cycle,
            "slow clusters cannot be faster than fast ones"
        );
        let mut cluster_cycles = vec![slow_cycle; usize::from(design.num_clusters)];
        for c in cluster_cycles.iter_mut().take(usize::from(num_fast)) {
            *c = fast_cycle;
        }
        ClockedConfig {
            design,
            cluster_cycles,
            icn_cycle: fast_cycle,
            cache_cycle: fast_cycle,
            voltages: Voltages::reference(design.num_clusters),
        }
    }

    /// Builds a configuration with every field explicit.
    ///
    /// # Panics
    ///
    /// Panics if the number of cluster cycles or voltages does not match the
    /// design, or any cycle time is zero.
    #[must_use]
    pub fn from_parts(
        design: MachineDesign,
        cluster_cycles: Vec<Time>,
        icn_cycle: Time,
        cache_cycle: Time,
        voltages: Voltages,
    ) -> Self {
        assert_eq!(
            cluster_cycles.len(),
            usize::from(design.num_clusters),
            "one cycle time per cluster"
        );
        assert_eq!(
            voltages.clusters.len(),
            usize::from(design.num_clusters),
            "one supply per cluster"
        );
        assert!(
            cluster_cycles.iter().all(|c| !c.is_zero())
                && !icn_cycle.is_zero()
                && !cache_cycle.is_zero(),
            "cycle times must be positive"
        );
        ClockedConfig {
            design,
            cluster_cycles,
            icn_cycle,
            cache_cycle,
            voltages,
        }
    }

    /// Replaces the supply voltages.
    ///
    /// # Panics
    ///
    /// Panics if the cluster voltage count does not match the design.
    #[must_use]
    pub fn with_voltages(mut self, voltages: Voltages) -> Self {
        assert_eq!(
            voltages.clusters.len(),
            usize::from(self.design.num_clusters),
            "one supply per cluster"
        );
        self.voltages = voltages;
        self
    }

    /// The static resource design.
    #[must_use]
    pub fn design(&self) -> MachineDesign {
        self.design
    }

    /// Cycle time of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn cluster_cycle(&self, c: ClusterId) -> Time {
        self.cluster_cycles[c.index()]
    }

    /// Cycle time of the interconnection network.
    #[must_use]
    pub fn icn_cycle(&self) -> Time {
        self.icn_cycle
    }

    /// Cycle time of the memory hierarchy.
    #[must_use]
    pub fn cache_cycle(&self) -> Time {
        self.cache_cycle
    }

    /// Cycle time of an arbitrary domain.
    #[must_use]
    pub fn domain_cycle(&self, domain: DomainId) -> Time {
        match domain {
            DomainId::Cluster(c) => self.cluster_cycle(c),
            DomainId::Icn => self.icn_cycle,
            DomainId::Cache => self.cache_cycle,
        }
    }

    /// Supply voltages.
    #[must_use]
    pub fn voltages(&self) -> &Voltages {
        &self.voltages
    }

    /// The shortest cluster cycle time (the "fastest cluster", which also
    /// paces `recMIT`).
    ///
    /// # Panics
    ///
    /// Never panics: designs have at least one cluster.
    #[must_use]
    pub fn fastest_cluster_cycle(&self) -> Time {
        *self
            .cluster_cycles
            .iter()
            .min()
            .expect("at least one cluster")
    }

    /// The longest cluster cycle time.
    #[must_use]
    pub fn slowest_cluster_cycle(&self) -> Time {
        *self
            .cluster_cycles
            .iter()
            .max()
            .expect("at least one cluster")
    }

    /// Clusters sorted slowest-first — the pre-placement order of the
    /// heterogeneous partitioner (paper §4.1.1 places critical recurrences
    /// in the *slowest* cluster where they still fit).
    #[must_use]
    pub fn clusters_slowest_first(&self) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = self.design.clusters().collect();
        ids.sort_by_key(|c| std::cmp::Reverse(self.cluster_cycle(*c)));
        ids
    }

    /// Whether every domain runs at the same frequency (a traditional
    /// single-clock design; MCD synchronisation queues vanish).
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.cluster_cycles.iter().all(|&c| c == self.icn_cycle)
            && self.cache_cycle == self.icn_cycle
    }

    /// Extra cycles (of the *receiving* domain) a value pays when crossing
    /// from domain `from` to domain `to` through the MCD synchronisation
    /// queues of Figure 2. Zero inside one domain or when both domains run
    /// at the same frequency (their edges align every cycle).
    #[must_use]
    pub fn sync_penalty_cycles(&self, from: DomainId, to: DomainId) -> u32 {
        if from == to || self.domain_cycle(from) == self.domain_cycle(to) {
            0
        } else {
            1
        }
    }

    /// All domains of this machine, in [`MachineDesign::domains`] order.
    #[must_use]
    pub fn domains(&self) -> Vec<DomainId> {
        self.design.domains().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> MachineDesign {
        MachineDesign::paper_machine(1)
    }

    #[test]
    fn reference_is_homogeneous_1ghz_1v() {
        let c = ClockedConfig::reference(design());
        assert!(c.is_homogeneous());
        for d in c.domains() {
            assert_eq!(c.domain_cycle(d), Time::from_ns(1.0));
            assert_eq!(c.voltages().domain(d), 1.0);
        }
    }

    #[test]
    fn heterogeneous_shape_follows_paper() {
        let c = ClockedConfig::heterogeneous(design(), Time::from_ns(0.95), 1, Time::from_ns(1.25));
        assert_eq!(c.cluster_cycle(ClusterId(0)), Time::from_ns(0.95));
        for i in 1..4 {
            assert_eq!(c.cluster_cycle(ClusterId(i)), Time::from_ns(1.25));
        }
        assert_eq!(c.icn_cycle(), Time::from_ns(0.95));
        assert_eq!(c.cache_cycle(), Time::from_ns(0.95));
        assert_eq!(c.fastest_cluster_cycle(), Time::from_ns(0.95));
        assert_eq!(c.slowest_cluster_cycle(), Time::from_ns(1.25));
        assert!(!c.is_homogeneous());
    }

    #[test]
    fn slowest_first_ordering() {
        let c = ClockedConfig::heterogeneous(design(), Time::from_ns(1.0), 2, Time::from_ns(1.5));
        let order = c.clusters_slowest_first();
        assert_eq!(c.cluster_cycle(order[0]), Time::from_ns(1.5));
        assert_eq!(c.cluster_cycle(order[1]), Time::from_ns(1.5));
        assert_eq!(c.cluster_cycle(order[2]), Time::from_ns(1.0));
        assert_eq!(c.cluster_cycle(order[3]), Time::from_ns(1.0));
    }

    #[test]
    fn sync_penalty_only_across_different_frequencies() {
        let hom = ClockedConfig::reference(design());
        assert_eq!(
            hom.sync_penalty_cycles(DomainId::Cluster(ClusterId(0)), DomainId::Icn),
            0
        );
        let het = ClockedConfig::heterogeneous(design(), Time::from_ns(1.0), 1, Time::from_ns(1.5));
        // Fast cluster ↔ ICN share a frequency: no penalty.
        assert_eq!(
            het.sync_penalty_cycles(DomainId::Cluster(ClusterId(0)), DomainId::Icn),
            0
        );
        // Slow cluster → ICN crosses frequencies: one cycle.
        assert_eq!(
            het.sync_penalty_cycles(DomainId::Cluster(ClusterId(1)), DomainId::Icn),
            1
        );
        assert_eq!(
            het.sync_penalty_cycles(
                DomainId::Cluster(ClusterId(1)),
                DomainId::Cluster(ClusterId(2))
            ),
            0,
            "two slow clusters share a frequency"
        );
    }

    #[test]
    fn voltages_ranges() {
        let mut v = Voltages::reference(4);
        assert!(v.in_range());
        v.cache = 1.4;
        assert!(v.in_range());
        v.cache = 0.9; // below the cache's 1.0 V floor
        assert!(!v.in_range());
        v.cache = 1.0;
        v.clusters[2] = 0.65;
        assert!(!v.in_range());
    }

    #[test]
    fn homogeneous_at_other_cycle() {
        let c = ClockedConfig::homogeneous(design(), Time::from_ns(1.1));
        assert!(c.is_homogeneous());
        assert_eq!(c.fastest_cluster_cycle(), Time::from_ns(1.1));
    }

    #[test]
    #[should_panic(expected = "slow clusters cannot be faster")]
    fn inverted_speeds_panic() {
        let _ = ClockedConfig::heterogeneous(design(), Time::from_ns(1.2), 1, Time::from_ns(0.9));
    }

    #[test]
    #[should_panic(expected = "num_fast")]
    fn zero_fast_clusters_panics() {
        let _ = ClockedConfig::heterogeneous(design(), Time::from_ns(1.0), 0, Time::from_ns(1.5));
    }

    #[test]
    fn domains_enumeration() {
        let c = ClockedConfig::reference(design());
        let d = c.domains();
        assert_eq!(d.len(), 6); // 4 clusters + ICN + cache
        assert!(d.contains(&DomainId::Icn));
        assert!(d.contains(&DomainId::Cache));
        assert_eq!(DomainId::Icn.to_string(), "ICN");
        assert_eq!(DomainId::Cluster(ClusterId(2)).to_string(), "C2");
    }
}

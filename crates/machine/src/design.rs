//! Static resource description of the clustered machine.

use std::fmt;

use vliw_ir::FuKind;

use crate::config::DomainId;

/// Identifier of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u8);

impl ClusterId {
    /// The cluster's dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u8> for ClusterId {
    fn from(v: u8) -> Self {
        ClusterId(v)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Resources inside one cluster.
///
/// All clusters of a machine share one design (the paper's heterogeneity is
/// purely in frequency and voltage, §5: "all of the clusters will have the
/// same design").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterDesign {
    /// Integer functional units.
    pub int_fus: u32,
    /// Floating-point functional units.
    pub fp_fus: u32,
    /// Memory ports.
    pub mem_ports: u32,
    /// Architectural registers in the cluster's register file.
    pub registers: u32,
}

impl ClusterDesign {
    /// The per-cluster design of the paper's evaluation machine:
    /// 1 fp FU, 1 int FU, 1 memory port, 16 registers.
    pub const PAPER: ClusterDesign = ClusterDesign {
        int_fus: 1,
        fp_fus: 1,
        mem_ports: 1,
        registers: 16,
    };

    /// Number of functional units of kind `kind` (zero for [`FuKind::Bus`],
    /// which belongs to the interconnect, not a cluster).
    #[must_use]
    pub fn fu_count(&self, kind: FuKind) -> u32 {
        match kind {
            FuKind::Int => self.int_fus,
            FuKind::Fp => self.fp_fus,
            FuKind::Mem => self.mem_ports,
            FuKind::Bus => 0,
        }
    }

    /// Total issue slots per cycle in this cluster.
    #[must_use]
    pub fn issue_width(&self) -> u32 {
        self.int_fus + self.fp_fus + self.mem_ports
    }
}

impl Default for ClusterDesign {
    fn default() -> Self {
        Self::PAPER
    }
}

/// A whole machine: `num_clusters` identical clusters plus `buses`
/// inter-cluster register buses (1-cycle latency each, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineDesign {
    /// Number of clusters.
    pub num_clusters: u8,
    /// Per-cluster resources.
    pub cluster: ClusterDesign,
    /// Number of inter-cluster register buses.
    pub buses: u32,
}

impl MachineDesign {
    /// The paper's evaluation machine: 4 clusters of [`ClusterDesign::PAPER`]
    /// with `buses` register buses (the paper reports 1 and 2).
    ///
    /// # Panics
    ///
    /// Panics if `buses == 0`.
    #[must_use]
    pub fn paper_machine(buses: u32) -> Self {
        assert!(buses > 0, "a clustered machine needs at least one bus");
        MachineDesign {
            num_clusters: 4,
            cluster: ClusterDesign::PAPER,
            buses,
        }
    }

    /// Creates a machine with `num_clusters` copies of `cluster` and
    /// `buses` buses.
    ///
    /// # Panics
    ///
    /// Panics if `num_clusters == 0` or `buses == 0`.
    #[must_use]
    pub fn new(num_clusters: u8, cluster: ClusterDesign, buses: u32) -> Self {
        assert!(num_clusters > 0, "a machine needs at least one cluster");
        assert!(buses > 0, "a clustered machine needs at least one bus");
        MachineDesign {
            num_clusters,
            cluster,
            buses,
        }
    }

    /// Iterate over all cluster ids.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = ClusterId> + Clone {
        (0..self.num_clusters).map(ClusterId)
    }

    /// Iterate over every clock domain: the clusters in order, then the
    /// ICN, then the cache.
    pub fn domains(&self) -> impl Iterator<Item = DomainId> + Clone {
        self.clusters()
            .map(DomainId::Cluster)
            .chain([DomainId::Icn, DomainId::Cache])
    }

    /// Machine-wide count of functional units of `kind` ([`FuKind::Bus`]
    /// returns the bus count).
    #[must_use]
    pub fn total_fu_count(&self, kind: FuKind) -> u32 {
        match kind {
            FuKind::Bus => self.buses,
            k => u32::from(self.num_clusters) * self.cluster.fu_count(k),
        }
    }

    /// Machine-wide register count.
    #[must_use]
    pub fn total_registers(&self) -> u32 {
        u32::from(self.num_clusters) * self.cluster.registers
    }
}

impl Default for MachineDesign {
    fn default() -> Self {
        Self::paper_machine(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_section5() {
        let m = MachineDesign::paper_machine(1);
        assert_eq!(m.num_clusters, 4);
        assert_eq!(m.total_fu_count(FuKind::Int), 4);
        assert_eq!(m.total_fu_count(FuKind::Fp), 4);
        assert_eq!(m.total_fu_count(FuKind::Mem), 4);
        assert_eq!(m.total_fu_count(FuKind::Bus), 1);
        assert_eq!(m.total_registers(), 64);
        assert_eq!(m.cluster.registers, 16);
    }

    #[test]
    fn issue_width() {
        assert_eq!(ClusterDesign::PAPER.issue_width(), 3);
    }

    #[test]
    fn cluster_iteration() {
        let m = MachineDesign::paper_machine(2);
        let ids: Vec<_> = m.clusters().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], ClusterId(0));
        assert_eq!(ids[3].to_string(), "C3");
    }

    #[test]
    fn bus_is_not_a_cluster_resource() {
        assert_eq!(ClusterDesign::PAPER.fu_count(FuKind::Bus), 0);
        assert_eq!(
            MachineDesign::paper_machine(2).total_fu_count(FuKind::Bus),
            2
        );
    }

    #[test]
    #[should_panic(expected = "at least one bus")]
    fn zero_buses_panics() {
        let _ = MachineDesign::paper_machine(0);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let _ = MachineDesign::new(0, ClusterDesign::PAPER, 1);
    }
}

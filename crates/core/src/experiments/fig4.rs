//! Figure 4: availability and utility of the ABE cluster as it is scaled to
//! a petaflop–petabyte system — four curves: storage availability, CFS
//! availability, cluster utility (CU), and CFS availability with a standby
//! spare OSS.

use serde::{Deserialize, Serialize};

use probdist::stats::ConfidenceInterval;

use crate::analysis::evaluate;
use crate::config::ClusterConfig;
use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// One scale point of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Scratch capacity at this scale point, terabytes.
    pub capacity_tb: f64,
    /// Number of compute nodes.
    pub compute_nodes: u32,
    /// Number of OSS fail-over pairs (excluding metadata).
    pub oss_pairs: u32,
    /// Number of DDN units.
    pub ddn_units: u32,
    /// Storage (RAID subsystem) availability.
    pub storage_availability: ConfidenceInterval,
    /// CFS availability.
    pub cfs_availability: ConfidenceInterval,
    /// Cluster utility.
    pub cluster_utility: ConfidenceInterval,
    /// CFS availability with the standby spare OSS mitigation.
    pub cfs_availability_spare_oss: ConfidenceInterval,
}

/// The full Figure 4 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Points in increasing scale order.
    pub points: Vec<Fig4Point>,
    /// Simulation horizon per replication, hours.
    pub horizon_hours: f64,
    /// Replications actually executed per configuration (the maximum
    /// across scale points, when an adaptive precision target lets points
    /// stop early).
    pub replications: usize,
    /// Whether a deadline truncated any point's replications (each
    /// estimate still covers a valid contiguous prefix).
    pub truncated: bool,
}

/// The default capacity sweep for Figure 4 (a subset of the Figure 2 sweep,
/// since each point simulates the full composed model).
pub fn figure4_capacity_points_tb() -> Vec<f64> {
    vec![96.0, 384.0, 1536.0, 6144.0, 12_288.0]
}

impl Fig4Result {
    /// Renders the figure as a table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 4. Availability and utility of the ABE cluster when scaled to a petaflop-petabyte system",
            &[
                "TB",
                "Nodes",
                "OSS",
                "DDN",
                "Storage-availability",
                "CFS-Availability",
                "CU",
                "CFS-Availability-spare-OSS",
            ],
        );
        for p in &self.points {
            t.add_row(&[
                format!("{:.0}", p.capacity_tb),
                p.compute_nodes.to_string(),
                p.oss_pairs.to_string(),
                p.ddn_units.to_string(),
                fmt_ci(&p.storage_availability, 4),
                fmt_ci(&p.cfs_availability, 4),
                fmt_ci(&p.cluster_utility, 4),
                fmt_ci(&p.cfs_availability_spare_oss, 4),
            ]);
        }
        t
    }
}

/// Runs the Figure 4 experiment under the given run spec.
///
/// `capacities_tb` defaults to [`figure4_capacity_points_tb`] when empty.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn figure4_cfs_availability_with(
    capacities_tb: &[f64],
    spec: &RunSpec,
) -> Result<Fig4Result, CfsError> {
    spec.validate()?;
    let capacities: Vec<f64> = if capacities_tb.is_empty() {
        figure4_capacity_points_tb()
    } else {
        capacities_tb.to_vec()
    };

    let mut points = Vec::new();
    let mut replications_used = 0usize;
    let mut truncated = false;
    for (idx, &capacity_tb) in capacities.iter().enumerate() {
        let config = ClusterConfig::scaled_to_capacity(capacity_tb)?;
        let spared = config.clone().with_spare_oss();
        let base = evaluate(&config, &spec.offset_seed(idx as u64))?;
        let with_spare = evaluate(&spared, &spec.offset_seed(1000 + idx as u64))?;
        replications_used = replications_used.max(base.replications).max(with_spare.replications);
        truncated |= base.truncated || with_spare.truncated;
        points.push(Fig4Point {
            capacity_tb,
            compute_nodes: config.compute_nodes,
            oss_pairs: config.oss_pairs,
            ddn_units: config.storage.ddn_units,
            storage_availability: base.storage_availability,
            cfs_availability: base.cfs_availability,
            cluster_utility: base.cluster_utility,
            cfs_availability_spare_oss: with_spare.cfs_availability,
        });
    }
    Ok(Fig4Result {
        points,
        horizon_hours: spec.horizon_hours(),
        replications: replications_used,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_sweep_reproduces_the_figure_shape() {
        // ABE endpoint and the petascale endpoint with a modest replication
        // count: CFS availability declines with scale, storage availability
        // stays ≈ 1, CU sits below CFS availability, and the spare OSS
        // recovers part of the loss at petascale.
        let spec =
            RunSpec::new().with_horizon_hours(8760.0).with_replications(12).with_base_seed(7);
        let result = figure4_cfs_availability_with(&[96.0, 12_288.0], &spec).unwrap();
        assert_eq!(result.points.len(), 2);
        let abe = &result.points[0];
        let peta = &result.points[1];

        assert!(
            abe.cfs_availability.point > 0.95,
            "ABE availability {}",
            abe.cfs_availability.point
        );
        assert!(
            peta.cfs_availability.point < abe.cfs_availability.point - 0.02,
            "petascale availability {} should be clearly below ABE {}",
            peta.cfs_availability.point,
            abe.cfs_availability.point
        );
        assert!(abe.storage_availability.point > 0.999);
        assert!(peta.storage_availability.point > 0.999);
        assert!(peta.cluster_utility.point < peta.cfs_availability.point);
        assert!(
            peta.cfs_availability_spare_oss.point > peta.cfs_availability.point,
            "spare OSS should help at petascale"
        );

        let table = result.to_table();
        assert_eq!(table.len(), 2);
        assert!(table.render().contains("CFS-Availability-spare-OSS"));
    }
}

//! Ablation studies for the design choices called out in DESIGN.md §6:
//! RAID parity width, spare-OSS standby, correlated-failure probability, and
//! disk replacement/repair time.

use serde::{Deserialize, Serialize};

use probdist::stats::ConfidenceInterval;
use raidsim::scaling::{config_from_plan, plan_for_capacity};
use raidsim::{DiskModel, RaidGeometry, StorageConfig, StorageSimulator};

use crate::analysis::evaluate;
use crate::config::ClusterConfig;
use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// One configuration of an ablation sweep and the availability it achieves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Description of the configuration (e.g. "8+3", "p = 0.03").
    pub label: String,
    /// The availability measure the ablation tracks (storage availability
    /// for storage-side ablations, CFS availability for cluster-side ones).
    pub availability: ConfidenceInterval,
    /// A secondary measure where meaningful (data-loss events per mission,
    /// cluster utility, …), with its label.
    pub secondary: Option<(String, f64)>,
}

/// A named ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Name of the ablation.
    pub name: String,
    /// The swept configurations.
    pub points: Vec<AblationPoint>,
    /// Replications actually executed (the maximum across swept
    /// configurations, when an adaptive precision target lets points stop
    /// early).
    pub replications: usize,
    /// Whether a deadline truncated any point's replications (each
    /// estimate still covers a valid contiguous prefix).
    pub truncated: bool,
}

impl AblationResult {
    /// Renders the ablation as a table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!("Ablation: {}", self.name),
            &["Configuration", "Availability", "Secondary measure"],
        );
        for p in &self.points {
            let secondary = p
                .secondary
                .as_ref()
                .map(|(label, value)| format!("{label} = {value:.4}"))
                .unwrap_or_default();
            t.add_row(&[p.label.clone(), fmt_ci(&p.availability, 5), secondary]);
        }
        t
    }
}

/// Petascale storage configuration used by the storage-side ablations:
/// pessimistic disks (Weibull 0.6, AFR 8.76 %) at 12 PB.
fn pessimistic_petascale_storage(
    geometry: RaidGeometry,
    replacement_hours: f64,
) -> Result<StorageConfig, CfsError> {
    let disk = DiskModel { weibull_shape: 0.6, mtbf_hours: 100_000.0, capacity_gb: 250.0 };
    let template =
        StorageConfig { geometry, disk, replacement_hours, ..StorageConfig::abe_scratch() };
    let plan = plan_for_capacity(12_288.0, disk.capacity_gb, geometry)?;
    Ok(config_from_plan(&plan, &template)?)
}

/// Ablation: (8+1) vs (8+2) vs (8+3) parity at petascale with pessimistic
/// disks — the Blue Waters design argument.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn ablation_raid_parity_with(spec: &RunSpec) -> Result<AblationResult, CfsError> {
    spec.validate()?;
    let policy = spec.replication_policy()?;
    let mut points = Vec::new();
    let mut replications = 0usize;
    let mut truncated = false;
    for geometry in [RaidGeometry::raid5_8p1(), RaidGeometry::raid6_8p2(), RaidGeometry::raid_8p3()]
    {
        let storage = pessimistic_petascale_storage(geometry, 4.0)?;
        let simulator = StorageSimulator::new(storage)?;
        let summary = simulator.run_with(
            spec.horizon_hours(),
            policy,
            spec.base_seed(),
            spec.confidence_level(),
            spec.workers(),
        )?;
        replications = replications.max(summary.replications);
        truncated |= summary.truncated;
        points.push(AblationPoint {
            label: geometry.label(),
            availability: summary.availability,
            secondary: Some(("data-loss events".into(), summary.data_loss_events.point)),
        });
    }
    Ok(AblationResult {
        name: "RAID parity width at petascale (0.6, 8.76% AFR)".into(),
        points,
        replications,
        truncated,
    })
}

/// Ablation: disk replacement time (1 h, 4 h, 12 h) at petascale with
/// pessimistic disks — the Table 5 "average time to replace disks" sweep.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn ablation_repair_time_with(spec: &RunSpec) -> Result<AblationResult, CfsError> {
    spec.validate()?;
    let policy = spec.replication_policy()?;
    let mut points = Vec::new();
    let mut replications = 0usize;
    let mut truncated = false;
    for hours in [1.0, 4.0, 12.0] {
        let storage = pessimistic_petascale_storage(RaidGeometry::raid6_8p2(), hours)?;
        let simulator = StorageSimulator::new(storage)?;
        let summary = simulator.run_with(
            spec.horizon_hours(),
            policy,
            spec.base_seed(),
            spec.confidence_level(),
            spec.workers(),
        )?;
        replications = replications.max(summary.replications);
        truncated |= summary.truncated;
        points.push(AblationPoint {
            label: format!("replacement = {hours} h"),
            availability: summary.availability,
            secondary: Some(("data-loss events".into(), summary.data_loss_events.point)),
        });
    }
    Ok(AblationResult {
        name: "Disk replacement time at petascale (8+2, 0.6, 8.76% AFR)".into(),
        points,
        replications,
        truncated,
    })
}

/// Ablation: standby spare OSS on/off at petascale (the Section 5.2
/// mitigation).
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn ablation_spare_oss_with(spec: &RunSpec) -> Result<AblationResult, CfsError> {
    spec.validate()?;
    let base = ClusterConfig::petascale();
    let spared = base.clone().with_spare_oss();
    let mut points = Vec::new();
    let mut replications = 0usize;
    let mut truncated = false;
    for config in [base, spared] {
        let result = evaluate(&config, spec)?;
        replications = replications.max(result.replications);
        truncated |= result.truncated;
        points.push(AblationPoint {
            label: config.name.clone(),
            availability: result.cfs_availability,
            secondary: Some(("cluster utility".into(), result.cluster_utility.point)),
        });
    }
    Ok(AblationResult {
        name: "Standby spare OSS at petascale".into(),
        points,
        replications,
        truncated,
    })
}

/// Ablation: correlated-failure propagation probability `p` (Section 4.3)
/// at petascale.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn ablation_correlation_with(spec: &RunSpec) -> Result<AblationResult, CfsError> {
    spec.validate()?;
    let mut points = Vec::new();
    let mut replications = 0usize;
    let mut truncated = false;
    for p in [0.0, 0.0075, 0.03] {
        let mut config = ClusterConfig::petascale();
        config.params.correlation_probability = p;
        config.name = format!("p = {p}");
        let result = evaluate(&config, spec)?;
        replications = replications.max(result.replications);
        truncated |= result.truncated;
        points.push(AblationPoint {
            label: config.name.clone(),
            availability: result.cfs_availability,
            secondary: Some(("mean OSS pairs down".into(), result.mean_oss_pairs_down.point)),
        });
    }
    Ok(AblationResult {
        name: "Correlated-failure probability at petascale".into(),
        points,
        replications,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(replications: usize, seed: u64) -> RunSpec {
        RunSpec::new()
            .with_horizon_hours(4380.0)
            .with_replications(replications)
            .with_base_seed(seed)
    }

    #[test]
    fn raid_parity_ablation_orders_geometries() {
        let result = ablation_raid_parity_with(&spec(8, 3)).unwrap();
        assert_eq!(result.points.len(), 3);
        let avail: Vec<f64> = result.points.iter().map(|p| p.availability.point).collect();
        // 8+1 <= 8+2 <= 8+3 (allowing tiny Monte-Carlo noise).
        assert!(avail[0] <= avail[1] + 1e-6);
        assert!(avail[1] <= avail[2] + 1e-6);
        assert!(result.to_table().render().contains("8+3"));
    }

    #[test]
    fn repair_time_ablation_prefers_fast_replacement() {
        let result = ablation_repair_time_with(&spec(8, 5)).unwrap();
        let one_hour = result.points[0].availability.point;
        let twelve_hours = result.points[2].availability.point;
        assert!(one_hour >= twelve_hours - 1e-6);
    }

    #[test]
    fn correlation_ablation_shows_monotone_damage() {
        let result = ablation_correlation_with(&spec(6, 7)).unwrap();
        let none = result.points[0].availability.point;
        let high = result.points[2].availability.point;
        assert!(none > high, "correlation should reduce availability: {none} vs {high}");
    }

    #[test]
    fn spare_oss_ablation_reports_both_configurations() {
        let result = ablation_spare_oss_with(&spec(6, 9)).unwrap();
        assert_eq!(result.points.len(), 2);
        assert!(result.points[1].availability.point >= result.points[0].availability.point - 0.01);
        assert!(result.to_table().render().contains("spare"));
    }
}

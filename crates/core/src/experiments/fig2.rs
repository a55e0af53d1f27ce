//! Figure 2: availability of the storage hardware (RAID6 tiers and their
//! controllers, in isolation from the rest of the SAN) as the file system is
//! scaled from ABE's 96 TB to the 12 PB of a petascale machine.
//!
//! Each series is labelled with the tuple the paper uses:
//! `(Weibull shape β, AFR %, RAID configuration, disk replacement hours)`.

use serde::{Deserialize, Serialize};

use probdist::stats::ConfidenceInterval;
use raidsim::scaling::{config_from_plan, figure2_capacity_points_tb, plan_for_capacity};
use raidsim::{DiskModel, RaidGeometry, StorageConfig, StorageSimulator};

use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// One storage-reliability configuration (one curve of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig2Config {
    /// Weibull shape parameter of disk lifetimes.
    pub weibull_shape: f64,
    /// Disk annualized failure rate, percent.
    pub afr_percent: f64,
    /// RAID geometry of every tier.
    pub geometry: RaidGeometry,
    /// Disk replacement time, hours.
    pub replacement_hours: f64,
}

impl Fig2Config {
    /// The tuple label used in the paper's legend, e.g. `(0.7,2.92,8+2,4)`.
    pub fn label(&self) -> String {
        format!(
            "({},{},{},{})",
            self.weibull_shape,
            self.afr_percent,
            self.geometry.label(),
            self.replacement_hours
        )
    }

    /// The configurations plotted in the paper's Figure 2, plus the (8+3)
    /// Blue Waters variant discussed in the text.
    pub fn paper_series() -> Vec<Fig2Config> {
        vec![
            Fig2Config {
                weibull_shape: 0.6,
                afr_percent: 8.76,
                geometry: RaidGeometry::raid6_8p2(),
                replacement_hours: 4.0,
            },
            Fig2Config {
                weibull_shape: 0.6,
                afr_percent: 4.38,
                geometry: RaidGeometry::raid6_8p2(),
                replacement_hours: 4.0,
            },
            Fig2Config {
                weibull_shape: 0.7,
                afr_percent: 8.76,
                geometry: RaidGeometry::raid6_8p2(),
                replacement_hours: 4.0,
            },
            // The ABE baseline.
            Fig2Config {
                weibull_shape: 0.7,
                afr_percent: 2.92,
                geometry: RaidGeometry::raid6_8p2(),
                replacement_hours: 4.0,
            },
            // The Blue Waters (8+3) design point under pessimistic disks.
            Fig2Config {
                weibull_shape: 0.6,
                afr_percent: 8.76,
                geometry: RaidGeometry::raid_8p3(),
                replacement_hours: 4.0,
            },
        ]
    }

    /// Builds the storage configuration for a given usable capacity.
    ///
    /// # Errors
    ///
    /// Propagates planning/validation errors.
    pub fn storage_for_capacity(&self, capacity_tb: f64) -> Result<StorageConfig, CfsError> {
        let disk = DiskModel {
            weibull_shape: self.weibull_shape,
            mtbf_hours: probdist::Afr::new(self.afr_percent)?.to_mtbf().hours(),
            capacity_gb: 250.0,
        };
        let template = StorageConfig {
            geometry: self.geometry,
            disk,
            replacement_hours: self.replacement_hours,
            rebuild_hours: 6.0,
            ..StorageConfig::abe_scratch()
        };
        let plan = plan_for_capacity(capacity_tb, disk.capacity_gb, self.geometry)?;
        Ok(config_from_plan(&plan, &template)?)
    }
}

/// One point of a Figure 2 curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Point {
    /// Usable capacity in terabytes.
    pub capacity_tb: f64,
    /// Total number of disks at this scale.
    pub total_disks: u32,
    /// Storage availability with its confidence interval.
    pub availability: ConfidenceInterval,
    /// Probability that at least one unrecoverable tier failure occurs
    /// during the mission.
    pub prob_any_data_loss: f64,
}

/// One curve of Figure 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Series {
    /// The configuration tuple label.
    pub label: String,
    /// The configuration.
    pub config: Fig2Config,
    /// Points in increasing capacity order.
    pub points: Vec<Fig2Point>,
}

/// The full Figure 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Result {
    /// One series per configuration tuple.
    pub series: Vec<Fig2Series>,
    /// Mission length, hours.
    pub horizon_hours: f64,
    /// Replications actually executed per point (the maximum across
    /// points, when an adaptive precision target lets points stop early).
    pub replications: usize,
    /// Whether a deadline truncated any point's replications (each
    /// estimate still covers a valid contiguous prefix).
    pub truncated: bool,
}

impl Fig2Result {
    /// Renders the figure as a table (capacity × configuration →
    /// availability).
    pub fn to_table(&self) -> TextTable {
        let mut headers: Vec<String> = vec!["TB".to_string(), "Disks".to_string()];
        headers.extend(self.series.iter().map(|s| s.label.clone()));
        let header_refs: Vec<&str> = headers.iter().map(std::string::String::as_str).collect();
        let mut t = TextTable::new(
            "Figure 2. Availability of storage with respect to disk failures",
            &header_refs,
        );
        if let Some(first) = self.series.first() {
            for (i, point) in first.points.iter().enumerate() {
                let mut row =
                    vec![format!("{:.0}", point.capacity_tb), point.total_disks.to_string()];
                for series in &self.series {
                    row.push(fmt_ci(&series.points[i].availability, 5));
                }
                t.add_row(&row);
            }
        }
        t
    }
}

/// Runs the Figure 2 experiment: storage availability versus capacity for
/// every configuration tuple, under the given run spec.
///
/// `capacities_tb` defaults to the paper's 96 TB → 12 PB doubling sweep when
/// empty.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn figure2_storage_availability_with(
    capacities_tb: &[f64],
    spec: &RunSpec,
) -> Result<Fig2Result, CfsError> {
    spec.validate()?;
    let capacities: Vec<f64> = if capacities_tb.is_empty() {
        figure2_capacity_points_tb()
    } else {
        capacities_tb.to_vec()
    };

    let replications = spec.replication_policy()?;
    let mut series = Vec::new();
    let mut replications_used = 0usize;
    let mut truncated = false;
    for (series_idx, config) in Fig2Config::paper_series().into_iter().enumerate() {
        let mut points = Vec::new();
        for (cap_idx, &capacity_tb) in capacities.iter().enumerate() {
            let storage = config.storage_for_capacity(capacity_tb)?;
            let total_disks = storage.total_disks();
            let simulator = StorageSimulator::new(storage)?;
            let summary = simulator.run_with(
                spec.horizon_hours(),
                replications,
                spec.base_seed().wrapping_add((series_idx * 1000 + cap_idx) as u64),
                spec.confidence_level(),
                spec.workers(),
            )?;
            replications_used = replications_used.max(summary.replications);
            truncated |= summary.truncated;
            points.push(Fig2Point {
                capacity_tb,
                total_disks,
                availability: summary.availability,
                prob_any_data_loss: summary.prob_any_data_loss,
            });
        }
        series.push(Fig2Series { label: config.label(), config, points });
    }
    Ok(Fig2Result {
        series,
        horizon_hours: spec.horizon_hours(),
        replications: replications_used,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper_legend() {
        let series = Fig2Config::paper_series();
        let labels: Vec<String> = series.iter().map(super::Fig2Config::label).collect();
        assert!(labels.contains(&"(0.7,2.92,8+2,4)".to_string()));
        assert!(labels.contains(&"(0.6,8.76,8+2,4)".to_string()));
        assert!(labels.iter().any(|l| l.contains("8+3")));
    }

    #[test]
    fn storage_for_capacity_scales_disk_count() {
        let abe = Fig2Config::paper_series()[3];
        let small = abe.storage_for_capacity(96.0).unwrap();
        let large = abe.storage_for_capacity(768.0).unwrap();
        assert_eq!(small.total_disks(), 480);
        assert_eq!(large.total_disks(), 3840);
        assert!((small.disk.mtbf_hours - 300_000.0).abs() < 1.0);
    }

    #[test]
    fn small_sweep_preserves_the_figure_shape() {
        // Small replication count and two capacities keep the test quick
        // while still checking the headline observations: ABE-scale
        // availability ≈ 1 for every configuration, and the ABE disk
        // configuration stays ≥ the pessimistic one at the larger scale.
        let spec = RunSpec::new().with_horizon_hours(4380.0).with_replications(8).with_base_seed(3);
        let result = figure2_storage_availability_with(&[96.0, 1536.0], &spec).unwrap();
        assert_eq!(result.series.len(), 5);
        for series in &result.series {
            assert_eq!(series.points.len(), 2);
            assert!(series.points[0].availability.point > 0.999, "{}", series.label);
        }
        let abe_cfg = &result.series[3];
        let pessimistic = &result.series[0];
        assert!(
            abe_cfg.points[1].availability.point >= pessimistic.points[1].availability.point - 1e-6
        );
        let table = result.to_table();
        assert_eq!(table.len(), 2);
        assert!(table.render().contains("(0.7,2.92,8+2,4)"));
    }
}

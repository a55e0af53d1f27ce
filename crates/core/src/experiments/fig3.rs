//! Figure 3: average number of disks that must be replaced per week to
//! sustain availability, as the scratch partition grows from ABE's 480
//! disks to 4800 disks, for four disk AFRs (0.88 %, 2.92 %, 4.38 %,
//! 8.76 %) at Weibull shape 0.7.

use serde::{Deserialize, Serialize};

use probdist::stats::ConfidenceInterval;
use raidsim::replacement::expected_replacements_per_week;
use raidsim::scaling::figure3_disk_counts;
use raidsim::{DiskModel, StorageConfig, StorageSimulator};

use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// One point of a Figure 3 curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Number of disks in the scratch partition.
    pub disks: u32,
    /// Simulated replacements per week (Monte-Carlo, with CI).
    pub simulated_per_week: ConfidenceInterval,
    /// Analytic (renewal-function) replacements per week.
    pub analytic_per_week: f64,
}

/// One curve of Figure 3 (one AFR).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Series {
    /// The configuration tuple label, e.g. `(0.7,2.92,8+2,4)`.
    pub label: String,
    /// Disk AFR in percent.
    pub afr_percent: f64,
    /// Points in increasing disk-count order.
    pub points: Vec<Fig3Point>,
}

/// The full Figure 3 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// One series per AFR.
    pub series: Vec<Fig3Series>,
    /// Mission length, hours.
    pub horizon_hours: f64,
    /// Replications actually executed per point (the maximum across
    /// points, when an adaptive precision target lets points stop early).
    pub replications: usize,
    /// Whether a deadline truncated any point's replications (each
    /// estimate still covers a valid contiguous prefix).
    pub truncated: bool,
}

/// The AFRs plotted in the paper's Figure 3 (percent per year).
pub const FIGURE3_AFRS: [f64; 4] = [8.76, 2.92, 4.38, 0.88];

impl Fig3Result {
    /// Renders the figure as a table (disk count × AFR → replacements per
    /// week).
    pub fn to_table(&self) -> TextTable {
        let mut headers: Vec<String> = vec!["Disks".to_string()];
        for s in &self.series {
            headers.push(format!("{} sim", s.label));
            headers.push(format!("{} analytic", s.label));
        }
        let header_refs: Vec<&str> = headers.iter().map(std::string::String::as_str).collect();
        let mut t = TextTable::new(
            "Figure 3. Average number of disks that need to be replaced per week",
            &header_refs,
        );
        if let Some(first) = self.series.first() {
            for (i, point) in first.points.iter().enumerate() {
                let mut row = vec![point.disks.to_string()];
                for series in &self.series {
                    row.push(fmt_ci(&series.points[i].simulated_per_week, 2));
                    row.push(format!("{:.2}", series.points[i].analytic_per_week));
                }
                t.add_row(&row);
            }
        }
        t
    }
}

/// Runs the Figure 3 experiment under the given run spec.
///
/// `disk_counts` defaults to the paper's 480…4800 sweep when empty.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn figure3_disk_replacements_with(
    disk_counts: &[u32],
    spec: &RunSpec,
) -> Result<Fig3Result, CfsError> {
    spec.validate()?;
    let horizon_hours = spec.horizon_hours();
    let counts: Vec<u32> =
        if disk_counts.is_empty() { figure3_disk_counts() } else { disk_counts.to_vec() };

    let replications = spec.replication_policy()?;
    let mut series = Vec::new();
    let mut replications_used = 0usize;
    let mut truncated = false;
    for (series_idx, &afr) in FIGURE3_AFRS.iter().enumerate() {
        let disk = DiskModel { capacity_gb: 250.0, ..DiskModel::with_afr(afr, 0.7)? };
        let mut points = Vec::new();
        for (count_idx, &disks) in counts.iter().enumerate() {
            if disks == 0 || disks % 10 != 0 {
                return Err(CfsError::InvalidConfig {
                    reason: format!(
                        "disk count {disks} must be a positive multiple of the 10-disk tier size"
                    ),
                });
            }
            let tiers = disks / 10;
            let storage =
                StorageConfig { tiers, ddn_units: 1, disk, ..StorageConfig::abe_scratch() };
            let simulator = StorageSimulator::new(storage)?;
            let summary = simulator.run_with(
                horizon_hours,
                replications,
                spec.base_seed().wrapping_add((series_idx * 100 + count_idx) as u64),
                spec.confidence_level(),
                spec.workers(),
            )?;
            replications_used = replications_used.max(summary.replications);
            truncated |= summary.truncated;
            let analytic = expected_replacements_per_week(disks, &disk, horizon_hours)?;
            points.push(Fig3Point {
                disks,
                simulated_per_week: summary.replacements_per_week,
                analytic_per_week: analytic,
            });
        }
        series.push(Fig3Series { label: format!("(0.7,{afr},8+2,4)"), afr_percent: afr, points });
    }
    Ok(Fig3Result { series, horizon_hours, replications: replications_used, truncated })
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
    fn rejects_invalid_disk_counts() {
        assert!(figure3_disk_replacements_with(&[0], &spec(4, 1)).is_err());
        assert!(figure3_disk_replacements_with(&[487], &spec(4, 1)).is_err());
    }

    #[test]
    fn abe_point_matches_the_observed_replacement_rate() {
        // 480 disks at AFR 2.92 % should give the paper's 0–2 replacements
        // per week.
        let result = figure3_disk_replacements_with(&[480], &spec(8, 5)).unwrap();
        let abe_series =
            result.series.iter().find(|s| (s.afr_percent - 2.92).abs() < 1e-9).unwrap();
        let point = &abe_series.points[0];
        assert!(
            point.simulated_per_week.point > 0.2 && point.simulated_per_week.point < 3.0,
            "simulated {}",
            point.simulated_per_week.point
        );
        assert!((point.analytic_per_week - point.simulated_per_week.point).abs() < 1.0);
    }

    #[test]
    fn replacements_grow_with_disks_and_afr() {
        let result = figure3_disk_replacements_with(&[480, 2400], &spec(8, 9)).unwrap();
        for series in &result.series {
            assert!(
                series.points[1].simulated_per_week.point
                    > series.points[0].simulated_per_week.point
            );
            assert!(series.points[1].analytic_per_week > series.points[0].analytic_per_week);
        }
        // Higher AFR → more replacements at the same scale.
        let worst = result.series.iter().find(|s| s.afr_percent == 8.76).unwrap();
        let best = result.series.iter().find(|s| s.afr_percent == 0.88).unwrap();
        assert!(
            worst.points[1].simulated_per_week.point
                > best.points[1].simulated_per_week.point * 3.0
        );

        let table = result.to_table();
        assert_eq!(table.len(), 2);
        assert!(table.render().contains("(0.7,8.76,8+2,4)"));
    }
}

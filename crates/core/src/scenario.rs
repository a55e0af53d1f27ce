//! [`Scenario`]: the uniform evaluation interface every paper artefact —
//! Tables 1–5, Figures 2–4, the four ablations, and raw
//! [`ClusterConfig`] evaluation — implements.
//!
//! A scenario turns a [`RunSpec`] into a [`ScenarioOutput`]: one or more
//! presentation tables plus a flat list of named [`Metric`]s. That single
//! shape is what lets a [`crate::study::Study`] execute any mix of
//! workloads through one entry point and render them through one
//! [`crate::report::Report`] sink, instead of the bespoke
//! driver-per-artefact functions the crate started with.

use serde::{Deserialize, Serialize};

use probdist::stats::ConfidenceInterval;

use crate::analysis::evaluate;
use crate::config::ClusterConfig;
use crate::experiments::ablations::{
    ablation_correlation_with, ablation_raid_parity_with, ablation_repair_time_with,
    ablation_spare_oss_with, AblationResult,
};
use crate::experiments::fig2::figure2_storage_availability_with;
use crate::experiments::fig3::figure3_disk_replacements_with;
use crate::experiments::fig4::figure4_cfs_availability_with;
use crate::experiments::tables::{
    table1_outages, table2_mount_failures, table3_jobs, table4_disk_failures, table5_parameters,
};
use crate::params::ModelParameters;
use crate::report::TextTable;
use crate::run::RunSpec;
use crate::CfsError;

/// One named result value of a scenario, with an optional confidence
/// half-width for Monte-Carlo estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The metric's name, e.g. `"cfs_availability"`.
    pub name: String,
    /// The point estimate.
    pub value: f64,
    /// Confidence half-width, when the value is a replicated estimate.
    pub half_width: Option<f64>,
}

/// The uniform result of evaluating one scenario: presentation tables plus
/// machine-readable headline metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioOutput {
    /// Name of the scenario that produced this output.
    pub scenario: String,
    /// Rendered tables, mirroring the paper's presentation.
    pub tables: Vec<TextTable>,
    /// Headline metrics in a flat, machine-readable form.
    pub metrics: Vec<Metric>,
    /// Monte-Carlo replications actually executed (the maximum across the
    /// scenario's evaluation points), recorded so adaptive
    /// precision-targeted runs surface how much work the stopping rule
    /// spent. `None` for purely analytic scenarios.
    pub replications_used: Option<u64>,
    /// Whether a run deadline expired before the full replication budget
    /// was spent: the statistics are valid but cover only the contiguous
    /// prefix of replications that completed (see
    /// [`RunSpec::with_deadline`]).
    pub truncated: bool,
    /// Wall-clock seconds the scenario took to evaluate, attached by
    /// [`crate::study::Study::run`]. `None` for outputs built outside a
    /// study. Nondeterministic by nature — strip it with
    /// [`ScenarioOutput::without_wall_clock`] before comparing outputs of
    /// separate runs bit for bit.
    pub elapsed_seconds: Option<f64>,
}

impl ScenarioOutput {
    /// Creates an empty output for the named scenario.
    pub fn new(scenario: impl Into<String>) -> Self {
        ScenarioOutput {
            scenario: scenario.into(),
            tables: Vec::new(),
            metrics: Vec::new(),
            replications_used: None,
            truncated: false,
            elapsed_seconds: None,
        }
    }

    /// Records the number of replications actually executed.
    pub fn with_replications_used(mut self, replications: usize) -> Self {
        self.replications_used = Some(replications as u64);
        self
    }

    /// Marks whether a deadline truncated the scenario's replication
    /// budget.
    pub fn with_truncated(mut self, truncated: bool) -> Self {
        self.truncated = truncated;
        self
    }

    /// Records the wall-clock seconds the evaluation took.
    pub fn with_elapsed_seconds(mut self, seconds: f64) -> Self {
        self.elapsed_seconds = Some(seconds);
        self
    }

    /// Drops the wall-clock timing, leaving only the deterministic
    /// statistics — outputs of two runs with the same seed and count then
    /// compare equal even though their timings differ.
    pub fn without_wall_clock(mut self) -> Self {
        self.elapsed_seconds = None;
        self
    }

    /// Appends a presentation table.
    pub fn with_table(mut self, table: TextTable) -> Self {
        self.tables.push(table);
        self
    }

    /// Appends a point metric.
    pub fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric { name: name.into(), value, half_width: None });
        self
    }

    /// Appends a metric carrying a confidence interval.
    pub fn with_metric_ci(
        mut self,
        name: impl Into<String>,
        interval: &ConfidenceInterval,
    ) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: interval.point,
            half_width: Some(interval.half_width),
        });
        self
    }

    /// Looks up a metric's point value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A named, uniformly-evaluable workload: the single interface through
/// which every paper artefact (and any new workload) is executed.
///
/// Implementations must be [`Send`] + [`Sync`] so a
/// [`crate::study::Study`] can evaluate scenarios from worker threads.
pub trait Scenario: Send + Sync {
    /// A stable, human-readable scenario name (used for report sections and
    /// result lookup).
    fn name(&self) -> &str;

    /// Evaluates the scenario under the given run spec.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] for an invalid spec or
    /// configuration and propagates simulation errors.
    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError>;
}

/// Raw cluster evaluation: any [`ClusterConfig`] is itself a scenario whose
/// output is its [`crate::analysis::ClusterDependability`] measures.
impl Scenario for ClusterConfig {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let result = evaluate(self, spec)?;
        let mut table = TextTable::new(
            format!("Cluster dependability: {}", self.name),
            &["Measure", "Estimate", "±", "Level"],
        );
        for (label, interval) in [
            ("CFS availability", &result.cfs_availability),
            ("Storage availability", &result.storage_availability),
            ("Cluster utility (CU)", &result.cluster_utility),
            ("Disk replacements/week", &result.disk_replacements_per_week),
            ("Mean OSS pairs down", &result.mean_oss_pairs_down),
        ] {
            table.add_row(&[
                label.to_string(),
                format!("{:.5}", interval.point),
                format!("{:.5}", interval.half_width),
                format!("{:.0}%", interval.level * 100.0),
            ]);
        }
        Ok(ScenarioOutput::new(&self.name)
            .with_table(table)
            .with_replications_used(result.replications)
            .with_truncated(result.truncated)
            .with_metric_ci("cfs_availability", &result.cfs_availability)
            .with_metric_ci("storage_availability", &result.storage_availability)
            .with_metric_ci("cluster_utility", &result.cluster_utility)
            .with_metric_ci("disk_replacements_per_week", &result.disk_replacements_per_week)
            .with_metric_ci("mean_oss_pairs_down", &result.mean_oss_pairs_down))
    }
}

/// Table 1: user-visible Lustre-FS outages and the SAN availability they
/// imply.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1Outages;

impl Scenario for Table1Outages {
    fn name(&self) -> &str {
        "table1_outages"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let result = table1_outages(spec.base_seed())?;
        Ok(ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_metric("san_availability", result.availability)
            .with_metric("outages", result.analysis.rows().len() as f64))
    }
}

/// Table 2: Lustre mount failures reported by compute nodes, per day.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table2MountFailures;

impl Scenario for Table2MountFailures {
    fn name(&self) -> &str {
        "table2_mount_failures"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let result = table2_mount_failures(spec.base_seed())?;
        Ok(ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_metric("storm_days", result.analysis.days().len() as f64)
            .with_metric("peak_day_nodes", result.analysis.peak_day_nodes() as f64))
    }
}

/// Table 3: job execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table3Jobs;

impl Scenario for Table3Jobs {
    fn name(&self) -> &str {
        "table3_jobs"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let result = table3_jobs(spec.base_seed())?;
        Ok(ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_metric("total_jobs", result.analysis.total_jobs as f64)
            .with_metric("transient_to_other_ratio", result.analysis.transient_to_other_ratio())
            .with_metric("jobs_per_hour", result.analysis.jobs_per_hour()))
    }
}

/// Table 4: disk failures and their Weibull survival analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table4DiskWeibull;

impl Scenario for Table4DiskWeibull {
    fn name(&self) -> &str {
        "table4_disk_weibull"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let result = table4_disk_failures(spec.base_seed())?;
        Ok(ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_metric("weibull_shape", result.weibull.shape)
            .with_metric("weibull_shape_std_error", result.weibull.shape_std_error)
            .with_metric("mean_replacements_per_week", result.mean_per_week))
    }
}

/// Table 5: the simulation model parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table5Parameters;

impl Scenario for Table5Parameters {
    fn name(&self) -> &str {
        "table5_parameters"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let table = table5_parameters(&ModelParameters::abe());
        let parameters = table.len() as f64;
        Ok(ScenarioOutput::new(self.name()).with_table(table).with_metric("parameters", parameters))
    }
}

/// Figure 2: storage availability versus scale for the paper's
/// configuration tuples. An empty `capacities_tb` runs the paper's
/// 96 TB → 12 PB sweep.
#[derive(Debug, Clone, Default)]
pub struct Figure2StorageAvailability {
    /// Capacity sweep override, terabytes.
    pub capacities_tb: Vec<f64>,
}

impl Scenario for Figure2StorageAvailability {
    fn name(&self) -> &str {
        "figure2_storage_availability"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let result = figure2_storage_availability_with(&self.capacities_tb, spec)?;
        let mut output = ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_replications_used(result.replications)
            .with_truncated(result.truncated);
        for series in &result.series {
            // Both sweep endpoints: the small end is the ABE validation
            // point, the large end is the petascale claim.
            let endpoints = [series.points.first(), series.points.last()];
            let mut seen_tb = None;
            for point in endpoints.into_iter().flatten() {
                if seen_tb == Some(point.capacity_tb) {
                    continue;
                }
                seen_tb = Some(point.capacity_tb);
                let at = format!("{} @{:.0}TB", series.label, point.capacity_tb);
                output = output
                    .with_metric_ci(format!("availability {at}"), &point.availability)
                    .with_metric(format!("prob_any_data_loss {at}"), point.prob_any_data_loss);
            }
        }
        Ok(output)
    }
}

/// Figure 3: disk replacements per week versus scale. An empty
/// `disk_counts` runs the paper's 480 → 4800 sweep.
#[derive(Debug, Clone, Default)]
pub struct Figure3DiskReplacements {
    /// Disk-count sweep override.
    pub disk_counts: Vec<u32>,
}

impl Scenario for Figure3DiskReplacements {
    fn name(&self) -> &str {
        "figure3_disk_replacements"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let result = figure3_disk_replacements_with(&self.disk_counts, spec)?;
        let mut output = ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_replications_used(result.replications)
            .with_truncated(result.truncated);
        for series in &result.series {
            // Both sweep endpoints: the 480-disk end is the paper's ABE
            // 0–2/week claim, the top end is the scaling cost argument.
            let endpoints = [series.points.first(), series.points.last()];
            let mut seen_disks = None;
            for point in endpoints.into_iter().flatten() {
                if seen_disks == Some(point.disks) {
                    continue;
                }
                seen_disks = Some(point.disks);
                let at = format!("{} @{} disks", series.label, point.disks);
                output = output
                    .with_metric_ci(
                        format!("replacements_per_week {at}"),
                        &point.simulated_per_week,
                    )
                    .with_metric(format!("analytic_per_week {at}"), point.analytic_per_week);
            }
        }
        Ok(output)
    }
}

/// Figure 4: CFS availability and cluster utility as the ABE design scales
/// to a petaflop–petabyte system. An empty `capacities_tb` runs the default
/// five-point sweep.
#[derive(Debug, Clone, Default)]
pub struct Figure4CfsAvailability {
    /// Capacity sweep override, terabytes.
    pub capacities_tb: Vec<f64>,
}

impl Scenario for Figure4CfsAvailability {
    fn name(&self) -> &str {
        "figure4_cfs_availability"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let result = figure4_cfs_availability_with(&self.capacities_tb, spec)?;
        let mut output = ScenarioOutput::new(self.name())
            .with_table(result.to_table())
            .with_replications_used(result.replications)
            .with_truncated(result.truncated);
        if let (Some(first), Some(last)) = (result.points.first(), result.points.last()) {
            output = output
                .with_metric_ci("cfs_availability_first", &first.cfs_availability)
                .with_metric_ci("cfs_availability_last", &last.cfs_availability)
                .with_metric_ci("cluster_utility_last", &last.cluster_utility)
                .with_metric(
                    "spare_oss_gain_last",
                    last.cfs_availability_spare_oss.point - last.cfs_availability.point,
                );
        }
        Ok(output)
    }
}

/// Converts an [`AblationResult`] into the uniform scenario output shape.
fn ablation_output(name: &str, result: &AblationResult) -> ScenarioOutput {
    let mut output = ScenarioOutput::new(name)
        .with_table(result.to_table())
        .with_replications_used(result.replications)
        .with_truncated(result.truncated);
    for point in &result.points {
        output =
            output.with_metric_ci(format!("availability {}", point.label), &point.availability);
        if let Some((label, value)) = &point.secondary {
            output = output.with_metric(format!("{label} {}", point.label), *value);
        }
    }
    output
}

/// Ablation: RAID parity width (8+1 / 8+2 / 8+3) at petascale.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaidParityAblation;

impl Scenario for RaidParityAblation {
    fn name(&self) -> &str {
        "ablation_raid_parity"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        Ok(ablation_output(self.name(), &ablation_raid_parity_with(spec)?))
    }
}

/// Ablation: disk replacement time (1 h / 4 h / 12 h) at petascale.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairTimeAblation;

impl Scenario for RepairTimeAblation {
    fn name(&self) -> &str {
        "ablation_repair_time"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        Ok(ablation_output(self.name(), &ablation_repair_time_with(spec)?))
    }
}

/// Ablation: standby spare OSS on/off at petascale.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpareOssAblation;

impl Scenario for SpareOssAblation {
    fn name(&self) -> &str {
        "ablation_spare_oss"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        Ok(ablation_output(self.name(), &ablation_spare_oss_with(spec)?))
    }
}

/// Ablation: correlated-failure propagation probability at petascale.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrelationAblation;

impl Scenario for CorrelationAblation {
    fn name(&self) -> &str {
        "ablation_correlation"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        Ok(ablation_output(self.name(), &ablation_correlation_with(spec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> RunSpec {
        RunSpec::new().with_horizon_hours(2000.0).with_replications(4).with_base_seed(3)
    }

    #[test]
    fn cluster_config_is_a_scenario() {
        let abe = ClusterConfig::abe();
        assert_eq!(Scenario::name(&abe), "ABE");
        let output = Scenario::evaluate(&abe, &quick_spec()).unwrap();
        assert_eq!(output.scenario, "ABE");
        assert_eq!(output.tables.len(), 1);
        let availability = output.metric("cfs_availability").unwrap();
        assert!(availability > 0.8 && availability <= 1.0);
        assert!(output.metric("nonexistent").is_none());
        // CI-carrying metrics report their half-width.
        assert!(output.metrics.iter().any(|m| m.half_width.is_some()));
    }

    #[test]
    fn table_scenarios_produce_tables_and_metrics() {
        let spec = quick_spec();
        let scenarios: Vec<Box<dyn Scenario>> = vec![
            Box::new(Table1Outages),
            Box::new(Table2MountFailures),
            Box::new(Table3Jobs),
            Box::new(Table4DiskWeibull),
            Box::new(Table5Parameters),
        ];
        for scenario in &scenarios {
            let output = scenario.evaluate(&spec).unwrap();
            assert_eq!(output.scenario, scenario.name());
            assert!(!output.tables.is_empty(), "{}", scenario.name());
            assert!(!output.metrics.is_empty(), "{}", scenario.name());
        }
    }

    #[test]
    fn sweep_scenarios_honour_overrides() {
        let spec = quick_spec();
        let fig2 = Figure2StorageAvailability { capacities_tb: vec![96.0] };
        let output = fig2.evaluate(&spec).unwrap();
        // One availability metric and one data-loss metric per series.
        assert_eq!(output.metrics.len(), 10);
        assert!(output.metrics.iter().all(|m| m.name.contains("8+")));

        let fig3 = Figure3DiskReplacements { disk_counts: vec![480] };
        let output = fig3.evaluate(&spec).unwrap();
        assert_eq!(output.metrics.len(), 8);

        let fig4 = Figure4CfsAvailability { capacities_tb: vec![96.0] };
        let output = fig4.evaluate(&spec).unwrap();
        assert!(output.metric("cfs_availability_first").is_some());
    }

    #[test]
    fn scenario_outputs_serialise_to_json() {
        let output = Table5Parameters.evaluate(&quick_spec()).unwrap();
        let json = serde::to_json(&output);
        assert!(json.contains("\"scenario\":\"table5_parameters\""));
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"tables\""));
    }

    #[test]
    fn invalid_specs_are_rejected_by_every_scenario() {
        let bad = RunSpec::new().with_replications(1);
        assert!(Table1Outages.evaluate(&bad).is_err());
        assert!(Figure2StorageAvailability::default().evaluate(&bad).is_err());
        assert!(RaidParityAblation.evaluate(&bad).is_err());
        assert!(Scenario::evaluate(&ClusterConfig::abe(), &bad).is_err());
    }
}

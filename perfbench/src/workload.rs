//! The three workloads: what each runs through `cfs_model::Study`, how it
//! is set up, and how its outputs are checked.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cfs_model::{
    BeowulfPerformabilitySweep, CfsError, ClusterConfig, FailurePolicy, RareEventPolicy,
    ReplicationVsRaid, Report, RunSpec, Scenario, Study, TelemetrySnapshot, UltraReliableSweep,
};

use crate::checks::{self, Tally};
use crate::trace::{self, SpanLog, Traced};

/// Worker threads of every measured run. Fixed at two, so that a run on a
/// bigger machine splits the same work the same way.
pub const WORKERS: usize = 2;

/// Directory, relative to the checkout root, for checkpoint and span files.
pub const OUT_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Study::paper_artefacts()` to a 1 % precision target.
    PaperRegen,
    /// The three design-space sweep families, each to its own target.
    DesignSweeps,
    /// ABE and petascale cluster models with a checkpoint file.
    ClusterCheckpointed,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PaperRegen, Workload::DesignSweeps, Workload::ClusterCheckpointed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRegen => "paper_regen",
            Workload::DesignSweeps => "design_sweeps",
            Workload::ClusterCheckpointed => "cluster_checkpointed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `Study::run` of a workload: a name and the spec it runs under.
#[derive(Debug, Clone)]
pub struct Job {
    pub name: &'static str,
    pub spec: RunSpec,
}

/// Everything a workload needs before its first `Study::run`.
pub struct Setup {
    workload: Workload,
    pub jobs: Vec<Job>,
    studies: Vec<Study>,
    /// The sweep whose base configuration the Beowulf exact check needs.
    beowulf: BeowulfPerformabilitySweep,
    pub checkpoint: Option<PathBuf>,
}

/// The jobs of a workload; `tiny` selects the smoke-test sizes.
fn jobs(workload: Workload, seed: u64, tiny: bool, checkpoint: Option<&Path>) -> Vec<Job> {
    let base = RunSpec::new()
        .with_workers(WORKERS)
        .with_base_seed(seed)
        .with_failure_policy(FailurePolicy::ContinueAndReport);
    match workload {
        Workload::PaperRegen => {
            let (target, min, max) = if tiny { (0.5, 4, 8) } else { (0.01, 32, 2048) };
            vec![Job {
                name: "paper_artefacts",
                spec: base.with_precision_target(target, min, max),
            }]
        }
        Workload::DesignSweeps => {
            // Each family gets the target that gives it a visible share
            // of the run: about a third each on a 2-core x86-64 machine.
            let splitting = base
                .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 256 });
            // (job, relative half-width, min, max). The tiny Beowulf size
            // keeps 32 replications: with fewer, a point can see no head
            // failure at all and report a degenerate 1 ± 0.
            let targets: [(&str, f64, usize, usize); 3] = if tiny {
                [
                    ("replication_vs_raid", 0.5, 4, 8),
                    ("beowulf_performability", 0.5, 32, 32),
                    ("ultra_reliable_sweep", 0.5, 4, 8),
                ]
            } else {
                [
                    ("replication_vs_raid", 0.01, 32, 2048),
                    ("beowulf_performability", 0.001, 32, 16_384),
                    ("ultra_reliable_sweep", 0.1, 32, 16_384),
                ]
            };
            targets
                .into_iter()
                .map(|(name, target, min, max)| Job {
                    name,
                    spec: splitting.clone().with_precision_target(target, min, max),
                })
                .collect()
        }
        Workload::ClusterCheckpointed => {
            let path = checkpoint.expect("the cluster workload has a checkpoint path");
            // Every write reloads and re-parses the whole file, so a write
            // every 8 replications makes checkpoint I/O most of the run.
            let (replications, every) = if tiny { (8, 4) } else { (128, 8) };
            let spec =
                base.with_replications(replications).with_checkpoint(path.to_string_lossy(), every);
            // One study run per model, both into the same file: the ABE
            // writes re-serialise the finished petascale entry. Two
            // scenarios of one study would write it concurrently, and the
            // bytes written would then depend on scheduling (see README,
            // "Known defect not exercised here").
            ["petascale", "abe"].map(|name| Job { name, spec: spec.clone() }).to_vec()
        }
    }
}

/// The layer that does a scenario's work, for the span attribution.
fn layer_of(scenario: &str) -> &'static str {
    match scenario {
        s if s.starts_with("table") => "faultlog",
        "figure2_storage_availability"
        | "figure3_disk_replacements"
        | "ablation_raid_parity"
        | "ablation_repair_time"
        | "replication_vs_raid" => "raidsim",
        "ultra_reliable_sweep" => "rare",
        _ => "sanet",
    }
}

fn scenarios(workload: Workload, job: &str) -> Vec<Box<dyn Scenario>> {
    use cfs_model::scenario::*;
    match (workload, job) {
        (Workload::PaperRegen, _) => vec![
            Box::new(Table1Outages),
            Box::new(Table2MountFailures),
            Box::new(Table3Jobs),
            Box::new(Table4DiskWeibull),
            Box::new(Table5Parameters),
            Box::new(Figure2StorageAvailability::default()),
            Box::new(Figure3DiskReplacements::default()),
            Box::new(Figure4CfsAvailability::default()),
            Box::new(RaidParityAblation),
            Box::new(RepairTimeAblation),
            Box::new(SpareOssAblation),
            Box::new(CorrelationAblation),
        ],
        (Workload::DesignSweeps, "replication_vs_raid") => {
            vec![Box::new(ReplicationVsRaid::default())]
        }
        (Workload::DesignSweeps, "beowulf_performability") => {
            vec![Box::new(BeowulfPerformabilitySweep::default())]
        }
        (Workload::DesignSweeps, _) => vec![Box::new(UltraReliableSweep::default())],
        (Workload::ClusterCheckpointed, "petascale") => vec![Box::new(ClusterConfig::petascale())],
        (Workload::ClusterCheckpointed, _) => vec![Box::new(ClusterConfig::abe())],
    }
}

/// The study of one job; with a span log, every scenario is wrapped so its
/// evaluation is recorded.
fn study(workload: Workload, job: &str, log: Option<&Arc<SpanLog>>) -> Study {
    let mut study = Study::new();
    for scenario in scenarios(workload, job) {
        match log {
            Some(log) => {
                let layer = layer_of(scenario.name());
                study.add(Traced::boxed(scenario, layer, log))
            }
            None => study.add(scenario),
        };
    }
    study
}

impl Setup {
    /// The set-up a user pays before the first `Study::run`: pool
    /// spin-up, the scenarios, configs and specs, and removing a stale
    /// checkpoint file.
    pub fn new(workload: Workload, seed: u64, tiny: bool) -> Setup {
        probdist::parallel::Pool::global(WORKERS);
        let checkpoint = (workload == Workload::ClusterCheckpointed)
            .then(|| Path::new(OUT_DIR).join(format!("{}.ckpt.json", workload.name())));
        if let Some(path) = &checkpoint {
            let _ = std::fs::remove_file(path);
        }
        let jobs = jobs(workload, seed, tiny, checkpoint.as_deref());
        let studies = jobs.iter().map(|job| study(workload, job.name, None)).collect();
        Setup {
            workload,
            jobs,
            studies,
            beowulf: BeowulfPerformabilitySweep::default(),
            checkpoint,
        }
    }

    /// Runs every job once, untraced, returning the pass.
    pub fn pass(&self) -> Pass {
        run_pass(&self.jobs, &self.studies, None)
    }

    /// Runs every job once with scenario spans and telemetry recorded.
    /// `workers` overrides the jobs' worker count (the efficiency arm);
    /// `checkpoint: false` drops the checkpoint (the overhead arm).
    pub fn traced_pass(&self, log: &Arc<SpanLog>, workers: usize, checkpoint: bool) -> Pass {
        let jobs: Vec<Job> = self
            .jobs
            .iter()
            .map(|job| {
                let spec = job.spec.clone().with_workers(workers);
                let spec = if checkpoint { spec } else { spec.without_checkpoint() };
                Job { name: job.name, spec }
            })
            .collect();
        let studies: Vec<Study> =
            jobs.iter().map(|job| study(self.workload, job.name, Some(log))).collect();
        run_pass(&jobs, &studies, Some(log))
    }

    /// Checks a pass's outputs, one operation per scenario or sweep point.
    pub fn check(&self, pass: &Pass, tally: &mut Tally) {
        for (job, report) in self.jobs.iter().zip(&pass.reports) {
            let names: Vec<String> =
                scenarios(self.workload, job.name).iter().map(|s| s.name().to_string()).collect();
            let report = match report {
                Ok(report) => report,
                Err(error) => {
                    for name in &names {
                        tally.op(name, Some(format!("study failed: {error}")));
                    }
                    continue;
                }
            };
            for name in &names {
                if let Some(problem) = checks::scenario_problem(report, name) {
                    tally.op(name, Some(problem));
                    continue;
                }
                let output = report.output(name).expect("a scenario without a problem reported");
                let horizon = job.spec.horizon_hours();
                match name.as_str() {
                    "figure3_disk_replacements" => tally.op(name, checks::figure3(output)),
                    "replication_vs_raid" => checks::replication_vs_raid(output, horizon, tally),
                    "beowulf_performability" => {
                        checks::beowulf(output, &self.beowulf.base, horizon, tally)
                    }
                    "ultra_reliable_sweep" => checks::ultra_reliable(output, tally),
                    _ => tally.op(name, None),
                }
            }
        }
    }

    /// The checkpoint round trip: a second run on the finished file must
    /// serve every replication from the checkpoint and render the same
    /// report bytes (wall clock stripped) as the run that wrote it.
    pub fn check_resume(&self, written: &Pass, tally: &mut Tally) {
        for ((job, study), report) in self.jobs.iter().zip(&self.studies).zip(&written.reports) {
            let problem = (|| -> Result<Option<String>, String> {
                let report = report.as_ref().map_err(ToString::to_string)?;
                let (resumed, snapshot) = trace::with_telemetry(|| study.run(&job.spec));
                let resumed = resumed.map_err(|e| e.to_string())?;
                let expected: u64 = report.outputs.iter().filter_map(|o| o.replications_used).sum();
                let hits = trace::value(&snapshot, "checkpoint_resume_hits_total") as u64;
                if hits != expected {
                    return Ok(Some(format!("{hits} of {expected} replications resumed")));
                }
                let (a, b) = (stripped(report), stripped(&resumed));
                Ok((a != b).then(|| "resumed report differs from the written one".into()))
            })()
            .unwrap_or_else(Some);
            tally.op(&format!("{} checkpoint resume", job.name), problem);
        }
    }
}

/// A report rendered with its wall-clock artefacts removed: equal for two
/// runs of the same code, seed and replication count.
pub fn stripped(report: &Report) -> String {
    let mut report = report.clone().without_wall_clock();
    // The worker count is the one spec field that may differ between the
    // compared runs without changing a single statistic.
    report.spec = report.spec.with_workers(WORKERS);
    report.to_json()
}

/// One run of every job of a workload.
pub struct Pass {
    /// Seconds from each `Study::run` call through rendering its report to
    /// JSON, summed over the jobs.
    pub wall_s: f64,
    /// The JSON rendering's share of `wall_s`.
    pub render_s: f64,
    pub job_walls: Vec<f64>,
    pub reports: Vec<Result<Report, CfsError>>,
    /// Per-job telemetry deltas (traced passes only).
    pub telemetry: Vec<TelemetrySnapshot>,
    /// Id of each job's study-run span (traced passes only).
    pub run_spans: Vec<u64>,
}

fn run_pass(jobs: &[Job], studies: &[Study], log: Option<&Arc<SpanLog>>) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        render_s: 0.0,
        job_walls: Vec::new(),
        reports: Vec::new(),
        telemetry: Vec::new(),
        run_spans: Vec::new(),
    };
    // Each pass writes a fresh checkpoint file, which its jobs share.
    for policy in jobs.iter().filter_map(|job| job.spec.checkpoint()) {
        let _ = std::fs::remove_file(&policy.path);
    }
    for (job, study) in jobs.iter().zip(studies) {
        let timed = || {
            let start = Instant::now();
            let report = study.run(&job.spec);
            let rendered = Instant::now();
            if let Ok(report) = &report {
                std::hint::black_box(report.to_json());
            }
            (report, start.elapsed().as_secs_f64(), rendered.elapsed().as_secs_f64())
        };
        let (report, wall, render) = match log {
            None => timed(),
            Some(log) => {
                let cursor = log.cursor();
                let ((result, snapshot), _) =
                    log.study_run(job.name, || trace::with_telemetry(timed));
                pass.telemetry.push(snapshot);
                pass.run_spans.push(cursor);
                result
            }
        };
        pass.wall_s += wall;
        pass.render_s += render;
        pass.job_walls.push(wall);
        pass.reports.push(report);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_regen_runs_the_paper_artefacts() {
        let names: Vec<String> = scenarios(Workload::PaperRegen, "paper_artefacts")
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(names, Study::paper_artefacts().names());
    }
}

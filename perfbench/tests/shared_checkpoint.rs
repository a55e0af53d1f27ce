//! The program defect that the `cluster_checkpointed` workload does not
//! exercise: two checkpointed scenarios of one study share a file, and
//! `checkpoint_bytes_written_total`, tagged deterministic, then depends on
//! how their writes interleave. This test fails until the program is fixed
//! (README, "Known defect not exercised here").

use std::path::PathBuf;

use cfs_model::{ClusterConfig, RunSpec, Study, TelemetrySnapshot};

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> (f64, String) {
    let sample = snapshot.get(name).expect("the counter is registered");
    (sample.value, sample.determinism.clone())
}

/// Checkpoint bytes written by one run of a petascale + ABE study.
fn bytes_written(workers: usize) -> (f64, String) {
    let path: PathBuf =
        [env!("CARGO_TARGET_TMPDIR"), &format!("shared-{workers}.ckpt.json")].iter().collect();
    let _ = std::fs::remove_file(&path);
    // Petascale first: at 2 workers the fast ABE scenario writes while the
    // petascale entry is still partial; at 1 worker it carries all of it.
    let mut study = Study::new();
    study.add(Box::new(ClusterConfig::petascale()));
    study.add(Box::new(ClusterConfig::abe()));
    let spec = RunSpec::new()
        .with_workers(workers)
        .with_base_seed(7)
        .with_replications(8)
        .with_checkpoint(path.to_string_lossy(), 4);
    let _guard = probdist::telemetry::enable_scoped();
    let baseline = probdist::telemetry::snapshot();
    study.run(&spec).expect("the study runs");
    let delta = probdist::telemetry::snapshot().delta_since(&baseline);
    let _ = std::fs::remove_file(&path);
    counter(&delta, "checkpoint_bytes_written_total")
}

#[test]
fn shared_checkpoint_bytes_repeat_across_worker_counts() {
    let (serial, tag) = bytes_written(1);
    let (parallel, _) = bytes_written(2);
    assert_eq!(tag, "deterministic");
    assert_eq!(
        serial, parallel,
        "checkpoint_bytes_written_total is tagged {tag} but differs between 1 and 2 workers"
    );
}

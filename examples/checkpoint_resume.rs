//! Checkpoint/resume and graceful degradation: run a study with a
//! checkpoint file, simulate a mid-run kill, resume bit-identically, and
//! show a deadline truncating a run to a valid prefix — for the cluster
//! model and for a storage design sweep.
//!
//! Run with `cargo run --release --example checkpoint_resume`.

use std::time::Duration;

use petascale_cfs::cfs_model::checkpoint;
use petascale_cfs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut path = std::env::temp_dir();
    path.push(format!("petascale-cfs-example-{}.ckpt.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let checkpoint_path = path.to_str().expect("temp path is valid UTF-8");

    // A spec that persists every 4 completed replications to a versioned,
    // checksummed checkpoint file.
    let spec = RunSpec::new()
        .with_horizon_hours(4380.0)
        .with_replications(16)
        .with_base_seed(42)
        .with_workers(4)
        .with_checkpoint(checkpoint_path, 4);

    // Simulate a run killed at k=10: same seed, smaller budget. The file
    // now holds the prefix an interrupted full run would have persisted.
    let killed = spec.clone().with_replications(10);
    Study::new().with(ClusterConfig::abe()).run(&killed)?;
    let stored = checkpoint::load(checkpoint_path)?;
    let key = checkpoint::entry_key("ABE", 42);
    println!(
        "after the simulated kill, the checkpoint holds {} replication(s)",
        stored.entry(&key).map_or(0, <[_]>::len)
    );

    // Resume the full 16-replication budget: the stored prefix is served
    // from the file (bit-identically — replication i is a pure function of
    // the base seed and i), only the remainder simulates.
    let resumed = Study::new().with(ClusterConfig::abe()).run(&spec)?.without_wall_clock();
    let fresh = Study::new()
        .with(ClusterConfig::abe())
        .run(&spec.clone().without_checkpoint())?
        .without_wall_clock();
    assert_eq!(resumed.outputs, fresh.outputs, "resume must be bit-identical");
    println!("resumed run matches an uninterrupted run bit for bit");

    // Graceful degradation: a deadline far too tight for 10 000
    // replications truncates the run to the completed prefix instead of
    // failing — the report flags it.
    let deadline_spec = RunSpec::new()
        .with_horizon_hours(8760.0)
        .with_replications(10_000)
        .with_base_seed(7)
        .with_workers(4)
        .with_deadline(Duration::from_millis(250))
        .with_failure_policy(FailurePolicy::ContinueAndReport);
    let report = Study::new().with(ClusterConfig::petascale()).run(&deadline_spec)?;
    for output in &report.outputs {
        println!(
            "{}: {} replication(s) before the deadline{}",
            output.scenario,
            output.replications_used.unwrap_or(0),
            if output.truncated { " (truncated)" } else { "" }
        );
    }
    for failure in &report.failures {
        println!("{}: {}", failure.scenario, failure.message);
    }

    // Every Monte-Carlo scenario honours the deadline, not only the
    // cluster models: a storage design sweep far too large for 50 ms stops
    // promptly and says so — truncated, or a recorded deadline failure.
    let sweep_spec =
        deadline_spec.clone().with_replications(2000).with_deadline(Duration::from_millis(50));
    let started = std::time::Instant::now();
    let report = Study::new().with(ReplicationVsRaid::default()).run(&sweep_spec)?;
    let elapsed = started.elapsed();
    let truncated = report.outputs.iter().any(|output| output.truncated);
    let starved =
        report.failures.iter().any(|failure| failure.message.contains("deadline expired"));
    assert!(truncated || starved, "the sweep must report the deadline it hit");
    assert!(elapsed < Duration::from_secs(2), "the sweep overran its deadline: {elapsed:?}");
    println!(
        "replication_vs_raid under a 50 ms deadline: {} after {:.3} s",
        if truncated { "truncated" } else { "deadline failure" },
        elapsed.as_secs_f64()
    );

    std::fs::remove_file(&path)?;
    Ok(())
}

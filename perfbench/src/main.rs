//! The benchmark of the petascale-cfs reproduction.
//!
//! ```text
//! bash perfbench/run.sh \
//!     --workload <paper_regen|design_sweeps|cluster_checkpointed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is the separate traced run that attributes a workload's time
//! to the layers. Both check the outputs and print, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Human-readable detail goes to standard error. `--tiny`
//! runs the smoke-test sizes. See `perfbench/README.md` for the metrics.

mod checks;
mod trace;
mod workload;

use std::io::BufRead;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use cfs_model::{ClusterConfig, RunSpec, Study};

use checks::Tally;
use trace::SpanLog;
use workload::{Pass, Setup, Workload, OUT_DIR, WORKERS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperRegen,
        seed: 2008,
        seconds: 10.0,
        trace: false,
        tiny: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload '{name}'; expected one of: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--tiny" => args.tiny = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        // A child of `setup_seconds`: set up, print the seconds since
        // `main` was entered, and exit before the first `Study::run`.
        std::hint::black_box(Setup::new(args.workload, args.seed, args.tiny));
        println!("{}", started.elapsed().as_secs_f64());
        return;
    }
    if let Err(message) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {message}");
        std::process::exit(1);
    }
    let (tally, metrics) = if args.trace { traced(&args) } else { measure(&args) };
    for message in &tally.messages {
        eprintln!("perfbench: CHECK FAILED: {message}");
    }
    println!("{}", result_line(&tally, &metrics));
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric without a value is 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median set-up time over several fresh processes, each timed by itself
/// from entering `main` to being ready to call `Study::run`. Pool spin-up
/// happens once per process, hence a fresh one per sample; timing inside
/// the child keeps the operating system's process creation out of it.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let probes = if args.tiny { 3 } else { 41 };
    let mut times = Vec::with_capacity(probes);
    for _ in 0..probes {
        let mut command = Command::new(&exe);
        command.args(["--setup-probe", "--workload", args.workload.name()]);
        command.args(["--seed", &args.seed.to_string()]);
        if args.tiny {
            command.arg("--tiny");
        }
        let mut child = command.stdout(Stdio::piped()).spawn().map_err(|e| e.to_string())?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        std::io::BufReader::new(stdout).read_line(&mut line).map_err(|e| e.to_string())?;
        let status = child.wait().map_err(|e| e.to_string())?;
        match line.trim().parse::<f64>() {
            Ok(seconds) if status.success() && seconds > 0.0 => times.push(seconds),
            _ => return Err(format!("set-up probe failed ({status}, said '{}')", line.trim())),
        }
    }
    Ok(median(&mut times))
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Checks that a pass's reports match those of the checked `reference`
/// pass byte for byte once the wall clock is stripped: same code and seed,
/// so they must, and the value checks then hold for this pass too.
fn check_repeat(setup: &Setup, pass: &Pass, reference: &Pass, tally: &mut Tally) {
    for (job, (a, b)) in setup.jobs.iter().zip(pass.reports.iter().zip(&reference.reports)) {
        let same = match (a, b) {
            (Ok(a), Ok(b)) => workload::stripped(a) == workload::stripped(b),
            _ => false,
        };
        tally.op(
            &format!("{} repeat", job.name),
            (!same).then(|| "report differs from the first run of the same seed".into()),
        );
    }
}

/// The end-to-end run: telemetry off, outputs checked.
fn measure(args: &Args) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let setup_s = setup_seconds(args).unwrap_or_else(|message| {
        tally.op("set-up", Some(message));
        f64::NAN
    });
    let setup = Setup::new(args.workload, args.seed, args.tiny);

    // A first, untimed pass with telemetry on counts the replication and
    // splitting work units (a count that repeats exactly) and warms up.
    let (first, snapshot) = trace::with_telemetry(|| setup.pass());
    let units = trace::value(&snapshot, "replications_completed_total");
    setup.check(&first, &mut tally);

    let started = Instant::now();
    let mut walls = Vec::new();
    // Another pass only while it is expected to end within `--seconds`.
    let last = loop {
        let pass = setup.pass();
        walls.push(pass.wall_s);
        check_repeat(&setup, &pass, &first, &mut tally);
        if started.elapsed().as_secs_f64() + pass.wall_s > args.seconds {
            break pass;
        }
    };
    if setup.checkpoint.is_some() {
        setup.check_resume(&last, &mut tally);
    }
    let passes = walls.len();
    eprintln!("perfbench: timed pass walls (s) {walls:?}");
    let wall_s = median(&mut walls);
    eprintln!(
        "perfbench: {} seed {}: wall_s {wall_s:.4} (median of {passes}), {units} work units",
        args.workload.name(),
        args.seed
    );
    for ((job, wall), report) in setup.jobs.iter().zip(&last.job_walls).zip(&last.reports) {
        let used: Vec<u64> =
            report.iter().flat_map(|r| &r.outputs).filter_map(|o| o.replications_used).collect();
        eprintln!("perfbench:   {:<24} {wall:.4} s, replications used {used:?}", job.name);
    }
    let succeeded = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        ("wall_s", wall_s, "s"),
        ("replications_per_s", units / wall_s, "1/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("succeeded_share", succeeded, "ratio"),
    ];
    (tally, metrics)
}

/// Sum of a metric over a pass's per-job telemetry.
fn total(pass: &Pass, name: &str) -> f64 {
    pass.telemetry.iter().map(|s| trace::value(s, name)).sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced run: per-layer counts, isolated layer timings, span
/// attribution, and the deterministic-count pin.
fn traced(args: &Args) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let log = SpanLog::new();
    let setup = Setup::new(args.workload, args.seed, args.tiny);

    // A checked warm-up, then untraced and traced passes in turns (and,
    // with a checkpoint, the traced pass without it), so that a drift in
    // machine speed falls on every arm alike. Medians are compared.
    let warm = setup.pass();
    setup.check(&warm, &mut tally);
    let (mut plain_walls, mut traced_walls, mut unsaved_walls) = (vec![], vec![], vec![]);
    let started = Instant::now();
    let traced = loop {
        let round = Instant::now();
        let plain = setup.pass();
        check_repeat(&setup, &plain, &warm, &mut tally);
        plain_walls.push(plain.wall_s);
        let traced = setup.traced_pass(&log, WORKERS, true);
        check_repeat(&setup, &traced, &warm, &mut tally);
        traced_walls.push(traced.wall_s);
        if setup.checkpoint.is_some() {
            // The checkpoint overhead arm: the same traced run without it.
            unsaved_walls.push(setup.traced_pass(&log, WORKERS, false).wall_s);
        }
        let round = round.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round > args.seconds {
            break traced;
        }
    };
    if setup.checkpoint.is_some() {
        setup.check_resume(&traced, &mut tally);
    }
    let rounds = traced_walls.len();
    let (plain_wall, traced_wall) = (median(&mut plain_walls), median(&mut traced_walls));
    eprintln!("perfbench: {rounds} rounds: untraced {plain_wall:.4} s, traced {traced_wall:.4} s");
    let serial = setup.traced_pass(&log, 1, true);
    check_repeat(&setup, &serial, &warm, &mut tally);

    // Deterministic-tagged counts are a pure function of code and seed:
    // they must repeat exactly, here across worker counts.
    let pinned = |pass: &Pass| -> Vec<Vec<(String, f64)>> {
        pass.telemetry.iter().map(trace::deterministic).collect()
    };
    let (a, b) = (pinned(&traced), pinned(&serial));
    let moved: Vec<String> = a
        .iter()
        .flatten()
        .zip(b.iter().flatten())
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{} {} vs {}", x.0, x.1, y.1))
        .collect();
    tally.op(
        "deterministic counts",
        (!moved.is_empty()).then(|| format!("differ between traced runs: {}", moved.join("; "))),
    );

    let mut metrics = Vec::new();
    let events = total(&traced, "san_events_fired_total");
    metrics.push(("sanet.events", events, "count"));
    metrics.push((
        "sanet.heap_ops_per_event",
        ratio(total(&traced, "san_heap_ops_total"), events),
        "ratio",
    ));
    metrics.push((
        "sanet.reexam_per_event",
        ratio(total(&traced, "san_activities_reexamined_total"), events),
        "ratio",
    ));
    metrics.push(("sanet.events_per_s", kernel_events_per_s(&log, args, &mut tally), "1/s"));
    metrics.push(("raidsim.missions", total(&traced, "raid_missions_total"), "count"));
    metrics.push(("raidsim.loss_events", total(&traced, "raid_loss_events_total"), "count"));
    metrics.push(("raidsim.missions_per_s", missions_per_s(&log, args, &mut tally), "1/s"));

    // Splitting trials are the work units of the ultra-reliable job.
    let (mut trials, mut rare_wall) = (0.0, 0.0);
    for ((job, snapshot), wall) in setup.jobs.iter().zip(&traced.telemetry).zip(&traced.job_walls) {
        if job.name == "ultra_reliable_sweep" {
            trials += trace::value(snapshot, "replications_completed_total");
            rare_wall += wall;
        }
    }
    let hits = total(&traced, "splitting_level_hits_total");
    metrics.push(("rare.trials", trials, "count"));
    metrics.push(("rare.level_hits", hits, "count"));
    metrics.push(("rare.hit_ratio", ratio(hits, trials), "ratio"));
    metrics.push(("rare.trials_per_s", ratio(trials, rare_wall), "1/s"));

    let busy = total(&traced, "pool_session_busy_ns") / 1e9;
    let batch_count: f64 =
        traced.telemetry.iter().map(|s| trace::count(s, "pool_batch_size")).sum();
    metrics.push(("pool.batches", total(&traced, "pool_batches_claimed_total"), "count"));
    metrics.push((
        "pool.mean_batch_size",
        ratio(total(&traced, "pool_batch_size"), batch_count),
        "count",
    ));
    metrics.push(("pool.busy_s", busy, "s"));
    metrics.push(("pool.idle_s", total(&traced, "pool_park_idle_ns") / 1e9, "s"));
    metrics.push(("pool.parks", total(&traced, "pool_parks_total"), "count"));
    metrics.push(("pool.utilisation", ratio(busy, WORKERS as f64 * traced.wall_s), "ratio"));
    metrics.push((
        "pool.parallel_efficiency",
        ratio(serial.wall_s, WORKERS as f64 * traced_wall),
        "ratio",
    ));

    let used: u64 = traced
        .reports
        .iter()
        .flatten()
        .flat_map(|r| r.outputs.iter().filter_map(|o| o.replications_used))
        .sum();
    metrics.push(("stats.replications_used", used as f64, "count"));

    let (load_s, update_s) = checkpoint_calls(&setup, &log, args, &mut tally);
    let overhead =
        if unsaved_walls.is_empty() { 0.0 } else { traced_wall - median(&mut unsaved_walls) };
    metrics.push(("checkpoint.writes", total(&traced, "checkpoint_writes_total"), "count"));
    metrics.push(("checkpoint.bytes", total(&traced, "checkpoint_bytes_written_total"), "bytes"));
    metrics.push(("checkpoint.load_s", load_s, "s"));
    metrics.push(("checkpoint.update_s", update_s, "s"));
    metrics.push(("checkpoint.overhead_s", overhead, "s"));

    // The scenario spans of each study run of the traced pass.
    let spans = log.spans();
    let per_job: Vec<Vec<trace::SpanRecord>> = traced
        .run_spans
        .iter()
        .map(|run| spans.iter().filter(|s| s.parent == Some(*run)).cloned().collect())
        .collect();
    let critical: f64 = per_job
        .iter()
        .map(|spans| spans.iter().map(trace::SpanRecord::seconds).fold(0.0, f64::max))
        .sum();
    metrics.push(("core.critical_path_share", ratio(critical, traced.wall_s), "ratio"));
    metrics.push(("core.model_build_s", total(&traced, "span_model_build_ns") / 1e9, "s"));
    metrics.push(("core.work_units", total(&traced, "replications_completed_total"), "count"));
    metrics.push(("faultlog.tables_s", tables_seconds(&log, &mut tally), "s"));
    metrics.push(("report.render_s", traced.render_s, "s"));
    metrics.push(("trace.overhead_pct", 100.0 * (ratio(traced_wall, plain_wall) - 1.0), "%"));

    // Each layer's share of the traced wall time: every instant of a
    // study run is split evenly among the scenarios running then, and each
    // scenario's part goes to the layer that does its work. The
    // checkpoint's part of the cluster scenarios is the wall time the same
    // run loses without the file.
    let mut layer_s = std::collections::BTreeMap::<&str, f64>::new();
    for spans in &per_job {
        for (layer, seconds) in trace::wall_by_layer(spans) {
            *layer_s.entry(layer).or_default() += seconds;
        }
    }
    if setup.checkpoint.is_some() {
        let sanet = layer_s.entry("sanet").or_default();
        let checkpoint = overhead.clamp(0.0, *sanet);
        *sanet -= checkpoint;
        layer_s.insert("checkpoint", checkpoint);
    }
    layer_s.insert("report", traced.render_s);
    let mut accounted = 0.0;
    for (layer, name) in [
        ("sanet", "share.sanet"),
        ("raidsim", "share.raidsim"),
        ("rare", "share.rare"),
        ("faultlog", "share.faultlog"),
        ("checkpoint", "share.checkpoint"),
        ("report", "share.report"),
    ] {
        let share = ratio(layer_s.get(layer).copied().unwrap_or(0.0), traced.wall_s);
        accounted += share;
        metrics.push((name, share, "ratio"));
    }
    metrics.push(("share.unaccounted", 1.0 - accounted, "ratio"));

    let spans_path =
        Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    if let Err(e) = log.write_json(&spans_path) {
        tally.op("span file", Some(format!("cannot write {}: {e}", spans_path.display())));
    }
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name:<28} {value:>16.6} {unit}");
    }
    (tally, metrics)
}

/// `sanet.events_per_s`: one timed single-worker `sanet::Experiment` run of
/// the petascale cluster model.
fn kernel_events_per_s(log: &Arc<SpanLog>, args: &Args, tally: &mut Tally) -> f64 {
    let result = (|| -> Result<f64, String> {
        let cluster = cfs_model::model::build_cluster_model(&ClusterConfig::petascale())
            .map_err(|e| e.to_string())?;
        let mut experiment = sanet::Experiment::new(cluster.model.clone(), 8760.0);
        experiment.set_workers(1);
        for reward in cfs_model::rewards::standard_rewards(&cluster) {
            experiment.add_reward(reward);
        }
        let replications = if args.tiny { 4 } else { 256 };
        let (summary, seconds) = log.record("sanet::Experiment::run", "sanet", None, |_| {
            experiment.run(replications, args.seed)
        });
        let summary = summary.map_err(|e| e.to_string())?;
        Ok(summary.total_events as f64 / seconds)
    })();
    result.unwrap_or_else(|message| {
        tally.op("sanet kernel probe", Some(message));
        f64::NAN
    })
}

/// `raidsim.missions_per_s`: one timed single-worker
/// `StorageSimulator::run_with` on Figure 2's 12 PB ABE-disk configuration.
fn missions_per_s(log: &Arc<SpanLog>, args: &Args, tally: &mut Tally) -> f64 {
    let result = (|| -> Result<f64, String> {
        let series = cfs_model::experiments::Fig2Config::paper_series();
        let abe = series.get(3).ok_or("Figure 2 has no ABE series")?;
        let config = abe.storage_for_capacity(12_288.0).map_err(|e| e.to_string())?;
        let simulator = raidsim::StorageSimulator::new(config).map_err(|e| e.to_string())?;
        let missions = if args.tiny { 2 } else { 128 };
        let (summary, seconds) =
            log.record("raidsim::StorageSimulator::run_with", "raidsim", None, |_| {
                simulator.run_with(8760.0, missions, args.seed, 0.95, 1)
            });
        summary.map_err(|e| e.to_string())?;
        Ok(missions as f64 / seconds)
    })();
    result.unwrap_or_else(|message| {
        tally.op("raidsim mission probe", Some(message));
        f64::NAN
    })
}

/// `faultlog.tables_s`: one timed run of the five log-analysis tables.
fn tables_seconds(log: &Arc<SpanLog>, tally: &mut Tally) -> f64 {
    let spec = RunSpec::new().with_workers(1);
    let (report, seconds) =
        log.record("Study::tables", "faultlog", None, |_| Study::tables().run(&spec));
    if let Err(e) = report {
        tally.op("faultlog tables", Some(e.to_string()));
    }
    seconds
}

/// `checkpoint.load_s` and `checkpoint.update_s`: one public call each on
/// the finished checkpoint file (the update on a copy of it).
fn checkpoint_calls(
    setup: &Setup,
    log: &Arc<SpanLog>,
    args: &Args,
    tally: &mut Tally,
) -> (f64, f64) {
    let Some(path) = &setup.checkpoint else {
        return (0.0, 0.0);
    };
    use cfs_model::checkpoint;
    let result = (|| -> Result<(f64, f64), String> {
        let (data, load_s) =
            log.record("checkpoint::load", "checkpoint", None, |_| checkpoint::load(path));
        let data = data.map_err(|e| e.to_string())?;
        let key = checkpoint::entry_key(&ClusterConfig::abe().name, args.seed);
        let runs = data.entry(&key).ok_or(format!("no checkpoint entry '{key}'"))?.to_vec();
        let copy = path.with_extension("probe.json");
        std::fs::copy(path, &copy).map_err(|e| e.to_string())?;
        let (updated, update_s) = log.record("checkpoint::update", "checkpoint", None, |_| {
            checkpoint::update(&copy, &key, runs)
        });
        let _ = std::fs::remove_file(&copy);
        updated.map_err(|e| e.to_string())?;
        Ok((load_s, update_s))
    })();
    result.unwrap_or_else(|message| {
        tally.op("checkpoint calls", Some(message));
        (f64::NAN, f64::NAN)
    })
}

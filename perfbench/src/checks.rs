//! Output checks: every scenario or sweep point the benchmark runs is an
//! operation, and an operation fails on a scenario error, a panic, deadline
//! truncation, or a value that disagrees with an independent reference.
//!
//! Tolerances are several confidence half-widths plus a small model-error
//! allowance, loose enough that a correct change of random stream never
//! trips them and tight enough that a wrong model or estimator does.

use cfs_model::{Report, ScenarioOutput, TextTable};
use raidsim::replacement::expected_replacements_per_week;
use raidsim::DiskModel;
use sanet::beowulf::{build_beowulf_model, BeowulfConfig};

/// Confidence half-widths a simulated value may sit from its reference.
const HALF_WIDTHS: f64 = 5.0;

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation; `problem` is `None` when it passed.
    pub fn op(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.messages.push(format!("{what}: {problem}"));
        }
    }
}

/// The report's scenario-level outcome: `Some(problem)` when the scenario
/// failed, is missing, or was truncated.
pub fn scenario_problem(report: &Report, scenario: &str) -> Option<String> {
    if let Some(failure) = report.failures.iter().find(|f| f.scenario == scenario) {
        return Some(format!("failed: {}", failure.message));
    }
    match report.output(scenario) {
        None => Some("missing from the report".into()),
        Some(output) if output.truncated => Some("truncated".into()),
        Some(_) => None,
    }
}

/// `a` agrees with `reference` within `HALF_WIDTHS` half-widths plus a
/// relative model allowance (`rel`) and the table's 6-decimal rounding.
fn agrees(value: f64, half_width: f64, reference: f64, rel: f64) -> bool {
    let tolerance = HALF_WIDTHS * half_width + rel * reference.abs() + 1e-6;
    (value - reference).abs() <= tolerance
}

/// A sweep table as rows of `header -> cell`.
fn rows(table: &TextTable) -> Vec<Vec<(&str, &str)>> {
    table
        .rows()
        .iter()
        .map(|row| {
            table.headers().iter().map(String::as_str).zip(row.iter().map(String::as_str)).collect()
        })
        .collect()
}

fn cell<'a>(row: &[(&str, &'a str)], header: &str) -> Result<&'a str, String> {
    row.iter().find(|(h, _)| *h == header).map(|(_, c)| *c).ok_or(format!("no '{header}' column"))
}

/// Parses a sweep cell `"value ±half_width"` (or a bare value).
fn estimate(row: &[(&str, &str)], header: &str) -> Result<(f64, f64), String> {
    let text = cell(row, header)?;
    let mut parts = text.split(" ±");
    let parse = |s: Option<&str>| -> Result<f64, String> {
        s.unwrap_or("0").trim().parse().map_err(|e| format!("'{header}' cell '{text}': {e}"))
    };
    Ok((parse(parts.next())?, parse(parts.next())?))
}

fn sweep_rows(output: &ScenarioOutput) -> Vec<Vec<(&str, &str)>> {
    output.tables.first().map(rows).unwrap_or_default()
}

/// Figure 3: each simulated replacement rate against the renewal-theory
/// value the scenario reports beside it (`analytic_per_week`). The 3 %
/// allowance covers the 4-hour replacement lag the renewal model ignores.
pub fn figure3(output: &ScenarioOutput) -> Option<String> {
    let mut compared = 0;
    for metric in output.metrics.iter().filter(|m| m.name.starts_with("replacements_per_week ")) {
        let suffix = &metric.name["replacements_per_week ".len()..];
        let Some(analytic) = output.metric(&format!("analytic_per_week {suffix}")) else {
            return Some(format!("no analytic_per_week for '{suffix}'"));
        };
        let half_width = metric.half_width.unwrap_or(0.0);
        if !agrees(metric.value, half_width, analytic, 0.03) {
            return Some(format!(
                "{suffix}: simulated {} ± {half_width} vs analytic {analytic}",
                metric.value
            ));
        }
        compared += 1;
    }
    (compared == 0).then(|| "no replacement metrics to compare".into())
}

/// Replication-vs-RAID: the RAID points' replacement rates against the
/// Weibull renewal function of `raidsim::replacement`. (The MTTDL closed
/// forms of `raidsim::analytic` assume exponential lifetimes, and every
/// point here uses the ABE Weibull shape, so they do not apply.)
pub fn replication_vs_raid(output: &ScenarioOutput, horizon_hours: f64, tally: &mut Tally) {
    for row in sweep_rows(output) {
        let what = format!("replication_vs_raid point {}", cell(&row, "#").unwrap_or("?"));
        let problem = (|| -> Result<Option<String>, String> {
            if !cell(&row, "design")?.starts_with("raid") {
                return Ok(None);
            }
            let afr: f64 = cell(&row, "afr_percent")?.parse().map_err(|e| format!("{e}"))?;
            let (disks, _) = estimate(&row, "raw_disks")?;
            let disk = DiskModel::with_afr(afr, DiskModel::abe_sata_250gb().weibull_shape)
                .map_err(|e| e.to_string())?;
            let analytic = expected_replacements_per_week(disks as u32, &disk, horizon_hours)
                .map_err(|e| e.to_string())?;
            let (value, half_width) = estimate(&row, "replacements_per_week")?;
            Ok((!agrees(value, half_width, analytic, 0.03))
                .then(|| format!("replacements/week {value} ± {half_width} vs renewal {analytic}")))
        })()
        .unwrap_or_else(Some);
        tally.op(&what, problem);
    }
}

/// Beowulf performability: every point's four rewards against the exact
/// time-averaged values of the model's CTMC, assembled by
/// `Model::analyze` and integrated over the horizon by uniformization.
pub fn beowulf(output: &ScenarioOutput, base: &BeowulfConfig, horizon: f64, tally: &mut Tally) {
    for row in sweep_rows(output) {
        let what = format!("beowulf_performability point {}", cell(&row, "#").unwrap_or("?"));
        let problem = (|| -> Result<Option<String>, String> {
            let workers: f64 = cell(&row, "workers")?.parse().map_err(|e| format!("{e}"))?;
            let crews: f64 = cell(&row, "repair_crews")?.parse().map_err(|e| format!("{e}"))?;
            let config =
                BeowulfConfig { workers: workers as u32, repair_crews: crews as u32, ..*base };
            let exact = beowulf_exact(&config, horizon)?;
            for (name, reference) in exact {
                let (value, half_width) = estimate(&row, name)?;
                if !agrees(value, half_width, reference, 0.0) {
                    return Ok(Some(format!("{name} {value} ± {half_width} vs exact {reference}")));
                }
            }
            Ok(None)
        })()
        .unwrap_or_else(Some);
        tally.op(&what, problem);
    }
}

/// Exact time averages over `[0, horizon]` of the Beowulf rewards, starting
/// from the model's initial marking.
fn beowulf_exact(config: &BeowulfConfig, horizon: f64) -> Result<[(&'static str, f64); 4], String> {
    use sanet::beowulf::{
        HEAD_AVAILABILITY, MEAN_WORKERS_UP, PERFORMABILITY, SERVICE_AVAILABILITY,
    };
    let built = build_beowulf_model(config).map_err(|e| e.to_string())?;
    let report = built.model.analyze();
    if !report.admissibility().is_analytic() {
        return Err(format!("not analytic: {:?}", report.admissibility()));
    }
    let assembly = report.assemble_generator().map_err(|e| e.to_string())?;
    let mut initial = vec![0.0; assembly.ctmc.states()];
    for &(state, p) in &assembly.initial {
        initial[state] += p;
    }
    let occupancy = integrate(&assembly.ctmc, initial, horizon);
    let (head, up) = (built.head_up.index(), built.workers_up.index());
    let nominal = f64::from(config.workers);
    let mut sums = [0.0; 4];
    for (tokens, time) in assembly.states.iter().zip(&occupancy) {
        let head_up = tokens[head] > 0;
        let workers_up = tokens[up] as f64;
        let values = [
            if head_up { workers_up / nominal } else { 0.0 },
            if head_up && workers_up > 0.0 { 1.0 } else { 0.0 },
            if head_up { 1.0 } else { 0.0 },
            workers_up,
        ];
        for (sum, v) in sums.iter_mut().zip(values) {
            *sum += time * v / horizon;
        }
    }
    Ok([
        (PERFORMABILITY, sums[0]),
        (SERVICE_AVAILABILITY, sums[1]),
        (HEAD_AVAILABILITY, sums[2]),
        (MEAN_WORKERS_UP, sums[3]),
    ])
}

/// Expected time spent in each state over `[0, t]` from distribution `pi`,
/// by uniformization in chunks short enough (`q·τ ≤ 32`) that the Poisson
/// weights neither underflow nor need more than a few dozen terms.
fn integrate(ctmc: &sanet::ctmc::SparseCtmc, mut pi: Vec<f64>, t: f64) -> Vec<f64> {
    let n = pi.len();
    let mut exit = vec![0.0; n];
    let transitions: Vec<(usize, usize, f64)> = ctmc.transitions().collect();
    for &(from, _, rate) in &transitions {
        exit[from] += rate;
    }
    let q = exit.iter().copied().fold(0.0_f64, f64::max).max(1e-12) * 1.02;
    let chunks = (q * t / 32.0).ceil().max(1.0);
    let tau = t / chunks;
    let lambda = q * tau;
    let mut occupancy = vec![0.0; n];
    for _ in 0..chunks as u64 {
        // v_k = pi P^k; ∫0^τ pi(s) ds = (1/q) Σ_k P(N(τ) > k) v_k and
        // pi(τ) = Σ_k P(N(τ) = k) v_k, with N(τ) ~ Poisson(qτ).
        let mut v = pi.clone();
        let mut next_pi = vec![0.0; n];
        let mut pmf = (-lambda).exp();
        let mut cdf = pmf;
        let mut k = 0.0;
        loop {
            for s in 0..n {
                next_pi[s] += pmf * v[s];
                occupancy[s] += (1.0 - cdf) * v[s] / q;
            }
            if 1.0 - cdf < 1e-14 || k > 10.0 * lambda + 100.0 {
                break;
            }
            let mut w: Vec<f64> = v.iter().zip(&exit).map(|(p, e)| p * (1.0 - e / q)).collect();
            for &(from, to, rate) in &transitions {
                w[to] += v[from] * rate / q;
            }
            v = w;
            k += 1.0;
            pmf *= lambda / k;
            cdf += pmf;
        }
        pi = next_pi;
    }
    occupancy
}

/// Ultra-reliable points: the splitting estimate must be a probability
/// with a proper upper bound.
pub fn ultra_reliable(output: &ScenarioOutput, tally: &mut Tally) {
    for row in sweep_rows(output) {
        let what = format!("ultra_reliable_sweep point {}", cell(&row, "#").unwrap_or("?"));
        let problem = (|| -> Result<Option<String>, String> {
            let (p, _) = estimate(&row, "loss_probability")?;
            let (upper, _) = estimate(&row, "loss_probability_upper")?;
            Ok((!(0.0..=1.0).contains(&p) || upper < p)
                .then(|| format!("loss probability {p} with upper bound {upper}")))
        })()
        .unwrap_or_else(Some);
        tally.op(&what, problem);
    }
}

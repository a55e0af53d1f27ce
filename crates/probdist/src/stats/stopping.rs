//! Precision-targeted sequential stopping, and the replication driver
//! every replicated estimate in the workspace runs through.
//!
//! The paper reports every simulation measure with a confidence interval;
//! the engineering question is how many replications that takes. A
//! [`StoppingRule`] answers it adaptively: run a minimum batch, then keep
//! doubling the replication count until every tracked measure's relative
//! CI half-width is below the target (or a hard cap is reached).
//! [`Replications`] is the whole replication policy — a fixed count or a
//! stopping rule — and [`run_to_precision`] executes it.
//!
//! The driver lives here, crate-neutral, so the SAN experiment runner, the
//! importance-sampling runner, the storage Monte-Carlo and the composed
//! cluster evaluator all stop, truncate and resume the same way. An engine
//! supplies only the two operations of [`Replicate`] — make a worker's
//! scratch, run replication `i` — plus its own precision check and
//! summary. The driver owns the rest:
//!
//! * fixed and adaptive stopping, over one index sequence: replication `i`
//!   always draws from the stream derived from `(root seed, i)`, so an
//!   adaptive run that uses `n` replications is bit-identical to a fixed
//!   run of `n`;
//! * deadline truncation, through the ambient
//!   [`crate::parallel::current_cancel_token`] read once per run;
//! * resume and persist through an optional [`Checkpoint`] hook;
//! * the `replications_scheduled_total` and `checkpoint_resume_hits_total`
//!   telemetry counters.

use crate::parallel::{current_cancel_token, replicate_with, CancelToken};
use crate::stats::ConfidenceInterval;
use crate::telemetry::{counter_add, span, MetricId};
use crate::{DistError, SimRng};

/// Stopping rule for sequential replication: run at least
/// [`min_replications`](StoppingRule::min_replications), then stop as soon
/// as every tracked confidence interval is narrower than
/// [`relative_half_width`](StoppingRule::relative_half_width) (relative to
/// its point estimate), or when
/// [`max_replications`](StoppingRule::max_replications) is reached.
///
/// Construction is validated — see [`StoppingRule::new`] — so a rule in
/// hand is always runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    relative_half_width: f64,
    min_replications: usize,
    max_replications: usize,
    min_nonzero_observations: usize,
}

/// Default minimum number of non-zero observations a rare-event measure
/// must produce before [`StoppingRule::met_by_support`] can declare its
/// relative target met: with fewer hits than this the relative half-width
/// is an artefact of a handful of lucky draws, not an estimate.
pub const DEFAULT_MIN_NONZERO_OBSERVATIONS: usize = 5;

impl Default for StoppingRule {
    /// ±1 % relative half-width, between 20 and 1000 replications.
    fn default() -> Self {
        StoppingRule {
            relative_half_width: 0.01,
            min_replications: 20,
            max_replications: 1000,
            min_nonzero_observations: DEFAULT_MIN_NONZERO_OBSERVATIONS,
        }
    }
}

impl StoppingRule {
    /// Creates a validated stopping rule.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonFiniteParameter`] /
    /// [`DistError::NonPositiveParameter`] for a non-finite or
    /// non-positive `relative_half_width`, and
    /// [`DistError::InvalidStoppingRule`] when `min_replications < 2` (a
    /// confidence interval needs two observations) or
    /// `min_replications > max_replications`.
    pub fn new(
        relative_half_width: f64,
        min_replications: usize,
        max_replications: usize,
    ) -> Result<Self, DistError> {
        DistError::check_positive("relative_half_width", relative_half_width)?;
        if min_replications < 2 {
            return Err(DistError::InvalidStoppingRule {
                reason: format!(
                    "a confidence interval needs at least two replications, got min = \
                     {min_replications}"
                ),
            });
        }
        if min_replications > max_replications {
            return Err(DistError::InvalidStoppingRule {
                reason: format!(
                    "min_replications ({min_replications}) exceeds max_replications \
                     ({max_replications})"
                ),
            });
        }
        Ok(StoppingRule {
            relative_half_width,
            min_replications,
            max_replications,
            min_nonzero_observations: DEFAULT_MIN_NONZERO_OBSERVATIONS,
        })
    }

    /// Sets the minimum number of non-zero observations
    /// [`StoppingRule::met_by_support`] requires (default
    /// [`DEFAULT_MIN_NONZERO_OBSERVATIONS`]). Rare-event estimators raise
    /// this to demand more hits; `0` disables the support check.
    pub fn with_min_nonzero(mut self, observations: usize) -> Self {
        self.min_nonzero_observations = observations;
        self
    }

    /// The minimum non-zero-observation count required by
    /// [`StoppingRule::met_by_support`].
    pub fn min_nonzero_observations(&self) -> usize {
        self.min_nonzero_observations
    }

    /// The target relative half-width (e.g. `0.01` for ±1 %).
    pub fn relative_half_width(&self) -> f64 {
        self.relative_half_width
    }

    /// Replications to run before the first precision check.
    pub fn min_replications(&self) -> usize {
        self.min_replications
    }

    /// Hard cap on the number of replications.
    pub fn max_replications(&self) -> usize {
        self.max_replications
    }

    /// The next batch size given `completed` replications so far: the
    /// minimum first, then doubling (batch = completed), always clipped to
    /// the cap. Returns `0` once the cap is reached.
    pub fn next_batch(&self, completed: usize) -> usize {
        if completed >= self.max_replications {
            0
        } else if completed == 0 {
            self.min_replications
        } else {
            completed.min(self.max_replications - completed)
        }
    }

    /// Whether `interval` is precise enough under this rule.
    ///
    /// A degenerate interval (zero half-width) around a **non-zero** point
    /// is precise — the measure looks deterministic. A degenerate interval
    /// around **zero** is not: every observation was zero, which for a
    /// rare-event measure means the event simply has not been seen yet, and
    /// stopping would declare the target met vacuously. Any other interval
    /// around a zero point estimate is likewise never met (its relative
    /// width is unbounded).
    pub fn met_by(&self, interval: &ConfidenceInterval) -> bool {
        if interval.half_width == 0.0 {
            return interval.point != 0.0;
        }
        interval.relative_half_width() <= self.relative_half_width
    }

    /// Like [`StoppingRule::met_by`], but additionally requires at least
    /// [`StoppingRule::min_nonzero_observations`] observations with a
    /// non-zero contribution — the criterion rare-event estimators use, so
    /// a relative target cannot be declared met off a handful of hits (or
    /// an importance-sampling run whose effective sample size collapsed).
    pub fn met_by_support(&self, interval: &ConfidenceInterval, nonzero_observations: u64) -> bool {
        nonzero_observations >= self.min_nonzero_observations as u64 && self.met_by(interval)
    }
}

/// How many replications an estimate runs: exactly `n`, or doubling
/// batches under a [`StoppingRule`]. Engines take `impl Into<Replications>`,
/// so a plain count or a rule can be passed directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Replications {
    /// Exactly this many replications (at least two).
    Fixed(usize),
    /// Batches until the rule is met or its cap is reached.
    Adaptive(StoppingRule),
}

impl From<usize> for Replications {
    fn from(count: usize) -> Self {
        Replications::Fixed(count)
    }
}

impl From<StoppingRule> for Replications {
    fn from(rule: StoppingRule) -> Self {
        Replications::Adaptive(rule)
    }
}

impl Replications {
    /// The next batch size after `completed` replications: the whole
    /// remaining fixed count, or the rule's doubling schedule. `0` once
    /// the policy is exhausted.
    fn next_batch(&self, completed: usize) -> usize {
        match self {
            Replications::Fixed(count) => count.saturating_sub(completed),
            Replications::Adaptive(rule) => rule.next_batch(completed),
        }
    }
}

/// One replicated estimator as [`run_to_precision`] sees it: how to make a
/// worker's scratch, and how to run replication `index` with the RNG
/// stream the driver derived for it.
///
/// The scratch is created once per participating worker and reused across
/// every replication it runs; it may cache allocations but must not carry
/// information from one replication into the next.
pub trait Replicate: Sync {
    /// The result of one replication.
    type Row: Send;
    /// Per-worker reusable state.
    type Scratch;
    /// The error a replication can fail with.
    type Error: Send;

    /// Creates one worker's scratch.
    fn scratch(&self) -> Self::Scratch;

    /// Runs replication `index`, drawing only from `rng`.
    ///
    /// # Errors
    ///
    /// Whatever the replication fails with; the driver stops at the first
    /// error in index order.
    fn run(
        &self,
        index: usize,
        rng: &mut SimRng,
        scratch: &mut Self::Scratch,
    ) -> Result<Self::Row, Self::Error>;
}

/// The resume/persist hook of [`run_to_precision`].
pub struct Checkpoint<'a, T, E> {
    /// Rows a previous run persisted: row `i` of this prefix is served as
    /// replication `i` instead of being run — bit-identical, because
    /// replication `i` is a pure function of `(seed, i)`.
    pub resumed: Vec<T>,
    /// Newly run rows between two persists (≥ 1); a batch's last, shorter
    /// chunk is persisted too.
    pub every_n: usize,
    /// Receives the whole completed prefix each time it has grown.
    pub persist: PersistFn<'a, T, E>,
}

/// The persist callback of a [`Checkpoint`].
type PersistFn<'a, T, E> = Box<dyn FnMut(&[T]) -> Result<(), E> + 'a>;

/// The replication driver: runs `kernel` under `replications` and returns
/// every row in replication-index order, plus whether a deadline truncated
/// the run.
///
/// Replication `i` draws from the stream derived from `(seed, i)` and rows
/// are collected in index order, so the result is a pure function of
/// `(kernel, replications, seed)`, whatever the worker count (`0` = the
/// machine's parallelism, `1` = serial; an ambient pool takes precedence).
/// An adaptive run consults `is_precise` after every batch, so its length
/// is the rule's minimum plus whole doubling batches, capped; a fixed run
/// never calls it.
///
/// When the thread's ambient cancellation token fires, no further
/// replication starts, in-flight batches finish, and the completed
/// contiguous prefix is returned with `true`. With a `checkpoint`, the
/// resumed prefix is served first and newly run rows are persisted in
/// chunks of `every_n` — truncated chunks included — so the persisted file
/// always holds a contiguous prefix. A panicking replication re-throws as a
/// [`crate::parallel::WorkUnitPanic`] carrying its replication index, before
/// its chunk is persisted.
///
/// # Errors
///
/// [`DistError::InvalidStoppingRule`] for a fixed count below two;
/// [`DistError::DeadlineExpired`] when a truncated run completed fewer than
/// the two replications a confidence interval needs; otherwise the first
/// error of a replication (in index order), of `is_precise`, or of the
/// persist hook.
pub fn run_to_precision<K, E, P>(
    kernel: &K,
    replications: &Replications,
    seed: u64,
    workers: usize,
    mut checkpoint: Option<Checkpoint<'_, K::Row, E>>,
    mut is_precise: P,
) -> Result<(Vec<K::Row>, bool), E>
where
    K: Replicate,
    E: From<K::Error> + From<DistError>,
    P: FnMut(&[K::Row], &StoppingRule) -> Result<bool, E>,
{
    if let Replications::Fixed(count @ 0..=1) = replications {
        return Err(DistError::InvalidStoppingRule {
            reason: format!("a confidence interval needs at least two replications, got {count}"),
        }
        .into());
    }
    let token = current_cancel_token();
    let root = SimRng::seed_from_u64(seed);
    let mut resumed =
        checkpoint.as_mut().map(|c| std::mem::take(&mut c.resumed)).unwrap_or_default().into_iter();
    let mut rows: Vec<K::Row> = Vec::new();
    let mut truncated = false;
    'batches: loop {
        let end = rows.len() + replications.next_batch(rows.len());
        if end == rows.len() {
            break;
        }
        let before = rows.len();
        rows.extend(resumed.by_ref().take(end - before));
        counter_add(MetricId::CheckpointResumeHits, (rows.len() - before) as u64);
        while rows.len() < end {
            if token.as_ref().is_some_and(CancelToken::is_cancelled) {
                truncated = true;
                break 'batches;
            }
            let start = rows.len();
            let stop = checkpoint.as_ref().map_or(end, |c| end.min(start + c.every_n));
            // Scheduled work grows batch by batch under the adaptive rule,
            // which is what the progress line's ETA tracks.
            counter_add(MetricId::ReplicationsScheduled, (stop - start) as u64);
            let (chunk, cut) = {
                let _span = span(MetricId::SpanReplicate);
                replicate_with(
                    start..stop,
                    &root,
                    workers,
                    token.as_ref(),
                    || kernel.scratch(),
                    |index, rng, scratch| kernel.run(index, rng, scratch),
                )
            };
            for row in chunk {
                rows.push(row?);
            }
            if let Some(checkpoint) = checkpoint.as_mut() {
                (checkpoint.persist)(&rows)?;
            }
            if cut {
                truncated = true;
                break 'batches;
            }
        }
        if let Replications::Adaptive(rule) = replications {
            if is_precise(&rows, rule)? {
                break;
            }
        }
    }
    if truncated && rows.len() < 2 {
        return Err(DistError::DeadlineExpired { completed: rows.len() }.into());
    }
    Ok((rows, truncated))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::parallel::WorkUnitPanic;
    use crate::stats::{confidence_interval, RunningStats};

    #[test]
    fn default_rule_is_valid() {
        let rule = StoppingRule::default();
        assert_eq!(rule.relative_half_width(), 0.01);
        assert_eq!(rule.min_replications(), 20);
        assert_eq!(rule.max_replications(), 1000);
        assert_eq!(
            StoppingRule::new(0.01, 20, 1000).unwrap(),
            rule,
            "default must round-trip through the validated constructor"
        );
    }

    #[test]
    fn construction_rejects_bad_parameters() {
        assert!(matches!(
            StoppingRule::new(0.0, 2, 10),
            Err(DistError::NonPositiveParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(-0.1, 2, 10),
            Err(DistError::NonPositiveParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(f64::NAN, 2, 10),
            Err(DistError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(f64::INFINITY, 2, 10),
            Err(DistError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            StoppingRule::new(0.1, 1, 10),
            Err(DistError::InvalidStoppingRule { .. })
        ));
        assert!(matches!(
            StoppingRule::new(0.1, 10, 5),
            Err(DistError::InvalidStoppingRule { .. })
        ));
        let err = StoppingRule::new(0.1, 10, 5).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn batch_schedule_doubles_up_to_the_cap() {
        let rule = StoppingRule::new(0.01, 8, 50).unwrap();
        assert_eq!(rule.next_batch(0), 8);
        assert_eq!(rule.next_batch(8), 8);
        assert_eq!(rule.next_batch(16), 16);
        assert_eq!(rule.next_batch(32), 18); // clipped to the cap
        assert_eq!(rule.next_batch(50), 0);
        assert_eq!(rule.next_batch(60), 0);
    }

    #[test]
    fn met_by_handles_degenerate_intervals() {
        let rule = StoppingRule::new(0.05, 2, 10).unwrap();
        let tight = ConfidenceInterval { point: 1.0, half_width: 0.01, level: 0.95, samples: 8 };
        let loose = ConfidenceInterval { point: 1.0, half_width: 0.2, level: 0.95, samples: 8 };
        let exact = ConfidenceInterval::exact(0.5);
        let zero_mean = ConfidenceInterval { point: 0.0, half_width: 0.1, level: 0.95, samples: 8 };
        assert!(rule.met_by(&tight));
        assert!(!rule.met_by(&loose));
        assert!(rule.met_by(&exact), "zero half-width around a non-zero point is precise");
        assert!(!rule.met_by(&zero_mean), "a zero point estimate can never satisfy the target");
    }

    /// Regression: a rare-event measure whose observations are all zero
    /// produces the degenerate interval `0 ± 0`, which used to satisfy any
    /// precision target vacuously (the "zero half-width is always precise"
    /// shortcut). A measure that has never seen its event must keep
    /// running.
    #[test]
    fn all_zero_observations_never_satisfy_the_target() {
        let rule = StoppingRule::new(0.05, 2, 10).unwrap();
        let zero_hit = ConfidenceInterval::exact(0.0);
        assert!(!rule.met_by(&zero_hit), "0 ± 0 is no information, not infinite precision");
        assert!(!rule.met_by_support(&zero_hit, 0));

        // The same degenerate interval from an actual all-zero accumulator.
        let stats: RunningStats = std::iter::repeat_n(0.0, 50).collect();
        let interval = confidence_interval(&stats, 0.95).unwrap();
        assert_eq!(interval.point, 0.0);
        assert_eq!(interval.half_width, 0.0);
        assert!(!rule.met_by(&interval));
    }

    /// Regression: a tight relative half-width off too few non-zero
    /// observations must not stop a rare-event run — the support check
    /// demands a minimum number of hits first.
    #[test]
    fn met_by_support_requires_minimum_nonzero_observations() {
        let rule = StoppingRule::new(0.05, 2, 10).unwrap();
        assert_eq!(rule.min_nonzero_observations(), DEFAULT_MIN_NONZERO_OBSERVATIONS);
        let tight = ConfidenceInterval { point: 1e-8, half_width: 1e-10, level: 0.95, samples: 64 };
        assert!(rule.met_by(&tight), "precision alone is met");
        assert!(!rule.met_by_support(&tight, 4), "4 hits < default minimum of 5");
        assert!(rule.met_by_support(&tight, 5));

        let strict = rule.with_min_nonzero(100);
        assert_eq!(strict.min_nonzero_observations(), 100);
        assert!(!strict.met_by_support(&tight, 99));
        assert!(strict.met_by_support(&tight, 100));

        // Disabling the support check reduces to plain met_by.
        let lax = rule.with_min_nonzero(0);
        assert!(lax.met_by_support(&tight, 0));
        assert!(!lax.met_by_support(&ConfidenceInterval::exact(0.0), 0));
    }

    /// A deterministic test kernel: row `i` is `(i, first draw of stream
    /// i)`, and every executed replication is counted.
    #[derive(Default)]
    struct Draws {
        runs: AtomicUsize,
    }

    impl Replicate for Draws {
        type Row = (usize, u64);
        type Scratch = ();
        type Error = DistError;

        fn scratch(&self) {}

        fn run(
            &self,
            index: usize,
            rng: &mut SimRng,
            (): &mut (),
        ) -> Result<(usize, u64), DistError> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            Ok((index, rng.next_u64()))
        }
    }

    fn drive(
        kernel: &Draws,
        replications: impl Into<Replications>,
        workers: usize,
        checkpoint: Option<Checkpoint<'_, (usize, u64), DistError>>,
        is_precise: impl FnMut(&[(usize, u64)], &StoppingRule) -> Result<bool, DistError>,
    ) -> Result<(Vec<(usize, u64)>, bool), DistError> {
        run_to_precision(kernel, &replications.into(), 17, workers, checkpoint, is_precise)
    }

    #[test]
    fn run_to_precision_stops_early_when_precise() {
        let rule = StoppingRule::new(0.5, 4, 64).unwrap();
        let (rows, truncated) = drive(&Draws::default(), rule, 1, None, |rows, rule| {
            let stats: RunningStats = rows.iter().map(|&(i, _)| 10.0 + (i % 2) as f64).collect();
            Ok(rule.met_by(&confidence_interval(&stats, 0.95)?))
        })
        .unwrap();
        assert!(!truncated);
        assert_eq!(rows.len(), 4, "a low-variance measure stops at the minimum");
    }

    #[test]
    fn run_to_precision_runs_to_the_cap_when_noisy() {
        let rule = StoppingRule::new(1e-9, 4, 20).unwrap();
        let mut checks = Vec::new();
        let (rows, _) = drive(&Draws::default(), rule, 2, None, |rows, _| {
            checks.push(rows.len());
            Ok(false)
        })
        .unwrap();
        assert_eq!(rows.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..20).collect::<Vec<_>>());
        assert_eq!(checks, vec![4, 8, 16, 20], "one precision check per doubling batch");
    }

    #[test]
    fn run_to_precision_propagates_errors() {
        let rule = StoppingRule::new(0.1, 4, 8).unwrap();
        let err = drive(&Draws::default(), rule, 1, None, |_, _| Err(DistError::EmptyData));
        assert_eq!(err.unwrap_err(), DistError::EmptyData);
        let err = drive(&Draws::default(), 1, 1, None, |_, _| Ok(true)).unwrap_err();
        assert!(err.to_string().contains("at least two"), "{err}");
    }

    #[test]
    fn fixed_and_adaptive_runs_are_bit_identical_at_equal_count() {
        let rule = StoppingRule::new(1e-9, 4, 32).unwrap();
        let (adaptive, _) = drive(&Draws::default(), rule, 4, None, |_, _| Ok(false)).unwrap();
        assert_eq!(adaptive.len(), 32);
        for workers in [1, 2, 8] {
            let kernel = Draws::default();
            let (fixed, _) = drive(&kernel, 32, workers, None, |_, _| unreachable!()).unwrap();
            assert_eq!(fixed, adaptive, "workers = {workers}");
            assert_eq!(kernel.runs.load(Ordering::Relaxed), 32);
        }
    }

    #[test]
    fn resumed_prefix_is_served_without_running() {
        let (full, _) = drive(&Draws::default(), 12, 1, None, |_, _| Ok(true)).unwrap();
        // A stored prefix of 5 rows (one of them marked, to prove it is
        // served rather than recomputed) and a fixed run of 12.
        let mut stored = full[..5].to_vec();
        stored[3].1 = 0;
        let kernel = Draws::default();
        let checkpoint =
            Checkpoint { resumed: stored.clone(), every_n: 100, persist: Box::new(|_| Ok(())) };
        let (rows, _) = drive(&kernel, 12, 2, Some(checkpoint), |_, _| Ok(true)).unwrap();
        assert_eq!(kernel.runs.load(Ordering::Relaxed), 7, "only the remainder runs");
        assert_eq!(&rows[..5], &stored[..]);
        assert_eq!(&rows[5..], &full[5..]);

        // A stored prefix covering the whole run calls `run` not once.
        let kernel = Draws::default();
        let checkpoint =
            Checkpoint { resumed: full.clone(), every_n: 2, persist: Box::new(|_| Ok(())) };
        let (rows, _) = drive(&kernel, 8, 2, Some(checkpoint), |_, _| Ok(true)).unwrap();
        assert_eq!(kernel.runs.load(Ordering::Relaxed), 0);
        assert_eq!(rows, full[..8]);
    }

    #[test]
    fn persist_fires_every_n_rows_with_a_contiguous_prefix() {
        let persisted = std::cell::RefCell::new(Vec::new());
        let checkpoint = Checkpoint {
            resumed: Vec::new(),
            every_n: 3,
            persist: Box::new(|rows: &[(usize, u64)]| {
                persisted.borrow_mut().push(rows.iter().map(|&(i, _)| i).collect::<Vec<_>>());
                Ok(())
            }),
        };
        // Adaptive batches 0..4, 4..8, 8..16: chunks of three, each batch's
        // short tail persisted too.
        let rule = StoppingRule::new(1e-9, 4, 16).unwrap();
        let (rows, _) =
            drive(&Draws::default(), rule, 2, Some(checkpoint), |_, _| Ok(false)).unwrap();
        let lengths: Vec<usize> = persisted.borrow().iter().map(Vec::len).collect();
        assert_eq!(lengths, vec![3, 4, 7, 8, 11, 14, 16]);
        for prefix in persisted.borrow().iter() {
            assert_eq!(prefix, &(0..prefix.len()).collect::<Vec<_>>(), "contiguous prefix");
        }
        assert_eq!(rows.len(), 16);
    }

    #[test]
    fn ambient_deadline_truncates_to_a_prefix_or_a_typed_error() {
        // Cancelled from inside replication 5 of a serial run: the token is
        // checked before every replication, so exactly 0..=5 complete.
        struct CancelAt(CancelToken);
        impl Replicate for CancelAt {
            type Row = usize;
            type Scratch = ();
            type Error = DistError;
            fn scratch(&self) {}
            fn run(&self, index: usize, _: &mut SimRng, (): &mut ()) -> Result<usize, DistError> {
                if index == 5 {
                    self.0.cancel();
                }
                Ok(index)
            }
        }
        let token = CancelToken::new();
        let kernel = CancelAt(token.clone());
        let policy = Replications::Fixed(100);
        let (rows, truncated) = crate::parallel::cancel_scope(&token, || {
            run_to_precision(&kernel, &policy, 1, 1, None, |_, _| -> Result<bool, DistError> {
                Ok(true)
            })
        })
        .unwrap();
        assert!(truncated);
        assert_eq!(rows, (0..=5).collect::<Vec<_>>());

        // Already fired: nothing runs, and fewer than two rows is an error.
        let err = crate::parallel::cancel_scope(&token, || {
            drive(&Draws::default(), 10, 1, None, |_, _| Ok(true))
        })
        .unwrap_err();
        assert_eq!(err, DistError::DeadlineExpired { completed: 0 });
    }

    #[test]
    fn work_unit_panic_keeps_the_replication_index() {
        struct PanicAt(usize);
        impl Replicate for PanicAt {
            type Row = usize;
            type Scratch = ();
            type Error = DistError;
            fn scratch(&self) {}
            fn run(&self, index: usize, _: &mut SimRng, (): &mut ()) -> Result<usize, DistError> {
                assert!(index != self.0, "replication {index} failed");
                Ok(index)
            }
        }
        for workers in [1, 4] {
            let persists = AtomicUsize::new(0);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let checkpoint = Checkpoint {
                    resumed: Vec::new(),
                    every_n: 8,
                    persist: Box::new(|rows: &[usize]| {
                        assert!(rows.len() <= 8, "the panicking chunk is never persisted");
                        persists.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    }),
                };
                run_to_precision(
                    &PanicAt(11),
                    &Replications::Fixed(40),
                    1,
                    workers,
                    Some(checkpoint),
                    |_, _| -> Result<bool, DistError> { Ok(true) },
                )
            }))
            .unwrap_err();
            let wrapped = payload.downcast_ref::<WorkUnitPanic>().expect("typed payload");
            assert_eq!(wrapped.index(), 11, "workers = {workers}");
            assert_eq!(persists.load(Ordering::Relaxed), 1, "only chunk 0..8 was persisted");
        }
    }
}

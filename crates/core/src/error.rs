use std::error::Error;
use std::fmt;

use faultlog::LogError;
use probdist::DistError;
use raidsim::RaidError;
use sanet::SanError;

/// Error type for cluster-model construction, simulation, and experiments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CfsError {
    /// A cluster configuration or parameter value was rejected.
    InvalidConfig {
        /// Explanation of the rejected configuration.
        reason: String,
    },
    /// An error from the stochastic-activity-network engine.
    San(SanError),
    /// An error from the storage reliability simulator.
    Raid(RaidError),
    /// An error from the failure-log substrate.
    Log(LogError),
    /// An error from the statistics layer.
    Distribution(DistError),
    /// A scenario panicked during evaluation. The panic was contained at
    /// the scenario boundary — the worker pool and every other scenario's
    /// results are unaffected — and surfaces as this typed error (or as a
    /// [`crate::report::ScenarioFailure`] under
    /// [`crate::run::FailurePolicy::ContinueAndReport`]).
    ScenarioPanic {
        /// Name of the scenario whose evaluation panicked.
        scenario: String,
        /// The replication index that panicked, when the panic originated
        /// inside a replication fan-out (`None` for panics in scenario
        /// code outside the replication loop).
        replication: Option<u64>,
        /// The panic payload rendered as text.
        message: String,
    },
    /// A checkpoint file could not be read, written, or verified.
    Checkpoint {
        /// Path of the offending checkpoint file.
        path: String,
        /// What went wrong (I/O failure, malformed JSON, version or
        /// checksum mismatch).
        reason: String,
    },
    /// A run deadline expired before an evaluation completed the minimum
    /// two replications a confidence interval needs. Evaluations that got
    /// further return truncated-but-valid statistics instead of this error.
    DeadlineExpired {
        /// Name of the starved scenario or configuration.
        scenario: String,
        /// Replications that completed before the deadline fired.
        completed: usize,
    },
}

impl fmt::Display for CfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfsError::InvalidConfig { reason } => {
                write!(f, "invalid cluster configuration: {reason}")
            }
            CfsError::San(e) => write!(f, "model error: {e}"),
            CfsError::Raid(e) => write!(f, "storage model error: {e}"),
            CfsError::Log(e) => write!(f, "failure log error: {e}"),
            CfsError::Distribution(e) => write!(f, "distribution error: {e}"),
            CfsError::ScenarioPanic { scenario, replication, message } => match replication {
                Some(index) => {
                    write!(f, "scenario '{scenario}' panicked in replication {index}: {message}")
                }
                None => write!(f, "scenario '{scenario}' panicked: {message}"),
            },
            CfsError::Checkpoint { path, reason } => {
                write!(f, "checkpoint file '{path}': {reason}")
            }
            CfsError::DeadlineExpired { scenario, completed } => write!(
                f,
                "deadline expired before '{scenario}' completed the two replications a \
                 confidence interval needs ({completed} done)"
            ),
        }
    }
}

impl Error for CfsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CfsError::San(e) => Some(e),
            CfsError::Raid(e) => Some(e),
            CfsError::Log(e) => Some(e),
            CfsError::Distribution(e) => Some(e),
            CfsError::InvalidConfig { .. }
            | CfsError::ScenarioPanic { .. }
            | CfsError::Checkpoint { .. }
            | CfsError::DeadlineExpired { .. } => None,
        }
    }
}

impl CfsError {
    /// Names the scenario of a [`CfsError::DeadlineExpired`] raised below
    /// the scenario layer (where the engines do not know it); every other
    /// error passes through unchanged.
    pub(crate) fn in_scenario(self, name: &str) -> CfsError {
        match self {
            CfsError::DeadlineExpired { scenario, completed } if scenario.is_empty() => {
                CfsError::DeadlineExpired { scenario: name.to_string(), completed }
            }
            other => other,
        }
    }
}

impl From<SanError> for CfsError {
    fn from(e: SanError) -> Self {
        match e {
            SanError::Distribution(e @ DistError::DeadlineExpired { .. }) => e.into(),
            e => CfsError::San(e),
        }
    }
}

impl From<RaidError> for CfsError {
    fn from(e: RaidError) -> Self {
        match e {
            RaidError::Distribution(e @ DistError::DeadlineExpired { .. }) => e.into(),
            e => CfsError::Raid(e),
        }
    }
}

impl From<LogError> for CfsError {
    fn from(e: LogError) -> Self {
        CfsError::Log(e)
    }
}

/// A deadline that starved a replicated run, in whichever engine it fired,
/// becomes the one typed [`CfsError::DeadlineExpired`]; its scenario is
/// named at the scenario boundary.
impl From<DistError> for CfsError {
    fn from(e: DistError) -> Self {
        match e {
            DistError::DeadlineExpired { completed } => {
                CfsError::DeadlineExpired { scenario: String::new(), completed }
            }
            e => CfsError::Distribution(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CfsError = SanError::UnknownReward { name: "x".into() }.into();
        assert!(matches!(e, CfsError::San(_)));
        assert!(Error::source(&e).is_some());

        let e: CfsError = RaidError::InvalidConfig { reason: "r".into() }.into();
        assert!(e.to_string().contains("storage"));

        let e: CfsError = LogError::EmptyLog { analysis: "job" }.into();
        assert!(matches!(e, CfsError::Log(_)));

        let e: CfsError = DistError::EmptyData.into();
        assert!(matches!(e, CfsError::Distribution(_)));

        // A starved run is the one typed deadline error, from any engine.
        let starved = DistError::DeadlineExpired { completed: 1 };
        for e in [
            CfsError::from(starved.clone()),
            SanError::Distribution(starved.clone()).into(),
            RaidError::Distribution(starved).into(),
        ] {
            assert_eq!(
                e.in_scenario("abe"),
                CfsError::DeadlineExpired { scenario: "abe".into(), completed: 1 }
            );
        }

        let e = CfsError::InvalidConfig { reason: "zero nodes".into() };
        assert!(e.to_string().contains("zero nodes"));
        assert!(Error::source(&e).is_none());
    }
}

//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§V–§VII), shared between the `cargo bench` targets and the
//! workspace integration tests.
//!
//! Scale: the paper measures 10-second iperf runs, 10 repetitions per
//! direction. The default here is reduced (see [`ExperimentScale`]) so a
//! full `cargo bench` finishes in minutes; set `NETCO_FULL=1` in the
//! environment for paper-scale runs. Simulated time is deterministic, so
//! more repetitions only tighten confidence intervals, never change
//! orderings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod control_chaos;
pub mod experiments;
pub mod grid;
pub mod render;

use netco_sim::SimDuration;

/// How much simulated time / how many repetitions to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Per-measurement duration.
    pub duration: SimDuration,
    /// Repetitions per scenario and direction.
    pub runs: u64,
}

impl ExperimentScale {
    /// The paper's scale: 10 s × 10 runs per direction.
    pub(crate) fn paper() -> ExperimentScale {
        ExperimentScale {
            duration: SimDuration::from_secs(10),
            runs: 10,
        }
    }

    /// A reduced scale for CI and quick iteration: 2 s × 3 runs.
    pub(crate) fn quick() -> ExperimentScale {
        ExperimentScale {
            duration: SimDuration::from_secs(2),
            runs: 3,
        }
    }

    /// A smoke-test scale (fractions of a second).
    pub fn smoke() -> ExperimentScale {
        ExperimentScale {
            duration: SimDuration::from_millis(300),
            runs: 1,
        }
    }

    /// Reads `NETCO_FULL` / `NETCO_SMOKE` from the environment; defaults
    /// to `ExperimentScale::quick`.
    pub fn from_env() -> ExperimentScale {
        if std::env::var_os("NETCO_FULL").is_some() {
            ExperimentScale::paper()
        } else if std::env::var_os("NETCO_SMOKE").is_some() {
            ExperimentScale::smoke()
        } else {
            ExperimentScale::quick()
        }
    }
}

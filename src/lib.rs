//! Umbrella crate for the NetCo reproduction workspace.
//!
//! This package exists to host the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`). The actual functionality
//! lives in the member crates; the most convenient entry points are
//! re-exported here.
//!
//! # Quickstart
//!
//! ```
//! use netco_repro::prelude::*;
//!
//! // Build the paper's reference topology (Fig. 3) with a k = 3 central
//! // combiner and ping across it.
//! let mut scenario = Scenario::build(ScenarioKind::Central3, Profile::default(), 42);
//! let report = scenario.run_ping(PingConfig::default());
//! assert_eq!(report.transmitted, report.received);
//! ```

pub use netco_adversary as adversary;
pub use netco_controller as controller;
pub use netco_core as core;
pub use netco_net as net;
pub use netco_openflow as openflow;
pub use netco_sim as sim;
pub use netco_topo as topo;
pub use netco_traffic as traffic;

/// Convenient re-exports for examples and tests.
pub mod prelude {
    pub use netco_core::{CompareStrategy, Mode};
    pub use netco_sim::{SimDuration, SimTime};
    pub use netco_topo::{Profile, Scenario, ScenarioKind};
    pub use netco_traffic::{IperfConfig, PingConfig, TcpConfig, UdpConfig};
}

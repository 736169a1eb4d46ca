//! Bundled controller applications.

mod byzantine;
mod stats_monitor;

pub use byzantine::{ByzantineApp, ByzantineBehavior};
pub use stats_monitor::FlowStatsMonitor;

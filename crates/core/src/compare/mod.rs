//! The compare element: cache, strategies, voting core and deployments.

mod cache;
mod core;
mod device;
mod host;
mod strategy;

pub use cache::{CacheEntry, Observed, PacketCache};
pub use core::{CompareAction, CompareCore, CompareStats, LaneInfo};
pub use device::Compare;
pub use host::CompareHost;
pub use strategy::{fp128, CompareKey, CompareStrategy};

//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the NetCo reproduction: a minimal,
//! single-threaded, fully deterministic discrete-event kernel. It provides
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`Scheduler`] — a time-ordered event queue with deterministic
//!   tie-breaking (FIFO among simultaneous events),
//! * [`SimRng`] — a seedable, dependency-free PRNG (xoshiro256**), so that
//!   every simulation run is exactly reproducible from its seed,
//! * [`EventLog`] — a timestamped record sink used for traces and security
//!   events.
//!
//! The engine deliberately contains no threading, no wall-clock access and
//! no global state: determinism is a design requirement (see `DESIGN.md §4`),
//! because the paper's experiments must be replayable bit-for-bit.
//!
//! # Example
//!
//! ```
//! use netco_sim::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule_after(SimDuration::from_millis(2), "second");
//! sched.schedule_after(SimDuration::from_millis(1), "first");
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::ZERO + SimDuration::from_millis(1), "first"));
//! let (_, e2) = sched.pop().unwrap();
//! assert_eq!(e2, "second");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
mod log;
mod rng;
mod scheduler;
mod time;
mod window;

pub use log::{EventLog, Timestamped};
pub use rng::{mix64, SimRng};
pub use scheduler::{Scheduler, Tick};
pub use time::{SimDuration, SimTime};
pub use window::ActivationWindow;

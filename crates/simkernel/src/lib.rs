//! Discrete-event simulation kernel used by every layer of the `jas2004`
//! full-system simulator.
//!
//! The kernel provides five things and nothing else:
//!
//! * **Simulated time** ([`SimTime`], [`SimDuration`]) — nanosecond-resolution
//!   newtypes so wall-clock and simulated time can never be confused.
//! * **A wake-up heap** ([`WakeHeap`]) — the event-driven engine scheduler's
//!   deterministic min-heap of `(tick, component, seq)` wake-ups, with lazy
//!   invalidation and a canonical checkpoint form.
//! * **Deterministic randomness** ([`Rng`]) and the distributions the
//!   workload model needs ([`dist`]).
//! * **Deterministic containers** ([`DetMap`], [`DetSet`]) — key-ordered
//!   replacements for `HashMap`/`HashSet` in simulation state, so iteration
//!   order can never leak into counters (lint rule D001).
//! * **State snapshots** ([`snapshot`]: [`Persist`], [`StateIo`], [`Saver`],
//!   [`Loader`]) — one visitor walks every piece of live state to save,
//!   load or digest it.
//!
//! Everything is single-threaded and bit-reproducible: the same seed and
//! configuration always produce the same simulation, which is what lets the
//! figure-reproduction tests assert quantitative bands.
//!
//! # Example
//!
//! ```
//! use jas_simkernel::WakeHeap;
//!
//! let mut wakes = WakeHeap::new();
//! wakes.register(2, 40); // component 2 wakes at quantum 40
//! wakes.register(1, 40); // ties break on the component id
//! wakes.register(2, 10); // a re-registration supersedes the old tick
//! assert_eq!(wakes.next_wake(), Some(10));
//! assert_eq!(wakes.take_due(39), 1);
//! assert_eq!(wakes.next_wake(), Some(40));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod det;
pub mod dist;
#[cfg(test)]
mod proptests;
mod rng;
pub mod snapshot;
mod time;
mod wake;

pub use det::{DetMap, DetSet};
pub use rng::Rng;
pub use snapshot::{Loader, Persist, Saver, StateIo};
pub use time::{SimDuration, SimTime};
pub use wake::{ComponentId, WakeHeap};

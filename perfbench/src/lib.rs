//! The host-performance benchmark of record for the `jas2004` simulator.
//!
//! It runs three named workloads through the public `jas2004` /
//! `jas-cluster` API, times them from outside, and checks the simulated
//! outputs. `perfbench/README.md` documents the workloads, metrics and
//! the layer → metric → workload map.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod kernels;
pub mod run;
pub mod workloads;

pub use run::{run_rep, Counts, HpmRatios, Layers, Rep};
pub use workloads::{Setup, Workload, PARALLEL_THREADS, PROJECT_SEED, STEADY40_HPM_DIGEST};

/// Median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

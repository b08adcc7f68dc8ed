//! Experiment front-end: paper-figure presentation.
//!
//! The orchestration machinery — job model, worker pool, capture cache,
//! machine-readable results and their decoder — lives in the `drs-harness`
//! crate. This crate keeps what is specific to *presenting* the paper's
//! evaluation: the `experiments` binary (one mode per paper table/figure,
//! see [`cli`]), the measured figures as data ([`figure`]: Fig. 2, 8, 9,
//! 10, 11 and Table 2 computed once from [`Cells`], whether the cells come
//! from a run in memory or from its results JSON, over the grid axes
//! [`drs_harness::figures`] defines), and the `RESULTS.md` renderer
//! ([`report`]), which formats those same figures as markdown with a
//! verdict per figure. RESULTS.md is the one place measured numbers are
//! written down. Timing the simulator itself is the job of the benchmark
//! package under `src/bin/benchmark`.
//!
//! Scaling knobs, resolved once per process by
//! [`drs_harness::Scale::from_env`]: `DRS_RAYS` (rays captured per
//! bounce, default 24000; the paper traces 2 000 000), `DRS_TRIS_SCALE`
//! (triangles as a fraction of the original asset, default 0.1) and
//! `DRS_WARPS_SCALE` (resident warps, default 1.0 = the paper's 48/58/60).

#![warn(missing_docs)]

pub mod cli;
pub mod figure;
pub mod report;

pub use figure::{Aggregate, Cells};

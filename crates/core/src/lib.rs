//! Dynamic Ray Shuffling (DRS): the paper's proposed hardware.
//!
//! DRS attaches a small control unit to a GPU streaming multiprocessor that
//! eliminates the dominant warp divergence of ray-tracing kernels by acting
//! on the *data* side instead of the control side: live rays (whose state
//! fits in architectural registers) are organized into logical *rows* of the
//! register file, a **ray-state table** tracks each ray's traversal state
//! (fetching / inner / leaf), **warp renaming** lets any warp operate on any
//! row, and a **swap engine** moves ray registers between rows through idle
//! register-file bank ports so that rows become state-uniform.
//!
//! When a warp issues the `rdctrl` instruction, the DRS control either
//! confirms the warp's current row (if its occupied slots share one state),
//! renames the warp to a uniform row, or stalls the warp until shuffling
//! produces one. The returned `trav_ctrl_val` then steers the while-if
//! kernel into the matching body with (nearly) all lanes active.
//!
//! This crate provides:
//!
//! - [`DrsUnit`] / [`DrsConfig`] — the DRS control implementing the
//!   simulator's `SpecialUnit` interface, including the backup-row,
//!   extra-register-bank and swap-buffer parameters studied in the paper's
//!   sensitivity experiments (Figures 8, 9 and Table 2), plus the
//!   idealized zero-cost shuffling variant,
//! - [`overhead`] — the storage/area accounting of the paper's §4.5,
//! - [`DrsSystem`](system::DrsSystem) — a convenience wrapper binding the
//!   while-if kernel, the DRS unit and a GPU configuration together.

#![warn(missing_docs)]

mod drs;
pub mod overhead;
pub mod system;

pub use drs::{DrsConfig, DrsUnit, RowSummary, MAX_ROWS, RAY_REGISTERS};

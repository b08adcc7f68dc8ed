//! A cycle-level SIMT GPU core simulator.
//!
//! This crate models one streaming multiprocessor (SMX) of a Kepler-class
//! GPU at cycle granularity — the simulation substrate standing in for the
//! execution-driven simulator used by the paper. It models:
//!
//! - **warps** executing micro-op programs under an IPDOM SIMT
//!   reconvergence stack,
//! - **four greedy-then-oldest (GTO) warp schedulers** with dual-issue
//!   dispatch (eight instructions per cycle peak),
//! - an in-order **register scoreboard** per warp,
//! - a **banked register file** whose per-cycle port usage is visible to
//!   attached hardware units (the DRS swap engine steals idle ports),
//! - **L1 data / L1 texture / L2 caches** with MSHR merging and a flat DRAM
//!   latency, fed by a per-warp memory coalescer,
//! - **statistics** matching the paper's reporting: the W*m*:*n* active-lane
//!   issue histogram, SIMD efficiency, stall and cache counters,
//! - **telemetry hooks**: an attachable [`TelemetrySink`] receives a
//!   per-cycle charge of every warp to one [`StallBucket`] (stall
//!   attribution) plus live counter snapshots; with no sink attached the
//!   hot loop does zero attribution work and results are bit-identical.
//!
//! Kernels are expressed as [`Program`]s of basic blocks of [`MicroOp`]s.
//! Per-lane branch outcomes and memory addresses are *oracle-driven*: each
//! lane holds a cursor into a captured ray traversal script
//! (see `drs-trace`), and the kernel's [`KernelBehavior`] implementation
//! interprets condition/address/effect tokens against that cursor. This is
//! the trace-driven methodology the paper itself uses ("we streamed traces
//! of rays captured from PBRT and fed these traces to ray tracing kernels").
//!
//! Hardware proposals (DRS, DMK, TBC) plug in as [`SpecialUnit`]s: they see
//! every `Special` micro-op issue attempt (e.g. `rdctrl`), can stall the
//! warp, remap lanes to ray slots, and get a per-cycle `tick` with access to
//! idle register-file bank ports.

#![warn(missing_docs)]

mod banks;
mod behavior;
mod cache;
mod config;
mod energy;
mod engine;
mod error;
mod isa;
mod json;
mod program;
mod state;
mod stats;
mod telemetry;

pub use banks::RegisterBanks;
pub use behavior::{eval_cond_lanes, KernelBehavior, NullSpecial, SpecialOutcome, SpecialUnit};
pub use cache::{Cache, CacheConfig, CacheStats, MemoryHierarchy};
pub use config::{
    ChipConfig, ChipConfigError, GpuConfig, SchedulerPolicy, L2_TOTAL_BYTES,
    MAX_WARPS_PER_SCHEDULER,
};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use engine::{PortRequest, Simulation, TRACKED_REGS};
pub use error::{FrameDump, SimError, SimErrorKind, WarpDump, WarpDumpEntry};
pub use isa::{MemSpace, MicroOp, OpKind, OpTag, Reg};
pub use json::JsonBuf;
pub use program::{Block, BlockId, Program, Terminator};
pub use state::{MachineState, RayQueue, RayRef, RaySlot, RayState, NO_POSTPONED, NO_SLOT};
pub use stats::{ActiveHistogram, SimStats};
pub use telemetry::{
    ChipDramCharge, ChipRequestEvent, ChipTelemetrySink, ChipTopology, CycleSnapshot, StallBucket,
    TelemetrySink, CHIP_TIME_Q, NUM_STALL_BUCKETS,
};

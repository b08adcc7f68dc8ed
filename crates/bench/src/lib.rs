//! Experiment front-end: paper-figure presentation.
//!
//! The orchestration machinery — job model, worker pool, capture cache,
//! machine-readable results — lives in the `drs-harness` crate. This crate
//! keeps what is specific to *presenting* the paper's evaluation: the
//! `experiments` binary (one mode per paper table/figure, see [`cli`]) and
//! the `RESULTS.md` renderer ([`report`]). Timing the simulator itself is
//! the job of the benchmark package under `src/bin/benchmark`.
//!
//! Scaling knobs (environment variables, resolved once per process via
//! [`drs_harness::Scale::from_env`]):
//!
//! - `DRS_RAYS` — rays captured per bounce (default 24000; the paper uses
//!   2 000 000 per bounce on a hardware-speed simulator),
//! - `DRS_TRIS_SCALE` — scene triangle count as a fraction of the original
//!   asset (default 0.1),
//! - `DRS_WARPS_SCALE` — scales the resident-warp counts (default 1.0 =
//!   the paper's 48/58/60 warps).

#![warn(missing_docs)]

pub mod cli;
pub mod report;

use drs_sim::{GpuConfig, SimStats};

/// Aggregate outcome across bounces: total rays / total cycles, and a
/// merged issue histogram — the paper's "overall" rows.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Total rays traced.
    pub rays: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Merged normal-issue histogram.
    pub issued: drs_sim::ActiveHistogram,
    /// Merged SI histogram.
    pub issued_si: drs_sim::ActiveHistogram,
}

impl Aggregate {
    /// Fold one bounce's stats in.
    pub fn add(&mut self, stats: &SimStats) {
        self.rays += stats.rays_completed;
        self.cycles += stats.cycles;
        self.issued.merge(&stats.issued);
        self.issued_si.merge(&stats.issued_si);
    }

    /// Overall Mrays/s at the whole-GPU scale.
    pub fn mrays(&self, gpu: &GpuConfig) -> f64 {
        self.mrays_at(gpu.clock_mhz, gpu.smx_count)
    }

    /// Overall Mrays/s with an explicit SMX scale factor: the GPU's
    /// `smx_count` for single-SMX cells, 1 for full-chip aggregates
    /// (whose rays are already summed across every SM).
    pub fn mrays_at(&self, clock_mhz: u32, smx_count: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.rays as f64 / self.cycles as f64 * f64::from(clock_mhz) * smx_count as f64
    }

    /// Overall SIMD efficiency including SI instructions.
    pub fn simd_efficiency(&self) -> f64 {
        let mut all = self.issued;
        all.merge(&self.issued_si);
        all.simd_efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_accumulates() {
        let mut a = SimStats { rays_completed: 100, cycles: 1000, ..SimStats::default() };
        a.issued.record(32);
        a.issued.record(32);
        let mut b = SimStats { rays_completed: 50, cycles: 500, ..SimStats::default() };
        b.issued.record(16);
        b.issued_si.record(8);

        let mut agg = Aggregate::default();
        assert_eq!(agg.mrays(&GpuConfig::gtx780()), 0.0, "no cycles, no throughput");
        agg.add(&a);
        agg.add(&b);
        assert_eq!((agg.rays, agg.cycles), (150, 1500));
        assert_eq!((agg.issued.total, agg.issued_si.total), (3, 1));
        let gpu = GpuConfig::gtx780();
        let expected = 0.1 * f64::from(gpu.clock_mhz) * gpu.smx_count as f64;
        assert!((agg.mrays(&gpu) - expected).abs() < 1e-9);
        assert!((agg.mrays_at(gpu.clock_mhz, 1) - 0.1 * f64::from(gpu.clock_mhz)).abs() < 1e-9);
        // (32 + 32 + 16 + 8) active lanes over 4 issues of 32.
        assert_eq!(agg.simd_efficiency(), 88.0 / 128.0);
    }
}

//! Convenience wrapper: while-if kernel + DRS unit + GPU config.

use crate::drs::{DrsConfig, DrsUnit};
use drs_kernels::WhileIfKernel;
use drs_sim::{GpuConfig, KernelBehavior, MachineState, SimError, SimStats, Simulation};
use drs_trace::RayScript;

/// The while-if kernel re-dimensioned for a DRS slot pool of
/// `rows × lanes` (rather than one slot per resident thread).
#[derive(Debug, Clone)]
pub struct RowedWhileIf {
    kernel: WhileIfKernel,
    rows: usize,
}

impl RowedWhileIf {
    /// Wrap the kernel for `rows` logical ray rows.
    pub fn new(rows: usize) -> RowedWhileIf {
        RowedWhileIf { kernel: WhileIfKernel::new(), rows }
    }
}

impl KernelBehavior for RowedWhileIf {
    fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
        self.kernel.eval_cond(token, warp, lane, m)
    }

    fn eval_cond_mask(&self, token: u16, warp: usize, mask: u32, m: &MachineState<'_>) -> u32 {
        self.kernel.eval_cond_mask(token, warp, mask, m)
    }

    fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
        self.kernel.eval_addr(token, warp, lane, m)
    }

    fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
        self.kernel.apply_effect(token, warp, lane, m);
    }

    fn slot_count(&self, _warps: usize, lanes: usize) -> usize {
        self.rows * lanes
    }

    fn initialize(&self, m: &mut MachineState<'_>) {
        self.kernel.initialize(m);
    }
}

/// A fully wired DRS system ready to simulate a ray stream.
#[derive(Debug, Clone)]
pub struct DrsSystem {
    /// GPU core configuration.
    pub gpu: GpuConfig,
    /// DRS hardware configuration.
    pub drs: DrsConfig,
}

impl DrsSystem {
    /// The paper's recommended configuration on the Table 1 GPU: one
    /// backup row, six swap buffers, no extra register bank → 58 warps.
    pub fn paper_default() -> DrsSystem {
        let drs = DrsConfig::paper_default();
        let gpu = GpuConfig { max_warps: drs.warps, ..GpuConfig::gtx780() };
        DrsSystem { gpu, drs }
    }

    /// A DRS system with explicit warp count and DRS parameters.
    ///
    /// # Panics
    ///
    /// Panics if `drs.warps` disagrees with `gpu.max_warps`.
    pub fn new(gpu: GpuConfig, drs: DrsConfig) -> DrsSystem {
        assert_eq!(gpu.max_warps, drs.warps, "warp counts must agree");
        DrsSystem { gpu, drs }
    }

    /// Simulate one ray stream to completion. Fails with a typed
    /// [`SimError`] (cycle cap, watchdog, deadline or invariant violation)
    /// carrying the partial statistics.
    pub fn simulate(&self, scripts: &[RayScript]) -> Result<SimStats, SimError> {
        let kernel = WhileIfKernel::new();
        let behavior = RowedWhileIf::new(self.drs.rows());
        let unit = DrsUnit::new(self.drs);
        Simulation::new(
            self.gpu.clone(),
            kernel.program(),
            Box::new(behavior),
            Box::new(unit),
            scripts,
        )
        .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_trace::{Step, Termination};

    fn scripts(n: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                RayScript::new(
                    (0..3 + i % 5)
                        .map(|k| Step::Inner {
                            node_addr: 0x1000_0000 + ((i + k * 9) % 512) as u64 * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect()
    }

    #[test]
    fn paper_default_is_58_warps_61_rows() {
        let sys = DrsSystem::paper_default();
        assert_eq!(sys.gpu.max_warps, 58);
        assert_eq!(sys.drs.rows(), 61);
    }

    #[test]
    fn small_system_simulates_to_completion() {
        let sys = DrsSystem::new(
            GpuConfig { max_warps: 4, max_cycles: 50_000_000, ..GpuConfig::gtx780() },
            DrsConfig { warps: 4, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let stats = sys.simulate(&scripts(300)).expect("completes");
        assert_eq!(stats.rays_completed, 300);
    }

    #[test]
    #[should_panic]
    fn mismatched_warp_counts_panic() {
        DrsSystem::new(
            GpuConfig { max_warps: 8, ..GpuConfig::gtx780() },
            DrsConfig { warps: 4, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
    }
}

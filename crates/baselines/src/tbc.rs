//! Thread Block Compaction (TBC): block-synchronized, lane-aligned
//! thread compaction.
//!
//! Warps of a thread block share a block-wide reconvergence stack: at each
//! divergence point every warp of the block synchronizes, then threads
//! taking the same path are compacted into as few warps as possible —
//! *within their SIMD lane* (a thread in lane 3 can only move to lane 3 of
//! another warp, because the register file is addressed per lane). No ray
//! data moves; only the thread→warp mapping changes.
//!
//! The two structural limits the paper highlights both emerge here: the
//! block-wide synchronization adds latency (small blocks keep it bounded,
//! which in turn bounds the compaction opportunity), and lane alignment
//! leaves residual divergence that unconstrained schemes (DMK, DRS) avoid.

use drs_kernels::{CTRL_EXIT, CTRL_TRAV_BOTH, TOKEN_RDCTRL};
use drs_sim::{MachineState, RayState, SimStats, SpecialOutcome, SpecialUnit};

/// Configuration of the TBC compactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbcConfig {
    /// Resident warps.
    pub warps: usize,
    /// Lanes per warp.
    pub lanes: usize,
    /// Warps per thread block (the paper configures 6, following the TBC
    /// paper's own setup).
    pub warps_per_block: usize,
}

impl TbcConfig {
    /// The paper's configuration: 6-warp blocks.
    pub fn paper_default(warps: usize) -> TbcConfig {
        TbcConfig { warps, lanes: 32, warps_per_block: 6 }
    }

    /// Number of blocks (the last may be short).
    pub fn blocks(&self) -> usize {
        self.warps.div_ceil(self.warps_per_block)
    }

    /// The warps belonging to `block`.
    pub fn block_warps(&self, block: usize) -> std::ops::Range<usize> {
        let lo = block * self.warps_per_block;
        lo..(lo + self.warps_per_block).min(self.warps)
    }
}

/// Per-block synchronization state.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// Round counter per member warp (index within the block).
    rounds: Vec<u64>,
    /// Member warps that have received `CTRL_EXIT`.
    done: Vec<bool>,
    /// Last round at which the block compacted.
    last_compact: u64,
}

impl BlockState {
    /// Round of the block's slowest live warp (0 once all are done).
    fn min_round(&self) -> u64 {
        self.rounds.iter().zip(&self.done).filter(|&(_, &d)| !d).map(|(&r, _)| r).min().unwrap_or(0)
    }

    /// Live warps held back by the round window.
    fn held_back(&self) -> u64 {
        let min_round = self.min_round();
        self.rounds
            .iter()
            .zip(&self.done)
            .filter(|&(&r, &d)| !d && r >= min_round + TbcUnit::ROUND_WINDOW)
            .count() as u64
    }
}

/// The TBC compaction unit.
///
/// The block-wide reconvergence stack is modelled as *round lockstep with
/// slack*: a warp may run at most [`TbcUnit::ROUND_WINDOW`] loop rounds
/// ahead of the slowest warp of its block (stalling otherwise — the
/// synchronization latency the paper identifies), and once per round the
/// block's threads are compacted lane-aligned by traversal state.
#[derive(Debug)]
pub struct TbcUnit {
    cfg: TbcConfig,
    blocks: Vec<BlockState>,
    /// Warps held back by the round window, summed over all blocks. Round
    /// counters change only on a proceeding `rdctrl`, which refreshes it.
    held_back: u64,
}

impl TbcUnit {
    /// How many rounds a warp may run ahead of its block's slowest warp.
    pub const ROUND_WINDOW: u64 = 6;

    /// Build the unit.
    pub fn new(cfg: TbcConfig) -> TbcUnit {
        TbcUnit {
            cfg,
            blocks: (0..cfg.blocks())
                .map(|b| BlockState {
                    rounds: vec![0; cfg.block_warps(b).len()],
                    done: vec![false; cfg.block_warps(b).len()],
                    last_compact: 0,
                })
                .collect(),
            held_back: 0,
        }
    }

    fn block_of(&self, warp: usize) -> usize {
        warp / self.cfg.warps_per_block
    }

    /// Lane-aligned compaction of `block`: for each lane, stack the block's
    /// slots by state and re-deal them to warps in order.
    fn compact(&self, block: usize, m: &mut MachineState<'_>) {
        let warps: Vec<usize> = self.cfg.block_warps(block).collect();
        let state_rank = |s: RayState| match s {
            RayState::Inner => 0u8,
            RayState::Leaf => 1,
            _ => 2,
        };
        // Reorder slot assignments lane by lane (thread movement only — no
        // ray data moves, which is TBC's key cost advantage over DMK).
        for lane in 0..self.cfg.lanes {
            let mut slots: Vec<usize> = warps.iter().filter_map(|&w| m.slot_of(w, lane)).collect();
            slots.sort_by_key(|&s| state_rank(m.state_cache[s]));
            for (w, s) in warps.iter().zip(slots) {
                m.map_lane(*w, lane, Some(s));
            }
        }
    }

    /// Control decision for one warp: TBC's block-wide stack executes all
    /// phases under lane masks, so a live warp always runs the combined
    /// pass; it exits only when neither it nor the queue has work.
    fn warp_ctrl(&self, warp: usize, m: &MachineState<'_>) -> u32 {
        let has_rays = (0..self.cfg.lanes)
            .any(|l| m.slot_of(warp, l).is_some_and(|s| m.slots[s].ray.is_some()));
        if has_rays || !m.queue.is_empty() {
            CTRL_TRAV_BOTH
        } else {
            CTRL_EXIT
        }
    }
}

impl SpecialUnit for TbcUnit {
    fn issue(
        &mut self,
        warp: usize,
        token: u16,
        m: &mut MachineState<'_>,
        _stats: &mut SimStats,
    ) -> SpecialOutcome {
        debug_assert_eq!(token, TOKEN_RDCTRL);
        let b = self.block_of(warp);
        let idx = warp - self.cfg.block_warps(b).start;
        // Round lockstep: stall a warp that would run too far ahead of the
        // slowest live warp in its block.
        let min_round = self.blocks[b].min_round();
        if self.blocks[b].rounds[idx] >= min_round + Self::ROUND_WINDOW {
            return SpecialOutcome::Stall;
        }
        // Once per round, the block compacts (lane-aligned thread remap).
        if min_round > self.blocks[b].last_compact || self.blocks[b].last_compact == 0 {
            self.blocks[b].last_compact = min_round + 1;
            self.compact(b, m);
        }
        let ctrl = self.warp_ctrl(warp, m);
        // A warp only exits when its whole block has drained, so its lanes
        // stay available for compaction until the end.
        let block_live = self.cfg.block_warps(b).any(|w| {
            (0..self.cfg.lanes).any(|l| m.slot_of(w, l).is_some_and(|s| m.slots[s].ray.is_some()))
        }) || !m.queue.is_empty();
        let ctrl = if ctrl == CTRL_EXIT && block_live { CTRL_TRAV_BOTH } else { ctrl };
        let held_before = self.blocks[b].held_back();
        if ctrl == CTRL_EXIT {
            self.blocks[b].done[idx] = true;
        }
        self.blocks[b].rounds[idx] += 1;
        self.held_back = self.held_back - held_before + self.blocks[b].held_back();
        SpecialOutcome::Proceed { ctrl }
    }

    fn tick(
        &mut self,
        _cycle: u64,
        _idle: &[bool],
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        let _ = m;
        // Synchronization accounting: a warp-cycle of waiting for every
        // warp currently held back by the round window.
        stats.sync_wait_cycles += self.held_back;
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // The tick accrues `sync_wait_cycles` for every warp currently held
        // back by the round window; round counters only change on `rdctrl`
        // issue, so the per-cycle accrual is constant across a no-issue
        // span. If any warp is accruing, the tick must run every cycle
        // (no skipping); otherwise the tick is a pure no-op.
        (self.held_back > 0).then_some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_kernels::WhileIfKernel;
    use drs_sim::{GpuConfig, Simulation};
    use drs_trace::{RayScript, Step, Termination};

    fn scripts(n: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                let mut steps = Vec::new();
                for k in 0..2 + (i * 3 % 9) {
                    steps.push(Step::Inner {
                        node_addr: 0x1000_0000 + ((i * 41 + k * 7) % 2048) as u64 * 64,
                        both_children_hit: (i + k) % 4 == 0,
                    });
                    if (i + k) % 3 == 1 {
                        steps.push(Step::Leaf {
                            node_addr: 0x1100_0000 + ((i * 3 + k) % 512) as u64 * 64,
                            prim_base_addr: 0x4000_0000 + ((i + k * 5) % 512) as u64 * 48,
                            prim_count: 1 + ((i + k) % 3) as u16,
                        });
                    }
                }
                RayScript::new(steps, Termination::Hit)
            })
            .collect()
    }

    fn run_tbc(n: usize, warps: usize) -> drs_sim::SimStats {
        let s = scripts(n);
        let kernel = WhileIfKernel::new();
        let cfg = TbcConfig { warps, lanes: 32, warps_per_block: 6.min(warps) };
        let gpu = GpuConfig { max_warps: warps, max_cycles: 150_000_000, ..GpuConfig::gtx780() };
        Simulation::new(
            gpu,
            kernel.program(),
            Box::new(kernel.clone()),
            Box::new(TbcUnit::new(cfg)),
            &s,
        )
        .run()
        .expect("TBC hit the cycle cap")
    }

    #[test]
    fn block_partitioning() {
        let cfg = TbcConfig::paper_default(14);
        assert_eq!(cfg.blocks(), 3);
        assert_eq!(cfg.block_warps(0), 0..6);
        assert_eq!(cfg.block_warps(2), 12..14);
    }

    #[test]
    fn tbc_completes_all_rays() {
        let out = run_tbc(600, 6);
        assert_eq!(out.rays_completed, 600);
    }

    #[test]
    fn tbc_accumulates_sync_wait() {
        let out = run_tbc(600, 6);
        assert!(out.sync_wait_cycles > 0, "block sync must cost something");
    }

    #[test]
    fn tbc_never_moves_ray_data() {
        let out = run_tbc(400, 6);
        assert_eq!(out.swaps_completed, 0);
        assert_eq!(out.swap_accesses, 0);
        assert_eq!(out.issued_si.total, 0, "TBC has no SI instructions");
    }

    #[test]
    fn tbc_handles_partial_last_block() {
        // 8 warps with 6-warp blocks → one full block + one 2-warp block.
        let out = run_tbc(500, 8);
        assert_eq!(out.rays_completed, 500);
    }
}

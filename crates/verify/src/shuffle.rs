//! Shuffle-cost derivation: the exact live register set at every
//! shuffle-eligible point of a kernel program.
//!
//! A dynamic ray shuffle moves a ray's architectural state between lanes'
//! register files, so its cost is the number of registers live at the
//! point where the hardware may swap — the paper hard-codes 17. This pass
//! *derives* that number from the program: shuffle-eligible points are
//! natural-loop headers (where back edges re-enter and the DRS control is
//! consulted between iterations) and declared reconvergence points (where
//! a warp's mask is whole again) — excluding `Exit` blocks, since a ray
//! leaving the kernel has no state left to move. Backward liveness at each
//! such point gives the register set a swap must transfer.
//!
//! The exported [`LiveSetSummary`] also carries the static resource bounds
//! cross-checked at runtime under the `validate` feature: the worst-case
//! SIMT reconvergence-stack depth and the scoreboard in-flight bound.

use crate::cfg::{check_structure, reachable};
use crate::diag::{bname, Check, Diagnostic, Report};
use crate::liveness::{block_pressure, live_sets, regs_in, RegSet};
use crate::loops::{natural_loops, LoopInfo};
use crate::stack::check_stack_discipline;
use drs_sim::{Block, BlockId, Program, Reg, Terminator};

/// One shuffle-eligible program point and the register set live there.
#[derive(Debug, Clone)]
pub struct ShufflePoint {
    /// The block whose entry is the shuffle point.
    pub block: BlockId,
    /// The block's label, for reports.
    pub label: String,
    /// The point is a natural-loop header (a back-edge target).
    pub loop_header: bool,
    /// The point is the declared reconvergence point of a reachable branch.
    pub reconverge: bool,
    /// Registers live at the block's entry.
    pub live: RegSet,
}

impl ShufflePoint {
    /// Number of live registers a shuffle at this point must move.
    pub fn live_count(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// The live registers, ascending.
    pub fn live_regs(&self) -> Vec<Reg> {
        regs_in(self.live)
    }
}

/// Statically derived per-kernel summary: shuffle live sets plus the
/// resource bounds the runtime cross-checks under `validate`.
#[derive(Debug, Clone)]
pub struct LiveSetSummary {
    /// Every shuffle-eligible point, ascending by block id.
    pub points: Vec<ShufflePoint>,
    /// Largest live set over all shuffle points — the register count a
    /// swap transfer must budget for.
    pub max_live: usize,
    /// Smallest live set over all shuffle points.
    pub min_live: usize,
    /// Per-block register pressure (max simultaneously-live registers at
    /// any point inside the block; 0 for unreachable blocks).
    pub pressure: Vec<usize>,
    /// Largest per-block pressure.
    pub max_pressure: usize,
    /// Distinct destination registers over reachable blocks: an upper
    /// bound on scoreboard slots a warp can have in flight at once.
    pub distinct_dsts: usize,
    /// Deepest pending-reconvergence nesting (deduplicated contexts) from
    /// the stack abstract interpretation.
    pub reconverge_nesting: usize,
    /// Some branch re-diverges at an already-pending reconvergence point
    /// (stack growth there is bounded by mask splitting, not nesting).
    pub stack_repeatable: bool,
    /// The stack exploration was truncated; nesting bounds are partial.
    pub stack_truncated: bool,
    /// The program's natural loops (headers, back edges, bodies, nesting).
    pub loops: Vec<LoopInfo>,
}

impl LiveSetSummary {
    /// Registers a swap transfer must move for this kernel: the worst
    /// case over every shuffle-eligible point.
    pub fn transfer_regs(&self) -> usize {
        self.max_live
    }

    /// Sound worst-case engine SIMT-stack depth for a warp of `lanes`
    /// lanes: the base entry plus two entries per pending divergence. A
    /// divergence strictly splits a nonempty mask, so at most
    /// `lanes - 1` divergences can be pending at once; when no
    /// reconvergence point can repeat, the abstract nesting depth is the
    /// tighter structural bound.
    pub fn stack_depth_bound(&self, lanes: usize) -> usize {
        let splits = lanes.saturating_sub(1);
        let pairs = if self.stack_repeatable || self.stack_truncated {
            splits
        } else {
            self.reconverge_nesting.min(splits)
        };
        1 + 2 * pairs
    }
}

/// Compute the live-set summary of a fully-assembled program.
pub fn live_set_summary(program: &Program) -> LiveSetSummary {
    live_set_summary_blocks(program.blocks())
}

/// Compute the live-set summary over raw blocks.
///
/// # Panics
///
/// Panics on a structurally broken program (dangling targets); run
/// [`crate::verify_blocks`] first when the input is untrusted.
pub fn live_set_summary_blocks(blocks: &[Block]) -> LiveSetSummary {
    let mut scratch = Report::default();
    assert!(
        check_structure(blocks, &mut scratch),
        "live_set_summary requires a structurally valid program:\n{scratch}"
    );
    let reach = reachable(blocks);
    let live = live_sets(blocks, &reach);
    let loops = natural_loops(blocks, &reach);
    let bounds = check_stack_discipline(blocks, &mut scratch);

    let mut headers = vec![false; blocks.len()];
    for l in &loops {
        headers[l.header as usize] = true;
    }
    let mut reconv = vec![false; blocks.len()];
    for (i, b) in blocks.iter().enumerate() {
        if reach[i] {
            if let Terminator::Branch { reconverge, .. } = b.terminator {
                reconv[reconverge as usize] = true;
            }
        }
    }

    let mut points = Vec::new();
    for (i, b) in blocks.iter().enumerate() {
        if !reach[i] || matches!(b.terminator, Terminator::Exit) {
            continue; // a ray at exit has no state left to move
        }
        if headers[i] || reconv[i] {
            points.push(ShufflePoint {
                block: i as BlockId,
                label: b.label.to_string(),
                loop_header: headers[i],
                reconverge: reconv[i],
                live: live.entry[i],
            });
        }
    }

    let pressure: Vec<usize> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| if reach[i] { block_pressure(b, live.exit[i]) } else { 0 })
        .collect();
    let max_pressure = pressure.iter().copied().max().unwrap_or(0);
    let mut dsts: RegSet = 0;
    for (i, b) in blocks.iter().enumerate() {
        if reach[i] {
            for op in &b.ops {
                if let Some(d) = op.dst {
                    dsts |= crate::liveness::reg_bit(d);
                }
            }
        }
    }

    LiveSetSummary {
        max_live: points.iter().map(ShufflePoint::live_count).max().unwrap_or(0),
        min_live: points.iter().map(ShufflePoint::live_count).min().unwrap_or(0),
        points,
        pressure,
        max_pressure,
        distinct_dsts: dsts.count_ones() as usize,
        reconverge_nesting: bounds.max_context,
        stack_repeatable: bounds.repeatable,
        stack_truncated: bounds.truncated,
        loops,
    }
}

/// Diff every shuffle point's live-register count against `expected`
/// (the kernel's declared per-ray state, e.g. `RAY_LIVE_REGISTERS`),
/// pushing a [`Check::ShuffleLiveMismatch`] error per mismatching point.
pub fn check_shuffle_live(blocks: &[Block], expected: usize, report: &mut Report) {
    let summary = live_set_summary_blocks(blocks);
    for p in &summary.points {
        let got = p.live_count();
        if got != expected {
            report.push(Diagnostic::new(
                Check::ShuffleLiveMismatch,
                Some(p.block),
                format!(
                    "{} is shuffle-eligible ({}) with {got} live registers ({:?}), but the \
                     kernel declares {expected} live registers per ray",
                    bname(blocks, p.block),
                    match (p.loop_header, p.reconverge) {
                        (true, true) => "loop header and reconvergence point",
                        (true, false) => "loop header",
                        _ => "reconvergence point",
                    },
                    p.live_regs(),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::{MemSpace, MicroOp};

    /// head 0 branches {1, 2}; body 1 jumps back (back edge); 2 exits.
    /// r5/r6 are loop-carried, r7 only feeds the exit store.
    fn loop_blocks() -> Vec<Block> {
        vec![
            Block::new(
                "head",
                vec![MicroOp::alu(7, &[5], 1)],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            Block::new("body", vec![MicroOp::alu(5, &[5, 6], 1)], Terminator::Jump(0)),
            Block::new("exit", vec![MicroOp::store(MemSpace::Global, 0, &[7])], Terminator::Exit),
        ]
    }

    #[test]
    fn loop_header_live_set_derived() {
        let summary = live_set_summary_blocks(&loop_blocks());
        // Shuffle points: the loop header (0). The exit block is the
        // declared reconvergence point but carries no state to move.
        assert_eq!(summary.points.len(), 1);
        let p = &summary.points[0];
        assert_eq!(p.block, 0);
        assert!(p.loop_header);
        assert_eq!(p.live_regs(), vec![5, 6]);
        assert_eq!(summary.max_live, 2);
        assert_eq!(summary.min_live, 2);
    }

    #[test]
    fn exit_blocks_are_never_shuffle_points() {
        let summary = live_set_summary_blocks(&loop_blocks());
        assert!(summary.points.iter().all(|p| p.block != 2));
    }

    #[test]
    fn check_flags_mismatch_and_accepts_match() {
        let blocks = loop_blocks();
        let mut ok = Report::default();
        check_shuffle_live(&blocks, 2, &mut ok);
        assert!(ok.is_clean() && ok.diagnostics.is_empty(), "{ok}");
        let mut bad = Report::default();
        check_shuffle_live(&blocks, 17, &mut bad);
        assert!(bad.has(Check::ShuffleLiveMismatch));
        assert!(!bad.is_clean());
    }

    #[test]
    fn stack_depth_bound_uses_nesting_when_not_repeatable() {
        // One diamond, no loops: nesting 1, not repeatable.
        let blocks = vec![
            Block::new(
                "entry",
                vec![MicroOp::alu(1, &[], 1)],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            Block::new("body", vec![MicroOp::alu(1, &[1], 1)], Terminator::Jump(2)),
            Block::new("exit", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
        ];
        let summary = live_set_summary_blocks(&blocks);
        assert_eq!(summary.reconverge_nesting, 1);
        assert!(!summary.stack_repeatable);
        assert_eq!(summary.stack_depth_bound(32), 3);
        // Degenerate single-lane warps never diverge.
        assert_eq!(summary.stack_depth_bound(1), 1);
    }

    #[test]
    fn stack_depth_bound_falls_back_to_lane_splitting_for_loops() {
        // The loop's body re-diverges at its own pending reconvergence
        // point, so the bound comes from mask splitting.
        let summary = live_set_summary_blocks(&loop_blocks());
        assert!(summary.stack_repeatable);
        assert_eq!(summary.stack_depth_bound(32), 63);
        assert_eq!(summary.stack_depth_bound(8), 15);
    }

    #[test]
    fn pressure_and_scoreboard_bounds() {
        let summary = live_set_summary_blocks(&loop_blocks());
        // head: live-out {5,6,7}; before the op {5,6} — pressure 3.
        assert_eq!(summary.pressure[0], 3);
        assert!(summary.max_pressure >= 3);
        // Writes: r7 (head), r5 (body) — two distinct destinations.
        assert_eq!(summary.distinct_dsts, 2);
        assert_eq!(summary.loops.len(), 1);
        assert_eq!(summary.loops[0].header, 0);
    }
}

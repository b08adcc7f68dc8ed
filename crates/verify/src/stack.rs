//! SIMT reconvergence-stack discipline, checked by abstract interpretation.
//!
//! The abstract state is `(block, context)` where the context is the stack
//! of pending reconvergence points, mirroring the engine's `StackEntry`
//! chain above the base entry. Arriving at a block pops every trailing
//! context entry equal to it (the engine's `settle`). A `Branch` is explored
//! both warp-uniformly (no push, either successor) and divergently (push the
//! declared reconvergence point, both successors), so every mask outcome the
//! hardware could take is covered. Two invariants fall out:
//!
//! - **Non-uniform exit**: reaching `Exit` with a nonempty context means a
//!   divergent subset of the warp would terminate the whole warp while its
//!   sibling lanes still wait at a reconvergence point.
//! - **Bounded stack**: no cycle may push contexts forever; real hardware
//!   has a fixed-depth SIMT stack.

use crate::diag::{bname, Check, Diagnostic, Report};
use drs_sim::{Block, BlockId, Terminator};
use std::collections::HashSet;

/// Cap on explored abstract states; programs here have tens of blocks, so
/// hitting this means pathological context growth, not real size.
const STATE_BUDGET: usize = 200_000;

/// What the abstract interpretation learned about reconvergence-stack
/// shape, beyond the pass/fail diagnostics: inputs to the static
/// stack-depth bound derived in [`crate::shuffle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StackBounds {
    /// Maximum pending-reconvergence context length over every reachable
    /// abstract state — the deepest divergence *nesting* the program
    /// admits (re-divergence parked at the same point is deduplicated).
    pub max_context: usize,
    /// Whether some branch can re-diverge at a reconvergence point
    /// already pending (a loop whose body diverges at its own head): the
    /// engine then parks one stack entry per mask split there, so depth
    /// is bounded by lane splitting rather than by `max_context`.
    pub repeatable: bool,
    /// The exploration hit the state budget and the bounds above cover
    /// only the states visited.
    pub truncated: bool,
}

pub(crate) fn check_stack_discipline(blocks: &[Block], report: &mut Report) -> StackBounds {
    let depth_cap = blocks.len() + 2;
    let mut seen: HashSet<(BlockId, Vec<BlockId>)> = HashSet::new();
    let mut work: Vec<(BlockId, Vec<BlockId>)> = vec![(0, Vec::new())];
    let mut nonuniform_exits: HashSet<BlockId> = HashSet::new();
    let mut unbounded_at: HashSet<BlockId> = HashSet::new();
    let mut truncated = false;
    let mut max_context = 0usize;
    let mut repeatable = false;

    while let Some((block, mut ctx)) = work.pop() {
        // Arrival: pop every pending reconvergence point equal to this block.
        while ctx.last() == Some(&block) {
            ctx.pop();
        }
        if !seen.insert((block, ctx.clone())) {
            continue;
        }
        max_context = max_context.max(ctx.len());
        if seen.len() > STATE_BUDGET {
            truncated = true;
            break;
        }
        match blocks[block as usize].terminator {
            Terminator::Jump(t) => work.push((t, ctx)),
            Terminator::Exit => {
                if !ctx.is_empty() && nonuniform_exits.insert(block) {
                    let pending: Vec<String> =
                        ctx.iter().rev().map(|&r| bname(blocks, r)).collect();
                    report.push(Diagnostic::new(
                        Check::NonUniformExit,
                        Some(block),
                        format!(
                            "{} exits while reconvergence is still pending at {} — a \
                             divergent lane subset would terminate the whole warp",
                            bname(blocks, block),
                            pending.join(", "),
                        ),
                    ));
                }
            }
            Terminator::Branch { on_true, on_false, reconverge, .. } => {
                // Warp-uniform outcomes: all lanes agree, nothing is pushed.
                work.push((on_true, ctx.clone()));
                work.push((on_false, ctx.clone()));
                // Divergent outcome: both paths run under a pushed entry. A
                // reconvergence point already on top of the context is not
                // pushed again: re-diverging inside a loop parks another
                // entry at the *same* point, and hardware bounds those by
                // the shrinking mask — the abstract context treats "one or
                // more parks at r" as a single entry, which the arrival pop
                // clears all at once.
                if ctx.last() == Some(&reconverge) {
                    // Same states as the uniform outcomes above.
                    repeatable = true;
                } else if ctx.len() + 1 > depth_cap {
                    if unbounded_at.insert(block) {
                        report.push(Diagnostic::new(
                            Check::UnboundedStack,
                            Some(block),
                            format!(
                                "divergence at {} grows the reconvergence stack past \
                                 {depth_cap} entries — some cycle pushes without popping",
                                bname(blocks, block),
                            ),
                        ));
                    }
                } else {
                    let mut pushed = ctx.clone();
                    pushed.push(reconverge);
                    work.push((on_true, pushed.clone()));
                    work.push((on_false, pushed));
                }
            }
        }
    }

    if truncated {
        report.push(Diagnostic::new(
            Check::StackAnalysisTruncated,
            None,
            format!(
                "stack abstract interpretation stopped after {STATE_BUDGET} states; \
                 discipline only partially checked"
            ),
        ));
    }
    StackBounds { max_context, repeatable, truncated }
}

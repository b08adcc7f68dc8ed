//! Generic worklist fixpoint solver over the kernel CFG.
//!
//! Every dataflow pass in this crate — liveness, reaching definitions —
//! is an instance of one abstract-interpretation scheme: a
//! join-semilattice of abstract values, a per-block transfer function, and
//! a direction. The solver owns the fixpoint iteration (worklist seeded in
//! a direction-appropriate order, re-queueing only dependents of changed
//! blocks) so each analysis is just a lattice plus a transfer function.
//!
//! Propagation is restricted to blocks marked reachable: an unreachable
//! block neither receives nor contributes values, matching the reporting
//! passes that skip unreachable code. Monotone transfer functions over
//! finite-height lattices terminate; the solver additionally hard-caps
//! iterations as a defense against a non-monotone analysis bug.

use crate::cfg::successors;
use drs_sim::Block;

/// Direction a dataflow analysis propagates information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Values flow from predecessors to successors (e.g. reaching defs).
    Forward,
    /// Values flow from successors to predecessors (e.g. liveness).
    Backward,
}

/// A join-semilattice dataflow analysis solvable by [`solve`].
pub trait Analysis {
    /// The abstract value attached to each program point.
    type Value: Clone + PartialEq;

    /// Which way information flows.
    fn direction(&self) -> Direction;

    /// The lattice's least element (identity of `join`), used to
    /// initialize every block before iteration.
    fn bottom(&self) -> Self::Value;

    /// The value flowing in at the boundary: block 0's input for forward
    /// analyses, every `Exit` block's input for backward analyses.
    fn boundary(&self) -> Self::Value;

    /// Join `from` into `into`; return whether `into` changed.
    fn join(&self, into: &mut Self::Value, from: &Self::Value) -> bool;

    /// The block's transfer function: map the input-edge value to the
    /// output-edge value (entry→exit for forward, exit→entry for
    /// backward).
    fn transfer(&self, block: &Block, id: usize, input: &Self::Value) -> Self::Value;
}

/// A fixpoint: abstract values at every block boundary, in *program*
/// order — `entry[b]` is the value at `b`'s entry and `exit[b]` at its
/// exit regardless of the analysis direction.
#[derive(Debug, Clone)]
pub struct Solution<V> {
    /// Value at each block's entry.
    pub entry: Vec<V>,
    /// Value at each block's exit.
    pub exit: Vec<V>,
    /// Transfer-function applications until the fixpoint stabilized.
    pub iterations: usize,
}

/// Solve `analysis` to fixpoint over `blocks`, propagating only along
/// edges between blocks marked reachable.
///
/// # Panics
///
/// Panics if `reach.len() != blocks.len()`, or if the iteration cap is
/// exceeded (a non-monotone `join`/`transfer` implementation).
pub fn solve<A: Analysis>(analysis: &A, blocks: &[Block], reach: &[bool]) -> Solution<A::Value> {
    assert_eq!(reach.len(), blocks.len(), "reachability mask must cover every block");
    let n = blocks.len();
    let succs: Vec<Vec<usize>> =
        blocks.iter().map(|b| successors(b).into_iter().map(|s| s as usize).collect()).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(i);
        }
    }
    let backward = analysis.direction() == Direction::Backward;
    // sources[b]: blocks whose output feeds b's input.
    // dependents[b]: blocks whose input is refreshed when b's output changes.
    let (sources, dependents) = if backward { (&succs, &preds) } else { (&preds, &succs) };

    let mut input: Vec<A::Value> = vec![analysis.bottom(); n];
    let mut output: Vec<A::Value> = vec![analysis.bottom(); n];
    let mut queued = vec![false; n];
    // Seed in an order that tends to reach fixpoint quickly: program order
    // forward, reverse program order backward (the worklist is a stack).
    let order: Vec<usize> = if backward { (0..n).collect() } else { (0..n).rev().collect() };
    let mut work: Vec<usize> = order.into_iter().filter(|&b| reach[b]).collect();
    for &b in &work {
        queued[b] = true;
    }

    let mut iterations = 0usize;
    // Finite lattices stabilize in O(n * height); this cap only trips on a
    // broken (non-monotone) analysis.
    let cap = 64 * (n + 1) * (n + 1) + 10_000;
    while let Some(b) = work.pop() {
        queued[b] = false;
        iterations += 1;
        assert!(iterations <= cap, "dataflow solver failed to stabilize (non-monotone analysis?)");
        let mut inv = if boundary_block(blocks, b, backward) {
            analysis.boundary()
        } else {
            analysis.bottom()
        };
        for &s in &sources[b] {
            if reach[s] {
                analysis.join(&mut inv, &output[s]);
            }
        }
        let out = analysis.transfer(&blocks[b], b, &inv);
        input[b] = inv;
        if out != output[b] {
            output[b] = out;
            for &d in &dependents[b] {
                if reach[d] && !queued[d] {
                    queued[d] = true;
                    work.push(d);
                }
            }
        }
    }

    // Map direction-relative input/output back to program-order entry/exit.
    if backward {
        Solution { entry: output, exit: input, iterations }
    } else {
        Solution { entry: input, exit: output, iterations }
    }
}

/// Whether `b` receives the boundary value: the entry block for forward
/// analyses, `Exit`-terminated blocks for backward analyses.
fn boundary_block(blocks: &[Block], b: usize, backward: bool) -> bool {
    if backward {
        matches!(blocks[b].terminator, drs_sim::Terminator::Exit)
    } else {
        b == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::reachable;
    use crate::liveness::{live_sets, LivenessAnalysis};
    use drs_sim::{MemSpace, MicroOp, Terminator};

    fn block(label: &'static str, ops: Vec<MicroOp>, t: Terminator) -> Block {
        Block::new(label, ops, t)
    }

    fn set(regs: &[u8]) -> u64 {
        regs.iter().map(|&r| 1u64 << r).fold(0, |a, b| a | b)
    }

    /// Golden fixpoint on a diamond: 0 -> {1,2} -> 3 (exit).
    #[test]
    fn diamond_liveness_fixpoint() {
        let blocks = vec![
            block(
                "entry",
                vec![MicroOp::alu(1, &[], 1)],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 3 },
            ),
            block("a", vec![MicroOp::alu(2, &[1], 1)], Terminator::Jump(3)),
            block("b", vec![MicroOp::alu(2, &[1], 1)], Terminator::Jump(3)),
            block("join", vec![MicroOp::store(MemSpace::Global, 0, &[1, 2])], Terminator::Exit),
        ];
        let reach = reachable(&blocks);
        let live = live_sets(&blocks, &reach);
        assert_eq!(live.entry[0], 0, "nothing is live before its first def");
        assert_eq!(live.entry[1], set(&[1]));
        assert_eq!(live.entry[2], set(&[1]));
        assert_eq!(live.entry[3], set(&[1, 2]));
        assert_eq!(live.exit[3], 0, "nothing is live after exit");
        assert_eq!(live.exit[0], set(&[1]));
    }

    /// Golden fixpoint on a nested loop: outer 0->{1,4}, inner 1->{2,3},
    /// 2->1 (inner back edge), 3->0 (outer back edge), 4 exit.
    #[test]
    fn nested_loop_liveness_fixpoint() {
        let blocks = vec![
            block(
                "outer_head",
                vec![],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 4, reconverge: 4 },
            ),
            block(
                "inner_head",
                vec![],
                Terminator::Branch { cond: 1, on_true: 2, on_false: 3, reconverge: 3 },
            ),
            block("inner_body", vec![MicroOp::alu(5, &[5, 6], 1)], Terminator::Jump(1)),
            block("outer_tail", vec![MicroOp::alu(6, &[6], 1)], Terminator::Jump(0)),
            block("exit", vec![MicroOp::store(MemSpace::Global, 0, &[6])], Terminator::Exit),
        ];
        let reach = reachable(&blocks);
        let live = live_sets(&blocks, &reach);
        // r5 and r6 are loop-carried around both loops; only r6 survives
        // to the exit block's store.
        for b in 0..4 {
            assert_eq!(live.entry[b], set(&[5, 6]), "block {b}");
        }
        assert_eq!(live.entry[4], set(&[6]));
        assert_eq!(live.exit[4], 0);
    }

    /// An unreachable tail must not contribute to (or receive) liveness.
    #[test]
    fn unreachable_tail_is_isolated() {
        let blocks = vec![
            block("entry", vec![MicroOp::alu(1, &[], 1)], Terminator::Jump(1)),
            block("exit", vec![MicroOp::store(MemSpace::Global, 0, &[1])], Terminator::Exit),
            block("orphan", vec![MicroOp::alu(2, &[9], 1)], Terminator::Jump(1)),
        ];
        let reach = reachable(&blocks);
        assert!(!reach[2]);
        let live = live_sets(&blocks, &reach);
        assert_eq!(live.entry[0], 0);
        assert_eq!(live.entry[1], set(&[1]));
        // The orphan's read of r9 must not leak into reachable sets, and
        // the orphan itself stays at bottom.
        assert_eq!(live.entry[2], 0);
        assert_eq!(live.exit[2], 0);
    }

    /// The solver re-queues only dependents, so it must still stabilize
    /// when seeded in the worst order; check a long chain converges with
    /// a bounded iteration count.
    #[test]
    fn chain_converges_quickly() {
        let n = 40u32;
        let mut blocks: Vec<Block> = (0..n - 1)
            .map(|i| block("mid", vec![MicroOp::alu(1, &[1], 1)], Terminator::Jump(i + 1)))
            .collect();
        blocks.push(block(
            "exit",
            vec![MicroOp::store(MemSpace::Global, 0, &[1])],
            Terminator::Exit,
        ));
        let reach = reachable(&blocks);
        let sol = solve(&LivenessAnalysis, &blocks, &reach);
        assert_eq!(sol.entry[0], 1 << 1);
        assert!(sol.iterations <= 3 * n as usize, "took {} iterations", sol.iterations);
    }
}

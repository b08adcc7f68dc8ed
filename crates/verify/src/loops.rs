//! Dominators and natural-loop detection over the kernel CFG: the loop
//! headers are the shuffle-eligible points where back edges re-enter and
//! the DRS control is consulted between iterations.

use crate::cfg::successors;
use drs_sim::{Block, BlockId};

/// One natural loop of the CFG.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Sources of the back edges into `header`.
    pub back_edges: Vec<BlockId>,
    /// Every block of the loop body, ascending (includes the header).
    pub body: Vec<BlockId>,
    /// Nesting depth: 1 for an outermost loop.
    pub depth: usize,
}

/// Dominator sets over reachable blocks: `dom[i]` contains `j` iff every
/// path from entry to `i` passes through `j`.
fn dominators(blocks: &[Block], reach: &[bool]) -> Vec<BlockSet> {
    let n = blocks.len();
    assert!(n <= 128, "dominator bitset holds at most 128 blocks");
    let all: BlockSet = if n == 128 { u128::MAX } else { (1u128 << n) - 1 };
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in blocks.iter().enumerate() {
        if !reach[i] {
            continue;
        }
        for s in successors(b) {
            preds[s as usize].push(i);
        }
    }
    let mut dom: Vec<BlockSet> = vec![all; n];
    dom[0] = 1;
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..n {
            if !reach[i] {
                continue;
            }
            let mut new = all;
            let mut any = false;
            for &p in &preds[i] {
                if reach[p] {
                    new &= dom[p];
                    any = true;
                }
            }
            if !any {
                new = 0;
            }
            new |= 1u128 << i;
            if new != dom[i] {
                dom[i] = new;
                changed = true;
            }
        }
    }
    dom
}

/// Bitset over block ids (programs here have tens of blocks).
type BlockSet = u128;

/// Find the natural loops of the CFG (reachable blocks only): each back
/// edge `u -> h` where `h` dominates `u` contributes the set of blocks
/// that can reach `u` without passing through `h`. Back edges sharing a
/// header are merged into one loop.
pub(crate) fn natural_loops(blocks: &[Block], reach: &[bool]) -> Vec<LoopInfo> {
    let n = blocks.len();
    if n == 0 || n > 128 {
        return Vec::new();
    }
    let dom = dominators(blocks, reach);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in blocks.iter().enumerate() {
        if !reach[i] {
            continue;
        }
        for s in successors(b) {
            preds[s as usize].push(i);
        }
    }
    // Collect back edges per header.
    let mut by_header: Vec<(usize, Vec<usize>)> = Vec::new();
    for (u, b) in blocks.iter().enumerate() {
        if !reach[u] {
            continue;
        }
        for h in successors(b) {
            let h = h as usize;
            if dom[u] & (1u128 << h) != 0 {
                match by_header.iter_mut().find(|(hdr, _)| *hdr == h) {
                    Some((_, edges)) => edges.push(u),
                    None => by_header.push((h, vec![u])),
                }
            }
        }
    }
    by_header.sort_by_key(|(h, _)| *h);
    let mut loops: Vec<LoopInfo> = Vec::new();
    for (h, edges) in &by_header {
        // Natural-loop body: h plus everything reaching a back-edge source
        // backward without crossing h.
        let mut in_body = vec![false; n];
        in_body[*h] = true;
        let mut work: Vec<usize> = edges.clone();
        while let Some(u) = work.pop() {
            if std::mem::replace(&mut in_body[u], true) {
                continue;
            }
            work.extend(preds[u].iter().copied());
        }
        let body: Vec<BlockId> = (0..n).filter(|&i| in_body[i]).map(|i| i as BlockId).collect();
        loops.push(LoopInfo {
            header: *h as BlockId,
            back_edges: edges.iter().map(|&u| u as BlockId).collect(),
            body,
            depth: 0, // filled below
        });
    }
    // Depth: 1 + number of other loops whose body strictly contains this
    // loop's header.
    let depths: Vec<usize> = loops
        .iter()
        .map(|l| {
            1 + loops.iter().filter(|o| o.header != l.header && o.body.contains(&l.header)).count()
        })
        .collect();
    for (l, d) in loops.iter_mut().zip(depths) {
        l.depth = d;
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::reachable;
    use drs_sim::{MicroOp, Terminator};

    fn loop_blocks() -> Vec<Block> {
        vec![
            // 0: outer head.
            Block::new(
                "outer",
                Vec::new(),
                Terminator::Branch { cond: 0, on_true: 1, on_false: 4, reconverge: 4 },
            ),
            // 1: inner head.
            Block::new(
                "inner",
                Vec::new(),
                Terminator::Branch { cond: 1, on_true: 2, on_false: 3, reconverge: 3 },
            ),
            // 2: inner body -> inner head (back edge).
            Block::new("inner_body", vec![MicroOp::alu(3, &[3], 1)], Terminator::Jump(1)),
            // 3: outer tail -> outer head (back edge).
            Block::new("outer_tail", Vec::new(), Terminator::Jump(0)),
            // 4: exit.
            Block::new("exit", Vec::new(), Terminator::Exit),
        ]
    }

    #[test]
    fn natural_loops_found_with_nesting() {
        let blocks = loop_blocks();
        let reach = reachable(&blocks);
        let loops = natural_loops(&blocks, &reach);
        assert_eq!(loops.len(), 2);
        let outer = loops.iter().find(|l| l.header == 0).expect("outer loop");
        let inner = loops.iter().find(|l| l.header == 1).expect("inner loop");
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(outer.back_edges, vec![3]);
        assert_eq!(inner.back_edges, vec![2]);
        assert!(outer.body.contains(&1) && outer.body.contains(&2) && outer.body.contains(&3));
        assert!(inner.body.contains(&2) && !inner.body.contains(&3));
    }

    #[test]
    fn acyclic_program_has_no_loops() {
        let blocks = vec![
            Block::new(
                "entry",
                Vec::new(),
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            Block::new("body", Vec::new(), Terminator::Jump(2)),
            Block::new("exit", Vec::new(), Terminator::Exit),
        ];
        let reach = reachable(&blocks);
        assert!(natural_loops(&blocks, &reach).is_empty());
    }
}

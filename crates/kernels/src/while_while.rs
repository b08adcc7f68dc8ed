//! Aila-style while-while ray traversal kernel (the software baseline).
//!
//! Persistent threads pull rays from a global queue; each warp runs the
//! layered while-while loop of the paper's Algorithm 1. Two optional
//! optimizations from Aila's kernels are modelled:
//!
//! - **terminated-ray replacement**: threads whose ray finished fetch a new
//!   ray at the next outer iteration instead of waiting for the whole warp,
//! - **speculative traversal**: a thread whose next step is a leaf may keep
//!   traversing inner nodes (postponing one leaf) while warp-mates still
//!   want inner traversal.
//!
//! Divergence behaviour is exactly Figure 1 of the paper: a warp's inner
//! loop runs while *any* lane wants inner traversal, lanes needing leaves
//! idle at the reconvergence point, and the time to finish a warp's rays is
//! set by the longest ray.

#[cfg(debug_assertions)]
use crate::costs::RAY_LIVE_REGISTERS;
use crate::costs::{
    compute_chain, expand_chain, load, update_chain, FETCH_ALU_OPS, FETCH_LOADS, INNER_ALU_OPS,
    PRIM_ALU_OPS, PRIM_LOADS, PUSH_FAR_ALU_OPS, RAY_REG_LO,
};
use drs_sim::{
    eval_cond_lanes, Block, KernelBehavior, MachineState, MemSpace, MicroOp, OpTag, Program,
    RaySlot, Terminator, NO_POSTPONED,
};
use drs_trace::Step;

// Condition tokens.
const C_CONTINUE: u16 = 0;
const C_NEEDS_FETCH: u16 = 1;
const C_RAY_ACTIVE: u16 = 2;
const C_WANTS_INNER: u16 = 3;
const C_BOTH_HIT: u16 = 4;
const C_WANTS_LEAF: u16 = 5;

// Effect tokens.
const E_FETCH: u16 = 0;
const E_CONSUME_INNER: u16 = 1;
const E_CONSUME_PRIM: u16 = 2;
const E_RETIRE: u16 = 3;

// Address tokens.
const A_RAY: u16 = 0;
const A_NODE: u16 = 1;
const A_PRIM0: u16 = 2;
const A_PRIM1: u16 = 3;

/// Tunables of the while-while kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WhileWhileConfig {
    /// Postpone one leaf and keep traversing while warp-mates traverse.
    pub speculative_traversal: bool,
    /// Fetch replacement rays for terminated lanes each outer iteration.
    pub replace_terminated: bool,
}

impl Default for WhileWhileConfig {
    fn default() -> Self {
        // Aila's published kernel enables both.
        WhileWhileConfig { speculative_traversal: true, replace_terminated: true }
    }
}

/// The while-while kernel: program plus oracle behavior.
#[derive(Debug, Clone)]
pub struct WhileWhileKernel {
    config: WhileWhileConfig,
}

impl WhileWhileKernel {
    /// Create the kernel with the given options.
    pub fn new(config: WhileWhileConfig) -> WhileWhileKernel {
        WhileWhileKernel { config }
    }

    /// Build the micro-op program (block ids documented inline).
    pub fn program(&self) -> Program {
        let program = self.build_program();
        #[cfg(debug_assertions)]
        {
            drs_verify::assert_program_valid("while-while", &program);
            drs_verify::assert_shuffle_live("while-while", &program, RAY_LIVE_REGISTERS);
        }
        program
    }

    fn build_program(&self) -> Program {
        let t = OpTag::Normal;
        // Register conventions: ray state lives in r10-r26 (the window
        // `RAY_REG_LO..RAY_REG_LO+17`) and is the only state live across
        // block boundaries; r1-r9 are block-local scratch — so static
        // liveness derives the paper's 17 live registers per ray.
        let mut fetch_ops = Vec::new();
        for dst in RAY_REG_LO..RAY_REG_LO + FETCH_LOADS as u8 {
            load(&mut fetch_ops, dst, MemSpace::Global, A_RAY, t);
        }
        // Ray setup expands the loaded words into the rest of the window.
        expand_chain(
            &mut fetch_ops,
            FETCH_ALU_OPS,
            &[10, 11, 12, 13, 14],
            RAY_REG_LO + FETCH_LOADS as u8,
            t,
        );
        fetch_ops.push(MicroOp::effect(E_FETCH));

        let mut inner_ops = Vec::new();
        load(&mut inner_ops, 1, MemSpace::Texture, A_NODE, t);
        compute_chain(
            &mut inner_ops,
            INNER_ALU_OPS,
            &[2, 3, 4, 5, 6, 7],
            &[1, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
            &[19, 20],
            t,
        );
        // The far-child push compiles to predicated ops in real traversal
        // kernels — every lane pays its cost, but it causes no divergence.
        update_chain(&mut inner_ops, PUSH_FAR_ALU_OPS, &[19, 20], t);
        inner_ops.push(MicroOp::effect(E_CONSUME_INNER));

        let mut prim_ops = Vec::new();
        load(&mut prim_ops, 8, MemSpace::Texture, A_PRIM0, t);
        if PRIM_LOADS > 1 {
            load(&mut prim_ops, 9, MemSpace::Texture, A_PRIM1, t);
        }
        compute_chain(
            &mut prim_ops,
            PRIM_ALU_OPS,
            &[2, 3, 4, 5, 6, 7],
            &[8, 9, 20, 21, 22, 23, 24, 25, 26],
            &[20, 25],
            t,
        );
        prim_ops.push(MicroOp::effect(E_CONSUME_PRIM));

        Program::new(vec![
            // 0: outer loop head — retire finished rays, test continuation.
            Block::new(
                "outer_head",
                vec![MicroOp::effect(E_RETIRE)],
                Terminator::Branch { cond: C_CONTINUE, on_true: 1, on_false: 9, reconverge: 9 },
            ),
            // 1: fetch check.
            Block::new(
                "fetch_head",
                vec![],
                Terminator::Branch { cond: C_NEEDS_FETCH, on_true: 2, on_false: 3, reconverge: 3 },
            ),
            // 2: fetch body.
            Block::new("fetch_body", fetch_ops, Terminator::Jump(3)),
            // 3: middle loop head ("while ray not terminated").
            Block::new(
                "mid_head",
                vec![],
                Terminator::Branch { cond: C_RAY_ACTIVE, on_true: 4, on_false: 8, reconverge: 8 },
            ),
            // 4: inner while head.
            Block::new(
                "inner_head",
                vec![],
                Terminator::Branch { cond: C_WANTS_INNER, on_true: 5, on_false: 6, reconverge: 6 },
            ),
            // 5: inner body (node fetch + slab tests + predicated push).
            Block::new("inner_body", inner_ops, Terminator::Jump(4)),
            // 6: leaf while head.
            Block::new(
                "leaf_head",
                vec![],
                Terminator::Branch { cond: C_WANTS_LEAF, on_true: 7, on_false: 3, reconverge: 3 },
            ),
            // 7: per-primitive leaf body.
            Block::new("leaf_body", prim_ops, Terminator::Jump(6)),
            // 8: middle loop exit — back to persistent outer loop.
            Block::new("mid_exit", vec![], Terminator::Jump(0)),
            // 9: kernel exit.
            Block::new("exit", vec![], Terminator::Exit),
        ])
    }

    /// Whether a lane's slot currently wants the inner loop.
    fn wants_inner(&self, slot: &RaySlot, m: &MachineState<'_>, slot_idx: usize) -> bool {
        if slot.leaf_prims_left > 0 {
            return false; // mid-leaf: finish primitives first
        }
        match m.peek_step(slot_idx) {
            Some(Step::Inner { .. }) => true,
            Some(Step::Leaf { .. }) if self.config.speculative_traversal => {
                // Postpone this leaf iff the very next step is an inner node
                // and the postpone slot is free.
                slot.postponed_pos == NO_POSTPONED && {
                    let r = slot.ray.expect("peek implies ray");
                    matches!(
                        m.scripts[r.script as usize].steps().get(r.pos as usize + 1),
                        Some(Step::Inner { .. })
                    )
                }
            }
            _ => false,
        }
    }

    /// Whether slot `s` holds a ray with traversal work left.
    fn ray_active(m: &MachineState<'_>, s: usize) -> bool {
        let slot = &m.slots[s];
        slot.ray.is_some()
            && (slot.leaf_prims_left > 0
                || slot.postponed_pos != NO_POSTPONED
                || m.peek_step(s).is_some())
    }

    /// The lanes of `warp` whose ray has traversal work left.
    fn active_lanes(m: &MachineState<'_>, warp: usize) -> u32 {
        (0..m.lanes)
            .filter(|&l| m.slot_of(warp, l).is_some_and(|s| Self::ray_active(m, s)))
            .fold(0, |acc, l| acc | 1 << l)
    }

    /// Terminated-ray replacement (Aila's Kepler optimization): when warp
    /// utilization drops below a quarter and rays remain in the queue, the
    /// whole warp votes to break out and refill its empty lanes before
    /// continuing. The threshold reproduces the baseline SIMD-efficiency
    /// band the paper measures for Aila's kernel (28-36% on secondary
    /// bounces). `active` yields the warp's active lanes, and runs only
    /// when a vote is possible.
    fn votes_to_refill(&self, m: &MachineState<'_>, active: impl FnOnce() -> u32) -> bool {
        self.config.replace_terminated
            && !m.queue.is_empty()
            && (active().count_ones() as usize) * 4 < m.lanes
    }

    fn wants_leaf(&self, slot: &RaySlot, m: &MachineState<'_>, slot_idx: usize) -> bool {
        slot.leaf_prims_left > 0
            || slot.postponed_pos != NO_POSTPONED
            || matches!(m.peek_step(slot_idx), Some(Step::Leaf { .. }))
    }

    /// Begin the lane's next pending leaf: postponed first, else the next
    /// scripted leaf step. Returns false when no leaf is pending.
    fn begin_next_leaf(&self, m: &mut MachineState<'_>, s: usize) -> bool {
        if m.slots[s].postponed_pos != NO_POSTPONED {
            let ray = m.slots[s].ray.expect("postponed implies ray");
            let pos = m.slots[s].postponed_pos as usize;
            let Step::Leaf { prim_base_addr, prim_count, .. } =
                m.scripts[ray.script as usize].steps()[pos]
            else {
                panic!("postponed step is not a leaf");
            };
            m.slots[s].postponed_pos = NO_POSTPONED;
            m.slots[s].leaf_prims_left = prim_count;
            m.slots[s].leaf_total = prim_count;
            m.slots[s].leaf_base_addr = prim_base_addr;
            m.refresh_state(s);
            return true;
        }
        if let Some(Step::Leaf { prim_base_addr, prim_count, .. }) = m.peek_step(s).copied() {
            m.consume_step(s);
            m.slots[s].leaf_prims_left = prim_count;
            m.slots[s].leaf_total = prim_count;
            m.slots[s].leaf_base_addr = prim_base_addr;
            m.refresh_state(s);
            return true;
        }
        false
    }
}

impl KernelBehavior for WhileWhileKernel {
    fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
        let Some(s) = m.slot_of(warp, lane) else { return false };
        let slot = m.slots[s];
        match token {
            C_CONTINUE => slot.ray.is_some() || !m.queue.is_empty(),
            C_NEEDS_FETCH => {
                if slot.ray.is_some() || m.queue.is_empty() {
                    return false;
                }
                if self.config.replace_terminated {
                    // Terminated lanes refetch individually each outer
                    // iteration (Aila's replacement optimization).
                    true
                } else {
                    // Classic persistent threads: the warp refills only
                    // once every lane has drained.
                    (0..m.lanes)
                        .all(|l| m.slot_of(warp, l).is_none_or(|sl| m.slots[sl].ray.is_none()))
                }
            }
            C_RAY_ACTIVE => {
                Self::ray_active(m, s) && !self.votes_to_refill(m, || Self::active_lanes(m, warp))
            }
            C_WANTS_INNER => self.wants_inner(&slot, m, s),
            C_BOTH_HIT => {
                matches!(m.peek_step(s), Some(Step::Inner { both_children_hit: true, .. }))
            }
            C_WANTS_LEAF => self.wants_leaf(&slot, m, s),
            _ => panic!("unknown condition token {token}"),
        }
    }

    /// `C_RAY_ACTIVE` once per warp: the warp's active lanes are counted
    /// once instead of once per lane.
    fn eval_cond_mask(&self, token: u16, warp: usize, mask: u32, m: &MachineState<'_>) -> u32 {
        match token {
            C_RAY_ACTIVE => {
                let active = Self::active_lanes(m, warp);
                if self.votes_to_refill(m, || active) {
                    0
                } else {
                    active & mask
                }
            }
            _ => eval_cond_lanes(self, token, warp, mask, m),
        }
    }

    fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
        let Some(s) = m.slot_of(warp, lane) else { return 0 };
        let slot = m.slots[s];
        match token {
            A_RAY => {
                // Next ray's buffer slot: rays are 17 words ≈ 68 bytes,
                // stored contiguously in dispatch order.
                let idx = m.queue.total() - m.queue.remaining();
                0x8000_0000 + (idx as u64 + lane as u64) * 68
            }
            A_NODE => match m.peek_step(s) {
                Some(Step::Inner { node_addr, .. }) => *node_addr,
                Some(Step::Leaf { node_addr, .. }) => *node_addr,
                None => 0x7FFF_0000,
            },
            A_PRIM0 | A_PRIM1 => {
                let done = slot.leaf_total.saturating_sub(slot.leaf_prims_left) as u64;
                let base = slot.leaf_base_addr + done * 48;
                if token == A_PRIM0 {
                    base
                } else {
                    base + 16
                }
            }
            _ => panic!("unknown address token {token}"),
        }
    }

    fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
        let Some(s) = m.slot_of(warp, lane) else { return };
        match token {
            E_FETCH => {
                if m.slots[s].ray.is_none() {
                    m.fetch_into(s);
                }
            }
            E_CONSUME_INNER => {
                match m.peek_step(s) {
                    Some(Step::Inner { .. }) => {
                        m.consume_step(s);
                    }
                    Some(Step::Leaf { .. }) => {
                        // Speculative traversal: postpone this leaf, then
                        // consume the following inner step.
                        debug_assert!(self.config.speculative_traversal);
                        debug_assert_eq!(m.slots[s].postponed_pos, NO_POSTPONED);
                        let r = m.slots[s].ray.expect("leaf step implies ray");
                        m.slots[s].postponed_pos = r.pos;
                        m.slots[s].ray = Some(drs_sim::RayRef { script: r.script, pos: r.pos + 1 });
                        debug_assert!(matches!(m.peek_step(s), Some(Step::Inner { .. })));
                        m.consume_step(s);
                    }
                    None => {} // lane was inactive when the mask formed
                }
            }
            E_CONSUME_PRIM => {
                if m.slots[s].leaf_prims_left == 0 && !self.begin_next_leaf(m, s) {
                    return;
                }
                m.slots[s].leaf_prims_left -= 1;
                m.refresh_state(s);
            }
            E_RETIRE => {
                let slot = m.slots[s];
                if slot.ray.is_some()
                    && slot.leaf_prims_left == 0
                    && slot.postponed_pos == NO_POSTPONED
                    && m.peek_step(s).is_none()
                {
                    m.retire_ray(s);
                }
            }
            _ => panic!("unknown effect token {token}"),
        }
    }

    fn initialize(&self, m: &mut MachineState<'_>) {
        if !self.config.replace_terminated {
            // Without replacement the kernel still fetches at the outer
            // head, but only when the whole warp has drained; modelled by
            // the same program (the C_NEEDS_FETCH lanes simply all agree).
        }
        // Threads start with no ray; the first outer iteration fetches.
        let _ = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::{GpuConfig, NullSpecial, Simulation};
    use drs_trace::{RayScript, Termination};

    fn cfg(warps: usize) -> GpuConfig {
        GpuConfig { max_warps: warps, max_cycles: 50_000_000, ..GpuConfig::gtx780() }
    }

    fn make_scripts(n: usize, pattern: impl Fn(usize) -> Vec<Step>) -> Vec<RayScript> {
        (0..n).map(|i| RayScript::new(pattern(i), Termination::Hit)).collect()
    }

    fn uniform_steps(i: usize, inners: usize, leaves: usize) -> Vec<Step> {
        let mut v = Vec::new();
        for k in 0..inners {
            v.push(Step::Inner {
                node_addr: 0x1000_0000 + ((i * 61 + k) % 4096) as u64 * 64,
                both_children_hit: k % 3 == 0,
            });
        }
        for k in 0..leaves {
            v.push(Step::Leaf {
                node_addr: 0x1200_0000 + ((i * 17 + k) % 2048) as u64 * 64,
                prim_base_addr: 0x4000_0000 + ((i * 13 + k) % 2048) as u64 * 48,
                prim_count: 3,
            });
        }
        v
    }

    #[test]
    fn program_is_well_formed_and_substantial() {
        let k = WhileWhileKernel::new(WhileWhileConfig::default());
        let p = k.program();
        assert!(p.blocks().len() >= 10);
        assert!(p.static_op_count() > 60, "got {}", p.static_op_count());
    }

    #[test]
    fn traces_all_rays() {
        let scripts = make_scripts(512, |i| uniform_steps(i, 8, 2));
        let k = WhileWhileKernel::new(WhileWhileConfig::default());
        let sim = Simulation::new(
            cfg(8),
            k.program(),
            Box::new(k.clone()),
            Box::new(NullSpecial),
            &scripts,
        );
        let out = sim.run().expect("hit cycle cap");
        assert_eq!(out.rays_completed, 512);
        assert!(out.l1t.hits + out.l1t.misses > 0, "BVH reads go through L1T");
    }

    #[test]
    fn identical_rays_keep_high_efficiency() {
        let scripts = make_scripts(256, |_| uniform_steps(0, 10, 2));
        let k = WhileWhileKernel::new(WhileWhileConfig::default());
        let sim = Simulation::new(
            cfg(4),
            k.program(),
            Box::new(k.clone()),
            Box::new(NullSpecial),
            &scripts,
        );
        let out = sim.run().expect("completes");
        let eff = out.issued.simd_efficiency();
        assert!(eff > 0.95, "coherent rays should stay converged: {eff}");
    }

    #[test]
    fn ragged_rays_lose_efficiency() {
        // Mix very short and very long rays in the same warps.
        let scripts = make_scripts(256, |i| {
            if i % 2 == 0 {
                uniform_steps(i, 2, 1)
            } else {
                uniform_steps(i, 30, 4)
            }
        });
        let k = WhileWhileKernel::new(WhileWhileConfig::default());
        let sim = Simulation::new(
            cfg(4),
            k.program(),
            Box::new(k.clone()),
            Box::new(NullSpecial),
            &scripts,
        );
        let out = sim.run().expect("completes");
        let eff = out.issued.simd_efficiency();
        assert!(eff < 0.85, "divergent mix must hurt: {eff}");
        assert_eq!(out.rays_completed, 256);
    }

    #[test]
    fn speculative_traversal_changes_behaviour_but_not_results() {
        // Interleave I and L steps so a leaf is often followed by an inner
        // node — the pattern speculation exploits.
        let scripts = make_scripts(320, |i| {
            let mut v = Vec::new();
            for k in 0..6 + i % 9 {
                v.push(Step::Inner {
                    node_addr: 0x1000_0000 + ((i * 61 + k) % 4096) as u64 * 64,
                    both_children_hit: k % 3 == 0,
                });
                if k % 2 == i % 2 {
                    v.push(Step::Leaf {
                        node_addr: 0x1200_0000 + ((i * 17 + k) % 2048) as u64 * 64,
                        prim_base_addr: 0x4000_0000 + ((i * 13 + k) % 2048) as u64 * 48,
                        prim_count: 2,
                    });
                }
            }
            v
        });
        let run = |spec: bool| {
            let k = WhileWhileKernel::new(WhileWhileConfig {
                speculative_traversal: spec,
                replace_terminated: true,
            });
            Simulation::new(
                cfg(4),
                k.program(),
                Box::new(k.clone()),
                Box::new(NullSpecial),
                &scripts,
            )
            .run()
            .expect("completes")
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.rays_completed, 320);
        assert_eq!(without.rays_completed, 320);
        assert_ne!(with.cycles, without.cycles, "speculation should alter the schedule");
    }

    #[test]
    fn all_leaf_scripts_complete() {
        // Rays that never touch an inner node (degenerate but legal).
        let scripts = make_scripts(64, |i| uniform_steps(i, 0, 3));
        let k = WhileWhileKernel::new(WhileWhileConfig::default());
        let sim = Simulation::new(
            cfg(2),
            k.program(),
            Box::new(k.clone()),
            Box::new(NullSpecial),
            &scripts,
        );
        let out = sim.run().expect("completes");
        assert_eq!(out.rays_completed, 64);
    }

    #[test]
    fn more_rays_than_slots_drains_queue() {
        // 2 warps x 32 lanes = 64 slots, 500 rays: persistent threads must
        // loop fetching.
        let scripts = make_scripts(500, |i| uniform_steps(i, 3 + i % 5, 1));
        let k = WhileWhileKernel::new(WhileWhileConfig::default());
        let sim = Simulation::new(
            cfg(2),
            k.program(),
            Box::new(k.clone()),
            Box::new(NullSpecial),
            &scripts,
        );
        let out = sim.run().expect("completes");
        assert_eq!(out.rays_completed, 500);
    }
}

//! The while-if ray traversal kernel (the paper's Kernel 1).
//!
//! The layered while-while loop is restructured into one outer `while`
//! holding three `if` bodies (fetch / inner / leaf). Which body a warp
//! executes is decided by the value the `rdctrl` special instruction
//! returns — supplied by the attached hardware unit (DRS control in the
//! full system; the DMK and TBC baselines reuse the same program shape with
//! their own units). After each body, lanes publish their next traversal
//! state via the `reg_ray_state` effect, which the simulator folds into the
//! machine's per-slot state cache.

#[cfg(debug_assertions)]
use crate::costs::RAY_LIVE_REGISTERS;
use crate::costs::{
    compute_chain, expand_chain, load, update_chain, FETCH_ALU_OPS, FETCH_LOADS, INNER_ALU_OPS,
    PRIM_ALU_OPS, PRIM_LOADS, PUSH_FAR_ALU_OPS, RAY_REG_LO,
};
use drs_sim::{
    eval_cond_lanes, Block, KernelBehavior, MachineState, MemSpace, MicroOp, OpTag, Program,
    Terminator,
};
use drs_trace::Step;

/// `trav_ctrl_val` returned when the warp should terminate.
pub const CTRL_EXIT: u32 = 0;
/// `trav_ctrl_val` selecting the ray-fetch body.
pub const CTRL_FETCH: u32 = 1;
/// `trav_ctrl_val` selecting the inner-node body.
pub const CTRL_TRAV_INNER: u32 = 2;
/// `trav_ctrl_val` selecting the leaf-intersection body.
pub const CTRL_TRAV_LEAF: u32 = 3;
/// `trav_ctrl_val` enabling every body in one pass (fetch holes, traverse
/// inner lanes, intersect leaf lanes) — used by the TBC baseline, whose
/// block-wide stack runs all phases under lane masks rather than steering
/// whole warps.
pub const CTRL_TRAV_BOTH: u32 = 5;

/// Special-op token identifying `rdctrl` to the attached unit.
pub const TOKEN_RDCTRL: u16 = 0;

/// Inner nodes one `rdctrl` round may traverse per lane: the if body is an
/// unrolled bounded loop, long enough to amortize the control read (the
/// paper's main loop exceeds 300 instructions) yet short enough that rows
/// are re-sorted before run-length divergence accumulates.
pub const INNER_UNROLL: u16 = 4;

// Condition tokens.
const C_CTRL_NOT_EXIT: u16 = 0;
const C_CTRL_FETCH: u16 = 1;
const C_CTRL_INNER: u16 = 2;
const C_CTRL_LEAF: u16 = 3;
const C_LANE_HAS_INNER: u16 = 4;
const C_BOTH_HIT: u16 = 5;
const C_LANE_HAS_PRIMS: u16 = 6;
const C_LANE_CAN_FETCH: u16 = 7;
const C_LANE_LEAF_READY: u16 = 8;

// Effect tokens.
const E_FETCH: u16 = 0;
const E_CONSUME_INNER: u16 = 1;
const E_CONSUME_PRIM: u16 = 2;
const E_SET_STATE: u16 = 3;
const E_BEGIN_LEAF: u16 = 4;

/// Effect token resetting the per-round work counter. Public because
/// kernels that splice the while-if body (DMK) must place it in their own
/// control-read block.
pub const EFFECT_NEW_ROUND: u16 = 5;
const E_NEW_ROUND: u16 = EFFECT_NEW_ROUND;

// Address tokens.
const A_RAY: u16 = 0;
const A_NODE: u16 = 1;
const A_PRIM0: u16 = 2;
const A_PRIM1: u16 = 3;

/// The while-if kernel of the paper (Kernel 1).
#[derive(Debug, Clone, Default)]
pub struct WhileIfKernel;

impl WhileIfKernel {
    /// Create the kernel.
    pub fn new() -> WhileIfKernel {
        WhileIfKernel
    }

    /// Build the micro-op program.
    pub fn program(&self) -> Program {
        let program = self.build_program();
        #[cfg(debug_assertions)]
        {
            drs_verify::assert_program_valid("while-if", &program);
            drs_verify::assert_shuffle_live("while-if", &program, RAY_LIVE_REGISTERS);
        }
        program
    }

    fn build_program(&self) -> Program {
        let t = OpTag::Normal;
        // Register conventions: ray state lives in r10-r26 (the window
        // `RAY_REG_LO..RAY_REG_LO+17`) and is the only state live across
        // block boundaries; r1-r9 are block-local scratch. The static
        // liveness pass therefore derives exactly RAY_LIVE_REGISTERS live
        // registers at every shuffle-eligible point — the paper's 17.
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
        fetch_ops.push(MicroOp::effect(E_SET_STATE));

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
        // Predicated far-child push (no divergence, every lane pays):
        // read-modify-write of the traversal-stack registers.
        update_chain(&mut inner_ops, PUSH_FAR_ALU_OPS, &[19, 20], t);
        inner_ops.push(MicroOp::effect(E_CONSUME_INNER));
        inner_ops.push(MicroOp::effect(E_SET_STATE));

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
            // 0: read trav_ctrl_val, loop while != EXIT. All paths
            // reconverge at the tail block (12) before looping back, so a
            // warp always re-reads control with its full mask.
            Block::new(
                "read_ctrl",
                vec![MicroOp::special(0, TOKEN_RDCTRL), MicroOp::effect(E_NEW_ROUND)],
                Terminator::Branch {
                    cond: C_CTRL_NOT_EXIT,
                    on_true: 1,
                    on_false: 10,
                    reconverge: 10,
                },
            ),
            // 1: if (ctrl == FETCH) — warp-uniform.
            Block::new(
                "fetch_if",
                vec![],
                Terminator::Branch { cond: C_CTRL_FETCH, on_true: 2, on_false: 4, reconverge: 4 },
            ),
            // 2: per-lane guard (queue may drain mid-warp).
            Block::new(
                "fetch_guard",
                vec![],
                Terminator::Branch {
                    cond: C_LANE_CAN_FETCH,
                    on_true: 3,
                    on_false: 4,
                    reconverge: 4,
                },
            ),
            // 3: fetch body.
            Block::new("fetch_body", fetch_ops, Terminator::Jump(4)),
            // 4: if (ctrl == TRAV_INNER).
            Block::new(
                "inner_if",
                vec![],
                Terminator::Branch { cond: C_CTRL_INNER, on_true: 5, on_false: 7, reconverge: 7 },
            ),
            // 5: the inner while loop's head ("while node is not a leaf"):
            // each lane traverses its whole inner-node run inside the if
            // body; lanes whose run ends wait at the leaf if. The run-length
            // spread inside a state-sorted row is the "minor divergence" the
            // paper says keeps DRS below 100% SIMD efficiency.
            Block::new(
                "inner_head",
                vec![],
                Terminator::Branch {
                    cond: C_LANE_HAS_INNER,
                    on_true: 6,
                    on_false: 7,
                    reconverge: 7,
                },
            ),
            // 6: inner body (node fetch, slab tests, predicated push,
            // state publish) — loops for the next node of the run.
            Block::new("inner_body", inner_ops, Terminator::Jump(5)),
            // 7: if (ctrl == TRAV_LEAF).
            Block::new(
                "leaf_if",
                vec![],
                Terminator::Branch { cond: C_CTRL_LEAF, on_true: 11, on_false: 12, reconverge: 12 },
            ),
            // 8: per-primitive loop head — only the current leaf's
            // primitives; the next leaf waits for the next rdctrl round so
            // the DRS can re-sort rows between leaves.
            Block::new(
                "leaf_head",
                vec![],
                Terminator::Branch {
                    cond: C_LANE_HAS_PRIMS,
                    on_true: 9,
                    on_false: 12,
                    reconverge: 12,
                },
            ),
            // 9: per-primitive body.
            Block::new("leaf_body", prim_ops, Terminator::Jump(8)),
            // 10: exit.
            Block::new("exit", vec![], Terminator::Exit),
            // 11: begin the lane's pending leaf (one leaf per iteration).
            Block::new(
                "leaf_begin",
                vec![MicroOp::effect(E_BEGIN_LEAF), MicroOp::effect(E_SET_STATE)],
                Terminator::Branch {
                    cond: C_LANE_LEAF_READY,
                    on_true: 8,
                    on_false: 12,
                    reconverge: 12,
                },
            ),
            // 12: loop tail — the single back edge.
            Block::new("loop_tail", vec![], Terminator::Jump(0)),
        ])
    }
}

/// A warp-uniform control condition on the warp's `trav_ctrl_val`, or
/// `None` for a per-lane guard.
fn ctrl_cond(token: u16, ctrl: u32) -> Option<bool> {
    match token {
        C_CTRL_NOT_EXIT => Some(ctrl != CTRL_EXIT),
        C_CTRL_FETCH => Some(matches!(ctrl, CTRL_FETCH | CTRL_TRAV_BOTH)),
        C_CTRL_INNER => Some(matches!(ctrl, CTRL_TRAV_INNER | CTRL_TRAV_BOTH)),
        C_CTRL_LEAF => Some(matches!(ctrl, CTRL_TRAV_LEAF | CTRL_TRAV_BOTH)),
        _ => None,
    }
}

impl KernelBehavior for WhileIfKernel {
    fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
        if let Some(taken) = ctrl_cond(token, m.warp_ctrl[warp]) {
            return taken;
        }
        match token {
            // Per-lane guards.
            C_LANE_CAN_FETCH => {
                let Some(s) = m.slot_of(warp, lane) else { return false };
                m.slots[s].usable && m.slots[s].ray.is_none() && !m.queue.is_empty()
            }
            C_LANE_HAS_INNER => {
                let Some(s) = m.slot_of(warp, lane) else { return false };
                m.slots[s].round_work < INNER_UNROLL
                    && matches!(m.peek_step(s), Some(Step::Inner { .. }))
            }
            C_BOTH_HIT => {
                let Some(s) = m.slot_of(warp, lane) else { return false };
                matches!(m.peek_step(s), Some(Step::Inner { both_children_hit: true, .. }))
            }
            C_LANE_HAS_PRIMS => {
                let Some(s) = m.slot_of(warp, lane) else { return false };
                m.slots[s].leaf_prims_left > 0
            }
            C_LANE_LEAF_READY => {
                let Some(s) = m.slot_of(warp, lane) else { return false };
                m.slots[s].leaf_prims_left > 0
            }
            _ => panic!("unknown condition token {token}"),
        }
    }

    /// The `C_CTRL_*` conditions are warp-uniform: evaluated once, they
    /// take the whole mask or none of it.
    fn eval_cond_mask(&self, token: u16, warp: usize, mask: u32, m: &MachineState<'_>) -> u32 {
        match ctrl_cond(token, m.warp_ctrl[warp]) {
            Some(true) => mask,
            Some(false) => 0,
            None => eval_cond_lanes(self, token, warp, mask, m),
        }
    }

    fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
        let Some(s) = m.slot_of(warp, lane) else { return 0 };
        match token {
            A_RAY => {
                let idx = m.queue.total() - m.queue.remaining();
                0x8000_0000 + (idx as u64 + lane as u64) * 68
            }
            A_NODE => match m.peek_step(s) {
                Some(Step::Inner { node_addr, .. }) => *node_addr,
                Some(Step::Leaf { node_addr, .. }) => *node_addr,
                None => 0x7FFF_0000,
            },
            A_PRIM0 | A_PRIM1 => {
                let slot = m.slots[s];
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
                if m.slots[s].usable && m.slots[s].ray.is_none() {
                    m.fetch_into(s);
                }
            }
            E_CONSUME_INNER => {
                if matches!(m.peek_step(s), Some(Step::Inner { .. })) {
                    m.slots[s].round_work += 1;
                    m.consume_step(s);
                    self.retire_if_done(m, s);
                }
            }
            E_NEW_ROUND => {
                m.slots[s].round_work = 0;
            }
            E_BEGIN_LEAF => {
                if m.slots[s].leaf_prims_left == 0 {
                    if let Some(Step::Leaf { prim_base_addr, prim_count, .. }) =
                        m.peek_step(s).copied()
                    {
                        m.consume_step(s);
                        m.slots[s].leaf_prims_left = prim_count;
                        m.slots[s].leaf_total = prim_count;
                        m.slots[s].leaf_base_addr = prim_base_addr;
                        m.refresh_state(s);
                    }
                }
            }
            E_CONSUME_PRIM => {
                if m.slots[s].leaf_prims_left == 0 {
                    return; // lane was inactive when the loop mask formed
                }
                m.slots[s].leaf_prims_left -= 1;
                // Chain directly into a consecutive leaf step: the ray
                // stays in the leaf state, so the whole run is processed
                // within one rdctrl round.
                if m.slots[s].leaf_prims_left == 0 {
                    if let Some(Step::Leaf { prim_base_addr, prim_count, .. }) =
                        m.peek_step(s).copied()
                    {
                        m.consume_step(s);
                        m.slots[s].leaf_prims_left = prim_count;
                        m.slots[s].leaf_total = prim_count;
                        m.slots[s].leaf_base_addr = prim_base_addr;
                    }
                }
                m.refresh_state(s);
                if m.slots[s].leaf_prims_left == 0 {
                    self.retire_if_done(m, s);
                }
            }
            // reg_ray_state: the architectural write of the next traversal
            // state. Slot states are cache-maintained by the helpers, so
            // this is purely the synchronization point for the DRS control.
            E_SET_STATE => {
                debug_assert_eq!(
                    m.state_cache[s],
                    m.compute_state(s),
                    "slot {s}: a helper mutated the slot without refreshing its state"
                );
            }
            _ => panic!("unknown effect token {token}"),
        }
    }

    fn initialize(&self, m: &mut MachineState<'_>) {
        m.track_dirty = true;
    }
}

impl WhileIfKernel {
    fn retire_if_done(&self, m: &mut MachineState<'_>, s: usize) {
        if m.slots[s].ray.is_some() && m.slots[s].leaf_prims_left == 0 && m.peek_step(s).is_none() {
            m.retire_ray(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::{GpuConfig, RayState, SimStats, Simulation, SpecialOutcome, SpecialUnit};
    use drs_trace::{RayScript, Termination};

    /// A minimal "perfect oracle" control unit: since every lane of a warp
    /// in this test owns its own slot, it inspects the warp's slots and
    /// returns the majority state — enough to drive the kernel end to end
    /// without the real DRS hardware (exercised in `drs-core`).
    struct MajorityCtrl;

    impl SpecialUnit for MajorityCtrl {
        fn issue(
            &mut self,
            warp: usize,
            token: u16,
            m: &mut MachineState<'_>,
            _stats: &mut SimStats,
        ) -> SpecialOutcome {
            assert_eq!(token, TOKEN_RDCTRL);
            let mut counts = [0u32; 3]; // fetch, inner, leaf
            for lane in 0..m.lanes {
                if let Some(s) = m.slot_of(warp, lane) {
                    match m.slot_state(s) {
                        RayState::Fetching => counts[0] += 1,
                        RayState::Inner => counts[1] += 1,
                        RayState::Leaf => counts[2] += 1,
                        RayState::Done | RayState::Empty => {}
                    }
                }
            }
            if counts.iter().all(|&c| c == 0) {
                return SpecialOutcome::Proceed { ctrl: CTRL_EXIT };
            }
            let best = (0..3).max_by_key(|&i| counts[i]).expect("nonempty");
            let ctrl = [CTRL_FETCH, CTRL_TRAV_INNER, CTRL_TRAV_LEAF][best];
            SpecialOutcome::Proceed { ctrl }
        }

        fn tick(&mut self, _c: u64, _i: &[bool], _m: &mut MachineState<'_>, _s: &mut SimStats) {}
    }

    fn cfg(warps: usize) -> GpuConfig {
        GpuConfig { max_warps: warps, max_cycles: 50_000_000, ..GpuConfig::gtx780() }
    }

    fn scripts(n: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                let mut steps = Vec::new();
                for k in 0..3 + i % 7 {
                    steps.push(Step::Inner {
                        node_addr: 0x1000_0000 + ((i * 31 + k) % 1024) as u64 * 64,
                        both_children_hit: k % 2 == 0,
                    });
                }
                steps.push(Step::Leaf {
                    node_addr: 0x1100_0000 + (i % 512) as u64 * 64,
                    prim_base_addr: 0x4000_0000 + (i % 512) as u64 * 48,
                    prim_count: 1 + (i % 4) as u16,
                });
                RayScript::new(steps, Termination::Hit)
            })
            .collect()
    }

    #[test]
    fn program_is_well_formed() {
        let p = WhileIfKernel::new().program();
        assert!(p.blocks().len() >= 12);
        assert!(p.static_op_count() > 60);
    }

    #[test]
    fn completes_under_majority_control() {
        let s = scripts(400);
        let k = WhileIfKernel::new();
        let sim =
            Simulation::new(cfg(4), k.program(), Box::new(k.clone()), Box::new(MajorityCtrl), &s);
        let out = sim.run().expect("hit cycle cap");
        assert_eq!(out.rays_completed, 400);
        assert!(out.rdctrl_issued > 0);
    }

    #[test]
    fn ctrl_gating_prevents_wrong_body_work() {
        // With majority control, warps still finish; a warp told TRAV_INNER
        // when some lanes need leaves must not consume those lanes' leaf
        // steps (the guard masks them off). End state is still completion.
        let s = scripts(96);
        let k = WhileIfKernel::new();
        let sim =
            Simulation::new(cfg(2), k.program(), Box::new(k.clone()), Box::new(MajorityCtrl), &s);
        let out = sim.run().expect("completes");
        assert_eq!(out.rays_completed, 96);
    }

    #[test]
    fn dirty_tracking_is_enabled() {
        let s = scripts(32);
        let k = WhileIfKernel::new();
        let sim =
            Simulation::new(cfg(1), k.program(), Box::new(k.clone()), Box::new(MajorityCtrl), &s);
        // The machine was initialized by the kernel behavior.
        assert!(sim.machine.track_dirty);
    }
}

//! The kernel-behavior and special-unit extension traits.

use crate::state::MachineState;
use crate::stats::SimStats;

/// Interprets a program's condition / address / effect tokens against the
/// machine's ray slots. Implemented by each ray-tracing kernel.
///
/// `Send` so a full-chip run (`drs-chip`) can shard its per-SM engines —
/// each owning a boxed behavior — across worker threads. Behaviors are
/// plain data plus lookups, so the bound costs implementors nothing.
pub trait KernelBehavior: Send {
    /// Evaluate branch condition `token` for `lane` of `warp`. The
    /// semantic reference for [`KernelBehavior::eval_cond_mask`].
    fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool;

    /// Evaluate branch condition `token` for every lane of `mask` at once:
    /// bit `l` of the result is set iff `l` is in `mask` and
    /// [`eval_cond`](KernelBehavior::eval_cond) holds for lane `l`. The
    /// engine calls this at every branch. The default runs the per-lane
    /// loop ([`eval_cond_lanes`]); a kernel overrides it to evaluate a
    /// warp-uniform condition, or a warp-wide vote, once per warp.
    fn eval_cond_mask(&self, token: u16, warp: usize, mask: u32, m: &MachineState<'_>) -> u32 {
        eval_cond_lanes(self, token, warp, mask, m)
    }

    /// Produce the byte address for address token `token` on `lane`.
    fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64;

    /// Apply effect `token` for `lane` of `warp` (consume a step, fetch a
    /// ray, retire, update state registers, …).
    fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>);

    /// Number of ray slots the kernel wants (defaults to one per lane).
    fn slot_count(&self, warps: usize, lanes: usize) -> usize {
        warps * lanes
    }

    /// Prepare machine state before cycle 0 (pre-fetch rays, mark padding
    /// slots unusable, …). Default: nothing.
    fn initialize(&self, m: &mut MachineState<'_>) {
        let _ = m;
    }
}

/// The per-lane form of [`KernelBehavior::eval_cond_mask`]: one
/// [`KernelBehavior::eval_cond`] call per lane of `mask`. Overrides call
/// it for the conditions they do not evaluate per warp.
pub fn eval_cond_lanes<B: KernelBehavior + ?Sized>(
    behavior: &B,
    token: u16,
    warp: usize,
    mask: u32,
    m: &MachineState<'_>,
) -> u32 {
    let mut out = 0;
    let mut bits = mask;
    while bits != 0 {
        let lane = bits.trailing_zeros() as usize;
        if behavior.eval_cond(token, warp, lane, m) {
            out |= 1 << lane;
        }
        bits &= bits - 1;
    }
    out
}

/// Result of presenting a `Special` micro-op to the attached unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialOutcome {
    /// The warp cannot issue this cycle; the scheduler will retry.
    Stall,
    /// The op issues; `ctrl` is latched into the warp's control register.
    Proceed {
        /// Warp-wide value returned by the unit (e.g. `rdctrl`'s
        /// `trav_ctrl_val`).
        ctrl: u32,
    },
}

/// A hardware unit attached to the core (DRS control, DMK spawn unit, TBC
/// compactor). Sees every `Special` issue attempt and ticks every cycle.
///
/// `Send` for the same reason as [`KernelBehavior`]: full-chip runs move
/// whole engines (and their boxed units) across threads.
pub trait SpecialUnit: Send {
    /// A warp attempts to issue `Special { token }`. May inspect and mutate
    /// machine state (remap lanes, move rays) and must decide whether the
    /// warp stalls or proceeds.
    fn issue(
        &mut self,
        warp: usize,
        token: u16,
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) -> SpecialOutcome;

    /// Per-cycle tick, after instruction issue. `idle_banks[b]` is true when
    /// register-file bank `b` had a free port this cycle (the DRS swap
    /// engine moves ray registers through exactly these free ports).
    fn tick(
        &mut self,
        cycle: u64,
        idle_banks: &[bool],
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    );

    /// The engine's event-driven fast path asks, at the start of cycle
    /// `now` (the previous cycle's [`tick`](SpecialUnit::tick) has already
    /// run), when the unit next needs to be ticked, assuming no warp
    /// issues in the meantime.
    ///
    /// - `None` means the unit is **quiescent**: as long as no instruction
    ///   issues, every subsequent `tick` would be a pure no-op (no machine,
    ///   stats, or internal-state mutation), so the engine may skip ticking
    ///   it entirely.
    /// - `Some(t)` promises that ticks at cycles in `now..t` are no-ops;
    ///   the engine will not skip past `t`. `Some(now)` means "tick me
    ///   this very cycle" and disables skipping entirely.
    ///
    /// The conservative default returns `Some(now)`, which disables cycle
    /// skipping whenever this unit may have pending work the engine cannot
    /// see. Units whose `tick` does real work must only report quiescence
    /// when that work is provably drained; the A/B bit-identity tests
    /// (fast path on vs. off) enforce this.
    fn next_event(&self, now: u64) -> Option<u64> {
        Some(now)
    }
}

/// A no-op special unit for kernels without hardware assistance.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSpecial;

impl SpecialUnit for NullSpecial {
    fn issue(
        &mut self,
        _warp: usize,
        _token: u16,
        _m: &mut MachineState<'_>,
        _stats: &mut SimStats,
    ) -> SpecialOutcome {
        SpecialOutcome::Proceed { ctrl: 0 }
    }

    fn tick(
        &mut self,
        _cycle: u64,
        _idle: &[bool],
        _m: &mut MachineState<'_>,
        _stats: &mut SimStats,
    ) {
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        None // the tick is empty, so the unit is always quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_trace::{RayScript, Termination};

    #[test]
    fn null_special_never_stalls() {
        let scripts = [RayScript::new(vec![], Termination::Escaped)];
        let mut m = MachineState::new(&scripts, 1, 1, 1);
        let mut stats = SimStats::default();
        let mut u = NullSpecial;
        assert_eq!(u.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Proceed { ctrl: 0 });
        u.tick(0, &[true; 4], &mut m, &mut stats);
    }
}

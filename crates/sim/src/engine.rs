//! The cycle loop: schedulers, SIMT stack, scoreboard and memory pipeline.

use crate::banks::RegisterBanks;
use crate::behavior::{KernelBehavior, SpecialOutcome, SpecialUnit};
use crate::cache::MemoryHierarchy;
use crate::config::GpuConfig;
use crate::error::{FrameDump, SimError, SimErrorKind, WarpDump, WarpDumpEntry};
use crate::isa::{MemSpace, MicroOp, OpKind, OpTag};
use crate::program::{BlockId, Program, Terminator};
use crate::state::MachineState;
use crate::stats::SimStats;
use crate::telemetry::{CycleSnapshot, StallBucket, TelemetrySink};
use drs_trace::RayScript;
use std::collections::HashMap;
use std::time::Instant;

/// Architectural registers tracked per warp (micro-op reg ids must be below
/// this).
pub const TRACKED_REGS: usize = 64;

/// One entry of a warp's SIMT reconvergence stack.
#[derive(Debug, Clone, Copy)]
struct StackEntry {
    /// Current block.
    pc: BlockId,
    /// Next op within the block (`ops.len()` = the terminator).
    op_idx: usize,
    /// Lanes this entry executes.
    mask: u32,
    /// Block at which this entry reconverges into its parent
    /// (`u32::MAX` for the base entry).
    reconv: BlockId,
}

const NO_RECONV: BlockId = u32::MAX;

/// Per-warp timing state.
#[derive(Debug, Clone)]
struct WarpTiming {
    stack: Vec<StackEntry>,
    reg_ready: [u64; TRACKED_REGS],
    blocked_until: u64,
    exited: bool,
}

impl WarpTiming {
    fn new(entry: BlockId, mask: u32) -> WarpTiming {
        WarpTiming {
            stack: vec![StackEntry { pc: entry, op_idx: 0, mask, reconv: NO_RECONV }],
            reg_ready: [0; TRACKED_REGS],
            blocked_until: 0,
            exited: false,
        }
    }

    /// Pop reconverged entries; afterwards the top entry is executable.
    fn settle(&mut self) {
        while self.stack.len() > 1 {
            let top = *self.stack.last().expect("nonempty stack");
            if top.op_idx == 0 && top.pc == top.reconv {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    fn top(&self) -> &StackEntry {
        self.stack.last().expect("SIMT stack never empties")
    }

    fn top_mut(&mut self) -> &mut StackEntry {
        self.stack.last_mut().expect("SIMT stack never empties")
    }

    /// The entry [`WarpTiming::settle`] would leave on top, without
    /// mutating the stack (read-only view for stall attribution).
    fn effective_top(&self) -> &StackEntry {
        let mut i = self.stack.len() - 1;
        while i > 0 && self.stack[i].op_idx == 0 && self.stack[i].pc == self.stack[i].reconv {
            i -= 1;
        }
        &self.stack[i]
    }
}

/// Why a warp's `blocked_until` lies in the future (telemetry only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum BlockReason {
    /// Never blocked yet.
    #[default]
    None,
    /// Branch-redirect penalty (SIMT stack update).
    Branch,
    /// Special-unit (`rdctrl`) refusal backoff.
    Rdctrl,
    /// Serialized behind the shared spawn scratchpad.
    SpawnMem,
}

/// What produced a register's pending value (telemetry only).
#[derive(Debug, Clone, Copy, Default)]
struct RegProducer {
    /// Produced by a load (in-flight memory) rather than an ALU/special op.
    mem: bool,
    /// The producing load had to queue for a free MSHR.
    mshr_queued: bool,
    /// Ready time excluding operand-collector (bank-conflict) extra
    /// cycles: past this point only collector serialization remains.
    base_ready: u64,
}

/// Per-warp bookkeeping behind the stall-attribution pass. Allocated only
/// when a [`TelemetrySink`] is attached; the hot loop never touches it
/// otherwise, so detached runs do zero attribution work.
struct Attribution {
    /// Warp issued ≥ 1 instruction this cycle.
    issued: Vec<bool>,
    /// Warp was refused by the special unit this cycle.
    rdctrl: Vec<bool>,
    /// Reason for the warp's latest `blocked_until` assignment.
    block_reason: Vec<BlockReason>,
    /// Producer metadata per (warp, register).
    producers: Vec<[RegProducer; TRACKED_REGS]>,
    /// This cycle's charge per warp (reused buffer handed to the sink).
    buckets: Vec<StallBucket>,
}

impl Attribution {
    fn new(warps: usize) -> Attribution {
        Attribution {
            issued: vec![false; warps],
            rdctrl: vec![false; warps],
            block_reason: vec![BlockReason::None; warps],
            producers: vec![[RegProducer::default(); TRACKED_REGS]; warps],
            buckets: vec![StallBucket::Idle; warps],
        }
    }

    fn begin_cycle(&mut self) {
        self.issued.fill(false);
        self.rdctrl.fill(false);
    }
}

/// One coalesced cache-line request leaving an SM for the chip's shared
/// memory system (full-chip mode; see `drs-chip`).
///
/// In chip mode the engine probes its private L1s locally and emits one
/// `PortRequest` per L1-missing line instead of resolving latency against
/// its own L2 slice. The chip loop drains these with
/// [`Simulation::drain_requests`], arbitrates them through the shared
/// L2/MSHR/DRAM model, and answers loads via
/// [`Simulation::chip_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRequest {
    /// Load group the response belongs to. All lines of one load
    /// instruction share a group; the group's destination register
    /// releases when every line has been answered. Stores also consume a
    /// group id (keeps ids per-instruction) but expect no response.
    pub group: u64,
    /// Per-SM issue sequence number: a total order over this SM's
    /// requests, used as the final arbitration tie-breaker.
    pub seq: u64,
    /// Line-aligned byte address.
    pub line: u64,
    /// Memory space the access came from (never [`MemSpace::Spawn`] —
    /// spawn scratch stays on-core).
    pub space: MemSpace,
    /// True for loads; a response must be delivered via
    /// [`Simulation::chip_complete`].
    pub is_load: bool,
    /// Cycle the SM's LSU put the request on the wire (pre-NoC).
    pub issue: u64,
}

/// An in-flight chip-mode load: one load instruction whose L1-missing
/// lines await responses from the shared memory system.
#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    /// Issuing warp.
    warp: usize,
    /// Destination register (bound just after issue by `chip_bind_load`).
    dst: Option<u8>,
    /// Operand-collector extra cycles, applied on top of the last
    /// response (mirrors `ready + extra` on the non-chip path).
    extra: u32,
    /// Outstanding line responses.
    remaining: usize,
    /// Max ready time seen so far (seeded with the L1-hit ready time).
    ready_acc: u64,
}

/// Engine-side half of the SM ↔ shared-memory-system connection
/// (attached by [`Simulation::attach_chip_port`]).
#[derive(Debug, Default)]
struct ChipPort {
    /// Next load-group id.
    next_group: u64,
    /// Next per-SM request sequence number.
    next_seq: u64,
    /// Requests issued since the last drain.
    outbox: Vec<PortRequest>,
    /// Load groups awaiting responses, by group id.
    pending: HashMap<u64, PendingLoad>,
    /// Group created by the current `memory_access` call, so the load
    /// issue arm can bind its destination register to it.
    open: Option<u64>,
    /// Latest response ready time delivered so far (drain horizon for the
    /// `validate` end-of-run checks).
    max_response: u64,
}

/// A configured single-SMX simulation, generic over kernel behavior and an
/// optional special hardware unit.
pub struct Simulation<'w> {
    cfg: GpuConfig,
    program: Program,
    behavior: Box<dyn KernelBehavior + 'w>,
    special: Box<dyn SpecialUnit + 'w>,
    /// Architectural machine state (public so harnesses can inspect it).
    pub machine: MachineState<'w>,
    mem: MemoryHierarchy,
    banks: RegisterBanks,
    warps: Vec<WarpTiming>,
    stats: SimStats,
    /// Per-block (issues, active_sum) counters.
    block_counters: Vec<(u64, u64)>,
    /// The on-chip spawn scratchpad is a single shared resource; spawn
    /// accesses serialize through it (their latency cannot be hidden by
    /// other warps' spawn traffic).
    spawn_busy_until: u64,
    cycle: u64,
    /// Greedy warp per scheduler.
    sched_current: Vec<usize>,
    /// Event-driven cycle skipping (on by default). When every warp is
    /// provably unable to issue and the special unit is quiescent, the
    /// engine jumps straight to the next wake-up cycle instead of stepping
    /// through the dead span. Results are bit-identical either way.
    fastpath: bool,
    /// Failed-skip backoff: number of upcoming dead cycles for which we
    /// won't attempt a skip. A failed `try_fast_forward` is pure overhead
    /// (an O(warps) scoreboard scan), so after each failure we sit out
    /// `skip_penalty` dead cycles before trying again.
    skip_cooldown: u64,
    /// Current backoff penalty; doubles on each consecutive failure (to a
    /// small cap) and resets whenever a skip succeeds or anything issues.
    /// Purely a heuristic — skipping is optional, so backoff can never
    /// change results.
    skip_penalty: u64,
    /// Reusable idle-bank scratch handed to the special unit each cycle.
    idle_scratch: Vec<bool>,
    /// Attached telemetry sink (observational; never affects results).
    sink: Option<&'w mut dyn TelemetrySink>,
    /// Stall-attribution state; `Some` iff a sink is attached.
    attr: Option<Attribution>,
    /// Full active mask for the configured lane count.
    #[cfg(feature = "validate")]
    full_mask: u32,
    /// Statically derived worst-case SIMT-stack depth (entries), when the
    /// caller ran the verifier; every divergence push is checked against it.
    #[cfg(feature = "validate")]
    stack_depth_bound: Option<usize>,
    /// Deepest SIMT stack observed on any warp this run.
    #[cfg(feature = "validate")]
    max_stack_depth: usize,
    /// Statically derived bound on distinct in-flight destination
    /// registers per warp (scoreboard pressure), when the caller ran the
    /// verifier.
    #[cfg(feature = "validate")]
    inflight_regs_bound: Option<usize>,
    /// Last cycle any instruction issued (watchdog baseline).
    last_issue_cycle: u64,
    /// Fault injection: trip the watchdog once `cycle` reaches this value.
    watchdog_trip_at: Option<u64>,
    /// Wall-clock budget: `(deadline, budget_ms)`; checked cooperatively
    /// every 1024 loop iterations.
    deadline: Option<(Instant, u64)>,
    /// Loop-iteration counter backing the deadline check; persists across
    /// `advance_to` windows so chip runs keep the 1024-iteration cadence.
    deadline_iters: u64,
    /// Full-chip mode: the SM side of the shared-memory-system port.
    chip: Option<ChipPort>,
    /// A failure observed by `advance_to`, reported by `finish`. Once set
    /// the engine is done and refuses to advance further.
    pending_failure: Option<SimErrorKind>,
}

impl<'w> Simulation<'w> {
    /// Build a simulation of `program` over `scripts`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or a micro-op references a
    /// register `>= 64`.
    pub fn new(
        cfg: GpuConfig,
        program: Program,
        behavior: Box<dyn KernelBehavior + 'w>,
        special: Box<dyn SpecialUnit + 'w>,
        scripts: &'w [RayScript],
    ) -> Simulation<'w> {
        cfg.validate();
        for b in program.blocks() {
            for op in &b.ops {
                if let Some(d) = op.dst {
                    assert!((d as usize) < TRACKED_REGS, "register {d} out of range");
                }
                for s in op.sources() {
                    assert!((s as usize) < TRACKED_REGS, "register {s} out of range");
                }
            }
        }
        let full_mask = if cfg.simd_lanes == 32 { u32::MAX } else { (1u32 << cfg.simd_lanes) - 1 };
        let warps = (0..cfg.max_warps).map(|_| WarpTiming::new(0, full_mask)).collect();
        let slot_count = behavior.slot_count(cfg.max_warps, cfg.simd_lanes);
        let mut machine = MachineState::new(scripts, cfg.max_warps, cfg.simd_lanes, slot_count);
        behavior.initialize(&mut machine);
        let mem = MemoryHierarchy::new(&cfg);
        let banks = RegisterBanks::new(cfg.register_banks);
        let sched_current = (0..cfg.warp_schedulers).collect();
        let block_counters = vec![(0, 0); program.blocks().len()];
        Simulation {
            cfg,
            program,
            behavior,
            special,
            machine,
            mem,
            banks,
            warps,
            stats: SimStats::default(),
            block_counters,
            spawn_busy_until: 0,
            cycle: 0,
            sched_current,
            fastpath: true,
            skip_cooldown: 0,
            skip_penalty: 1,
            idle_scratch: Vec::new(),
            sink: None,
            attr: None,
            #[cfg(feature = "validate")]
            full_mask,
            #[cfg(feature = "validate")]
            stack_depth_bound: None,
            #[cfg(feature = "validate")]
            max_stack_depth: 1,
            #[cfg(feature = "validate")]
            inflight_regs_bound: None,
            last_issue_cycle: 0,
            watchdog_trip_at: None,
            deadline: None,
            deadline_iters: 0,
            chip: None,
            pending_failure: None,
        }
    }

    /// Attach a telemetry sink: from now on every cycle charges each warp
    /// to exactly one [`StallBucket`] and forwards the attribution to the
    /// sink. Attach before [`Simulation::run`]; attribution of cycles
    /// simulated earlier is not reconstructed.
    ///
    /// The sink observes — it cannot alter simulation results, and runs
    /// without a sink skip the attribution pass entirely.
    pub fn attach_telemetry(&mut self, sink: &'w mut dyn TelemetrySink) {
        self.attr = Some(Attribution::new(self.cfg.max_warps));
        self.sink = Some(sink);
    }

    /// Enable or disable the event-driven fast path (on by default).
    ///
    /// The fast path skips spans of cycles in which no warp can possibly
    /// issue, charging them to telemetry in bulk; [`SimStats`] and
    /// telemetry output are bit-identical with it on or off (asserted by
    /// the engine and harness A/B tests). Turning it off (`--no-fastpath`
    /// in the experiments binary) forces naive one-cycle-at-a-time
    /// stepping — the reference behavior for debugging and benchmarking.
    pub fn set_fastpath(&mut self, on: bool) {
        self.fastpath = on;
    }

    /// Arm the runtime cross-check of a statically derived worst-case
    /// SIMT-stack depth (in stack entries, counting the base entry): every
    /// divergence push asserts the warp's stack stays within `bound`, and
    /// the end-of-run invariant check re-asserts the observed maximum.
    ///
    /// The bound comes from `drs-verify`'s abstract interpretation of the
    /// kernel CFG (`LiveSetSummary::stack_depth_bound`); a violation means
    /// either the engine's reconvergence discipline or the verifier's
    /// model is wrong, which is exactly what `validate` runs exist to
    /// catch.
    #[cfg(feature = "validate")]
    pub fn set_stack_depth_bound(&mut self, bound: usize) {
        self.stack_depth_bound = Some(bound);
    }

    /// Arm the runtime cross-check of the verifier's scoreboard-pressure
    /// bound: at every issue, the number of this warp's registers with a
    /// pending ready time must not exceed the program's distinct
    /// destination-register count (`LiveSetSummary::distinct_dsts`).
    #[cfg(feature = "validate")]
    pub fn set_inflight_regs_bound(&mut self, bound: usize) {
        self.inflight_regs_bound = Some(bound);
    }

    /// Inject a watchdog trip: once the simulation reaches `at_cycle`, the
    /// next step fails with [`SimErrorKind::Watchdog`] (`injected: true`)
    /// carrying a real [`WarpDump`] of the machine state at that point.
    ///
    /// Fault-injection hook for exercising harness recovery paths; if every
    /// warp exits before `at_cycle`, the run completes normally.
    pub fn inject_watchdog_trip(&mut self, at_cycle: u64) {
        self.watchdog_trip_at = Some(at_cycle);
    }

    /// Set a wall-clock deadline: if `deadline` passes before the run
    /// completes, it fails with [`SimErrorKind::Deadline`]. `budget_ms` is
    /// reported in the error (the original budget, for context). The check
    /// is cooperative — every 1024 loop iterations — so overshoot is
    /// bounded by ~1024 stepped cycles of wall time.
    pub fn set_deadline(&mut self, deadline: Instant, budget_ms: u64) {
        self.deadline = Some((deadline, budget_ms));
    }

    /// Package a failure kind with the current cycle and finalized partial
    /// statistics.
    fn fail(&mut self, kind: SimErrorKind) -> SimError {
        SimError { kind, cycle: self.cycle, stats: Box::new(self.stats.clone()) }
    }

    /// Run to completion (all warps exited), or fail with a typed
    /// [`SimError`] on the safety cycle cap, a watchdog trip, a wall-clock
    /// deadline, or (under the `validate` feature) an end-of-run invariant
    /// violation. Errors carry the finalized partial statistics.
    pub fn run(mut self) -> Result<SimStats, SimError> {
        self.advance_to(u64::MAX);
        self.finish()
    }

    /// Full-chip mode: advance the simulated clock to `target` (or until
    /// all warps exit, or a failure fires). Failures are stored and
    /// reported by [`Simulation::finish`]; once one is stored — or the
    /// kernel has drained — further calls are no-ops, so the chip loop can
    /// keep ticking a finished SM safely.
    pub fn advance_to(&mut self, target: u64) {
        if self.pending_failure.is_some() {
            return;
        }
        if let Err(kind) = self.drive(target) {
            self.pending_failure = Some(kind);
        }
    }

    /// True when this engine needs no more cycles: every warp has exited,
    /// or a failure was recorded.
    pub fn done(&self) -> bool {
        self.pending_failure.is_some() || self.warps.iter().all(|w| w.exited)
    }

    /// True when a failure has been recorded and is waiting for
    /// [`Simulation::finish`] to report it.
    pub fn failed(&self) -> bool {
        self.pending_failure.is_some()
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Earliest future cycle at which this engine's state can change on
    /// its own (scoreboard release or special-unit event) — the chip
    /// loop's per-SM contribution to the chip-level `next_wake`.
    /// `u64::MAX` when the engine is done, or when every live warp waits
    /// on a shared-memory response (only [`Simulation::chip_complete`] can
    /// unblock it).
    pub fn wake_hint(&self) -> u64 {
        if self.done() {
            return u64::MAX;
        }
        self.next_wake(self.cycle)
    }

    /// The run loop: step (and fast-forward) until all warps exit, the
    /// clock reaches `target`, or a failure fires.
    fn drive(&mut self, target: u64) -> Result<(), SimErrorKind> {
        while !self.warps.iter().all(|w| w.exited) && self.cycle < target {
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimErrorKind::CycleLimit { max_cycles: self.cfg.max_cycles });
            }
            self.deadline_iters = self.deadline_iters.wrapping_add(1);
            if self.deadline_iters.is_multiple_of(1024) {
                if let Some((deadline, budget_ms)) = self.deadline {
                    if Instant::now() >= deadline {
                        return Err(SimErrorKind::Deadline { budget_ms });
                    }
                }
            }
            let issued_before = self.stats.issued.total + self.stats.issued_si.total;
            self.step()?;
            // Only bother computing a wake-up target after a dead cycle: a
            // cycle that issued usually has more ready work right behind it.
            // Failed attempts back off exponentially — compute-bound phases
            // produce long runs of dead-but-unskippable cycles, and paying
            // the O(warps) wake scan on each one erases the fast path's win.
            if self.stats.issued.total + self.stats.issued_si.total == issued_before {
                if self.fastpath {
                    if self.skip_cooldown > 0 {
                        self.skip_cooldown -= 1;
                    } else if self.try_fast_forward(target) {
                        self.skip_penalty = 1;
                    } else {
                        self.skip_cooldown = self.skip_penalty;
                        self.skip_penalty = (self.skip_penalty * 2).min(32);
                    }
                }
            } else {
                self.skip_cooldown = 0;
                self.skip_penalty = 1;
            }
        }
        Ok(())
    }

    /// Finalize: fill derived statistics, notify the sink, and surface any
    /// stored failure. The terminal half of [`Simulation::run`], split out
    /// so incrementally driven (chip-mode) engines share one epilogue.
    pub fn finish(mut self) -> Result<SimStats, SimError> {
        self.stats.cycles = self.cycle;
        self.stats.rays_completed = self.machine.rays_completed;
        self.stats.l1t = self.mem.l1t.stats;
        self.stats.l1d = self.mem.l1d.stats;
        self.stats.l2 = self.mem.l2.stats;
        self.stats.regfile_reads = self.banks.total_reads;
        self.stats.regfile_writes = self.banks.total_writes;
        self.stats.bank_conflicts = self.banks.total_conflicts;
        self.stats.block_profile = self
            .program
            .blocks()
            .iter()
            .zip(self.block_counters.iter())
            .map(|(b, &(n, a))| (b.label.to_string(), n, a))
            .collect();
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_finish(&Self::snapshot(&self.stats, self.cycle, self.machine.rays_completed));
        }
        if let Some(kind) = self.pending_failure.take() {
            return Err(self.fail(kind));
        }
        #[cfg(feature = "validate")]
        if let Err(kind) = self.check_drained() {
            return Err(self.fail(kind));
        }
        Ok(self.stats)
    }

    /// Switch this engine into full-chip mode: L1 lookups stay local, but
    /// every L1-missing line becomes a [`PortRequest`] for the chip's
    /// shared L2/MSHR/DRAM system instead of resolving against the
    /// private L2 slice. Call before any cycles run; the chip loop then
    /// drives the engine with [`Simulation::advance_to`] /
    /// [`Simulation::drain_requests`] / [`Simulation::chip_complete`].
    ///
    /// In chip mode the per-SM `SimStats::l2` counters stay zero (the
    /// shared system owns them) and MSHR-full attribution is folded into
    /// `MemoryPending` (the shared pool queues centrally).
    pub fn attach_chip_port(&mut self) {
        assert_eq!(self.cycle, 0, "attach the chip port before any cycles run");
        self.chip = Some(ChipPort::default());
    }

    /// Move all port requests issued since the last drain into `into`,
    /// preserving per-SM issue order.
    ///
    /// # Panics
    ///
    /// Panics without a chip port attached.
    pub fn drain_requests(&mut self, into: &mut Vec<PortRequest>) {
        let port = self.chip.as_mut().expect("chip port attached");
        into.append(&mut port.outbox);
    }

    /// Deliver the shared memory system's response for one line of load
    /// group `group`: its data is ready at cycle `ready`. When the last
    /// line of the group lands, the destination register releases at the
    /// group's max ready time plus its operand-collector extra.
    ///
    /// # Panics
    ///
    /// Panics without a chip port, or for an unknown (already completed)
    /// group — the chip loop must answer every line of every load exactly
    /// once.
    pub fn chip_complete(&mut self, group: u64, ready: u64) {
        let port = self.chip.as_mut().expect("chip port attached");
        port.max_response = port.max_response.max(ready);
        let entry = port.pending.get_mut(&group).expect("response for an open load group");
        entry.ready_acc = entry.ready_acc.max(ready);
        entry.remaining -= 1;
        if entry.remaining == 0 {
            let entry = port.pending.remove(&group).expect("entry exists");
            if let Some(d) = entry.dst {
                let ready = entry.ready_acc + entry.extra as u64;
                self.warps[entry.warp].reg_ready[d as usize] = ready;
                if let Some(attr) = &mut self.attr {
                    attr.producers[entry.warp][d as usize] =
                        RegProducer { mem: true, mshr_queued: false, base_ready: entry.ready_acc };
                }
            }
        }
    }

    /// Bind the load that `memory_access` just turned into port requests
    /// to its destination register and operand-collector extra (chip mode
    /// only; the sentinel `u64::MAX` scoreboard entry set at issue keeps
    /// dependents blocked until `chip_complete` fills the real time).
    fn chip_bind_load(&mut self, w: usize, dst: Option<u8>, extra: u32) {
        let port = self.chip.as_mut().expect("chip port attached");
        let group = port.open.take().expect("memory_access opened a group");
        let entry = port.pending.get_mut(&group).expect("open group is pending");
        entry.warp = w;
        entry.dst = dst;
        entry.extra = extra;
    }

    /// A cheap copy of the live counters for the telemetry sink.
    fn snapshot(stats: &SimStats, cycle: u64, rays_completed: u64) -> CycleSnapshot {
        CycleSnapshot {
            cycle,
            issued: stats.issued,
            issued_si: stats.issued_si,
            rdctrl_stalls: stats.rdctrl_stalls,
            rdctrl_issued: stats.rdctrl_issued,
            mem_transactions: stats.mem_transactions,
            loads: stats.loads,
            stores: stats.stores,
            rays_completed,
        }
    }

    /// Advance one cycle. Fails on a watchdog trip (organic no-progress or
    /// injected); the cycle is left un-incremented so the caller reports
    /// the failing cycle accurately.
    fn step(&mut self) -> Result<(), SimErrorKind> {
        if let Some(at) = self.watchdog_trip_at {
            if self.cycle >= at {
                return Err(self.watchdog_kind(true));
            }
        }
        self.banks.new_cycle();
        if let Some(attr) = &mut self.attr {
            attr.begin_cycle();
        }
        let issued_before = self.stats.issued.total + self.stats.issued_si.total;
        for s in 0..self.cfg.warp_schedulers {
            self.schedule(s);
        }
        if self.stats.issued.total + self.stats.issued_si.total > issued_before {
            self.last_issue_cycle = self.cycle;
        } else if self.cycle - self.last_issue_cycle > self.cfg.watchdog_cycles {
            return Err(self.watchdog_kind(false));
        }
        let mut idle = std::mem::take(&mut self.idle_scratch);
        self.banks.idle_banks_into(&mut idle);
        self.special.tick(self.cycle, &idle, &mut self.machine, &mut self.stats);
        self.idle_scratch = idle;
        if self.attr.is_some() {
            self.cycle_telemetry();
        }
        self.cycle += 1;
        Ok(())
    }

    /// The event-driven fast path: called between steps (at the
    /// post-increment cycle) after a cycle in which nothing issued. If no
    /// warp can possibly issue before some future cycle `t` and the
    /// special unit is quiescent until then, jump `self.cycle` straight to
    /// `t`, charging the skipped span to telemetry in bulk.
    ///
    /// Skipping is *optional* at every point — correctness never depends
    /// on how far (or whether) we jump, only on never jumping past a cycle
    /// where state could change. With a sink attached, the jump is
    /// additionally capped at the earliest per-warp stall-bucket
    /// breakpoint so the bulk-charged buckets are constant over the span
    /// (preserving `Σ buckets == cycles × warps` and interval timelines
    /// exactly; see DESIGN.md "Simulator fast path").
    ///
    /// Returns `true` iff the cycle counter actually advanced, so the run
    /// loop can back off after failed attempts.
    fn try_fast_forward(&mut self, cap: u64) -> bool {
        let now = self.cycle;
        let wake = self.next_wake(now);
        if wake == u64::MAX && self.chip.is_none() {
            // All warps exited (the run loop is about to terminate).
            return false;
        }
        // In chip mode `wake == u64::MAX` means every live warp waits on a
        // shared-memory response, which can only arrive at the window
        // barrier — jump straight to the window end (`cap`).
        let mut target = wake.min(self.cfg.max_cycles).min(cap);
        if self.attr.is_some() {
            target = target.min(self.next_bucket_breakpoint(now));
        }
        if target <= now {
            return false;
        }
        if self.attr.is_some() {
            self.span_buckets();
            let snap = Self::snapshot(&self.stats, now, self.machine.rays_completed);
            let attr = self.attr.as_ref().expect("checked above");
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.on_cycles(&snap, &attr.buckets, target - now);
            }
        }
        self.cycle = target;
        true
    }

    /// Earliest cycle `>= now` at which any warp could issue, or the
    /// special unit needs its tick. Returns `now` as soon as any warp is
    /// issuable (no skip), and `u64::MAX` iff every warp has exited.
    ///
    /// Per warp: an exited warp never wakes; a blocked warp wakes at
    /// `blocked_until`; otherwise the warp wakes when the last scoreboard
    /// timestamp among its next op's registers releases (a warp at a block
    /// terminator, or with all operands ready, is issuable *now* — this
    /// deliberately covers ready `Special` ops, whose issue attempt
    /// mutates unit state even when refused). Loads encode their full
    /// memory latency — MSHR fill included — into `reg_ready` at issue
    /// time, so no separate memory-subsystem wake is needed.
    fn next_wake(&self, now: u64) -> u64 {
        // Consult the special unit before the O(warps) scoreboard scan:
        // during DRS swap/transfer phases it demands a tick every cycle,
        // which vetoes any skip in O(1).
        let special_wake = match self.special.next_event(now) {
            Some(t) if t <= now => return now,
            Some(t) => t,
            None => u64::MAX,
        };
        let mut wake = u64::MAX;
        let mut alive = false;
        for warp in &self.warps {
            if warp.exited {
                continue;
            }
            alive = true;
            let w_wake = if warp.blocked_until > now {
                warp.blocked_until
            } else {
                let top = warp.effective_top();
                match self.program.block(top.pc).ops.get(top.op_idx) {
                    None => now, // terminators always issue
                    Some(op) => {
                        let mut t = now;
                        for r in op.sources().chain(op.dst) {
                            t = t.max(warp.reg_ready[r as usize]);
                        }
                        t
                    }
                }
            };
            if w_wake <= now {
                return now;
            }
            wake = wake.min(w_wake);
        }
        if !alive {
            // Every warp exited: quiescent regardless of the special unit
            // (the run loop is about to terminate).
            return u64::MAX;
        }
        if wake == u64::MAX {
            // Live warps, but every one waits on a chip-mode sentinel
            // (`reg_ready == u64::MAX`): only the special unit — or a
            // shared-memory response at the window barrier — wakes us.
            return special_wake;
        }
        wake.min(special_wake)
    }

    /// Earliest cycle `> now` at which any warp's stall bucket could
    /// change, given that no instruction issues in between. Per warp, the
    /// bucket is piecewise-constant with breakpoints at `blocked_until`,
    /// at each pending register's `reg_ready`, and at each pending
    /// register's producer `base_ready` (where a memory charge hands over
    /// to the operand collector). Only used with telemetry attached.
    fn next_bucket_breakpoint(&self, now: u64) -> u64 {
        let attr = self.attr.as_ref().expect("telemetry attached");
        let mut t = u64::MAX;
        for (w, warp) in self.warps.iter().enumerate() {
            if warp.exited {
                continue;
            }
            if warp.blocked_until > now {
                t = t.min(warp.blocked_until);
                continue;
            }
            let top = warp.effective_top();
            if let Some(op) = self.program.block(top.pc).ops.get(top.op_idx) {
                for r in op.sources().chain(op.dst) {
                    let ready = warp.reg_ready[r as usize];
                    if ready > now {
                        t = t.min(ready);
                        let base = attr.producers[w][r as usize].base_ready;
                        if base > now {
                            t = t.min(base);
                        }
                    }
                }
            }
        }
        t
    }

    /// Fill `attr.buckets` with the charge for a skipped (no-issue,
    /// no-rdctrl-attempt) cycle — the same attribution
    /// [`Simulation::cycle_telemetry`] computes after a stepped cycle, with
    /// `issued` and `rdctrl` necessarily false (naive stepping clears both
    /// at the start of every cycle and nothing sets them in a dead span).
    fn span_buckets(&mut self) {
        let now = self.cycle;
        let attr = self.attr.as_mut().expect("telemetry attached");
        for (w, warp) in self.warps.iter().enumerate() {
            attr.buckets[w] = Self::warp_bucket(
                &self.program,
                warp,
                &attr.producers[w],
                attr.block_reason[w],
                false,
                false,
                now,
            );
        }
    }

    /// Charge every warp's cycle to exactly one [`StallBucket`] and hand
    /// the attribution to the sink. Only runs with telemetry attached.
    ///
    /// The charging priority order is documented on [`StallBucket`]; the
    /// per-warp sum over a whole run satisfies
    /// `Σ buckets == cycles × warps` by construction (one bucket per warp
    /// per call, one call per cycle).
    fn cycle_telemetry(&mut self) {
        let attr = self.attr.as_mut().expect("guarded by caller");
        let now = self.cycle;
        for (w, warp) in self.warps.iter().enumerate() {
            attr.buckets[w] = Self::warp_bucket(
                &self.program,
                warp,
                &attr.producers[w],
                attr.block_reason[w],
                attr.issued[w],
                attr.rdctrl[w],
                now,
            );
        }
        let snap = Self::snapshot(&self.stats, now, self.machine.rays_completed);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.on_cycle(&snap, &attr.buckets);
        }
    }

    /// The bucket one warp-cycle is charged to — shared by the per-cycle
    /// pass and the fast path's bulk span charge.
    fn warp_bucket(
        program: &Program,
        warp: &WarpTiming,
        producers: &[RegProducer; TRACKED_REGS],
        reason: BlockReason,
        issued: bool,
        rdctrl: bool,
        now: u64,
    ) -> StallBucket {
        if issued {
            StallBucket::Issued
        } else if warp.exited {
            // Drained out of the kernel; the slot idles until grid end.
            StallBucket::SimtDrain
        } else if rdctrl || (warp.blocked_until > now && reason == BlockReason::Rdctrl) {
            StallBucket::RdctrlStall
        } else if warp.blocked_until > now {
            match reason {
                BlockReason::SpawnMem => StallBucket::MemoryPending,
                // Branch-redirect penalty: the SIMT stack update drains
                // the front end.
                _ => StallBucket::SimtDrain,
            }
        } else {
            // No explicit block: consult the scoreboard for the next op
            // the warp would execute.
            let top = warp.effective_top();
            let block = program.block(top.pc);
            match block.ops.get(top.op_idx) {
                None => StallBucket::Idle, // ready at the terminator
                Some(op) => {
                    // The binding operand is the one released last.
                    let mut worst: Option<(u64, StallBucket)> = None;
                    for r in op.sources().chain(op.dst) {
                        let ready = warp.reg_ready[r as usize];
                        if ready <= now {
                            continue;
                        }
                        let p = producers[r as usize];
                        let b = if now >= p.base_ready {
                            // Base latency elapsed: only register-bank
                            // serialization keeps the value away.
                            StallBucket::OperandCollector
                        } else if p.mem {
                            if p.mshr_queued {
                                StallBucket::MshrFull
                            } else {
                                StallBucket::MemoryPending
                            }
                        } else {
                            StallBucket::Scoreboard
                        };
                        if worst.is_none_or(|(t, _)| ready > t) {
                            worst = Some((ready, b));
                        }
                    }
                    match worst {
                        Some((_, b)) => b,
                        // Operands ready: the warp was simply not
                        // selected by its scheduler this cycle.
                        None => StallBucket::Idle,
                    }
                }
            }
        }
    }

    /// Watchdog trip: no warp has issued for `watchdog_cycles` (or an
    /// injected trip fired). Capture every warp's SIMT stack as a
    /// [`WarpDump`] — data in the error payload, not a stderr print — so a
    /// livelocked kernel is debuggable from the failed cell's record.
    fn watchdog_kind(&self, injected: bool) -> SimErrorKind {
        let warps = self
            .warps
            .iter()
            .enumerate()
            .map(|(w, warp)| WarpDumpEntry {
                warp: w,
                exited: warp.exited,
                blocked_until: warp.blocked_until,
                stack: warp
                    .stack
                    .iter()
                    .map(|e| FrameDump {
                        block: e.pc,
                        label: self.program.block(e.pc).label.to_string(),
                        op_idx: e.op_idx,
                        mask: e.mask,
                        reconv: e.reconv,
                    })
                    .collect(),
            })
            .collect();
        SimErrorKind::Watchdog {
            stalled_cycles: self.cycle - self.last_issue_cycle,
            watchdog_cycles: self.cfg.watchdog_cycles,
            injected,
            dump: WarpDump { warps },
        }
    }

    /// End-of-run invariants: SIMT stacks unwound, all rays drained, no
    /// scoreboard timestamp or MSHR fill implausibly far in the future.
    #[cfg(feature = "validate")]
    fn check_drained(&self) -> Result<(), SimErrorKind> {
        let fail = |message: String| Err(SimErrorKind::Invariant { message });
        let slack = (self.cfg.dram_latency
            + self.cfg.l2_latency
            + self.cfg.l1_latency
            + self.cfg.alu_latency) as u64
            + 64;
        // Chip mode: DRAM-channel queueing can push a response past the
        // flat-latency slack, so the drain horizon starts at the latest
        // delivered response; and no load group may still await one.
        let mut horizon_base = self.cycle;
        if let Some(port) = &self.chip {
            if !port.pending.is_empty() {
                return fail(format!(
                    "{} chip load groups still await shared-memory responses",
                    port.pending.len()
                ));
            }
            horizon_base = horizon_base.max(port.max_response);
        }
        for (w, warp) in self.warps.iter().enumerate() {
            if warp.stack.len() != 1 {
                return fail(format!(
                    "warp {w} exited with {} reconvergence entries still stacked",
                    warp.stack.len() - 1
                ));
            }
            for (r, &ready) in warp.reg_ready.iter().enumerate() {
                if ready > horizon_base + slack {
                    return fail(format!(
                        "warp {w} scoreboard r{r} ready at {ready}, past cycle {horizon_base} + {slack}"
                    ));
                }
            }
        }
        if !self.machine.all_work_drained() {
            return fail(format!(
                "rays remain after all warps exited ({} queued, {} resident)",
                self.machine.queue.remaining(),
                self.machine.slots.iter().filter(|s| s.ray.is_some()).count()
            ));
        }
        let horizon = self.cycle + 2 * slack;
        let outstanding = self.mem.outstanding_misses(horizon);
        if outstanding != 0 {
            return fail(format!("{outstanding} MSHR fills outstanding past kernel end"));
        }
        if let Some(bound) = self.stack_depth_bound {
            if self.max_stack_depth > bound {
                return fail(format!(
                    "observed SIMT stack depth {} exceeds the statically derived bound {bound}",
                    self.max_stack_depth
                ));
            }
        }
        Ok(())
    }

    /// One scheduler's issue attempt for this cycle.
    ///
    /// A scheduler owns warps `w ≡ sched (mod warp_schedulers)`, i.e. warp
    /// `i` of scheduler `sched` is `sched + i * nsched` — computed on the
    /// fly so the candidate scan allocates nothing.
    fn schedule(&mut self, sched: usize) {
        let nsched = self.cfg.warp_schedulers;
        // Number of warps owned by this scheduler.
        let n = self.cfg.max_warps.saturating_sub(sched).div_ceil(nsched);
        if n == 0 {
            return;
        }
        // Candidate order by policy: GTO prefers the current (greedy) warp
        // then the oldest; LRR rotates the preferred warp every cycle.
        match self.cfg.scheduler_policy {
            crate::config::SchedulerPolicy::GreedyThenOldest => {
                let current = self.sched_current[sched];
                debug_assert_eq!(current % nsched, sched, "greedy warp owned by its scheduler");
                if self.try_schedule_warp(sched, current) {
                    return;
                }
                for i in 0..n {
                    let w = sched + i * nsched;
                    if w != current && self.try_schedule_warp(sched, w) {
                        return;
                    }
                }
            }
            crate::config::SchedulerPolicy::LooseRoundRobin => {
                let start = (self.cycle as usize) % n;
                for i in 0..n {
                    let w = sched + ((start + i) % n) * nsched;
                    if self.try_schedule_warp(sched, w) {
                        return;
                    }
                }
            }
        }
    }

    /// Attempt to issue from candidate warp `w`; true ends the scan.
    fn try_schedule_warp(&mut self, sched: usize, w: usize) -> bool {
        if self.warps[w].exited || self.warps[w].blocked_until > self.cycle {
            return false;
        }
        let issued = self.issue_from_warp(w);
        if issued > 0 {
            if let Some(attr) = &mut self.attr {
                attr.issued[w] = true;
            }
            self.sched_current[sched] = w;
            return true;
        }
        false
    }

    /// Try to issue up to the per-scheduler dual-issue limit from warp `w`.
    /// Returns how many instructions issued.
    fn issue_from_warp(&mut self, w: usize) -> usize {
        let limit = self.cfg.issues_per_scheduler();
        let mut issued = 0;
        let mut last_dst: Option<u8> = None;
        while issued < limit {
            self.warps[w].settle();
            let top = *self.warps[w].top();
            let block = self.program.block(top.pc);
            if top.op_idx < block.ops.len() {
                let op = block.ops[top.op_idx];
                // Dual-issue restriction: the second op must not read the
                // first op's (not yet ready) result, and specials issue alone.
                if issued > 0 {
                    if matches!(op.kind, OpKind::Special { .. }) {
                        break;
                    }
                    if let Some(d) = last_dst {
                        if op.sources().any(|s| s == d) || op.dst == Some(d) {
                            break;
                        }
                    }
                }
                if !self.operands_ready(w, &op) {
                    break;
                }
                match self.try_issue_op(w, &op, top.mask) {
                    IssueResult::Issued => {
                        self.warps[w].top_mut().op_idx += 1;
                        last_dst = op.dst;
                        issued += 1;
                        let c = &mut self.block_counters[top.pc as usize];
                        c.0 += 1;
                        c.1 += top.mask.count_ones() as u64;
                    }
                    IssueResult::Stalled => {
                        // The special unit refused the warp; re-arbitration
                        // takes a few cycles in hardware, and backing off
                        // also keeps the scheduler from burning its issue
                        // slot on the same stalled warp every cycle.
                        self.warps[w].blocked_until = self.cycle + 3;
                        if let Some(attr) = &mut self.attr {
                            attr.block_reason[w] = BlockReason::Rdctrl;
                        }
                        break;
                    }
                }
            } else {
                // Terminator: issues alone.
                if issued > 0 {
                    break;
                }
                self.issue_terminator(w, top.pc, top.mask);
                let c = &mut self.block_counters[top.pc as usize];
                c.0 += 1;
                c.1 += top.mask.count_ones() as u64;
                issued += 1;
                break;
            }
        }
        issued
    }

    /// Scoreboard check: all sources and the destination are ready.
    fn operands_ready(&self, w: usize, op: &MicroOp) -> bool {
        let ready = &self.warps[w].reg_ready;
        if op.sources().any(|s| ready[s as usize] > self.cycle) {
            return false;
        }
        if let Some(d) = op.dst {
            if ready[d as usize] > self.cycle {
                return false;
            }
        }
        true
    }

    /// Issue one micro-op for warp `w` under `mask`.
    fn try_issue_op(&mut self, w: usize, op: &MicroOp, mask: u32) -> IssueResult {
        let now = self.cycle;
        // Active lanes on the stack: at most 32 (config-validated).
        let mut active_buf = [0usize; 32];
        let mut na = 0;
        for l in 0..self.cfg.simd_lanes {
            if mask & (1 << l) != 0 {
                active_buf[na] = l;
                na += 1;
            }
        }
        let active = &active_buf[..na];
        debug_assert!(!active.is_empty(), "issue with empty mask");
        #[cfg(feature = "validate")]
        {
            assert_ne!(mask, 0, "validate: issue with empty active mask");
            assert_eq!(
                mask & !self.full_mask,
                0,
                "validate: active mask {mask:#010x} names lanes beyond the {} live lanes",
                self.cfg.simd_lanes
            );
            if let Some(bound) = self.inflight_regs_bound {
                let inflight = self.warps[w].reg_ready.iter().filter(|&&ready| ready > now).count();
                assert!(
                    inflight <= bound,
                    "validate: warp {w} has {inflight} registers in flight, exceeding the \
                     program's {bound} distinct destination registers"
                );
            }
        }
        match op.kind {
            OpKind::Special { token } => {
                match self.special.issue(w, token, &mut self.machine, &mut self.stats) {
                    SpecialOutcome::Stall => {
                        self.stats.rdctrl_stalls += 1;
                        if let Some(attr) = &mut self.attr {
                            attr.rdctrl[w] = true;
                        }
                        return IssueResult::Stalled;
                    }
                    SpecialOutcome::Proceed { ctrl } => {
                        self.machine.warp_ctrl[w] = ctrl;
                        self.stats.rdctrl_issued += 1;
                        if let Some(d) = op.dst {
                            let ready = now + self.cfg.alu_latency as u64;
                            self.warps[w].reg_ready[d as usize] = ready;
                            self.banks.write(w, d);
                            self.note_producer(w, d, false, false, ready);
                        }
                    }
                }
            }
            OpKind::Effect { token } => {
                for &lane in active {
                    self.behavior.apply_effect(token, w, lane, &mut self.machine);
                }
            }
            OpKind::Alu { latency } => {
                let extra = self.collect_operands(w, op);
                if let Some(d) = op.dst {
                    let base = now + latency as u64;
                    self.warps[w].reg_ready[d as usize] = base + extra as u64;
                    self.banks.write(w, d);
                    self.note_producer(w, d, false, false, base);
                }
            }
            OpKind::Load { space, addr } => {
                let extra = self.collect_operands(w, op);
                let (ready, mshr_queued) = self.memory_access(w, space, addr, active, true);
                if ready == u64::MAX {
                    // Chip mode, L1 miss(es): the shared memory system
                    // answers later. Park the destination at the sentinel
                    // (no `+ extra` — that would overflow; the extra is
                    // applied when the last response lands).
                    if let Some(d) = op.dst {
                        self.warps[w].reg_ready[d as usize] = u64::MAX;
                        self.banks.write(w, d);
                        self.note_producer(w, d, true, false, u64::MAX);
                    }
                    self.chip_bind_load(w, op.dst, extra);
                } else if let Some(d) = op.dst {
                    self.warps[w].reg_ready[d as usize] = ready + extra as u64;
                    self.banks.write(w, d);
                    self.note_producer(w, d, true, mshr_queued, ready);
                }
                self.stats.loads += 1;
            }
            OpKind::Store { space, addr } => {
                let _extra = self.collect_operands(w, op);
                let _ = self.memory_access(w, space, addr, active, false);
                self.stats.stores += 1;
            }
        }
        // Record the issue in the right histogram.
        match op.tag {
            OpTag::Normal => self.stats.issued.record(active.len()),
            OpTag::SpawnOverhead => self.stats.issued_si.record(active.len()),
        }
        IssueResult::Issued
    }

    /// Record what produced register `d`'s pending value (telemetry only;
    /// no-op when no sink is attached).
    #[inline]
    fn note_producer(&mut self, w: usize, d: u8, mem: bool, mshr_queued: bool, base_ready: u64) {
        if let Some(attr) = &mut self.attr {
            attr.producers[w][d as usize] = RegProducer { mem, mshr_queued, base_ready };
        }
    }

    /// Read source operands through the banked register file; returns extra
    /// operand-collection cycles caused by bank conflicts.
    fn collect_operands(&mut self, w: usize, op: &MicroOp) -> u32 {
        let mut extra = 0;
        for s in op.sources() {
            extra += self.banks.read(w, s);
        }
        extra
    }

    /// Coalesce the active lanes' addresses and access the hierarchy;
    /// returns the cycle the last line's data arrives plus whether any
    /// line's miss had to queue for an MSHR (telemetry attribution).
    fn memory_access(
        &mut self,
        w: usize,
        space: MemSpace,
        addr_token: u16,
        active: &[usize],
        is_load: bool,
    ) -> (u64, bool) {
        let now = self.cycle;
        // Coalescing scratch on the stack: ≤ 32 lanes → ≤ 32 distinct lines.
        let mut line_buf = [0u64; 32];
        let mut nl = 0;
        let mut spawn_banks = [0u32; 32];
        for &lane in active {
            let addr = self.behavior.eval_addr(addr_token, w, lane, &self.machine);
            if space == MemSpace::Spawn {
                spawn_banks[(addr / 4 % 32) as usize] += 1;
            }
            let line = self.mem.line_of(addr);
            if !line_buf[..nl].contains(&line) {
                line_buf[nl] = line;
                nl += 1;
            }
        }
        let lines = &line_buf[..nl];
        if space == MemSpace::Spawn {
            // On-chip scratch: a warp instruction occupies the scratchpad
            // for one cycle plus its bank-conflict serialization, and the
            // scratchpad is shared — concurrent spawns queue behind each
            // other, so this latency cannot be hidden by warp parallelism.
            let max_per_bank = spawn_banks.iter().copied().max().unwrap_or(0);
            let conflict_cycles = max_per_bank.saturating_sub(1) as u64;
            self.stats.spawn_bank_conflict_cycles += conflict_cycles;
            // Conflict-free accesses pipeline normally; the serialization
            // cycles of a conflicted access occupy the shared scratchpad
            // and stall both the issuing warp and later spawn traffic (the
            // paper: conflicts consume 8-20% of SMX cycles and cannot be
            // hidden because the data movement is explicit instructions).
            let start = self.spawn_busy_until.max(now);
            let end = start + 1 + conflict_cycles;
            self.spawn_busy_until = end;
            self.warps[w].blocked_until = end;
            if let Some(attr) = &mut self.attr {
                attr.block_reason[w] = BlockReason::SpawnMem;
            }
            return (end + self.cfg.l1_latency as u64, false);
        }
        // The load/store unit is shared: spawn-memory conflict serialization
        // (DMK) occupies it, so ordinary loads issued meanwhile queue behind
        // it — the paper's "extra cycles incurred by bank conflicts cannot
        // be hidden".
        let start = self.spawn_busy_until.max(now);
        if let Some(port) = &mut self.chip {
            // Full-chip mode: probe the private L1s locally; every missing
            // line becomes a request for the shared memory system. The LSU
            // still emits one line per cycle.
            let mut hit_ready = start;
            let mut misses = 0usize;
            for (i, line) in lines.iter().enumerate() {
                let at = start + i as u64;
                let l1 = match space {
                    MemSpace::Global => &mut self.mem.l1d,
                    _ => &mut self.mem.l1t,
                };
                if l1.access(*line) {
                    hit_ready = hit_ready.max(at + self.cfg.l1_latency as u64);
                } else {
                    port.outbox.push(PortRequest {
                        group: port.next_group,
                        seq: port.next_seq,
                        line: *line,
                        space,
                        is_load,
                        issue: at,
                    });
                    port.next_seq += 1;
                    misses += 1;
                }
                self.stats.mem_transactions += 1;
            }
            let group = port.next_group;
            port.next_group += 1;
            if is_load && misses > 0 {
                port.pending.insert(
                    group,
                    PendingLoad {
                        warp: w,
                        dst: None,
                        extra: 0,
                        remaining: misses,
                        ready_acc: hit_ready,
                    },
                );
                port.open = Some(group);
                // Sentinel: the destination's real ready time is unknown
                // until the shared system answers at a window barrier.
                return (u64::MAX, false);
            }
            return (hit_ready, false);
        }
        let mut last_ready = start;
        let mut any_mshr_queued = false;
        // The LSU processes one line per cycle; memory divergence serializes.
        for (i, line) in lines.iter().enumerate() {
            let (ready, mshr_queued) = self.mem.access_probed(space, *line, start + i as u64);
            last_ready = last_ready.max(ready);
            any_mshr_queued |= mshr_queued;
            self.stats.mem_transactions += 1;
        }
        (last_ready, any_mshr_queued)
    }

    /// Execute a block terminator for warp `w`.
    fn issue_terminator(&mut self, w: usize, pc: BlockId, mask: u32) {
        let now = self.cycle;
        let active = mask.count_ones() as usize;
        self.stats.issued.record(active);
        match self.program.block(pc).terminator {
            Terminator::Jump(t) => {
                let top = self.warps[w].top_mut();
                top.pc = t;
                top.op_idx = 0;
                self.warps[w].blocked_until = now + self.cfg.branch_penalty as u64;
                if let Some(attr) = &mut self.attr {
                    attr.block_reason[w] = BlockReason::Branch;
                }
            }
            Terminator::Exit => {
                self.warps[w].exited = true;
            }
            Terminator::Branch { cond, on_true, on_false, reconverge } => {
                let mut t_mask = 0u32;
                for l in 0..self.cfg.simd_lanes {
                    if mask & (1 << l) != 0 && self.behavior.eval_cond(cond, w, l, &self.machine) {
                        t_mask |= 1 << l;
                    }
                }
                let f_mask = mask & !t_mask;
                #[cfg(feature = "validate")]
                {
                    assert_eq!(t_mask & f_mask, 0, "validate: divergent masks overlap");
                    assert_eq!(
                        t_mask | f_mask,
                        mask,
                        "validate: divergence must partition the parent mask"
                    );
                }
                let warp = &mut self.warps[w];
                if f_mask == 0 {
                    let top = warp.top_mut();
                    top.pc = on_true;
                    top.op_idx = 0;
                } else if t_mask == 0 {
                    let top = warp.top_mut();
                    top.pc = on_false;
                    top.op_idx = 0;
                } else {
                    // Divergence: parent waits at the reconvergence point;
                    // execute the false path after the true path.
                    {
                        let top = warp.top_mut();
                        top.pc = reconverge;
                        top.op_idx = 0;
                    }
                    warp.stack.push(StackEntry {
                        pc: on_false,
                        op_idx: 0,
                        mask: f_mask,
                        reconv: reconverge,
                    });
                    warp.stack.push(StackEntry {
                        pc: on_true,
                        op_idx: 0,
                        mask: t_mask,
                        reconv: reconverge,
                    });
                    #[cfg(feature = "validate")]
                    {
                        let depth = warp.stack.len();
                        self.max_stack_depth = self.max_stack_depth.max(depth);
                        if let Some(bound) = self.stack_depth_bound {
                            assert!(
                                depth <= bound,
                                "validate: warp {w} SIMT stack reached {depth} entries, \
                                 exceeding the statically derived bound of {bound}"
                            );
                        }
                    }
                }
                self.warps[w].blocked_until = now + self.cfg.branch_penalty as u64;
                if let Some(attr) = &mut self.attr {
                    attr.block_reason[w] = BlockReason::Branch;
                }
            }
        }
    }
}

enum IssueResult {
    Issued,
    Stalled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::NullSpecial;
    use crate::isa::MicroOp;
    use crate::program::Block;
    use drs_trace::{RayScript, Step, Termination};

    /// A toy kernel: each lane consumes its script's steps one per loop
    /// iteration (cond 0 = "lane's slot still has steps"; effect 0 =
    /// consume + retire/fetch as needed; addr 0 = current step address).
    pub(super) struct ToyBehavior;

    const COND_HAS_WORK: u16 = 0;
    const EFF_CONSUME: u16 = 0;
    const ADDR_NODE: u16 = 0;

    impl KernelBehavior for ToyBehavior {
        fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
            assert_eq!(token, COND_HAS_WORK);
            let Some(slot) = m.slot_of(warp, lane) else { return false };
            m.peek_step(slot).is_some() || !m.queue.is_empty()
        }

        fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
            assert_eq!(token, ADDR_NODE);
            let slot = m.slot_of(warp, lane).expect("mapped lane");
            match m.peek_step(slot) {
                Some(Step::Inner { node_addr, .. }) => *node_addr,
                Some(Step::Leaf { node_addr, .. }) => *node_addr,
                None => 0x7000_0000,
            }
        }

        fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
            assert_eq!(token, EFF_CONSUME);
            let slot = m.slot_of(warp, lane).expect("mapped lane");
            if m.slots[slot].ray.is_none() {
                m.fetch_into(slot);
                return;
            }
            if m.peek_step(slot).is_some() {
                m.consume_step(slot);
            }
            if m.peek_step(slot).is_none() && m.slots[slot].ray.is_some() {
                m.retire_ray(slot);
            }
        }

        fn initialize(&self, m: &mut MachineState<'_>) {
            for s in 0..m.slots.len() {
                m.fetch_into(s);
            }
        }
    }

    pub(super) fn toy_program() -> Program {
        Program::new(vec![
            // 0: loop head
            Block::new(
                "head",
                vec![],
                Terminator::Branch { cond: COND_HAS_WORK, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            // 1: body — a load from the script address, some ALU, consume.
            Block::new(
                "body",
                vec![
                    MicroOp::load(1, MemSpace::Texture, ADDR_NODE, &[]),
                    MicroOp::alu(2, &[1], 9),
                    MicroOp::alu(3, &[2], 9),
                    MicroOp::effect(EFF_CONSUME),
                ],
                Terminator::Jump(0),
            ),
            // 2: exit
            Block::new("exit", vec![], Terminator::Exit),
        ])
    }

    pub(super) fn scripts_uniform(n: usize, steps: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                RayScript::new(
                    (0..steps)
                        .map(|s| Step::Inner {
                            node_addr: 0x1000_0000 + ((i * steps + s) as u64) * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect()
    }

    pub(super) fn small_cfg(warps: usize) -> GpuConfig {
        GpuConfig { max_warps: warps, max_cycles: 2_000_000, ..GpuConfig::gtx780() }
    }

    #[test]
    fn toy_kernel_completes_all_rays() {
        let scripts = scripts_uniform(256, 10);
        let sim = Simulation::new(
            small_cfg(4),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            &scripts,
        );
        let stats = sim.run().expect("simulation hit the cycle cap");
        assert_eq!(stats.rays_completed, 256);
        assert!(stats.cycles > 0);
        assert!(stats.issued.total > 0);
        assert!(stats.loads > 0);
    }

    #[test]
    fn uniform_scripts_give_full_simd_efficiency() {
        // Every lane has identical-length scripts: no divergence at the loop
        // branch, so every issue has 32 active lanes.
        let scripts = scripts_uniform(128, 6);
        let sim = Simulation::new(
            small_cfg(4),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            &scripts,
        );
        let stats = sim.run().expect("completes");
        assert!(stats.issued.simd_efficiency() > 0.999, "got {}", stats.issued.simd_efficiency());
    }

    #[test]
    fn ragged_scripts_reduce_simd_efficiency() {
        // Lane i's ray has i%16+1 steps: heavy divergence at the loop branch.
        let scripts: Vec<RayScript> = (0..128usize)
            .map(|i| {
                RayScript::new(
                    (0..=(i % 16))
                        .map(|s| Step::Inner {
                            node_addr: 0x1000_0000 + ((i * 31 + s) as u64) * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect();
        let sim = Simulation::new(
            small_cfg(4),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            &scripts,
        );
        let stats = sim.run().expect("completes");
        let eff = stats.issued.simd_efficiency();
        assert!(eff < 0.95, "ragged work should diverge, got {eff}");
        assert!(eff > 0.2, "sanity lower bound, got {eff}");
        assert_eq!(stats.rays_completed, 128);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let scripts = scripts_uniform(64, 5);
        let run = || {
            Simulation::new(
                small_cfg(2),
                toy_program(),
                Box::new(ToyBehavior),
                Box::new(NullSpecial),
                &scripts,
            )
            .run()
            .expect("completes")
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.issued.total, b.issued.total);
    }

    #[test]
    fn cache_locality_speeds_up_reruns() {
        // Identical addresses across rays: second warp set hits in L1.
        let mut scripts = scripts_uniform(32, 8);
        let clone = scripts.clone();
        scripts.extend(clone); // same addresses again
        let sim = Simulation::new(
            small_cfg(2),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            &scripts,
        );
        let stats = sim.run().expect("completes");
        assert!(stats.l1t.hits > 0, "expected texture-cache hits");
    }

    /// Special unit that stalls the first `n` attempts.
    struct StallingUnit {
        remaining: u32,
    }
    impl SpecialUnit for StallingUnit {
        fn issue(
            &mut self,
            _w: usize,
            _t: u16,
            _m: &mut MachineState<'_>,
            _s: &mut SimStats,
        ) -> SpecialOutcome {
            if self.remaining > 0 {
                self.remaining -= 1;
                SpecialOutcome::Stall
            } else {
                SpecialOutcome::Proceed { ctrl: 7 }
            }
        }
        fn tick(&mut self, _c: u64, _i: &[bool], _m: &mut MachineState<'_>, _s: &mut SimStats) {}
    }

    #[test]
    fn special_stalls_are_counted_and_retried() {
        struct SpecialToy;
        impl KernelBehavior for SpecialToy {
            fn eval_cond(&self, _t: u16, _w: usize, _l: usize, _m: &MachineState<'_>) -> bool {
                false
            }
            fn eval_addr(&self, _t: u16, _w: usize, _l: usize, _m: &MachineState<'_>) -> u64 {
                0
            }
            fn apply_effect(&self, _t: u16, _w: usize, _l: usize, _m: &mut MachineState<'_>) {}
        }
        let program =
            Program::new(vec![Block::new("only", vec![MicroOp::special(0, 0)], Terminator::Exit)]);
        let scripts: Vec<RayScript> = vec![];
        let cfg = GpuConfig { max_warps: 1, ..GpuConfig::gtx780() };
        let sim = Simulation::new(
            cfg,
            program,
            Box::new(SpecialToy),
            Box::new(StallingUnit { remaining: 5 }),
            &scripts,
        );
        let stats = sim.run().expect("completes");
        assert_eq!(stats.rdctrl_stalls, 5);
        assert_eq!(stats.rdctrl_issued, 1);
        assert!((stats.rdctrl_stall_rate() - 5.0 / 6.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::tests::{scripts_uniform, small_cfg, toy_program, ToyBehavior};
    use super::*;
    use crate::behavior::NullSpecial;
    use crate::telemetry::NUM_STALL_BUCKETS;

    /// Sink that tallies buckets and checks per-call invariants.
    #[derive(Default)]
    struct Recorder {
        cycles: u64,
        warps: usize,
        counts: [u64; NUM_STALL_BUCKETS],
        finished: bool,
        last_cycle: Option<u64>,
    }

    impl TelemetrySink for Recorder {
        fn on_cycle(&mut self, snap: &CycleSnapshot, warp_buckets: &[StallBucket]) {
            // Cycles arrive strictly in order, exactly once each.
            if let Some(prev) = self.last_cycle {
                assert_eq!(snap.cycle, prev + 1);
            } else {
                assert_eq!(snap.cycle, 0);
            }
            self.last_cycle = Some(snap.cycle);
            self.cycles += 1;
            self.warps = warp_buckets.len();
            for &b in warp_buckets {
                self.counts[b as usize] += 1;
            }
        }

        fn on_finish(&mut self, snap: &CycleSnapshot) {
            assert!(!self.finished, "on_finish must fire once");
            self.finished = true;
            assert_eq!(snap.cycle, self.cycles);
        }
    }

    fn run_with_recorder(scripts: &[RayScript]) -> (SimStats, Recorder) {
        let mut rec = Recorder::default();
        let mut sim = Simulation::new(
            small_cfg(4),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            scripts,
        );
        sim.attach_telemetry(&mut rec);
        let stats = sim.run().expect("completes");
        (stats, rec)
    }

    #[test]
    fn accounting_identity_holds_every_cycle() {
        let scripts = scripts_uniform(256, 10);
        let (stats, rec) = run_with_recorder(&scripts);
        assert!(rec.finished);
        assert_eq!(rec.cycles, stats.cycles);
        assert_eq!(rec.warps, 4);
        let total: u64 = rec.counts.iter().sum();
        assert_eq!(
            total,
            stats.cycles * 4,
            "Σ buckets must equal cycles × warps; got {:?}",
            rec.counts
        );
        // The toy kernel issues, waits on loads and drains at the end.
        assert!(rec.counts[StallBucket::Issued as usize] > 0);
        assert!(rec.counts[StallBucket::MemoryPending as usize] > 0);
        assert!(rec.counts[StallBucket::SimtDrain as usize] > 0);
    }

    #[test]
    fn detached_and_attached_runs_are_bit_identical() {
        let scripts = scripts_uniform(128, 6);
        let plain = Simulation::new(
            small_cfg(4),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            &scripts,
        )
        .run()
        .expect("completes");
        let (observed, _) = run_with_recorder(&scripts);
        assert_eq!(plain, observed, "telemetry must be purely observational");
    }

    #[test]
    fn issued_cycles_bounded_by_issue_histogram() {
        // A warp-cycle charged `issued` implies ≥ 1 issue, and one warp
        // issues at most `issues_per_scheduler` ops per cycle.
        let scripts = scripts_uniform(64, 5);
        let (stats, rec) = run_with_recorder(&scripts);
        let issued_cycles = rec.counts[StallBucket::Issued as usize];
        let issued_insts = stats.issued.total + stats.issued_si.total;
        assert!(issued_cycles <= issued_insts);
        assert!(issued_insts <= issued_cycles * small_cfg(4).issues_per_scheduler() as u64);
    }
}

#[cfg(test)]
mod fastpath_tests {
    use super::tests::{scripts_uniform, small_cfg, toy_program, ToyBehavior};
    use super::*;
    use crate::behavior::NullSpecial;
    use crate::telemetry::NUM_STALL_BUCKETS;

    /// Sink recording the exact per-cycle bucket stream (via the default
    /// `on_cycles` expansion) so fast-path and naive runs can be compared
    /// cycle for cycle, not just in aggregate.
    #[derive(Default)]
    struct Stream {
        buckets: Vec<Vec<StallBucket>>,
        counts: [u64; NUM_STALL_BUCKETS],
        final_cycle: Option<u64>,
    }

    impl TelemetrySink for Stream {
        fn on_cycle(&mut self, snap: &CycleSnapshot, warp_buckets: &[StallBucket]) {
            assert_eq!(snap.cycle, self.buckets.len() as u64, "cycles in order, exactly once");
            self.buckets.push(warp_buckets.to_vec());
            for &b in warp_buckets {
                self.counts[b as usize] += 1;
            }
        }
        fn on_finish(&mut self, snap: &CycleSnapshot) {
            self.final_cycle = Some(snap.cycle);
        }
    }

    fn run_toy(warps: usize, fastpath: bool) -> SimStats {
        let scripts = scripts_uniform(192, 9);
        let mut sim = Simulation::new(
            small_cfg(warps),
            toy_program(),
            Box::new(ToyBehavior),
            Box::new(NullSpecial),
            &scripts,
        );
        sim.set_fastpath(fastpath);
        sim.run().expect("completes")
    }

    #[test]
    fn fastpath_stats_bit_identical() {
        for warps in [1, 2, 4] {
            let fast = run_toy(warps, true);
            let naive = run_toy(warps, false);
            assert_eq!(fast, naive, "fast path must not change results ({warps} warps)");
        }
    }

    #[test]
    fn fastpath_telemetry_stream_identical() {
        let scripts = scripts_uniform(128, 7);
        let run = |fastpath: bool| {
            let mut s = Stream::default();
            let mut sim = Simulation::new(
                small_cfg(4),
                toy_program(),
                Box::new(ToyBehavior),
                Box::new(NullSpecial),
                &scripts,
            );
            sim.set_fastpath(fastpath);
            sim.attach_telemetry(&mut s);
            let stats = sim.run().expect("completes");
            (stats, s)
        };
        let (fast, fs) = run(true);
        let (naive, ns) = run(false);
        assert_eq!(fast, naive);
        assert_eq!(fs.final_cycle, ns.final_cycle);
        assert_eq!(fs.counts, ns.counts, "bulk-charged buckets must match naive attribution");
        assert_eq!(fs.buckets, ns.buckets, "per-cycle bucket streams must be identical");
        let total: u64 = fs.counts.iter().sum();
        assert_eq!(total, fast.cycles * 4, "accounting identity survives skipping");
    }

    #[test]
    fn fastpath_skips_memory_latency_spans() {
        // One warp waiting on DRAM-latency loads: the naive loop steps
        // through hundreds of dead cycles per load, the fast path must
        // reach the identical end state. (The speedup itself is measured
        // by the benchmark package; here we only prove equivalence on the
        // most skip-friendly shape.)
        let fast = run_toy(1, true);
        let naive = run_toy(1, false);
        assert_eq!(fast, naive);
        assert!(fast.cycles > 1000, "the workload must have dead spans worth skipping");
    }

    /// A special unit with a non-trivial tick that mutates stats every
    /// cycle while any warp is live: its conservative default
    /// `next_event` (`Some(now)`) must disable skipping so the fast path
    /// cannot miss those ticks.
    struct CountingUnit;
    impl SpecialUnit for CountingUnit {
        fn issue(
            &mut self,
            _w: usize,
            _t: u16,
            _m: &mut MachineState<'_>,
            _s: &mut SimStats,
        ) -> SpecialOutcome {
            SpecialOutcome::Proceed { ctrl: 0 }
        }
        fn tick(&mut self, _c: u64, _i: &[bool], _m: &mut MachineState<'_>, s: &mut SimStats) {
            s.sync_wait_cycles += 1;
        }
    }

    #[test]
    fn conservative_default_next_event_disables_skipping() {
        let scripts = scripts_uniform(64, 6);
        let run = |fastpath: bool| {
            let mut sim = Simulation::new(
                small_cfg(2),
                toy_program(),
                Box::new(ToyBehavior),
                Box::new(CountingUnit),
                &scripts,
            );
            sim.set_fastpath(fastpath);
            sim.run().expect("completes")
        };
        let fast = run(true);
        let naive = run(false);
        assert_eq!(fast, naive);
        // The tick ran on every single cycle in both runs.
        assert_eq!(fast.sync_wait_cycles, fast.cycles);
    }
}

#[cfg(test)]
mod more_engine_tests {
    use super::*;
    use crate::behavior::NullSpecial;
    use crate::config::SchedulerPolicy;
    use crate::isa::MicroOp;
    use crate::program::Block;
    use drs_trace::{RayScript, Step, Termination};

    /// Behavior whose single load reads either one shared line or one line
    /// per lane, depending on the address token.
    struct CoalesceProbe;
    const A_SHARED: u16 = 0;
    const A_SCATTER: u16 = 1;

    impl KernelBehavior for CoalesceProbe {
        fn eval_cond(&self, _t: u16, _w: usize, _l: usize, _m: &MachineState<'_>) -> bool {
            false
        }
        fn eval_addr(&self, token: u16, _w: usize, lane: usize, _m: &MachineState<'_>) -> u64 {
            match token {
                A_SHARED => 0x1000_0000,
                _ => 0x2000_0000 + lane as u64 * 4096,
            }
        }
        fn apply_effect(&self, _t: u16, _w: usize, _l: usize, _m: &mut MachineState<'_>) {}
    }

    fn one_load_program(addr: u16) -> Program {
        Program::new(vec![Block::new(
            "only",
            vec![MicroOp::load(1, MemSpace::Texture, addr, &[])],
            Terminator::Exit,
        )])
    }

    fn run_probe(addr: u16) -> SimStats {
        let scripts: Vec<RayScript> = vec![];
        let cfg = GpuConfig { max_warps: 1, ..GpuConfig::gtx780() };
        Simulation::new(
            cfg,
            one_load_program(addr),
            Box::new(CoalesceProbe),
            Box::new(NullSpecial),
            &scripts,
        )
        .run()
        .expect("probe completes")
    }

    #[test]
    fn coalescer_merges_shared_lines_and_splits_scattered_ones() {
        let shared = run_probe(A_SHARED);
        assert_eq!(shared.mem_transactions, 1, "32 lanes, one line");
        let scattered = run_probe(A_SCATTER);
        assert_eq!(scattered.mem_transactions, 32, "one line per lane");
    }

    /// Scheduler-policy ablation: LRR and GTO produce different (but both
    /// complete) schedules on a divergent workload.
    #[test]
    fn lrr_and_gto_schedules_differ() {
        // Enough rays, script-length spread and cache pressure that the
        // pick order visibly changes the schedule.
        let scripts: Vec<RayScript> = (0..1024usize)
            .map(|i| {
                RayScript::new(
                    (0..=(i % 37))
                        .map(|k| Step::Inner {
                            node_addr: 0x1000_0000 + ((i * 131 + k * 7) % 16384) as u64 * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect();
        // Reuse the toy kernel from the main engine tests via a local copy.
        struct Toy;
        impl KernelBehavior for Toy {
            fn eval_cond(&self, _t: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
                let Some(s) = m.slot_of(warp, lane) else { return false };
                m.peek_step(s).is_some() || !m.queue.is_empty()
            }
            fn eval_addr(&self, _t: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
                let s = m.slot_of(warp, lane).expect("mapped");
                match m.peek_step(s) {
                    Some(Step::Inner { node_addr, .. }) => *node_addr,
                    Some(Step::Leaf { node_addr, .. }) => *node_addr,
                    None => 0x7000_0000,
                }
            }
            fn apply_effect(&self, _t: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
                let s = m.slot_of(warp, lane).expect("mapped");
                if m.slots[s].ray.is_none() {
                    m.fetch_into(s);
                    return;
                }
                if m.peek_step(s).is_some() {
                    m.consume_step(s);
                }
                if m.peek_step(s).is_none() && m.slots[s].ray.is_some() {
                    m.retire_ray(s);
                }
            }
            fn initialize(&self, m: &mut MachineState<'_>) {
                for s in 0..m.slots.len() {
                    m.fetch_into(s);
                }
            }
        }
        let program = Program::new(vec![
            Block::new(
                "head",
                vec![],
                Terminator::Branch { cond: 0, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            Block::new(
                "body",
                vec![
                    MicroOp::load(1, MemSpace::Texture, 0, &[]),
                    MicroOp::alu(2, &[1], 9),
                    MicroOp::effect(0),
                ],
                Terminator::Jump(0),
            ),
            Block::new("exit", vec![], Terminator::Exit),
        ]);
        let run = |policy| {
            // More warps than schedulers so the pick order matters.
            let cfg = GpuConfig {
                max_warps: 8,
                scheduler_policy: policy,
                max_cycles: 10_000_000,
                ..GpuConfig::gtx780()
            };
            Simulation::new(cfg, program.clone(), Box::new(Toy), Box::new(NullSpecial), &scripts)
                .run()
                .expect("completes")
        };
        let gto = run(SchedulerPolicy::GreedyThenOldest);
        let lrr = run(SchedulerPolicy::LooseRoundRobin);
        assert_eq!(gto.rays_completed, 1024);
        assert_eq!(lrr.rays_completed, 1024);
        assert_ne!(gto.cycles, lrr.cycles, "policies must differ");
    }
}

#[cfg(test)]
mod failure_tests {
    use super::tests::{scripts_uniform, small_cfg, toy_program, ToyBehavior};
    use super::*;
    use crate::behavior::NullSpecial;
    use crate::isa::MicroOp;
    use crate::program::Block;

    fn toy_sim(scripts: &[RayScript], cfg: GpuConfig) -> Simulation<'_> {
        Simulation::new(cfg, toy_program(), Box::new(ToyBehavior), Box::new(NullSpecial), scripts)
    }

    #[test]
    fn cycle_limit_yields_typed_error_with_partial_stats() {
        let scripts = scripts_uniform(256, 10);
        let cfg = GpuConfig { max_cycles: 200, ..small_cfg(4) };
        let err = toy_sim(&scripts, cfg).run().expect_err("200 cycles is far too few");
        assert_eq!(err.kind.label(), "cycle_limit");
        assert!(matches!(err.kind, SimErrorKind::CycleLimit { max_cycles: 200 }));
        assert_eq!(err.cycle, 200);
        // Partial stats are finalized: the truncated run still reports
        // cycles, issue counts and a block profile.
        assert_eq!(err.stats.cycles, 200);
        assert!(err.stats.issued.total > 0, "something issued before the cap");
        assert!(!err.stats.block_profile.is_empty());
        assert!(err.stats.rays_completed < 256);
    }

    /// A special unit that refuses every issue attempt: the kernel can
    /// never make progress, which is exactly the livelock the watchdog
    /// exists to catch.
    struct AlwaysStall;
    impl SpecialUnit for AlwaysStall {
        fn issue(
            &mut self,
            _w: usize,
            _t: u16,
            _m: &mut MachineState<'_>,
            _s: &mut SimStats,
        ) -> SpecialOutcome {
            SpecialOutcome::Stall
        }
        fn tick(&mut self, _c: u64, _i: &[bool], _m: &mut MachineState<'_>, _s: &mut SimStats) {}
    }

    struct NoWork;
    impl KernelBehavior for NoWork {
        fn eval_cond(&self, _t: u16, _w: usize, _l: usize, _m: &MachineState<'_>) -> bool {
            false
        }
        fn eval_addr(&self, _t: u16, _w: usize, _l: usize, _m: &MachineState<'_>) -> u64 {
            0
        }
        fn apply_effect(&self, _t: u16, _w: usize, _l: usize, _m: &mut MachineState<'_>) {}
    }

    #[test]
    fn organic_livelock_trips_watchdog_with_warp_dump() {
        let program =
            Program::new(vec![Block::new("spin", vec![MicroOp::special(0, 0)], Terminator::Exit)]);
        let scripts: Vec<RayScript> = vec![];
        let cfg = GpuConfig { max_warps: 2, watchdog_cycles: 500, ..GpuConfig::gtx780() };
        let sim = Simulation::new(cfg, program, Box::new(NoWork), Box::new(AlwaysStall), &scripts);
        let err = sim.run().expect_err("livelocked kernel must trip the watchdog");
        match &err.kind {
            SimErrorKind::Watchdog { stalled_cycles, watchdog_cycles, injected, dump } => {
                assert!(*stalled_cycles > 500);
                assert_eq!(*watchdog_cycles, 500);
                assert!(!injected);
                assert_eq!(dump.warps.len(), 2);
                let w0 = &dump.warps[0];
                assert!(!w0.exited);
                assert_eq!(w0.stack.len(), 1);
                assert_eq!(w0.stack[0].label, "spin");
                let text = dump.to_string();
                assert!(text.contains("`spin`"), "{text}");
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn injected_watchdog_trip_fires_with_real_dump() {
        let scripts = scripts_uniform(128, 8);
        let mut sim = toy_sim(&scripts, small_cfg(4));
        sim.inject_watchdog_trip(50);
        let err = sim.run().expect_err("injected trip must fire");
        match &err.kind {
            SimErrorKind::Watchdog { injected, dump, .. } => {
                assert!(injected);
                assert_eq!(dump.warps.len(), 4);
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
        assert!(err.cycle >= 50, "trip fires once the cycle reaches the mark");
    }

    #[test]
    fn injected_trip_after_completion_never_fires() {
        let scripts = scripts_uniform(64, 4);
        let mut sim = toy_sim(&scripts, small_cfg(4));
        sim.inject_watchdog_trip(u64::MAX);
        let stats = sim.run().expect("completes before the trip point");
        assert_eq!(stats.rays_completed, 64);
    }

    #[test]
    fn expired_deadline_fails_with_deadline_error() {
        let scripts = scripts_uniform(512, 12);
        let mut sim = toy_sim(&scripts, small_cfg(2));
        // Naive stepping so loop iterations == cycles, guaranteeing the
        // cooperative check (every 1024 iterations) actually runs.
        sim.set_fastpath(false);
        sim.set_deadline(Instant::now(), 0);
        let err = sim.run().expect_err("already-expired deadline");
        assert!(matches!(err.kind, SimErrorKind::Deadline { budget_ms: 0 }));
        assert!(err.cycle > 0, "some cycles ran before the cooperative check");
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let scripts = scripts_uniform(64, 4);
        let mut sim = toy_sim(&scripts, small_cfg(4));
        let budget = std::time::Duration::from_hours(1);
        sim.set_deadline(Instant::now() + budget, 3_600_000);
        let stats = sim.run().expect("one-hour budget is ample for a toy run");
        assert_eq!(stats.rays_completed, 64);
    }
}

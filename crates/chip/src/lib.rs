//! Full-chip simulation: N per-SM engines over one shared memory system.
//!
//! The single-SMX simulator (`drs-sim`) models one core and scales
//! whole-GPU throughput by `smx_count`, which erases every inter-SM
//! effect — shared-L2 capacity and MSHR contention, DRAM bandwidth,
//! interconnect latency. This crate instantiates `ChipConfig::sms`
//! unmodified engines as the SM models and connects their chip ports
//! (see [`drs_sim::PortRequest`]) to a [`SharedMemSys`]: private L1s
//! per SM, one banked L2 with a chip-wide MSHR pool, and a
//! finite-bandwidth DRAM channel.
//!
//! # The window-barrier protocol
//!
//! The chip clock advances in windows of `W = 2·noc_latency + 1` cycles.
//! Each round:
//!
//! 1. compute `m = min` over live SMs of their wake hint (the chip-level
//!    `next_wake`); no SM state can change before `m`, so no requests can
//!    be issued before it;
//! 2. advance every SM to `target = m + W` (sharded across threads, or
//!    inline — the engines don't interact inside a window);
//! 3. at the barrier, drain all SMs' request outboxes, sort them into the
//!    deterministic arbitration order, feed them through the shared
//!    memory system, and deliver every load response.
//!
//! The memory system guarantees every response lands at least `noc + 1`
//! cycles after its request arrived, i.e. at least `2·noc + 1` cycles
//! after issue — never inside the window that issued it. Delivering all
//! responses at the barrier is therefore exact, not an approximation, and
//! the result is bit-identical however SMs are sharded across threads.
//!
//! # Deterministic arbitration
//!
//! Requests are ordered by `(arrival, round-robin rank, per-SM sequence)`
//! where `arrival = issue + noc_latency` and the round-robin rank rotates
//! priority across SMs with the arrival cycle — SM iteration order and
//! thread scheduling never affect the order in which the (stateful,
//! order-sensitive) banks, MSHR pool and DRAM channel see requests.
//!
//! # Threads
//!
//! With `threads = N > 1`, N threads in total advance the SMs: the calling
//! thread advances shard 0 and runs every exchange, and `N − 1` helpers
//! advance the other shards. They meet twice per window at an atomic
//! rendezvous that spins briefly and then yields, never sleeping. A
//! window is only `W` cycles of work, so this pays only when the host has
//! an idle core for each thread; on a busy host, run cells in parallel
//! instead (the harness pool's `--jobs`).

#![warn(missing_docs)]

mod memsys;

pub use memsys::{ChipStats, SharedMemSys};

use drs_sim::{
    ChipConfig, ChipTelemetrySink, GpuConfig, PortRequest, SimError, SimErrorKind, SimStats,
    Simulation,
};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Outcome of a completed full-chip run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipResult {
    /// Per-SM statistics, in SM order (each SM's private counters; the
    /// per-SM `l2` fields stay zero — the shared system owns the L2).
    pub per_sm: Vec<SimStats>,
    /// Chip-wide aggregate: `cycles` is the max over SMs, histograms and
    /// counters are summed, `l2` is the shared L2's counters. Chip
    /// throughput is `aggregate.mrays_per_sec(clock_mhz, 1)` — rays are
    /// already summed, so no `smx_count` scaling applies.
    pub aggregate: SimStats,
    /// Shared memory system counters (DRAM queueing, bank conflicts,
    /// MSHR merges/waits).
    pub chip: ChipStats,
}

/// Run `sms` engines — one per SM, already constructed (with telemetry
/// attached if wanted) but not yet started — against one shared memory
/// system. `threads` threads in total, the calling one included, shard
/// the SMs inside each window; results are bit-identical for any
/// `threads >= 1`.
///
/// # Panics
///
/// A panic inside an SM's engine on a sharded run is re-raised on the
/// calling thread as `chip worker panicked: …` once every thread has
/// finished its window.
///
/// # Errors
///
/// An inconsistent [`ChipConfig`] (or an SM count that doesn't match the
/// engine count) fails with [`SimErrorKind::ChipConfig`] before any cycle
/// runs. A failing SM (watchdog, cycle cap, deadline) aborts the chip run
/// at the next window barrier; the lowest-numbered failing SM's error is
/// returned.
pub fn run_chip(
    sms: Vec<Simulation<'_>>,
    cfg: &GpuConfig,
    chip: &ChipConfig,
    threads: usize,
) -> Result<ChipResult, SimError> {
    run_chip_observed(sms, cfg, chip, threads, None)
}

/// [`run_chip`] with an optional [`ChipTelemetrySink`] attached to the
/// shared memory system: the sink receives the topology, one event per
/// arbitrated request (in deterministic arbitration order) and, on a
/// clean run, `on_finish` with the chip's cycle count. Attribution
/// bookkeeping only happens while a sink is attached; results are
/// bit-identical with `sink: None`.
pub fn run_chip_observed(
    sms: Vec<Simulation<'_>>,
    cfg: &GpuConfig,
    chip: &ChipConfig,
    threads: usize,
    sink: Option<&mut dyn ChipTelemetrySink>,
) -> Result<ChipResult, SimError> {
    let chip_fail = |message: String| SimError {
        kind: SimErrorKind::ChipConfig { message },
        cycle: 0,
        stats: Box::default(),
    };
    if let Err(e) = chip.validate() {
        return Err(chip_fail(e.0));
    }
    if sms.len() != chip.sms {
        return Err(chip_fail(format!(
            "chip declares {} SMs but {} engines were supplied",
            chip.sms,
            sms.len()
        )));
    }
    let mut lanes = sms;
    for lane in &mut lanes {
        lane.attach_chip_port();
    }
    let mut memsys = SharedMemSys::new(cfg, chip);
    if let Some(sink) = sink {
        memsys.attach_telemetry(sink);
    }
    let noc = u64::from(chip.noc_latency);
    let window = 2 * noc + 1;
    let threads = threads.clamp(1, lanes.len());
    if threads == 1 {
        run_windows_serial(&mut lanes, &mut memsys, noc, window);
    } else {
        lanes = run_windows_threaded(lanes, &mut memsys, noc, window, threads);
    }
    // Finalize every SM; the lowest-numbered failure wins.
    let mut per_sm = Vec::with_capacity(lanes.len());
    let mut first_err: Option<SimError> = None;
    for lane in lanes {
        match lane.finish() {
            Ok(stats) => per_sm.push(stats),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let aggregate = aggregate_stats(&per_sm, &memsys.stats);
    memsys.finish_telemetry(aggregate.cycles);
    Ok(ChipResult { per_sm, aggregate, chip: memsys.stats })
}

/// One barrier: drain every SM's outbox, arbitrate deterministically, feed
/// the shared system and deliver load responses. Both chip loops call it,
/// the serial one over `&mut Simulation`s and the threaded one over lock
/// guards, so the arbitration order exists in this one place.
fn barrier_exchange<'w, L: DerefMut<Target = Simulation<'w>>>(
    lanes: &mut [L],
    memsys: &mut SharedMemSys<'_>,
    inbox: &mut Vec<(usize, PortRequest)>,
    scratch: &mut Vec<PortRequest>,
    noc: u64,
) {
    inbox.clear();
    for (sm, lane) in lanes.iter_mut().enumerate() {
        scratch.clear();
        lane.drain_requests(scratch);
        inbox.extend(scratch.drain(..).map(|r| (sm, r)));
    }
    let n = lanes.len() as u64;
    // (arrival, round-robin rank, per-SM sequence): a total order
    // independent of SM iteration order and thread scheduling.
    inbox.sort_by_key(|&(sm, r)| {
        let arrival = r.issue + noc;
        (arrival, (sm as u64 + n - arrival % n) % n, r.seq)
    });
    for &(sm, r) in inbox.iter() {
        let ready = memsys.request(sm, r.line, r.issue + noc);
        if r.is_load {
            lanes[sm].chip_complete(r.group, ready);
        }
    }
}

/// Next window target: `min` wake over live SMs plus the window length,
/// or `None` when every SM is done (or one has failed — stop arbitrating
/// so the failure surfaces immediately).
fn next_target<'w, L: Deref<Target = Simulation<'w>>>(lanes: &[L], window: u64) -> Option<u64> {
    if lanes.iter().any(|l| l.failed()) {
        return None;
    }
    let m = lanes.iter().map(|l| l.wake_hint()).min().unwrap_or(u64::MAX);
    if m == u64::MAX {
        return None;
    }
    Some(m.saturating_add(window))
}

/// The reference chip loop: one thread advances every SM in turn.
fn run_windows_serial(
    lanes: &mut [Simulation<'_>],
    memsys: &mut SharedMemSys<'_>,
    noc: u64,
    window: u64,
) {
    let mut lanes: Vec<&mut Simulation<'_>> = lanes.iter_mut().collect();
    let mut inbox = Vec::new();
    let mut scratch = Vec::new();
    while let Some(target) = next_target(&lanes, window) {
        for lane in &mut lanes {
            lane.advance_to(target);
        }
        barrier_exchange(&mut lanes, memsys, &mut inbox, &mut scratch, noc);
    }
}

/// Spin iterations a waiting thread makes before it starts yielding its
/// core. Short: when the host runs more threads than it has cores, the
/// thread being waited for may not be running, and every spin delays it.
/// Measured on a 2-vCPU host, 64 spins were as fast as 1024 with a core
/// per thread and twice as fast with two chip cells sharing the cores.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Wait for `ready` without sleeping: spin, then yield.
fn spin_until(ready: impl Fn() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Target that tells the helpers to exit.
const STOP: u64 = u64::MAX;

/// Where the threaded loop's threads meet. The coordinator opens a window
/// by publishing its target and bumping `generation`; each helper counts
/// its finished shard in `arrivals`. The `Release` bump of `generation`
/// pairs with the helpers' `Acquire` load, so a helper that sees the new
/// generation also sees its `Relaxed` target; the lanes themselves are
/// handed over through their mutexes.
#[derive(Default)]
struct Rendezvous {
    generation: AtomicU64,
    target: AtomicU64,
    arrivals: AtomicU64,
}

impl Rendezvous {
    fn open(&self, target: u64) {
        self.target.store(target, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Wait for the window after generation `seen` and return its target.
    fn next_window(&self, seen: &mut u64) -> u64 {
        spin_until(|| self.generation.load(Ordering::Acquire) != *seen);
        *seen = self.generation.load(Ordering::Acquire);
        self.target.load(Ordering::Relaxed)
    }

    fn arrive(&self) {
        self.arrivals.fetch_add(1, Ordering::Release);
    }

    fn await_arrivals(&self, total: u64) {
        spin_until(|| self.arrivals.load(Ordering::Acquire) >= total);
    }
}

/// Opens the stop window when the coordinator leaves the thread scope, by
/// return or by panic (its own shard's, an exchange's or a failed spawn),
/// so no helper is left waiting at the rendezvous.
struct StopOnDrop<'a>(&'a Rendezvous);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open(STOP);
    }
}

/// Advance shard `shard` of `threads` (every `threads`-th SM from
/// `shard`) to `target`. A panic is caught and noted so that this thread
/// still reaches the rendezvous; the coordinator re-raises it.
fn advance_shard(
    cells: &[Mutex<Simulation<'_>>],
    shard: usize,
    threads: usize,
    target: u64,
    panicked: &Mutex<Option<String>>,
) {
    for cell in cells.iter().skip(shard).step_by(threads) {
        let mut lane = cell.lock().expect("lane lock");
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lane.advance_to(target))) {
            panicked.lock().expect("panic note").get_or_insert(panic_message(payload.as_ref()));
        }
    }
}

/// The sharded chip loop: `threads` threads in total, the calling one
/// (the coordinator) included, advance disjoint SM shards each window and
/// meet at a spin-then-yield rendezvous; the coordinator then runs the
/// serial loop's exchange. Engines only interact at the exchange, so this
/// is bit-identical to [`run_windows_serial`].
fn run_windows_threaded<'w>(
    lanes: Vec<Simulation<'w>>,
    memsys: &mut SharedMemSys<'_>,
    noc: u64,
    window: u64,
    threads: usize,
) -> Vec<Simulation<'w>> {
    let cells: Vec<Mutex<Simulation<'w>>> = lanes.into_iter().map(Mutex::new).collect();
    let meet = Rendezvous::default();
    let panicked: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&meet);
        for shard in 1..threads {
            let (cells, meet, panicked) = (&cells, &meet, &panicked);
            scope.spawn(move || {
                let mut seen = 0;
                loop {
                    let target = meet.next_window(&mut seen);
                    if target == STOP {
                        return;
                    }
                    advance_shard(cells, shard, threads, target, panicked);
                    meet.arrive();
                }
            });
        }
        let helpers = threads as u64 - 1;
        let mut arrivals = 0;
        let mut guards = Vec::with_capacity(cells.len());
        let mut inbox = Vec::new();
        let mut scratch = Vec::new();
        guards.extend(cells.iter().map(|c| c.lock().expect("lane lock")));
        while let Some(target) = next_target(&guards, window) {
            guards.clear();
            meet.open(target);
            advance_shard(&cells, 0, threads, target, &panicked);
            arrivals += helpers;
            meet.await_arrivals(arrivals);
            if let Some(msg) = panicked.lock().expect("panic note").take() {
                panic!("chip worker panicked: {msg}");
            }
            guards.extend(cells.iter().map(|c| c.lock().expect("lane lock")));
            barrier_exchange(&mut guards, memsys, &mut inbox, &mut scratch, noc);
        }
    });
    cells.into_iter().map(|c| c.into_inner().expect("lane lock")).collect()
}

/// Render a caught panic payload for re-raising.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Chip-wide aggregate: `cycles` = max over SMs (wall time of the chip),
/// counters and histograms summed, block profiles zipped by label, and
/// the L2 counters taken from the shared system.
fn aggregate_stats(per_sm: &[SimStats], chip: &ChipStats) -> SimStats {
    let mut agg = SimStats::default();
    for s in per_sm {
        agg.cycles = agg.cycles.max(s.cycles);
        agg.issued.merge(&s.issued);
        agg.issued_si.merge(&s.issued_si);
        agg.loads += s.loads;
        agg.stores += s.stores;
        agg.mem_transactions += s.mem_transactions;
        agg.rdctrl_stalls += s.rdctrl_stalls;
        agg.rdctrl_issued += s.rdctrl_issued;
        agg.regfile_reads += s.regfile_reads;
        agg.regfile_writes += s.regfile_writes;
        agg.bank_conflicts += s.bank_conflicts;
        agg.swap_accesses += s.swap_accesses;
        agg.swaps_completed += s.swaps_completed;
        agg.swap_cycle_sum += s.swap_cycle_sum;
        agg.spawn_bank_conflict_cycles += s.spawn_bank_conflict_cycles;
        agg.sync_wait_cycles += s.sync_wait_cycles;
        agg.l1t.hits += s.l1t.hits;
        agg.l1t.misses += s.l1t.misses;
        agg.l1d.hits += s.l1d.hits;
        agg.l1d.misses += s.l1d.misses;
        agg.rays_completed += s.rays_completed;
        if agg.block_profile.is_empty() {
            agg.block_profile.clone_from(&s.block_profile);
        } else {
            for (acc, cur) in agg.block_profile.iter_mut().zip(s.block_profile.iter()) {
                debug_assert_eq!(acc.0, cur.0, "SMs run the same program");
                acc.1 += cur.1;
                acc.2 += cur.2;
            }
        }
    }
    agg.l2 = chip.l2;
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::{
        Block, CycleSnapshot, KernelBehavior, MachineState, MemSpace, MicroOp, NullSpecial,
        Program, StallBucket, TelemetrySink, Terminator, NUM_STALL_BUCKETS,
    };
    use drs_trace::{RayScript, Step, Termination};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The chip-test kernel mirrors the engine's toy: each lane walks its
    /// script, loading each step's node address through the texture path.
    struct WalkBehavior;

    const COND_HAS_WORK: u16 = 0;
    const EFF_CONSUME: u16 = 0;
    const ADDR_NODE: u16 = 0;

    impl KernelBehavior for WalkBehavior {
        fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
            assert_eq!(token, COND_HAS_WORK);
            let Some(slot) = m.slot_of(warp, lane) else { return false };
            m.peek_step(slot).is_some() || !m.queue.is_empty()
        }

        fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
            assert_eq!(token, ADDR_NODE);
            let slot = m.slot_of(warp, lane).expect("mapped lane");
            match m.peek_step(slot) {
                Some(Step::Inner { node_addr, .. } | Step::Leaf { node_addr, .. }) => *node_addr,
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

    fn walk_program() -> Program {
        Program::new(vec![
            Block::new(
                "head",
                vec![],
                Terminator::Branch { cond: COND_HAS_WORK, on_true: 1, on_false: 2, reconverge: 2 },
            ),
            Block::new(
                "body",
                vec![
                    MicroOp::load(1, MemSpace::Texture, ADDR_NODE, &[]),
                    MicroOp::alu(2, &[1], 9),
                    MicroOp::effect(EFF_CONSUME),
                ],
                Terminator::Jump(0),
            ),
            Block::new("exit", vec![], Terminator::Exit),
        ])
    }

    fn scripts(n: usize, steps: usize, salt: u64) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                RayScript::new(
                    (0..steps)
                        .map(|s| Step::Inner {
                            node_addr: 0x1000_0000 + (salt + (i * steps + s) as u64) * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect()
    }

    fn small_cfg(warps: usize) -> GpuConfig {
        GpuConfig { max_warps: warps, max_cycles: 2_000_000, ..GpuConfig::gtx780() }
    }

    /// Contiguous shards, as the harness slices ray streams across SMs.
    fn shard(all: &[RayScript], sms: usize) -> Vec<&[RayScript]> {
        (0..sms).map(|i| &all[i * all.len() / sms..(i + 1) * all.len() / sms]).collect()
    }

    fn build_lanes<'w>(cfg: &GpuConfig, shards: &[&'w [RayScript]]) -> Vec<Simulation<'w>> {
        shards
            .iter()
            .map(|s| {
                Simulation::new(
                    cfg.clone(),
                    walk_program(),
                    Box::new(WalkBehavior),
                    Box::new(NullSpecial),
                    s,
                )
            })
            .collect()
    }

    #[test]
    fn chip_run_completes_all_rays_per_sm() {
        let all = scripts(256, 6, 0);
        let cfg = small_cfg(2);
        let chip = ChipConfig::gtx780(2);
        let shards = shard(&all, 2);
        let result =
            run_chip(build_lanes(&cfg, &shards), &cfg, &chip, 1).expect("chip run completes");
        assert_eq!(result.per_sm.len(), 2);
        assert_eq!(result.aggregate.rays_completed, 256);
        for (sm, s) in result.per_sm.iter().enumerate() {
            assert_eq!(s.rays_completed, 128, "SM {sm} must drain its shard");
            assert_eq!(s.l2, drs_sim::CacheStats::default(), "per-SM L2 stays with the chip");
        }
        assert!(result.chip.requests > 0, "traffic must reach the shared system");
        assert!(result.chip.l2.hits + result.chip.l2.misses > 0);
        assert!(result.aggregate.cycles >= result.per_sm[0].cycles);
    }

    #[test]
    fn sharded_threads_are_bit_identical_to_serial() {
        let all = scripts(384, 7, 17);
        let cfg = small_cfg(3);
        let chip = ChipConfig::gtx780(3);
        let shards = shard(&all, 3);
        let serial =
            run_chip(build_lanes(&cfg, &shards), &cfg, &chip, 1).expect("serial completes");
        for threads in [2, 3, 8] {
            let sharded = run_chip(build_lanes(&cfg, &shards), &cfg, &chip, threads)
                .expect("threaded completes");
            assert_eq!(serial, sharded, "threads={threads} must not change results");
        }
    }

    /// A per-SM tally sink proving `Σ buckets == cycles × warps` holds for
    /// every SM of a chip run (the accounting identity, now per SM).
    #[derive(Default)]
    struct Tally {
        counts: [u64; NUM_STALL_BUCKETS],
        cycles: u64,
        warps: u64,
    }

    impl TelemetrySink for Tally {
        fn on_cycle(&mut self, _snap: &CycleSnapshot, warp_buckets: &[StallBucket]) {
            self.cycles += 1;
            self.warps = warp_buckets.len() as u64;
            for &b in warp_buckets {
                self.counts[b as usize] += 1;
            }
        }

        fn on_cycles(&mut self, _snap: &CycleSnapshot, warp_buckets: &[StallBucket], span: u64) {
            self.cycles += span;
            self.warps = warp_buckets.len() as u64;
            for &b in warp_buckets {
                self.counts[b as usize] += span;
            }
        }

        fn on_finish(&mut self, _snap: &CycleSnapshot) {}
    }

    #[test]
    fn per_sm_telemetry_preserves_bucket_identity() {
        let all = scripts(128, 5, 3);
        let cfg = small_cfg(2);
        let chip = ChipConfig::gtx780(2);
        let shards = shard(&all, 2);
        let mut sinks = [Tally::default(), Tally::default()];
        let mut lanes = build_lanes(&cfg, &shards);
        for (lane, sink) in lanes.iter_mut().zip(sinks.iter_mut()) {
            lane.attach_telemetry(sink);
        }
        let result = run_chip(lanes, &cfg, &chip, 2).expect("chip run completes");
        for (sm, t) in sinks.iter().enumerate() {
            let total: u64 = t.counts.iter().sum();
            assert_eq!(total, t.cycles * t.warps, "SM {sm}: Σ buckets must equal cycles × warps");
            assert_eq!(t.cycles, result.per_sm[sm].cycles, "SM {sm} cycle count");
        }
    }

    /// [`WalkBehavior`] that panics on its `after`-th effect call: an
    /// engine fault confined to one SM.
    struct PanicAfter {
        effects: AtomicU64,
        after: u64,
    }

    impl KernelBehavior for PanicAfter {
        fn eval_cond(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> bool {
            WalkBehavior.eval_cond(token, warp, lane, m)
        }

        fn eval_addr(&self, token: u16, warp: usize, lane: usize, m: &MachineState<'_>) -> u64 {
            WalkBehavior.eval_addr(token, warp, lane, m)
        }

        fn apply_effect(&self, token: u16, warp: usize, lane: usize, m: &mut MachineState<'_>) {
            let calls = self.effects.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(calls != self.after, "injected fault");
            WalkBehavior.apply_effect(token, warp, lane, m);
        }

        fn initialize(&self, m: &mut MachineState<'_>) {
            WalkBehavior.initialize(m);
        }
    }

    #[test]
    fn panic_on_any_shard_is_reraised_without_hanging() {
        // Three SMs: at 2 threads the coordinator owns SMs 0 and 2 and a
        // helper SM 1; at 3 threads each SM has its own thread.
        for threads in [2, 3] {
            for faulty in [0, 1] {
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let all = scripts(192, 6, 5);
                    let cfg = small_cfg(2);
                    let chip = ChipConfig::gtx780(3);
                    let shards = shard(&all, 3);
                    let mut lanes = build_lanes(&cfg, &shards);
                    lanes[faulty] = Simulation::new(
                        cfg.clone(),
                        walk_program(),
                        Box::new(PanicAfter { effects: AtomicU64::new(0), after: 40 }),
                        Box::new(NullSpecial),
                        shards[faulty],
                    );
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| run_chip(lanes, &cfg, &chip, threads)));
                    let note = match outcome {
                        Ok(_) => "run_chip returned".to_string(),
                        Err(payload) => panic_message(payload.as_ref()),
                    };
                    let _ = tx.send(note);
                });
                // A stranded thread would keep `run_chip` from returning.
                let note = rx
                    .recv_timeout(Duration::from_mins(2))
                    .unwrap_or_else(|_| panic!("threads={threads} SM {faulty}: chip run hung"));
                assert_eq!(
                    note, "chip worker panicked: injected fault",
                    "threads={threads} SM {faulty}"
                );
            }
        }
    }

    #[test]
    fn inconsistent_chip_config_is_a_typed_error() {
        let all = scripts(32, 2, 0);
        let cfg = small_cfg(1);
        let chip = ChipConfig { sms: 0, ..ChipConfig::gtx780(1) };
        let err = run_chip(build_lanes(&cfg, &[&all]), &cfg, &chip, 1).unwrap_err();
        assert_eq!(err.kind.label(), "chip_config");
        assert!(err.to_string().contains("0 SMs"), "{err}");
        // SM-count mismatch is the same typed failure.
        let chip = ChipConfig::gtx780(2);
        let err = run_chip(build_lanes(&cfg, &[&all]), &cfg, &chip, 1).unwrap_err();
        assert_eq!(err.kind.label(), "chip_config");
    }

    #[test]
    fn shared_l2_differs_from_sliced_baseline() {
        // The same workload through the shared chip L2 and through two
        // independent sliced runs must produce different L2 hit rates —
        // the contention (and capacity fusion) the chip mode exists to
        // model. Overlapping shards guarantee cross-SM sharing.
        let all = scripts(192, 8, 11);
        let cfg = small_cfg(2);
        let chip = ChipConfig::gtx780(2);
        let shards = shard(&all, 2);
        let result = run_chip(build_lanes(&cfg, &shards), &cfg, &chip, 1).expect("completes");
        let mut sliced_hits = 0;
        let mut sliced_total = 0;
        for s in &shards {
            let sim = Simulation::new(
                cfg.clone(),
                walk_program(),
                Box::new(WalkBehavior),
                Box::new(NullSpecial),
                s,
            );
            let stats = sim.run().expect("sliced run completes");
            sliced_hits += stats.l2.hits;
            sliced_total += stats.l2.hits + stats.l2.misses;
        }
        let shared = &result.chip.l2;
        let shared_rate = shared.hits as f64 / (shared.hits + shared.misses) as f64;
        let sliced_rate = sliced_hits as f64 / sliced_total as f64;
        assert!(
            (shared_rate - sliced_rate).abs() > 1e-9,
            "shared {shared_rate} vs sliced {sliced_rate} must differ"
        );
    }
}

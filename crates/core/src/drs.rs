//! The DRS control unit: ray-state table, warp renaming and ray swapping.

use drs_kernels::{CTRL_EXIT, CTRL_FETCH, CTRL_TRAV_INNER, CTRL_TRAV_LEAF, TOKEN_RDCTRL};
use drs_sim::{MachineState, RayState, SimStats, SpecialOutcome, SpecialUnit};

/// Live registers per ray moved by one swap (17 × 32-bit, per the paper):
/// the kernels' declared per-ray live set, which their constructors check
/// against the statically derived shuffle live sets in debug builds.
pub const RAY_REGISTERS: usize = drs_kernels::costs::RAY_LIVE_REGISTERS;

/// Most logical ray rows one unit may hold: its unbound-row set is one
/// `u128` bitmask.
pub const MAX_ROWS: usize = 128;

/// Configuration of the DRS hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrsConfig {
    /// Resident warps `N` (rows 0..N start bound to warps).
    pub warps: usize,
    /// Backup ray rows `M` (the paper examines 1, 2, 4, 8).
    pub backup_rows: usize,
    /// Total swap buffers, divided evenly across the three shuffle tasks
    /// (the paper examines 6, 9, 12, 18; default 6).
    pub swap_buffers: usize,
    /// Idealized DRS: shuffling completes in zero cycles and `rdctrl`
    /// never stalls while work exists.
    pub ideal: bool,
    /// Lanes per warp / slots per row.
    pub lanes: usize,
}

impl DrsConfig {
    /// The paper's recommended default: one backup row, six swap buffers,
    /// no extra register bank (so the kernel spawns 58 warps instead of 60).
    pub fn paper_default() -> DrsConfig {
        DrsConfig { warps: 58, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 }
    }

    /// Total logical ray rows: `N + M + 2` (two rows of empty slots).
    pub fn rows(&self) -> usize {
        self.warps + self.backup_rows + 2
    }

    /// Swap buffers available to each of the three shuffle tasks.
    pub fn buffers_per_task(&self) -> usize {
        (self.swap_buffers / 3).max(1)
    }

    /// Validate the configuration.
    ///
    /// # Panics
    ///
    /// Panics when any parameter is zero where that makes no sense, or
    /// when the unit would hold more than [`MAX_ROWS`] rows.
    pub fn validate(&self) {
        assert!(self.warps > 0, "need at least one warp");
        assert!(self.lanes > 0 && self.lanes <= 32, "lanes in 1..=32");
        assert!(self.swap_buffers >= 3, "need at least one buffer per task");
        assert!(
            self.rows() <= MAX_ROWS,
            "{} warps + {} backup rows + 2 empty rows exceed the unit's {MAX_ROWS} rows",
            self.warps,
            self.backup_rows
        );
    }
}

impl Default for DrsConfig {
    fn default() -> Self {
        DrsConfig::paper_default()
    }
}

/// Aggregated state of one logical ray row (derived from the ray-state
/// table). `no_ray` counts slots awaiting a fetch (or drained).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowSummary {
    /// Slots with no resident ray.
    pub no_ray: u16,
    /// Slots whose ray needs inner-node traversal.
    pub inner: u16,
    /// Slots whose ray needs leaf intersection.
    pub leaf: u16,
}

impl RowSummary {
    /// Rays resident in the row.
    pub fn rays(&self) -> u16 {
        self.inner + self.leaf
    }

    /// The single state of the row's occupied slots, or `None` when mixed.
    /// An all-empty row reports `RayState::Fetching`.
    pub fn uniform_state(&self) -> Option<RayState> {
        match (self.inner > 0, self.leaf > 0) {
            (false, false) => Some(RayState::Fetching),
            (true, false) if self.no_ray == 0 => Some(RayState::Inner),
            (false, true) if self.no_ray == 0 => Some(RayState::Leaf),
            // Occupied slots uniform but row has holes: still usable for
            // its state (empty lanes are masked off by the kernel guards),
            // so report the state of the occupied slots.
            (true, false) => Some(RayState::Inner),
            (false, true) => Some(RayState::Leaf),
            (true, true) => None,
        }
    }

    /// True when the occupied slots are in one state AND the row has no
    /// holes that a fetch could not fill (strict uniformity; preferred when
    /// choosing rename targets).
    pub fn is_full_uniform(&self) -> bool {
        matches!((self.no_ray, self.inner, self.leaf), (0, _, 0) | (0, 0, _)) && self.rays() > 0
    }
}

/// An in-flight ray transfer between two slots.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    src_slot: u32,
    dst_slot: u32,
    /// Registers to move: 17 for a move into a hole, 34 for an exchange.
    total_regs: u8,
    /// Registers read into swap buffers so far.
    reads: u8,
    /// Registers written to the destination so far (≤ reads of previous
    /// cycles — the buffer adds one cycle between read and write).
    writes: u8,
    /// Reads completed before this cycle (writable this cycle).
    writable: u8,
    start_cycle: u64,
}

/// The DRS control unit.
///
/// Plugs into the simulator as its
/// [`SpecialUnit`](drs_sim::SpecialUnit): `rdctrl` issues consult the
/// renaming and ray-state tables, and the per-cycle tick advances the
/// swap engine. A minimal end-to-end run:
///
/// ```
/// use drs_core::system::RowedWhileIf;
/// use drs_core::{DrsConfig, DrsUnit};
/// use drs_kernels::WhileIfKernel;
/// use drs_sim::{GpuConfig, Simulation};
/// use drs_trace::{RayScript, Step, Termination};
///
/// let scripts: Vec<RayScript> = (0..64)
///     .map(|i| {
///         let steps = (0..2 + i % 5)
///             .map(|k| Step::Inner { node_addr: 0x1000 + k as u64 * 64, both_children_hit: false })
///             .collect();
///         RayScript::new(steps, Termination::Hit)
///     })
///     .collect();
///
/// let cfg = DrsConfig { warps: 2, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 };
/// let kernel = WhileIfKernel::new();
/// let gpu = GpuConfig { max_warps: 2, max_cycles: 10_000_000, ..GpuConfig::gtx780() };
/// let out = Simulation::new(
///     gpu,
///     kernel.program(),
///     Box::new(RowedWhileIf::new(cfg.rows())),
///     Box::new(DrsUnit::new(cfg)),
///     &scripts,
/// )
/// .run()
/// .expect("completes");
/// assert_eq!(out.rays_completed, 64);
/// ```
#[derive(Debug, Clone)]
pub struct DrsUnit {
    cfg: DrsConfig,
    /// Renaming table: warp → row.
    row_of_warp: Vec<usize>,
    /// Reverse map: row → bound warp.
    warp_of_row: Vec<Option<usize>>,
    /// Bit `r` set iff row `r` is bound to no warp (`warp_of_row[r]` is
    /// `None`), so the scans for unbound rows visit only those.
    unbound: u128,
    /// Ray-state table as per-row lane bitplanes: bit `l` of `inner[row]`
    /// (`leaf[row]`) is set when slot `(row, l)` holds an inner-state
    /// (leaf-state) ray. Every other slot of the row is a hole.
    inner: Vec<u32>,
    leaf: Vec<u32>,
    /// Per row, the lanes whose slots are involved in a transfer (no
    /// execution, no re-plan).
    busy: Vec<u32>,
    /// The `lanes` valid bits of a row bitplane.
    lane_mask: u32,
    /// Active transfers (at most one per shuffle task).
    transfers: Vec<Transfer>,
    /// Warps currently stalled at `rdctrl` (their rows are register-
    /// quiescent, so the swap engine may shuffle them).
    parked: Vec<bool>,
    /// Sticky designation of the leaf-state ray collecting row.
    leaf_collector: Option<usize>,
    /// Registers one ray-state move must copy ([`RAY_REGISTERS`] unless
    /// built with [`DrsUnit::with_ray_regs`]).
    ray_regs: u8,
    initialized: bool,
    /// An input of [`DrsUnit::plan_transfers`] may have changed since the
    /// last plan that started nothing (see DESIGN.md "Cheap stepped
    /// cycles").
    replan: bool,
    /// Bumped on every event that can change an `rdctrl` decision other
    /// than the queue draining: a transfer starting or finishing, a
    /// rename, an ideal reshuffle.
    generation: u64,
    /// Per warp: `(generation, queue drained)` at its last `rdctrl` stall,
    /// cleared when it proceeds. A retry under the same key stalls again.
    stall_memo: Vec<Option<(u64, bool)>>,
    /// Reusable copy of the engine's idle-bank ports, claimed as the
    /// transfers take them.
    idle: Vec<bool>,
}

impl DrsUnit {
    /// Build the unit for a configuration with the paper's fixed
    /// 17-register transfer cost.
    pub fn new(cfg: DrsConfig) -> DrsUnit {
        Self::with_ray_regs(cfg, RAY_REGISTERS as u8)
    }

    /// Build the unit with an explicit per-ray transfer cost in registers,
    /// e.g. one statically derived from the kernel's shuffle live sets.
    pub fn with_ray_regs(cfg: DrsConfig, ray_regs: u8) -> DrsUnit {
        cfg.validate();
        assert!(ray_regs > 0, "a ray transfer must move at least one register");
        let rows = cfg.rows();
        DrsUnit {
            cfg,
            row_of_warp: (0..cfg.warps).collect(),
            warp_of_row: (0..rows).map(|r| (r < cfg.warps).then_some(r)).collect(),
            unbound: (cfg.warps..rows).fold(0, |acc, r| acc | 1 << r),
            inner: vec![0; rows],
            leaf: vec![0; rows],
            busy: vec![0; rows],
            lane_mask: u32::MAX >> (32 - cfg.lanes),
            transfers: Vec::with_capacity(3),
            parked: vec![false; cfg.warps],
            leaf_collector: None,
            ray_regs,
            initialized: false,
            replan: true,
            generation: 0,
            stall_memo: vec![None; cfg.warps],
            idle: Vec::new(),
        }
    }

    /// Registers one ray-state move copies between register files.
    pub fn ray_regs(&self) -> u8 {
        self.ray_regs
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &DrsConfig {
        &self.cfg
    }

    /// Row currently bound to `warp` (for introspection/examples).
    pub fn row_of(&self, warp: usize) -> usize {
        self.row_of_warp[warp]
    }

    /// Aggregated ray-state-table summary for `row`.
    pub fn row_summary(&self, row: usize) -> RowSummary {
        let inner = self.inner[row].count_ones() as u16;
        let leaf = self.leaf[row].count_ones() as u16;
        RowSummary { no_ray: self.cfg.lanes as u16 - inner - leaf, inner, leaf }
    }

    fn slot_index(&self, row: usize, lane: usize) -> usize {
        row * self.cfg.lanes + lane
    }

    /// Record `state` for `slot` in the row bitplanes.
    fn set_slot(&mut self, slot: usize, state: RayState) {
        let (row, bit) = (slot / self.cfg.lanes, 1u32 << (slot % self.cfg.lanes));
        self.inner[row] &= !bit;
        self.leaf[row] &= !bit;
        match state {
            RayState::Inner => self.inner[row] |= bit,
            RayState::Leaf => self.leaf[row] |= bit,
            _ => {}
        }
    }

    /// Load the row bitplanes from the machine's state cache (first use).
    fn initialize(&mut self, m: &MachineState<'_>) {
        for slot in 0..self.cfg.rows() * self.cfg.lanes {
            self.set_slot(slot, m.state_cache[slot]);
        }
        self.initialized = true;
        self.replan = true;
    }

    /// Drain the machine's dirty-slot log into the row bitplanes.
    fn drain_dirty(&mut self, m: &mut MachineState<'_>) {
        for &slot in &m.dirty {
            let slot = slot as usize;
            self.set_slot(slot, m.state_cache[slot]);
            if self.row_shufflable(slot / self.cfg.lanes) {
                self.replan = true;
            }
        }
        m.dirty.clear();
    }

    /// Control value for a row the warp will work on.
    fn ctrl_for(&self, row: usize, m: &MachineState<'_>) -> Option<u32> {
        match self.row_summary(row).uniform_state()? {
            RayState::Inner => Some(CTRL_TRAV_INNER),
            RayState::Leaf => Some(CTRL_TRAV_LEAF),
            RayState::Fetching => {
                if m.queue.is_empty() {
                    None // nothing to fetch; not a usable work row
                } else {
                    Some(CTRL_FETCH)
                }
            }
            _ => None,
        }
    }

    /// How much useful SIMD work a row offers a warp right now: the number
    /// of lanes that would be active in its if-body. Mixed rows score 0.
    fn row_score(&self, row: usize, m: &MachineState<'_>) -> u32 {
        let s = self.row_summary(row);
        match s.uniform_state() {
            Some(RayState::Inner | RayState::Leaf) => s.rays() as u32,
            Some(RayState::Fetching) if !m.queue.is_empty() => {
                // A fetch fills every hole (bounded by queued rays).
                (s.no_ray as usize).min(m.queue.remaining()).max(1) as u32
            }
            _ => 0,
        }
    }

    /// Strict acceptance: the control value for a row that is state-uniform
    /// AND hole-free (or entirely empty with rays left to fetch). This is
    /// the paper's operating point: warps stall rather than run partially
    /// occupied rows, and the swap engine keeps manufacturing full rows.
    fn strict_ctrl(&self, row: usize, m: &MachineState<'_>) -> Option<u32> {
        let c = self.row_summary(row);
        // Tolerate a bounded number of holes: insisting on completely full
        // rows would demand more shuffle bandwidth than the swap buffers
        // provide, while a 3/4-occupied uniform row still issues its
        // if-body at >=75% SIMD utilization.
        let min_occupancy = self.cfg.lanes - self.cfg.lanes / 4;
        if c.leaf == 0 && c.inner as usize >= min_occupancy {
            return Some(CTRL_TRAV_INNER);
        }
        if c.inner == 0 && c.leaf as usize >= min_occupancy {
            return Some(CTRL_TRAV_LEAF);
        }
        if c.rays() == 0 && !m.queue.is_empty() {
            return Some(CTRL_FETCH);
        }
        None
    }

    /// Pick the best unbound row for `warp` to rename onto: the row
    /// offering the most active lanes.
    fn best_free_row(&self, m: &MachineState<'_>) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None;
        for row in rows_in(self.unbound) {
            if self.row_has_busy_slot(row) {
                continue;
            }
            let score = self.row_score(row, m);
            if score == 0 {
                continue;
            }
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((row, score));
            }
        }
        best
    }

    fn row_has_busy_slot(&self, row: usize) -> bool {
        self.busy[row] != 0
    }

    /// A row may be shuffled when it is unbound, or bound to a warp that is
    /// parked at `rdctrl` (its ray registers are quiescent).
    fn row_shufflable(&self, row: usize) -> bool {
        match self.warp_of_row[row] {
            None => true,
            Some(w) => self.parked[w],
        }
    }

    fn set_parked(&mut self, warp: usize, parked: bool) {
        if self.parked[warp] != parked {
            self.parked[warp] = parked;
            self.replan = true;
        }
    }

    /// The unbound-row mask agrees with the renaming table.
    fn unbound_in_sync(&self) -> bool {
        (0..self.cfg.rows()).all(|r| (self.unbound >> r & 1 == 1) == self.warp_of_row[r].is_none())
    }

    /// Move a warp's binding to `row`.
    fn rename(&mut self, warp: usize, row: usize) {
        let old = self.row_of_warp[warp];
        self.warp_of_row[old] = None;
        self.warp_of_row[row] = Some(warp);
        self.row_of_warp[warp] = row;
        self.unbound = (self.unbound | 1 << old) & !(1 << row);
        debug_assert!(self.unbound_in_sync(), "unbound mask out of sync with the renaming table");
        self.generation += 1;
        self.replan = true;
    }

    /// Update the lane→slot map so `warp` addresses `row`'s slots.
    fn map_warp_to_row(&self, warp: usize, row: usize, m: &mut MachineState<'_>) {
        for lane in 0..self.cfg.lanes {
            m.map_lane(warp, lane, Some(self.slot_index(row, lane)));
        }
    }

    /// True when no ray work remains reachable by `warp`: the queue is
    /// drained, its row has no rays, and no unbound row has rays.
    fn no_work_left(&self, warp: usize, m: &MachineState<'_>) -> bool {
        if !m.queue.is_empty() {
            return false;
        }
        if self.row_summary(self.row_of_warp[warp]).rays() > 0 {
            return false;
        }
        if !self.transfers.is_empty() {
            return false; // rays in flight
        }
        rows_in(self.unbound).all(|r| self.row_summary(r).rays() == 0)
    }

    /// Idealized shuffling: instantly gather rays of one state from unbound
    /// rows into the warp's row. Returns the ctrl value, or EXIT-fallback.
    fn ideal_reshuffle(&mut self, warp: usize, m: &mut MachineState<'_>) -> Option<u32> {
        let row = self.row_of_warp[warp];
        // Choose the state with the most available rays among this row and
        // all unbound rows.
        let mut avail_inner = self.row_summary(row).inner as u32;
        let mut avail_leaf = self.row_summary(row).leaf as u32;
        for r in rows_in(self.unbound) {
            avail_inner += self.row_summary(r).inner as u32;
            avail_leaf += self.row_summary(r).leaf as u32;
        }
        let want = if avail_inner >= avail_leaf { RayState::Inner } else { RayState::Leaf };
        let want_ctrl = if want == RayState::Inner { CTRL_TRAV_INNER } else { CTRL_TRAV_LEAF };
        if avail_inner == 0 && avail_leaf == 0 {
            return None;
        }
        // Evict non-matching rays from the warp's row into unbound holes,
        // then pull matching rays in. Zero cost (ideal).
        self.generation += 1;
        let lanes = self.cfg.lanes;
        for lane in 0..lanes {
            let dst = self.slot_index(row, lane);
            let dst_state = m.state_cache[dst];
            let dst_matches = dst_state == want;
            if dst_matches {
                continue;
            }
            // Find a donor slot with the wanted state in an unbound row.
            let mut donor = None;
            'outer: for r in rows_in(self.unbound) {
                for l in 0..lanes {
                    let s = self.slot_index(r, l);
                    if m.state_cache[s] == want {
                        donor = Some(s);
                        break 'outer;
                    }
                }
            }
            let Some(src) = donor else { break };
            m.slots.swap(dst, src);
            m.state_cache.swap(dst, src);
            self.set_slot(dst, m.state_cache[dst]);
            self.set_slot(src, m.state_cache[src]);
        }
        Some(want_ctrl)
    }

    /// Finish a completed transfer: move the ray data.
    fn finalize_transfer(
        &mut self,
        t: Transfer,
        now: u64,
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        let (src, dst) = (t.src_slot as usize, t.dst_slot as usize);
        m.slots.swap(src, dst);
        m.state_cache.swap(src, dst);
        for slot in [src, dst] {
            self.set_slot(slot, m.state_cache[slot]);
            self.busy[slot / self.cfg.lanes] &= !(1 << (slot % self.cfg.lanes));
        }
        self.generation += 1;
        self.replan = true;
        stats.swaps_completed += 1;
        stats.swap_cycle_sum += now.saturating_sub(t.start_cycle);
    }

    /// Re-validate or re-pick the designated leaf-collecting row: a
    /// shufflable row accumulating leaf-state rays until it is leaf-full.
    fn refresh_leaf_collector(&mut self) {
        if let Some(r) = self.leaf_collector {
            let c = self.row_summary(r);
            let full_leaf = c.inner == 0 && c.no_ray == 0;
            if self.row_shufflable(r) && !full_leaf && c.rays() > 0 {
                return; // still serving
            }
            self.leaf_collector = None;
        }
        // Pick the shufflable row with the most leaf rays (that is not
        // already leaf-complete).
        let mut best: Option<(usize, u16)> = None;
        for r in 0..self.cfg.rows() {
            if !self.row_shufflable(r) {
                continue;
            }
            let c = self.row_summary(r);
            if c.leaf == 0 || (c.inner == 0 && c.no_ray == 0) {
                continue;
            }
            if best.is_none_or(|(_, b)| c.leaf > b) {
                best = Some((r, c.leaf));
            }
        }
        self.leaf_collector = best.map(|(r, _)| r);
    }

    /// Plan new transfers toward state-uniform rows — the paper's greedy
    /// scheme with three designated tasks:
    ///
    /// 1. **leaf collection**: leaf rays from state-mixed rows move into
    ///    holes of the designated collecting row, or exchange against its
    ///    inner rays;
    /// 2. **inner ejection**: inner-minority rows push inner rays into
    ///    holes of inner-compatible rows (including the empty rows);
    /// 3. **hole (fetch) collection**: sparse unbound rows consolidate
    ///    their rays into strictly fuller compatible rows, leaving behind
    ///    an all-empty row a warp can rename onto and refill by fetching.
    ///
    /// Every transfer strictly reduces a disorder measure (leaf rays
    /// outside the collector + inner rays inside it; inner rays in
    /// inner-minority rows; the count of non-empty sparse rows), so
    /// shuffling always converges.
    ///
    /// A plan that starts nothing leaves every one of its inputs as it
    /// found them (the leaf-collector refresh is idempotent), so the unit
    /// plans again only once `replan` is set by an input change.
    fn plan_transfers(&mut self, now: u64, m: &MachineState<'_>) {
        self.replan = false;
        let max_tasks = 3;
        if self.transfers.len() >= max_tasks {
            return;
        }
        let rows = self.cfg.rows();
        self.refresh_leaf_collector();

        // Task 1: leaf collection.
        if let Some(col) = self.leaf_collector {
            for r in 0..rows {
                if self.transfers.len() >= max_tasks {
                    return;
                }
                if r == col || !self.row_shufflable(r) {
                    continue;
                }
                let c = self.row_summary(r);
                if c.leaf == 0 || c.inner == 0 {
                    continue; // only drain state-mixed rows
                }
                let Some(src) = self.find_state(r, RayState::Leaf) else {
                    continue;
                };
                // Collector hole, else exchange for a collector inner ray.
                let cc = self.row_summary(col);
                let (dst, regs) = if cc.no_ray > 0 {
                    match self.find_hole(col, m) {
                        Some(h) => (h, self.ray_regs),
                        None => continue,
                    }
                } else if cc.inner > 0 {
                    match self.find_state(col, RayState::Inner) {
                        Some(x) => (x, 2 * self.ray_regs),
                        None => continue,
                    }
                } else {
                    break; // collector is already leaf-complete
                };
                self.push_transfer(src, dst, regs, now);
            }
        }

        // Task 2: minority-state ejection (the paper's inner-state ray
        // ejecting row, generalized to either minority). A state-mixed row
        // — including the leaf collector, which must shed its inner rays —
        // pushes its minority-state rays into holes of state-compatible
        // rows (the empty rows always qualify).
        for r in 0..rows {
            if self.transfers.len() >= max_tasks {
                return;
            }
            if !self.row_shufflable(r) {
                continue;
            }
            let c = self.row_summary(r);
            if c.inner == 0 || c.leaf == 0 {
                continue;
            }
            let eject = if c.inner <= c.leaf { RayState::Inner } else { RayState::Leaf };
            let Some(src) = self.find_state(r, eject) else {
                continue;
            };
            // A hole in a state-compatible row (covers the empty rows).
            let mut dst = None;
            for d in 0..rows {
                if d == r || Some(d) == self.leaf_collector || !self.row_shufflable(d) {
                    continue;
                }
                let dc = self.row_summary(d);
                let compatible = match eject {
                    RayState::Inner => dc.leaf == 0,
                    _ => dc.inner == 0,
                };
                if compatible && dc.no_ray > 0 {
                    if let Some(h) = self.find_hole(d, m) {
                        dst = Some(h);
                        break;
                    }
                }
            }
            if let Some(dst) = dst {
                self.push_transfer(src, dst, self.ray_regs, now);
            }
        }

        // Task 3: consolidate sparse unbound uniform rows (fetch-state ray
        // collection: the vacated row becomes an all-fetching rename
        // target).
        for r in 0..rows {
            if self.transfers.len() >= max_tasks {
                return;
            }
            if Some(r) == self.leaf_collector || !self.row_shufflable(r) {
                continue;
            }
            let c = self.row_summary(r);
            if c.rays() == 0 || c.no_ray == 0 || (c.inner > 0 && c.leaf > 0) {
                continue; // only sparse uniform rows
            }
            let state = if c.inner > 0 { RayState::Inner } else { RayState::Leaf };
            let Some(src) = self.find_state(r, state) else {
                continue;
            };
            let mut dst = None;
            for d in 0..rows {
                if d == r || Some(d) == self.leaf_collector || !self.row_shufflable(d) {
                    continue;
                }
                let dc = self.row_summary(d);
                let compatible = match state {
                    RayState::Inner => dc.leaf == 0,
                    _ => dc.inner == 0,
                };
                if compatible && dc.no_ray > 0 && dc.rays() > c.rays() {
                    if let Some(h) = self.find_hole(d, m) {
                        dst = Some(h);
                        break;
                    }
                }
            }
            if let Some(dst) = dst {
                self.push_transfer(src, dst, self.ray_regs, now);
            }
        }
    }

    /// First non-busy slot of `row` holding a ray in `state` (inner or
    /// leaf).
    fn find_state(&self, row: usize, state: RayState) -> Option<usize> {
        let plane = match state {
            RayState::Inner => self.inner[row],
            _ => self.leaf[row],
        };
        let free = plane & !self.busy[row];
        (free != 0).then(|| self.slot_index(row, free.trailing_zeros() as usize))
    }

    /// First non-busy slot of `row` with no resident ray.
    fn find_hole(&self, row: usize, m: &MachineState<'_>) -> Option<usize> {
        let mut free = self.lane_mask & !self.busy[row];
        while free != 0 {
            let s = self.slot_index(row, free.trailing_zeros() as usize);
            if m.slots[s].ray.is_none() {
                return Some(s);
            }
            free &= free - 1;
        }
        None
    }

    fn push_transfer(&mut self, src: usize, dst: usize, total_regs: u8, now: u64) {
        for slot in [src, dst] {
            self.busy[slot / self.cfg.lanes] |= 1 << (slot % self.cfg.lanes);
        }
        self.generation += 1;
        self.replan = true;
        self.transfers.push(Transfer {
            src_slot: src as u32,
            dst_slot: dst as u32,
            total_regs,
            reads: 0,
            writes: 0,
            writable: 0,
            start_cycle: now,
        });
    }

    /// The full `rdctrl` decision for `warp` against the current tables.
    /// Its stall path mutates nothing but `parked[warp]`.
    fn decide(&mut self, warp: usize, m: &mut MachineState<'_>) -> SpecialOutcome {
        let row = self.row_of_warp[warp];
        let cur_busy = self.row_has_busy_slot(row);
        // Strict path: a full uniform (or refillable-empty) current row
        // proceeds immediately.
        if !cur_busy {
            if let Some(ctrl) = self.strict_ctrl(row, m) {
                self.set_parked(warp, false);
                self.map_warp_to_row(warp, row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        // Rename to a strictly acceptable unbound row if one exists.
        for r in rows_in(self.unbound) {
            if self.row_has_busy_slot(r) {
                continue;
            }
            if let Some(ctrl) = self.strict_ctrl(r, m) {
                self.set_parked(warp, false);
                self.rename(warp, r);
                self.map_warp_to_row(warp, r, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        // Relaxed fallback — only once the queue has drained (full rows can
        // no longer be manufactured): run the best partially-filled
        // uniform row rather than stalling forever.
        let cur_score = if cur_busy || !m.queue.is_empty() { 0 } else { self.row_score(row, m) };
        let best = if m.queue.is_empty() { self.best_free_row(m) } else { None };
        if cur_score > 0 && best.is_none_or(|(_, s)| s <= cur_score) {
            if let Some(ctrl) = self.ctrl_for(row, m) {
                self.set_parked(warp, false);
                self.map_warp_to_row(warp, row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        if self.cfg.ideal {
            if let Some(ctrl) = self.ideal_reshuffle(warp, m) {
                let row = self.row_of_warp[warp];
                self.set_parked(warp, false);
                self.map_warp_to_row(warp, row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
            if self.no_work_left(warp, m) {
                self.set_parked(warp, false);
                return SpecialOutcome::Proceed { ctrl: CTRL_EXIT };
            }
            self.set_parked(warp, true);
            return SpecialOutcome::Stall;
        }
        // Relaxed rename (drain phase only).
        if let Some((new_row, _)) = best {
            if let Some(ctrl) = self.ctrl_for(new_row, m) {
                self.set_parked(warp, false);
                self.rename(warp, new_row);
                self.map_warp_to_row(warp, new_row, m);
                return SpecialOutcome::Proceed { ctrl };
            }
        }
        if self.no_work_left(warp, m) {
            self.set_parked(warp, false);
            return SpecialOutcome::Proceed { ctrl: CTRL_EXIT };
        }
        self.set_parked(warp, true);
        SpecialOutcome::Stall
    }
}

/// The rows whose bits are set in `mask`, ascending.
fn rows_in(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let r = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            r
        })
    })
}

impl SpecialUnit for DrsUnit {
    fn issue(
        &mut self,
        warp: usize,
        token: u16,
        m: &mut MachineState<'_>,
        _stats: &mut SimStats,
    ) -> SpecialOutcome {
        debug_assert_eq!(token, TOKEN_RDCTRL);
        if !self.initialized {
            self.initialize(m);
        }
        self.drain_dirty(m);
        // A stalled warp's decision reads only its own row (parked, so
        // changed by transfers alone), the unbound rows (changed by
        // transfers and renames), the busy slots and transfer list, and
        // whether the queue has drained. Every event that can change those
        // bumps `generation`, so a retry under the same key stalls again.
        let key = (self.generation, m.queue.is_empty());
        if self.stall_memo[warp] == Some(key) {
            debug_assert_eq!(
                self.decide(warp, m),
                SpecialOutcome::Stall,
                "memoized rdctrl stall of warp {warp} is stale"
            );
            return SpecialOutcome::Stall;
        }
        let outcome = self.decide(warp, m);
        self.stall_memo[warp] = (outcome == SpecialOutcome::Stall).then_some(key);
        outcome
    }

    fn tick(
        &mut self,
        cycle: u64,
        idle_banks: &[bool],
        m: &mut MachineState<'_>,
        stats: &mut SimStats,
    ) {
        if self.cfg.ideal {
            return;
        }
        if !self.initialized {
            self.initialize(m);
        }
        self.drain_dirty(m);
        if !self.transfers.is_empty() {
            // Progress active transfers through idle bank ports.
            self.idle.clear();
            self.idle.extend_from_slice(idle_banks);
            let idle = &mut self.idle;
            let nbanks = idle.len().max(1);
            let bpt = self.cfg.buffers_per_task() as u8;
            for t in &mut self.transfers {
                let regs = t.total_regs;
                // Writes first: registers read in earlier cycles drain to
                // the destination row's banks.
                while t.writes < t.writable {
                    let bank = (t.dst_slot as usize / 32 + t.writes as usize) % nbanks;
                    if !idle[bank] {
                        break;
                    }
                    idle[bank] = false;
                    t.writes += 1;
                    stats.swap_accesses += 1;
                }
                // Reads limited by buffer capacity (reads in flight ≤ bpt).
                while t.reads < regs && t.reads - t.writes < bpt {
                    let bank = (t.src_slot as usize / 32 + t.reads as usize) % nbanks;
                    if !idle[bank] {
                        break;
                    }
                    idle[bank] = false;
                    t.reads += 1;
                    stats.swap_accesses += 1;
                }
                t.writable = t.reads;
            }
            // Completed transfers move disjoint slots, so the order they
            // finalize in is immaterial.
            let mut i = 0;
            while i < self.transfers.len() {
                if self.transfers[i].writes == self.transfers[i].total_regs {
                    let t = self.transfers.remove(i);
                    self.finalize_transfer(t, cycle + 1, m, stats);
                } else {
                    i += 1;
                }
            }
        }
        if self.replan {
            self.plan_transfers(cycle, m);
        }
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Ideal DRS never ticks; real DRS is quiescent once no transfers
        // are in flight: with no issues in between, the dirty queue stays
        // drained and `replan` stays clear (the last plan started nothing),
        // so every tick until the next issue is a pure no-op. Before the
        // first tick the unit still has to initialize, so it pins the
        // engine to the current cycle.
        if self.cfg.ideal {
            return None;
        }
        if !self.initialized || !self.transfers.is_empty() {
            return Some(now);
        }
        None
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
                for k in 0..2 + (i * 7 % 13) {
                    steps.push(Step::Inner {
                        node_addr: 0x1000_0000 + ((i * 37 + k * 5) % 4096) as u64 * 64,
                        both_children_hit: (i + k) % 3 == 0,
                    });
                    if (i + k) % 4 == 0 {
                        steps.push(Step::Leaf {
                            node_addr: 0x1100_0000 + ((i + k) % 1024) as u64 * 64,
                            prim_base_addr: 0x4000_0000 + ((i * 3 + k) % 1024) as u64 * 48,
                            prim_count: 1 + ((i + k) % 4) as u16,
                        });
                    }
                }
                RayScript::new(steps, Termination::Hit)
            })
            .collect()
    }

    fn run_drs(nrays: usize, warps: usize, drs: DrsConfig) -> drs_sim::SimStats {
        let s = scripts(nrays);
        let k = WhileIfKernel::new();
        let cfg = GpuConfig { max_warps: warps, max_cycles: 80_000_000, ..GpuConfig::gtx780() };
        let unit = DrsUnit::new(drs);
        struct SlotCountKernel(WhileIfKernel, usize);
        impl drs_sim::KernelBehavior for SlotCountKernel {
            fn eval_cond(&self, t: u16, w: usize, l: usize, m: &MachineState<'_>) -> bool {
                self.0.eval_cond(t, w, l, m)
            }
            fn eval_addr(&self, t: u16, w: usize, l: usize, m: &MachineState<'_>) -> u64 {
                self.0.eval_addr(t, w, l, m)
            }
            fn apply_effect(&self, t: u16, w: usize, l: usize, m: &mut MachineState<'_>) {
                self.0.apply_effect(t, w, l, m);
            }
            fn slot_count(&self, _warps: usize, lanes: usize) -> usize {
                self.1 * lanes
            }
            fn initialize(&self, m: &mut MachineState<'_>) {
                self.0.initialize(m);
            }
        }
        let behavior = SlotCountKernel(k.clone(), drs.rows());
        Simulation::new(cfg, k.program(), Box::new(behavior), Box::new(unit), &s)
            .run()
            .expect("DRS run hit the cycle cap")
    }

    #[test]
    fn config_row_arithmetic() {
        let c = DrsConfig::paper_default();
        assert_eq!(c.rows(), 58 + 1 + 2);
        assert_eq!(c.buffers_per_task(), 2);
        c.validate();
    }

    #[test]
    fn unbound_mask_holds_max_rows() {
        // 118 warps + 8 backup rows + 2 empty rows fill the mask exactly.
        let cfg =
            DrsConfig { warps: 118, backup_rows: 8, swap_buffers: 6, ideal: false, lanes: 32 };
        assert_eq!(cfg.rows(), MAX_ROWS);
        let unit = DrsUnit::new(cfg);
        assert_eq!(unit.unbound, 0x3FF << 118);
        assert!(unit.unbound_in_sync());
    }

    #[test]
    #[should_panic(expected = "exceed the unit's 128 rows")]
    fn more_rows_than_the_unbound_mask_holds_is_rejected() {
        let cfg =
            DrsConfig { warps: 119, backup_rows: 8, swap_buffers: 6, ideal: false, lanes: 32 };
        let _ = DrsUnit::new(cfg);
    }

    #[test]
    fn row_summary_uniformity() {
        let full_inner = RowSummary { no_ray: 0, inner: 32, leaf: 0 };
        assert_eq!(full_inner.uniform_state(), Some(RayState::Inner));
        assert!(full_inner.is_full_uniform());
        let holey_leaf = RowSummary { no_ray: 4, inner: 0, leaf: 28 };
        assert_eq!(holey_leaf.uniform_state(), Some(RayState::Leaf));
        assert!(!holey_leaf.is_full_uniform());
        let mixed = RowSummary { no_ray: 0, inner: 16, leaf: 16 };
        assert_eq!(mixed.uniform_state(), None);
        let empty = RowSummary { no_ray: 32, inner: 0, leaf: 0 };
        assert_eq!(empty.uniform_state(), Some(RayState::Fetching));
    }

    #[test]
    fn drs_completes_all_rays_small() {
        let out = run_drs(
            600,
            6,
            DrsConfig { warps: 6, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        assert_eq!(out.rays_completed, 600);
        assert!(out.rdctrl_issued > 0);
    }

    #[test]
    fn drs_improves_simd_efficiency_over_while_while() {
        use drs_kernels::{WhileWhileConfig, WhileWhileKernel};
        use drs_sim::NullSpecial;
        let s = scripts(800);
        let cfg = GpuConfig { max_warps: 6, max_cycles: 80_000_000, ..GpuConfig::gtx780() };
        let ww = WhileWhileKernel::new(WhileWhileConfig::default());
        let base = Simulation::new(
            cfg.clone(),
            ww.program(),
            Box::new(ww.clone()),
            Box::new(NullSpecial),
            &s,
        )
        .run()
        .expect("completes");
        let drs = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let e_base = base.issued.simd_efficiency();
        let e_drs = drs.issued.simd_efficiency();
        assert!(
            e_drs > e_base + 0.1,
            "DRS should clearly beat while-while: {e_drs:.3} vs {e_base:.3}"
        );
    }

    #[test]
    fn ideal_drs_completes_and_never_swaps() {
        let out = run_drs(
            400,
            4,
            DrsConfig { warps: 4, backup_rows: 1, swap_buffers: 6, ideal: true, lanes: 32 },
        );
        assert_eq!(out.rays_completed, 400);
        assert_eq!(out.swaps_completed, 0, "ideal shuffling is free");
        assert_eq!(out.rdctrl_stall_rate(), 0.0, "ideal DRS never stalls");
    }

    #[test]
    fn real_drs_performs_swaps() {
        let out = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 2, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        assert!(out.swaps_completed > 0, "shuffling should move rays");
        assert!(out.swap_accesses >= out.swaps_completed * RAY_REGISTERS as u64 * 2);
        assert!(
            out.avg_swap_cycles()
                >= (RAY_REGISTERS / DrsConfig::paper_default().buffers_per_task()) as f64
        );
    }

    #[test]
    fn more_backup_rows_reduce_stall_rate() {
        let few = run_drs(
            1000,
            6,
            DrsConfig { warps: 6, backup_rows: 1, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let many = run_drs(
            1000,
            6,
            DrsConfig { warps: 6, backup_rows: 8, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        assert!(
            many.rdctrl_stall_rate() <= few.rdctrl_stall_rate() + 0.02,
            "more backup rows must not increase stalls: {} vs {}",
            many.rdctrl_stall_rate(),
            few.rdctrl_stall_rate()
        );
    }

    #[test]
    fn more_swap_buffers_reduce_swap_latency() {
        let slow = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 2, swap_buffers: 6, ideal: false, lanes: 32 },
        );
        let fast = run_drs(
            800,
            6,
            DrsConfig { warps: 6, backup_rows: 2, swap_buffers: 18, ideal: false, lanes: 32 },
        );
        assert!(slow.swaps_completed > 0 && fast.swaps_completed > 0);
        assert!(
            fast.avg_swap_cycles() <= slow.avg_swap_cycles(),
            "18 buffers should swap no slower than 6: {} vs {}",
            fast.avg_swap_cycles(),
            slow.avg_swap_cycles()
        );
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use drs_sim::{MachineState, SpecialOutcome, SpecialUnit};
    use drs_trace::{RayScript, Step, Termination};

    const LANES: usize = 8;

    fn scripts(n: usize, steps_each: usize) -> Vec<RayScript> {
        (0..n)
            .map(|i| {
                RayScript::new(
                    (0..steps_each)
                        .map(|k| Step::Inner {
                            node_addr: 0x1000 + (i * steps_each + k) as u64 * 64,
                            both_children_hit: false,
                        })
                        .collect(),
                    Termination::Escaped,
                )
            })
            .collect()
    }

    fn unit_and_machine(
        scripts: &[RayScript],
        warps: usize,
        backup: usize,
    ) -> (DrsUnit, MachineState<'_>) {
        let cfg =
            DrsConfig { warps, backup_rows: backup, swap_buffers: 6, ideal: false, lanes: LANES };
        let unit = DrsUnit::new(cfg);
        let mut m = MachineState::new(scripts, warps, LANES, cfg.rows() * LANES);
        m.track_dirty = true;
        (unit, m)
    }

    #[test]
    fn empty_row_with_queue_returns_fetch() {
        let s = scripts(32, 3);
        let (mut unit, mut m) = unit_and_machine(&s, 2, 1);
        let mut stats = drs_sim::SimStats::default();
        match unit.issue(0, 0, &mut m, &mut stats) {
            SpecialOutcome::Proceed { ctrl } => {
                assert_eq!(ctrl, drs_kernels::CTRL_FETCH);
            }
            SpecialOutcome::Stall => panic!("empty row with queued rays must fetch"),
        }
    }

    #[test]
    fn full_uniform_inner_row_proceeds_without_rename() {
        let s = scripts(32, 3);
        let (mut unit, mut m) = unit_and_machine(&s, 2, 1);
        let mut stats = drs_sim::SimStats::default();
        // Fill warp 0's row with inner-state rays.
        for lane in 0..LANES {
            m.fetch_into(lane);
        }
        let row_before = unit.row_of(0);
        match unit.issue(0, 0, &mut m, &mut stats) {
            SpecialOutcome::Proceed { ctrl } => {
                assert_eq!(ctrl, drs_kernels::CTRL_TRAV_INNER);
                assert_eq!(unit.row_of(0), row_before, "no rename needed");
            }
            SpecialOutcome::Stall => panic!("full uniform row must proceed"),
        }
    }

    #[test]
    fn mixed_row_parks_then_swap_engine_unblocks() {
        // One warp whose row is half inner, half leaf; queue drained so no
        // fetch escape. The warp must stall, and after enough swap-engine
        // ticks it must be able to proceed (minority ejected to spare rows).
        let s: Vec<RayScript> = (0..LANES)
            .map(|i| {
                let step = if i % 2 == 0 {
                    Step::Inner { node_addr: 0x1000 + i as u64 * 64, both_children_hit: false }
                } else {
                    Step::Leaf {
                        node_addr: 0x2000 + i as u64 * 64,
                        prim_base_addr: 0x4000,
                        prim_count: 2,
                    }
                };
                RayScript::new(vec![step], Termination::Escaped)
            })
            .collect();
        let (mut unit, mut m) = unit_and_machine(&s, 1, 1);
        let mut stats = drs_sim::SimStats::default();
        for lane in 0..LANES {
            m.fetch_into(lane);
        }
        assert!(m.queue.is_empty());
        // Mixed and nothing uniform to rename onto with rays -> stall.
        let first = unit.issue(0, 0, &mut m, &mut stats);
        assert_eq!(first, SpecialOutcome::Stall);
        // Let the swap engine work with fully idle banks.
        let idle = vec![true; 32];
        let mut proceeded = false;
        for cycle in 0..3000u64 {
            unit.tick(cycle, &idle, &mut m, &mut stats);
            if let SpecialOutcome::Proceed { ctrl } = unit.issue(0, 0, &mut m, &mut stats) {
                assert!(
                    ctrl == drs_kernels::CTRL_TRAV_INNER || ctrl == drs_kernels::CTRL_TRAV_LEAF,
                    "unexpected ctrl {ctrl}"
                );
                proceeded = true;
                break;
            }
        }
        assert!(proceeded, "swap engine never produced a usable row");
        assert!(stats.swaps_completed > 0);
    }

    /// Scripts of one-step rays that start in the given states, fetched in
    /// this order.
    fn rays(states: &[RayState]) -> Vec<RayScript> {
        states
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let step = match state {
                    RayState::Inner => {
                        Step::Inner { node_addr: 0x1000 + i as u64 * 64, both_children_hit: false }
                    }
                    _ => Step::Leaf {
                        node_addr: 0x2000 + i as u64 * 64,
                        prim_base_addr: 0x4000,
                        prim_count: 1,
                    },
                };
                RayScript::new(vec![step], Termination::Escaped)
            })
            .collect()
    }

    /// Fetch the next queued rays into the `(row, lane)` slots, in order.
    fn fill(m: &mut MachineState<'_>, slots: impl IntoIterator<Item = (usize, usize)>) {
        for (row, lane) in slots {
            assert!(m.fetch_into(row * LANES + lane), "queue ran dry");
        }
    }

    /// The answer of the full decision path: a copy of `unit` with no stall
    /// memo. The copy drains nothing the real unit still has to see.
    fn full_path(unit: &DrsUnit, warp: usize, m: &mut MachineState<'_>) -> SpecialOutcome {
        let mut fresh = unit.clone();
        fresh.stall_memo.fill(None);
        let dirty = m.dirty.clone();
        let outcome = fresh.issue(warp, 0, m, &mut drs_sim::SimStats::default());
        m.dirty = dirty;
        outcome
    }

    fn memo_live(unit: &DrsUnit, warp: usize, m: &MachineState<'_>) -> bool {
        unit.stall_memo[warp] == Some((unit.generation, m.queue.is_empty()))
    }

    #[test]
    fn transfer_finishing_into_the_row_ends_a_memoized_stall() {
        // Warp 0's row holds 7 inner rays and 1 leaf ray, and the queue is
        // drained: it stalls until the swap engine ejects the leaf ray.
        use RayState::{Inner, Leaf};
        let s = rays(&[Inner, Inner, Inner, Inner, Inner, Inner, Inner, Leaf]);
        let (mut unit, mut m) = unit_and_machine(&s, 1, 1);
        fill(&mut m, (0..LANES).map(|l| (0, l)));
        let mut stats = drs_sim::SimStats::default();
        assert_eq!(unit.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Stall);
        let idle = vec![true; 32];
        let mut memo_hits = 0;
        for cycle in 0..500u64 {
            let swaps = stats.swaps_completed;
            unit.tick(cycle, &idle, &mut m, &mut stats);
            let live = memo_live(&unit, 0, &m);
            let expect = full_path(&unit, 0, &mut m);
            let got = unit.issue(0, 0, &mut m, &mut stats);
            assert_eq!(got, expect, "cycle {cycle}: the retry must give the full path's answer");
            if stats.swaps_completed == swaps {
                assert_eq!(got, SpecialOutcome::Stall);
                memo_hits += live as u32;
                continue;
            }
            assert!(!live, "a finished transfer must invalidate the memo");
            assert_eq!(got, SpecialOutcome::Proceed { ctrl: drs_kernels::CTRL_TRAV_INNER });
            assert!(memo_hits > 0, "retries during the transfer are answered from the memo");
            return;
        }
        panic!("the ejection never finished");
    }

    #[test]
    fn a_row_left_unbound_by_a_rename_reaches_a_memoized_stall() {
        // Rows: 0 (warp 0) empty, 1 (warp 1) 5 inner, 2 (unbound) 6 leaf
        // + 1 inner + 1 hole, 3 and 4 empty. Queue drained, so warp 0
        // stalls. The swap engine ejects row 2's inner ray, warp 1 renames
        // onto the now leaf-uniform row 2, and warp 0's retry must find the
        // 5-inner row 1 that warp 1 left unbound.
        use RayState::{Inner, Leaf};
        let mut kinds = vec![Inner; 5];
        kinds.extend([Leaf; 6]);
        kinds.push(Inner);
        let s = rays(&kinds);
        let (mut unit, mut m) = unit_and_machine(&s, 2, 1);
        fill(&mut m, (0..5).map(|l| (1, l)).chain((0..7).map(|l| (2, l))));
        let mut stats = drs_sim::SimStats::default();
        assert_eq!(unit.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Stall);
        let idle = vec![true; 32];
        let mut cycle = 0;
        while stats.swaps_completed == 0 {
            assert!(cycle < 500, "the ejection never finished");
            unit.tick(cycle, &idle, &mut m, &mut stats);
            cycle += 1;
            if stats.swaps_completed == 0 {
                let expect = full_path(&unit, 0, &mut m);
                assert_eq!(unit.issue(0, 0, &mut m, &mut stats), expect);
                assert_eq!(expect, SpecialOutcome::Stall);
            }
        }
        let generation = unit.generation;
        assert_eq!(
            unit.issue(1, 0, &mut m, &mut stats),
            SpecialOutcome::Proceed { ctrl: drs_kernels::CTRL_TRAV_LEAF }
        );
        assert_eq!(unit.row_of(1), 2, "warp 1 renamed onto the leaf-uniform row");
        assert!(unit.generation > generation, "a rename bumps the generation");
        assert!(!memo_live(&unit, 0, &m));
        let expect = full_path(&unit, 0, &mut m);
        let got = unit.issue(0, 0, &mut m, &mut stats);
        assert_eq!(got, expect);
        assert_eq!(got, SpecialOutcome::Proceed { ctrl: drs_kernels::CTRL_TRAV_INNER });
        assert_eq!(unit.row_of(0), 1, "warp 0 renamed onto the row warp 1 left");
    }

    #[test]
    fn queue_draining_ends_a_memoized_stall() {
        // Warp 0's row holds 5 inner rays (below the strict 6-of-8), the
        // unbound rows are mixed and two rays are still queued: only
        // strict rows are acceptable, so warp 0 stalls. Once warp 1
        // fetches the last rays the relaxed path lets warp 0 run its own
        // row, with no transfer or rename in between.
        use RayState::{Inner, Leaf};
        let mut kinds = vec![Inner; 5];
        for _ in 2..5 {
            kinds.extend([Inner, Leaf]);
        }
        kinds.extend([Inner, Inner]);
        let s = rays(&kinds);
        let (mut unit, mut m) = unit_and_machine(&s, 2, 1);
        fill(&mut m, (0..5).map(|l| (0, l)).chain((2..5).flat_map(|r| [(r, 0), (r, 1)])));
        assert_eq!(m.queue.remaining(), 2);
        let mut stats = drs_sim::SimStats::default();
        assert_eq!(unit.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Stall);
        assert!(memo_live(&unit, 0, &m));
        assert_eq!(unit.issue(0, 0, &mut m, &mut stats), SpecialOutcome::Stall);
        let generation = unit.generation;
        assert_eq!(
            unit.issue(1, 0, &mut m, &mut stats),
            SpecialOutcome::Proceed { ctrl: drs_kernels::CTRL_FETCH }
        );
        fill(&mut m, [(1, 0), (1, 1)]);
        assert!(m.queue.is_empty());
        assert_eq!(unit.generation, generation, "only the queue changed");
        assert!(!memo_live(&unit, 0, &m));
        let expect = full_path(&unit, 0, &mut m);
        let got = unit.issue(0, 0, &mut m, &mut stats);
        assert_eq!(got, expect);
        assert_eq!(got, SpecialOutcome::Proceed { ctrl: drs_kernels::CTRL_TRAV_INNER });
        assert_eq!(unit.row_of(0), 0);
    }

    #[test]
    fn drained_machine_exits() {
        let s = scripts(4, 1);
        let (mut unit, mut m) = unit_and_machine(&s, 1, 1);
        let mut stats = drs_sim::SimStats::default();
        // Consume every ray functionally.
        for i in 0..4 {
            m.fetch_into(i);
            m.consume_step(i);
            m.retire_ray(i);
        }
        assert!(m.all_work_drained());
        match unit.issue(0, 0, &mut m, &mut stats) {
            SpecialOutcome::Proceed { ctrl } => assert_eq!(ctrl, drs_kernels::CTRL_EXIT),
            SpecialOutcome::Stall => panic!("drained machine must exit"),
        }
    }
}

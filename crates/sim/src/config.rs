//! GPU microarchitectural configuration (the paper's Table 1).

use std::fmt;

/// Total shared L2 capacity of the chip in bytes (Table 1: 1536 KB).
/// Single-SMX runs see their `1 / smx_count` slice; full-chip runs
/// (`drs-chip`) model the whole capacity as one banked cache.
pub const L2_TOTAL_BYTES: usize = 1536 * 1024;

/// Most warps one scheduler may own: its ready set is one `u64` bitmask
/// (see DESIGN.md "Cheap stepped cycles").
pub const MAX_WARPS_PER_SCHEDULER: usize = 64;

/// Warp scheduling policy of each scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest (the paper's Table 1 configuration): keep issuing
    /// from the current warp until it stalls, then fall back to the oldest
    /// (lowest-id) ready warp.
    #[default]
    GreedyThenOldest,
    /// Loose round-robin: rotate the preferred warp every cycle. Kept as an
    /// ablation — GTO's latency-hiding bias is worth measuring against.
    LooseRoundRobin,
}

/// Configuration of the simulated GPU core and memory system.
///
/// Defaults come from the paper's Table 1 (an NVIDIA GeForce GTX 780,
/// Kepler). Only one SMX is simulated; `smx_count` scales reported
/// whole-GPU throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// SMX core clock in MHz (Table 1: 980 MHz).
    pub clock_mhz: u32,
    /// SIMD lanes per warp (Table 1: 32).
    pub simd_lanes: usize,
    /// Number of SMXs on the GPU (Table 1: 15).
    pub smx_count: usize,
    /// Warp schedulers per SMX (Table 1: 4).
    pub warp_schedulers: usize,
    /// Scheduling policy (Table 1: greedy-then-oldest).
    pub scheduler_policy: SchedulerPolicy,
    /// Instruction dispatch units per SMX (Table 1: 8) — i.e. each
    /// scheduler may dual-issue.
    pub dispatch_units: usize,
    /// 32-bit registers per SMX (Table 1: 65536).
    pub registers_per_smx: usize,
    /// Register file banks per SMX.
    pub register_banks: usize,
    /// Maximum resident warps the kernel launches on this SMX.
    pub max_warps: usize,
    /// L1 data cache size in bytes (Table 1: 48 KB).
    pub l1d_bytes: usize,
    /// L1 texture cache size in bytes (Table 1: 48 KB) — BVH nodes and
    /// triangle data are read through this cache.
    pub l1t_bytes: usize,
    /// L2 cache size in bytes (Table 1: 1536 KB). One SMX sees its share.
    pub l2_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Cache associativity (all levels).
    pub cache_ways: usize,
    /// ALU result latency in cycles.
    pub alu_latency: u32,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
    /// DRAM access latency in cycles.
    pub dram_latency: u32,
    /// Taken-branch redirect penalty in cycles.
    pub branch_penalty: u32,
    /// Miss-status holding registers: distinct cache lines that may be in
    /// flight at once; further misses queue behind the earliest fill.
    pub mshr_entries: usize,
    /// Safety cap on simulated cycles (guards against livelock bugs).
    pub max_cycles: u64,
    /// Cycles without a single issued instruction before the `validate`
    /// feature's watchdog dumps warp states and aborts instead of spinning
    /// to `max_cycles`.
    pub watchdog_cycles: u64,
}

impl GpuConfig {
    /// The paper's baseline: a GTX 780 (Kepler) as configured in Table 1.
    pub fn gtx780() -> GpuConfig {
        let smx_count = 15;
        GpuConfig {
            clock_mhz: 980,
            simd_lanes: 32,
            smx_count,
            warp_schedulers: 4,
            scheduler_policy: SchedulerPolicy::GreedyThenOldest,
            dispatch_units: 8,
            registers_per_smx: 65_536,
            register_banks: 32,
            max_warps: 48,
            l1d_bytes: 48 * 1024,
            l1t_bytes: 48 * 1024,
            // One SMX's slice of the shared L2 (full-chip runs replace this
            // with the whole banked capacity; see `ChipConfig`).
            l2_bytes: L2_TOTAL_BYTES / smx_count,
            line_bytes: 128,
            cache_ways: 8,
            alu_latency: 9,
            l1_latency: 30,
            l2_latency: 190,
            dram_latency: 440,
            branch_penalty: 2,
            mshr_entries: 4096,
            max_cycles: 2_000_000_000,
            watchdog_cycles: 1_000_000,
        }
    }

    /// Peak instructions issued per cycle (dispatch units).
    pub fn peak_ipc(&self) -> usize {
        self.dispatch_units
    }

    /// How many instructions one scheduler may issue per cycle.
    pub fn issues_per_scheduler(&self) -> usize {
        (self.dispatch_units / self.warp_schedulers).max(1)
    }

    /// Warps the busiest scheduler owns (warp `w` belongs to scheduler
    /// `w % warp_schedulers`).
    pub fn warps_per_scheduler(&self) -> usize {
        self.max_warps.div_ceil(self.warp_schedulers.max(1))
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero lanes, schedulers that
    /// outnumber dispatch units, non-power-of-two line size, more warps
    /// per scheduler than its ready mask holds).
    pub fn validate(&self) {
        assert!(self.simd_lanes > 0 && self.simd_lanes <= 32, "lanes in 1..=32");
        assert!(self.warp_schedulers > 0, "need at least one scheduler");
        assert!(
            self.warps_per_scheduler() <= MAX_WARPS_PER_SCHEDULER,
            "{} warps over {} schedulers exceed {MAX_WARPS_PER_SCHEDULER} warps per scheduler",
            self.max_warps,
            self.warp_schedulers
        );
        assert!(self.dispatch_units >= self.warp_schedulers, "dispatch < schedulers");
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.max_warps > 0, "need at least one warp");
        assert!(self.register_banks > 0, "need at least one register bank");
        assert!(self.mshr_entries >= 1, "need at least one MSHR entry");
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::gtx780()
    }
}

/// Full-chip simulation knobs: how many SMs share the memory system and
/// how that memory system is provisioned.
///
/// `None` (the usual single-SMX mode) keeps today's behavior — one SMX
/// against its private L2 slice, whole-GPU throughput scaled by
/// `smx_count`. `Some(chip)` makes `drs-chip` instantiate `chip.sms`
/// engines against one banked L2 with a shared MSHR pool and a
/// finite-bandwidth DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipConfig {
    /// Number of SM cores sharing the memory system.
    pub sms: usize,
    /// L2 banks; each bank accepts one line request per cycle, so
    /// same-bank traffic from different SMs serializes.
    pub l2_banks: usize,
    /// Shared MSHR pool (distinct lines in flight chip-wide).
    pub shared_mshrs: usize,
    /// DRAM channel bandwidth in GB/s; converted to cycles-per-line at
    /// the core clock, so requests queue when the channel saturates.
    pub dram_gbps: u32,
    /// One-way interconnect (NoC) latency between an SM and the L2, in
    /// cycles. Every request pays it twice (request + response).
    pub noc_latency: u32,
}

impl ChipConfig {
    /// The paper's GTX 780 chip provisioning for `sms` cores: 16 L2
    /// banks, 4096 shared MSHRs, 336 GB/s DRAM, 8-cycle NoC hop.
    pub fn gtx780(sms: usize) -> ChipConfig {
        ChipConfig { sms, l2_banks: 16, shared_mshrs: 4096, dram_gbps: 336, noc_latency: 8 }
    }

    /// Check internal consistency, returning a typed error instead of
    /// panicking — chip misconfiguration must surface as a recordable
    /// cell failure, not a worker abort.
    ///
    /// # Errors
    ///
    /// Returns [`ChipConfigError`] when any provisioning knob is zero
    /// (no SMs, no L2 banks, no MSHRs, or zero DRAM bandwidth).
    pub fn validate(&self) -> Result<(), ChipConfigError> {
        if self.sms == 0 {
            return Err(ChipConfigError("chip has 0 SMs".into()));
        }
        if self.l2_banks == 0 {
            return Err(ChipConfigError("chip has 0 L2 banks".into()));
        }
        if self.shared_mshrs == 0 {
            return Err(ChipConfigError("chip has 0 shared MSHRs".into()));
        }
        if self.dram_gbps == 0 {
            return Err(ChipConfigError("chip DRAM bandwidth is 0 GB/s".into()));
        }
        Ok(())
    }

    /// Canonical text form — the hash input for content-derived job ids
    /// (every field affects results, so every field appears).
    pub fn canonical(&self) -> String {
        format!(
            "sms={};l2_banks={};mshrs={};dram_gbps={};noc={}",
            self.sms, self.l2_banks, self.shared_mshrs, self.dram_gbps, self.noc_latency
        )
    }
}

/// An inconsistent [`ChipConfig`], with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipConfigError(pub String);

impl fmt::Display for ChipConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inconsistent chip config: {}", self.0)
    }
}

impl std::error::Error for ChipConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = GpuConfig::gtx780();
        assert_eq!(c.clock_mhz, 980);
        assert_eq!(c.simd_lanes, 32);
        assert_eq!(c.smx_count, 15);
        assert_eq!(c.warp_schedulers, 4);
        assert_eq!(c.dispatch_units, 8);
        assert_eq!(c.registers_per_smx, 65_536);
        assert_eq!(c.l1d_bytes, 48 * 1024);
        assert_eq!(c.l1t_bytes, 48 * 1024);
        c.validate();
    }

    #[test]
    fn dual_issue_per_scheduler() {
        let c = GpuConfig::gtx780();
        assert_eq!(c.issues_per_scheduler(), 2);
        assert_eq!(c.peak_ipc(), 8);
    }

    #[test]
    #[should_panic]
    fn bad_config_panics() {
        let mut c = GpuConfig::gtx780();
        c.line_bytes = 100;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "exceed 64 warps per scheduler")]
    fn more_warps_than_a_ready_mask_holds_is_rejected() {
        let c = GpuConfig { max_warps: 4 * MAX_WARPS_PER_SCHEDULER + 1, ..GpuConfig::gtx780() };
        assert_eq!(c.warps_per_scheduler(), MAX_WARPS_PER_SCHEDULER + 1);
        c.validate();
    }

    #[test]
    fn a_full_ready_mask_is_accepted() {
        let c = GpuConfig { max_warps: 4 * MAX_WARPS_PER_SCHEDULER, ..GpuConfig::gtx780() };
        assert_eq!(c.warps_per_scheduler(), MAX_WARPS_PER_SCHEDULER);
        c.validate();
    }

    #[test]
    fn l2_slice_is_derived_from_smx_count() {
        let c = GpuConfig::gtx780();
        assert_eq!(c.l2_bytes, L2_TOTAL_BYTES / c.smx_count);
        // The historical literal: deriving the slice must not move any
        // previously published number.
        assert_eq!(c.l2_bytes, 1536 * 1024 / 15);
    }

    #[test]
    fn chip_config_validates_and_hashes_every_field() {
        let c = ChipConfig::gtx780(15);
        assert!(c.validate().is_ok());
        for bad in [
            ChipConfig { sms: 0, ..c },
            ChipConfig { l2_banks: 0, ..c },
            ChipConfig { shared_mshrs: 0, ..c },
            ChipConfig { dram_gbps: 0, ..c },
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.to_string().contains("inconsistent chip config"), "{err}");
        }
        let canons: Vec<String> = [
            c,
            ChipConfig { sms: 2, ..c },
            ChipConfig { l2_banks: 8, ..c },
            ChipConfig { shared_mshrs: 64, ..c },
            ChipConfig { dram_gbps: 100, ..c },
            ChipConfig { noc_latency: 0, ..c },
        ]
        .iter()
        .map(ChipConfig::canonical)
        .collect();
        let mut dedup = canons.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), canons.len(), "every field must reach the canonical form");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn default_policy_is_gto() {
        assert_eq!(GpuConfig::gtx780().scheduler_policy, SchedulerPolicy::GreedyThenOldest);
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::GreedyThenOldest);
    }
}

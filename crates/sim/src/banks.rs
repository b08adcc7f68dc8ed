//! Per-cycle register-file bank port tracking.
//!
//! Kepler-style register files are built from single-ported SRAM banks
//! behind an operand collector. We model the first-order effect: operand
//! reads of instructions issued in the same cycle contend for bank read
//! ports (each collision adds a cycle of operand-collection latency), and
//! ports left idle in a cycle are what the DRS swap engine may use to move
//! ray registers without perturbing the pipeline.

/// Tracks bank port usage within the current cycle.
#[derive(Debug, Clone)]
pub struct RegisterBanks {
    banks: usize,
    usage: Vec<u32>,
    /// True when any port was used since the last [`RegisterBanks::new_cycle`],
    /// so an all-idle cycle's reset is a no-op instead of a `fill`.
    dirty: bool,
    /// Lifetime counters.
    pub total_reads: u64,
    /// Total writes observed (writes are counted but, having a dedicated
    /// write port per bank in this model, do not add collision latency).
    pub total_writes: u64,
    /// Total read collisions (extra operand-collection cycles).
    pub total_conflicts: u64,
}

impl RegisterBanks {
    /// A register file with `banks` banks.
    pub fn new(banks: usize) -> RegisterBanks {
        assert!(banks > 0, "need at least one bank");
        RegisterBanks {
            banks,
            usage: vec![0; banks],
            dirty: false,
            total_reads: 0,
            total_writes: 0,
            total_conflicts: 0,
        }
    }

    /// Bank holding register `reg` of warp `warp` (warp-interleaved layout).
    #[inline]
    pub fn bank_of(&self, warp: usize, reg: u8) -> usize {
        (reg as usize + warp) % self.banks
    }

    /// [`RegisterBanks::bank_of`] from precomputed offsets: `reg_off =
    /// reg % banks` and `warp_off = warp % banks`. Both are below the bank
    /// count, so one conditional subtraction replaces the `%`.
    #[inline]
    pub fn bank_at(&self, reg_off: usize, warp_off: usize) -> usize {
        let b = reg_off + warp_off;
        if b >= self.banks {
            b - self.banks
        } else {
            b
        }
    }

    /// Record an operand read on `bank` this cycle; returns the number of
    /// *extra* cycles this read adds due to a port collision.
    #[inline]
    pub fn read(&mut self, bank: usize) -> u32 {
        let prior = self.usage[bank];
        self.usage[bank] += 1;
        self.dirty = true;
        self.total_reads += 1;
        if prior > 0 {
            self.total_conflicts += 1;
        }
        prior
    }

    /// Record a result write this cycle. Writes use each bank's dedicated
    /// write port, so only the count matters (energy/stats).
    #[inline]
    pub fn write(&mut self) {
        self.total_writes += 1;
    }

    /// Record `n` raw accesses on an explicit bank (used by the swap engine
    /// which addresses rows directly).
    pub fn raw_access(&mut self, bank: usize, n: u32) {
        self.usage[bank % self.banks] += n;
        if n > 0 {
            self.dirty = true;
        }
        self.total_reads += n as u64;
    }

    /// Banks whose read port went unused this cycle.
    pub fn idle_banks(&self) -> Vec<bool> {
        self.usage.iter().map(|&u| u == 0).collect()
    }

    /// Like [`RegisterBanks::idle_banks`], but into a caller-owned buffer
    /// so the per-cycle hot loop allocates nothing.
    pub fn idle_banks_into(&self, buf: &mut Vec<bool>) {
        buf.clear();
        buf.extend(self.usage.iter().map(|&u| u == 0));
    }

    /// Reset per-cycle usage (call once per simulated cycle). A no-op on
    /// cycles with no port activity.
    pub fn new_cycle(&mut self) {
        if self.dirty {
            self.usage.fill(0);
            self.dirty = false;
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collisions_add_latency() {
        let mut rb = RegisterBanks::new(4);
        assert_eq!(rb.read(rb.bank_of(0, 0)), 0);
        assert_eq!(rb.read(rb.bank_of(0, 4)), 1, "same bank, second read collides");
        assert_eq!(rb.read(rb.bank_of(0, 8)), 2);
        assert_eq!(rb.read(rb.bank_of(0, 1)), 0, "different bank is free");
        assert_eq!(rb.total_conflicts, 2);
        assert_eq!(rb.total_reads, 4);
    }

    #[test]
    fn warp_offset_spreads_banks() {
        let rb = RegisterBanks::new(8);
        assert_ne!(rb.bank_of(0, 0), rb.bank_of(1, 0));
        assert_eq!(rb.bank_of(0, 8), rb.bank_of(0, 0));
    }

    #[test]
    fn idle_banks_reflect_usage() {
        let mut rb = RegisterBanks::new(4);
        rb.read(rb.bank_of(0, 1));
        let idle = rb.idle_banks();
        assert!(!idle[1]);
        assert!(idle[0] && idle[2] && idle[3]);
        rb.new_cycle();
        assert!(rb.idle_banks().iter().all(|&b| b));
    }

    #[test]
    fn writes_do_not_collide() {
        let mut rb = RegisterBanks::new(2);
        rb.write();
        rb.write();
        assert_eq!(rb.total_conflicts, 0);
        assert_eq!(rb.total_writes, 2);
        assert!(rb.idle_banks().iter().all(|&b| b), "writes do not consume read ports");
    }
}

//! Set-associative caches with MSHR merging and a flat-latency DRAM.

use crate::config::GpuConfig;
use crate::isa::MemSpace;
use std::collections::HashMap;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    fn sets(&self) -> usize {
        (self.bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0,1]`; zero for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative LRU cache over line addresses.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `config.sets()`, fixed at construction (read on every access).
    sets: u64,
    /// `sets × ways` tags; `u64::MAX` = invalid. LRU order kept per set via
    /// a parallel timestamp array.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Build a cache of the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let n = config.sets() * config.ways;
        Cache {
            config,
            sets: config.sets() as u64,
            tags: vec![u64::MAX; n],
            stamps: vec![0; n],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Access `line_addr` (already line-aligned); returns true on hit and
    /// fills the line on miss (LRU victim).
    pub fn access(&mut self, line_addr: u64) -> bool {
        self.access_probed(line_addr).0
    }

    /// [`access`](Cache::access), additionally reporting the valid line a
    /// miss evicted (`None` on a hit, or when the fill took an invalid
    /// way). The probe is observational — timing and [`CacheStats`] are
    /// identical to `access` — and exists so the chip's shared L2 can
    /// attribute evictions to the SM whose line was displaced.
    pub fn access_probed(&mut self, line_addr: u64) -> (bool, Option<u64>) {
        self.tick += 1;
        let set = (line_addr / self.config.line_bytes as u64 % self.sets) as usize;
        let base = set * self.config.ways;
        let ways = &mut self.tags[base..base + self.config.ways];
        if let Some(w) = ways.iter().position(|&t| t == line_addr) {
            self.stamps[base + w] = self.tick;
            self.stats.hits += 1;
            return (true, None);
        }
        self.stats.misses += 1;
        // Evict LRU (or an invalid way).
        let victim =
            (0..self.config.ways)
                .min_by_key(|&w| {
                    if self.tags[base + w] == u64::MAX {
                        0
                    } else {
                        self.stamps[base + w] + 1
                    }
                })
                .expect("at least one way");
        let evicted = self.tags[base + victim];
        self.tags[base + victim] = line_addr;
        self.stamps[base + victim] = self.tick;
        (false, (evicted != u64::MAX).then_some(evicted))
    }

    /// Invalidate everything (between simulation phases).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// The SMX's view of the memory system: L1D + L1T over a shared L2 slice
/// over DRAM, with MSHR merging of in-flight lines.
#[derive(Debug)]
pub struct MemoryHierarchy {
    /// L1 data cache (ray buffers).
    pub l1d: Cache,
    /// L1 texture cache (BVH nodes and triangles).
    pub l1t: Cache,
    /// This SMX's slice of the L2.
    pub l2: Cache,
    line_bytes: u64,
    l1_latency: u32,
    l2_latency: u32,
    dram_latency: u32,
    /// MSHR capacity: distinct lines that may be in flight at once.
    mshr_entries: usize,
    /// In-flight fills: line address -> cycle the data arrives.
    inflight: HashMap<u64, u64>,
}

impl MemoryHierarchy {
    /// Build the hierarchy from the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> MemoryHierarchy {
        let line = cfg.line_bytes;
        let mk = |bytes| Cache::new(CacheConfig { bytes, line_bytes: line, ways: cfg.cache_ways });
        MemoryHierarchy {
            l1d: mk(cfg.l1d_bytes),
            l1t: mk(cfg.l1t_bytes),
            l2: mk(cfg.l2_bytes),
            line_bytes: line as u64,
            l1_latency: cfg.l1_latency,
            l2_latency: cfg.l2_latency,
            dram_latency: cfg.dram_latency,
            mshr_entries: cfg.mshr_entries.max(1),
            inflight: HashMap::new(),
        }
    }

    /// Align a byte address down to its cache line.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Access one line from `space` at cycle `now`; returns the cycle the
    /// requesting warp's data is ready.
    ///
    /// Spawn memory is on-chip scratch, not cached here (the DMK unit
    /// models its banking separately) — it completes at L1 speed.
    pub fn access(&mut self, space: MemSpace, addr: u64, now: u64) -> u64 {
        self.access_probed(space, addr, now).0
    }

    /// Like [`MemoryHierarchy::access`], but also reports whether the
    /// request had to queue for a free miss-status holding register —
    /// the signal the telemetry layer charges to its MSHR-full bucket.
    pub fn access_probed(&mut self, space: MemSpace, addr: u64, now: u64) -> (u64, bool) {
        let line = self.line_of(addr);
        match space {
            MemSpace::Spawn => (now + self.l1_latency as u64, false),
            MemSpace::Global | MemSpace::Texture => {
                let l1 = match space {
                    MemSpace::Global => &mut self.l1d,
                    _ => &mut self.l1t,
                };
                if l1.access(line) {
                    return (now + self.l1_latency as u64, false);
                }
                // L1 miss: check for an already-outstanding fill (MSHR merge).
                if let Some(&ready) = self.inflight.get(&line) {
                    if ready > now {
                        return (ready, false);
                    }
                    self.inflight.remove(&line);
                }
                // A new fill needs a free MSHR. Completed fills free theirs;
                // if every entry is still pending, the request queues behind
                // the earliest completion.
                if self.inflight.len() >= self.mshr_entries {
                    self.inflight.retain(|_, &mut r| r > now);
                }
                let mshr_queued = self.inflight.len() >= self.mshr_entries;
                let start = if mshr_queued {
                    let free_at = self.inflight.values().copied().min().unwrap_or(now);
                    self.inflight.retain(|_, &mut r| r > free_at);
                    free_at.max(now)
                } else {
                    now
                };
                let ready = if self.l2.access(line) {
                    start + self.l2_latency as u64
                } else {
                    start + self.dram_latency as u64
                };
                self.inflight.insert(line, ready);
                (ready, mshr_queued)
            }
        }
    }

    /// Fills still outstanding at cycle `now` (occupied MSHRs).
    pub fn outstanding_misses(&self, now: u64) -> usize {
        self.inflight.values().filter(|&&r| r > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { bytes: 1024, line_bytes: 128, ways: 2 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = small(); // 4 sets x 2 ways
        let sets = 4u64;
        let line = 128u64;
        // Three lines mapping to set 0: 0, sets*line, 2*sets*line.
        let (a, b, d) = (0, sets * line, 2 * sets * line);
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU now
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(!c.access(i * 128));
        }
        for i in 0..4u64 {
            assert!(c.access(i * 128));
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn hierarchy_latencies_order() {
        let cfg = GpuConfig::gtx780();
        let mut m = MemoryHierarchy::new(&cfg);
        // Cold: DRAM latency.
        let t0 = m.access(MemSpace::Texture, 0x1000_0000, 0);
        assert_eq!(t0, cfg.dram_latency as u64);
        // Warm L1: L1 latency.
        let t1 = m.access(MemSpace::Texture, 0x1000_0000, 100);
        assert_eq!(t1, 100 + cfg.l1_latency as u64);
        // Spawn space is scratch.
        let t2 = m.access(MemSpace::Spawn, 0x42, 7);
        assert_eq!(t2, 7 + cfg.l1_latency as u64);
    }

    #[test]
    fn mshr_merges_inflight_lines() {
        let cfg = GpuConfig::gtx780();
        let mut m = MemoryHierarchy::new(&cfg);
        let t0 = m.access(MemSpace::Texture, 0x2000_0000, 0);
        // A second miss to the same line while in flight completes at the
        // same cycle, not later.
        // Force an L1 conflict so the second access misses L1: access many
        // lines in the same L1 set. Simpler: same line, flush L1 only.
        m.l1t.flush();
        let t1 = m.access(MemSpace::Texture, 0x2000_0000, 1);
        assert_eq!(t1, t0, "second in-flight miss must merge");
    }

    #[test]
    fn l2_hit_faster_than_dram() {
        let cfg = GpuConfig::gtx780();
        let mut m = MemoryHierarchy::new(&cfg);
        m.access(MemSpace::Texture, 0x3000_0000, 0);
        m.l1t.flush();
        let t = m.access(MemSpace::Texture, 0x3000_0000, 10_000);
        assert_eq!(t, 10_000 + cfg.l2_latency as u64);
    }

    #[test]
    fn mshr_capacity_queues_extra_misses() {
        let cfg = GpuConfig { mshr_entries: 1, ..GpuConfig::gtx780() };
        let mut m = MemoryHierarchy::new(&cfg);
        let t0 = m.access(MemSpace::Texture, 0x5000_0000, 0);
        assert_eq!(m.outstanding_misses(1), 1);
        // A different line misses while the only MSHR is occupied: it must
        // wait for the first fill to complete before starting its own.
        let t1 = m.access(MemSpace::Texture, 0x6000_0000, 1);
        assert!(t1 >= t0 + cfg.dram_latency as u64, "got {t1} vs fill at {t0}");
        assert_eq!(m.outstanding_misses(t1), 0);
        // With ample MSHRs the same pattern overlaps.
        let mut wide = MemoryHierarchy::new(&GpuConfig::gtx780());
        let a = wide.access(MemSpace::Texture, 0x5000_0000, 0);
        let b = wide.access(MemSpace::Texture, 0x6000_0000, 1);
        assert_eq!(a, cfg.dram_latency as u64);
        assert_eq!(b, 1 + cfg.dram_latency as u64);
    }

    #[test]
    fn line_alignment() {
        let cfg = GpuConfig::gtx780();
        let m = MemoryHierarchy::new(&cfg);
        assert_eq!(m.line_of(0), 0);
        assert_eq!(m.line_of(127), 0);
        assert_eq!(m.line_of(128), 128);
        assert_eq!(m.line_of(300), 256);
    }
}

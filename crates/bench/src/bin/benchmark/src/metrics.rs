//! The metrics: their names and units (kept equal to `BENCHMARK.json` by a
//! test), and how each is computed from the timed and traced passes.

use crate::grid::{sim_cycles, GridRep};
use crate::layers::{SpecialCounters, TracedCell, TracedRep, Unit};
use crate::setup::Setup;
use drs_harness::CellResult;
use std::collections::BTreeMap;
use std::time::Duration;

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("grid_s", "s"), ("sim_mcycles_per_s", "Mcycles/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("scene.build_s", "s"),
    ("bvh.build_s", "s"),
    ("trace.capture_s", "s"),
    ("trace.rays", "count"),
    ("cache.save_s", "s"),
    ("cache.load_s", "s"),
    ("cache.bytes", "bytes"),
    ("engine.self_s", "s"),
    ("engine.ns_per_cycle", "ns"),
    ("engine.stepped_share", "ratio"),
    ("kernel.calls_per_cycle", "1/cycle"),
    ("engine.simd_efficiency", "ratio"),
    ("mem.l1d_hit_rate", "ratio"),
    ("mem.l1t_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("special.drs.tick_s", "s"),
    ("special.drs.ns_per_tick", "ns"),
    ("special.drs.issue_s", "s"),
    ("special.drs.issue_calls", "count"),
    ("special.drs.issue_stall_share", "ratio"),
    ("special.drs.veto_share", "ratio"),
    ("special.drs.quiescent_share", "ratio"),
    ("special.drs.avg_swap_cycles", "cycles"),
    ("special.dmk.tick_s", "s"),
    ("special.dmk.ns_per_tick", "ns"),
    ("special.dmk.issue_s", "s"),
    ("special.dmk.issue_calls", "count"),
    ("special.dmk.issue_stall_share", "ratio"),
    ("special.dmk.veto_share", "ratio"),
    ("special.dmk.quiescent_share", "ratio"),
    ("special.tbc.tick_s", "s"),
    ("special.tbc.ns_per_tick", "ns"),
    ("special.tbc.issue_s", "s"),
    ("special.tbc.issue_calls", "count"),
    ("special.tbc.issue_stall_share", "ratio"),
    ("special.tbc.veto_share", "ratio"),
    ("special.tbc.quiescent_share", "ratio"),
    ("chip.ns_per_sm_cycle", "ns"),
    ("chip.threads2_speedup", "ratio"),
    ("chip.l2_hit_rate", "ratio"),
    ("chip.dram_queue_cycles", "cycles"),
    ("chip.bank_conflict_cycles", "cycles"),
    ("chip.mshr_waits", "count"),
    ("pool.overhead_s", "s"),
    ("results.json_s", "s"),
    ("checkpoint.writes", "count"),
    ("store.warm_rerun_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// The item with the median `key` (the lower middle one of an even count),
/// so that values taken from it stay consistent with one another.
fn median_item<T>(items: &[T], key: impl Fn(&T) -> f64) -> &T {
    let mut order: Vec<&T> = items.iter().collect();
    order.sort_by(|a, b| key(a).total_cmp(&key(b)));
    order[(order.len() - 1) / 2]
}

/// The median of `key` over `items`.
fn median_of<T>(items: &[T], key: impl Fn(&T) -> f64) -> f64 {
    key(median_item(items, &key))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setups: &[Setup], reps: &[GridRep], peak_rss_mb: f64) -> Values {
    let cycles: u64 = reps[0].cells.iter().map(sim_cycles).sum();
    Values::from([
        ("setup_s", median_of(setups, |s| s.total.as_secs_f64())),
        ("grid_s", median_of(reps, |r| r.wall.as_secs_f64())),
        ("sim_mcycles_per_s", median_of(reps, |r| ratio(cycles as f64, r.cell_wall) / 1e6)),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// Measurements of a traced run that are not per-pass.
pub struct Extras {
    /// Warm `run_jobs` against a fully populated result store.
    pub warm_rerun: Duration,
    /// Chip workload: Σ cell wall at one and at two chip threads, and Σ
    /// simulated SM cycles.
    pub chip_threads: Option<(Duration, Duration, u64)>,
}

/// Engine, memory and special-unit metrics of one traced pass.
fn traced_values(rep: &TracedRep) -> Values {
    let cells = &rep.cells;
    let wall = rep.cell_wall().as_secs_f64();
    let special = cells.iter().map(TracedCell::special_time).sum::<Duration>().as_secs_f64();
    let cycles = cells.iter().map(|c| c.cycles).sum::<u64>() as f64;
    let engine = wall - special;
    let hit_rate = |f: fn(&drs_sim::SimStats) -> drs_sim::CacheStats| {
        let (hits, misses) =
            cells.iter().map(|c| f(&c.stats)).fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        ratio(hits as f64, (hits + misses) as f64)
    };
    let mut histogram = drs_sim::ActiveHistogram::default();
    for c in cells {
        histogram.merge(&c.stats.issued_all());
    }
    let mut v = Values::from([
        ("cache.load_s", rep.load.as_secs_f64()),
        ("engine.self_s", engine),
        ("engine.ns_per_cycle", ratio(engine * 1e9, cycles)),
        (
            "engine.stepped_share",
            ratio(cells.iter().map(|c| c.special.ticks).sum::<u64>() as f64, cycles),
        ),
        (
            "kernel.calls_per_cycle",
            ratio(cells.iter().map(|c| c.kernel_calls).sum::<u64>() as f64, cycles),
        ),
        ("engine.simd_efficiency", histogram.simd_efficiency()),
        ("mem.l1d_hit_rate", hit_rate(|s| s.l1d)),
        ("mem.l1t_hit_rate", hit_rate(|s| s.l1t)),
        ("mem.l2_hit_rate", hit_rate(|s| s.l2)),
    ]);
    for unit in Unit::TIMED {
        let of_unit = || cells.iter().filter(|c| c.unit == unit);
        let sum =
            |f: fn(&SpecialCounters) -> u64| of_unit().map(|c| f(&c.special)).sum::<u64>() as f64;
        let secs = |f: fn(&SpecialCounters) -> Duration| {
            of_unit().map(|c| f(&c.special)).sum::<Duration>().as_secs_f64()
        };
        let (tick, ticks, polls) = (secs(|s| s.tick), sum(|s| s.ticks), sum(|s| s.polls.get()));
        let issues = sum(|s| s.issues);
        let pairs = [
            ("tick_s", tick),
            ("ns_per_tick", ratio(tick * 1e9, ticks)),
            ("issue_s", secs(|s| s.issue)),
            ("issue_calls", issues),
            ("issue_stall_share", ratio(sum(|s| s.stalls), issues)),
            ("veto_share", ratio(sum(|s| s.vetoes.get()), polls)),
            ("quiescent_share", ratio(sum(|s| s.quiescent.get()), polls)),
        ];
        for (suffix, value) in pairs {
            v.insert(declared(&format!("special.{}.{suffix}", unit.name())), value);
        }
    }
    let drs = cells.iter().filter(|c| c.unit == Unit::Drs);
    let (swap_cycles, swaps) = drs.fold((0, 0), |(c, n), cell| {
        (c + cell.stats.swap_cycle_sum, n + cell.stats.swaps_completed)
    });
    v.insert("special.drs.avg_swap_cycles", ratio(swap_cycles as f64, swaps as f64));
    v
}

/// The `&'static` declared name equal to `name`.
fn declared(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(n, _)| *n).expect("metric is declared")
}

/// The traced pass the per-layer metrics come from: the median by Σ cell
/// wall, so its engine and special-unit times still add up to its wall.
pub fn median_pass(traced: &[TracedRep]) -> &TracedRep {
    median_item(traced, |t| t.cell_wall().as_secs_f64())
}

/// The per-layer metrics of a traced run: capture and cache from the median
/// set-up, engine and special units from the median traced pass, harness
/// from the median untraced pass.
pub fn per_layer(
    setups: &[Setup],
    reps: &[GridRep],
    traced: &[TracedRep],
    extras: &Extras,
) -> Values {
    let mut v = traced_values(median_pass(traced));

    let setup = median_item(setups, |s| s.total.as_secs_f64());
    v.insert("scene.build_s", setup.scene.as_secs_f64());
    v.insert("bvh.build_s", setup.bvh.as_secs_f64());
    v.insert("trace.capture_s", setup.capture.as_secs_f64());
    v.insert("cache.save_s", setup.save.as_secs_f64());
    v.insert("trace.rays", setup.rays as f64);
    v.insert("cache.bytes", setup.bytes as f64);

    let cells: &[CellResult] = &reps[0].cells;
    let chip = |f: fn(&drs_harness::ChipSummary) -> u64| {
        cells.iter().filter_map(|c| c.chip.as_ref()).map(f).sum::<u64>() as f64
    };
    let (l2_hits, l2_misses) = (chip(|c| c.l2_hits), chip(|c| c.l2_misses));
    v.insert("chip.l2_hit_rate", ratio(l2_hits, l2_hits + l2_misses));
    v.insert("chip.dram_queue_cycles", chip(|c| c.dram_queue_cycles));
    v.insert("chip.bank_conflict_cycles", chip(|c| c.bank_conflict_cycles));
    v.insert("chip.mshr_waits", chip(|c| c.mshr_waits));
    let (one, two, sm_cycles) = extras.chip_threads.unwrap_or_default();
    v.insert("chip.ns_per_sm_cycle", ratio(one.as_secs_f64() * 1e9, sm_cycles as f64));
    v.insert("chip.threads2_speedup", ratio(one.as_secs_f64(), two.as_secs_f64()));

    let rep = median_item(reps, |r| r.wall.as_secs_f64());
    let (grid, json) = (rep.wall.as_secs_f64(), rep.json.as_secs_f64());
    v.insert("results.json_s", json);
    // `run_jobs` outside its cells: capture-cache loads, checkpoint
    // rewrites, store writes and scheduling, all from this one pass.
    v.insert("pool.overhead_s", grid - rep.cell_wall - json);
    v.insert("checkpoint.writes", rep.checkpoint_writes as f64);
    v.insert("store.warm_rerun_s", extras.warm_rerun.as_secs_f64());
    v.insert("trace.overhead_share", median_pass(traced).wall.as_secs_f64() / grid - 1.0);
    v
}

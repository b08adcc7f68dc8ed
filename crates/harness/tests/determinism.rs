//! The harness's two contractual guarantees, proven end to end:
//!
//! 1. **Determinism**: a job grid run serially and with 4 workers yields
//!    bit-identical per-cell `SimStats`.
//! 2. **Caching**: a warm-cache rerun skips all capture work (hit counter
//!    equals the distinct workload count) and still yields identical
//!    results; the emitted JSON is well-formed and carries Mrays/s and
//!    SIMD efficiency for every cell.

use drs_harness::{
    figures, pool, CaptureMode, ChipConfig, ResultsFile, RunOptions, Scale, StreamCache,
};
use drs_scene::SceneKind;

/// Reduced scale so the grid stays fast in debug CI runs.
fn tiny_scale() -> Scale {
    Scale { rays: 260, tris_scale: 0.008, warps_scale: 0.15 }
}

/// A reduced fig10 grid: two scenes, bounces ≤ 2 — still covering all
/// four methods (Aila / DMK / TBC / DRS).
fn reduced_fig10(scale: &Scale) -> drs_harness::JobSet {
    let mut set = figures::fig10(scale);
    set.jobs.retain(|j| {
        j.bounce <= 2 && matches!(j.workload.scene, SceneKind::Conference | SceneKind::FairyForest)
    });
    assert_eq!(set.jobs.len(), 2 * 4 * 2, "two scenes x four methods x two bounces");
    set
}

#[test]
fn serial_and_parallel_runs_are_bit_identical() {
    let scale = tiny_scale();
    let set = reduced_fig10(&scale);

    let serial = pool::run_jobs(&set.jobs, &RunOptions::serial());
    let parallel = pool::run_jobs(&set.jobs, &RunOptions::parallel(4));

    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(s.job.id(), p.job.id(), "cell order must not depend on worker count");
        assert_eq!(s.empty, p.empty);
        assert_eq!(s.completed, p.completed);
        assert_eq!(
            s.stats,
            p.stats,
            "per-cell SimStats diverged for {} bounce {} on {}",
            s.job.method.label(),
            s.job.bounce,
            s.job.workload.scene
        );
    }
    // The grid actually simulated something.
    assert!(serial.cells.iter().any(|c| !c.empty && c.stats.rays_completed > 0));
}

#[test]
fn chip_cells_are_bit_identical_across_worker_and_chip_thread_counts() {
    let scale = tiny_scale();
    let mut set = reduced_fig10(&scale);
    set.jobs.retain(|j| j.workload.scene == SceneKind::Conference);
    set.jobs.truncate(4);
    let set = set.with_chip(ChipConfig::gtx780(2));
    assert!(set.jobs.iter().all(|j| j.chip.is_some()));

    let base = pool::run_jobs(&set.jobs, &RunOptions::serial());
    // Both parallelism axes at once: cells across pool workers AND SMs
    // across threads inside each chip cell.
    let threaded = pool::run_jobs(
        &set.jobs,
        &RunOptions { workers: 4, chip_threads: 4, ..RunOptions::serial() },
    );
    let rerun = pool::run_jobs(&set.jobs, &RunOptions { chip_threads: 3, ..RunOptions::serial() });

    assert!(base.all_clean(), "chip grid must complete");
    for other in [&threaded, &rerun] {
        assert_eq!(base.cells.len(), other.cells.len());
        for (b, o) in base.cells.iter().zip(other.cells.iter()) {
            assert_eq!(b.stats, o.stats, "chip SimStats diverged across thread counts");
            assert_eq!(b.chip, o.chip, "chip summary diverged across thread counts");
        }
    }
    for cell in base.cells.iter().filter(|c| !c.empty) {
        let chip = cell.chip.as_ref().expect("chip cells carry a summary");
        assert_eq!(chip.sms, 2);
        assert_eq!(chip.per_sm_cycles.len(), 2);
        assert_eq!(
            chip.per_sm_rays.iter().sum::<u64>(),
            cell.stats.rays_completed,
            "aggregate rays must equal the per-SM sum"
        );
        assert_eq!(
            cell.stats.cycles,
            *chip.per_sm_cycles.iter().max().unwrap(),
            "chip cycles are the slowest SM's cycles"
        );
        assert!(chip.requests > 0, "a real workload must reach the shared memory system");
    }
    assert!(base.cells.iter().any(|c| !c.empty && c.stats.rays_completed > 0));
}

#[test]
fn warm_cache_rerun_is_identical_and_skips_capture() {
    let scale = tiny_scale();
    let set = reduced_fig10(&scale);
    let distinct = set.distinct_workloads().len();
    assert_eq!(distinct, 2);

    let dir = std::env::temp_dir().join(format!("drs-harness-cachetest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold pass: every workload is a miss.
    let cold_opts = RunOptions {
        workers: 4,
        capture: CaptureMode::Cached(StreamCache::new(&dir)),
        ..RunOptions::serial()
    };
    let cold = pool::run_jobs(&set.jobs, &cold_opts);
    assert_eq!(cold.cache.misses as usize, distinct);
    assert_eq!(cold.cache.hits, 0);

    // Warm pass: all capture work is skipped.
    let warm_opts = RunOptions {
        workers: 4,
        capture: CaptureMode::Cached(StreamCache::new(&dir)),
        ..RunOptions::serial()
    };
    let warm = pool::run_jobs(&set.jobs, &warm_opts);
    assert_eq!(
        warm.cache.hits as usize, distinct,
        "cache-hit counter must equal the distinct workload count"
    );
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(warm.cache.quarantined, 0);

    for (c, w) in cold.cells.iter().zip(warm.cells.iter()) {
        assert_eq!(c.stats, w.stats, "cached capture changed the simulation result");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_json_is_well_formed_with_required_metrics() {
    let scale = tiny_scale();
    let mut set = reduced_fig10(&scale);
    set.jobs.truncate(4);
    let report = pool::run_jobs(&set.jobs, &RunOptions::parallel(2));
    let n_cells = report.cells.len();
    let figures_of = vec![vec!["fig10".to_string()]; n_cells];
    let file = ResultsFile::from_report("fig10", 2, report, figures_of);
    let json = file.to_json();

    let value = json_parse(&json).unwrap_or_else(|e| panic!("invalid JSON at byte {e}: {json}"));
    let Json::Obj(obj) = value else { panic!("top level must be an object") };
    let cells = match obj.iter().find(|(k, _)| k == "cells") {
        Some((_, Json::Arr(cells))) => cells,
        other => panic!("missing cells array: {other:?}"),
    };
    assert_eq!(cells.len(), n_cells);
    for cell in cells {
        let Json::Obj(fields) = cell else { panic!("cell must be an object") };
        for required in ["mrays_per_sec", "simd_efficiency", "scene", "bounce", "method", "stats"] {
            assert!(
                fields.iter().any(|(k, _)| k == required),
                "cell missing required field {required}"
            );
        }
    }
}

// --- A deliberately tiny recursive-descent JSON parser: enough to prove
// --- well-formedness without pulling in a serialization dependency.

#[derive(Debug)]
#[allow(dead_code)] // payloads exist to prove they parse; tests read a subset
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn json_parse(s: &str) -> Result<Json, usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let v = parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(i);
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), usize> {
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(*i)
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, usize> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut entries = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(b, i);
                let Json::Str(key) = parse_value(b, i)? else {
                    return Err(*i);
                };
                skip_ws(b, i);
                expect(b, i, b':')?;
                entries.push((key, parse_value(b, i)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(*i),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(*i),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut out = String::new();
            loop {
                match b.get(*i) {
                    Some(b'"') => {
                        *i += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *i += 1;
                        match b.get(*i) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = s_slice(b, *i + 1, *i + 5).ok_or(*i)?;
                                let code = u32::from_str_radix(hex, 16).map_err(|_| *i)?;
                                out.push(char::from_u32(code).ok_or(*i)?);
                                *i += 4;
                            }
                            _ => return Err(*i),
                        }
                        *i += 1;
                    }
                    Some(&c) => {
                        if c < 0x20 {
                            return Err(*i);
                        }
                        // Walk over a full UTF-8 sequence.
                        let start = *i;
                        *i += 1;
                        while *i < b.len() && (b[*i] & 0xC0) == 0x80 {
                            *i += 1;
                        }
                        out.push_str(std::str::from_utf8(&b[start..*i]).map_err(|_| start)?);
                    }
                    None => return Err(*i),
                }
            }
        }
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            }
            let text = std::str::from_utf8(&b[start..*i]).map_err(|_| start)?;
            text.parse::<f64>().map(Json::Num).map_err(|_| start)
        }
        None => Err(*i),
    }
}

fn s_slice(b: &[u8], from: usize, to: usize) -> Option<&str> {
    b.get(from..to).and_then(|s| std::str::from_utf8(s).ok())
}

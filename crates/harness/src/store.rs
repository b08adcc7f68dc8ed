//! Durable, content-addressed result store: finished cells survive the
//! process.
//!
//! Every clean finished cell is memoized on disk keyed by its [`JobId`]
//! (itself a content hash over the job definition) plus the shared
//! [`SCHEMA_VERSION`], so a warm rerun of any grid — same scale, same
//! methods, same seeds — does zero simulation work and reproduces the
//! results document byte-for-byte. The same mechanism serves two scopes:
//! the long-lived `--store` directory shared across runs, and the
//! run-scoped directory behind `--resume`
//! ([`RunOptions::checkpoint`](crate::RunOptions)), which the pool removes
//! once its run comes out clean.
//!
//! # Entry layout
//!
//! The store is a codec over the harness's entry store (atomic writes
//! under a per-entry lock, quarantine of rejected entries). One file per
//! cell at `<dir>/<id>.json`, exactly two lines:
//!
//! ```text
//! {"schema_version":4,"suite":"drs-store","cell":{...}}
//! #drs-store len=<body bytes> fnv=<16-hex FNV-1a of body>
//! ```
//!
//! The footer makes truncation (length mismatch) and bit rot (checksum
//! mismatch) detectable without trusting the JSON parser to notice. A
//! corrupt, truncated, schema-mismatched or misfiled entry is moved into
//! `<dir>/quarantine/` and the cell is recomputed; it is never served. A
//! store that cannot be written degrades the run to "results complete in
//! memory, durability lost" — it never fails the run.

use crate::entry::{data_dir, Entries, EntryCounters, EntryError};
use crate::job::{fnv1a64, JobId, SimJob};
use crate::results::{CellResult, ChipSummary};
use crate::SCHEMA_VERSION;
use drs_sim::{ActiveHistogram, CacheStats, JsonBuf, SimStats};
use drs_telemetry::check::{self, Value};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// One clean finished cell as persisted in a store entry: everything needed
/// to reconstruct its [`CellResult`] except the job itself (jobs are
/// re-derived from the deterministic figure enumeration and matched by
/// content id). Only clean cells are ever stored — failed ones must be
/// re-attempted — so `completed` is implied and no failure is carried.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCell {
    /// No surviving rays at this bounce.
    pub empty: bool,
    /// Attempts the pool made.
    pub attempts: u32,
    /// Wall-clock of the original attempt (replayed so a warm results file
    /// stays byte-identical; excluded from stats dumps).
    pub wall_ms: f64,
    /// Full counter set.
    pub stats: SimStats,
    /// Shared-memory-system summary, for full-chip cells.
    pub chip: Option<ChipSummary>,
}

impl StoredCell {
    /// The persistable part of a finished cell, or `None` when the cell
    /// failed or is incomplete (telemetry reports are re-collected, never
    /// persisted).
    pub fn from_cell(cell: &CellResult) -> Option<StoredCell> {
        (cell.completed && cell.failure.is_none()).then(|| StoredCell {
            empty: cell.empty,
            attempts: cell.attempts,
            wall_ms: cell.wall_ms,
            stats: cell.stats.clone(),
            chip: cell.chip.clone(),
        })
    }

    /// Reconstruct the [`CellResult`] this entry persisted, given the job
    /// it was matched to.
    pub fn to_cell(&self, job: SimJob) -> CellResult {
        CellResult {
            empty: self.empty,
            completed: true,
            stats: self.stats.clone(),
            chip: self.chip.clone(),
            attempts: self.attempts,
            wall_ms: self.wall_ms,
            ..CellResult::blank(job)
        }
    }

    /// Append this cell (with its job `id`) as a JSON object.
    fn write_json(&self, j: &mut JsonBuf, id: JobId) {
        j.begin_obj();
        j.kv_str("id", &id.to_string());
        j.kv_bool("empty", self.empty);
        j.kv_bool("completed", true);
        j.kv_u64("attempts", self.attempts as u64);
        j.kv_f64("wall_ms", self.wall_ms);
        j.key("stats");
        self.stats.write_json(j);
        if let Some(chip) = &self.chip {
            j.key("chip");
            chip.write_json(j);
        }
        j.end_obj();
    }

    /// Invert [`StoredCell::write_json`]: parse one cell object back into
    /// its id and contents. Any malformed or out-of-range field, or a
    /// cell that does not claim completion, yields `None`.
    fn parse(cell: &Value) -> Option<(JobId, StoredCell)> {
        let id = JobId(u64::from_str_radix(cell.get("id")?.as_str()?, 16).ok()?);
        if !get_bool(cell, "completed")? {
            return None;
        }
        Some((
            id,
            StoredCell {
                empty: get_bool(cell, "empty")?,
                attempts: get_u64(cell, "attempts")? as u32,
                wall_ms: cell.get("wall_ms")?.as_num()?,
                stats: parse_stats(cell.get("stats")?)?,
                chip: match cell.get("chip") {
                    Some(c) => Some(parse_chip(c)?),
                    None => None,
                },
            },
        ))
    }
}

/// A content-addressed on-disk store of finished cells. Cheap to create;
/// all state lives on disk plus a few counters. Safe to share across
/// threads and processes.
#[derive(Debug)]
pub struct ResultStore {
    entries: Entries,
}

impl ResultStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> ResultStore {
        ResultStore { entries: Entries::new(dir.into(), "json", None) }
    }

    /// The conventional store location: `drs-store/` under
    /// `$DRS_DATA_DIR` (default `target`), beside the capture cache.
    pub fn default_dir() -> PathBuf {
        data_dir().join("drs-store")
    }

    /// Store root.
    pub fn dir(&self) -> &Path {
        self.entries.dir()
    }

    /// Counter snapshot for the run document.
    pub fn counters(&self) -> EntryCounters {
        self.entries.counters()
    }

    /// Serialize an entry: single-line JSON body + checksum footer.
    fn encode(id: JobId, cell: &StoredCell) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_u64("schema_version", SCHEMA_VERSION as u64);
        j.kv_str("suite", "drs-store");
        j.key("cell");
        cell.write_json(&mut j, id);
        j.end_obj();
        let body = j.finish();
        let sum = fnv1a64(body.as_bytes());
        format!("{body}\n#drs-store len={} fnv={sum:016x}\n", body.len())
    }

    /// Validate and parse raw entry bytes back into the cell; the error
    /// says why the entry is rejected.
    fn decode(bytes: &[u8], id: JobId) -> Result<StoredCell, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "not UTF-8")?;
        let (body, footer) = text.split_once('\n').ok_or("missing checksum footer (truncated?)")?;
        let (len_s, fnv_s) = footer
            .trim_end_matches('\n')
            .strip_prefix("#drs-store len=")
            .and_then(|rest| rest.split_once(" fnv="))
            .ok_or("malformed footer")?;
        let len: usize = len_s.parse().map_err(|_| "malformed footer length")?;
        let sum = u64::from_str_radix(fnv_s, 16).map_err(|_| "malformed footer checksum")?;
        if body.len() != len {
            return Err(format!("length {} != footer {len} (truncated?)", body.len()));
        }
        if fnv1a64(body.as_bytes()) != sum {
            return Err("checksum mismatch".into());
        }
        let doc = check::parse(body).map_err(|e| format!("unparseable JSON: {e}"))?;
        let version =
            doc.get("schema_version").and_then(Value::as_num).ok_or("missing schema_version")?;
        if version != f64::from(SCHEMA_VERSION) {
            return Err(format!("schema v{version}, expected v{SCHEMA_VERSION}"));
        }
        if doc.get("suite").and_then(Value::as_str) != Some("drs-store") {
            return Err("wrong suite".into());
        }
        let (entry_id, cell) =
            doc.get("cell").and_then(StoredCell::parse).ok_or("missing or unparseable cell")?;
        if entry_id != id {
            return Err(format!("id {entry_id} does not match requested {id}"));
        }
        Ok(cell)
    }

    /// The pool-facing read: a clean cell if the store has one, `None`
    /// otherwise. Never fails and never panics — corrupt, truncated, or
    /// version-mismatched entries are quarantined (moved to
    /// `quarantine/`, counted, warned) and reported as a miss so the
    /// cell is recomputed.
    pub fn lookup(&self, id: JobId) -> Option<StoredCell> {
        self.entries.read(&id.to_string(), |mut r| {
            let mut bytes = Vec::new();
            r.read_to_end(&mut bytes).map_err(|e| e.to_string())?;
            Self::decode(&bytes, id)
        })
    }

    /// Persist a clean finished cell ([`StoredCell::from_cell`] admits no
    /// other kind: failed cells must be re-attempted next run).
    ///
    /// # Errors
    ///
    /// I/O failures and lock timeouts are returned (and counted as
    /// `write_failures`); callers treat them as "durability lost", never
    /// as a failed cell.
    pub fn store(&self, id: JobId, cell: &StoredCell) -> Result<(), EntryError> {
        self.entries.write(&id.to_string(), |w| w.write_all(Self::encode(id, cell).as_bytes()))
    }

    /// Chaos hook: flip one bit of the on-disk entry for `id`, if it
    /// exists. Used by the [`FaultKind::StoreCorrupt`](crate::FaultKind)
    /// injection and the golden tests to prove the quarantine path
    /// end-to-end; returns whether an entry was actually damaged.
    pub fn scramble(&self, id: JobId) -> bool {
        self.entries.scramble(&id.to_string())
    }
}

/// A u64 read back through JSON's number type. Counters are exact while
/// `< 2^53`; anything larger means the entry is not one of ours — reject
/// it so a lookup never serves a silently-rounded counter.
fn num_to_u64(n: f64) -> Option<u64> {
    if n.fract() == 0.0 && (0.0..9007199254740992.0).contains(&n) {
        Some(n as u64)
    } else {
        None
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    num_to_u64(v.get(key)?.as_num()?)
}

fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn parse_histogram(v: &Value) -> Option<ActiveHistogram> {
    let raw = v.get("buckets")?.as_arr()?;
    if raw.len() != 4 {
        return None;
    }
    let mut buckets = [0u64; 4];
    for (slot, item) in buckets.iter_mut().zip(raw) {
        *slot = num_to_u64(item.as_num()?)?;
    }
    Some(ActiveHistogram {
        buckets,
        total: get_u64(v, "total")?,
        active_sum: get_u64(v, "active_sum")?,
    })
}

fn parse_cache(v: &Value) -> Option<CacheStats> {
    Some(CacheStats { hits: get_u64(v, "hits")?, misses: get_u64(v, "misses")? })
}

/// Invert [`SimStats::write_json`]: field for field, so a stored cell
/// round-trips bit-identically (all counters are integers `< 2^53`).
fn parse_stats(v: &Value) -> Option<SimStats> {
    let mut block_profile = Vec::new();
    for entry in v.get("block_profile")?.as_arr()? {
        block_profile.push((
            entry.get("block")?.as_str()?.to_string(),
            get_u64(entry, "issues")?,
            get_u64(entry, "active_sum")?,
        ));
    }
    Some(SimStats {
        cycles: get_u64(v, "cycles")?,
        rays_completed: get_u64(v, "rays_completed")?,
        issued: parse_histogram(v.get("issued")?)?,
        issued_si: parse_histogram(v.get("issued_si")?)?,
        loads: get_u64(v, "loads")?,
        stores: get_u64(v, "stores")?,
        mem_transactions: get_u64(v, "mem_transactions")?,
        rdctrl_stalls: get_u64(v, "rdctrl_stalls")?,
        rdctrl_issued: get_u64(v, "rdctrl_issued")?,
        regfile_reads: get_u64(v, "regfile_reads")?,
        regfile_writes: get_u64(v, "regfile_writes")?,
        bank_conflicts: get_u64(v, "bank_conflicts")?,
        swap_accesses: get_u64(v, "swap_accesses")?,
        swaps_completed: get_u64(v, "swaps_completed")?,
        swap_cycle_sum: get_u64(v, "swap_cycle_sum")?,
        spawn_bank_conflict_cycles: get_u64(v, "spawn_bank_conflict_cycles")?,
        sync_wait_cycles: get_u64(v, "sync_wait_cycles")?,
        l1t: parse_cache(v.get("l1t")?)?,
        l1d: parse_cache(v.get("l1d")?)?,
        l2: parse_cache(v.get("l2")?)?,
        block_profile,
    })
}

fn parse_u64_arr(v: &Value) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(|item| num_to_u64(item.as_num()?)).collect()
}

/// Invert [`ChipSummary::write_json`], field for field.
fn parse_chip(v: &Value) -> Option<ChipSummary> {
    Some(ChipSummary {
        sms: get_u64(v, "sms")? as usize,
        l2_hits: get_u64(v, "l2_hits")?,
        l2_misses: get_u64(v, "l2_misses")?,
        l2_evictions: get_u64(v, "l2_evictions")?,
        requests: get_u64(v, "requests")?,
        dram_lines: get_u64(v, "dram_lines")?,
        dram_busy_q: get_u64(v, "dram_busy_q")?,
        dram_queue_cycles: get_u64(v, "dram_queue_cycles")?,
        bank_conflict_cycles: get_u64(v, "bank_conflict_cycles")?,
        mshr_merges: get_u64(v, "mshr_merges")?,
        mshr_waits: get_u64(v, "mshr_waits")?,
        per_sm_cycles: parse_u64_arr(v.get("per_sm_cycles")?)?,
        per_sm_rays: parse_u64_arr(v.get("per_sm_rays")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("drs-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cell(cycles: u64) -> StoredCell {
        StoredCell {
            empty: false,
            attempts: 1,
            wall_ms: 2.5,
            stats: SimStats { cycles, rays_completed: cycles / 2, ..Default::default() },
            chip: None,
        }
    }

    /// A chip cell with every counter distinct, so a field swap or a
    /// dropped field changes the encoded bytes.
    fn chip_cell() -> StoredCell {
        StoredCell {
            empty: false,
            attempts: 2,
            wall_ms: 4.5,
            stats: SimStats {
                cycles: 12345,
                rays_completed: 678,
                issued: ActiveHistogram { buckets: [1, 2, 3, 4], total: 10, active_sum: 200 },
                issued_si: ActiveHistogram { buckets: [0, 0, 1, 0], total: 1, active_sum: 20 },
                loads: 9,
                stores: 8,
                mem_transactions: 7,
                rdctrl_stalls: 6,
                rdctrl_issued: 5,
                regfile_reads: 4,
                regfile_writes: 3,
                bank_conflicts: 2,
                swap_accesses: 1,
                swaps_completed: 11,
                swap_cycle_sum: 22,
                spawn_bank_conflict_cycles: 33,
                sync_wait_cycles: 44,
                l1t: CacheStats { hits: 100, misses: 10 },
                l1d: CacheStats { hits: 200, misses: 20 },
                l2: CacheStats { hits: 300, misses: 30 },
                block_profile: vec![("outer".into(), 5, 80), ("inner".into(), 7, 160)],
            },
            chip: Some(ChipSummary {
                sms: 3,
                l2_hits: 510,
                l2_misses: 170,
                l2_evictions: 25,
                requests: 700,
                dram_lines: 160,
                dram_busy_q: 160 * 2048,
                dram_queue_cycles: 42,
                bank_conflict_cycles: 13,
                mshr_merges: 20,
                mshr_waits: 4,
                per_sm_cycles: vec![4000, 4100, 3990],
                per_sm_rays: vec![226, 226, 226],
            }),
        }
    }

    #[test]
    fn entry_bytes_are_pinned() {
        // Stores written by earlier builds must stay readable without a
        // schema bump: any change to these bytes is a format change.
        let want = concat!(
            r#"{"schema_version":4,"suite":"drs-store","cell":{"id":"0000000000001234","#,
            r#""empty":false,"completed":true,"attempts":2,"wall_ms":4.5,"stats":{"#,
            r#""cycles":12345,"rays_completed":678,"issued":{"buckets":[1,2,3,4],"total":10,"#,
            r#""active_sum":200,"simd_efficiency":0.625},"issued_si":{"buckets":[0,0,1,0],"#,
            r#""total":1,"active_sum":20,"simd_efficiency":0.625},"loads":9,"stores":8,"#,
            r#""mem_transactions":7,"rdctrl_stalls":6,"rdctrl_issued":5,"regfile_reads":4,"#,
            r#""regfile_writes":3,"bank_conflicts":2,"swap_accesses":1,"swaps_completed":11,"#,
            r#""swap_cycle_sum":22,"spawn_bank_conflict_cycles":33,"sync_wait_cycles":44,"#,
            r#""l1t":{"hits":100,"misses":10,"hit_rate":0.9090909090909091},"#,
            r#""l1d":{"hits":200,"misses":20,"hit_rate":0.9090909090909091},"#,
            r#""l2":{"hits":300,"misses":30,"hit_rate":0.9090909090909091},"#,
            r#""block_profile":[{"block":"outer","issues":5,"active_sum":80},"#,
            r#"{"block":"inner","issues":7,"active_sum":160}]},"#,
            r#""chip":{"sms":3,"l2_hits":510,"l2_misses":170,"l2_evictions":25,"#,
            r#""requests":700,"dram_lines":160,"dram_busy_q":327680,"dram_queue_cycles":42,"#,
            r#""bank_conflict_cycles":13,"mshr_merges":20,"mshr_waits":4,"#,
            r#""per_sm_cycles":[4000,4100,3990],"per_sm_rays":[226,226,226]}}}"#,
            "\n#drs-store len=1142 fnv=93bfa2cc93b7a4ab\n",
        );
        assert_eq!(ResultStore::encode(JobId(0x1234), &chip_cell()), want);
    }

    #[test]
    fn out_of_range_counters_reject_the_entry() {
        // 2^53 + 1 is not exactly representable; an entry claiming such a
        // counter is not one we wrote.
        assert_eq!(num_to_u64(9007199254740992.0), None);
        assert_eq!(num_to_u64(9007199254740991.0), Some(9007199254740991));
        assert_eq!(num_to_u64(1.5), None);
        assert_eq!(num_to_u64(-1.0), None);
    }

    #[test]
    fn round_trip_is_exact_and_counted() {
        let store = ResultStore::new(dir("roundtrip"));
        let id = JobId(0xabcd);
        assert!(store.lookup(id).is_none(), "cold store misses");
        store.store(id, &chip_cell()).unwrap();
        assert_eq!(store.lookup(id), Some(chip_cell()));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.writes, c.quarantined), (1, 1, 1, 0));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recomputable() {
        let store = ResultStore::new(dir("corrupt"));
        let id = JobId(1);
        store.store(id, &cell(7)).unwrap();
        assert!(store.scramble(id), "entry exists to damage");
        assert!(store.lookup(id).is_none(), "damaged entry must not be served");
        assert_eq!(store.counters().quarantined, 1);
        // The slot is reusable: store + read back works again.
        store.store(id, &cell(7)).unwrap();
        assert_eq!(store.lookup(id), Some(cell(7)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncation_and_bit_rot_are_detected_by_the_footer() {
        let id = JobId(2);
        let text = ResultStore::encode(id, &cell(9));
        assert_eq!(ResultStore::decode(text.as_bytes(), id), Ok(cell(9)));
        // Drop bytes from the middle of the body, keeping the footer: the
        // length check fires even when the JSON stays parseable.
        let cut = text.replace("\"empty\":false,", "");
        let err = ResultStore::decode(cut.as_bytes(), id).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Same length, one digit changed: only the checksum can tell.
        let rot = text.replace("\"cycles\":9,", "\"cycles\":8,");
        assert_eq!(ResultStore::decode(rot.as_bytes(), id).unwrap_err(), "checksum mismatch");
        let half = &text.as_bytes()[..text.len() / 2];
        assert!(ResultStore::decode(half, id).unwrap_err().contains("footer"));
        // An entry filed under another id is not served either.
        assert!(ResultStore::decode(text.as_bytes(), JobId(3)).unwrap_err().contains("match"));
    }

    #[test]
    fn schema_mismatch_is_rejected_and_quarantined() {
        let store = ResultStore::new(dir("schema"));
        let id = JobId(3);
        let text = ResultStore::encode(id, &cell(11));
        let (body, _) = text.split_once('\n').unwrap();
        let old =
            body.replace(&format!("\"schema_version\":{SCHEMA_VERSION}"), "\"schema_version\":1");
        // Re-checksum so only the version differs — a valid v1 entry.
        let sum = fnv1a64(old.as_bytes());
        let entry = format!("{old}\n#drs-store len={} fnv={sum:016x}\n", old.len());
        let err = ResultStore::decode(entry.as_bytes(), id).unwrap_err();
        assert!(err.contains("schema v1"), "{err}");
        std::fs::create_dir_all(store.dir()).unwrap();
        std::fs::write(store.dir().join(format!("{id}.json")), entry).unwrap();
        assert!(store.lookup(id).is_none(), "old-schema entries are never served");
        assert_eq!(store.counters().quarantined, 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

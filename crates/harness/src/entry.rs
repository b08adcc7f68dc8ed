//! Content-addressed on-disk entries: the one primitive under the
//! capture cache ([`StreamCache`](crate::StreamCache)) and the result
//! store ([`ResultStore`](crate::ResultStore)). Both are codecs over it;
//! everything about an entry's life on disk lives here.
//!
//! # Layout
//!
//! ```text
//! <dir>/<key>.<ext>                    the entry
//! <dir>/<key>.lock                     writer lock (create_new + pid), stale after 10 s
//! <dir>/<key>.tmp.<pid>.<seq>          a writer's temp file, renamed over the entry
//! <dir>/quarantine/<key>.<pid>.<ext>   entries a codec rejected, kept for postmortem
//! ```
//!
//! Writes create the directory, take the per-entry lock (reclaiming one
//! abandoned by a crashed writer after [`STALE_LOCK_MS`]), encode into a
//! temp file unique to the writer and rename it over the entry, so a
//! reader never observes a half-written entry. Reads hand the codec a
//! buffered reader: a missing file is a miss, and any codec error moves
//! the file into `quarantine/`, counts it and is a miss too — a bad entry
//! is never served and never fails a run. An optional byte budget turns
//! the directory into an LRU: hits refresh an entry's mtime, and a write
//! that pushes the directory over the budget deletes the least recently
//! used entries (never the one just written). Quarantined files are not
//! counted against the budget.

use drs_sim::JsonBuf;
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Age (milliseconds) past which another writer's lock file is presumed
/// abandoned (crashed writer) and reclaimed. Store entries take well
/// under a millisecond to write and the largest capture a fraction of a
/// second, so ten seconds is far past any live writer.
pub(crate) const STALE_LOCK_MS: u64 = 10_000;

/// Total time a writer waits for a contended lock before giving up with
/// an [`io::ErrorKind::TimedOut`] error (the value stays in memory; only
/// durability is lost).
const LOCK_WAIT_MS: u64 = 2_000;

/// Poll interval while waiting on a contended lock.
const LOCK_POLL_MS: u64 = 10;

/// Process-wide sequence making every writer's temp file name unique,
/// threads of one process included.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The root of the harness's on-disk data: `$DRS_DATA_DIR`, or `target`
/// (relative to the working directory) when it is unset or empty. The
/// capture cache lives in `drs-cache/` under it, the result store in
/// `drs-store/`.
pub(crate) fn data_dir() -> PathBuf {
    root_from(std::env::var_os("DRS_DATA_DIR"))
}

fn root_from(var: Option<OsString>) -> PathBuf {
    var.filter(|v| !v.is_empty()).map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Activity of one entry directory, snapshotted into the run document.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EntryCounters {
    /// Reads served from disk.
    pub hits: u64,
    /// Reads with no usable entry (quarantined entries included).
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries a codec rejected (corrupt, truncated, stale), moved to
    /// `quarantine/`.
    pub quarantined: u64,
    /// Writes that failed (I/O error or lock timeout); the value stayed
    /// in memory, only durability was lost.
    pub write_failures: u64,
    /// Abandoned writer locks reclaimed.
    pub lock_reclaims: u64,
    /// Readable entries deleted to keep the directory under its byte
    /// budget.
    pub size_evictions: u64,
}

impl EntryCounters {
    /// Append the counters as one JSON object.
    pub(crate) fn write_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.kv_u64("hits", self.hits);
        j.kv_u64("misses", self.misses);
        j.kv_u64("writes", self.writes);
        j.kv_u64("quarantined", self.quarantined);
        j.kv_u64("write_failures", self.write_failures);
        j.kv_u64("lock_reclaims", self.lock_reclaims);
        j.kv_u64("size_evictions", self.size_evictions);
        j.end_obj();
    }
}

/// An entry that could not be written: the path involved and the I/O
/// error (a lock timeout is [`io::ErrorKind::TimedOut`]). Never fatal —
/// the value stays usable in memory — but typed so callers can count and
/// report it.
#[derive(Debug)]
pub struct EntryError {
    /// The path the failing operation was aimed at.
    pub path: PathBuf,
    /// The I/O failure.
    pub source: io::Error,
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to write entry {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for EntryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Removes the lock file when the writer is done, on success and error
/// paths alike.
struct LockGuard(PathBuf);

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// A directory of `<key>.<ext>` entries, safe to share across threads
/// and processes (writers serialize per entry via lock files, readers
/// rely on atomic renames).
#[derive(Debug)]
pub(crate) struct Entries {
    dir: PathBuf,
    ext: &'static str,
    limit_bytes: Option<u64>,
    counters: Mutex<EntryCounters>,
}

impl Entries {
    /// Entries named `<key>.<ext>` under `dir` (created on first write),
    /// LRU-bounded to `limit_bytes` total entry bytes when `Some`.
    pub(crate) fn new(dir: PathBuf, ext: &'static str, limit_bytes: Option<u64>) -> Entries {
        Entries { dir, ext, limit_bytes, counters: Mutex::default() }
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the entry for `key` lives.
    pub(crate) fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{}", self.ext))
    }

    pub(crate) fn counters(&self) -> EntryCounters {
        *self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, field: fn(&mut EntryCounters) -> &mut u64) {
        *field(&mut self.counters.lock().unwrap_or_else(PoisonError::into_inner)) += 1;
    }

    /// Decode the entry for `key`, or `None` on a miss. Never fails: an
    /// entry the codec rejects is quarantined and reported as a miss.
    pub(crate) fn read<T, E: fmt::Display>(
        &self,
        key: &str,
        decode: impl FnOnce(BufReader<File>) -> Result<T, E>,
    ) -> Option<T> {
        let path = self.path(key);
        let Ok(file) = File::open(&path) else {
            self.count(|c| &mut c.misses);
            return None;
        };
        match decode(BufReader::new(file)) {
            Ok(value) => {
                self.count(|c| &mut c.hits);
                if self.limit_bytes.is_some() {
                    touch(&path);
                }
                Some(value)
            }
            Err(why) => {
                self.quarantine(key, &path, &why);
                self.count(|c| &mut c.misses);
                None
            }
        }
    }

    /// Move a rejected entry into `quarantine/` (falling back to deletion,
    /// so a bad entry can never be served twice) and count it.
    fn quarantine(&self, key: &str, path: &Path, why: &dyn fmt::Display) {
        let qdir = self.dir.join("quarantine");
        let to = qdir.join(format!("{key}.{}.{}", std::process::id(), self.ext));
        let moved = fs::create_dir_all(&qdir).is_ok() && fs::rename(path, &to).is_ok();
        if !moved {
            let _ = fs::remove_file(path);
        }
        self.count(|c| &mut c.quarantined);
        eprintln!("drs-harness: quarantined {} ({why}); it will be recomputed", path.display());
    }

    /// Write the entry for `key` through `encode`: temp file + rename
    /// under the per-entry lock, then enforce the byte budget.
    ///
    /// # Errors
    ///
    /// Any filesystem failure or a lock timeout, counted as a
    /// `write_failures`; callers treat it as lost durability, never as a
    /// failed run.
    pub(crate) fn write(
        &self,
        key: &str,
        encode: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
    ) -> Result<(), EntryError> {
        let path = self.path(key);
        let at = |path: &Path| {
            let path = path.to_path_buf();
            move |source| EntryError { path, source }
        };
        let result = (|| {
            fs::create_dir_all(&self.dir).map_err(at(&self.dir))?;
            let _lock = self.lock(key)?;
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = self.dir.join(format!("{key}.tmp.{}.{seq}", std::process::id()));
            let written = File::create(&tmp).and_then(|file| {
                let mut w = BufWriter::new(file);
                encode(&mut w)?;
                w.flush()
            });
            if let Err(e) = written {
                let _ = fs::remove_file(&tmp);
                return Err(at(&tmp)(e));
            }
            fs::rename(&tmp, &path).map_err(at(&path))
        })();
        match &result {
            Ok(()) => {
                self.count(|c| &mut c.writes);
                self.enforce_limit(&path);
            }
            Err(_) => self.count(|c| &mut c.write_failures),
        }
        result
    }

    /// Acquire the per-entry writer lock, reclaiming stale ones.
    fn lock(&self, key: &str) -> Result<LockGuard, EntryError> {
        let path = self.dir.join(format!("{key}.lock"));
        let deadline = Instant::now() + Duration::from_millis(LOCK_WAIT_MS);
        loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(LockGuard(path));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok())
                        .is_some_and(|age| age >= Duration::from_millis(STALE_LOCK_MS));
                    if stale {
                        // Another reclaimer may race us to the unlink;
                        // both outcomes leave the lock free.
                        if fs::remove_file(&path).is_ok() {
                            self.count(|c| &mut c.lock_reclaims);
                        }
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(EntryError { path, source: io::ErrorKind::TimedOut.into() });
                    }
                    std::thread::sleep(Duration::from_millis(LOCK_POLL_MS));
                }
                Err(source) => return Err(EntryError { path, source }),
            }
        }
    }

    /// Delete least-recently-used entries until the directory fits the
    /// byte budget again. `keep` (the entry just written) is never
    /// evicted, even if it alone exceeds the budget — evicting it would
    /// turn every oversized value into a recompute per use.
    fn enforce_limit(&self, keep: &Path) {
        let Some(limit) = self.limit_bytes else { return };
        let Ok(dir) = fs::read_dir(&self.dir) else { return };
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = dir
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == self.ext))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                Some((e.path(), meta.len(), meta.modified().ok()?))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        // Oldest first; path as tie-break so same-mtime entries evict in
        // a deterministic order.
        entries.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        for (path, len, _) in entries {
            if total <= limit {
                break;
            }
            if path == keep {
                continue;
            }
            self.count(|c| &mut c.size_evictions);
            eprintln!("drs-harness: evicting {} (LRU: over {limit}-byte limit)", path.display());
            let _ = fs::remove_file(&path);
            total -= len;
        }
    }

    /// Chaos hook: flip the low bit of the entry's first byte, if the
    /// entry exists. Both codecs reject that byte (the trace magic; the
    /// store body under its checksum), so the next read must quarantine
    /// the entry. Returns whether an entry was damaged.
    pub(crate) fn scramble(&self, key: &str) -> bool {
        let flip = || -> io::Result<()> {
            let mut f = fs::OpenOptions::new().read(true).write(true).open(self.path(key))?;
            let mut first = [0u8];
            f.read_exact(&mut first)?;
            f.seek(SeekFrom::Start(0))?;
            f.write_all(&[first[0] ^ 0x01])
        };
        flip().is_ok()
    }
}

/// Refresh an entry's mtime so LRU order tracks use, not just creation.
/// Best effort: a failed touch only ages the entry.
fn touch(path: &Path) {
    if let Ok(f) = fs::OpenOptions::new().append(true).open(path) {
        let _ = f.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "drs-entry-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A test codec: the payload is the text itself, and anything not
    /// starting with `ok` is rejected.
    fn put(entries: &Entries, key: &str, text: &str) {
        entries.write(key, |w| w.write_all(text.as_bytes())).unwrap();
    }

    fn get(entries: &Entries, key: &str) -> Option<String> {
        entries.read(key, |mut r| {
            let mut text = String::new();
            r.read_to_string(&mut text).map_err(|e| e.to_string())?;
            if text.starts_with("ok") {
                Ok(text)
            } else {
                Err(format!("bad payload {text:?}"))
            }
        })
    }

    fn set_mtime(path: &Path, age: Duration) {
        let f = fs::OpenOptions::new().append(true).open(path).unwrap();
        f.set_times(fs::FileTimes::new().set_modified(SystemTime::now() - age)).unwrap();
    }

    #[test]
    fn empty_root_variable_means_the_default() {
        assert_eq!(root_from(None), PathBuf::from("target"));
        assert_eq!(root_from(Some(OsString::new())), PathBuf::from("target"));
        assert_eq!(root_from(Some("/data".into())), PathBuf::from("/data"));
    }

    #[test]
    fn missing_entry_is_a_miss_and_a_written_one_a_hit() {
        let entries = Entries::new(temp_dir(), "txt", None);
        assert_eq!(get(&entries, "a"), None);
        put(&entries, "a", "ok a");
        assert_eq!(get(&entries, "a").as_deref(), Some("ok a"));
        let want = EntryCounters { hits: 1, misses: 1, writes: 1, ..Default::default() };
        assert_eq!(entries.counters(), want);
        let names: Vec<_> =
            fs::read_dir(entries.dir()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["a.txt"], "no lock or temp file is left behind");
        let _ = fs::remove_dir_all(entries.dir());
    }

    #[test]
    fn rejected_entry_is_quarantined_and_the_slot_reusable() {
        let entries = Entries::new(temp_dir(), "txt", None);
        put(&entries, "k", "ok k");
        assert!(entries.scramble("k"), "entry exists to damage");
        assert!(!entries.scramble("absent"), "nothing to damage");
        assert_eq!(get(&entries, "k"), None, "a rejected entry is never served");
        let c = entries.counters();
        assert_eq!((c.quarantined, c.misses, c.hits), (1, 1, 0));
        assert!(!entries.path("k").exists(), "entry moved aside");
        let kept = fs::read_dir(entries.dir().join("quarantine")).unwrap().count();
        assert_eq!(kept, 1, "evidence preserved");
        put(&entries, "k", "ok again");
        assert_eq!(get(&entries, "k").as_deref(), Some("ok again"));
        let _ = fs::remove_dir_all(entries.dir());
    }

    #[test]
    fn write_failure_is_typed_counted_and_nonfatal() {
        // Root under a regular file: create_dir_all must fail.
        let blocker = temp_dir();
        fs::write(&blocker, b"not a directory").unwrap();
        let entries = Entries::new(blocker.join("sub"), "txt", None);
        let err = entries.write("k", |w| w.write_all(b"ok")).unwrap_err();
        assert!(err.to_string().contains("failed to write entry"), "{err}");
        assert_eq!(entries.counters().write_failures, 1);
        assert_eq!(entries.counters().writes, 0);
        let _ = fs::remove_file(&blocker);
    }

    #[test]
    fn stale_locks_are_reclaimed() {
        let entries = Entries::new(temp_dir(), "txt", None);
        fs::create_dir_all(entries.dir()).unwrap();
        let lock = entries.dir().join("k.lock");
        fs::write(&lock, "dead-writer").unwrap();
        set_mtime(&lock, Duration::from_millis(STALE_LOCK_MS * 2));
        put(&entries, "k", "ok k");
        assert_eq!(entries.counters().lock_reclaims, 1);
        assert_eq!(get(&entries, "k").as_deref(), Some("ok k"));
        assert!(!lock.exists(), "lock released after write");
        let _ = fs::remove_dir_all(entries.dir());
    }

    #[test]
    fn threads_writing_one_key_all_succeed_and_the_entry_reads_back() {
        let entries = Entries::new(temp_dir(), "txt", None);
        let payload: String = "ok ".repeat(64 << 10);
        let start = std::sync::Barrier::new(8);
        let ok = std::thread::scope(|s| {
            let writers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        entries.write("k", |w| w.write_all(payload.as_bytes())).is_ok()
                    })
                })
                .collect();
            writers.into_iter().map(|t| t.join().unwrap()).filter(|&ok| ok).count()
        });
        assert_eq!(ok, 8, "every writer should succeed within the lock window");
        assert_eq!(get(&entries, "k"), Some(payload), "final entry is whole");
        assert_eq!(entries.counters().writes, 8);
        let _ = fs::remove_dir_all(entries.dir());
    }

    #[test]
    fn size_limit_evicts_least_recently_used_first() {
        let dir = temp_dir();
        let unbounded = Entries::new(dir.clone(), "txt", None);
        put(&unbounded, "a", "ok aaaa");
        put(&unbounded, "b", "ok bbbb");
        // Budget for two entries: writing a third must evict exactly one.
        let entries = Entries::new(dir.clone(), "txt", Some(2 * 7 + 3));
        // Make both entries old, then refresh `a` with a hit: LRU order
        // must follow use, so `b` becomes the victim.
        for key in ["a", "b"] {
            set_mtime(&entries.path(key), Duration::from_mins(5));
        }
        assert!(get(&entries, "a").is_some());
        put(&entries, "c", "ok cccc");
        let c = entries.counters();
        assert_eq!(c.size_evictions, 1, "exactly one entry over budget");
        assert_eq!(c.quarantined, 0, "size evictions are counted separately");
        assert!(entries.path("a").exists(), "recently-used entry survives");
        assert!(!entries.path("b").exists(), "LRU entry evicted");
        assert!(entries.path("c").exists(), "just-written entry never evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn just_written_entry_survives_even_when_alone_over_budget() {
        let entries = Entries::new(temp_dir(), "txt", Some(1));
        put(&entries, "k", "ok k");
        assert!(entries.path("k").exists(), "sole oversized entry is kept");
        assert_eq!(entries.counters().size_evictions, 0);
        let _ = fs::remove_dir_all(entries.dir());
    }
}

//! A crash-safe experiment service over a Unix-domain socket.
//!
//! `experiments serve` turns the harness into a long-running simulator
//! daemon: clients connect to a socket, submit figure grids, stream
//! per-cell progress events, and fetch deterministic result documents.
//! Durability rides on the [`ResultStore`] — every clean cell lands on
//! disk the moment it finishes, so a `kill -9` at any instant loses at
//! most the cells still in flight, and a restart + resubmit converges to
//! results byte-identical to an uninterrupted run.
//!
//! # Protocol
//!
//! Line-delimited JSON, one document per line, both directions. Client
//! requests:
//!
//! ```text
//! {"op":"submit","figure":"fig2"}     queue a figure's job grid
//! {"op":"fetch","ticket":3}           fetch a finished ticket's results
//! {"op":"status"}                     queue / drain introspection
//! {"op":"drain"}                      begin graceful drain (admin)
//! ```
//!
//! Server events: `hello` (on connect), `accepted` (ticket id + job
//! count), `busy` (admission queue full — explicit shedding, never a
//! hang), `draining` (submission refused during drain), `cell` (one per
//! finished cell: index, source `store`/`sim`, throughput), `done` (all
//! of a ticket's cells finished), `results` (the fetched document),
//! `pending`, `error`.
//!
//! The fetched document is the *stats* form ([`ResultsFile::stats_json`]):
//! fully deterministic, no wall-clock or worker-count fields, so two
//! servers — or an interrupted-then-restarted one — produce comparable
//! bytes (`cmp`-equal, as the chaos tests assert).
//!
//! # Scheduling and degradation
//!
//! Admitted tickets share the worker pool via round-robin: each ticket
//! releases one cell per scheduling turn, so a small grid is never
//! starved behind a million-cell one. Admission is bounded
//! (`queue_limit` undispatched cells across all tickets); past it,
//! submissions get a typed `busy` response. Every client write goes
//! through a per-client mutex with a write timeout — a slow or dead
//! client is dropped (its results still land in the store; a later
//! fetch on a fresh connection retrieves them) and never stalls a
//! worker. SIGTERM (or the `drain` op) triggers a graceful drain:
//! admitted work finishes, the store is flushed (it always is — writes
//! are per-cell and atomic), new submissions are refused, and the
//! process exits 0.

#![cfg(unix)]

use crate::cache::StreamCache;
use crate::fault::{FaultKind, FaultPlan};
use crate::figures;
use crate::job::{Scale, SimJob};
use crate::pool::{
    capture_failure, catch_quietly, lookup_cell, persist_cell, run_one_job, CaptureMode, RunOptions,
};
use crate::results::{CellResult, ResultsFile};
use crate::store::ResultStore;
use drs_sim::{GpuConfig, JsonBuf};
use drs_telemetry::check::{self, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Protocol version announced in the `hello` event.
pub const PROTOCOL_VERSION: u32 = 1;

/// How often blocked accept/read loops poll their stop conditions.
const POLL_MS: u64 = 50;

/// Configuration for [`Server::run`].
#[derive(Debug)]
pub struct ServerOptions {
    /// Unix-domain socket path (created on start, removed on exit; a
    /// stale file from a crashed server is replaced).
    pub socket: PathBuf,
    /// Result-store directory (the durability root).
    pub store_dir: PathBuf,
    /// Capture-cache directory.
    pub cache_dir: PathBuf,
    /// Optional capture-cache byte limit (LRU eviction past it).
    pub cache_limit: Option<u64>,
    /// Worker threads executing cells.
    pub workers: usize,
    /// Maximum undispatched cells across all tickets; submissions past
    /// it are shed with a `busy` response.
    pub queue_limit: usize,
    /// Per-client write timeout. A client that cannot drain an event
    /// within it is dropped.
    pub write_timeout_ms: u64,
    /// Workload scale for submitted figures.
    pub scale: Scale,
    /// Engine fast path (see [`RunOptions::fastpath`]).
    pub fastpath: bool,
    /// Retry budget per cell for transient failures.
    pub retries: u32,
    /// Deterministic fault injection (store corruption and client
    /// disconnects are meaningful here; indices address a ticket's
    /// local job order).
    pub faults: FaultPlan,
    /// Log accept/submit/cell lines to stderr.
    pub progress: bool,
}

impl ServerOptions {
    /// Defaults for a server at `socket`: store and cache at their
    /// conventional locations, one worker per available core, a 4096-cell
    /// admission queue, 5 s write patience.
    pub fn new(socket: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            socket: socket.into(),
            store_dir: ResultStore::default_dir(),
            cache_dir: StreamCache::default_dir(),
            cache_limit: None,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            queue_limit: 4096,
            write_timeout_ms: 5_000,
            scale: Scale::default(),
            fastpath: true,
            retries: 1,
            faults: FaultPlan::default(),
            progress: false,
        }
    }
}

/// External control surface for a running server: both flags are polled,
/// so a signal handler (or a test) can flip them at any time.
#[derive(Debug, Clone, Default)]
pub struct ServerControl {
    /// Graceful drain: refuse new submissions, finish admitted work,
    /// exit. What SIGTERM sets.
    pub drain: Arc<AtomicBool>,
    /// Abrupt stop: abandon queued work, exit as soon as in-flight
    /// cells finish. The in-process stand-in for `kill -9` used by the
    /// chaos tests (a real SIGKILL is equivalent from the store's point
    /// of view: only completed, atomically-written entries survive).
    pub abort: Arc<AtomicBool>,
}

impl ServerControl {
    fn stopping(&self) -> bool {
        self.drain.load(Ordering::Relaxed) || self.abort.load(Ordering::Relaxed)
    }
}

/// One submitted job grid.
struct Ticket {
    client: u64,
    figure: String,
    jobs: Vec<SimJob>,
    /// Next undispatched job index.
    next: usize,
    /// Finished cells (dispatched and completed).
    done: usize,
    failed: usize,
    results: Vec<Option<CellResult>>,
}

/// Scheduler state under one mutex: tickets plus the round-robin ring of
/// tickets that still have undispatched cells.
#[derive(Default)]
struct Sched {
    next_ticket_id: u64,
    tickets: HashMap<u64, Ticket>,
    ring: VecDeque<u64>,
    /// Undispatched cells across all tickets (the admission gauge).
    queued: usize,
}

/// A connected client's write half, shared by every worker.
struct ClientHandle {
    id: u64,
    stream: Mutex<Option<UnixStream>>,
}

impl ClientHandle {
    /// The write half, locked: lines written through one guard reach the
    /// client in order, with no other sender's line between them.
    fn lock(&self) -> MutexGuard<'_, Option<UnixStream>> {
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write one protocol line.
    fn send(&self, line: &str) {
        self.send_locked(&mut self.lock(), line);
    }

    /// Write one protocol line through a held [`ClientHandle::lock`]
    /// guard. On any error (including a write timeout) the client is
    /// dropped: the stream slot is cleared, so later events become no-ops
    /// instead of repeated stalls.
    fn send_locked(&self, slot: &mut Option<UnixStream>, line: &str) {
        if let Some(stream) = slot.as_mut() {
            let ok =
                stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n")).is_ok();
            if !ok {
                eprintln!("drs-serve: dropping unresponsive client {}", self.id);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                *slot = None;
            }
        }
    }

    /// Force-close the connection (client-disconnect fault injection).
    fn kill(&self) {
        kill_locked(&mut self.lock());
    }
}

/// Force-close a connection through a held [`ClientHandle::lock`] guard.
fn kill_locked(slot: &mut Option<UnixStream>) {
    if let Some(stream) = slot.take() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

struct Inner {
    opts: ServerOptions,
    control: ServerControl,
    store: Arc<ResultStore>,
    run_opts: RunOptions,
    sched: Mutex<Sched>,
    work: Condvar,
    clients: Mutex<HashMap<u64, Arc<ClientHandle>>>,
    /// Captured streams memo, keyed by workload content key — the
    /// server-lifetime analogue of the pool's per-run capture phase.
    streams: Mutex<HashMap<u64, Arc<drs_trace::BounceStreams>>>,
    /// Set once workers have exited; tells client reader threads to
    /// wind down.
    clients_stop: AtomicBool,
}

/// The experiment service. See the module docs for the protocol.
pub struct Server;

/// SIGTERM flips this; the accept loop polls it. A `static` because a
/// C signal handler cannot capture state.
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: a single atomic store.
    SIGTERM_SEEN.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_sigterm() {
    const SIGTERM: i32 = 15;
    // SAFETY: registering an async-signal-safe handler (it only stores
    // an atomic) for SIGTERM via the C signal(2) entry point.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

impl Server {
    /// Run a server until SIGTERM (graceful drain) with default control
    /// flags. Blocks the calling thread for the server's lifetime.
    ///
    /// # Errors
    ///
    /// Socket bind failures; everything after a successful bind degrades
    /// instead of erroring.
    pub fn run(opts: ServerOptions) -> std::io::Result<()> {
        install_sigterm();
        SIGTERM_SEEN.store(false, Ordering::Relaxed);
        Self::run_controlled(opts, &ServerControl::default())
    }

    /// Run a server under external control flags — the in-process entry
    /// point the golden tests drive (drain, abort) without signals.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn run_controlled(opts: ServerOptions, control: &ServerControl) -> std::io::Result<()> {
        // A previous crash leaves a stale socket file; binding over it
        // needs the unlink first.
        let _ = std::fs::remove_file(&opts.socket);
        if let Some(parent) = opts.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        if opts.progress {
            eprintln!(
                "drs-serve: listening on {} (store {}, {} workers)",
                opts.socket.display(),
                opts.store_dir.display(),
                opts.workers
            );
        }
        let store = Arc::new(ResultStore::new(&opts.store_dir));
        let run_opts = RunOptions {
            workers: 1, // each cell runs on one server worker thread
            capture: CaptureMode::Cached(StreamCache::with_limit(
                &opts.cache_dir,
                opts.cache_limit,
            )),
            telemetry: None,
            progress: false,
            fastpath: opts.fastpath,
            retries: opts.retries,
            retry_backoff_ms: 10,
            job_cycle_budget: None,
            job_timeout_ms: None,
            chip_threads: 1,
            faults: opts.faults.clone(),
            checkpoint: None,
            store: None, // the server drives the store itself, per cell
        };
        let workers = opts.workers.max(1);
        let socket_path = opts.socket.clone();
        let inner = Arc::new(Inner {
            opts,
            control: control.clone(),
            store,
            run_opts,
            sched: Mutex::default(),
            work: Condvar::new(),
            clients: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            clients_stop: AtomicBool::new(false),
        });

        std::thread::scope(|s| {
            let worker_handles: Vec<_> = (0..workers)
                .map(|_| {
                    let inner = Arc::clone(&inner);
                    s.spawn(move || worker_loop(&inner))
                })
                .collect();

            // Accept loop: polls the listener so stop flags stay live.
            let mut next_client = 0u64;
            loop {
                if inner.control.stopping() || SIGTERM_SEEN.load(Ordering::Relaxed) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let id = next_client;
                        next_client += 1;
                        let inner = Arc::clone(&inner);
                        s.spawn(move || client_loop(&inner, stream, id));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(POLL_MS));
                    }
                    Err(e) => {
                        eprintln!("drs-serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(POLL_MS));
                    }
                }
            }
            // SIGTERM reached us through the poll: promote it to the
            // drain flag so workers see one coherent signal.
            if SIGTERM_SEEN.load(Ordering::Relaxed) {
                inner.control.drain.store(true, Ordering::Relaxed);
            }
            if inner.opts.progress {
                let what = if inner.control.abort.load(Ordering::Relaxed) {
                    "aborting"
                } else {
                    "draining"
                };
                eprintln!("drs-serve: {what} — new submissions refused");
            }
            inner.work.notify_all();
            for h in worker_handles {
                let _ = h.join();
            }
            // Workers are done (drain: queue empty; abort: queue
            // abandoned). Release the client reader threads.
            inner.clients_stop.store(true, Ordering::Relaxed);
            for client in inner.clients.lock().unwrap_or_else(PoisonError::into_inner).values() {
                client.kill();
            }
        });
        let _ = std::fs::remove_file(&socket_path);
        if inner.opts.progress {
            eprintln!("drs-serve: exited cleanly");
        }
        Ok(())
    }
}

/// Claim the next cell in round-robin ticket order. Returns the ticket
/// id, the ticket-local job index, the job, and the owning client.
fn claim(sched: &mut Sched) -> Option<(u64, usize, SimJob, u64)> {
    let ticket_id = sched.ring.pop_front()?;
    let ticket = sched.tickets.get_mut(&ticket_id)?;
    let index = ticket.next;
    let job = ticket.jobs[index];
    ticket.next += 1;
    sched.queued -= 1;
    if ticket.next < ticket.jobs.len() {
        sched.ring.push_back(ticket_id);
    }
    Some((ticket_id, index, job, ticket.client))
}

fn worker_loop(inner: &Inner) {
    loop {
        let claimed = {
            let mut sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if inner.control.abort.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(c) = claim(&mut sched) {
                    break Some(c);
                }
                if inner.control.drain.load(Ordering::Relaxed)
                    || SIGTERM_SEEN.load(Ordering::Relaxed)
                {
                    break None;
                }
                let (guard, _) = inner
                    .work
                    .wait_timeout(sched, Duration::from_millis(POLL_MS))
                    .unwrap_or_else(PoisonError::into_inner);
                sched = guard;
            }
        };
        let Some((ticket_id, index, job, client_id)) = claimed else { return };
        let (cell, source) = execute_cell(inner, index, &job);
        finish_cell(inner, ticket_id, index, client_id, cell, source);
    }
}

/// Run one cell: store lookup first (with injected corruption applied),
/// then capture + simulate, then persist.
fn execute_cell(inner: &Inner, index: usize, job: &SimJob) -> (CellResult, &'static str) {
    if let Some(cell) = lookup_cell(&inner.store, &inner.run_opts.faults, index, job) {
        return (cell, "store");
    }
    let streams = {
        let memo = inner.streams.lock().unwrap_or_else(PoisonError::into_inner);
        memo.get(&job.workload.content_key()).cloned()
    };
    let streams = match streams {
        Some(s) => Ok(s),
        None => catch_quietly(|| match &inner.run_opts.capture {
            CaptureMode::Uncached => job.workload.capture(),
            CaptureMode::Cached(cache) => cache.get_or_capture(&job.workload),
        })
        .map(|streams| {
            let streams = Arc::new(streams);
            inner
                .streams
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(job.workload.content_key(), Arc::clone(&streams));
            streams
        }),
    };
    let cell = match streams {
        Ok(streams) => run_one_job(index, job, &streams, &inner.run_opts),
        Err(panic) => capture_failure(job, &panic.message),
    };
    persist_cell(&inner.store, &cell);
    (cell, "sim")
}

/// Record a finished cell, emit its `cell` event (and `done` when the
/// ticket completes), honoring an injected client disconnect.
fn finish_cell(
    inner: &Inner,
    ticket_id: u64,
    index: usize,
    client_id: u64,
    cell: CellResult,
    source: &'static str,
) {
    let disconnect = inner.run_opts.faults.fault_for(index, cell.job.id(), 1)
        == Some(FaultKind::ClientDisconnect);
    let client = {
        let clients = inner.clients.lock().unwrap_or_else(PoisonError::into_inner);
        clients.get(&client_id).cloned()
    };
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.kv_str("event", "cell");
    j.kv_u64("ticket", ticket_id);
    j.kv_u64("index", index as u64);
    let mut sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(ticket) = sched.tickets.get_mut(&ticket_id) else { return };
    ticket.done += 1;
    if cell.failure.is_some() {
        ticket.failed += 1;
    }
    let (done, total, failed) = (ticket.done, ticket.jobs.len(), ticket.failed);
    j.kv_str("cell", &cell.cell_name());
    j.kv_str("source", source);
    j.kv_bool("ok", cell.failure.is_none());
    j.kv_u64("done", done as u64);
    j.kv_u64("total", total as u64);
    j.kv_u64("cycles", cell.stats.cycles);
    j.kv_u64("rays", cell.stats.rays_completed);
    j.kv_f64("mrays", cell.mrays_per_sec(&GpuConfig::gtx780()));
    j.kv_f64("simd_efficiency", cell.stats.simd_efficiency());
    j.end_obj();
    ticket.results[index] = Some(cell);
    // Take the client's write lock before releasing `sched` (the order
    // `submit_op` nests them in): every `cell` event is then written in
    // the order its `done` count was taken, so the worker finishing a
    // ticket's last cell cannot send `done` ahead of a slower worker's
    // earlier `cell` event.
    let mut slot = client.as_ref().map(|c| c.lock());
    drop(sched);
    if inner.opts.progress {
        eprintln!("drs-serve: ticket {ticket_id} cell {index} done ({done}/{total}, {source})");
    }
    let (Some(client), Some(slot)) = (&client, slot.as_mut()) else { return };
    if disconnect {
        eprintln!("drs-serve: injected disconnect of client {client_id}");
        kill_locked(slot);
    }
    client.send_locked(slot, &j.finish());
    if done == total {
        let mut d = JsonBuf::new();
        d.begin_obj();
        d.kv_str("event", "done");
        d.kv_u64("ticket", ticket_id);
        d.kv_u64("completed", (total - failed) as u64);
        d.kv_u64("failed", failed as u64);
        d.end_obj();
        client.send_locked(slot, &d.finish());
    }
}

/// Build the deterministic results document for a completed ticket.
fn ticket_doc(inner: &Inner, ticket: &Ticket) -> String {
    let cells: Vec<(Vec<String>, CellResult)> = ticket
        .results
        .iter()
        .map(|c| (vec![ticket.figure.clone()], c.clone().expect("ticket complete")))
        .collect();
    let file = ResultsFile {
        mode: ticket.figure.clone(),
        workers: inner.opts.workers,
        cache: match &inner.run_opts.capture {
            CaptureMode::Uncached => crate::cache::CacheCounters::default(),
            CaptureMode::Cached(cache) => cache.counters(),
        },
        store: inner.store.counters(),
        wall_ms: 0.0,
        resumed: 0,
        checkpoint_writes: 0,
        cells,
    };
    file.stats_json()
}

/// One client connection: read ops line by line, answer with events.
fn client_loop(inner: &Inner, stream: UnixStream, id: u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(POLL_MS)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(inner.opts.write_timeout_ms)));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("drs-serve: failed to clone client stream: {e}");
            return;
        }
    };
    let handle = Arc::new(ClientHandle { id, stream: Mutex::new(Some(write_half)) });
    inner.clients.lock().unwrap_or_else(PoisonError::into_inner).insert(id, Arc::clone(&handle));
    if inner.opts.progress {
        eprintln!("drs-serve: client {id} connected");
    }
    let mut hello = JsonBuf::new();
    hello.begin_obj();
    hello.kv_str("event", "hello");
    hello.kv_u64("protocol", u64::from(PROTOCOL_VERSION));
    hello.kv_u64("client", id);
    hello.end_obj();
    handle.send(&hello.finish());

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if inner.clients_stop.load(Ordering::Relaxed) {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: client hung up
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    handle_op(inner, &handle, trimmed);
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Poll tick; partial line bytes stay buffered in `line`.
            }
            Err(_) => break,
        }
    }
    inner.clients.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
    handle.kill();
    if inner.opts.progress {
        eprintln!("drs-serve: client {id} disconnected");
    }
}

fn event_line(fields: &[(&str, &str)]) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    for (k, v) in fields {
        j.kv_str(k, v);
    }
    j.end_obj();
    j.finish()
}

fn error_event(message: &str) -> String {
    event_line(&[("event", "error"), ("message", message)])
}

/// Dispatch one parsed client line. Untrusted input: the depth-limited
/// JSON parser rejects pathological nesting, and every malformed shape
/// becomes an `error` event, never a panic.
fn handle_op(inner: &Inner, client: &Arc<ClientHandle>, line: &str) {
    let doc = match check::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            client.send(&error_event(&format!("unparseable request: {e}")));
            return;
        }
    };
    match doc.get("op").and_then(Value::as_str) {
        Some("submit") => submit_op(inner, client, &doc),
        Some("fetch") => fetch_op(inner, client, &doc),
        Some("status") => status_op(inner, client),
        Some("drain") => {
            inner.control.drain.store(true, Ordering::Relaxed);
            inner.work.notify_all();
            client.send(&event_line(&[("event", "draining")]));
        }
        Some(other) => client.send(&error_event(&format!("unknown op '{other}'"))),
        None => client.send(&error_event("missing 'op' field")),
    }
}

fn submit_op(inner: &Inner, client: &Arc<ClientHandle>, doc: &Value) {
    if inner.control.stopping() || SIGTERM_SEEN.load(Ordering::Relaxed) {
        client.send(&event_line(&[("event", "draining")]));
        return;
    }
    let Some(figure) = doc.get("figure").and_then(Value::as_str) else {
        client.send(&error_event("submit needs a 'figure' field"));
        return;
    };
    let Some(set) = figures::by_name(figure, &inner.opts.scale) else {
        client.send(&error_event(&format!("unknown figure '{figure}'")));
        return;
    };
    let jobs = set.jobs;
    let mut sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
    if sched.queued + jobs.len() > inner.opts.queue_limit {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.kv_str("event", "busy");
        j.kv_u64("queued", sched.queued as u64);
        j.kv_u64("limit", inner.opts.queue_limit as u64);
        j.end_obj();
        client.send(&j.finish());
        return;
    }
    let ticket_id = sched.next_ticket_id;
    sched.next_ticket_id += 1;
    sched.queued += jobs.len();
    let ticket = Ticket {
        client: client.id,
        figure: figure.to_string(),
        results: vec![None; jobs.len()],
        next: 0,
        done: 0,
        failed: 0,
        jobs,
    };
    let total = ticket.jobs.len();
    sched.tickets.insert(ticket_id, ticket);
    drop(sched);
    if inner.opts.progress {
        eprintln!(
            "drs-serve: client {} submitted {figure} as ticket {ticket_id} ({total} cells)",
            client.id
        );
    }
    // Acknowledge BEFORE the ticket becomes claimable: a store-served
    // cell finishes instantly, and its event must not outrun `accepted`
    // on the client's stream.
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.kv_str("event", "accepted");
    j.kv_u64("ticket", ticket_id);
    j.kv_str("figure", figure);
    j.kv_u64("jobs", total as u64);
    j.end_obj();
    client.send(&j.finish());
    inner.sched.lock().unwrap_or_else(PoisonError::into_inner).ring.push_back(ticket_id);
    inner.work.notify_all();
}

fn fetch_op(inner: &Inner, client: &Arc<ClientHandle>, doc: &Value) {
    let ticket_id = doc.get("ticket").and_then(Value::as_num).map(|n| n as u64);
    let Some(ticket_id) = ticket_id else {
        client.send(&error_event("fetch needs a numeric 'ticket' field"));
        return;
    };
    let response = {
        let sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
        match sched.tickets.get(&ticket_id) {
            None => error_event(&format!("unknown ticket {ticket_id}")),
            Some(t) if t.done < t.jobs.len() => {
                let mut j = JsonBuf::new();
                j.begin_obj();
                j.kv_str("event", "pending");
                j.kv_u64("ticket", ticket_id);
                j.kv_u64("done", t.done as u64);
                j.kv_u64("total", t.jobs.len() as u64);
                j.end_obj();
                j.finish()
            }
            Some(t) => {
                // The embedded document is itself single-line JSON, so
                // the composed event stays one protocol line.
                format!(
                    "{{\"event\":\"results\",\"ticket\":{ticket_id},\"doc\":{}}}",
                    ticket_doc(inner, t)
                )
            }
        }
    };
    client.send(&response);
}

fn status_op(inner: &Inner, client: &Arc<ClientHandle>) {
    let (queued, tickets) = {
        let sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
        (sched.queued, sched.tickets.len())
    };
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.kv_str("event", "status");
    j.kv_bool("draining", inner.control.stopping() || SIGTERM_SEEN.load(Ordering::Relaxed));
    j.kv_u64("queued", queued as u64);
    j.kv_u64("tickets", tickets as u64);
    j.kv_u64("workers", inner.opts.workers as u64);
    j.end_obj();
    client.send(&j.finish());
}

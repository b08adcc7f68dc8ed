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
//! [`Client`] is the protocol's one client. It fails with
//! [`ClientError::CellAfterDone`] if a ticket's `cell` event arrives
//! after its `done`.
//!
//! # Execution
//!
//! Each claimed cell goes through the pool's per-cell path, the one
//! [`run_jobs`](crate::pool::run_jobs) maps a grid through, with a
//! capture memo that lives as long as the server. A ticket's document is
//! the [`ResultsFile`] a `run_jobs` caller builds, so a served figure is
//! byte-identical to a pooled one.
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
use crate::pool::{CaptureMode, Pool, RunOptions};
use crate::results::{CellResult, ResultsFile};
use crate::store::ResultStore;
use drs_sim::{GpuConfig, JsonBuf};
use drs_telemetry::check::{self, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
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

struct Inner<'p> {
    opts: ServerOptions,
    control: ServerControl,
    /// The pool's per-cell path, kept for the server's lifetime: its
    /// capture memo spans every ticket, its store is the durability root.
    pool: Pool<'p>,
    sched: Mutex<Sched>,
    work: Condvar,
    clients: Mutex<HashMap<u64, Arc<ClientHandle>>>,
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
        // Each cell runs serially on the server worker that claimed it.
        let run_opts = RunOptions {
            capture: CaptureMode::Cached(StreamCache::with_limit(
                &opts.cache_dir,
                opts.cache_limit,
            )),
            fastpath: opts.fastpath,
            retries: opts.retries,
            faults: opts.faults.clone(),
            store: Some(Arc::new(ResultStore::new(&opts.store_dir))),
            ..RunOptions::serial()
        };
        let workers = opts.workers.max(1);
        let socket_path = opts.socket.clone();
        let inner = Inner {
            opts,
            control: control.clone(),
            pool: Pool::new(&run_opts),
            sched: Mutex::default(),
            work: Condvar::new(),
            clients: Mutex::new(HashMap::new()),
            clients_stop: AtomicBool::new(false),
        };
        let inner = &inner;

        std::thread::scope(|s| {
            let worker_handles: Vec<_> =
                (0..workers).map(|_| s.spawn(move || worker_loop(inner))).collect();

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
                        s.spawn(move || client_loop(inner, stream, id));
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
        let (cell, source) = inner.pool.run(index, &job);
        finish_cell(inner, ticket_id, index, client_id, cell, source);
    }
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
    let disconnect =
        inner.opts.faults.fault_for(index, cell.job.id(), 1) == Some(FaultKind::ClientDisconnect);
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

/// The deterministic results document of a completed ticket: the same
/// `stats_json` a `run_jobs` caller writes for the figure's grid.
fn ticket_doc(inner: &Inner, ticket: &Ticket) -> String {
    let cells = ticket.results.iter().map(|c| c.clone().expect("ticket complete")).collect();
    let figures = vec![vec![ticket.figure.clone()]; ticket.jobs.len()];
    let report = inner.pool.report(cells, 0.0);
    ResultsFile::from_report(&ticket.figure, inner.opts.workers, report, figures).stats_json()
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

/// How long [`Client::connect`] retries while the server is still binding
/// its socket.
const CONNECT_WAIT: Duration = Duration::from_secs(10);

/// Why a [`Client`] call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed: connect, read, write, or a read timeout.
    Io(std::io::Error),
    /// The server closed the connection.
    Closed,
    /// The server refused a submission.
    Refused(Refusal),
    /// A `cell` event for this ticket arrived after the ticket's `done`.
    CellAfterDone(u64),
    /// An event the protocol does not allow at that point.
    Unexpected(String),
}

/// A submission the server refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The admission queue is full (`limit` undispatched cells).
    Busy {
        /// The server's `queue_limit`.
        limit: u64,
    },
    /// The server is draining.
    Draining,
    /// The server's `error` message (an unknown figure, say).
    Error(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "server connection lost: {e}"),
            ClientError::Closed => f.write_str("server closed the connection"),
            ClientError::Refused(Refusal::Busy { .. }) => {
                f.write_str("server is at its admission limit (busy); retry later")
            }
            ClientError::Refused(Refusal::Draining) => {
                f.write_str("server is draining and refused the submission")
            }
            ClientError::Refused(Refusal::Error(msg)) => {
                write!(f, "submission failed (error): {msg}")
            }
            ClientError::CellAfterDone(t) => write!(f, "cell event after ticket {t}'s done"),
            ClientError::Unexpected(line) => write!(f, "unexpected server event: {line}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One server event: the line as sent (without its newline) and its parse.
#[derive(Debug)]
pub struct Event {
    /// The raw line.
    pub line: String,
    value: Value,
}

impl Event {
    /// The `event` field (`cell`, `done`, …).
    pub fn kind(&self) -> &str {
        self.str("event").unwrap_or("")
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.value.get(key).and_then(Value::as_str)
    }

    /// A numeric field.
    pub fn num(&self, key: &str) -> Option<u64> {
        self.value.get(key).and_then(Value::as_num).map(|n| n as u64)
    }
}

/// An accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// The ticket id.
    pub ticket: u64,
    /// Cells in the ticket's grid.
    pub jobs: u64,
}

/// The protocol client `experiments submit` and the service tests use.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Bytes of a line a timed-out read left unfinished.
    partial: Vec<u8>,
    /// Tickets whose `done` event has arrived.
    done: HashSet<u64>,
}

impl Client {
    /// Connect to `socket`, retrying for up to 10 s while the server is
    /// still binding it, and read the `hello`. A later read fails with a
    /// timed-out [`ClientError::Io`] after `timeout` of silence (`None`
    /// waits for ever).
    pub fn connect(socket: &Path, timeout: Option<Duration>) -> Result<Client, ClientError> {
        let deadline = std::time::Instant::now() + CONNECT_WAIT;
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => return Client::over(stream, timeout),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::NotFound | std::io::ErrorKind::ConnectionRefused
                    ) && std::time::Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// A client over a connected stream; reads the `hello`.
    fn over(stream: UnixStream, timeout: Option<Duration>) -> Result<Client, ClientError> {
        stream.set_read_timeout(timeout)?;
        let writer = stream.try_clone()?;
        let reader = BufReader::new(stream);
        let mut client = Client { reader, writer, partial: Vec::new(), done: HashSet::new() };
        let hello = client.recv()?;
        if hello.kind() != "hello" {
            return Err(ClientError::Unexpected(hello.line));
        }
        Ok(client)
    }

    /// Send one op line.
    pub fn send(&mut self, op: &str) -> Result<(), ClientError> {
        self.writer.write_all(op.as_bytes())?;
        Ok(self.writer.write_all(b"\n")?)
    }

    /// The next event. Fails on end of stream, a read error or timeout,
    /// an unparseable line, or a `cell` event after its ticket's `done`.
    pub fn recv(&mut self) -> Result<Event, ClientError> {
        loop {
            // A timed-out read keeps its bytes in `partial` for the next
            // call; a line without its newline means end of stream.
            self.reader.read_until(b'\n', &mut self.partial)?;
            if self.partial.last() != Some(&b'\n') {
                return Err(ClientError::Closed);
            }
            let bytes = std::mem::take(&mut self.partial);
            let line = String::from_utf8_lossy(&bytes).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let Ok(value) = check::parse(&line) else { return Err(ClientError::Unexpected(line)) };
            let event = Event { line, value };
            match (event.kind(), event.num("ticket")) {
                ("done", Some(t)) => {
                    self.done.insert(t);
                }
                ("cell", Some(t)) if self.done.contains(&t) => {
                    return Err(ClientError::CellAfterDone(t))
                }
                _ => {}
            }
            return Ok(event);
        }
    }

    /// Submit `figure`'s grid; a `busy`, `draining` or `error` answer is
    /// a [`ClientError::Refused`].
    pub fn submit(&mut self, figure: &str) -> Result<Submitted, ClientError> {
        let mut op = JsonBuf::new();
        op.begin_obj();
        op.kv_str("op", "submit");
        op.kv_str("figure", figure);
        op.end_obj();
        self.send(&op.finish())?;
        let ev = self.recv()?;
        let refusal = match ev.kind() {
            "accepted" => {
                let (ticket, jobs) = (ev.num("ticket"), ev.num("jobs"));
                return Ok(Submitted { ticket: ticket.unwrap_or(0), jobs: jobs.unwrap_or(0) });
            }
            "busy" => Refusal::Busy { limit: ev.num("limit").unwrap_or(0) },
            "draining" => Refusal::Draining,
            "error" => Refusal::Error(ev.str("message").unwrap_or("").to_string()),
            _ => return Err(ClientError::Unexpected(ev.line)),
        };
        Err(ClientError::Refused(refusal))
    }

    /// Read events until `ticket`'s `done`, handing each of its `cell`
    /// events to `on_cell`, and return how many of its cells failed.
    /// Other tickets' `cell` and `done` events are skipped; any other
    /// event is an error.
    pub fn wait(
        &mut self,
        ticket: u64,
        mut on_cell: impl FnMut(&Event),
    ) -> Result<u64, ClientError> {
        loop {
            let ev = self.recv()?;
            let ours = ev.num("ticket") == Some(ticket);
            match ev.kind() {
                "cell" if ours => on_cell(&ev),
                "done" if ours => return Ok(ev.num("failed").unwrap_or(0)),
                "cell" | "done" => {}
                _ => return Err(ClientError::Unexpected(ev.line)),
            }
        }
    }

    /// `ticket`'s results document, byte for byte as the server wrote it
    /// (sliced out of the `results` event, not re-serialized), polling
    /// through `pending` while the ticket still runs.
    pub fn fetch(&mut self, ticket: u64) -> Result<String, ClientError> {
        loop {
            self.send(&format!("{{\"op\":\"fetch\",\"ticket\":{ticket}}}"))?;
            let ev = self.recv()?;
            match (ev.kind(), ev.line.find("\"doc\":")) {
                ("pending", _) => std::thread::sleep(Duration::from_millis(POLL_MS)),
                // `fetch_op` composes `{"event":"results","ticket":N,"doc":DOC}`.
                ("results", Some(at)) => return Ok(ev.line[at + 6..ev.line.len() - 1].to_string()),
                _ => return Err(ClientError::Unexpected(ev.line)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server sends a `cell` event after its ticket's `done`, then
    /// a document: the client fails with the ordering error instead of
    /// returning the document.
    #[test]
    fn client_rejects_a_cell_event_after_its_tickets_done() {
        let (client_end, mut server_end) = UnixStream::pair().unwrap();
        for line in [
            r#"{"event":"hello","protocol":1,"client":0}"#,
            r#"{"event":"accepted","ticket":0,"figure":"fig2","jobs":1}"#,
            r#"{"event":"done","ticket":0,"completed":1,"failed":0}"#,
            r#"{"event":"cell","ticket":0,"index":0,"cell":"late","source":"sim","ok":true}"#,
            r#"{"event":"results","ticket":0,"doc":{"cells":[]}}"#,
        ] {
            writeln!(server_end, "{line}").unwrap();
        }
        let mut client = Client::over(client_end, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(client.submit("fig2").unwrap(), Submitted { ticket: 0, jobs: 1 });
        assert_eq!(client.wait(0, |_| panic!("no cell before done")).unwrap(), 0);
        let fetched = client.fetch(0);
        assert!(matches!(fetched, Err(ClientError::CellAfterDone(0))), "{fetched:?}");
    }
}

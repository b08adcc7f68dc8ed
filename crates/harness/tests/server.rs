//! Chaos-level guarantees of the experiment service, driven in-process
//! through [`Server::run_controlled`]:
//!
//! 1. **Submit → stream → fetch** works over the line-delimited JSON
//!    protocol, and a repeat submission is served entirely from the
//!    result store with a byte-identical document.
//! 2. **Bounded admission**: past `queue_limit` the server sheds with a
//!    typed `busy` event instead of queueing unboundedly.
//! 3. **Crash convergence**: aborting a server mid-grid (the in-process
//!    surrogate for `kill -9` — queued work is dropped on the floor),
//!    restarting over the same store, and resubmitting yields a document
//!    byte-identical to an uninterrupted run's.
//! 4. **Store races**: two servers sharing one store directory both
//!    produce that same document, serialized by the store's lock files.
//! 5. **Client disconnects** (injected) kill only the connection: the
//!    grid still completes into the store and a fresh connection fetches
//!    the full results.

use drs_harness::{FaultPlan, Scale, Server, ServerControl, ServerOptions};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Reduced scale so grids stay fast in debug CI runs.
fn tiny_scale() -> Scale {
    Scale { rays: 260, tris_scale: 0.008, warps_scale: 0.15 }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("drs-server-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn server_opts(tag: &str, store_dir: &Path) -> ServerOptions {
    ServerOptions {
        store_dir: store_dir.to_path_buf(),
        cache_dir: fresh_dir(&format!("{tag}-cache")),
        workers: 2,
        scale: tiny_scale(),
        ..ServerOptions::new(
            std::env::temp_dir().join(format!("drs-serve-{tag}-{}.sock", std::process::id())),
        )
    }
}

/// Spawn a server on its own thread; returns the join handle.
fn spawn_server(
    opts: ServerOptions,
    control: ServerControl,
) -> std::thread::JoinHandle<std::io::Result<()>> {
    std::thread::spawn(move || Server::run_controlled(opts, &control))
}

/// A minimal protocol client with a read timeout on every event.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Tickets whose `done` event has arrived.
    done: HashSet<u64>,
}

impl Client {
    /// Connect, retrying while the server is still binding its socket.
    fn connect(socket: &Path) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("could not connect to {}: {e}", socket.display()),
            }
        };
        stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut c = Client { reader: BufReader::new(stream), writer, done: HashSet::new() };
        let hello = c.recv().expect("hello event");
        assert!(hello.contains("\"event\":\"hello\""), "unexpected greeting: {hello}");
        c
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    /// Next protocol line, or `None` when the server closed the stream.
    /// Panics after 30 s of silence (a hung test beats a deadlocked CI),
    /// and on a `cell` event arriving after its ticket's `done`.
    fn recv(&mut self) -> Option<String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {
                    let ev = line.trim().to_string();
                    let ticket = field_u64(&ev, "ticket");
                    if ev.contains("\"event\":\"done\"") {
                        self.done.extend(ticket);
                    }
                    if ev.contains("\"event\":\"cell\"") {
                        assert!(
                            !ticket.is_some_and(|t| self.done.contains(&t)),
                            "cell event after its ticket's done: {ev}"
                        );
                    }
                    return Some(ev);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    assert!(Instant::now() < deadline, "no server event within 30s");
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Submit `figure` and return the ticket id from the `accepted` event.
    fn submit(&mut self, figure: &str) -> u64 {
        self.send(&format!("{{\"op\":\"submit\",\"figure\":\"{figure}\"}}"));
        let ev = self.recv().expect("accepted event");
        assert!(ev.contains("\"event\":\"accepted\""), "submit was not accepted: {ev}");
        field_u64(&ev, "ticket").expect("accepted carries a ticket id")
    }

    /// Read events until this ticket's `done`, then fetch and return the
    /// embedded deterministic results document (raw bytes, unreparsed).
    fn wait_and_fetch(&mut self, ticket: u64) -> String {
        loop {
            let ev = self.recv().expect("event stream ended before done");
            if ev.contains("\"event\":\"done\"") && field_u64(&ev, "ticket") == Some(ticket) {
                break;
            }
        }
        self.fetch(ticket)
    }

    /// Fetch a completed ticket's document (poll through `pending`).
    fn fetch(&mut self, ticket: u64) -> String {
        loop {
            self.send(&format!("{{\"op\":\"fetch\",\"ticket\":{ticket}}}"));
            let ev = self.recv().expect("fetch response");
            if ev.contains("\"event\":\"pending\"") {
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
            assert!(ev.contains("\"event\":\"results\""), "fetch failed: {ev}");
            let at = ev.find("\"doc\":").expect("results event embeds the document");
            return ev[at + "\"doc\":".len()..ev.len() - 1].to_string();
        }
    }
}

/// The numeric field `"name":N` of a single-line JSON event.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let at = line.find(&format!("\"{name}\":"))? + name.len() + 3;
    let rest = &line[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn drain_and_join(control: &ServerControl, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    control.drain.store(true, Ordering::Relaxed);
    handle.join().expect("server thread panicked").expect("server errored");
}

#[test]
fn submit_stream_fetch_and_store_backed_repeat_are_byte_identical() {
    let store = fresh_dir("basic-store");
    let opts = server_opts("basic", &store);
    let socket = opts.socket.clone();
    let control = ServerControl::default();
    let server = spawn_server(opts, control.clone());

    let mut client = Client::connect(&socket);
    let t1 = client.submit("fig2");
    let doc1 = client.wait_and_fetch(t1);
    assert!(doc1.contains("\"suite\":"), "results look like a stats document: {doc1}");

    // Same figure again on the same connection: everything comes from
    // the store, and the document is byte-identical.
    let t2 = client.submit("fig2");
    assert_ne!(t1, t2, "tickets are unique");
    let doc2 = client.wait_and_fetch(t2);
    assert_eq!(doc1, doc2, "store-served repeat must be byte-identical");

    drain_and_join(&control, server);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn submissions_past_the_queue_limit_are_shed_with_busy() {
    let store = fresh_dir("busy-store");
    let opts = ServerOptions { queue_limit: 1, ..server_opts("busy", &store) };
    let socket = opts.socket.clone();
    let control = ServerControl::default();
    let server = spawn_server(opts, control.clone());

    let mut client = Client::connect(&socket);
    // fig2 has more than one cell, so it cannot fit a 1-cell queue.
    client.send("{\"op\":\"submit\",\"figure\":\"fig2\"}");
    let ev = client.recv().expect("response");
    assert!(ev.contains("\"event\":\"busy\""), "expected busy shedding, got: {ev}");
    assert!(ev.contains("\"limit\":1"), "busy names the limit: {ev}");
    // The server is still healthy: status answers.
    client.send("{\"op\":\"status\"}");
    let st = client.recv().expect("status");
    assert!(st.contains("\"event\":\"status\""), "{st}");

    drain_and_join(&control, server);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn abort_restart_resubmit_converges_to_the_uninterrupted_document() {
    // Reference: an uninterrupted run on its own store.
    let ref_store = fresh_dir("conv-ref-store");
    let ref_opts = server_opts("conv-ref", &ref_store);
    let ref_socket = ref_opts.socket.clone();
    let ref_control = ServerControl::default();
    let ref_server = spawn_server(ref_opts, ref_control.clone());
    let mut ref_client = Client::connect(&ref_socket);
    let t = ref_client.submit("fig2");
    let reference = ref_client.wait_and_fetch(t);
    drain_and_join(&ref_control, ref_server);

    // Crash run: abort the server mid-grid (workers=1 so cells finish
    // one at a time), dropping all still-queued work on the floor.
    let store = fresh_dir("conv-store");
    let opts = ServerOptions { workers: 1, ..server_opts("conv-a", &store) };
    let socket = opts.socket.clone();
    let control = ServerControl::default();
    let server = spawn_server(opts, control.clone());
    let mut client = Client::connect(&socket);
    let _ = client.submit("fig2");
    // Wait for the first finished cell, then pull the plug.
    loop {
        match client.recv() {
            Some(ev) if ev.contains("\"event\":\"cell\"") => break,
            Some(_) => {}
            None => break, // server already gone
        }
    }
    control.abort.store(true, Ordering::Relaxed);
    server.join().expect("server thread panicked").expect("server errored");

    // Restart over the same store; resubmit; the merged (store + fresh
    // simulation) document must equal the uninterrupted reference.
    let opts2 = server_opts("conv-b", &store);
    let socket2 = opts2.socket.clone();
    let control2 = ServerControl::default();
    let server2 = spawn_server(opts2, control2.clone());
    let mut client2 = Client::connect(&socket2);
    let t2 = client2.submit("fig2");
    let recovered = client2.wait_and_fetch(t2);
    assert_eq!(
        recovered, reference,
        "restart + resubmit must converge to the uninterrupted run's bytes"
    );
    drain_and_join(&control2, server2);

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&ref_store);
}

#[test]
fn two_servers_racing_one_store_agree_byte_for_byte() {
    let store = fresh_dir("race-store");
    let opts_a = server_opts("race-a", &store);
    let opts_b = server_opts("race-b", &store);
    let (sock_a, sock_b) = (opts_a.socket.clone(), opts_b.socket.clone());
    let (ctl_a, ctl_b) = (ServerControl::default(), ServerControl::default());
    let server_a = spawn_server(opts_a, ctl_a.clone());
    let server_b = spawn_server(opts_b, ctl_b.clone());

    // Submit the same grid to both servers concurrently: their store
    // writers race on the same directory, serialized per entry by the
    // lock files.
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(&sock_b);
        let t = c.submit("fig2");
        c.wait_and_fetch(t)
    });
    let mut c = Client::connect(&sock_a);
    let t = c.submit("fig2");
    let doc_a = c.wait_and_fetch(t);
    let doc_b = worker.join().expect("client thread panicked");
    assert_eq!(doc_a, doc_b, "racing servers must agree on the document bytes");

    drain_and_join(&ctl_a, server_a);
    drain_and_join(&ctl_b, server_b);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn injected_client_disconnect_kills_the_connection_not_the_work() {
    let store = fresh_dir("disc-store");
    let opts = ServerOptions {
        faults: FaultPlan::parse("disconnect@0").unwrap(),
        ..server_opts("disc", &store)
    };
    let socket = opts.socket.clone();
    let control = ServerControl::default();
    let server = spawn_server(opts, control.clone());

    // This client is forcibly disconnected while cell 0's event is being
    // streamed; the stream must end (EOF), not hang.
    let mut doomed = Client::connect(&socket);
    let ticket = doomed.submit("fig2");
    // Drain events until the injected disconnect EOFs the stream.
    while doomed.recv().is_some() {}

    // The grid keeps running server-side; a fresh connection fetches the
    // complete document (polling through pending while it finishes).
    let mut fresh = Client::connect(&socket);
    let doc = fresh.fetch(ticket);
    assert!(doc.contains("\"cells\":"), "recovered document has cells: {doc}");

    drain_and_join(&control, server);
    let _ = std::fs::remove_dir_all(&store);
}

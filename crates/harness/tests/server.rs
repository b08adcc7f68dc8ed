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
//! 6. **Server == pool**: a served figure's document is byte-identical to
//!    the `stats_json` of the same grid run through `run_jobs`.
//!
//! Every test drives the shipped protocol client, [`Client`].

use drs_harness::{
    figures, run_jobs, Client, ClientError, FaultPlan, Refusal, ResultsFile, RunOptions, Scale,
    Server, ServerControl, ServerOptions,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

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

/// A server running on its own thread.
struct Running {
    socket: PathBuf,
    control: ServerControl,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(opts: ServerOptions) -> Running {
        let (socket, control) = (opts.socket.clone(), ServerControl::default());
        let ctl = control.clone();
        let handle = std::thread::spawn(move || Server::run_controlled(opts, &ctl));
        Running { socket, control, handle }
    }

    /// Connect with a 30 s silence limit per event (a hung test beats a
    /// deadlocked CI).
    fn connect(&self) -> Client {
        Client::connect(&self.socket, Some(Duration::from_secs(30))).expect("connect and hello")
    }

    /// Graceful drain (or abrupt abort), then join.
    fn stop(self, abort: bool) {
        let flag = if abort { &self.control.abort } else { &self.control.drain };
        flag.store(true, Ordering::Relaxed);
        self.handle.join().expect("server thread panicked").expect("server errored");
    }
}

/// Submit fig2, wait for its `done`, and fetch the document.
fn fig2(client: &mut Client) -> (u64, String) {
    let ticket = client.submit("fig2").expect("submission accepted").ticket;
    client.wait(ticket, |_| {}).expect("ticket done");
    (ticket, client.fetch(ticket).expect("results document"))
}

#[test]
fn submit_stream_fetch_and_store_backed_repeat_are_byte_identical() {
    let store = fresh_dir("basic-store");
    let server = Running::start(server_opts("basic", &store));

    let mut client = server.connect();
    let (t1, doc1) = fig2(&mut client);
    assert!(doc1.contains("\"suite\":"), "results look like a stats document: {doc1}");

    // Same figure again on the same connection: everything comes from
    // the store, and the document is byte-identical.
    let (t2, doc2) = fig2(&mut client);
    assert_ne!(t1, t2, "tickets are unique");
    assert_eq!(doc1, doc2, "store-served repeat must be byte-identical");

    server.stop(false);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn submissions_past_the_queue_limit_are_shed_with_busy() {
    let store = fresh_dir("busy-store");
    let server = Running::start(ServerOptions { queue_limit: 1, ..server_opts("busy", &store) });

    let mut client = server.connect();
    // fig2 has more than one cell, so it cannot fit a 1-cell queue.
    match client.submit("fig2") {
        Err(ClientError::Refused(Refusal::Busy { limit: 1 })) => {}
        other => panic!("expected busy shedding naming the limit, got: {other:?}"),
    }
    // The server is still healthy: status answers.
    client.send("{\"op\":\"status\"}").expect("send status");
    let st = client.recv().expect("status");
    assert_eq!(st.kind(), "status", "{}", st.line);

    server.stop(false);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn abort_restart_resubmit_converges_to_the_uninterrupted_document() {
    // Reference: an uninterrupted run on its own store.
    let ref_store = fresh_dir("conv-ref-store");
    let ref_server = Running::start(server_opts("conv-ref", &ref_store));
    let (_, reference) = fig2(&mut ref_server.connect());
    ref_server.stop(false);

    // Crash run: abort the server mid-grid (workers=1 so cells finish
    // one at a time), dropping all still-queued work on the floor.
    let store = fresh_dir("conv-store");
    let server = Running::start(ServerOptions { workers: 1, ..server_opts("conv-a", &store) });
    let mut client = server.connect();
    client.submit("fig2").expect("submission accepted");
    // Wait for the first finished cell, then pull the plug.
    loop {
        match client.recv() {
            Ok(ev) if ev.kind() == "cell" => break,
            Ok(_) => {}
            Err(ClientError::Closed) => break, // server already gone
            Err(e) => panic!("{e}"),
        }
    }
    server.stop(true);

    // Restart over the same store; resubmit; the merged (store + fresh
    // simulation) document must equal the uninterrupted reference.
    let server2 = Running::start(server_opts("conv-b", &store));
    let (_, recovered) = fig2(&mut server2.connect());
    assert_eq!(
        recovered, reference,
        "restart + resubmit must converge to the uninterrupted run's bytes"
    );
    server2.stop(false);

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&ref_store);
}

#[test]
fn two_servers_racing_one_store_agree_byte_for_byte() {
    let store = fresh_dir("race-store");
    let server_a = Running::start(server_opts("race-a", &store));
    let server_b = Running::start(server_opts("race-b", &store));

    // Submit the same grid to both servers concurrently: their store
    // writers race on the same directory, serialized per entry by the
    // lock files.
    let (doc_a, doc_b) = std::thread::scope(|s| {
        let b = s.spawn(|| fig2(&mut server_b.connect()).1);
        let doc_a = fig2(&mut server_a.connect()).1;
        (doc_a, b.join().expect("client thread panicked"))
    });
    assert_eq!(doc_a, doc_b, "racing servers must agree on the document bytes");

    server_a.stop(false);
    server_b.stop(false);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn injected_client_disconnect_kills_the_connection_not_the_work() {
    let store = fresh_dir("disc-store");
    let server = Running::start(ServerOptions {
        faults: FaultPlan::parse("disconnect@0").unwrap(),
        ..server_opts("disc", &store)
    });

    // This client is forcibly disconnected while cell 0's event is being
    // streamed; the stream must end (EOF), not hang.
    let mut doomed = server.connect();
    let ticket = doomed.submit("fig2").expect("submission accepted").ticket;
    // Drain events until the injected disconnect EOFs the stream.
    loop {
        match doomed.recv() {
            Ok(_) => {}
            Err(ClientError::Closed) => break,
            Err(e) => panic!("expected end of stream, got: {e}"),
        }
    }

    // The grid keeps running server-side; a fresh connection fetches the
    // complete document (polling through pending while it finishes).
    let doc = server.connect().fetch(ticket).expect("results document");
    assert!(doc.contains("\"cells\":"), "recovered document has cells: {doc}");

    server.stop(false);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn served_document_is_byte_identical_to_the_pool_document() {
    let jobs = figures::fig2(&tiny_scale()).jobs;
    let figures_of = vec![vec!["fig2".to_string()]; jobs.len()];
    let report = run_jobs(&jobs, &RunOptions::serial());
    let pooled = ResultsFile::from_report("fig2", 1, report, figures_of).stats_json();

    let store = fresh_dir("pool-store");
    let server = Running::start(server_opts("pool", &store));
    let (_, doc) = fig2(&mut server.connect());
    assert_eq!(doc, pooled, "the server must emit the pool's stats document byte for byte");

    server.stop(false);
    let _ = std::fs::remove_dir_all(&store);
}

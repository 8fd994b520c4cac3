//! The hostile-client marathon: the service-edge analogue of the
//! chaos soak. PR 5 proved the daemon survives its *tenants*; this
//! suite proves it survives its *clients*.
//!
//! - ≥64 concurrent seeded [`ChaosClient`]s (slow-loris drip-feeding,
//!   garbage bytes, oversized lines, mid-line disconnects) hammer a
//!   daemon that is simultaneously serving ≥16 healthy tenants over
//!   real TCP — and every healthy transcript stays byte-identical to a
//!   solo run, every chaos reply is well-formed (`ok`/`err`, never
//!   torn), and every rejection is a typed counter in `health`;
//! - overload shedding beyond the connection cap is a typed
//!   `err overloaded retry_after_ms=N`, and a [`DaemonClient`] rides
//!   back in with `request_with_retry` once load drops (same for the
//!   session cap);
//! - `shutdown` drains: a client blocked on `cmd <id> c` against a spin
//!   tenant still receives its full reply when another client shuts the
//!   daemon down;
//! - framing abuse (oversize, floods, invalid UTF-8, NULs, bare `\r`,
//!   embedded `\n`) is rejected with typed errors, escalating to
//!   quarantine, without ever desynchronizing a well-behaved stream;
//! - proptest: arbitrary byte streams — in-process into `handle_line`
//!   and over real TCP — always produce one typed reply per request or
//!   a clean hangup, never a panic, never a stuck server.
//!
//! Memory boundedness under floods is proven structurally in
//! `ldb_suite::net` (the reader's pending buffer never exceeds one
//! chunk past the cap) — here the megabyte-line test confirms the
//! quarantine that bound implies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use ldb_suite::core::Ldb;
use ldb_suite::daemon::{self, Daemon, DaemonClient, DaemonConfig, RetryPolicy};
use ldb_suite::machine::Arch;
use ldb_suite::net::{BoundedLineReader, ConnLimits, LineOutcome, DRAIN_BUDGET_MULT};
use ldb_suite::trace::seeded::splitmix64;
use ldb_suite::trace::{Layer, Trace};
use proptest::prelude::*;

/// These tests saturate CPUs and sockets; run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bind an ephemeral port and serve `cfg` on a background thread.
fn serve(cfg: DaemonConfig) -> (Arc<Daemon>, SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    serve_with_trace(cfg, Trace::off())
}

fn serve_with_trace(
    cfg: DaemonConfig,
    trace: Trace,
) -> (Arc<Daemon>, SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    let daemon = Arc::new(Daemon::with_trace(cfg, trace));
    let serving = {
        let daemon = Arc::clone(&daemon);
        thread::spawn(move || daemon.serve(listener))
    };
    (daemon, addr, serving)
}

/// Pull one unsigned counter out of a health JSON document.
fn counter(json: &str, key: &str) -> u64 {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no counter `{key}` in {json}"))
}

/// Read one `\n`-terminated line (or EOF) from a raw test socket,
/// polling with short read timeouts until `budget` is spent.
///
/// The raw-socket tests used to arm one long `SO_RCVTIMEO` and block —
/// but on the virtualized kernels these tests run under, a timed
/// blocking read can miss the wakeup for data that races (or even
/// precedes) it and return `WouldBlock` at expiry with the reply still
/// sitting in the receive queue. A fresh `read()` entry always sees
/// queued data, so the tests poll instead of trusting one long block.
/// Returns the line (`""` on EOF) or the last error once over budget.
fn poll_line(r: &mut BufReader<TcpStream>, budget: Duration) -> std::io::Result<String> {
    let deadline = std::time::Instant::now() + budget;
    r.get_ref().set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut line = String::new();
    loop {
        // `read_line` appends across retries, so a line split by a
        // timeout mid-read is reassembled rather than torn.
        match r.read_line(&mut line) {
            Ok(_) => return Ok(line),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && std::time::Instant::now() < deadline => {}
            Err(e) => return Err(e),
        }
    }
}

/// The healthy workload (the marathon's inspection-heavy script),
/// ending with the tenant's own machine-readable health report.
const SCRIPT: &str = "\
b clamp
c
bt
p calls
p p
e v * 2 + 1
s
bt
regs
c
info health --json
";

/// A solo single-thread run of the healthy workload: the interference
/// baseline, built with the daemon's own session builder.
fn solo_healthy(arch: Arch) -> String {
    let mut ldb = Ldb::new();
    let build = daemon::session_builder(arch, daemon::PROG_COUNT, None, None, 0);
    build(&mut ldb).unwrap_or_else(|e| panic!("{arch}: solo build: {e}"));
    ldb_suite::core::script::run_script(&mut ldb, SCRIPT)
}

/// The tenant's own final health report: the last `{…}` transcript line.
fn embedded_health(transcript: &str) -> String {
    transcript
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no health json in transcript:\n{transcript}"))
        .to_string()
}

const N_HEALTHY: usize = 16;
const N_CHAOS: usize = 64;
const MARATHON_REQUEST_CAP: usize = 512;

struct HealthyReport {
    i: usize,
    transcript: String,
    health_reply: String,
    close_reply: String,
}

#[test]
fn hostile_marathon_64_chaos_clients_against_16_healthy_tenants() {
    let _serial = lock();
    // Interference baselines first (solo by construction).
    let baselines: Vec<(Arch, String)> =
        Arch::ALL.iter().map(|&a| (a, solo_healthy(a))).collect();
    let baseline = |arch: Arch| -> &str {
        baselines.iter().find(|(a, _)| *a == arch).map(|(_, t)| t.as_str()).unwrap()
    };

    let (_daemon, addr, serving) = serve(DaemonConfig {
        max_sessions: N_HEALTHY,
        // Healthy tenants run un-deadlined: the marathon's point is
        // load, and load makes wall-clock deadlines flaky.
        watchdog: None,
        limits: ConnLimits {
            max_conns: 200,
            max_request_bytes: MARATHON_REQUEST_CAP,
            ..ConnLimits::default()
        },
        ..Default::default()
    });

    // Everyone — healthy drivers and attackers — starts together, so
    // the hostile fleet is live for the whole healthy workload.
    let start = Arc::new(Barrier::new(N_HEALTHY + N_CHAOS));
    let done = Arc::new(AtomicBool::new(false));

    let healthy: Vec<thread::JoinHandle<HealthyReport>> = (0..N_HEALTHY)
        .map(|i| {
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let arch = Arch::ALL[i % Arch::ALL.len()];
                let mut c = DaemonClient::connect(addr).expect("healthy connect");
                start.wait();
                let id = c.request(&format!("open {arch}")).expect("open");
                let transcript = c
                    .request(&format!("cmd {id} {}", daemon::escape_line(SCRIPT)))
                    .expect("cmd");
                let health_reply = c.request(&format!("health {id}")).expect("health");
                let close_reply = c.request(&format!("close {id}")).expect("close");
                HealthyReport { i, transcript, health_reply, close_reply }
            })
        })
        .collect();

    let chaos: Vec<thread::JoinHandle<Vec<(ChaosScenario, ChaosOutcome)>>> = (0..N_CHAOS)
        .map(|i| {
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                start.wait();
                let mut results = Vec::new();
                let mut round = 0u64;
                // Keep attacking (fresh connection and scenario each
                // round) until the healthy fleet is done.
                while !done.load(Ordering::Relaxed) && round < 64 {
                    let seed = (i as u64) * 131 + round * 7 + 1;
                    let mut c = ChaosClient::new(addr, seed);
                    let scenario = c.scenario();
                    results.push((scenario, c.run(MARATHON_REQUEST_CAP)));
                    round += 1;
                }
                results
            })
        })
        .collect();

    let reports: Vec<HealthyReport> =
        healthy.into_iter().map(|h| h.join().expect("healthy driver panicked")).collect();
    done.store(true, Ordering::Relaxed);
    let outcomes: Vec<(ChaosScenario, ChaosOutcome)> = chaos
        .into_iter()
        .flat_map(|h| h.join().expect("chaos driver panicked"))
        .collect();

    // Zero cross-session interference: byte-identical to the solo runs,
    // with 64 hostile connections live the whole time.
    for r in &reports {
        let arch = Arch::ALL[r.i % Arch::ALL.len()];
        assert_eq!(
            r.transcript,
            baseline(arch),
            "tenant {} ({arch}): healthy transcript diverged from solo run",
            r.i
        );
        assert_eq!(
            r.health_reply.trim(),
            embedded_health(&r.transcript),
            "tenant {}: daemon health diverges from the tenant's own report",
            r.i
        );
        assert!(
            r.health_reply.contains("\"quarantined_commands\":0"),
            "tenant {}: a command panicked: {}",
            r.i,
            r.health_reply
        );
        assert_eq!(r.close_reply.trim(), "closed client-request", "tenant {}", r.i);
    }

    // Every reply the server produced under attack was well-formed.
    let mut per_scenario = [(0u64, ChaosOutcome::default()); ChaosScenario::ALL.len()];
    for (scenario, out) in &outcomes {
        let i = ChaosScenario::ALL.iter().position(|s| s == scenario).unwrap();
        per_scenario[i].0 += 1;
        let agg = &mut per_scenario[i].1;
        agg.requests_sent += out.requests_sent;
        agg.replies_ok += out.replies_ok;
        agg.replies_err += out.replies_err;
        agg.malformed_replies += out.malformed_replies;
        agg.hangups += out.hangups;
    }
    let torn: u64 = per_scenario.iter().map(|(_, o)| o.malformed_replies).sum();
    assert_eq!(torn, 0, "server produced torn replies under attack: {per_scenario:?}");
    for (i, (rounds, _)) in per_scenario.iter().enumerate() {
        assert!(*rounds > 0, "scenario {:?} never ran", ChaosScenario::ALL[i]);
    }
    let sc = |s: ChaosScenario| {
        &per_scenario[ChaosScenario::ALL.iter().position(|&x| x == s).unwrap()].1
    };
    // Polite drip clients get real service; offenders get typed errs
    // and (for floods/truncation) hangups.
    assert!(sc(ChaosScenario::Drip).replies_ok > 0, "{per_scenario:?}");
    assert!(sc(ChaosScenario::Oversize).replies_err > 0, "{per_scenario:?}");
    assert!(sc(ChaosScenario::Garbage).replies_err > 0, "{per_scenario:?}");
    assert!(sc(ChaosScenario::SlowLoris).hangups > 0, "{per_scenario:?}");
    assert!(sc(ChaosScenario::Truncate).hangups > 0, "{per_scenario:?}");

    // The daemon outlived the attack, and every rejection is a typed
    // counter in the health document.
    let mut probe = DaemonClient::connect(addr).expect("daemon died during the marathon");
    assert_eq!(probe.request("ping").expect("ping"), "pong");
    let health = probe.request("health").expect("daemon health");
    assert_eq!(counter(&health, "sessions"), 0, "{health}");
    assert_eq!(counter(&health, "leaked_workers"), 0, "{health}");
    assert!(counter(&health, "oversized") > 0, "{health}");
    assert!(counter(&health, "malformed") > 0, "{health}");
    assert!(counter(&health, "quarantined") > 0, "{health}");
    assert_eq!(counter(&health, "shed"), 0, "80 conns under a 200 cap shed: {health}");
    assert!(counter(&health, "requests") > 0, "{health}");

    assert_eq!(probe.request("shutdown").expect("shutdown").trim(), "shutdown 0");
    serving.join().expect("serve thread panicked").expect("serve failed");
}

#[test]
fn overload_shedding_is_typed_and_retry_recovers() {
    let _serial = lock();
    let (_daemon, addr, serving) = serve(DaemonConfig {
        limits: ConnLimits { max_conns: 2, retry_after_ms: 25, ..ConnLimits::default() },
        ..Default::default()
    });

    // Fill the cap (a request round-trip proves each was accepted).
    let mut c1 = DaemonClient::connect(addr).unwrap();
    assert_eq!(c1.request("ping").unwrap(), "pong");
    let mut c2 = DaemonClient::connect(addr).unwrap();
    assert_eq!(c2.request("ping").unwrap(), "pong");

    // The next connection is shed: one typed err with the backoff hint,
    // written unprompted, then a clean hangup.
    let shed = TcpStream::connect(addr).unwrap();
    let line = poll_line(&mut BufReader::new(shed), Duration::from_secs(5)).unwrap();
    assert!(
        line.starts_with("err overloaded retry_after_ms=25"),
        "shed reply: `{line}`"
    );

    // A retrying client rides through: its first attempts are shed, a
    // slot frees, and the retry (fresh connection each time) lands.
    let mut c3 = DaemonClient::connect(addr).unwrap();
    drop(c1); // free a slot; the handler notices EOF within its poll
    let policy = RetryPolicy { attempts: 40, backoff: Duration::from_millis(10) };
    assert_eq!(c3.request_with_retry("ping", &policy).expect("retry never landed"), "pong");

    let health = c2.request("health").unwrap();
    assert!(counter(&health, "shed") >= 1, "{health}");
    assert_eq!(c2.request("shutdown").unwrap().trim(), "shutdown 0");
    serving.join().unwrap().unwrap();
}

#[test]
fn session_cap_rejection_recovers_with_retry() {
    let _serial = lock();
    let (_daemon, addr, serving) =
        serve(DaemonConfig { max_sessions: 1, ..Default::default() });

    let mut a = DaemonClient::connect(addr).unwrap();
    let id = a.request("open m68k").expect("first open");
    let mut b = DaemonClient::connect(addr).unwrap();
    let err = b.request("open m68k").expect_err("cap should reject");
    assert!(err.contains("session limit reached"), "{err}");

    // B retries in the background; A eventually closes, freeing the
    // slot.
    let retrying = thread::spawn(move || {
        let policy = RetryPolicy { attempts: 20, backoff: Duration::from_millis(50) };
        b.request_with_retry("open m68k", &policy)
    });
    thread::sleep(Duration::from_millis(300));
    assert_eq!(a.request(&format!("close {id}")).unwrap().trim(), "closed client-request");
    let new_id = retrying.join().unwrap().expect("retry never claimed the freed slot");
    assert!(new_id.trim().parse::<u64>().is_ok(), "bad session id `{new_id}`");

    let mut probe = DaemonClient::connect(addr).unwrap();
    assert_eq!(probe.request("shutdown").unwrap().trim(), "shutdown 1");
    serving.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_the_reply_owed_to_a_blocked_client() {
    let _serial = lock();
    let (_daemon, addr, serving) = serve(DaemonConfig {
        limits: ConnLimits { drain: Duration::from_secs(10), ..ConnLimits::default() },
        ..Default::default()
    });

    // A spin tenant with no watchdog: `c` blocks until something
    // cancels it.
    let mut a = DaemonClient::connect(addr).unwrap();
    let id = a.request("open m68k prog=spin watchdog_ms=0").expect("open spin");
    let blocked = thread::spawn(move || a.request(&format!("cmd {id} c")));
    thread::sleep(Duration::from_millis(300));

    // Shutdown cancels the in-flight command; the drain window lets A's
    // handler finish writing the transcript A is owed before the socket
    // is cut.
    let mut b = DaemonClient::connect(addr).unwrap();
    assert_eq!(b.request("shutdown").unwrap().trim(), "shutdown 1");
    let transcript = blocked
        .join()
        .unwrap()
        .expect("blocked client lost its reply to shutdown");
    assert!(
        transcript.contains("cancelled by session watchdog"),
        "no cancellation in drained reply:\n{transcript}"
    );
    serving.join().unwrap().unwrap();
}

#[test]
fn oversize_requests_get_typed_errs_then_quarantine() {
    let _serial = lock();
    let trace = Trace::ring(256);
    let (_daemon, addr, serving) = serve_with_trace(
        DaemonConfig {
            limits: ConnLimits {
                max_request_bytes: 64,
                strikes: 2,
                ..ConnLimits::default()
            },
            ..Default::default()
        },
        trace.clone(),
    );

    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    let mut big = vec![b'a'; 100];
    big.push(b'\n');

    // First offense: a typed err, and the connection keeps working.
    w.write_all(&big).unwrap();
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
    assert_eq!(line.trim_end(), "err request too long (100 bytes, cap 64)");

    // Second offense: quarantine (strikes=2), then hangup.
    w.write_all(&big).unwrap();
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
    assert_eq!(line.trim_end(), "err connection quarantined (2 protocol offenses)");
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
    assert_eq!(line, "", "expected hangup after quarantine, got `{line}`");

    // The offender's fate never touched anyone else, and everything is
    // journaled and counted.
    let mut probe = DaemonClient::connect(addr).unwrap();
    assert_eq!(probe.request("ping").unwrap(), "pong");
    let health = probe.request("health").unwrap();
    assert_eq!(counter(&health, "oversized"), 2, "{health}");
    assert_eq!(counter(&health, "quarantined"), 1, "{health}");
    assert_eq!(counter(&health, "accepted"), 2, "{health}");
    assert_eq!(trace.kind_count(Layer::Net, "oversize"), 2);
    assert_eq!(trace.kind_count(Layer::Net, "quarantine"), 1);
    assert!(trace.kind_count(Layer::Net, "accept") >= 2);

    assert_eq!(probe.request("shutdown").unwrap().trim(), "shutdown 0");
    serving.join().unwrap().unwrap();
}

#[test]
fn a_megabyte_line_floods_into_quarantine_not_memory() {
    let _serial = lock();
    let (_daemon, addr, serving) = serve(DaemonConfig {
        limits: ConnLimits { max_request_bytes: 1024, ..ConnLimits::default() },
        ..Default::default()
    });

    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    // A megabyte with no newline: the reader drains (never buffers)
    // until the budget, then quarantines. The write may be cut off
    // mid-flood — that *is* the defense working.
    let big = vec![b'x'; 1 << 20];
    let _ = w.write_all(&big);
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap_or_default();
    if !line.is_empty() {
        assert!(
            line.starts_with("err connection quarantined"),
            "flood reply: `{line}`"
        );
    }

    let mut probe = DaemonClient::connect(addr).expect("daemon died in the flood");
    assert_eq!(probe.request("ping").unwrap(), "pong");
    let health = probe.request("health").unwrap();
    assert!(counter(&health, "quarantined") >= 1, "{health}");
    assert_eq!(probe.request("shutdown").unwrap().trim(), "shutdown 0");
    serving.join().unwrap().unwrap();
}

#[test]
fn idle_connections_are_disconnected_with_a_typed_err() {
    let _serial = lock();
    let (_daemon, addr, serving) = serve(DaemonConfig {
        limits: ConnLimits { idle: Duration::from_millis(250), ..ConnLimits::default() },
        ..Default::default()
    });

    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    w.write_all(b"ping\n").unwrap();
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
    assert_eq!(line.trim_end(), "ok pong");

    // Go quiet: the idle clock fires, typed, then hangup.
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
    assert_eq!(line.trim_end(), "err idle timeout, disconnecting");
    let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
    assert_eq!(line, "", "expected hangup after idle close, got `{line}`");

    let mut probe = DaemonClient::connect(addr).unwrap();
    let health = probe.request("health").unwrap();
    assert!(counter(&health, "idle_disconnects") >= 1, "{health}");
    assert_eq!(probe.request("shutdown").unwrap().trim(), "shutdown 0");
    serving.join().unwrap().unwrap();
}

#[test]
fn hostile_framing_gets_typed_errs_without_desync() {
    let _serial = lock();
    let (_daemon, addr, serving) = serve(DaemonConfig::default());

    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    let mut roundtrip = |req: &[u8]| -> String {
        w.write_all(req).unwrap();
        let line = poll_line(&mut r, Duration::from_secs(5)).unwrap();
        line.trim_end_matches('\n').to_string()
    };

    // Invalid UTF-8 is a typed offense, not a poisoned stream: the same
    // connection answers the next request normally.
    assert_eq!(roundtrip(b"\xff\xfe oops\n"), "err request is not valid UTF-8");
    assert_eq!(roundtrip(b"ping\r\n"), "ok pong"); // CRLF framing tolerated
    assert!(roundtrip(b"ping\0\n").starts_with("err unknown verb")); // NUL is data, not framing
    assert_eq!(roundtrip(b"\n"), "err empty request");
    assert_eq!(roundtrip(b"\r\n"), "err empty request");

    let health = roundtrip(b"health\n");
    assert!(counter(&health, "malformed") >= 1, "{health}");
    assert!(roundtrip(b"shutdown\n").contains("shutdown 0"), "{health}");
    serving.join().unwrap().unwrap();
}

#[test]
fn client_rejects_embedded_line_terminators_before_the_wire() {
    let _serial = lock();
    let (_daemon, addr, serving) = serve(DaemonConfig::default());

    let mut c = DaemonClient::connect(addr).unwrap();
    // A raw newline in the request would frame as two requests and
    // desynchronize every later reply; the client refuses it outright…
    let err = c.request("cmd 1 b clamp\nc").expect_err("embedded newline accepted");
    assert!(err.contains("line terminator"), "{err}");
    let err = c.request("cmd 1 b clamp\rc").expect_err("embedded CR accepted");
    assert!(err.contains("line terminator"), "{err}");
    // …and the connection is *not* desynchronized: nothing hit the wire.
    assert_eq!(c.request("ping").unwrap(), "pong");
    // The sanctioned path — escape_line — frames onto one line.
    let err = c.request(&format!("cmd 1 {}", daemon::escape_line("b clamp\nc"))).unwrap_err();
    assert!(err.contains("no session 1"), "{err}");

    assert_eq!(c.request("shutdown").unwrap().trim(), "shutdown 0");
    serving.join().unwrap().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Protocol fuzz, in-process: whatever bytes (lossily decoded) or
    /// unicode reaches `handle_line`, the reply is exactly one typed
    /// line — `ok …` or `err …`, no embedded newline, no panic.
    #[test]
    fn handle_line_always_produces_one_typed_reply(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        chars in prop::collection::vec(any::<char>(), 0..64),
    ) {
        let daemon = Daemon::new(DaemonConfig { max_sessions: 0, ..Default::default() });
        for line in [String::from_utf8_lossy(&bytes).into_owned(), chars.iter().collect()] {
            let reply = daemon.handle_line(&line);
            prop_assert!(
                reply.starts_with("ok ") || reply.starts_with("err "),
                "untyped reply `{reply}` for input `{line:?}`"
            );
            prop_assert!(!reply.contains('\n'), "unframed reply for input `{line:?}`");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Protocol fuzz over real TCP: arbitrary bytes (invalid UTF-8,
    /// NULs, bare `\r`, oversized lines) into a live daemon. Every
    /// reply line is typed; the connection either answers the trailing
    /// sentinel ping or was cleanly hung up (quarantine); the daemon
    /// never wedges or panics.
    #[test]
    fn arbitrary_tcp_byte_streams_get_typed_replies_or_clean_hangup(
        bytes in prop::collection::vec(any::<u8>(), 0..768),
    ) {
        let _serial = lock();
        let (_daemon, addr, serving) = serve(DaemonConfig {
            max_sessions: 0,
            limits: ConnLimits { max_request_bytes: 128, ..ConnLimits::default() },
            ..Default::default()
        });

        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        let _ = w.write_all(&bytes);
        // Terminate any partial line, then a sentinel we can wait for.
        let _ = w.write_all(b"\nping\n");
        loop {
            match poll_line(&mut r, Duration::from_secs(5)) {
                Ok(line) if line.is_empty() => break, // clean hangup (quarantine) — allowed
                Ok(line) => {
                    let line = line.trim_end_matches('\n');
                    prop_assert!(
                        line.starts_with("ok ") || line.starts_with("err "),
                        "untyped reply `{line}` for input {bytes:?}"
                    );
                    if line == "ok pong" {
                        break;
                    }
                }
                Err(e) => prop_assert!(false, "server stuck or dead: {e}"),
            }
        }

        // The daemon survived whatever that was.
        let mut probe = DaemonClient::connect(addr).expect("daemon died");
        let _ = probe.request("shutdown");
        serving.join().unwrap().unwrap();
    }
}

// ---------------------------------------------------------------------
// The hostile client: a seeded misbehaving TCP client, the service-edge
// sibling of the nub's `FaultyWire`.
// ---------------------------------------------------------------------

/// What one hostile connection did and saw — the harness asserts over
/// these in aggregate: every reply the server produced was well-formed,
/// and every ending was a reply or a clean hangup, never a wedge.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosOutcome {
    /// Newline-terminated requests this client sent (well- or
    /// ill-formed).
    pub requests_sent: u64,
    /// `ok …` replies received.
    pub replies_ok: u64,
    /// `err …` replies received.
    pub replies_err: u64,
    /// Reply lines that were neither — must stay zero.
    pub malformed_replies: u64,
    /// The server hung up (expected for quarantine/flood scenarios).
    pub hangups: u64,
}

/// A seeded misbehaving client — the TCP-side sibling of the nub's
/// `FaultyWire`. Each [`ChaosClient::run`] opens one connection and
/// replays a seed-determined scenario against it: drip-fed valid
/// requests, garbage bytes (invalid UTF-8, NULs, bare `\r` framing),
/// oversized lines, abrupt mid-line disconnects, or a slow-loris
/// unterminated drip. It never panics; everything it observed comes back
/// as a [`ChaosOutcome`].
#[derive(Debug)]
pub struct ChaosClient {
    addr: SocketAddr,
    rng: u64,
}

/// The scenario a seed maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Valid requests written one byte at a time with micro-stalls.
    Drip,
    /// Random garbage lines: invalid UTF-8, NULs, bare `\r`.
    Garbage,
    /// Lines past the request cap (repeat offenses court quarantine).
    Oversize,
    /// Half a request, then an abrupt disconnect.
    Truncate,
    /// An unterminated line fed a few bytes at a time, forever (until
    /// the server gives up).
    SlowLoris,
}

impl ChaosScenario {
    /// All scenarios, in seed order.
    pub const ALL: [ChaosScenario; 5] = [
        ChaosScenario::Drip,
        ChaosScenario::Garbage,
        ChaosScenario::Oversize,
        ChaosScenario::Truncate,
        ChaosScenario::SlowLoris,
    ];
}

impl ChaosClient {
    /// A client that will attack `addr` with the scenario `seed` maps
    /// to.
    pub fn new(addr: SocketAddr, seed: u64) -> ChaosClient {
        ChaosClient { addr, rng: seed.max(1) }
    }

    /// The scenario this client's seed selects.
    pub fn scenario(&self) -> ChaosScenario {
        ChaosScenario::ALL[(self.rng as usize) % ChaosScenario::ALL.len()]
    }

    /// The next draw: splitmix64 straight from the raw seed, so each
    /// seed keeps its scenario and its draw order.
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Open one connection and run the scenario to completion. Socket
    /// errors are expected outcomes (the server is allowed — sometimes
    /// required — to hang up on us) and are folded into the outcome.
    pub fn run(&mut self, request_cap: usize) -> ChaosOutcome {
        let scenario = self.scenario();
        let mut out = ChaosOutcome::default();
        let Ok(stream) = TcpStream::connect(self.addr) else {
            out.hangups += 1;
            return out;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
        let _ = stream.set_nodelay(true);
        let mut reader = match stream.try_clone() {
            Ok(s) => BoundedLineReader::new(s, 1 << 20),
            Err(_) => {
                out.hangups += 1;
                return out;
            }
        };
        let mut writer = stream;
        match scenario {
            ChaosScenario::Drip => {
                for _ in 0..2 + self.next() % 3 {
                    if !self.drip(&mut writer, b"ping\n", &mut out) {
                        return out;
                    }
                    out.requests_sent += 1;
                    self.read_reply(&mut reader, &mut out);
                }
            }
            ChaosScenario::Garbage => {
                for _ in 0..2 + self.next() % 4 {
                    let mut line: Vec<u8> = (0..1 + self.next() % 64)
                        .map(|_| {
                            // Anything but the terminator: invalid UTF-8
                            // continuation bytes, NULs, bare CRs.
                            let b = (self.next() % 256) as u8;
                            if b == b'\n' {
                                0xff
                            } else {
                                b
                            }
                        })
                        .collect();
                    line.push(b'\n');
                    if writer.write_all(&line).is_err() {
                        out.hangups += 1;
                        return out;
                    }
                    out.requests_sent += 1;
                    if !self.read_reply(&mut reader, &mut out) {
                        return out;
                    }
                }
            }
            ChaosScenario::Oversize => {
                // Keep offending until the server quarantines us.
                for _ in 0..8 {
                    let mut line = vec![b'x'; request_cap + 64];
                    line.push(b'\n');
                    if writer.write_all(&line).is_err() {
                        out.hangups += 1;
                        return out;
                    }
                    out.requests_sent += 1;
                    if !self.read_reply(&mut reader, &mut out) {
                        return out;
                    }
                }
            }
            ChaosScenario::Truncate => {
                let cut = 1 + (self.next() as usize) % 4;
                let _ = writer.write_all(&b"open mips"[..cut.min(9)]);
                let _ = writer.shutdown(std::net::Shutdown::Both);
                out.hangups += 1;
            }
            ChaosScenario::SlowLoris => {
                // An unterminated line, a few bytes at a time, until the
                // server stops accepting them. Bounded by the drain
                // budget: the server must flood-quarantine us long
                // before this loop ends on its own.
                let chunk = vec![b'z'; 256.max(request_cap / 8)];
                for _ in 0..DRAIN_BUDGET_MULT * 16 {
                    if writer.write_all(&chunk).is_err() {
                        out.hangups += 1;
                        return out;
                    }
                    std::thread::sleep(Duration::from_millis(1 + self.next() % 3));
                }
                // Server never hung up: finish the line and see what it
                // says.
                let _ = writer.write_all(b"\n");
                out.requests_sent += 1;
                self.read_reply(&mut reader, &mut out);
            }
        }
        out
    }

    /// Write `bytes` one byte at a time with seed-sized stalls; `false`
    /// means the server hung up mid-write.
    fn drip(&mut self, writer: &mut TcpStream, bytes: &[u8], out: &mut ChaosOutcome) -> bool {
        for &b in bytes {
            if writer.write_all(&[b]).is_err() {
                out.hangups += 1;
                return false;
            }
            if self.next().is_multiple_of(4) {
                std::thread::sleep(Duration::from_millis(self.next() % 3));
            }
        }
        true
    }

    /// Read one reply line and classify it; `false` means hangup (or
    /// nothing arrived before the timeout, which the caller treats the
    /// same — stop talking).
    fn read_reply<R: Read>(&mut self, reader: &mut BoundedLineReader<R>, out: &mut ChaosOutcome) -> bool {
        match reader.read_line() {
            LineOutcome::Line(bytes) => {
                let line = String::from_utf8_lossy(&bytes);
                if line.starts_with("ok ") || line == "ok" {
                    out.replies_ok += 1;
                } else if line.starts_with("err ") {
                    out.replies_err += 1;
                } else {
                    out.malformed_replies += 1;
                }
                true
            }
            LineOutcome::Eof | LineOutcome::Err(_) => {
                out.hangups += 1;
                false
            }
            LineOutcome::TimedOut => false,
            LineOutcome::Oversized { .. } | LineOutcome::Flooded { .. } => {
                out.malformed_replies += 1;
                false
            }
        }
    }
}

#[test]
fn chaos_seeds_cover_every_scenario() {
    let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let mut seen = [false; ChaosScenario::ALL.len()];
    for seed in 1..=32u64 {
        let c = ChaosClient::new(addr, seed);
        let i = ChaosScenario::ALL.iter().position(|&s| s == c.scenario()).unwrap();
        seen[i] = true;
    }
    assert!(seen.iter().all(|&s| s), "seeds 1..=32 miss a scenario: {seen:?}");
}

//! Graceful teardown of the multi-session daemon: shutdown arriving
//! while tenants are mid-command must cancel the in-flight work, detach
//! every live target within its deadline, journal a typed close reason
//! per tenant, and leave no thread behind. Idle eviction is the same
//! machinery with a different reason.
//!
//! Tests in this binary serialize on a file-local mutex: the leaked-
//! thread assertion counts the whole process's threads, so nothing else
//! may be spawning sessions concurrently.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ldb_suite::core::{
    CloseReason, SessionBuilder, SessionConfig, SessionError, SessionRegistry,
};
use ldb_suite::daemon::{self, Daemon, DaemonClient, DaemonConfig};
use ldb_suite::machine::Arch;
use ldb_suite::trace::{SharedBuf, Trace, TraceConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// A tenant builder that records its journal into a shared buffer the
/// test can read after teardown.
fn journaled_builder(arch: Arch, prog: &'static str) -> (SessionBuilder, SharedBuf, Trace) {
    let (trace, buf) = Trace::to_shared_buffer(TraceConfig::default());
    let inner = daemon::session_builder(arch, prog, None, None, 0);
    let t = trace.clone();
    let builder: SessionBuilder = Box::new(move |ldb| {
        ldb.set_trace(t);
        inner(ldb)
    });
    (builder, buf, trace)
}

/// Wait for the process's thread count to drop back to `baseline`
/// (teardown joins are asynchronous only for abandoned workers; a clean
/// shutdown must converge).
fn assert_threads_converge(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = thread_count();
        if now <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leaked threads: {now} alive, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn shutdown_mid_command_detaches_quarantines_and_journals_every_tenant() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();

    let registry = Arc::new(SessionRegistry::new(8));
    // Three wedge tenants (their `c` never returns on its own) and one
    // healthy tenant, each with its own journal.
    let mut bufs = Vec::new();
    let mut traces = Vec::new();
    let mut ids = Vec::new();
    for i in 0..4 {
        let prog = if i < 3 { daemon::PROG_SPIN } else { daemon::PROG_COUNT };
        let (builder, buf, trace) = journaled_builder(Arch::M68k, prog);
        // No watchdog: the commands stay wedged until shutdown cancels
        // them — exactly the mid-command state the daemon must survive.
        let id = registry
            .open(SessionConfig::default(), builder)
            .unwrap_or_else(|e| panic!("open {i}: {e}"));
        bufs.push(buf);
        traces.push(trace);
        ids.push(id);
    }
    assert_eq!(registry.len(), 4);

    // Drive the three wedge tenants into the middle of a command.
    let drivers: Vec<_> = ids[..3]
        .iter()
        .map(|&id| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.run(id, "c"))
        })
        .collect();
    // Let them reach the blocking continue.
    std::thread::sleep(Duration::from_millis(400));

    // Shutdown while they are mid-command.
    let closed = registry.close_all(CloseReason::Shutdown);
    assert_eq!(closed, 4, "every tenant must close");
    assert_eq!(registry.len(), 0);

    // The in-flight commands were cancelled, not abandoned: each driver
    // got its transcript back with the cancellation as a typed error.
    for d in drivers {
        let transcript = d.join().unwrap().expect("cancelled run still returns its transcript");
        assert!(
            transcript.contains("cancelled by session watchdog"),
            "in-flight command not cancelled:\n{transcript}"
        );
    }

    // Every tenant's journal carries its typed close reason.
    for (i, (buf, trace)) in bufs.iter().zip(&traces).enumerate() {
        trace.flush();
        let journal = buf.text();
        assert!(
            journal.contains("\"kind\":\"close\"") && journal.contains("\"reason\":\"shutdown\""),
            "tenant {i}: no typed close record in journal:\n{}",
            journal.lines().rev().take(5).collect::<Vec<_>>().join("\n")
        );
    }

    // A closed id answers nothing.
    assert!(matches!(registry.run(ids[0], "regs"), Err(SessionError::UnknownSession(_))));

    // No leaked threads: workers joined, nubs reclaimed (the spinning
    // targets exit once detached and unreachable).
    drop(registry);
    assert_threads_converge(baseline);
}

#[test]
fn idle_sessions_are_evicted_with_typed_reason() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = SessionRegistry::new(4);
    let (builder, buf, trace) = journaled_builder(Arch::Mips, daemon::PROG_COUNT);
    let id = registry.open(SessionConfig::default(), builder).unwrap();
    let transcript = registry.run(id, "b clamp\nc").unwrap();
    assert!(transcript.contains("breakpoint in clamp"), "{transcript}");

    // Not yet idle: a generous threshold evicts nothing.
    assert!(registry.evict_idle(Duration::from_secs(3600)).is_empty());
    assert_eq!(registry.len(), 1);

    // Everything is idle against a zero threshold.
    let evicted = registry.evict_idle(Duration::ZERO);
    assert_eq!(evicted, vec![id]);
    assert_eq!(registry.len(), 0);
    assert!(matches!(registry.run(id, "regs"), Err(SessionError::UnknownSession(_))));

    trace.flush();
    let journal = buf.text();
    assert!(
        journal.contains("\"kind\":\"close\"") && journal.contains("\"reason\":\"idle\""),
        "no typed idle-eviction record:\n{journal}"
    );
}

/// A busy tenant is not idle: eviction must skip a session whose lock is
/// held by an in-flight command rather than wait for it.
#[test]
fn eviction_skips_busy_tenants() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let registry = Arc::new(SessionRegistry::new(4));
    let (builder, _buf, _trace) = journaled_builder(Arch::M68k, daemon::PROG_SPIN);
    let id = registry.open(SessionConfig::default(), builder).unwrap();
    let driver = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || registry.run(id, "c"))
    };
    std::thread::sleep(Duration::from_millis(300));
    // Mid-command: even a zero idle threshold must not touch it.
    assert!(registry.evict_idle(Duration::ZERO).is_empty());
    assert_eq!(registry.len(), 1);
    // Clean up: shutdown cancels the wedged command.
    assert_eq!(registry.close_all(CloseReason::Shutdown), 1);
    let transcript = driver.join().unwrap().expect("run returns after cancel");
    assert!(transcript.contains("cancelled by session watchdog"), "{transcript}");
}

/// The README quickstart, end to end over real sockets: start the
/// daemon, attach two clients, debug, read health, shut down.
#[test]
fn tcp_daemon_serves_two_clients_and_shuts_down_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = Arc::new(Daemon::new(DaemonConfig {
        max_sessions: 4,
        watchdog: Some(Duration::from_secs(30)),
        ..Default::default()
    }));
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.serve(listener))
    };

    let mut alice = DaemonClient::connect(addr).unwrap();
    let mut bob = DaemonClient::connect(addr).unwrap();
    assert_eq!(alice.request("ping").unwrap(), "pong");

    let a = alice.request("open mips").unwrap();
    let b = bob.request("open vax").unwrap();
    assert_ne!(a, b, "tenants must get distinct ids");

    let t = alice.request(&format!("cmd {a} b clamp\\nc\\np calls")).unwrap();
    assert!(t.contains("breakpoint in clamp"), "{t}");
    let t = bob.request(&format!("cmd {b} b clamp\\nc\\nbt")).unwrap();
    assert!(t.contains("#0 clamp"), "{t}");

    let h = alice.request(&format!("health {a}")).unwrap();
    assert!(h.starts_with('{') && h.contains("\"watchdog_timeouts\":0"), "{h}");

    assert_eq!(bob.request(&format!("close {b}")).unwrap(), "closed client-request");
    // Alice never closed hers: shutdown sweeps it.
    assert_eq!(alice.request("shutdown").unwrap(), "shutdown 1");
    server.join().unwrap().unwrap();
    assert!(daemon.is_shut_down());
    assert_eq!(daemon.registry().len(), 0);
}

//! The daemon line protocol's framing layer: `escape_line`/
//! `unescape_line` must round-trip any payload (embedded carriage
//! returns, trailing backslashes, text that *looks* like an escape),
//! and the server must strip only the line terminator — CRLF clients
//! and whitespace-significant payloads both survive.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldb_suite::daemon::{escape_line, unescape_line, Daemon, DaemonClient, DaemonConfig};
use proptest::prelude::*;

/// Arbitrary payloads, weighted toward the characters the escaper cares
/// about: backslashes, both line terminators, and whitespace.
fn payload() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('\\'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just(' '),
            Just('n'),
            Just('r'),
            any::<char>(),
        ],
        0..64,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    /// Any payload — control characters, backslash runs, unicode —
    /// survives a round trip, and its escaped form never contains the
    /// line-framing characters.
    #[test]
    fn escape_round_trips_any_payload(s in payload()) {
        let escaped = escape_line(&s);
        prop_assert!(!escaped.contains('\n'), "framing byte escaped the escaper: {escaped:?}");
        prop_assert!(!escaped.contains('\r'), "CR must be escaped for CRLF clients: {escaped:?}");
        prop_assert_eq!(unescape_line(&escaped), s);
    }
}

#[test]
fn escape_covers_the_awkward_payloads() {
    // Embedded carriage return: escaped, not smuggled bare.
    assert_eq!(escape_line("a\rb"), "a\\rb");
    assert_eq!(unescape_line("a\\rb"), "a\rb");
    // Trailing backslash.
    assert_eq!(escape_line("x\\"), "x\\\\");
    assert_eq!(unescape_line(&escape_line("x\\")), "x\\");
    // Text that looks like an escape sequence (a literal `\` then `n`).
    assert_eq!(escape_line("a\\nb"), "a\\\\nb");
    assert_eq!(unescape_line(&escape_line("a\\nb")), "a\\nb");
    // CRLF inside a payload.
    assert_eq!(unescape_line(&escape_line("one\r\ntwo")), "one\r\ntwo");
    // Decoder leniency for older peers: unknown escapes pass the
    // escaped character through, a dangling backslash stays literal.
    assert_eq!(unescape_line("a\\qb"), "aqb");
    assert_eq!(unescape_line("tail\\"), "tail\\");
}

/// Only the line terminator is framing: a `cmd` payload keeps its
/// leading/trailing whitespace through dispatch (the old server trimmed
/// the escaped payload, silently altering whitespace-significant
/// commands).
#[test]
fn cmd_payload_whitespace_is_not_framing() {
    let daemon = Daemon::new(DaemonConfig {
        max_sessions: 3,
        watchdog: Some(Duration::from_secs(30)),
        ..Default::default()
    });
    let id = daemon.handle_line("open mips").strip_prefix("ok ").unwrap().to_string();
    let id2 = daemon.handle_line("open mips").strip_prefix("ok ").unwrap().to_string();

    // Identical commands on identical fresh tenants, with and without
    // edge whitespace in the payload: the script runner treats
    // blank-edge whitespace as insignificant, so both must succeed
    // identically — the payload must not be corrupted on the way there.
    let plain = daemon.handle_line(&format!("cmd {id} b clamp\\nc\\np calls"));
    let padded = daemon.handle_line(&format!("cmd {id2} \tb clamp\\nc\\np calls \t"));
    assert!(plain.starts_with("ok "), "{plain}");
    assert_eq!(plain, padded);

    // An escaped carriage return inside the payload reaches the tenant
    // as a real CR (the old decoder turned `\r` into a literal `r`,
    // corrupting the command).
    let t = daemon.handle_line(&format!("cmd {id} e 2+3\\r\\ne 10+20"));
    assert!(t.starts_with("ok "), "{t}");
    assert!(t.contains('5') && t.contains("30"), "{t}");
    assert!(!t.contains("error:"), "CR-bearing payload was corrupted: {t}");

    assert!(daemon.handle_line("shutdown").starts_with("ok "));
}

/// A CRLF-terminating client over a real socket: the server strips the
/// `\r` left behind by line splitting, and nothing else.
#[test]
fn crlf_client_over_tcp() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = Arc::new(Daemon::new(DaemonConfig {
        max_sessions: 2,
        watchdog: Some(Duration::from_secs(30)),
        ..Default::default()
    }));
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.serve(listener))
    };

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut request = |line: &str| -> String {
        write!(writer, "{line}\r\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = reply.trim_end_matches(['\r', '\n']);
        reply
            .strip_prefix("ok ")
            .unwrap_or_else(|| panic!("`{line}` failed: {reply}"))
            .to_string()
    };

    assert_eq!(request("ping"), "pong");
    let id = request("open vax");
    let t = unescape_line(&request(&format!("cmd {id} b clamp\\nc\\nbt")));
    assert!(t.contains("breakpoint in clamp"), "{t}");
    assert!(t.contains("#0 clamp"), "{t}");
    let h = request("health");
    assert!(h.contains("\"sessions\":1"), "{h}");
    assert!(request("shutdown").starts_with("shutdown"));
    server.join().unwrap().unwrap();
}

/// `DaemonClient::request` sends each line in one write. Sent as the
/// line and then its newline, the second segment waits on the first's
/// delayed ACK (Nagle) — about 40 ms a request on loopback, so 50 pings
/// took about 2 s.
#[test]
fn client_requests_do_not_stall_on_delayed_acks() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = Arc::new(Daemon::new(DaemonConfig::default()));
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.serve(listener))
    };
    let mut client = DaemonClient::connect(addr).unwrap();
    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(client.request("ping").unwrap(), "pong");
    }
    let took = started.elapsed();
    assert!(client.request("shutdown").unwrap().starts_with("shutdown"));
    server.join().unwrap().unwrap();
    assert!(took < Duration::from_secs(1), "50 sequential pings took {took:?}");
}

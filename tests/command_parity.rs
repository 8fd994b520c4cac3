//! One command language across three front ends: the `ldb` REPL over
//! stdin, `ldb --script`, and an `ldbd` tenant (`cmd <id> …` through an
//! in-process [`Daemon`]) run the same command sequence on the daemon's
//! built-in `count` program for mips, and every command must produce the
//! same text on all three. The sequence has a case for every row of the
//! command table; adding a row without a case fails the test.
//!
//! Counter reports (`info wire`, `info cache`, `info trace`, `info trace
//! tail`, `info ps`) are compared by shape only: their numbers depend on
//! the attach path (eager plan vs compiled lazy tables), the nub client's
//! poll timing, and whether the session keeps a flight recorder.

use std::collections::BTreeSet;
use std::io::Write;
use std::process::{Command, Stdio};

use ldb_suite::core::{lookup, COMMANDS};
use ldb_suite::daemon::{unescape_line, Daemon, DaemonConfig, PROG_COUNT};

/// Counter reports: compared by their first word only.
const COUNTER_REPORTS: &[&str] =
    &["info wire", "info cache", "info trace", "info trace tail", "info ps"];

fn write_prog() -> String {
    let dir = std::env::temp_dir().join("ldb-command-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("count.c");
    std::fs::write(&path, PROG_COUNT).unwrap();
    path.to_str().unwrap().to_string()
}

/// A daemon tenant on `count` for mips: the daemon and its session id.
fn tenant() -> (Daemon, String) {
    let daemon = Daemon::new(DaemonConfig::default());
    let id = ok(&daemon.handle_line("open mips prog=count"));
    (daemon, id)
}

fn ok(reply: &str) -> String {
    unescape_line(reply.strip_prefix("ok ").unwrap_or_else(|| panic!("daemon said: {reply}")))
}

/// One command's output through a daemon tenant (the transcript minus
/// its `(ldb) <line>` echo).
fn tenant_cmd(daemon: &Daemon, id: &str, line: &str) -> String {
    let transcript = ok(&daemon.handle_line(&format!("cmd {id} {line}")));
    let echo = format!("(ldb) {line}\n");
    transcript
        .strip_prefix(&echo)
        .unwrap_or_else(|| panic!("tenant transcript for `{line}` lacks its echo: {transcript:?}"))
        .to_string()
}

/// The hex address a `breakpoint at 0x…` or `(char *) 0x…` reply names.
fn hex_in(text: &str) -> String {
    text.split_whitespace()
        .find(|w| w.starts_with("0x"))
        .unwrap_or_else(|| panic!("no address in {text:?}"))
        .to_string()
}

/// Addresses the sequence needs, probed on a scratch tenant: `main`'s
/// breakpoint, line 9's stopping point, and `msg`.
fn probe() -> (String, String, String) {
    let (daemon, id) = tenant();
    let main = hex_in(&tenant_cmd(&daemon, &id, "b main"));
    let line9 = hex_in(&tenant_cmd(&daemon, &id, "bl 9"));
    tenant_cmd(&daemon, &id, "c");
    let msg = hex_in(&tenant_cmd(&daemon, &id, "e &msg[0]"));
    ok(&daemon.handle_line(&format!("close {id}")));
    (main, line9, msg)
}

/// The command sequence: at least one case per table row, in an order
/// where each command has something to act on.
fn cases() -> Vec<String> {
    let (main, line9, msg) = probe();
    let mut lines: Vec<String> = [
        "help",
        "info",
        "b main",
        "c",
        "call clamp(500)",
        &format!("d {main}"),
        "display calls",
        "b clamp 0 if v > 60",
        "c",
        "info",
        "p v",
        "e v * 2",
        &format!("x {msg} 16"),
        "bt",
        "f 1",
        "f 0",
        "regs",
        "checkpoint",
        "s",
        "rs",
        "n",
        "rn",
        "c",
        "rc",
        "fin",
        "w calls",
        "c",
        "dw calls",
        "info checkpoints",
        "undisplay 0",
        "bl 9",
        &format!("d {line9}"),
        &format!("ba {line9}"),
        "c",
        &format!("pc {line9}"),
        "ps 1 2 add",
        "ps {} loop",
        "p calls",
        "reload",
    ]
    .iter()
    .map(|l| l.to_string())
    .collect();
    lines.extend(COUNTER_REPORTS.iter().map(|l| l.to_string()));
    for l in ["__panic parity drill", "info health", "info health --json"] {
        lines.push(l.to_string());
    }
    lines
}

/// Outputs through the interactive REPL: everything between prompts.
fn via_repl(file: &str, lines: &[&str]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldb"))
        .args([file, "--arch", "mips"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ldb");
    let mut input = lines.join("\n");
    input.push_str("\nq\n");
    child.stdin.as_mut().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // Banner, one chunk per command, then the empty chunk `q` leaves.
    let chunks: Vec<&str> = stdout.split("(ldb) ").collect();
    assert_eq!(chunks.len(), lines.len() + 2, "REPL prompts:\n{stdout}");
    chunks[1..=lines.len()].iter().map(|s| s.to_string()).collect()
}

/// Outputs through `ldb --script`: the transcript split at its echoes.
fn via_script(file: &str, lines: &[&str]) -> Vec<String> {
    let path = std::env::temp_dir().join("ldb-command-parity").join("parity.ldb");
    std::fs::write(&path, lines.join("\n")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ldb"))
        .args([file, "--arch", "mips", "--script", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .output()
        .expect("spawn ldb --script");
    let transcript = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut outputs: Vec<String> = Vec::new();
    for line in transcript.lines() {
        if line.starts_with("(ldb) ") {
            outputs.push(String::new());
        } else {
            let cur = outputs.last_mut().unwrap_or_else(|| panic!("no echo:\n{transcript}"));
            cur.push_str(line);
            cur.push('\n');
        }
    }
    assert_eq!(outputs.len(), lines.len(), "script echoes:\n{transcript}");
    outputs
}

/// Outputs through an in-process daemon tenant, one `cmd` per line.
fn via_daemon(lines: &[&str]) -> Vec<String> {
    let (daemon, id) = tenant();
    lines.iter().map(|line| tenant_cmd(&daemon, &id, line)).collect()
}

#[test]
fn every_table_command_speaks_the_same_on_every_front_end() {
    // Silence the deliberate `__panic` drill's hook output.
    std::panic::set_hook(Box::new(|_| {}));
    let cases = cases();

    // Coverage: every row of the table has at least one case.
    let covered: BTreeSet<&str> = cases
        .iter()
        .map(|line| {
            let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
            lookup(cmd, rest).unwrap_or_else(|| panic!("`{line}` is not a table command")).0.name
        })
        .collect();
    let missing: Vec<&str> =
        COMMANDS.iter().map(|c| c.name).filter(|n| !covered.contains(n)).collect();
    assert!(missing.is_empty(), "table rows without a parity case: {missing:?}");

    let file = write_prog();
    let lines: Vec<&str> = cases.iter().map(String::as_str).collect();
    let repl = via_repl(&file, &lines);
    let script = via_script(&file, &lines);
    let daemon = via_daemon(&lines);

    let first = |t: &str| t.split_whitespace().next().unwrap_or("").to_string();
    for (k, line) in lines.iter().enumerate() {
        let (r, s, d) = (&repl[k], &script[k], &daemon[k]);
        if COUNTER_REPORTS.contains(line) {
            assert!(!s.starts_with("error:"), "`{line}`: {s}");
            assert_eq!(first(r), first(s), "`{line}`: REPL vs --script\n{r}\n{s}");
            assert_eq!(first(s), first(d), "`{line}`: --script vs daemon\n{s}\n{d}");
        } else {
            assert_eq!(r, s, "`{line}`: REPL vs --script");
            assert_eq!(s, d, "`{line}`: --script vs daemon tenant");
        }
    }

    // The sequence does what it says, not just the same thing thrice.
    let out = |line: &str| &script[lines.iter().position(|l| *l == line).unwrap()];
    assert_eq!(out("call clamp(500)"), "100\n");
    assert!(out("ps {} loop").starts_with("error: timeout: "), "{}", out("ps {} loop"));
    assert!(
        out("p calls").starts_with("calls = "),
        "session unusable after ps: {}",
        out("p calls")
    );
    assert_eq!(out("ps 1 2 add"), "3\n");
    assert!(out("fin").contains("\nreturn value: "), "{}", out("fin"));
    assert!(out("__panic parity drill").starts_with("error: command quarantined"));
    assert!(out("info health").contains("1 quarantined commands"), "{}", out("info health"));
}

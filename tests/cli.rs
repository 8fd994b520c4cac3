//! End-to-end tests of the `ldb` command-line binary: spawn the real
//! executable, feed it command scripts on stdin, and check the session
//! transcript. This covers the CLI layer (parsing, conditions, displays,
//! session state) that the library tests cannot reach.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_ldb(args: &[&str], script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldb"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ldb");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn write_src(name: &str, body: &str) -> String {
    let dir = std::env::temp_dir().join("ldb-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    // Tests running in parallel write the same file names: write aside
    // and rename, so an `ldb` reading the file never sees it half written.
    let tmp = dir.join(format!("{name}.{:?}", std::thread::current().id()));
    std::fs::write(&tmp, body).unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    path.to_str().unwrap().to_string()
}

const FIB: &str = r#"
int a[25];
int fib(void) {
    int i;
    a[0] = 1; a[1] = 1;
    for (i = 2; i < 25; i++)
        a[i] = a[i-1] + a[i-2];
    return a[24];
}
int main(void) {
    printf("%d\n", fib());
    return 0;
}
"#;

#[test]
fn break_print_continue_session() {
    let f = write_src("fib.c", FIB);
    for arch in ["mips", "m68k", "sparc", "vax"] {
        let out = run_ldb(&[&f, "--arch", arch], "b fib 4\nc\np i\ne a[i-1]\nc\nq\n");
        assert!(out.contains("i = 2"), "{arch}:\n{out}");
        assert!(out.contains("(ldb) 1\n"), "{arch}:\n{out}"); // a[1]
    }
}

#[test]
fn conditional_breakpoint_skips_until_true() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(
        &[&f, "--arch", "mips"],
        "b fib 4 if i == 10\nc\np i\nq\n",
    );
    assert!(out.contains("if i == 10"), "{out}");
    assert!(out.contains("i = 10"), "{out}");
    // Exactly one breakpoint report: the nine false hits were silent.
    assert_eq!(out.matches("breakpoint in fib").count(), 1, "{out}");
}

#[test]
fn empty_condition_plants_nothing() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(&[&f, "--arch", "mips"], "b fib 4 if
info
q
");
    assert!(out.contains("usage: b <func> [n] if <expr>"), "{out}");
    assert!(!out.contains("breakpoint at 0x"), "{out}");
}

#[test]
fn float_condition_zero_is_false() {
    let src = r#"
double ratio;
int poke(void) { ratio = ratio + 0.5; return 0; }
int main(void) {
    int i;
    for (i = 0; i < 4; i++) poke();
    return 0;
}
"#;
    let f = write_src("fc.c", src);
    // `if ratio` is 0.0 on the first hit, then 0.5, 1.0, 1.5: three stops.
    let out = run_ldb(
        &[&f, "--arch", "vax"],
        "b poke 1 if ratio
c
p ratio
c
c
c
q
",
    );
    assert_eq!(out.matches("breakpoint in poke").count(), 3, "{out}");
    assert!(out.contains("ratio = 0.5"), "{out}");
}

#[test]
fn display_reprints_at_every_stop() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(
        &[&f, "--arch", "vax"],
        "b fib 4\ndisplay a[i-1]\nc\nc\nc\nq\n",
    );
    // i = 2, 3, 4 at the three stops: a[i-1] = 1, 2, 3.
    assert!(out.contains("0: a[i-1] = 1"), "{out}");
    assert!(out.contains("0: a[i-1] = 2"), "{out}");
    assert!(out.contains("0: a[i-1] = 3"), "{out}");
}

#[test]
fn undisplay_and_info_list_state() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(
        &[&f, "--arch", "mips"],
        "b fib 0\nc\ndisplay a[0]\ndisplay a[1]\nundisplay 0\ninfo\nq\n",
    );
    assert!(out.contains("display 0: a[1]"), "{out}");
    assert!(!out.contains("a[0]\n(ldb) q"), "{out}");
    let bad = run_ldb(&[&f, "--arch", "mips"], "undisplay 7\nq\n");
    assert!(bad.contains("error: no display 7"), "{bad}");
}

#[test]
fn examine_dumps_memory_with_ascii_column() {
    let src = r#"
char banner[24] = "EXAMINE-ME";
int main(void) { printf("%s\n", banner); return 0; }
"#;
    let f = write_src("ex.c", src);
    // Find banner's address via p, then hex-dump around the data segment.
    let out = run_ldb(&[&f, "--arch", "m68k"], "b main 0\nc\nx 0x1000 256\nq\n");
    // The dump must contain rows with hex and an ASCII gutter, and the
    // string literal is somewhere in the data image.
    assert!(out.contains("0x00001000"), "{out}");
    // The literal lands in the data image (it may straddle a dump row).
    assert!(out.contains("EXAMINE-"), "{out}");
    assert!(out.contains("45 58 41 4d 49 4e 45 2d"), "{out}"); // "EXAMINE-" in hex
}

#[test]
fn watch_session_at_the_cli() {
    let src = r#"
int hits;
int bump(int by) { hits = hits + by; return hits; }
int main(void) {
    int i;
    for (i = 0; i < 3; i++) bump(i + 1);
    printf("%d\n", hits);
    return 0;
}
"#;
    let f = write_src("w.c", src);
    let out = run_ldb(
        &[&f, "--arch", "sparc"],
        "b main 1\nc\nw hits\nc\nc\ndw hits\nc\nq\n",
    );
    assert!(out.contains("watching hits (currently 0)"), "{out}");
    assert!(out.contains("watchpoint: hits changed 0 -> 1"), "{out}");
    assert!(out.contains("watchpoint: hits changed 1 -> 3"), "{out}");
    assert!(out.contains("target exited with status 0"), "{out}");
}

#[test]
fn tcp_flag_debugs_over_a_real_socket() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(
        &[&f, "--arch", "sparc", "--tcp"],
        "b fib 4 if i == 24\nc\np i\ne a[23] + a[22]\nc\nq\n",
    );
    assert!(out.contains("connected over tcp://127.0.0.1:"), "{out}");
    assert!(out.contains("i = 24"), "{out}");
    assert!(out.contains("75025"), "{out}"); // a[23] + a[22] over the socket
    assert!(out.contains("target exited with status 0"), "{out}");
}

#[test]
fn detach_preserves_state_and_attach_recovers_breakpoints() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(
        &[&f, "--arch", "mips"],
        "b fib 4 if i == 20
c
p i
detach
attach
info
p i
q
",
    );
    assert!(out.contains("detached; program state preserved"), "{out}");
    assert!(out.contains("reattached; breakpoints recovered"), "{out}");
    // The program is exactly where it was...
    assert_eq!(out.matches("i = 20").count(), 2, "{out}");
    // ...and the plant was recovered from the nub (conditions are
    // debugger-side state and do not survive, per the paper's model).
    let after = out.split("reattached").nth(1).unwrap();
    assert!(after.contains("breakpoint at 0x"), "{out}");
    // Misuse probes.
    let bad = run_ldb(&[&f, "--arch", "mips"], "attach
q
");
    assert!(bad.contains("nothing detached"), "{bad}");
}

#[test]
fn core_dump_and_post_mortem_repair() {
    let src = r#"
int depth;
int *p;
int poke(int n) {
    depth = n;
    if (n == 3) return *p;
    return poke(n + 1);
}
int main(void) {
    printf("starting\n");
    poke(0);
    printf("never\n");
    return 0;
}
"#;
    let f = write_src("crash.c", src);
    let corep = std::env::temp_dir().join("ldb-cli-tests").join("t.core");
    let core = corep.to_str().unwrap();
    // Phase 1: run undebugged; the null deref dumps core.
    let out = run_ldb(&[&f, "--arch", "m68k", "--run", "--core", core], "");
    assert!(out.contains("starting"), "{out}");
    assert!(out.contains("faulted; core dumped"), "{out}");
    // Phase 2: post-mortem — full stack and variables from the file
    // (no --arch: the core fixes it).
    let out = run_ldb(&[&f, "--core", core], "bt
p depth
p n
f 2
p n
q
");
    assert!(out.contains("post-mortem session"), "{out}");
    assert!(out.contains("#4 main"), "{out}");
    assert!(out.contains("depth = 3"), "{out}");
    assert_eq!(out.matches("n = 3").count(), 1, "{out}");
    assert!(out.contains("n = 1"), "{out}");
    // Phase 3: repair the pointer, restart the statement, resume.
    let out = run_ldb(
        &[&f, "--core", core],
        "e p = 0x11008
pc 0x103a
c
q
",
    );
    assert!(out.contains("target exited with status 0"), "{out}");
    // Malformed cores are rejected cleanly.
    let bad = std::env::temp_dir().join("ldb-cli-tests").join("bad.core");
    std::fs::write(&bad, b"garbage").unwrap();
    let out = run_ldb(&[&f, "--core", bad.to_str().unwrap()], "");
    assert!(out.is_empty(), "{out}"); // error goes to stderr
}

#[test]
fn errors_leave_the_session_usable() {
    let f = write_src("fib.c", FIB);
    let out = run_ldb(
        &[&f, "--arch", "mips"],
        "b nosuch\nbl 9999\nba zz\np x\ne 1 +\nf 9\nnonsense\nb fib 4\nc\np i\nq\n",
    );
    // Every probe produced an error line...
    assert!(out.matches("error:").count() >= 6, "{out}");
    // ...and the session still worked afterwards.
    assert!(out.contains("i = 2"), "{out}");
}

#[test]
fn multi_file_session_resolves_across_units() {
    let lib = write_src(
        "lib.c",
        r#"
static int calls;
int clamp(int v, int lo, int hi) {
    calls++;
    if (v < lo) return lo;
    if (v > hi) return hi;
    return v;
}
"#,
    );
    let main = write_src(
        "mainx.c",
        r#"
int clamp(int v, int lo, int hi);
int total;
int main(void) {
    int i;
    for (i = 0; i < 5; i++)
        total += clamp(i * 10, 5, 25);
    printf("%d\n", total);
    return 0;
}
"#,
    );
    let out = run_ldb(
        &[&lib, &main, "--arch", "mips"],
        "b clamp 1\nc\nbt\np v\nf 1\np i\nq\n",
    );
    assert!(out.contains("v = 0"), "{out}");
    assert!(out.contains("i = 0"), "{out}");
    assert!(out.contains("clamp"), "{out}");
    assert!(out.contains("main"), "{out}");
}

// ---------------------------------------------------------------------------
// Headless batch mode (`--script`): typed process exit codes.
// ---------------------------------------------------------------------------

/// Run `ldb` with a `--script` file and return (stdout, exit code).
fn run_ldb_batch(extra_args: &[&str], script: &str) -> (String, i32) {
    let dir = std::env::temp_dir().join("ldb-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    // Unique per content so parallel tests don't race on one file.
    let path = dir.join(format!("script-{:x}.ldb", {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in script.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^ extra_args.len() as u64
    }));
    std::fs::write(&path, script).unwrap();
    let f = write_src("fib.c", FIB);
    let mut args = vec![f.as_str(), "--arch", "mips", "--script", path.to_str().unwrap()];
    args.extend_from_slice(extra_args);
    let out = Command::new(env!("CARGO_BIN_EXE_ldb"))
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .output()
        .expect("spawn ldb");
    (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code().unwrap_or(-1))
}

#[test]
fn batch_clean_run_exits_zero_without_banners() {
    let (out, code) = run_ldb_batch(&[], "b fib 4\nc\np i\nc\n");
    assert_eq!(code, 0, "clean batch run must exit 0:\n{out}");
    assert!(out.contains("(ldb) p i\ni = 2"), "{out}");
    // Batch mode prints the transcript and nothing else: no interactive
    // banner, no fault/chaos notices.
    assert!(!out.contains("ldb: "), "banner leaked into batch transcript:\n{out}");
    assert!(out.starts_with("(ldb) "), "transcript must start at the first command:\n{out}");
}

#[test]
fn batch_script_error_exits_three() {
    let (out, code) = run_ldb_batch(&[], "b fib 4\nc\np nosuchvar\nc\n");
    assert_eq!(code, 3, "script-error batch run must exit 3:\n{out}");
    assert!(out.contains("error: "), "{out}");
}

#[test]
fn batch_quarantined_panic_exits_four_and_recovers() {
    let (out, code) = run_ldb_batch(&[], "b fib 4\nc\n__panic batch drill\np i\nc\n");
    assert_eq!(code, 4, "panic-quarantine batch run must exit 4:\n{out}");
    assert!(out.contains("error: command quarantined (internal panic: batch drill)"), "{out}");
    // The command *after* the panic still ran: the loop recovered.
    assert!(out.contains("i = 2"), "post-panic command did not run:\n{out}");
}

#[test]
fn batch_wire_loss_exits_five() {
    let (out, code) =
        run_ldb_batch(&["--fault", "seed=1,disconnect=30"], "b fib 4\nc\nbt\nc\nbt\nc\n");
    assert_eq!(code, 5, "wire-loss batch run must exit 5:\n{out}");
    assert!(out.contains("error: "), "{out}");
}

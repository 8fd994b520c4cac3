//! Pinned transcripts for a scripted time-travel session on every
//! architecture (MIPS in both byte orders). The session runs with
//! periodic checkpoints enabled, travels backward three ways
//! (`reverse-step`, `reverse-next`, `reverse-continue`), interleaves
//! forward motion, and reads back the checkpoint table and health
//! counters. Two runs must produce byte-identical transcripts, and both
//! must match the golden copy under `tests/golden/` — re-record with
//! `REVERSE_BLESS=1 cargo test --test reverse_golden` when a change is
//! intended.

mod common;

use ldb_suite::cc::driver::{compile_many, CompileOpts};
use ldb_suite::core::{script, Ldb};
use ldb_suite::machine::{Arch, ByteOrder};

const SRC: &str = r#"
char msg[16] = "hi there";
static int calls;
static int limit = 100;
int clamp(int v) {
    calls++;
    if (v > limit) return limit;
    return v;
}
int main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i++) s += clamp(i * 30);
    printf("%d %d\n", s, calls);
    return 0;
}
"#;

/// The canonical time-travel session: run to a breakpoint, pin a
/// checkpoint, move forward by instruction and by line, rewind each way,
/// prove the rewound state by re-printing target data, and read the
/// recorder's own accounting.
const SCRIPT: &str = "\
# canonical time-travel session
b clamp
c
checkpoint
p calls
s
s
rs
p calls
n
rn
p calls
c
c
rc
p calls
c
info checkpoints
info health
";

const CONFIGS: &[(&str, Arch, Option<ByteOrder>)] = &[
    ("mips-big", Arch::Mips, Some(ByteOrder::Big)),
    ("mips-little", Arch::Mips, Some(ByteOrder::Little)),
    ("sparc", Arch::Sparc, None),
    ("m68k", Arch::M68k, None),
    ("vax", Arch::Vax, None),
];

fn run_session(name: &str, arch: Arch, order: Option<ByteOrder>) -> String {
    let p = compile_many(&[("rev.c", SRC)], arch, CompileOpts { order, ..Default::default() })
        .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let mut ldb = Ldb::new();
    // Periodic checkpoints on the continue path, dense enough that every
    // reverse command in the script has a nearby anchor.
    ldb.set_checkpoint_every(Some(64));
    common::attach_quiet(&mut ldb, &p).unwrap_or_else(|e| panic!("{name}: attach: {e}"));
    script::run_script(&mut ldb, SCRIPT)
}

fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

fn check_golden(name: &str, file: &str, got: &str) {
    let path = golden_path(file);
    if std::env::var_os("REVERSE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name}: no golden at {}: {e} (bless with REVERSE_BLESS=1)", path.display())
    });
    assert_eq!(
        got,
        want,
        "{name}: transcript diverged from {} (re-record with REVERSE_BLESS=1 if intended)",
        path.display()
    );
}

#[test]
fn reverse_session_is_deterministic_and_matches_goldens() {
    for &(name, arch, order) in CONFIGS {
        let t1 = run_session(name, arch, order);
        let t2 = run_session(name, arch, order);
        assert_eq!(t1, t2, "{name}: replayed reverse session diverged");
        // The session actually traveled: reverse commands produced stop
        // reports, not errors, and the store held checkpoints.
        assert!(!t1.contains("error: reverse truncated"), "{name}: truncated reverse\n{t1}");
        assert!(t1.contains("checkpoints: "), "{name}: no checkpoint report\n{t1}");
        assert!(t1.contains(" restores"), "{name}: health lost the restore counter\n{t1}");
        check_golden(name, &format!("reverse_{name}.txt"), &t1);
    }
}

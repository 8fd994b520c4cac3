//! The block-granular wire cache, end to end: bulk `FetchBlock` frames
//! must agree byte-for-byte with single fetches, the read-through cache
//! must stay coherent across stores and resumes, a cached breakpoint
//! marathon over a lossy wire must be bit-identical to an uncached one
//! on every architecture and byte order, and the whole point of the
//! exercise — far fewer wire round trips — must actually hold.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::{nm, pssym};
use ldb_suite::core::{AbstractMemory, AttachOpts, Ldb, StopEvent, TableSource};
use ldb_suite::machine::{Arch, ByteOrder};
use ldb_suite::nub::{spawn, ClientConfig, FaultConfig, NubConfig, NubError};
use std::time::Duration;

const FIB: &str = r#"
int a[32];

int fib(int n) {
    int i;
    a[0] = 1;
    a[1] = 1;
    for (i = 2; i <= n; i++)
        a[i] = a[i - 1] + a[i - 2];
    return a[n];
}

int main(void) {
    printf("%d\n", fib(10));
    return 0;
}
"#;

/// Compile `src`, spawn a nub, and attach with the wire cache on or off.
/// Returns the session and the target's context address (a known-mapped
/// d-space landmark to probe around).
fn session(arch: Arch, src: &str, opts: CompileOpts, cache: bool) -> (Ldb, u32) {
    let c = compile("t.c", src, arch, opts).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.set_wire_cache(cache);
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    (ldb, c.linked.context_addr)
}

#[test]
fn fetch_block_matches_per_byte_fetches() {
    for arch in Arch::ALL {
        let (ldb, ctx) = session(arch, FIB, CompileOpts::default(), false);
        let client = ldb.target(0).client.clone();
        let base = ctx & !63;
        let (order, bytes) = client.borrow_mut().fetch_block('d', base, 64).unwrap();
        assert_eq!(bytes.len(), 64, "{arch}");
        for (i, &b) in bytes.iter().enumerate() {
            let one = client.borrow_mut().fetch('d', base + i as u32, 1).unwrap();
            assert_eq!(one, u64::from(b), "{arch}: byte {i}");
        }
        // The order byte is honest: assembling the first word per the
        // advertised order reproduces the nub's own 4-byte fetch.
        let word = client.borrow_mut().fetch('d', base, 4).unwrap();
        let assembled = if order == 1 {
            bytes[..4].iter().fold(0u64, |v, &b| (v << 8) | u64::from(b))
        } else {
            bytes[..4].iter().rev().fold(0u64, |v, &b| (v << 8) | u64::from(b))
        };
        assert_eq!(assembled, word, "{arch}: order byte {order} lies");
        // Malformed block requests are refused, not truncated.
        let e = client.borrow_mut().fetch_block('d', base, 0).unwrap_err();
        assert!(matches!(e, NubError::Nub(3)), "{arch}: {e}");
        let e = client.borrow_mut().fetch_block('d', base, 1 << 20).unwrap_err();
        assert!(matches!(e, NubError::Nub(3)), "{arch}: {e}");
        let e = client.borrow_mut().fetch_block('r', base, 64).unwrap_err();
        assert!(matches!(e, NubError::Nub(2)), "{arch}: {e}");
    }
}

#[test]
fn store_through_cache_invalidates_its_line() {
    let (ldb, ctx) = session(Arch::Mips, FIB, CompileOpts::default(), true);
    let t = ldb.target(0);
    let cache = t.cache.clone().expect("cache on by default");
    // A quiet, mapped corner at the bottom of the stack region, far from
    // both the saved context and the live frames near stack_top.
    let addr = i64::from((ctx + 4096) & !63);
    let _ = cache.fetch('d', addr, 4).unwrap();
    assert!(cache.stats().fills > 0, "fetch did not fill a line");
    cache.store('d', addr, 4, 0xdead_beef).unwrap();
    assert!(cache.stats().invalidated > 0, "store did not invalidate");
    assert_eq!(cache.fetch('d', addr, 4).unwrap(), 0xdead_beef, "stale line survived a store");
    // Write-through: the nub saw the store too.
    let raw = t.client.borrow_mut().fetch('d', addr as u32, 4).unwrap();
    assert_eq!(raw, 0xdead_beef);
}

#[test]
fn resume_invalidates_data_cache() {
    let src = r#"
int i;
int bump(void) { return 0; }
int main(void) {
    for (i = 0; i < 5; i++) bump();
    return 0;
}
"#;
    let (mut ldb, _) = session(Arch::Mips, src, CompileOpts::default(), true);
    ldb.break_at("bump", 0).unwrap();
    for k in 0..3 {
        let ev = ldb.cont().unwrap();
        assert!(matches!(ev, StopEvent::Breakpoint { .. }), "hit {k}: {ev:?}");
        // `i` changes between stops; a stale d-line would repeat 0.
        assert_eq!(ldb.print_var("i").unwrap(), k.to_string(), "hit {k}");
    }
    // Same discipline for single-stepping.
    let before = ldb.print_var("i").unwrap();
    let _ = ldb.step_insn().unwrap();
    let _ = before;
    let cache = ldb.target(0).cache.clone().unwrap();
    assert!(cache.stats().invalidated > 0, "resumes never invalidated the cache");
}

/// The fault-injection marathon program, with a double global so the
/// size-8 (cache-bypass) path is exercised at every stop.
fn marathon_src(start: i64) -> String {
    format!(
        r#"
int history[64];
int steps;
double ratio;

int collatz(int n) {{
    int here;
    here = n;
    history[steps % 64] = here;
    steps++;
    ratio = ratio + 0.5;
    if (n == 1) return 1;
    if (n % 2 == 0) return collatz(n / 2);
    return collatz(3 * n + 1);
}}

int main(void) {{
    int r;
    r = collatz({start});
    printf("%d %d\n", r, steps);
    return 0;
}}
"#
    )
}

fn trajectory(start: i64) -> Vec<i64> {
    let mut v = vec![start];
    while *v.last().unwrap() != 1 {
        let n = *v.last().unwrap();
        v.push(if n % 2 == 0 { n / 2 } else { 3 * n + 1 });
    }
    v
}

fn lossy_client() -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_millis(25),
        retries: 12,
        backoff: Duration::from_millis(1),
        event_poll: Duration::from_millis(5),
        jitter_seed: 0,
    }
}

/// Attach to the marathon program over a deterministically lossy wire,
/// with the block cache on or off.
fn attach_faulty(arch: Arch, opts: CompileOpts, start: i64, spec: &str, cache: bool) -> Ldb {
    let src = marathon_src(start);
    let c = compile("c.c", &src, arch, opts).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let handle = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().unwrap();
    let mut ldb = Ldb::new();
    ldb.set_wire_cache(cache);
    let opts = AttachOpts { client: lossy_client(), fault: Some(FaultConfig::parse(spec).unwrap()) };
    ldb.attach(Box::new(wire), TableSource::Whole(&loader), Some(handle), opts)
        .unwrap_or_else(|e| panic!("{arch}: attach over faulty wire: {e}"));
    ldb.break_at("collatz", 3).unwrap_or_else(|e| panic!("{arch}: {e}"));
    ldb
}

/// Everything the debugger shows the user at each breakpoint hit, as one
/// comparable transcript: variables (including the size-8 double),
/// backtrace with exact pcs, and every register.
fn transcript(arch: Arch, ldb: &mut Ldb, hits: usize) -> Vec<String> {
    let mut out = Vec::new();
    for k in 0..hits {
        let ev = ldb.cont().unwrap_or_else(|e| panic!("{arch} hit {k}: {e}"));
        assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch} hit {k}: {ev:?}");
        for var in ["n", "here", "steps", "ratio"] {
            out.push(format!("{var}={}", ldb.print_var(var).unwrap()));
        }
        out.push(format!("bt={:?}", ldb.backtrace().0));
        out.push(format!("regs={:?}", ldb.registers().unwrap()));
    }
    out
}

#[test]
fn cached_marathon_is_bit_identical_to_uncached() {
    let start = 7;
    let hits = trajectory(start).len();
    let spec = "seed=7,drop=0.02,corrupt=0.02,dup=0.03";
    // Every architecture at its native byte order, plus MIPS at both
    // orders explicitly, so big-endian line assembly and the big-endian
    // double fixup both get a turn.
    let mut runs: Vec<(Arch, CompileOpts)> =
        Arch::ALL.into_iter().map(|a| (a, CompileOpts::default())).collect();
    for order in [ByteOrder::Big, ByteOrder::Little] {
        runs.push((Arch::Mips, CompileOpts { order: Some(order), ..Default::default() }));
    }
    for (arch, opts) in runs {
        let mut cached = attach_faulty(arch, opts, start, spec, true);
        let mut plain = attach_faulty(arch, opts, start, spec, false);
        let a = transcript(arch, &mut cached, hits);
        let b = transcript(arch, &mut plain, hits);
        assert_eq!(a, b, "{arch}: cache changed what the debugger reports");
        let stats = cached.target(0).cache.as_ref().unwrap().stats();
        assert!(stats.fills > 0, "{arch}: no block frames crossed the faulty wire");
        assert!(stats.hits > 0, "{arch}: cache never hit");
        assert!(plain.target(0).cache.is_none(), "{arch}: --no-wire-cache leaked a cache");
    }
}

/// A 20-frame recursion with enough global state that connecting to the
/// stopped target and inspecting it is dominated by memory traffic.
const DEEP: &str = r#"
int depth;
int trail[32];

int report(void) { return 0; }

int descend(int n) {
    int local;
    local = n;
    trail[depth] = n;
    depth++;
    if (n == 0) return report();
    return descend(n - 1) + 1;
}

int main(void) {
    printf("%d\n", descend(20));
    return 0;
}
"#;

/// The acceptance workload from the issue: connect to a target stopped
/// 20+ frames deep, walk the stack, and inspect it the way a user would
/// at a stop. Returns the wire-transaction count for the whole session.
fn deep_inspection(handle_wire: Box<dyn ldb_suite::nub::Wire>, loader: &str, cache: bool) -> u64 {
    let mut ldb = Ldb::new();
    ldb.set_wire_cache(cache);
    ldb.attach(handle_wire, TableSource::Whole(loader), None, AttachOpts::default()).unwrap();
    let (bt, _) = ldb.backtrace();
    assert!(bt.len() >= 20, "cache={cache}: only {} frames", bt.len());
    for _ in 0..2 {
        for j in 0..32 {
            let _ = ldb.eval(&format!("trail[{j}]")).unwrap();
        }
        assert_eq!(ldb.print_var("depth").unwrap(), "21", "cache={cache}");
        ldb.registers().unwrap();
    }
    let n = ldb.target(0).client.borrow().metrics().transactions;
    if cache {
        let stats = ldb.target(0).cache.as_ref().unwrap().stats();
        assert!(stats.hits > stats.misses, "cache={cache}: mostly cold: {stats:?}");
    }
    n
}

#[test]
fn cache_cuts_wire_transactions_five_fold() {
    // Drive the target to the bottom of the recursion with a throwaway
    // session, then "crash" it. The nub preserves the deep stop.
    let c = compile("t.c", DEEP, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let handle = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let mut driver = Ldb::new();
    driver.attach(Box::new(handle.connect_channel().unwrap()), TableSource::Whole(&loader), None, AttachOpts::default()).unwrap();
    driver.break_at("report", 0).unwrap();
    let ev = driver.cont().unwrap();
    assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{ev:?}");
    drop(driver);

    // Fresh connects to the preserved 22-frame stop, cache on then off:
    // identical sessions, so the transaction counts compare like for like.
    let cached = deep_inspection(Box::new(handle.connect_channel().unwrap()), &loader, true);
    let plain = deep_inspection(Box::new(handle.connect_channel().unwrap()), &loader, false);
    assert!(
        cached * 5 <= plain,
        "cache saves too little: {cached} transactions cached vs {plain} uncached"
    );
}

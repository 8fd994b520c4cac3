//! Fault injection: the whole debugger stack driven over a wire that
//! drops, corrupts, truncates, duplicates, delays, and severs frames —
//! deterministically, from a seed. The session layer (sequence numbers,
//! checksums, retransmission, at-most-once execution on the nub) must
//! make every fault invisible to the breakpoint marathon, and a severed
//! wire must degrade gracefully: the nub preserves the target, cached
//! queries still answer, and a reconnect over a fresh wire recovers the
//! planted breakpoints and carries on from the exact same stop.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::{nm, pssym};
use ldb_suite::core::{shared_module_cache, AttachOpts, Ldb, LdbError, StopEvent};
use ldb_suite::machine::Arch;
use ldb_suite::nub::{spawn, ClientConfig, FaultConfig, FaultStats, FaultyWire, NubConfig};
use ldb_suite::trace::{validate, Layer, Record, Trace, TraceConfig, Value};
use std::time::Duration;

/// The stress-suite collatz marathon, parameterised by starting value so
/// fault runs (which pay per-frame latency and retransmission costs) can
/// use a shorter trajectory than the clean stress test.
fn program(start: i64) -> String {
    format!(
        r#"
int history[64];
int steps;

int collatz(int n) {{
    int here;
    here = n;
    history[steps % 64] = here;
    steps++;
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

/// Ground truth: the collatz trajectory from `start`.
fn trajectory(start: i64) -> Vec<i64> {
    let mut v = vec![start];
    while *v.last().unwrap() != 1 {
        let n = *v.last().unwrap();
        v.push(if n % 2 == 0 { n / 2 } else { 3 * n + 1 });
    }
    v
}

/// Resilience policy for lossy wires: short attempt timeouts and a deep
/// retry budget, so a dropped frame costs milliseconds instead of the
/// interactive-scale defaults. The tests wrap their own fault injectors
/// (they read the injectors' counters), so none is set here.
fn lossy() -> AttachOpts {
    let client = ClientConfig {
        reply_timeout: Duration::from_millis(25),
        retries: 12,
        backoff: Duration::from_millis(1),
        event_poll: Duration::from_millis(5),
        jitter_seed: 0,
    };
    AttachOpts { client, fault: None }
}

/// Compile the marathon program for `arch`, spawn a nub, and attach a
/// debugger over a [`FaultyWire`] configured by `spec`, with the
/// breakpoint already planted at the `steps++` line.
fn attach_faulty(arch: Arch, start: i64, spec: &str) -> Ldb {
    let src = program(start);
    let c = compile("c.c", &src, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let handle = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().unwrap();
    let faulty = FaultyWire::wrap(wire, FaultConfig::parse(spec).unwrap());
    let mut ldb = Ldb::new();
    ldb.attach(Box::new(faulty), &loader, &[], shared_module_cache(), Some(handle), lossy())
        .unwrap_or_else(|e| panic!("{arch}: attach over faulty wire: {e}"));
    ldb.break_at("collatz", 3).unwrap_or_else(|e| panic!("{arch}: {e}"));
    ldb
}

/// After a severed wire: verify degraded-mode behaviour, reattach over a
/// fresh (still lossy) wire from the same nub, and resync the hit count
/// from the program's own `steps` counter. Returns the next hit index.
fn reconnect_and_resync(
    arch: Arch,
    ldb: &mut Ldb,
    truth: &[i64],
    spec: &str,
    cause: &LdbError,
) -> usize {
    if !ldb.target(0).disconnected {
        // The loss surfaced through the expression pipeline (a PostScript
        // error, not a wire error); poke the wire directly so the
        // debugger-side state notices it.
        let _ = ldb.cont();
    }
    assert!(ldb.target(0).disconnected, "{arch}: not flagged disconnected after: {cause}");
    // Degraded mode: the frame and register views from the last stop
    // still answer from cache...
    assert!(!ldb.backtrace().0.is_empty(), "{arch}: cached backtrace while disconnected");
    let regs = ldb.registers().unwrap_or_else(|e| panic!("{arch}: cached registers: {e}"));
    assert!(!regs.is_empty(), "{arch}");
    // ...while mutating operations refuse with a clear diagnosis.
    let err = ldb.break_at("collatz", 3).unwrap_err().to_string();
    assert!(err.contains("disconnected"), "{arch}: {err}");
    // Line 9 of `program` is collatz's `steps++`.
    let by_line = ldb.break_at_file_line("c.c", 9).unwrap_err().to_string();
    assert_eq!(by_line, err, "{arch}: break_at_file_line while disconnected");
    // The nub preserved the target: reattach over a fresh wire (also
    // lossy, but without the scheduled severance) and recover.
    let wire = {
        let t = ldb.target(0);
        t.nub.as_ref().expect("nub handle").connect_channel().unwrap()
    };
    let faulty = FaultyWire::wrap(wire, FaultConfig::parse(spec).unwrap());
    let ev = ldb
        .reconnect(0, Box::new(faulty))
        .unwrap_or_else(|e| panic!("{arch}: reconnect: {e}"));
    assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: reconnect stop: {ev:?}");
    // The breakpoint sits before `steps++`, so at any collatz stop the
    // counter equals the number of fully completed hits — use it to
    // resync regardless of whether the failed continue reached the nub.
    let k: usize = ldb.print_var("steps").unwrap().parse().unwrap();
    assert!(k < truth.len(), "{arch}: resynced past the trajectory");
    assert_eq!(ldb.print_var("n").unwrap(), truth[k].to_string(), "{arch}: post-reconnect");
    k + 1
}

/// Drive the breakpoint marathon, checking every stop against the
/// trajectory. With `recon_spec`, a wire failure is treated as the
/// scheduled severance: degrade, reconnect, resync, carry on. Without
/// it, any failure is a real protocol bug. Returns the reconnect count.
fn marathon(
    arch: Arch,
    ldb: &mut Ldb,
    truth: &[i64],
    recon_spec: Option<&str>,
    use_eval: bool,
) -> usize {
    let mut reconnects = 0usize;
    let mut k = 0usize;
    while k < truth.len() {
        let expect = truth[k];
        let r = (|| -> Result<(), LdbError> {
            let ev = ldb.cont()?;
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch} hit {k}: {ev:?}");
            assert_eq!(ldb.print_var("n")?, expect.to_string(), "{arch} hit {k}");
            assert_eq!(ldb.print_var("here")?, expect.to_string(), "{arch} hit {k}");
            assert_eq!(ldb.print_var("steps")?, k.to_string(), "{arch} hit {k}");
            let depth = ldb.backtrace().0.iter().filter(|(_, n, _, _)| n == "collatz").count();
            assert_eq!(depth, (k + 1).min(64), "{arch} hit {k}: depth");
            if use_eval && k.is_multiple_of(5) {
                // The expression pipeline (nub fetches through the
                // PostScript interpreter) over the same lossy wire.
                assert_eq!(ldb.eval("steps + 1000")?, (k + 1000).to_string(), "{arch} hit {k}");
            }
            Ok(())
        })();
        match r {
            Ok(()) => k += 1,
            Err(e) => {
                let Some(spec) = recon_spec else {
                    panic!("{arch} hit {k}: wire fault leaked through the session layer: {e}")
                };
                reconnects += 1;
                assert!(reconnects < 8, "{arch}: reconnect storm");
                eprintln!("{arch}: wire lost at hit {k}: {e}");
                k = reconnect_and_resync(arch, ldb, truth, spec, &e);
            }
        }
    }
    reconnects
}

/// Clear the breakpoint, run to exit, and check the program's own output
/// via the joined machine. Under a lossy wire the final exit
/// notification itself can be lost (the nub is gone by the time the
/// client retransmits), so a wire error on the last continue is
/// acceptable — the joined machine is the ground truth either way.
fn finish(arch: Arch, ldb: &mut Ldb, truth: &[i64], lossy: bool) {
    let addr = ldb.target(0).breakpoints.addresses()[0];
    ldb.clear_breakpoint(addr).unwrap_or_else(|e| panic!("{arch}: {e}"));
    match ldb.cont() {
        Ok(StopEvent::Exited(0)) => {}
        Ok(ev) => panic!("{arch}: expected exit, got {ev:?}"),
        Err(e) => assert!(lossy, "{arch}: exit over a clean wire failed: {e}"),
    }
    let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
    assert_eq!(out, format!("1 {}\n", truth.len()), "{arch}");
}

#[test]
fn latency_only_marathon_is_undisturbed() {
    // Pure delay: no loss, no corruption. Everything behaves exactly as
    // on a perfect wire, just slower.
    let start = 5;
    let truth = trajectory(start);
    for arch in Arch::ALL {
        let mut ldb = attach_faulty(arch, start, "seed=11,delay=1");
        let n = marathon(arch, &mut ldb, &truth, None, true);
        assert_eq!(n, 0, "{arch}");
        finish(arch, &mut ldb, &truth, false);
    }
}

#[test]
fn drop_corrupt_duplicate_marathon_retries_through() {
    // Lossy and corrupting: the retransmission budget and the nub's
    // duplicate suppression must absorb every fault — the marathon sees
    // no errors at all.
    let start = 7;
    let truth = trajectory(start);
    for arch in Arch::ALL {
        let mut ldb =
            attach_faulty(arch, start, "seed=7,drop=0.03,corrupt=0.03,dup=0.05");
        let n = marathon(arch, &mut ldb, &truth, None, true);
        assert_eq!(n, 0, "{arch}");
        finish(arch, &mut ldb, &truth, true);
    }
}

#[test]
fn severed_wire_degrades_and_reconnects() {
    // Lossy wire with a scheduled hard severance mid-marathon. The
    // debugger must flag the target disconnected, keep answering cached
    // queries, refuse mutations with a clear error, and then recover
    // completely over a fresh wire — breakpoints replanted from the
    // nub's plant table, trajectory resynced from target memory.
    let start = 7;
    let truth = trajectory(start);
    let recon = "seed=103,drop=0.01,corrupt=0.01";
    for arch in Arch::ALL {
        let mut ldb =
            attach_faulty(arch, start, "seed=3,drop=0.01,corrupt=0.01,disconnect=350");
        // Populate the register snapshot the degraded mode answers from.
        ldb.registers().unwrap_or_else(|e| panic!("{arch}: {e}"));
        let n = marathon(arch, &mut ldb, &truth, Some(recon), false);
        assert!(n >= 1, "{arch}: severance never fired");
        finish(arch, &mut ldb, &truth, true);
    }
}

/// A named field from a parsed journal record.
fn field_u64(rec: &Record, name: &str) -> Option<u64> {
    rec.fields.iter().find(|(k, _)| k.as_ref() == name).and_then(|(_, v)| match v {
        Value::U64(n) => Some(*n),
        _ => None,
    })
}

fn field_str<'a>(rec: &'a Record, name: &str) -> Option<&'a str> {
    rec.fields.iter().find(|(k, _)| k.as_ref() == name).and_then(|(_, v)| match v {
        Value::Str(s) => Some(s.as_ref()),
        _ => None,
    })
}

#[test]
fn journal_cross_checks_wire_metrics_and_fault_stats() {
    // A lossy marathon with a scheduled severance, recorded by the flight
    // recorder. Afterwards the journal must agree *exactly* with the two
    // independent tallies kept below it: the client's `WireMetrics` and
    // the injector's `FaultStats`. Every transaction is a first-attempt
    // `send` (or `send_err`), every retransmission a `retx`, every
    // injected fault a `fault` record, every byte accounted for.
    let start = 27; // 111-step trajectory: plenty of frames past the severance
    let truth = trajectory(start);
    let arch = Arch::Mips;
    let src = program(start);
    let c = compile("c.c", &src, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let handle = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });

    let (trace, journal) = Trace::to_shared_buffer(TraceConfig::default());
    let wire = handle.connect_channel().unwrap();
    let spec = "seed=3,drop=0.01,corrupt=0.01,truncate=0.005,dup=0.02,disconnect=350";
    let mut faulty = FaultyWire::wrap(wire, FaultConfig::parse(spec).unwrap());
    faulty.set_trace(trace.clone());
    let mut injectors = vec![faulty.stats_handle()];

    let mut ldb = Ldb::new();
    ldb.set_trace(trace.clone());
    ldb.attach(Box::new(faulty), &loader, &[], shared_module_cache(), Some(handle), lossy()).unwrap();
    ldb.break_at("collatz", 3).unwrap();
    ldb.registers().unwrap(); // register snapshot for the degraded window

    let mut reconnects = 0usize;
    let mut k = 0usize;
    while k < truth.len() {
        let r = (|| -> Result<(), LdbError> {
            let ev = ldb.cont()?;
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "hit {k}: {ev:?}");
            assert_eq!(ldb.print_var("n")?, truth[k].to_string(), "hit {k}");
            Ok(())
        })();
        match r {
            Ok(()) => k += 1,
            Err(e) => {
                reconnects += 1;
                assert!(reconnects < 8, "reconnect storm: {e}");
                if !ldb.target(0).disconnected {
                    let _ = ldb.cont();
                }
                assert!(ldb.target(0).disconnected, "not disconnected after: {e}");
                let wire = {
                    let t = ldb.target(0);
                    t.nub.as_ref().expect("nub handle").connect_channel().unwrap()
                };
                let mut fresh = FaultyWire::wrap(
                    wire,
                    FaultConfig::parse("seed=103,drop=0.01,corrupt=0.01").unwrap(),
                );
                fresh.set_trace(trace.clone());
                injectors.push(fresh.stats_handle());
                let ev = ldb.reconnect(0, Box::new(fresh)).unwrap();
                assert!(matches!(ev, StopEvent::Breakpoint { .. }), "reconnect stop: {ev:?}");
                k = ldb.print_var("steps").unwrap().parse::<usize>().unwrap() + 1;
            }
        }
    }
    assert!(reconnects >= 1, "the scheduled severance never fired");

    trace.flush();
    let text = journal.text();
    let records: Vec<Record> = text
        .lines()
        .enumerate()
        .map(|(i, l)| validate(l).unwrap_or_else(|e| panic!("journal line {i}: {e}\n  {l}")))
        .collect();

    // Sequence numbers are dense from 1 — nothing lost, nothing reordered.
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64 + 1, "journal seq gap at line {i}");
    }

    // Journal vs WireMetrics. The client survives reconnects, so its
    // counters span the whole session, exactly like the journal.
    let m = ldb.target(0).client.borrow().metrics();
    let count = |kind: &str| records.iter().filter(|r| r.kind == kind).count() as u64;
    let first_attempt = |kind: &str| {
        records.iter().filter(|r| r.kind == kind && field_u64(r, "attempt") == Some(0)).count()
            as u64
    };
    let len_sum = |kind: &str| {
        records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| field_u64(r, "len").expect("len field"))
            .sum::<u64>()
    };
    assert_eq!(
        first_attempt("send") + first_attempt("send_err"),
        m.transactions,
        "every transaction must journal exactly one first-attempt send"
    );
    assert_eq!(count("retx"), m.retransmits, "journal vs retransmit counter");
    assert!(m.retransmits > 0, "a lossy wire must force retransmissions");
    assert_eq!(len_sum("send"), m.bytes_sent, "journal vs bytes_sent");
    assert_eq!(len_sum("recv"), m.bytes_received, "journal vs bytes_received");

    // Journal vs FaultStats, summed over every injector the session wore.
    let stats: FaultStats = injectors.iter().fold(FaultStats::default(), |mut acc, h| {
        let s = *h.lock().unwrap();
        acc.dropped += s.dropped;
        acc.corrupted += s.corrupted;
        acc.truncated += s.truncated;
        acc.duplicated += s.duplicated;
        if s.disconnected {
            acc.frames += 1; // reuse: count of severed injectors
        }
        acc
    });
    let fault_ops = |op: &str| {
        records.iter().filter(|r| r.kind == "fault" && field_str(r, "op") == Some(op)).count()
            as u64
    };
    assert_eq!(fault_ops("drop"), stats.dropped, "journal vs dropped frames");
    assert_eq!(fault_ops("corrupt"), stats.corrupted, "journal vs corrupted frames");
    assert_eq!(fault_ops("truncate"), stats.truncated, "journal vs truncated frames");
    assert_eq!(fault_ops("dup"), stats.duplicated, "journal vs duplicated frames");
    assert_eq!(fault_ops("disconnect"), stats.frames, "journal vs severances");
    assert!(fault_ops("drop") + fault_ops("corrupt") > 0, "no faults journaled");

    // The recovery story is journaled at both layers: the client's wire
    // reconnect and the debugger's session reconnect, one pair per
    // severance handled.
    let wire_recon =
        records.iter().filter(|r| r.layer == Layer::Wire && r.kind == "reconnect").count();
    let dbg_recon =
        records.iter().filter(|r| r.layer == Layer::Dbg && r.kind == "reconnect").count();
    assert_eq!(wire_recon, reconnects, "wire-layer reconnect records");
    assert_eq!(dbg_recon, reconnects, "debugger-layer reconnect records");

    // Accepted event generations are strictly increasing; duplicates are
    // journaled as rejected, never accepted twice.
    let mut last_gen = 0u64;
    for rec in records.iter().filter(|r| r.kind == "event") {
        let gen = field_u64(rec, "gen").expect("gen field");
        if field_str(rec, "what").is_some() {
            // Accepted: carries the decoded stop/exit description. Gens
            // are non-decreasing (a reconnected client re-accepts the
            // re-announced stop under its unchanged generation), never
            // backwards.
            assert!(gen >= last_gen, "accepted event gen {gen} after {last_gen}");
            last_gen = gen;
        } else {
            assert!(gen <= last_gen, "rejected event gen {gen} beyond {last_gen}");
        }
    }
}

#[test]
fn debugger_crash_reattach_recovers_plants() {
    // Kill the debugger (drop the whole Ldb mid-session), then attach a
    // brand-new one over a fresh wire. The nub preserved the stopped
    // target and its planted breakpoint; the new session recovers the
    // plant, resyncs, and finishes the marathon — no target restart.
    let start = 7;
    let truth = trajectory(start);
    for arch in Arch::ALL {
        let src = program(start);
        let c = compile("c.c", &src, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = nm::loader_table_for(&c.linked.image, &symtab);
        let handle = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });

        // First debugger: plant, advance five hits, then "crash".
        let mut ldb1 = Ldb::new();
        ldb1.attach(Box::new(handle.connect_channel().unwrap()), &loader, &[], shared_module_cache(), None, AttachOpts::default()).unwrap();
        let addr = ldb1.break_at("collatz", 3).unwrap();
        for k in 0..5 {
            let ev = ldb1.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch} hit {k}: {ev:?}");
        }
        drop(ldb1);

        // Second debugger: fresh session, fresh wire, same nub.
        let mut ldb2 = Ldb::new();
        ldb2.attach(Box::new(handle.connect_channel().unwrap()), &loader, &[], shared_module_cache(), None, AttachOpts::default())
            .unwrap_or_else(|e| panic!("{arch}: reattach: {e}"));
        let t = ldb2.target(0);
        assert!(t.breakpoints.is_planted(addr), "{arch}: plant not recovered");
        assert_eq!(t.breakpoints.addresses(), vec![addr], "{arch}");
        // Still stopped at hit 4, before its `steps++`.
        assert_eq!(ldb2.print_var("steps").unwrap(), "4", "{arch}");
        assert_eq!(ldb2.print_var("n").unwrap(), truth[4].to_string(), "{arch}");
        // The recovered plant keeps firing: finish the marathon.
        for (k, &expect) in truth.iter().enumerate().skip(5) {
            let ev = ldb2.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch} hit {k}: {ev:?}");
            assert_eq!(ldb2.print_var("n").unwrap(), expect.to_string(), "{arch} hit {k}");
            assert_eq!(ldb2.print_var("steps").unwrap(), k.to_string(), "{arch} hit {k}");
        }
        ldb2.clear_breakpoint(addr).unwrap();
        assert_eq!(ldb2.cont().unwrap(), StopEvent::Exited(0), "{arch}");
        let out = handle.join.join().unwrap().output;
        assert_eq!(out, format!("1 {}\n", truth.len()), "{arch}");
    }
}

/// Attach over a wire severed after `disconnect` frames (never, with
/// `None`), plant the marathon breakpoint, and take two hits. Returns the
/// session, the injector's tally, and the breakpoint's address; `None`
/// when the severance came before the setup was done.
fn severable(
    image: &ldb_suite::machine::Image,
    loader: &str,
    disconnect: Option<u64>,
) -> Option<(Ldb, std::sync::Arc<std::sync::Mutex<FaultStats>>, u32)> {
    let handle = spawn(image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().unwrap();
    let faulty =
        FaultyWire::wrap(wire, FaultConfig { disconnect_after: disconnect, ..Default::default() });
    let stats = faulty.stats_handle();
    let mut ldb = Ldb::new();
    let opts = AttachOpts::default();
    ldb.attach(Box::new(faulty), loader, &[], shared_module_cache(), Some(handle), opts).ok()?;
    let user = ldb.break_at("collatz", 3).ok()?;
    ldb.cont().ok()?;
    ldb.cont().ok()?;
    Some((ldb, stats, user))
}

/// `next` or `finish`, the two resumes that plant temporary breakpoints.
fn temp_motion(ldb: &mut Ldb, cmd: &str) -> Result<StopEvent, LdbError> {
    match cmd {
        "n" => ldb.step_over(),
        _ => ldb.finish().map(|(ev, _)| ev),
    }
}

#[test]
fn severed_resume_leaves_no_temps() {
    // Sever the wire at every frame of one `n` and one `fin`. Wherever
    // the loss lands — planting the temps, running, or lifting them —
    // the target must be flagged disconnected, every resume must refuse
    // with the same diagnosis as a plant, and a reconnect must leave
    // exactly the user's breakpoint planted and the marathon on track.
    let start = 7;
    let truth = trajectory(start);
    for arch in [Arch::Mips, Arch::M68k] {
        let c = compile("c.c", &program(start), arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = nm::loader_table_for(&c.linked.image, &symtab);
        let image = &c.linked.image;
        for cmd in ["n", "fin"] {
            // Calibrate over an unsevered wire: the frames before and
            // after the command. (A quiet-wire probe can shift the count
            // by a frame or two under load; the sweep does not care
            // where each cut lands.)
            let (mut ldb, stats, _) = severable(image, &loader, None).expect("clean setup");
            let first = stats.lock().unwrap().frames;
            temp_motion(&mut ldb, cmd).unwrap_or_else(|e| panic!("{arch} {cmd}: {e}"));
            let last = stats.lock().unwrap().frames;
            let mut failures = 0;
            for n in first + 1..=last {
                let what = format!("{arch} {cmd} disconnect={n}");
                let Some((mut ldb, _, user)) = severable(image, &loader, Some(n)) else { continue };
                let Err(e) = temp_motion(&mut ldb, cmd) else { continue };
                failures += 1;
                assert!(ldb.target(0).disconnected, "{what}: not flagged after: {e}");
                let refusal = ldb.break_at("collatz", 3).unwrap_err().to_string();
                assert!(refusal.contains("disconnected"), "{what}: {refusal}");
                let resumes = [
                    ("cont", ldb.cont().map(drop)),
                    ("step_insn", ldb.step_insn().map(drop)),
                    ("step_over", ldb.step_over().map(drop)),
                    ("finish", ldb.finish().map(drop)),
                    ("reverse_step_insn", ldb.reverse_step_insn().map(drop)),
                    ("cont_watch", ldb.cont_watch().map(drop)),
                ];
                for (name, r) in resumes {
                    let got = r.err().map(|e| e.to_string());
                    assert_eq!(got.as_deref(), Some(refusal.as_str()), "{what}: {name}");
                }
                let wire = ldb.target(0).nub.as_ref().unwrap().connect_channel().unwrap();
                ldb.reconnect(0, Box::new(wire)).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(ldb.target(0).breakpoints.addresses(), vec![user], "{what}");
                // The marathon carries on: each hit's `n` matches the
                // trajectory at its `steps`, one hit after another.
                let mut hit = None;
                loop {
                    match ldb.cont().unwrap_or_else(|e| panic!("{what}: {e}")) {
                        StopEvent::Breakpoint { addr, .. } if addr == user => {
                            let k: usize = ldb.print_var("steps").unwrap().parse().unwrap();
                            assert_eq!(ldb.print_var("n").unwrap(), truth[k].to_string(), "{what}");
                            if let Some(prev) = hit {
                                assert_eq!(k, prev + 1, "{what}");
                            }
                            hit = Some(k);
                        }
                        StopEvent::Exited(0) => break,
                        ev => panic!("{what}: {ev:?}"),
                    }
                }
                assert_eq!(hit, Some(truth.len() - 1), "{what}");
            }
            assert!(failures > 0, "{arch} {cmd}: no severance landed inside the command");
        }
    }
}

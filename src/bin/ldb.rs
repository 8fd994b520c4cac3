//! The `ldb` command-line debugger: compile a C file for a simulated
//! target and debug it interactively.
//!
//! ```text
//! Usage: ldb <file.c>... [--arch ...] [--order big|little] [--tcp]
//!        ldb <file.c>... --fault seed=1,drop=0.05,corrupt=0.02   lossy-wire drill
//!        ldb <file.c>... --chaos <seed>          hostile-target drill (seed, or seed=N,rate=R)
//!        ldb <file.c>... --run [--core <path>]   run undebugged; fault dumps core
//!        ldb <file.c>... --core <path>           post-mortem on a core file
//!        ldb <file.c>... --no-wire-cache         word-at-a-time wire (no block cache)
//!        ldb <file.c>... --trace <path>          flight recorder: JSONL journal to path
//!        ldb <file.c>... --checkpoint-every <n>  checkpoint every n steps during `c`
//!        ldb <file.c>... --script <path>         headless batch mode: run the script, exit typed
//!
//! `--script` runs a command script (the `run_script` replay format)
//! instead of the interactive loop, prints the transcript, and exits
//! with a typed status a fleet supervisor can branch on: 0 clean, 3 at
//! least one `error:` line, 4 a command panicked and was quarantined,
//! 5 the target's wire was lost. (1 remains the internal-error exit and
//! 2 the usage exit, so shells can tell a failed *session* from a
//! failed *invocation*.)
//!
//! `--fault` wraps the debugger's wire in a deterministic fault injector
//! (an optional leading bare seed, as `--chaos` takes, then keys: seed,
//! drop, corrupt, truncate, dup, delay, disconnect); the
//! hardened protocol retries through drops and corruption, and after a
//! `disconnect=N` severance the `reconnect` command resumes the session.
//!
//! `--chaos` corrupts what the debugger *reads* from target data memory —
//! saved frame pointers, return addresses, pointed-to data — with a
//! deterministic seeded schedule. Run control stays reliable; every
//! inspection result is suspect. `info health` reports how often the
//! defensive layers (guarded stack walks, cycle-safe printing, the
//! crash-proof command loop) fired.
//!
//! Commands — one table in `ldb_core::commands`, shared with `--script`,
//! `ldbd` tenants and `ldbfleet` sessions (this is its `help`):
//!
//!   b <func> [n] [if <expr>]  breakpoint at stopping point n (default 0) (also break)
//!   bl <line>                 breakpoint at the first stopping point on a line
//!   ba <addr>                 single-step breakpoint at a raw code address
//!   d <addr>                  delete the breakpoint at addr (also delete)
//!   w <name>                  watch a variable (stops when it changes) (also watch)
//!   dw <name>                 delete the watchpoint on name
//!   c                         continue (also cont, run, r)
//!   s                         single-step one instruction (also step)
//!   n                         step to the next stopping point in this frame (also next)
//!   fin                       run until the selected frame returns (also finish)
//!   checkpoint                capture a restore point
//!   rs                        rewind one instruction (also reverse-step)
//!   rn                        rewind to the previous source line (also reverse-next)
//!   rc                        rewind to the previous breakpoint hit (also reverse-continue)
//!   pc <addr>                 set the program counter (repair and resume)
//!   p <name>                  print a variable via its type's printer (also print)
//!   e <expr>                  evaluate a C expression (assignments, calls allowed) (also eval)
//!   call <f>(<args>)          call a target function
//!   display <expr>            re-evaluate and print expr at every stop
//!   undisplay <k>             remove display k
//!   x <addr> [n]              hex dump n bytes (default 64) of data memory (also examine)
//!   bt                        backtrace (also where)
//!   f <n>                     select frame n (also frame)
//!   regs                      registers (machine-dependent names)
//!   ps <code>                 run PostScript under the interactive budget
//!   reload                    retry quarantined symbol tables
//!   info                      list breakpoints, watchpoints, displays
//!   info wire                 wire transaction counters over every target
//!   info cache                wire block-cache counters (current target)
//!   info trace                flight-recorder counts and wire cross-check
//!   info trace tail           the most recent flight-recorder records
//!   info health [--json]      defensive-layer counters
//!   info checkpoints          list restore points
//!   info ps                   sandbox budgets, spending, quarantined modules
//!   help                      this list (also h)
//!   interactive only: list | disas [n] | detach | attach | reconnect | q
//! ```

use std::io::{BufRead, Write};

use ldb_cc::driver::{compile_many, program_load_plan, CompileOpts, CompiledProgram};
use ldb_cc::pssym;
use ldb_core::{shared_module_cache, AttachOpts, ChaosConfig, Ldb, ModuleTable};
use ldb_machine::{Arch, ByteOrder};
use ldb_machine::core::read_core;
use ldb_nub::{spawn_machine, FaultConfig, NubConfig, NubHandle, TcpWire, Wire};
use ldb_trace::{Trace, TraceConfig};

fn main() {
    if let Err(e) = run() {
        eprintln!("ldb: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut arch = Arch::Mips;
    let mut order = None;
    let mut tcp = false;
    let mut run_only = false;
    let mut core: Option<String> = None;
    let mut fault: Option<FaultConfig> = None;
    let mut chaos: Option<ChaosConfig> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut script_path: Option<String> = None;
    let mut wire_cache = true;
    let mut ps_fuel: Option<u64> = None;
    let mut ps_mem: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-wire-cache" => wire_cache = false,
            "--ps-fuel" => {
                i += 1;
                ps_fuel =
                    Some(args.get(i).ok_or("--ps-fuel needs a step count")?.parse::<u64>()?);
            }
            "--ps-mem" => {
                i += 1;
                ps_mem = Some(args.get(i).ok_or("--ps-mem needs a byte count")?.parse::<u64>()?);
            }
            "--fault" => {
                i += 1;
                let spec = args.get(i).ok_or("--fault needs a spec (e.g. seed=1,drop=0.05)")?;
                fault = Some(FaultConfig::parse(spec)?);
            }
            "--chaos" => {
                i += 1;
                let spec =
                    args.get(i).ok_or("--chaos needs a seed (e.g. 7, or seed=7,rate=0.1)")?;
                chaos = Some(ChaosConfig::parse(spec)?);
            }
            "--checkpoint-every" => {
                i += 1;
                checkpoint_every = Some(
                    args.get(i)
                        .ok_or("--checkpoint-every needs a step count")?
                        .parse::<u64>()?,
                );
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).ok_or("--trace needs a path")?.clone());
            }
            "--script" => {
                i += 1;
                script_path = Some(args.get(i).ok_or("--script needs a path")?.clone());
            }
            "--arch" => {
                i += 1;
                arch = Arch::from_name(args.get(i).map(String::as_str).unwrap_or(""))
                    .ok_or("unknown architecture")?;
            }
            "--tcp" => tcp = true,
            "--run" => run_only = true,
            "--core" => {
                i += 1;
                core = Some(args.get(i).ok_or("--core needs a path")?.clone());
            }
            "--order" => {
                i += 1;
                order = Some(match args.get(i).map(String::as_str) {
                    Some("big") => ByteOrder::Big,
                    Some("little") => ByteOrder::Little,
                    _ => return Err("order must be big or little".into()),
                });
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        eprintln!(
            "usage: ldb <file.c>... [--arch mips|m68k|sparc|vax] [--order big|little] \
             [--ps-fuel <steps>] [--ps-mem <bytes>]"
        );
        std::process::exit(2);
    }
    // Post-mortem: the core file fixes the architecture; the sources are
    // recompiled (deterministically) for the symbol tables.
    let loaded_core = match (&core, run_only) {
        (Some(path), false) => {
            let bytes = std::fs::read(path)?;
            let (machine, sig, code, context) = read_core(&bytes)?;
            arch = machine.cpu.arch;
            Some((machine, sig, code, context))
        }
        _ => None,
    };
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|f| Ok::<_, std::io::Error>((f.clone(), std::fs::read_to_string(f)?)))
        .collect::<Result<_, _>>()?;
    let src = sources.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>().join("
");
    let parts: Vec<(&str, &str)> =
        sources.iter().map(|(f, s)| (f.as_str(), s.as_str())).collect();
    let c: CompiledProgram =
        compile_many(&parts, arch, CompileOpts { order, ..Default::default() })
            .map_err(|e| format!("{e}"))?;
    let (frame_ps, modules) = c_plan(&c);
    if run_only {
        // Run undebugged; a fault dumps core (UNIX semantics) when
        // --core names a path.
        let cfg = NubConfig {
            core_path: core.clone().map(std::path::PathBuf::from),
            ..Default::default()
        };
        let handle = ldb_nub::spawn(&c.linked.image, cfg);
        let m = handle.join.join().expect("nub thread");
        print!("{}", m.output);
        match m.exited {
            Some(status) => println!("exited with status {status}"),
            None => match &core {
                Some(p) if std::path::Path::new(p).exists() => {
                    println!("faulted; core dumped to {p}");
                }
                Some(p) => println!("faulted; could not write core to {p}"),
                None => println!("faulted (no --core path; state discarded)"),
            },
        }
        return Ok(());
    }
    let mut ldb = Ldb::new();
    ldb.set_wire_cache(wire_cache);
    ldb.set_ps_limits(ps_fuel, ps_mem);
    ldb.set_chaos(chaos.clone());
    ldb.set_checkpoint_every(checkpoint_every);
    // The flight recorder always keeps an in-memory ring for `info trace`;
    // `--trace` additionally streams every record to a JSONL journal with
    // wall-clock timestamps.
    let trace = match &trace_path {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Trace::with_writer(
                TraceConfig { wall_clock: true, ..TraceConfig::default() },
                Box::new(std::io::BufWriter::new(file)),
            )
        }
        None => Trace::ring(4096),
    };
    ldb.set_trace(trace.clone());
    if let Some((machine, sig, code, context)) = loaded_core {
        let pc = machine.cpu.pc;
        let handle = spawn_machine(machine, context, NubConfig::default());
        let wire = handle.connect_channel()?;
        attach(&mut ldb, Box::new(wire), &frame_ps, &modules, handle, &fault)?;
        println!(
            "core: signal {sig} (code {code:#x}) at pc {pc:#x}; post-mortem session"
        );
    } else if tcp {
        // Debug over a real socket: the nub thread is the "remote
        // machine"; an acceptor plays inetd and hands it the connection.
        let handle =
            ldb_nub::spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let connect = handle.connect.clone();
        std::thread::spawn(move || {
            if let Ok((s, _)) = listener.accept() {
                let _ = connect.send(Box::new(TcpWire::new(s)));
            }
        });
        let stream = std::net::TcpStream::connect(addr)?;
        attach(&mut ldb, Box::new(TcpWire::new(stream)), &frame_ps, &modules, handle, &fault)?;
        println!("connected over tcp://{addr}");
    } else {
        let handle =
            ldb_nub::spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
        let wire = handle.connect_channel()?;
        attach(&mut ldb, Box::new(wire), &frame_ps, &modules, handle, &fault)?;
    }
    warn_quarantined(&ldb);
    // Headless batch mode: run the script, print the transcript, exit
    // with the typed BatchOutcome code. No banners — the transcript is
    // the whole contract, byte-identical to a run_script replay.
    if let Some(path) = &script_path {
        let text = std::fs::read_to_string(path)?;
        let transcript = ldb_core::run_script(&mut ldb, &text);
        print!("{transcript}");
        let outcome = ldb_core::BatchOutcome::classify(&ldb, &transcript);
        trace.flush();
        if trace.write_failed() {
            eprintln!("ldb: warning: trace journal write failed; the file is incomplete");
        }
        std::process::exit(outcome.exit_code());
    }
    if let Some(f) = &fault {
        println!("fault injection active on the wire: {f:?}");
    }
    if let Some(cfg) = &chaos {
        println!(
            "chaos injection active on target data memory: seed={} rate={} \
             (run control is reliable; inspection results are suspect)",
            cfg.seed, cfg.rate
        );
    }
    println!(
        "ldb: {} for {arch} ({} instructions)",
        files.join(" "),
        c.linked.stats.insn_count
    );

    let mut parked: Option<NubHandle> = None;
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("(ldb) ");
        std::io::stdout().flush()?;
        let Some(Ok(line)) = lines.next() else { break };
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap_or("");
        let arg = words.next();
        // Only the verbs that need what this process alone owns — the
        // nub handles, the source text, the image's byte order — are
        // handled here; every other line goes through the command table.
        let local = match cmd {
            "q" | "quit" => break,
            "detach" => detach(&mut ldb, &mut parked),
            "attach" => reattach(&mut ldb, &mut parked, &c, &fault),
            "reconnect" => reconnect(&mut ldb),
            "list" | "l" => list(&c, &src),
            "disas" | "di" => disas(&ldb, &c, arg),
            _ => {
                // The table's guarded dispatch quarantines a panicking
                // command (journaled, counted by `info health`) and the
                // loop keeps going.
                print!("{}", ldb_core::run_line(&mut ldb, &line));
                Ok(())
            }
        };
        if let Err(e) = local {
            println!("error: {e}");
        }
        // Keep the on-disk journal current between commands so a crashed
        // session still leaves a usable trace behind.
        trace.flush();
    }
    trace.flush();
    if trace.write_failed() {
        eprintln!("ldb: warning: trace journal write failed; the file is incomplete");
    }
    Ok(())
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Attach through the program's load plan (compiled through the
/// process-wide module cache, loaded lazily), with the session's fault
/// injector (if any) on the wire.
fn attach(
    ldb: &mut Ldb,
    wire: Box<dyn Wire>,
    frame: &str,
    modules: &[ModuleTable],
    handle: NubHandle,
    fault: &Option<FaultConfig>,
) -> Result<usize, ldb_core::LdbError> {
    let opts = AttachOpts { fault: fault.clone(), ..AttachOpts::default() };
    ldb.attach(wire, frame, modules, shared_module_cache(), Some(handle), opts)
}

/// The load plan for the compiled program (regenerated on demand; it is
/// deterministic): the trusted linker frame plus named per-module symbol
/// tables, each sandboxed and quarantinable on its own.
fn c_plan(c: &CompiledProgram) -> (String, Vec<ModuleTable>) {
    let (frame, modules) = program_load_plan(c, pssym::PsMode::Deferred);
    let modules =
        modules.into_iter().map(|(name, ps)| ModuleTable { name, ps }).collect();
    (frame, modules)
}

/// Report any modules the sandbox quarantined during a load.
fn warn_quarantined(ldb: &Ldb) {
    for (module, reason) in ldb.quarantined_modules() {
        println!("warning: module {module} quarantined: {reason}");
        println!("         (its symbols are unavailable; `reload` retries)");
    }
}

/// `detach`: park the target in its nub, state preserved.
fn detach(ldb: &mut Ldb, parked: &mut Option<NubHandle>) -> CliResult {
    let handle = ldb
        .detach_current()?
        .ok_or("this target has no local nub handle (already taken)")?;
    *parked = Some(handle);
    println!("detached; program state preserved in the nub (reconnect with `attach`)");
    Ok(())
}

/// `attach`: reconnect to the parked target (the load plan is
/// regenerated from the compiled program).
fn reattach(
    ldb: &mut Ldb,
    parked: &mut Option<NubHandle>,
    c: &CompiledProgram,
    fault: &Option<FaultConfig>,
) -> CliResult {
    let handle = parked.take().ok_or("nothing detached in this session")?;
    let (frame_ps, modules) = c_plan(c);
    let wire = handle.connect_channel()?;
    // On failure the handle went into the failed target; nothing to
    // re-park, but say so rather than dropping silently.
    attach(ldb, Box::new(wire), &frame_ps, &modules, handle, fault)
        .map_err(|e| format!("reattach failed: {e}"))?;
    warn_quarantined(ldb);
    println!("reattached; breakpoints recovered from the nub");
    Ok(())
}

/// `reconnect`: replace the current target's wire with a fresh one — the
/// recovery move after a lost or fault-severed connection. The nub kept
/// the target's state; planted breakpoints are re-learned from its plant
/// records.
fn reconnect(ldb: &mut Ldb) -> CliResult {
    let id = ldb.current().ok_or("no target")?;
    let wire = ldb
        .target(id)
        .nub
        .as_ref()
        .ok_or("this target has no local nub handle to reconnect through")?
        .connect_channel()?;
    let ev = ldb.reconnect(id, Box::new(wire))?;
    println!("{}", ldb_core::script::report_stop(&ev));
    println!("reconnected; breakpoints recovered from the nub");
    Ok(())
}

/// `list`: the source, annotated with stopping points.
fn list(c: &CompiledProgram, src: &str) -> CliResult {
    let funcs: Vec<&ldb_cc::ir::FuncIr> =
        c.units.iter().flat_map(|(u, _)| u.funcs.iter()).collect();
    for (lineno, line) in src.lines().enumerate() {
        let lineno = lineno as u32 + 1;
        let marks: Vec<String> = funcs
            .iter()
            .flat_map(|f| f.stops.iter())
            .filter(|s| s.line == lineno)
            .map(|s| s.index.to_string())
            .collect();
        let tag =
            if marks.is_empty() { String::new() } else { format!("  % stops {}", marks.join(",")) };
        println!("{lineno:>4}  {line}{tag}");
    }
    Ok(())
}

/// `disas [n]`: disassemble n bytes (default 32) forward from the pc —
/// backing up is unreliable on the variable-length targets.
fn disas(ldb: &Ldb, c: &CompiledProgram, n: Option<&str>) -> CliResult {
    let id = ldb.current().ok_or("no target")?;
    let t = ldb.target(id);
    let pc = t.frames.get(t.cur_frame).ok_or("not stopped")?.pc;
    let n: u32 = n.map(str::parse).transpose()?.unwrap_or(32);
    let mut bytes = Vec::new();
    for a in pc..pc + n {
        bytes.push(t.client.borrow_mut().fetch('c', a, 1)? as u8);
    }
    for (addr, _, text) in ldb_machine::disas::disassemble(t.arch, c.order, &bytes, pc) {
        let mark = if addr == pc { "=>" } else { "  " };
        println!("{mark} {addr:#07x}  {text}");
    }
    Ok(())
}

//! The in-process workloads, `interactive` and `long_run`: one client in
//! a closed loop of debugging sessions. Each session spawns its target
//! under a nub, attaches the way the `ldb` CLI does (`Ldb::attach_plan`:
//! eager load plan, default client policy), runs its script one command
//! at a time through `run_script`, and tears down.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldb_suite::cc::driver::{compile_many, program_load_plan, CompileOpts};
use ldb_suite::cc::pssym::PsMode;
use ldb_suite::core::{run_script, Ldb, ModuleTable};
use ldb_suite::machine::{Image, Machine, RunEvent};
use ldb_suite::nub::{channel_pair, spawn, NubConfig, Wire};
use ldb_suite::trace::Trace;

use crate::metrics::{mean, peak_rss_mb, put, quantile, Run, SetupClock, Spans};
use crate::programs::{self, check, Action, Class, Program, Step, CONFIGS};
use crate::wire::{lock, DebuggerEnd, Log, NubEnd};
use crate::Opts;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Interactive,
    LongRun,
}

/// One compiled configuration.
struct Target {
    image: Image,
    frame: String,
    modules: Vec<ModuleTable>,
    compile_ms: f64,
    /// Msteps/s of the unattended run that checked the output.
    bare: f64,
}

/// The workload's set-up: compile every configuration, then run each
/// image to completion without a debugger and check that it prints what
/// the generated program must print.
fn compile(p: &Program) -> Result<Vec<Target>, String> {
    let units: Vec<(&str, &str)> = p.units.iter().map(|(n, s)| (*n, s.as_str())).collect();
    CONFIGS
        .iter()
        .map(|c| {
            let t0 = Instant::now();
            let prog = compile_many(
                &units,
                c.arch,
                CompileOpts {
                    order: c.order,
                    ..Default::default()
                },
            )
            .map_err(|e| format!("{}: compile: {e}", c.name))?;
            let (frame, modules) = program_load_plan(&prog, PsMode::Deferred);
            let modules = modules
                .into_iter()
                .map(|(name, ps)| ModuleTable { name, ps })
                .collect();
            let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
            let image = prog.linked.image;
            let mut m = Machine::load(&image);
            let t1 = Instant::now();
            let ev = loop {
                match m.run(u64::MAX) {
                    RunEvent::Paused { .. } => continue,
                    ev => break ev,
                }
            };
            let bare = m.cpu.steps as f64 / t1.elapsed().as_secs_f64().max(1e-9) / 1e6;
            if ev != RunEvent::Exited(0) || m.output != p.output {
                return Err(format!(
                    "{}: the program ended {ev:?} printing {:?}, want {:?}",
                    c.name, m.output, p.output
                ));
            }
            Ok(Target {
                image,
                frame,
                modules,
                compile_ms,
                bare,
            })
        })
        .collect()
}

/// Retired instructions per second of `Machine::run` on `image`, no nub:
/// the simulator's ceiling (load time excluded).
pub fn bare_msteps_per_s(image: &Image, min_steps: u64) -> f64 {
    let mut busy = Duration::ZERO;
    let mut steps = 0u64;
    while steps < min_steps {
        let mut m = Machine::load(image);
        loop {
            let t0 = Instant::now();
            let ev = m.run(1_000_000);
            busy += t0.elapsed();
            let more = matches!(ev, RunEvent::Paused { .. } | RunEvent::StepLimit);
            if !more || steps + m.cpu.steps >= min_steps {
                break;
            }
        }
        steps += m.cpu.steps.max(1);
    }
    steps as f64 / busy.as_secs_f64().max(1e-9) / 1e6
}

/// Counters read around one call in traced runs.
#[derive(Clone, Copy, Default)]
struct Snap {
    fuel: u64,
    alloc: u64,
    txns: u64,
    retx: u64,
    pings: u64,
    quiet: u64,
    bytes: u64,
    waits: usize,
    nub_idle_polls: u64,
    nub_idle: Duration,
}

fn snap(ldb: &Ldb, log: &Log) -> Snap {
    let b = ldb.interp.budget_stats();
    let m = if ldb.target_count() > 0 {
        ldb.target(0).client.borrow().metrics()
    } else {
        Default::default()
    };
    let l = lock(log);
    Snap {
        fuel: b.fuel_spent_total,
        alloc: b.alloc_charged_total,
        txns: m.transactions,
        retx: m.retransmits,
        pings: l.pings,
        quiet: l.quiet_polls,
        bytes: l.bytes,
        waits: l.waits.len(),
        nub_idle_polls: l.nub_idle_polls,
        nub_idle: l.nub_idle,
    }
}

/// Counters the deterministic-counter gate compares across sessions of
/// the same inputs.
fn gated(name: &str) -> bool {
    ["wire.txns.", "ps.fuel.", "machine.steps."]
        .iter()
        .any(|p| name.starts_with(p))
        || name == "ckpt.taken"
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// State of the traced phase of a run.
#[derive(Default)]
struct Traced {
    spans: Spans,
    /// Time samples (ms) by per-layer metric name.
    samples: BTreeMap<String, Vec<f64>>,
    /// Counts summed over the first traced cycle, by metric name.
    cycle: BTreeMap<String, u64>,
    cycle_sessions: usize,
    /// The first traced session's gated counters, per configuration slot.
    first: Vec<Option<BTreeMap<String, u64>>>,
    nub_serve: Duration,
    nub_served: u64,
}

impl Traced {
    fn sample(&mut self, name: String, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Book one call's deltas under `class`: child spans for the time
    /// the debugger blocked on the wire, self time, and counts.
    #[allow(clippy::too_many_arguments)]
    fn book(
        &mut self,
        class: &str,
        span: usize,
        a: &Snap,
        b: &Snap,
        log: &Log,
        counts: &mut BTreeMap<String, u64>,
        sid: u64,
    ) {
        let waits: Vec<_> = lock(log).waits[a.waits..b.waits].to_vec();
        let mut wait_ms = 0.0;
        for (s, e) in waits {
            wait_ms += ms(e.saturating_duration_since(s));
            self.spans.record("wire.wait", s, e, Some(span), sid);
        }
        let self_ms = self.spans.self_ms(span);
        self.sample(format!("dbg.self_ms.{class}"), self_ms);
        self.sample(format!("wire.wait_ms.{class}"), wait_ms);
        if class == "stop" {
            self.sample(
                "nub.idle_ms.stop".into(),
                ms(b.nub_idle.saturating_sub(a.nub_idle)),
            );
        }
        let mut add = |k: String, v: u64| *counts.entry(k).or_default() += v;
        add(
            format!("wire.txns.{class}"),
            (b.txns - a.txns).saturating_sub(b.pings - a.pings),
        );
        add(format!("wire.bytes.{class}"), b.bytes - a.bytes);
        add(format!("wire.quiet_polls.{class}"), b.quiet - a.quiet);
        add(format!("ps.fuel.{class}"), b.fuel - a.fuel);
        add(format!("ps.alloc.{class}"), b.alloc - a.alloc);
        add("wire.retransmits".into(), b.retx - a.retx);
        add("nub.idle_polls".into(), b.nub_idle_polls - a.nub_idle_polls);
    }
}

struct Solo<'a> {
    kind: Kind,
    run: &'a mut Run,
    traced: Traced,
    /// Steps and time of open-ended continues (no periodic checkpoints).
    open_steps: u64,
    open_time: Duration,
}

impl Solo<'_> {
    /// One session; returns its wall time in ms.
    fn session(&mut self, t: &Target, script: &[Step], slot: usize, sid: u64, traced: bool) -> f64 {
        let cfg = &CONFIGS[slot];
        let t0 = Instant::now();
        let log: Log = Arc::default();
        let root = traced.then(|| self.traced.spans.begin("session", None, sid));
        let handle = spawn(
            &t.image,
            NubConfig {
                wait_at_pause: true,
                ..Default::default()
            },
        );
        let wire: Box<dyn Wire> = if traced {
            let (dbg, nub) = channel_pair();
            let _ = handle
                .connect
                .send(Box::new(NubEnd::new(nub, Arc::clone(&log))));
            Box::new(DebuggerEnd::new(dbg, Arc::clone(&log)))
        } else {
            match handle.connect_channel() {
                Ok(w) => Box::new(w),
                Err(e) => {
                    self.run.check(cfg.name, Err(format!("connect: {e}")));
                    return ms(t0.elapsed());
                }
            }
        };
        let mut ldb = Ldb::new();
        ldb.set_trace(Trace::ring(4096));
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        let a = snap(&ldb, &log);
        let attached = ldb.attach_plan(wire, &t.frame, &t.modules, Some(handle));
        let connect = t0.elapsed();
        if let Some(root) = root {
            let span = self
                .traced
                .spans
                .record("attach", t0, t0 + connect, Some(root), sid);
            let b = snap(&ldb, &log);
            self.traced
                .book("connect", span, &a, &b, &log, &mut counts, sid);
        }
        if let Err(e) = attached {
            self.run.check(cfg.name, Err(format!("attach: {e}")));
            return ms(t0.elapsed());
        }
        self.run.check(cfg.name, Ok(()));
        self.run.latency("connect", ms(connect));
        self.run.ops += 1;

        let mut checkpointing = false;
        for step in script {
            let line = match &step.action {
                Action::CheckpointEvery(n) => {
                    ldb.set_checkpoint_every(Some(*n));
                    checkpointing = true;
                    continue;
                }
                Action::Cmd(line) => line,
            };
            // Retired steps are read outside the timed call: the query is
            // a wire transaction of its own.
            let count_steps = matches!(step.class, Class::Stop | Class::Reverse)
                && (traced || self.kind == Kind::LongRun);
            let steps_before = if count_steps {
                ldb.steps_retired().ok()
            } else {
                None
            };
            let a = traced.then(|| snap(&ldb, &log));
            let c0 = Instant::now();
            let transcript = run_script(&mut ldb, line);
            let took = c0.elapsed();
            let out = transcript
                .split_once('\n')
                .map_or("", |(_, rest)| rest)
                .trim_end_matches('\n');
            self.run
                .check(&format!("{} `{line}`", cfg.name), check(&step.expect, out));
            self.run.ops += 1;
            if step.class != Class::Setup {
                self.run.latency(step.class.name(), ms(took));
            }
            if let (Some(a), Some(root)) = (a, root) {
                let b = snap(&ldb, &log);
                let span = self
                    .traced
                    .spans
                    .record(line.clone(), c0, c0 + took, Some(root), sid);
                if step.class != Class::Setup {
                    self.traced
                        .book(step.class.name(), span, &a, &b, &log, &mut counts, sid);
                }
                if line.starts_with("e ") {
                    self.traced.sample("expr.eval_p50_ms".into(), ms(took));
                }
            }
            if let Some(before) = steps_before {
                let after = ldb.steps_retired().unwrap_or(before);
                let moved = after.abs_diff(before);
                *counts
                    .entry(format!("machine.steps.{}", step.class.name()))
                    .or_default() += moved;
                if line == "c" && !checkpointing {
                    self.open_steps += moved;
                    self.open_time += took;
                }
            }
        }

        if traced {
            let h = ldb.health();
            counts.insert("ckpt.taken".into(), h.checkpoints_taken);
            counts.insert("ckpt.restores".into(), h.restores);
            if let Ok(s) = ldb.checkpoint_stats() {
                counts.insert("ckpt.raw_bytes".into(), s.raw as u64);
                counts.insert("ckpt.packed_bytes".into(), s.compressed as u64);
            }
            if let Some(c) = ldb.target(0).cache.as_ref().map(|c| c.stats()) {
                counts.insert("dbg.amem_hits".into(), c.hits);
                counts.insert("dbg.amem_misses".into(), c.misses);
            }
            if self.kind == Kind::LongRun {
                // The capture probe: one timed manual checkpoint.
                let c0 = Instant::now();
                if ldb.checkpoint_now().is_ok() {
                    self.traced
                        .sample("ckpt.capture_ms".into(), ms(c0.elapsed()));
                }
            }
            let l = lock(&log);
            self.traced.nub_serve += l.nub_serve;
            self.traced.nub_served += l.nub_served;
        }

        let nub = ldb.take_nub_handle(0);
        drop(ldb);
        if let Some(h) = nub {
            // With the debugger gone and no way left to reconnect, the
            // nub thread ends; wait for it.
            drop(h.connect);
            let _ = h.join.join();
        }
        let wall = t0.elapsed();
        if let Some(root) = root {
            self.traced.spans.end(root);
            let gate: BTreeMap<String, u64> = counts
                .iter()
                .filter(|(k, _)| gated(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            match &self.traced.first[slot] {
                None => self.traced.first[slot] = Some(gate),
                Some(first) if *first != gate => self.run.invariant_broken(format!(
                    "{}: deterministic counters moved between sessions of the same inputs: {first:?} vs {gate:?}",
                    cfg.name
                )),
                Some(_) => {}
            }
            if self.traced.cycle_sessions < CONFIGS.len() {
                for (k, v) in counts {
                    *self.traced.cycle.entry(k).or_default() += v;
                }
                self.traced.cycle_sessions += 1;
            }
        }
        ms(wall)
    }
}

pub fn run(opts: &Opts, kind: Kind) -> Run {
    let prog = match kind {
        Kind::Interactive => programs::interactive(opts.seed),
        Kind::LongRun => programs::long_run(opts.seed),
    };
    let mut run = Run::default();
    let (mut setup, targets) = match SetupClock::start(Duration::ZERO, || compile(&prog)) {
        Ok(s) => s,
        Err(e) => {
            run.invariant_broken(e);
            return run;
        }
    };
    let compile_ms: Vec<f64> = targets.iter().map(|t| t.compile_ms).collect();

    let cycle = CONFIGS.len();
    let total = Duration::from_secs_f64(opts.seconds);
    let mut solo = Solo {
        kind,
        run: &mut run,
        traced: Traced {
            first: vec![None; cycle],
            ..Traced::default()
        },
        open_steps: 0,
        open_time: Duration::ZERO,
    };
    // A traced run measures its first half untraced, for the tracing
    // overhead, and traces whole cycles from a cycle boundary on.
    let mut traced_from: Option<usize> = None;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    // Time spent on set-up rounds, kept off the measured clock.
    let mut paused = Duration::ZERO;
    let mut i = 0usize;
    loop {
        if setup.due() {
            match setup.round(|| compile(&prog)) {
                Ok(took) => paused += took,
                Err(e) => {
                    solo.run.invariant_broken(e);
                    break;
                }
            }
        }
        let el = started.elapsed() - paused;
        if opts.traced
            && traced_from.is_none()
            && el >= total / 2
            && i.is_multiple_of(cycle)
            && i > 0
        {
            traced_from = Some(i);
            solo.traced.spans = Spans::new();
        }
        let enough = match (opts.traced, traced_from) {
            (false, _) => i >= if opts.smoke { cycle } else { 1 },
            (true, Some(from)) => i >= from + cycle,
            (true, None) => false,
        };
        if el >= total && enough {
            break;
        }
        let traced = traced_from.is_some();
        let slot = i % cycle;
        let wall = solo.session(&targets[slot], &prog.scripts[slot], slot, i as u64, traced);
        if traced {
            traced_walls.push(wall);
        } else {
            plain_walls.push(wall);
        }
        i += 1;
    }
    let measured = started.elapsed() - paused;
    let (open_steps, open_time) = (solo.open_steps, solo.open_time);
    let mut traced = solo.traced;

    run.setup_s = setup.median();
    run.measured_s = measured.as_secs_f64();
    run.sessions_ms = if opts.traced {
        traced_walls.clone()
    } else {
        plain_walls.clone()
    };
    if kind == Kind::LongRun {
        let rate = open_steps as f64 / open_time.as_secs_f64().max(1e-9) / 1e6;
        put(&mut run.extra, "exec_msteps_per_s", rate, "Msteps/s");
    }
    if opts.traced {
        let overhead = (mean(&traced_walls) / mean(&plain_walls) - 1.0) * 100.0;
        put(&mut run.layer, "bench.trace_overhead_pct", overhead, "%");
        put(
            &mut run.layer,
            "cc.compile_ms",
            quantile(&compile_ms, 0.5),
            "ms",
        );
        let bare: Vec<f64> = targets.iter().map(|t| t.bare).collect();
        put(
            &mut run.layer,
            "machine.bare_msteps_per_s",
            quantile(&bare, 0.5),
            "Msteps/s",
        );
        let hits = traced.cycle.remove("dbg.amem_hits").unwrap_or(0) as f64;
        let misses = traced.cycle.remove("dbg.amem_misses").unwrap_or(0) as f64;
        put(
            &mut run.layer,
            "dbg.amem_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        for (k, v) in &traced.cycle {
            put(&mut run.layer, k.clone(), *v as f64, "count");
        }
        for (k, v) in &traced.samples {
            put(&mut run.layer, k.clone(), quantile(v, 0.5), "ms");
        }
        let serve = ms(traced.nub_serve) / traced.nub_served.max(1) as f64;
        put(&mut run.layer, "nub.serve_ms", serve, "ms");
        if let Some(dir) = &opts.out {
            let name = if kind == Kind::LongRun {
                "long_run"
            } else {
                "interactive"
            };
            let path = dir.join(format!("spans-{name}-{}.jsonl", opts.seed));
            if let Err(e) = traced.spans.write(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    run.peak_rss_mb = peak_rss_mb(None);
    run
}

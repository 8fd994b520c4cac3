//! The `fleet` workload: in-process `run_fleet` with two workers over a
//! 64-session range of the demo corpus, one range per seed. It is the
//! only workload through fleet supervision, retries, watchdog drills and
//! bucketing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ldb_suite::core::{command_count, ModuleCache};
use ldb_suite::fleet::{corpus, prepare_target, run_fleet, FleetConfig, FleetOutcome, SessionSpec};
use ldb_suite::machine::Image;

use crate::metrics::{mean, peak_rss_mb, put, quantile, Run, SetupClock, Spans};
use crate::solo::bare_msteps_per_s;
use crate::Opts;

const SESSIONS: usize = 64;
/// Corpus ranges a run cycles through.
const RANGES: usize = 3;
const WORKERS: usize = 2;
/// A set-up takes about 2 ms: each round repeats it for this long.
const SETUP_ROUND: Duration = Duration::from_millis(50);
const OUTCOMES: [&str; 5] = [
    "clean",
    "script-error",
    "panic-quarantined",
    "wire-lost",
    "wedged",
];

/// The outcomes a session of each corpus template may end in.
fn allowed(slot: usize) -> &'static [&'static str] {
    match slot {
        0..=5 => &["clean"],
        // Corrupted reads can send the debugger anywhere short of a
        // wedge, including a lost wire.
        6..=9 => &["clean", "script-error", "panic-quarantined", "wire-lost"],
        10 | 11 => &["script-error"],
        12 | 13 => &["wire-lost", "clean", "script-error"],
        14 => &["panic-quarantined"],
        _ => &["wedged"],
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compile every distinct target of `specs`, as `run_fleet` does before
/// its first session. Returns per-target compile times and one image.
fn prepare(specs: &[SessionSpec]) -> Result<(Vec<f64>, Option<Image>), String> {
    let cache = ModuleCache::new();
    let mut seen = Vec::new();
    let mut times = Vec::new();
    let mut image = None;
    for s in specs {
        if seen.contains(&(s.arch, s.source.as_str())) {
            continue;
        }
        let t0 = Instant::now();
        let p = prepare_target(s.arch, &s.source, &cache)?;
        times.push(ms(t0.elapsed()));
        seen.push((s.arch, s.source.as_str()));
        if s.source == corpus::PROG_COUNT && image.is_none() {
            image = Some(p.image);
        }
    }
    Ok((times, image))
}

pub fn run(opts: &Opts) -> Run {
    let mut run = Run::default();
    // Consecutive calls take consecutive ranges from the seed's on, so a
    // run's figures do not hang on one range's chaos draws.
    let ranges: Vec<Vec<SessionSpec>> = (0..RANGES)
        .map(|k| {
            let base = ((opts.seed as usize + k) % 1024) * SESSIONS;
            (base..base + SESSIONS).map(corpus::spec_for).collect()
        })
        .collect();
    let all = ranges.concat();
    let (mut setup, prepared) = match SetupClock::start(SETUP_ROUND, || prepare(&all)) {
        Ok(s) => s,
        Err(e) => {
            run.invariant_broken(e);
            return run;
        }
    };

    let cfg = FleetConfig {
        workers: WORKERS,
        ..FleetConfig::default()
    };
    let total = Duration::from_secs_f64(opts.seconds);
    // Traced runs alternate untraced and traced fleet calls, for the
    // tracing overhead.
    let min_calls = if opts.traced { 2 } else { 1 };
    let mut spans = Spans::new();
    let mut measured = Duration::ZERO;
    let mut last = Duration::ZERO;
    let mut first: Vec<Option<BTreeMap<String, u64>>> = vec![None; RANGES];
    let mut layer_counts = None;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut wall_by_outcome: BTreeMap<String, f64> = BTreeMap::new();
    let mut traced_calls = 0u32;
    let mut calls = 0usize;
    loop {
        if calls >= min_calls && (opts.smoke || measured + last > total) {
            break;
        }
        if setup.due() {
            if let Err(e) = setup.round(|| prepare(&all)) {
                run.invariant_broken(e);
                break;
            }
        }
        let traced = opts.traced && calls % 2 == 1;
        let range = calls % RANGES;
        let specs = &ranges[range];
        let t0 = Instant::now();
        let results = match run_fleet(&cfg, specs) {
            Ok(r) => r,
            Err(e) => {
                run.invariant_broken(e.to_string());
                break;
            }
        };
        last = t0.elapsed();
        measured += last;
        calls += 1;
        let call =
            traced.then(|| spans.record(format!("fleet call {calls}"), t0, t0 + last, None, 0));
        let mut counts: BTreeMap<String, u64> = OUTCOMES
            .iter()
            .map(|o| (format!("fleet.outcome.{o}"), 0))
            .collect();
        for r in &results {
            let spec = &specs[r.id as usize];
            let token = r.outcome.token();
            let settled =
                r.outcome == FleetOutcome::Wedged || r.journal.is_some_and(|j| j.consistent());
            let verdict = if !allowed(r.id as usize % corpus::WHEEL).contains(&token) {
                Err(format!("outcome {token} outside its template's set"))
            } else if !settled {
                Err(format!(
                    "journal disagrees with the session: {:?}",
                    r.journal
                ))
            } else {
                Ok(())
            };
            run.check(&r.name, verdict);
            run.ops += command_count(&spec.script);
            run.sessions_ms.push(ms(r.wall));
            *counts.entry(format!("fleet.outcome.{token}")).or_default() += 1;
            *counts.entry("fleet.retries".into()).or_default() += u64::from(r.retries);
            *counts
                .entry("fleet.journal_inconsistent".into())
                .or_default() += u64::from(!settled);
            if let Some(h) = &r.health {
                *counts.entry("ckpt.taken".into()).or_default() += h.checkpoints_taken;
                *counts.entry("ckpt.restores".into()).or_default() += h.restores;
            }
            if traced {
                traced_walls.push(ms(r.wall));
                *wall_by_outcome
                    .entry(format!("fleet.wall_s.{token}"))
                    .or_default() += r.wall.as_secs_f64();
                // Sessions report only their wall time: the span keeps
                // the duration, anchored at the call's start.
                spans.record(r.name.clone(), t0, t0 + r.wall, call, r.id);
            } else {
                plain_walls.push(ms(r.wall));
            }
        }
        traced_calls += u32::from(traced);
        if layer_counts.is_none() && traced == opts.traced {
            layer_counts = Some(counts.clone());
        }
        match &first[range] {
            None => first[range] = Some(counts),
            Some(f) if *f != counts => run.invariant_broken(format!(
                "fleet outcome counts moved between calls on the same range: {f:?} vs {counts:?}"
            )),
            Some(_) => {}
        }
    }
    // Rounds fall only between calls, a few seconds apart: one more after
    // the last call widens the stretch of the run they sample.
    if let Err(e) = setup.round(|| prepare(&all)) {
        run.invariant_broken(e);
    }
    run.setup_s = setup.median();
    run.measured_s = measured.as_secs_f64();
    run.peak_rss_mb = peak_rss_mb(None);
    let counts = layer_counts.unwrap_or_default();
    if opts.smoke {
        for o in OUTCOMES {
            if counts
                .get(&format!("fleet.outcome.{o}"))
                .copied()
                .unwrap_or(0)
                == 0
            {
                run.invariant_broken(format!(
                    "smoke: no `{o}` session in the fleet's outcome mix"
                ));
            }
        }
    }
    if opts.traced {
        for (k, v) in &counts {
            put(&mut run.layer, k.clone(), *v as f64, "count");
        }
        for (k, v) in &wall_by_outcome {
            put(
                &mut run.layer,
                k.clone(),
                v / f64::from(traced_calls.max(1)),
                "s",
            );
        }
        put(
            &mut run.layer,
            "fleet.session_wall_p50_ms",
            quantile(&traced_walls, 0.5),
            "ms",
        );
        put(
            &mut run.layer,
            "fleet.session_wall_p90_ms",
            quantile(&traced_walls, 0.9),
            "ms",
        );
        put(
            &mut run.layer,
            "bench.trace_overhead_pct",
            (mean(&traced_walls) / mean(&plain_walls) - 1.0) * 100.0,
            "%",
        );
        put(
            &mut run.layer,
            "cc.compile_ms",
            quantile(&prepared.0, 0.5),
            "ms",
        );
        if let Some(image) = &prepared.1 {
            put(
                &mut run.layer,
                "machine.bare_msteps_per_s",
                bare_msteps_per_s(image, 1_000_000),
                "Msteps/s",
            );
        }
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("spans-fleet-{}.jsonl", opts.seed));
            if let Err(e) = spans.write(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    run
}

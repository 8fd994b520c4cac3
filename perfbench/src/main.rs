//! perfbench — the ldb benchmark: seeded closed-loop workloads that
//! drive the debugger through the calls `ldb`, `ldb --script`, `ldbd`
//! and `ldbfleet` make, with end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones.
//!
//! Usage: perfbench --workload interactive|long_run|daemon|fleet
//!                  --seed N --seconds S --trace 0|1
//!                  [--smoke] [--ldbd PATH] [--out DIR]
//!
//! Prints a `summary` line holding every metric the workload measured,
//! then, as the last line, `{"correct", "attempted", "failed",
//! "metrics"}` with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`) listed in `BENCHMARK.json`. Problems
//! go to standard error. See README.md beside this crate.

mod daemon;
mod fleet;
mod metrics;
mod programs;
mod solo;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{metrics_json, put, quantile, Metrics, Run};

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One short pass: a single cycle of sessions per phase.
    pub smoke: bool,
    pub ldbd: Option<PathBuf>,
    /// Where traced runs write their spans.
    pub out: Option<PathBuf>,
}

pub const WORKLOADS: [&str; 4] = ["interactive", "long_run", "daemon", "fleet"];

/// The per-layer metrics a traced run reports on every workload (0 where
/// the workload's path does not go through the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.txns.connect", "count"),
    ("wire.txns.stop", "count"),
    ("wire.txns.inspect", "count"),
    ("wire.txns.reverse", "count"),
    ("wire.bytes.connect", "count"),
    ("wire.bytes.stop", "count"),
    ("wire.bytes.inspect", "count"),
    ("wire.bytes.reverse", "count"),
    ("wire.quiet_polls.connect", "count"),
    ("wire.quiet_polls.stop", "count"),
    ("wire.retransmits", "count"),
    ("nub.idle_polls", "count"),
    ("ps.fuel.connect", "count"),
    ("ps.fuel.stop", "count"),
    ("ps.fuel.inspect", "count"),
    ("ps.alloc.connect", "count"),
    ("machine.steps.stop", "count"),
    ("machine.steps.reverse", "count"),
    ("ckpt.taken", "count"),
    ("ckpt.restores", "count"),
    ("ckpt.raw_bytes", "count"),
    ("ckpt.packed_bytes", "count"),
    ("daemon.cache_hits", "count"),
    ("daemon.cache_misses", "count"),
    ("net.requests", "count"),
    ("net.bytes_in", "count"),
    ("net.bytes_out", "count"),
    ("net.shed", "count"),
    ("net.quarantined", "count"),
    ("fleet.retries", "count"),
    ("fleet.journal_inconsistent", "count"),
    ("fleet.outcome.clean", "count"),
    ("fleet.outcome.script-error", "count"),
    ("fleet.outcome.panic-quarantined", "count"),
    ("fleet.outcome.wire-lost", "count"),
    ("fleet.outcome.wedged", "count"),
    ("dbg.amem_hit_ratio", "ratio"),
    ("cc.compile_ms", "ms"),
    ("machine.bare_msteps_per_s", "Msteps/s"),
    ("bench.trace_overhead_pct", "%"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--smoke] [--ldbd PATH] [--out DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Option<Opts> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        ldbd: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => o.workload = args.next()?,
            "--seed" => o.seed = args.next()?.parse().ok()?,
            "--seconds" => o.seconds = args.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => o.traced = args.next()?.parse::<u8>().ok()? != 0,
            "--smoke" => o.smoke = true,
            "--ldbd" => o.ldbd = Some(args.next()?.into()),
            "--out" => o.out = Some(args.next()?.into()),
            _ => return None,
        }
    }
    WORKLOADS.contains(&o.workload.as_str()).then_some(o)
}

/// The end-to-end metrics every workload reports.
fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, "setup_s", run.setup_s, "s");
    put(
        &mut m,
        "session_p50_ms",
        quantile(&run.sessions_ms, 0.5),
        "ms",
    );
    put(
        &mut m,
        "session_p90_ms",
        quantile(&run.sessions_ms, 0.9),
        "ms",
    );
    let secs = run.measured_s.max(1e-9);
    put(
        &mut m,
        "sessions_per_s",
        run.sessions_ms.len() as f64 / secs,
        "1/s",
    );
    put(&mut m, "cmds_per_s", run.ops as f64 / secs, "1/s");
    m
}

fn main() -> ExitCode {
    let Some(opts) = parse() else { return usage() };
    let run = match opts.workload.as_str() {
        "interactive" => solo::run(&opts, solo::Kind::Interactive),
        "long_run" => solo::run(&opts, solo::Kind::LongRun),
        "daemon" => daemon::run(&opts),
        _ => fleet::run(&opts),
    };

    // Everything measured, by name, for people and for the docs.
    let mut summary = end_to_end(&run);
    for (class, xs) in &run.lat {
        put(
            &mut summary,
            format!("{class}_p50_ms"),
            quantile(xs, 0.5),
            "ms",
        );
        put(
            &mut summary,
            format!("{class}_p90_ms"),
            quantile(xs, 0.9),
            "ms",
        );
        put(
            &mut summary,
            format!("{class}_samples"),
            xs.len() as f64,
            "count",
        );
    }
    summary.extend(run.extra.clone());
    // Not bounded: a fleet run's peak moves by a third between runs of
    // the same code, with the number of allocator arenas its threads get.
    put(&mut summary, "peak_rss_mb", run.peak_rss_mb, "MiB");
    put(
        &mut summary,
        "failed_ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
        "ratio",
    );
    put(
        &mut summary,
        "sessions",
        run.sessions_ms.len() as f64,
        "count",
    );
    if opts.traced {
        summary.extend(run.layer.clone());
    }

    let metrics = if opts.traced {
        let mut m = Metrics::new();
        for (name, unit) in PER_LAYER {
            let value = run.layer.get(*name).map_or(0.0, |v| v.value);
            put(&mut m, *name, value, unit);
        }
        m
    } else {
        end_to_end(&run)
    };
    for p in &run.problems {
        eprintln!("perfbench: {p}");
    }
    let correct = run.failed == 0 && !run.broken && run.attempted > 0;
    println!(
        "summary {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"metrics\": {}}}",
        opts.workload,
        opts.seed,
        u8::from(opts.traced),
        metrics_json(&summary)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

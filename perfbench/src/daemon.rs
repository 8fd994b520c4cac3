//! The `daemon` workload: `ldbd` as a child process on loopback, driven
//! from this process over two connections in a closed loop. It keeps 16
//! tenants on the builtin `count` program, four per architecture, and
//! cycles each through open, `b clamp`, ten rounds of `c`, `p calls`,
//! `p v`, `bt` and `health <id>`, then close and reopen. Every request
//! line goes out in one write, as `nc` sends it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ldb_suite::cc::driver::{compile_many, CompileOpts};
use ldb_suite::daemon::{unescape_line, PROG_COUNT};
use ldb_suite::machine::Arch;

use crate::metrics::{peak_rss_mb, put, quantile, Metric, Run, Spans};
use crate::programs::{check, func_line, Expect, Rng};
use crate::solo::bare_msteps_per_s;
use crate::Opts;

/// Two connections, each driving two tenants per architecture.
const CONNS: usize = 2;
const ARCHS: [&str; 4] = ["mips", "m68k", "sparc", "vax"];
const ROUNDS: usize = 10;
/// open, `b clamp`, five requests per round, close.
const LIFECYCLE: usize = 2 + 5 * ROUNDS + 1;
/// Tenants of a connection start this many turns apart, so no two open
/// in the same turn and every lifecycle spans one open of each other
/// tenant: lifecycle times then share one mode instead of eight.
const STAGGER: usize = LIFECYCLE / (2 * ARCHS.len());
const SETUP_REPS: usize = 3;

/// One client connection; one request line per write.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { w: s, r })
    }

    /// Send one request; `Ok(payload)` for an `ok` reply, `Err` for an
    /// `err` reply or a broken connection.
    fn request(&mut self, line: &str) -> Result<String, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.w.write_all(&buf).map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        match self.r.read_line(&mut reply) {
            Ok(0) => return Err("daemon hung up".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let reply = reply.trim_end_matches(['\n', '\r']);
        match reply.split_once(' ') {
            Some(("ok", p)) => Ok(unescape_line(p)),
            Some(("err", m)) => Err(format!("err {}", unescape_line(m))),
            _ => Err(format!("malformed reply {reply:?}")),
        }
    }
}

/// A running `ldbd`; killed on drop if it has not shut down.
struct Ldbd {
    child: Child,
    addr: SocketAddr,
    /// Kept open so the daemon's last words never hit a closed pipe.
    _out: BufReader<ChildStdout>,
}

impl Ldbd {
    fn start(exe: &Path) -> Result<Ldbd, String> {
        let mut child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let mut out = BufReader::new(child.stdout.take().ok_or("ldbd stdout")?);
        let mut line = String::new();
        let _ = out.read_line(&mut line);
        // "ldbd: listening on 127.0.0.1:PORT (max ...)"
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Ldbd {
                child,
                addr,
                _out: out,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ldbd did not report its address: {line:?}"))
            }
        }
    }

    /// `shutdown`, then wait for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let r = Conn::connect(self.addr).and_then(|mut c| c.request("shutdown"));
        let until = Instant::now() + Duration::from_secs(20);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return r.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("ldbd did not exit after shutdown".into())
    }
}

impl Drop for Ldbd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The numeric value after `"key":` in a flat JSON document.
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let at = doc.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// `wire: N transactions, R retransmits, B bytes out, B bytes in`
fn parse_wire(s: &str) -> Option<(u64, u64)> {
    let nums: Vec<u64> = s
        .split_whitespace()
        .filter_map(|w| w.trim_end_matches(',').parse().ok())
        .collect();
    (nums.len() == 4).then(|| (nums[0], nums[2] + nums[3]))
}

struct Tenant {
    arch: &'static str,
    jitter: u64,
    id: u64,
    step: usize,
    /// When the current lifecycle's `open` went out (`None` for the
    /// lifecycles set-up opened, which are not timed).
    opened: Option<Instant>,
    lifecycles: u64,
    /// The turn of the measured loop this tenant first acts in.
    start_turn: usize,
    /// The current lifecycle is traced (it began in the traced phase).
    traced: bool,
    root: Option<usize>,
    counts: BTreeMap<String, u64>,
}

/// What one connection's loop produced.
#[derive(Default)]
struct ConnOut {
    run: Run,
    spans: Spans,
    samples: BTreeMap<String, Vec<f64>>,
    /// Counts of the first traced lifecycle per architecture.
    first: BTreeMap<&'static str, BTreeMap<String, u64>>,
    plain_req: Vec<f64>,
    traced_req: Vec<f64>,
}

fn open(conn: &mut Conn, t: &mut Tenant) -> Result<String, String> {
    let reply = conn.request(&format!("open {} jitter={}", t.arch, t.jitter))?;
    t.id = reply
        .parse()
        .map_err(|_| format!("open replied {reply:?}"))?;
    Ok(reply)
}

/// Drive `tenants` round-robin, one request each per turn, until the
/// deadline (and, in smoke runs, until every tenant finished a
/// lifecycle).
fn drive(
    conn: &mut Conn,
    tenants: &mut [Tenant],
    opts: &Opts,
    deadline: Instant,
    trace_from: Instant,
    clamp_line: u32,
) -> ConnOut {
    let mut out = ConnOut::default();
    let frames = Expect::Frames(vec!["clamp", "main"]);
    let mut turn = 0usize;
    loop {
        let smoke_done = !opts.smoke
            || if opts.traced {
                out.first.len() == ARCHS.len()
            } else {
                // The first lifecycle began in set-up; the second is timed.
                tenants.iter().all(|t| t.lifecycles > 1)
            };
        if Instant::now() >= deadline && smoke_done {
            break;
        }
        for t in tenants.iter_mut().filter(|t| t.start_turn <= turn) {
            if t.step == 0 {
                t.traced = opts.traced && Instant::now() >= trace_from;
                t.opened = Some(Instant::now());
                t.root = t
                    .traced
                    .then(|| out.spans.begin(format!("tenant {}", t.arch), None, t.id));
            }
            // `None` marks the `health` reply, checked below.
            let (line, class, expect): (String, &'static str, Option<Expect>) = match t.step {
                0 => (
                    format!("open {} jitter={}", t.arch, t.jitter),
                    "connect",
                    Some(Expect::Ok),
                ),
                1 => (
                    format!("cmd {} b clamp", t.id),
                    "setup",
                    Some(Expect::Prefix("breakpoint at 0x")),
                ),
                s if s < LIFECYCLE - 1 => {
                    let k = (s - 2) / 5 + 1;
                    match (s - 2) % 5 {
                        0 => (
                            format!("cmd {} c", t.id),
                            "stop",
                            Some(Expect::StopIn {
                                funcs: vec!["clamp"],
                                line: Some(clamp_line),
                            }),
                        ),
                        1 => (
                            format!("cmd {} p calls", t.id),
                            "inspect",
                            Some(Expect::Exact(format!("calls = {}", k - 1))),
                        ),
                        2 => (
                            format!("cmd {} p v", t.id),
                            "inspect",
                            Some(Expect::Exact(format!("v = {}", (k - 1) * 30))),
                        ),
                        3 => (format!("cmd {} bt", t.id), "inspect", Some(frames.clone())),
                        _ => (format!("health {}", t.id), "inspect", None),
                    }
                }
                _ => (
                    format!("close {}", t.id),
                    "setup",
                    Some(Expect::Prefix("closed")),
                ),
            };
            let wire_before = (t.traced && line.starts_with("cmd "))
                .then(|| {
                    conn.request(&format!("cmd {} info wire", t.id))
                        .ok()
                        .and_then(|s| parse_wire(&s))
                })
                .flatten();
            let t0 = Instant::now();
            let reply = if t.step == 0 {
                open(conn, t)
            } else {
                conn.request(&line)
            };
            let took = t0.elapsed().as_secs_f64() * 1e3;
            // A `cmd` reply is the script transcript: the echoed command,
            // then its output.
            let reply = reply.map(|r| match r.strip_prefix("(ldb) ") {
                Some(echoed) => echoed
                    .split_once('\n')
                    .map_or("", |(_, o)| o)
                    .trim_end_matches('\n')
                    .to_string(),
                None => r,
            });
            let verdict = match (&reply, &expect) {
                (Err(e), _) => Err(e.clone()),
                (Ok(r), Some(x)) => check(x, r),
                (Ok(r), None) => {
                    let clean = json_u64(r, "quarantined_commands") == Some(0)
                        && json_u64(r, "watchdog_timeouts") == Some(0);
                    if clean {
                        Ok(())
                    } else {
                        Err(format!("unhealthy tenant: {r}"))
                    }
                }
            };
            out.run.check(&format!("{} `{line}`", t.arch), verdict);
            out.run.ops += 1;
            if class != "setup" {
                out.run.latency(class, took);
            }
            if t.traced {
                out.traced_req.push(took);
                out.spans.record(
                    line.clone(),
                    t0,
                    t0 + Duration::from_secs_f64(took / 1e3),
                    t.root,
                    t.id,
                );
                let after = if t.step == 0 || line.starts_with("cmd ") {
                    conn.request(&format!("cmd {} info wire", t.id))
                        .ok()
                        .and_then(|s| parse_wire(&s))
                } else {
                    None
                };
                if let Some((txns, bytes)) = after {
                    let (t0n, b0) = wire_before.unwrap_or((0, 0));
                    if class != "setup" {
                        *t.counts.entry(format!("wire.txns.{class}")).or_default() += txns - t0n;
                        *t.counts.entry(format!("wire.bytes.{class}")).or_default() += bytes - b0;
                    }
                }
                if t.step == 0 {
                    let p0 = Instant::now();
                    if conn.request("ping").is_ok() {
                        out.samples
                            .entry("net.ping_p50_ms".into())
                            .or_default()
                            .push(p0.elapsed().as_secs_f64() * 1e3);
                    }
                }
            } else {
                out.plain_req.push(took);
            }
            t.step += 1;
            if t.step == LIFECYCLE {
                if let Some(opened) = t.opened {
                    out.run
                        .sessions_ms
                        .push(opened.elapsed().as_secs_f64() * 1e3);
                }
                if let Some(root) = t.root.take() {
                    out.spans.end(root);
                    let counts = std::mem::take(&mut t.counts);
                    match out.first.get(t.arch) {
                        None => {
                            out.first.insert(t.arch, counts);
                        }
                        Some(first) if *first != counts => out.run.invariant_broken(format!(
                            "{}: wire transactions moved between lifecycles: {first:?} vs {counts:?}",
                            t.arch
                        )),
                        Some(_) => {}
                    }
                }
                t.step = 0;
                t.lifecycles += 1;
            }
        }
        turn += 1;
    }
    out
}

/// A connection and the tenants it drives.
type Group = (Conn, Vec<Tenant>);

/// Start `ldbd` and open every tenant: the workload's set-up.
fn set_up(exe: &Path, seed: u64) -> Result<(Ldbd, Vec<Group>), String> {
    let d = Ldbd::start(exe)?;
    let mut rng = Rng::new(seed, 3);
    let mut groups = Vec::new();
    for _ in 0..CONNS {
        let conn = Conn::connect(d.addr)?;
        let mut archs: Vec<&'static str> = ARCHS.iter().chain(ARCHS.iter()).copied().collect();
        for i in (1..archs.len()).rev() {
            archs.swap(i, rng.range(0, i as i64) as usize);
        }
        let tenants: Vec<Tenant> = archs
            .into_iter()
            .enumerate()
            .map(|(j, arch)| Tenant {
                arch,
                start_turn: j * STAGGER,
                jitter: rng.range(1, 1 << 20) as u64,
                id: 0,
                step: 1,
                opened: None,
                lifecycles: 0,
                traced: false,
                root: None,
                counts: BTreeMap::new(),
            })
            .collect();
        groups.push((conn, tenants));
    }
    let opened: Result<(), String> = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .iter_mut()
            .map(|(conn, tenants)| {
                s.spawn(move || {
                    for t in tenants.iter_mut() {
                        open(conn, t)?;
                    }
                    Ok::<(), String>(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "opener panicked".to_string())?)
    });
    opened?;
    Ok((d, groups))
}

pub fn run(opts: &Opts) -> Run {
    let mut run = Run::default();
    let Some(exe) = opts.ldbd.as_deref() else {
        run.invariant_broken("the daemon workload needs --ldbd PATH".into());
        return run;
    };
    let clamp_line = func_line(PROG_COUNT, "clamp").unwrap_or(0);
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        match set_up(exe, opts.seed) {
            Ok(s) => {
                setups.push(t0.elapsed().as_secs_f64());
                if rep + 1 < SETUP_REPS {
                    if let Err(e) = s.0.stop() {
                        run.invariant_broken(e);
                    }
                } else {
                    live = Some(s);
                }
            }
            Err(e) => {
                run.invariant_broken(e);
                return run;
            }
        }
    }
    let Some((ldbd, mut groups)) = live else {
        return run;
    };
    run.setup_s = quantile(&setups, 0.5);

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    let trace_from = started + Duration::from_secs_f64(opts.seconds / 2.0);
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .iter_mut()
            .map(|(conn, tenants)| {
                s.spawn(move || drive(conn, tenants, opts, deadline, trace_from, clamp_line))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection loop panicked"))
            .collect()
    });
    run.measured_s = started.elapsed().as_secs_f64();

    let health = Conn::connect(ldbd.addr).and_then(|mut c| c.request("health"));
    run.peak_rss_mb = peak_rss_mb(Some(ldbd.child.id()));
    drop(groups);
    if let Err(e) = ldbd.stop() {
        run.invariant_broken(e);
    }

    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut first: BTreeMap<&'static str, BTreeMap<String, u64>> = BTreeMap::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, o) in outs.into_iter().enumerate() {
        run.absorb(o.run);
        for (k, v) in o.samples {
            samples.entry(k).or_default().extend(v);
        }
        for (arch, counts) in o.first {
            match first.get(arch) {
                Some(f) if *f != counts => run.invariant_broken(format!(
                    "{arch}: wire transactions differ between connections"
                )),
                Some(_) => {}
                None => {
                    first.insert(arch, counts);
                }
            }
        }
        plain.extend(o.plain_req);
        traced.extend(o.traced_req);
        if let (true, Some(dir)) = (opts.traced, &opts.out) {
            let path = dir.join(format!("spans-daemon-{}-conn{i}.jsonl", opts.seed));
            if let Err(e) = o.spans.write(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    match health {
        Ok(h) => {
            let n = |k: &str| json_u64(&h, k).unwrap_or(0) as f64;
            for (name, key) in [
                ("daemon.cache_hits", "hits"),
                ("daemon.cache_misses", "misses"),
                ("net.requests", "requests"),
                ("net.bytes_in", "bytes_in"),
                ("net.bytes_out", "bytes_out"),
                ("net.shed", "shed"),
                ("net.quarantined", "quarantined"),
            ] {
                put(&mut run.layer, name, n(key), "count");
            }
        }
        Err(e) => run.invariant_broken(format!("daemon health: {e}")),
    }
    if opts.traced {
        for counts in first.values() {
            for (k, v) in counts {
                let e = run.layer.entry(k.clone()).or_insert(Metric {
                    value: 0.0,
                    unit: "count",
                });
                e.value += *v as f64;
            }
        }
        for (k, v) in &samples {
            put(&mut run.layer, k.clone(), quantile(v, 0.5), "ms");
        }
        // Medians: opens take a hundred times longer than commands, and the
        // two phases open different numbers of tenants.
        let overhead = (quantile(&traced, 0.5) / quantile(&plain, 0.5) - 1.0) * 100.0;
        put(&mut run.layer, "bench.trace_overhead_pct", overhead, "%");
        // Layer probes on the tenants' program: the compile every `open`
        // pays, and the simulator's bare speed on its image.
        let (mut compile_ms, mut bare) = (Vec::new(), Vec::new());
        for arch in ARCHS.iter().filter_map(|a| Arch::from_name(a)) {
            let t0 = Instant::now();
            if let Ok(p) = compile_many(&[("target.c", PROG_COUNT)], arch, CompileOpts::default()) {
                compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                bare.push(bare_msteps_per_s(&p.linked.image, 1_000_000));
            }
        }
        put(
            &mut run.layer,
            "cc.compile_ms",
            quantile(&compile_ms, 0.5),
            "ms",
        );
        put(
            &mut run.layer,
            "machine.bare_msteps_per_s",
            quantile(&bare, 0.5),
            "Msteps/s",
        );
    }
    run
}

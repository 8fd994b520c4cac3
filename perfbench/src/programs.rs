//! Seeded target programs, the scripts run against them, and the answers
//! the debugger must give, computed from the programs' own semantics.

use std::fmt::Write as _;

use ldb_suite::machine::{Arch, ByteOrder};

/// One target configuration.
pub struct Config {
    pub name: &'static str,
    pub arch: Arch,
    pub order: Option<ByteOrder>,
}

/// The configurations sessions cycle through: all four architectures,
/// MIPS in both byte orders. An odd cycle keeps the median of a
/// per-session sample inside one configuration's mode instead of on the
/// boundary between two.
pub const CONFIGS: [Config; 5] = [
    Config {
        name: "mips-big",
        arch: Arch::Mips,
        order: Some(ByteOrder::Big),
    },
    Config {
        name: "mips-little",
        arch: Arch::Mips,
        order: Some(ByteOrder::Little),
    },
    Config {
        name: "m68k",
        arch: Arch::M68k,
        order: None,
    },
    Config {
        name: "sparc",
        arch: Arch::Sparc,
        order: None,
    },
    Config {
        name: "vax",
        arch: Arch::Vax,
        order: None,
    },
];

/// splitmix64: the benchmark's only source of input variation.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// The class a command's latency is booked under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Breakpoint setting and other session bookkeeping (no class metric).
    Setup,
    /// Run control to a stop report: `c`, `n`, `s`, `fin`.
    Stop,
    /// Read-only: `p`, `e`, `f`, `bt`, `regs`, `health`.
    Inspect,
    /// Reverse execution: `rs`, `rn`, `rc`.
    Reverse,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Setup => "setup",
            Class::Stop => "stop",
            Class::Inspect => "inspect",
            Class::Reverse => "reverse",
        }
    }
}

/// The answer a command must give.
#[derive(Debug, Clone)]
pub enum Expect {
    Exact(String),
    Prefix(&'static str),
    /// A stop report (breakpoint or step) in one of `funcs`, at `line`
    /// when given.
    StopIn {
        funcs: Vec<&'static str>,
        line: Option<u32>,
    },
    /// `fin`: a stop in `caller`, then the callee's return value.
    Returns {
        caller: &'static str,
        value: i64,
    },
    /// A complete backtrace through exactly these functions.
    Frames(Vec<&'static str>),
    /// Any output that is not an error.
    Ok,
}

#[derive(Debug, Clone)]
pub enum Action {
    /// One command through the script runner.
    Cmd(String),
    /// Turn on periodic checkpoints (`Ldb::set_checkpoint_every`).
    CheckpointEvery(u64),
}

#[derive(Debug, Clone)]
pub struct Step {
    pub action: Action,
    pub class: Class,
    pub expect: Expect,
}

fn cmd(line: impl Into<String>, class: Class, expect: Expect) -> Step {
    Step {
        action: Action::Cmd(line.into()),
        class,
        expect,
    }
}

/// Parse `breakpoint in F at line L (..)` or `stepped: F line L (..)`.
pub fn parse_stop(line: &str) -> Option<(&str, u32)> {
    let (func, rest) = if let Some(r) = line.strip_prefix("breakpoint in ") {
        r.split_once(" at line ")?
    } else {
        line.strip_prefix("stepped: ")?.split_once(" line ")?
    };
    Some((func, rest.split_whitespace().next()?.parse().ok()?))
}

/// Check one command's output against the expected answer.
pub fn check(expect: &Expect, out: &str) -> Result<(), String> {
    if out.lines().any(|l| l.starts_with("error:")) {
        return Err(format!("error reply: {out:?}"));
    }
    let ok = match expect {
        Expect::Exact(s) => out == s,
        Expect::Prefix(p) => out.starts_with(p),
        Expect::StopIn { funcs, line } => parse_stop(out)
            .is_some_and(|(f, l)| funcs.contains(&f) && line.is_none_or(|want| want == l)),
        Expect::Returns { caller, value } => {
            let mut it = out.lines();
            it.next()
                .and_then(parse_stop)
                .is_some_and(|(f, _)| f == *caller)
                && it.next() == Some(format!("return value: {value}").as_str())
        }
        Expect::Frames(names) => {
            let got: Vec<&str> = out
                .lines()
                .map(|l| l.split_whitespace().nth(1).unwrap_or(""))
                .collect();
            got == *names && out.lines().all(|l| l.starts_with('#'))
        }
        Expect::Ok => !out.trim().is_empty(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {out:?}"))
    }
}

/// A generated program and one script per configuration slot.
pub struct Program {
    pub units: Vec<(&'static str, String)>,
    pub scripts: Vec<Vec<Step>>,
    /// What the program prints when it runs to completion.
    pub output: String,
}

/// Functions in the interactive workload's synthetic unit.
pub const SYNTH_FUNCS: usize = 300;
/// Recursion depth of the interactive workload's `descend`.
pub const DEPTH: i64 = 20;

fn numbered(lines: &[String]) -> String {
    let mut s = lines.join("\n");
    s.push('\n');
    s
}

/// The interactive workload: a ~300-function synthetic unit plus a unit
/// that recurses [`DEPTH`] deep to a probe, `leaf`, that accumulates
/// global state the script reads back.
pub fn interactive(seed: u64) -> Program {
    let mut rng = Rng::new(seed, 1);
    let base = rng.range(10, 500);
    let mul = rng.range(1, 50);
    let step = rng.range(1, 9);
    let callee = rng.range(0, SYNTH_FUNCS as i64 - 1);

    let mut lib = String::from("static int table[64];\nint grand;\n");
    let mut callee_m = 0;
    for i in 0..SYNTH_FUNCS {
        let m = rng.range(2, 14);
        if i as i64 == callee {
            callee_m = m;
        }
        let _ = writeln!(
            lib,
            "int f{i}(int a{i}, int b{i}) {{\n    int x{i}; int y{i}; int k{i};\n    x{i} = a{i} * {m} + b{i};\n    y{i} = 0;\n    for (k{i} = 0; k{i} < 8; k{i}++) {{\n        y{i} += x{i} % ({m} + k{i} + 1);\n        if (y{i} > 1000) y{i} -= 997;\n    }}\n    table[{slot}] = y{i};\n    return y{i} + x{i};\n}}",
            slot = i % 64,
        );
    }
    const LEAF_LINE: u32 = 4;
    let main = numbered(&[
        "int hits;".into(),
        "int acc;".into(),
        format!("int f{callee}(int x, int y);"),
        "int leaf(int v) {".into(),
        "    int w;".into(),
        "    hits = hits + 1;".into(),
        "    acc = acc + v;".into(),
        "    w = v % 7;".into(),
        "    return w;".into(),
        "}".into(),
        "int descend(int d, int loc) {".into(),
        "    int r;".into(),
        "    if (d == 0) return leaf(loc);".into(),
        format!("    r = descend(d - 1, loc + {step});"),
        "    return r + 1;".into(),
        "}".into(),
        "int main(void) {".into(),
        "    int i; int s;".into(),
        "    s = 0;".into(),
        "    for (i = 0; i < 50; i++) {".into(),
        format!("        s = s + descend({DEPTH}, {base} + i * {mul});"),
        format!("        s = s + f{callee}(i, 3);"),
        "    }".into(),
        "    printf(\"%d\\n\", s);".into(),
        "    return 0;".into(),
        "}".into(),
    ]);

    // leaf's argument on its first hit.
    let v1 = base + DEPTH * step;
    let mut frames = vec!["leaf"];
    frames.extend(std::iter::repeat_n("descend", DEPTH as usize + 1));
    frames.push("main");
    let at_leaf = Expect::StopIn {
        funcs: vec!["leaf"],
        line: Some(LEAF_LINE),
    };
    let in_leaf = Expect::StopIn {
        funcs: vec!["leaf"],
        line: None,
    };
    let scripts = (0..CONFIGS.len())
        .map(|slot| {
            let mut r = Rng::new(seed, 100 + slot as u64);
            let frame = r.range(1, DEPTH + 1);
            let k = r.range(2, 9);
            let add = r.range(0, 99);
            // Frame `frame` is descend(frame - 1, ...).
            let loc = base + (DEPTH + 1 - frame) * step;
            vec![
                cmd("b leaf", Class::Setup, Expect::Prefix("breakpoint at 0x")),
                cmd("c", Class::Stop, at_leaf.clone()),
                cmd("p hits", Class::Inspect, Expect::Exact("hits = 0".into())),
                cmd(
                    format!("e v * {k} + {add}"),
                    Class::Inspect,
                    Expect::Exact((v1 * k + add).to_string()),
                ),
                cmd("bt", Class::Inspect, Expect::Frames(frames.clone())),
                cmd(
                    format!("f {frame}"),
                    Class::Inspect,
                    Expect::Exact(format!("frame {frame}")),
                ),
                cmd(
                    "p loc",
                    Class::Inspect,
                    Expect::Exact(format!("loc = {loc}")),
                ),
                cmd("f 0", Class::Inspect, Expect::Exact("frame 0".into())),
                cmd("regs", Class::Inspect, Expect::Ok),
                cmd("n", Class::Stop, in_leaf.clone()),
                cmd("s", Class::Stop, in_leaf.clone()),
                cmd(
                    "fin",
                    Class::Stop,
                    Expect::Returns {
                        caller: "descend",
                        value: v1 % 7,
                    },
                ),
                cmd("c", Class::Stop, at_leaf.clone()),
                cmd("p hits", Class::Inspect, Expect::Exact("hits = 1".into())),
                cmd(
                    "p acc",
                    Class::Inspect,
                    Expect::Exact(format!("acc = {v1}")),
                ),
                cmd("bt", Class::Inspect, Expect::Frames(frames.clone())),
            ]
        })
        .collect();
    // What main prints: descend(DEPTH, L) is leaf's (L + DEPTH*step) % 7
    // plus one per level, and f is the synthetic function above.
    let f = |a: i64, b: i64| {
        let x = a * callee_m + b;
        let mut y = 0;
        for k in 0..8 {
            y += x % (callee_m + k + 1);
            if y > 1000 {
                y -= 997;
            }
        }
        y + x
    };
    let total: i64 = (0..50)
        .map(|i| (base + i * mul + DEPTH * step) % 7 + DEPTH + f(i, 3))
        .sum();
    Program {
        units: vec![("lib.c", lib), ("main.c", main)],
        scripts,
        output: format!("{total}\n"),
    }
}

/// Loop iterations of one `spin` call in the long-run workload: enough
/// that every continue retires about a million instructions or more.
pub const SPIN_ITER: i64 = 60_000;
/// The periodic-checkpoint interval of the long-run workload.
pub const CKPT_EVERY: u64 = 25_000;

/// The long-run workload: a loop that spins about a million
/// instructions between calls to a probe, `tick`, while keeping a
/// running sum the script reads back after every stop.
pub fn long_run(seed: u64) -> Program {
    let mut rng = Rng::new(seed, 2);
    let a = rng.range(3, 97);
    let b = rng.range(0, 999);
    let m = rng.range(50, 150);
    // The seed moves values, not the amount of work.
    let iter = SPIN_ITER;
    let d = rng.range(1, 9);
    const TICK_LINE: u32 = 3;
    let main = numbered(&[
        "int sum;".into(),
        "int laps;".into(),
        "int tick(int r) {".into(),
        "    laps = laps + 1;".into(),
        "    return laps;".into(),
        "}".into(),
        "int spin(int n) {".into(),
        "    int i; int x;".into(),
        "    x = 0;".into(),
        "    for (i = 0; i < n; i++) {".into(),
        format!("        x = x + (i * {a} + {b}) % {m};"),
        "    }".into(),
        "    return x;".into(),
        "}".into(),
        "int main(void) {".into(),
        "    int r;".into(),
        "    sum = 0;".into(),
        "    for (r = 0; r < 4; r++) {".into(),
        format!("        sum = sum + spin({iter} + r * {d});"),
        "        tick(r);".into(),
        "    }".into(),
        "    printf(\"%d\\n\", sum);".into(),
        "    return 0;".into(),
        "}".into(),
    ]);
    let spin = |n: i64| (0..n).map(|i| (i * a + b) % m).sum::<i64>();
    // sums[k] = `sum` at the k-th stop in tick (1-based).
    let mut sums = vec![0i64];
    for r in 0..4 {
        let last = sums[sums.len() - 1];
        sums.push(last + spin(iter + r * d));
    }
    let at_tick = Expect::StopIn {
        funcs: vec!["tick"],
        line: Some(TICK_LINE),
    };
    let p_sum = |k: usize| {
        cmd(
            "p sum",
            Class::Inspect,
            Expect::Exact(format!("sum = {}", sums[k])),
        )
    };
    let near_tick = Expect::StopIn {
        funcs: vec!["tick", "main"],
        line: None,
    };
    // Two open-ended continues, then two checkpointed ones around a
    // rewind: the stop-class median sits among the open-ended
    // continues, its p90 among the checkpointed ones.
    let script = vec![
        cmd("b tick", Class::Setup, Expect::Prefix("breakpoint at 0x")),
        cmd("c", Class::Stop, at_tick.clone()),
        p_sum(1),
        cmd("c", Class::Stop, at_tick.clone()),
        p_sum(2),
        Step {
            action: Action::CheckpointEvery(CKPT_EVERY),
            class: Class::Setup,
            expect: Expect::Ok,
        },
        cmd("c", Class::Stop, at_tick.clone()),
        p_sum(3),
        cmd("rs", Class::Reverse, near_tick.clone()),
        cmd("s", Class::Stop, near_tick),
        cmd(
            "rn",
            Class::Reverse,
            Expect::StopIn {
                funcs: vec!["tick", "main", "spin"],
                line: None,
            },
        ),
        // The ring holds about 800k steps, less than one spin: the
        // rewind lands in spin (or at the previous tick stop), where
        // the sum still has its previous value.
        cmd(
            "rc",
            Class::Reverse,
            Expect::StopIn {
                funcs: vec!["spin", "tick"],
                line: None,
            },
        ),
        p_sum(2),
        cmd("c", Class::Stop, at_tick),
        p_sum(3),
    ];
    let output = format!("{}\n", sums[4]);
    Program {
        units: vec![("spin.c", main)],
        scripts: vec![script; CONFIGS.len()],
        output,
    }
}

/// The stopping line of `func` in `src`: the line of its definition.
pub fn func_line(src: &str, func: &str) -> Option<u32> {
    let head = format!("int {func}(");
    src.lines()
        .position(|l| l.starts_with(&head))
        .map(|i| i as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = interactive(7);
        let b = interactive(7);
        assert_eq!(a.units, b.units);
        assert_eq!(format!("{:?}", a.scripts), format!("{:?}", b.scripts));
        assert_ne!(interactive(8).units, a.units);
        assert_eq!(long_run(3).units, long_run(3).units);
    }

    #[test]
    fn stop_lines_match_the_generated_source() {
        let p = interactive(1);
        assert_eq!(func_line(&p.units[1].1, "leaf"), Some(4));
        let l = long_run(1);
        assert_eq!(func_line(&l.units[0].1, "tick"), Some(3));
    }

    #[test]
    fn checks_read_transcript_shapes() {
        let stop = Expect::StopIn {
            funcs: vec!["clamp"],
            line: Some(4),
        };
        assert!(check(&stop, "breakpoint in clamp at line 4 (0x101c)").is_ok());
        assert!(check(&stop, "stepped: clamp line 4 (0x1024)").is_ok());
        assert!(check(&stop, "breakpoint in clamp at line 5 (0x101c)").is_err());
        let fin = Expect::Returns {
            caller: "main",
            value: 0,
        };
        assert!(check(
            &fin,
            "breakpoint in main at line 10 (0x114c)\nreturn value: 0"
        )
        .is_ok());
        let bt = Expect::Frames(vec!["clamp", "main"]);
        assert!(check(&bt, "#0 clamp at 0x1010\n#1 main at 0x10fc").is_ok());
        assert!(check(
            &bt,
            "#0 clamp at 0x1010\n#1 main at 0x10fc\nwalk truncated: cycle"
        )
        .is_err());
        assert!(check(&Expect::Ok, "error: no symbol").is_err());
    }
}

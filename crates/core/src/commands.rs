//! The command table: the one command language every front end speaks.
//!
//! Each row names a command, its aliases, a usage line, and a handler
//! that returns the command's output as text. The interactive `ldb` REPL,
//! `ldb --script`, the `ldbd` daemon's `cmd` verb, and `ldbfleet` all
//! dispatch through [`lookup`] (via
//! [`run_command_guarded`](crate::script::run_command_guarded)), so a
//! session that works by hand works unchanged as a script or a tenant.
//! `help` is rendered from the table.
//!
//! Row names may be several words (`info trace tail`); dispatch picks the
//! row whose name matches the most leading words of the line, and the
//! handler gets the rest.
//!
//! Only the verbs that need something the CLI process alone owns stay
//! out of the table: `q`, `detach`/`attach`/`reconnect` (they create and
//! drop wires and nub handles) and `list`/`disas` (they need the source
//! text and the compiled image's byte order).

use crate::debugger::{Ldb, StopEvent};
use crate::script::{report_stop, trace_report};
use crate::LdbError;

/// A command handler: the session and the text after the command name.
type Handler = fn(&mut Ldb, &str) -> Result<String, LdbError>;

/// One row of the command table.
pub struct Command {
    /// The command's name (one or more words).
    pub name: &'static str,
    /// Alternative spellings of the name's first word.
    pub aliases: &'static [&'static str],
    /// The usage line `help` shows.
    pub usage: &'static str,
    /// One line on what the command does.
    pub summary: &'static str,
    run: Handler,
}

/// Every command, in `help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    row("b", &["break"], "b <func> [n] [if <expr>]", "breakpoint at stopping point n (default 0)", cmd_break),
    row("bl", &[], "bl <line>", "breakpoint at the first stopping point on a line", cmd_break_line),
    row("ba", &[], "ba <addr>", "single-step breakpoint at a raw code address", cmd_break_addr),
    row("d", &["delete"], "d <addr>", "delete the breakpoint at addr", cmd_delete),
    row("w", &["watch"], "w <name>", "watch a variable (stops when it changes)", cmd_watch),
    row("dw", &[], "dw <name>", "delete the watchpoint on name", cmd_unwatch),
    row("c", &["cont", "run", "r"], "c", "continue", |l, _| run_stop(l, Ldb::cont_watch)),
    row("s", &["step"], "s", "single-step one instruction", |l, _| run_stop(l, Ldb::step_insn)),
    row("n", &["next"], "n", "step to the next stopping point in this frame", |l, _| run_stop(l, Ldb::step_over)),
    row("fin", &["finish"], "fin", "run until the selected frame returns", cmd_finish),
    row("checkpoint", &[], "checkpoint", "capture a restore point", cmd_checkpoint),
    row("rs", &["reverse-step"], "rs", "rewind one instruction", |l, _| run_stop(l, Ldb::reverse_step_insn)),
    row("rn", &["reverse-next"], "rn", "rewind to the previous source line", |l, _| run_stop(l, Ldb::reverse_next)),
    row("rc", &["reverse-continue"], "rc", "rewind to the previous breakpoint hit", |l, _| run_stop(l, Ldb::reverse_cont)),
    row("pc", &[], "pc <addr>", "set the program counter (repair and resume)", cmd_set_pc),
    row("p", &["print"], "p <name>", "print a variable via its type's printer", cmd_print),
    row("e", &["eval"], "e <expr>", "evaluate a C expression (assignments, calls allowed)", |l, rest| l.eval(rest.trim())),
    row("call", &[], "call <f>(<args>)", "call a target function", cmd_call),
    row("display", &[], "display <expr>", "re-evaluate and print expr at every stop", cmd_display),
    row("undisplay", &[], "undisplay <k>", "remove display k", cmd_undisplay),
    row("x", &["examine"], "x <addr> [n]", "hex dump n bytes (default 64) of data memory", cmd_examine),
    row("bt", &["where"], "bt", "backtrace", cmd_backtrace),
    row("f", &["frame"], "f <n>", "select frame n", cmd_frame),
    row("regs", &[], "regs", "registers (machine-dependent names)", cmd_regs),
    row("ps", &[], "ps <code>", "run PostScript under the interactive budget", cmd_ps),
    row("reload", &[], "reload", "retry quarantined symbol tables", cmd_reload),
    row("info", &[], "info", "list breakpoints, watchpoints, displays", cmd_info),
    row("info wire", &[], "info wire", "wire transaction counters over every target", |l, _| Ok(wire_report(l))),
    row("info cache", &[], "info cache", "wire block-cache counters (current target)", cmd_info_cache),
    row("info trace", &[], "info trace", "flight-recorder counts and wire cross-check", cmd_info_trace),
    row("info trace tail", &[], "info trace tail", "the most recent flight-recorder records", cmd_info_trace_tail),
    row("info health", &[], "info health [--json]", "defensive-layer counters", cmd_info_health),
    row("info checkpoints", &[], "info checkpoints", "list restore points", cmd_info_checkpoints),
    row("info ps", &[], "info ps", "sandbox budgets, spending, quarantined modules", cmd_info_ps),
    row("help", &["h"], "help", "this list", |_, _| Ok(help_text())),
    // The supervision drill: a deliberate panic inside command dispatch,
    // the scripted analog of the daemon's `spin` builtin.
    // `run_command_guarded` must quarantine it (error line, health
    // counter, recovered session) and the script must keep going — which
    // is exactly what tests/script_recovery.rs and the fleet's panic
    // corpus assert. Hidden from `help`.
    row("__panic", &[], "__panic [msg]", "supervision drill: panic inside dispatch", cmd_panic),
];

const fn row(
    name: &'static str,
    aliases: &'static [&'static str],
    usage: &'static str,
    summary: &'static str,
    run: Handler,
) -> Command {
    Command { name, aliases, usage, summary, run }
}

/// The interactive-only verbs, for the foot of `help`.
const REPL_ONLY: &str = "interactive only: list | disas [n] | detach | attach | reconnect | q";

/// The row a command line dispatches to — `cmd` is its first word, `rest`
/// the remainder — and the text its handler receives.
pub fn lookup<'a>(cmd: &str, rest: &'a str) -> Option<(&'static Command, &'a str)> {
    let mut best: Option<(&'static Command, &'a str)> = None;
    for c in COMMANDS {
        let (head, tail) = c.name.split_once(' ').unwrap_or((c.name, ""));
        if head != cmd && !c.aliases.contains(&cmd) {
            continue;
        }
        if let Some(r) = strip_words(rest, tail) {
            if best.is_none_or(|(b, _)| c.name.len() > b.name.len()) {
                best = Some((c, r));
            }
        }
    }
    best
}

/// `text` after its leading words `words` (space-separated), if it
/// starts with them.
fn strip_words<'a>(text: &'a str, words: &str) -> Option<&'a str> {
    let mut rest = text;
    for w in words.split(' ').filter(|w| !w.is_empty()) {
        let t = rest.trim_start();
        let (head, tail) = t.split_once(char::is_whitespace).unwrap_or((t, ""));
        if head != w {
            return None;
        }
        rest = tail;
    }
    Some(rest)
}

/// Run one command through the table.
pub(crate) fn dispatch(ldb: &mut Ldb, cmd: &str, rest: &str) -> Result<String, LdbError> {
    match lookup(cmd, rest) {
        Some((c, rest)) => (c.run)(ldb, rest),
        None => Err(LdbError::msg(format!("unknown command `{cmd}` (try help)"))),
    }
}

/// The `help` text, one line per visible row.
fn help_text() -> String {
    let mut out = String::new();
    for c in COMMANDS.iter().filter(|c| !c.name.starts_with("__")) {
        let aliases = if c.aliases.is_empty() {
            String::new()
        } else {
            format!(" (also {})", c.aliases.join(", "))
        };
        out.push_str(&format!("{:<26}{}{aliases}\n", c.usage, c.summary));
    }
    out.push_str(REPL_ONLY);
    out
}

fn usage(u: &str) -> LdbError {
    LdbError::msg(format!("usage: {u}"))
}

/// The single argument of a command, or its usage error.
fn arg<'a>(rest: &'a str, u: &str) -> Result<&'a str, LdbError> {
    rest.split_whitespace().next().ok_or_else(|| usage(u))
}

/// A hex address argument (`0x` prefix optional).
fn addr_arg(rest: &str, u: &str) -> Result<u32, LdbError> {
    let a = arg(rest, u)?;
    u32::from_str_radix(a.trim_start_matches("0x"), 16)
        .map_err(|_| LdbError::msg(format!("bad address `{a}`")))
}

/// A decimal number argument.
fn num_arg<T: std::str::FromStr>(word: &str, what: &str) -> Result<T, LdbError> {
    word.parse().map_err(|_| LdbError::msg(format!("bad {what} `{word}`")))
}

/// A stop line followed by the auto-displays, unless the target exited.
fn stop_text(ldb: &mut Ldb, ev: &StopEvent, ret: Option<i64>) -> String {
    let mut out = report_stop(ev);
    if let Some(v) = ret {
        out.push_str(&format!("\nreturn value: {v}"));
    }
    if !matches!(ev, StopEvent::Exited(_)) {
        for (k, expr) in ldb.displays.clone().iter().enumerate() {
            out.push('\n');
            out.push_str(&display_line(ldb, k, expr));
        }
    }
    out
}

fn run_stop(
    ldb: &mut Ldb,
    resume: fn(&mut Ldb) -> Result<StopEvent, LdbError>,
) -> Result<String, LdbError> {
    let ev = resume(ldb)?;
    Ok(stop_text(ldb, &ev, None))
}

fn display_line(ldb: &mut Ldb, k: usize, expr: &str) -> String {
    match ldb.eval(expr) {
        Ok(v) => format!("{k}: {expr} = {v}"),
        Err(e) => format!("{k}: {expr} = <{e}>"),
    }
}

fn cmd_break(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    const U: &str = "b <func> [n] [if <expr>]";
    let words: Vec<&str> = rest.split_whitespace().collect();
    let func = *words.first().ok_or_else(|| usage(U))?;
    // `b f 3 if i > 2` — everything after `if` is the condition.
    let if_pos = words.iter().skip(1).position(|w| *w == "if").map(|p| p + 1);
    let index = match words[1..if_pos.unwrap_or(words.len())].first() {
        Some(w) => num_arg(w, "stopping-point index")?,
        None => 0,
    };
    let cond = if_pos.map(|p| words[p + 1..].join(" "));
    if cond.as_deref() == Some("") {
        return Err(usage("b <func> [n] if <expr>"));
    }
    let addr = ldb.break_at(func, index)?;
    let out = match &cond {
        Some(c) => format!("breakpoint at {addr:#x} if {c}"),
        None => format!("breakpoint at {addr:#x}"),
    };
    ldb.set_break_condition(addr, cond)?;
    Ok(out)
}

fn cmd_break_line(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let line = num_arg(arg(rest, "bl <line>")?, "line")?;
    let addr = ldb.break_at_line(line)?;
    Ok(format!("breakpoint at {addr:#x}"))
}

fn cmd_break_addr(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let addr = addr_arg(rest, "ba <addr>")?;
    ldb.break_at_pc(addr)?;
    Ok(format!("single-step breakpoint at {addr:#x}"))
}

fn cmd_delete(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    ldb.clear_breakpoint(addr_arg(rest, "d <addr>")?)?;
    Ok(String::new())
}

fn cmd_watch(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let name = arg(rest, "w <name>")?;
    let val = ldb.watch_var(name)?;
    Ok(format!("watching {name} (currently {val})"))
}

fn cmd_unwatch(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    ldb.clear_watch(arg(rest, "dw <name>")?)?;
    Ok(String::new())
}

fn cmd_finish(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let (ev, ret) = ldb.finish()?;
    Ok(stop_text(ldb, &ev, ret))
}

fn cmd_checkpoint(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let steps = ldb.checkpoint_now()?;
    Ok(format!("checkpoint at step {steps}"))
}

fn cmd_set_pc(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let addr = addr_arg(rest, "pc <addr>")?;
    ldb.set_pc(addr)?;
    Ok(format!("pc set to {addr:#x}"))
}

fn cmd_print(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let name = rest.trim();
    if name.is_empty() {
        return Err(usage("p <name>"));
    }
    Ok(format!("{name} = {}", ldb.print_var(name)?))
}

fn cmd_call(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    // The expression evaluator handles the whole call (argument
    // expressions, float arguments, the return type recorded in the
    // symbol table), so just check the shape and hand it the text.
    let call = rest.trim();
    if !call.contains('(') || !call.ends_with(')') {
        return Err(usage("call <func>(<args>)"));
    }
    ldb.eval(call)
}

fn cmd_display(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let expr = rest.trim();
    if expr.is_empty() {
        return Err(usage("display <expr>"));
    }
    // Evaluate once now for immediate feedback; an expression not yet in
    // scope still arms (it prints once the target reaches a scope where
    // it evaluates).
    let line = display_line(ldb, ldb.displays.len(), expr);
    ldb.displays.push(expr.to_string());
    Ok(line)
}

fn cmd_undisplay(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let k: usize = num_arg(arg(rest, "undisplay <k>")?, "display number")?;
    if k >= ldb.displays.len() {
        return Err(LdbError::msg(format!("no display {k}")));
    }
    ldb.displays.remove(k);
    Ok(String::new())
}

fn cmd_examine(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    const U: &str = "x <addr> [n]";
    let addr = addr_arg(rest, U)?;
    let n: u32 = match rest.split_whitespace().nth(1) {
        Some(w) => num_arg(w, "byte count")?,
        None => 64,
    };
    let id = ldb.current().ok_or_else(|| LdbError::msg("no target"))?;
    let mut client = ldb.target(id).client.borrow_mut();
    let mut rows = Vec::new();
    for row in 0..n.div_ceil(16) {
        let base = addr.wrapping_add(row * 16);
        let mut hex = String::new();
        let mut ascii = String::new();
        for b in 0..16.min(n - row * 16) {
            let byte = client.fetch('d', base.wrapping_add(b), 1)? as u8;
            hex.push_str(&format!("{byte:02x} "));
            ascii.push(if byte.is_ascii_graphic() || byte == b' ' { byte as char } else { '.' });
        }
        rows.push(format!("{base:#010x}  {hex:<48} {ascii}"));
    }
    Ok(rows.join("\n"))
}

fn cmd_backtrace(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let (rows, stop) = ldb.backtrace();
    let mut lines: Vec<String> =
        rows.iter().map(|(level, name, pc, _vfp)| format!("#{level} {name} at {pc:#x}")).collect();
    if lines.is_empty() {
        lines.push("no stack".to_string());
    }
    if !stop.is_clean() {
        lines.push(format!("walk truncated: {stop}"));
    }
    Ok(lines.join("\n"))
}

fn cmd_frame(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let level = num_arg(arg(rest, "f <n>")?, "frame number")?;
    ldb.select_frame(level)?;
    Ok(format!("frame {level}"))
}

fn cmd_regs(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let regs = ldb.registers()?;
    Ok(regs.iter().map(|(name, v)| format!("{name}={v:#010x}")).collect::<Vec<_>>().join(" "))
}

/// Raw PostScript runs under the interactive budget, like printers and
/// `e`: `ps {} loop` dies with a typed `timeout` instead of wedging the
/// session. Output is the values the code left on the operand stack, top
/// first (dropped on an error).
fn cmd_ps(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let depth = ldb.interp.depth();
    let budget = ldb.ps_budgets().interactive;
    let ran = ldb.interp.with_budget(budget, |i| i.run_str(rest));
    let mut values = Vec::new();
    while ldb.interp.depth() > depth {
        values.push(ldb.interp.pop()?.to_syntactic());
    }
    ran?;
    Ok(values.join("\n"))
}

fn cmd_reload(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let rows = ldb.reload_modules()?;
    if rows.is_empty() {
        return Ok("nothing quarantined".to_string());
    }
    let lines: Vec<String> = rows
        .into_iter()
        .map(|(module, outcome)| match outcome {
            Ok(()) => format!("module {module}: reloaded"),
            Err(reason) => format!("module {module}: still quarantined: {reason}"),
        })
        .collect();
    Ok(lines.join("\n"))
}

fn cmd_info(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let sub = rest.trim();
    if !sub.is_empty() {
        return Err(LdbError::msg(format!("no `info {sub}` (try help)")));
    }
    let mut lines = Vec::new();
    if let Some(id) = ldb.current() {
        let t = ldb.target(id);
        for a in t.breakpoints.addresses() {
            lines.push(match t.conds.get(&a) {
                Some(cond) => format!("breakpoint at {a:#x} if {cond}"),
                None => format!("breakpoint at {a:#x}"),
            });
        }
    }
    for (name, val) in ldb.watchpoints() {
        lines.push(format!("watchpoint on {name} (last {val})"));
    }
    for (k, expr) in ldb.displays.iter().enumerate() {
        lines.push(format!("display {k}: {expr}"));
    }
    Ok(lines.join("\n"))
}

/// The `info wire` report, summed over every attached target.
fn wire_report(ldb: &Ldb) -> String {
    let m = crate::script::total_metrics(ldb);
    format!(
        "wire: {} transactions, {} retransmits, {} bytes out, {} bytes in",
        m.transactions, m.retransmits, m.bytes_sent, m.bytes_received
    )
}

fn cmd_info_cache(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let id = ldb.current().ok_or_else(|| LdbError::msg("no target"))?;
    Ok(match &ldb.target(id).cache {
        Some(cache) => {
            let s = cache.stats();
            format!(
                "cache: {} hits, {} misses, {} line fills, {} lines invalidated, {} resident",
                s.hits,
                s.misses,
                s.fills,
                s.invalidated,
                cache.resident_lines()
            )
        }
        None => "cache: disabled (--no-wire-cache)".to_string(),
    })
}

fn cmd_info_trace(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let mut out = trace_report(ldb);
    if ldb.trace().write_failed() {
        out.push_str("\nwarning: journal write failed; records are missing from the file");
    }
    Ok(out)
}

fn cmd_info_trace_tail(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let tail = ldb.trace().tail(8);
    if tail.is_empty() {
        return Ok("recent: none".to_string());
    }
    let mut lines = vec!["recent:".to_string()];
    lines.extend(tail.iter().map(|r| format!("  {}", r.to_json())));
    Ok(lines.join("\n"))
}

fn cmd_info_health(ldb: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    match rest.trim() {
        "" => Ok(ldb.health().to_string()),
        "--json" => Ok(ldb.health().to_json()),
        other => Err(LdbError::msg(format!("usage: info health [--json] (got `{other}`)"))),
    }
}

fn cmd_info_checkpoints(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let s = ldb.checkpoint_stats()?;
    let mut lines = vec![format!(
        "checkpoints: {}/{} held, {} raw bytes ({} compressed)",
        s.len, s.cap, s.raw, s.compressed
    )];
    for (steps, raw, packed) in ldb.checkpoint_rows()? {
        lines.push(format!("  step {steps}: {raw} bytes ({packed} compressed)"));
    }
    Ok(lines.join("\n"))
}

fn cmd_info_ps(ldb: &mut Ldb, _: &str) -> Result<String, LdbError> {
    let b = ldb.ps_budgets();
    let s = ldb.interp.budget_stats();
    let mut lines = vec![
        format!(
            "budgets: load {} steps / {} bytes; interactive {} steps / {} bytes",
            b.load.max_fuel, b.load.max_alloc, b.interactive.max_fuel, b.interactive.max_alloc
        ),
        format!(
            "sandbox: {} steps spent, {} bytes charged ({} peak), {} budget trips",
            s.fuel_spent_total, s.alloc_charged_total, s.alloc_peak, s.budget_trips
        ),
    ];
    let q = ldb.quarantined_modules();
    if q.is_empty() {
        lines.push("quarantine: empty".to_string());
    }
    for (module, reason) in q {
        lines.push(format!("quarantine: module {module}: {reason}"));
    }
    Ok(lines.join("\n"))
}

fn cmd_panic(_: &mut Ldb, rest: &str) -> Result<String, LdbError> {
    let msg = if rest.trim().is_empty() { "scripted panic drill" } else { rest.trim() };
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_takes_the_longest_row_and_aliases() {
        fn name<'a>(cmd: &str, rest: &'a str) -> Option<(&'static str, &'a str)> {
            lookup(cmd, rest).map(|(c, r)| (c.name, r.trim()))
        }
        assert_eq!(name("info", "trace  tail"), Some(("info trace tail", "")));
        assert_eq!(name("info", "trace"), Some(("info trace", "")));
        assert_eq!(name("info", "health --json"), Some(("info health", "--json")));
        assert_eq!(name("info", "bogus"), Some(("info", "bogus")));
        assert_eq!(name("cont", ""), Some(("c", "")));
        assert_eq!(name("tail", ""), None);
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        let mut ldb = Ldb::new();
        for (cmd, rest) in
            [("b", "if x"), ("b", "f 1 if"), ("b", "f x"), ("x", "zz"), ("info", "nope")]
        {
            assert!(dispatch(&mut ldb, cmd, rest).is_err(), "{cmd} {rest}");
        }
        assert_eq!(dispatch(&mut ldb, "ps", "1 2 add").unwrap(), "3");
    }
}

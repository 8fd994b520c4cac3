//! Expression-server glue: ldb's half of the conversation with the
//! expression server (paper Sec. 7) — the server rewrites C expressions
//! into PostScript, asking the debugger to resolve names as it goes, and
//! the debugger runs the result against the target. Calls in expressions
//! are expanded here, innermost first, before the server sees them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ldb_postscript::{Object, PsError, PsFile, Value};

use crate::call::CallArg;
use crate::debugger::Ldb;
use crate::symtab;
use crate::LdbError;

/// Scan a call's argument list, `s` starting just after its opening
/// parenthesis: the arguments (split on commas not nested in parentheses
/// or quoted in character literals) and the offset of the closing
/// parenthesis. `None` when the parentheses do not balance.
fn call_args(s: &str) -> Option<(Vec<&str>, usize)> {
    let mut parts = Vec::new();
    let (mut level, mut start, mut quote) = (0i32, 0, false);
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'\'' => quote = !quote,
            _ if quote => {}
            b'(' => level += 1,
            b')' if level == 0 => {
                if !s[..i].trim().is_empty() {
                    parts.push(&s[start..i]);
                }
                return Some((parts, i));
            }
            b')' => level -= 1,
            b',' if level == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    None
}

/// What the last evaluation reported through the server's `result` or
/// `error` operator.
pub(crate) struct ExprState {
    pub(crate) outcome: Option<Result<(), String>>,
}

/// A running expression server and the pipe its replies arrive on.
pub(crate) struct ExprSession {
    pub(crate) to_server: crossbeam::channel::Sender<ldb_exprserver::ToServer>,
    pub(crate) pipe: Rc<RefCell<PsFile>>,
    pub(crate) join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Ldb {
    fn drop(&mut self) {
        if let Some(s) = self.expr.take() {
            let _ = s.to_server.send(ldb_exprserver::ToServer::Shutdown);
            if let Some(j) = s.join {
                let _ = j.join();
            }
        }
    }
}

impl Ldb {
    pub(crate) fn register_expr_ops(&mut self) {
        let state = Rc::clone(&self.expr_state);
        self.interp.register("ExpressionServer.result", move |_| {
            state.borrow_mut().outcome = Some(Ok(()));
            Err(PsError::Stop)
        });
        let state = Rc::clone(&self.expr_state);
        self.interp.register("ExpressionServer.error", move |i| {
            let msg = i.pop()?.as_string()?;
            state.borrow_mut().outcome = Some(Err(msg.to_string()));
            Err(PsError::Stop)
        });
    }

    fn ensure_server(&mut self) {
        if self.expr.is_none() {
            let h = ldb_exprserver::spawn();
            let pipe = PsFile::from_reader("exprserver", Box::new(h.reply_pipe));
            self.expr = Some(ExprSession {
                to_server: h.to_server,
                pipe: Rc::new(RefCell::new(pipe)),
                join: Some(h.join),
            });
        }
    }

    /// Evaluate a C expression in the current scope via the expression
    /// server; returns the result rendered as text. Assignments store
    /// through the abstract memories into the target.
    ///
    /// # Errors
    /// Parse/type errors from the server, unknown identifiers, nub
    /// failures.
    pub fn eval(&mut self, expr: &str) -> Result<String, LdbError> {
        // Fresh pointer-chase guard for this evaluation (the fetchP deref
        // path charges against it).
        self.ctx.borrow_mut().begin_print();
        let expanded = self.expand_calls(expr, 0)?;
        self.eval_expr(&expanded)
    }

    /// Replace `proc(args)` subexpressions with the value the call
    /// returns, innermost first — this is how function calls compose with
    /// the expression server, which itself only rewrites data accesses.
    /// Only names the loader knows as procedures are treated as calls, so
    /// array indexing and parenthesized arithmetic pass through.
    fn expand_calls(&mut self, expr: &str, depth: u8) -> Result<String, LdbError> {
        if depth > 8 {
            return Err(LdbError::msg("call expressions nested too deeply"));
        }
        let id = self.cur_id()?;
        let bytes = expr.as_bytes();
        let mut out = String::new();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let ident = &expr[start..i];
                // Skip whitespace to see whether a call follows.
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                let is_proc = {
                    let t = &self.targets[id];
                    t.loader.proc_addr(&format!("_{ident}")).is_some()
                        || t.loader.proc_addr(ident).is_some()
                };
                if j < bytes.len() && bytes[j] == b'(' && is_proc {
                    let (parts, close) = call_args(&expr[j + 1..])
                        .ok_or_else(|| LdbError::msg("unbalanced parentheses in call"))?;
                    let mut args = Vec::new();
                    for part in parts {
                        let v = self.expand_calls(part.trim(), depth + 1)?;
                        let v = self.eval_expr(&v)?;
                        let arg = match v.parse::<i64>() {
                            Ok(n) => CallArg::Int(n),
                            Err(_) => CallArg::Double(v.parse::<f64>().map_err(|_| {
                                LdbError::msg(format!(
                                    "call argument `{}` is not a number (got {v})",
                                    part.trim()
                                ))
                            })?),
                        };
                        args.push(arg);
                    }
                    let rv = self.call_and_format(ident, &args)?;
                    out.push_str(&rv);
                    i = j + 1 + close + 1;
                } else {
                    out.push_str(ident);
                }
            } else {
                out.push(c);
                i += 1;
            }
        }
        Ok(out)
    }

    /// Run one expression through the server (no call expansion).
    fn eval_expr(&mut self, expr: &str) -> Result<String, LdbError> {
        self.ensure_server();
        // Register the lookup operator against the *current* scope.
        self.install_lookup()?;
        let session =
            self.expr.as_ref().ok_or_else(|| LdbError::msg("expression server is not running"))?;
        let pipe = Rc::clone(&session.pipe);
        if session.to_server.send(ldb_exprserver::ToServer::Expr(expr.to_string())).is_err() {
            // The server thread died: drop the session so the next
            // evaluation respawns it instead of failing forever.
            self.expr = None;
            return Err(LdbError::msg("expression server is gone (will respawn on next use)"));
        }
        self.expr_state.borrow_mut().outcome = None;
        // "The operation of interpreting until told to stop is implemented
        // by applying cvx stopped to the open pipe from the server."
        // The rewritten expression executes symbol-table code (SymLoc,
        // printers), so it runs under the interactive budget.
        let budget = self.budgets.interactive;
        match self.interp.with_budget(budget, |i| i.run_file(&pipe)) {
            Ok(()) => return Err(LdbError::msg("expression server closed the pipe")),
            Err(PsError::Stop) => {}
            Err(e) => return Err(e.into()),
        }
        let outcome = self
            .expr_state
            .borrow_mut()
            .outcome
            .take()
            .ok_or_else(|| LdbError::msg("server stopped without a result"))?;
        match outcome {
            Err(msg) => Err(LdbError::msg(format!("expression error: {msg}"))),
            Ok(()) => {
                // Stack: procedure, result-type decl string.
                let decl = self.interp.pop()?.as_string()?;
                let proc = self.interp.pop()?;
                self.interp.with_budget(budget, |i| i.call(&proc))?;
                let value = self.interp.pop()?;
                Ok(render_value(&value, &decl))
            }
        }
    }

    /// Install `ExpressionServer.lookup` bound to the current scope.
    fn install_lookup(&mut self) -> Result<(), LdbError> {
        let scope = self.scope().ok();
        let id = self.cur_id()?;
        let loader = Rc::clone(&self.targets[id].loader);
        let session = {
            self.ensure_server();
            self.expr
                .as_ref()
                .ok_or_else(|| LdbError::msg("expression server is not running"))?
                .to_server
                .clone()
        };
        let handles = Rc::new(RefCell::new(self.handles));
        let outer = Rc::new(RefCell::new(HashMap::<String, String>::new()));
        self.interp.register("ExpressionServer.lookup", move |i| {
            let name = i.pop()?.as_name()?;
            let found = match &scope {
                Some((entry, stop)) => {
                    symtab::resolve_name(i, &loader, entry, *stop, &name).ok().flatten()
                }
                None => loader.proc_entry_by_name(&name),
            };
            let reply = match found {
                None => "notfound".to_string(),
                Some(entry) => {
                    let mut cache = outer.borrow_mut();
                    let handle = match cache.get(name.as_ref()) {
                        Some(h) => h.clone(),
                        None => {
                            let mut n = handles.borrow_mut();
                            *n += 1;
                            let h = format!("E{}", *n);
                            // Define the handle so rewritten code can say
                            // `E1 SymLoc`.
                            i.def(&h, entry.clone());
                            cache.insert(name.to_string(), h.clone());
                            h
                        }
                    };
                    let d = entry.as_dict()?;
                    let tdict = d.borrow().get_name("type").cloned();
                    let decl = tdict
                        .as_ref()
                        .and_then(|t| t.as_dict().ok())
                        .and_then(|t| t.borrow().get_name("decl").cloned())
                        .and_then(|d| d.as_string().ok())
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "int %s".to_string());
                    // Struct types: prepend the definitions the server
                    // needs to reconstruct the compiler's type info.
                    let decl = match &tdict {
                        Some(t) => format!("{}{}", struct_defs_for(t), decl),
                        None => decl,
                    };
                    let kind = d
                        .borrow()
                        .get_name("kind")
                        .and_then(|k| k.as_string().ok())
                        .map(|s| s.to_string())
                        .unwrap_or_default();
                    if kind == "procedure" {
                        format!("func {handle} int %s")
                    } else {
                        format!("var {handle} {decl}")
                    }
                }
            };
            session
                .send(ldb_exprserver::ToServer::Symbol(reply))
                .map_err(|_| PsError::runtime(ldb_postscript::ErrorKind::IoError, "server gone"))?;
            Ok(())
        });
        Ok(())
    }
}

/// Collect C `struct` definitions reachable from a type dictionary, so
/// the expression server can reconstruct aggregate types ("it must be
/// enough to enable the expression server to reconstruct the compiler's
/// symbol-table and type information at debug time", paper Sec. 7).
fn struct_defs_for(tdict: &Object) -> String {
    let mut out = String::new();
    let mut seen = std::collections::HashSet::new();
    collect_structs(tdict, &mut out, &mut seen);
    out
}

fn collect_structs(tdict: &Object, out: &mut String, seen: &mut std::collections::HashSet<String>) {
    let Ok(d) = tdict.as_dict() else { return };
    let get = |k: &str| d.borrow().get_name(k).cloned();
    // Chase pointees and array elements first.
    for link in ["&pointee", "&elemtype"] {
        if let Some(inner) = get(link) {
            collect_structs(&inner, out, seen);
        }
    }
    let Some(fields) = get("&fields") else { return };
    let Some(decl) = get("decl").and_then(|o| o.as_string().ok()) else { return };
    // decl looks like "struct acc %s".
    let name =
        decl.trim_start_matches("struct ").split_whitespace().next().unwrap_or("anon").to_string();
    if !seen.insert(name.clone()) {
        return;
    }
    let Ok(fields) = fields.as_array() else { return };
    let fields = fields.borrow().clone();
    let mut body = String::new();
    // Each field is (name, offset, type).
    for field in fields.chunks_exact(3) {
        let ftype = &field[2];
        collect_structs(ftype, out, seen);
        if let (Ok(fname), Ok(fd)) = (field[0].as_string(), ftype.as_dict()) {
            if let Some(fdecl) = fd.borrow().get_name("decl").and_then(|o| o.as_string().ok()) {
                body.push_str(&format!(" {};", fdecl.replace("%s", &fname)));
            }
        }
    }
    out.push_str(&format!("struct {name} {{{body} }}; "));
}

/// Render an evaluated value using its declared type.
fn render_value(v: &Object, decl: &str) -> String {
    match &v.val {
        Value::Location(ldb_postscript::Location::Addr { offset, .. }) => {
            format!("({}) 0x{:x}", decl.replace("%s", "").trim(), *offset as u32)
        }
        _ => v.to_text(),
    }
}

//! The expression server (paper, Sec. 3 and Fig. 3).
//!
//! "To evaluate an expression, ldb sends it to the server, which is a
//! variant of the compiler." The server runs in its own thread (the
//! paper's separate address space); two pipes connect it to the debugger:
//!
//! * the *request* pipe carries expression text and symbol-information
//!   replies from the debugger, and
//! * the *reply* pipe carries PostScript text, which ldb interprets with
//!   `cvx stopped` until the server's `ExpressionServer.result` (or
//!   `.error`) stops it.
//!
//! When the front end fails to find an identifier `a`, the server does not
//! report an error: it writes `/a ExpressionServer.lookup` to the reply
//! pipe and blocks. ldb interprets that, looks `a` up in its PostScript
//! symbol tables, and sends back a line of symbol information from which
//! the server reconstructs the entry on the fly.

use std::collections::HashMap;
use std::io::Read;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::rewrite::rewrite;
use ldb_cc::parse;
use ldb_cc::sema::{analyze_expression, ExternalResolver, ExternalSym};
use ldb_cc::types::Type;

/// Messages the debugger sends to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ToServer {
    /// Evaluate this C expression.
    Expr(String),
    /// Symbol information, answering an `ExpressionServer.lookup`:
    /// `var <handle> <decl-pattern>`, `func <handle> <ret-decl>`, or
    /// `notfound`.
    Symbol(String),
    /// Shut the server down.
    Shutdown,
}

/// The debugger's handle to a running expression server.
pub struct ServerHandle {
    /// Send requests here.
    pub to_server: Sender<ToServer>,
    /// The reply pipe: PostScript text (wrap in a `PsFile`).
    pub reply_pipe: PipeReader,
    /// Joins when the server shuts down.
    pub join: JoinHandle<()>,
}

/// Spawn an expression server thread.
pub fn spawn() -> ServerHandle {
    let (to_tx, to_rx) = unbounded::<ToServer>();
    let (out_tx, out_rx) = unbounded::<Vec<u8>>();
    let join = std::thread::spawn(move ||

        serve(to_rx, out_tx));
    ServerHandle { to_server: to_tx, reply_pipe: PipeReader::new(out_rx), join }
}

fn serve(to_rx: Receiver<ToServer>, out_tx: Sender<Vec<u8>>) {
    // "The expression server discards new symbol-table entries after the
    // evaluation of each expression, but it saves type information":
    // symbol entries live per expression; parsed types persist.
    let mut type_cache: HashMap<String, Type> = HashMap::new();
    loop {
        match to_rx.recv() {
            Err(_) | Ok(ToServer::Shutdown) => return,
            Ok(ToServer::Symbol(_)) => { /* stray; ignore */ }
            Ok(ToServer::Expr(src)) => {
                let mut expr_cache: HashMap<String, ExternalSym> = HashMap::new();
                let mut resolver = PipeResolver {
                    to_rx: &to_rx,
                    out_tx: &out_tx,
                    cache: &mut expr_cache,
                    types: &mut type_cache,
                };
                let reply = match analyze_expression(&src, &mut resolver) {
                    Err(e) => error_text(&e.to_string()),
                    Ok((tree, ty)) => match rewrite(&tree) {
                        Err(e) => error_text(&e),
                        Ok(code) => {
                            let decl = crate::escape_ps(&ty.decl_pattern());
                            format!("{{{code}}} ({decl}) ExpressionServer.result\n")
                        }
                    },
                };
                if out_tx.send(reply.into_bytes()).is_err() {
                    return;
                }
            }
        }
    }
}

fn error_text(msg: &str) -> String {
    format!("({}) ExpressionServer.error\n", crate::escape_ps(msg))
}

struct PipeResolver<'a> {
    to_rx: &'a Receiver<ToServer>,
    out_tx: &'a Sender<Vec<u8>>,
    cache: &'a mut HashMap<String, ExternalSym>,
    types: &'a mut HashMap<String, Type>,
}

impl ExternalResolver for PipeResolver<'_> {
    fn lookup(&mut self, name: &str) -> Option<ExternalSym> {
        if let Some(s) = self.cache.get(name) {
            return Some(s.clone());
        }
        // Ask the debugger: emit PostScript it will interpret.
        let ask = format!("/{name} ExpressionServer.lookup\n");
        self.out_tx.send(ask.into_bytes()).ok()?;
        // Block until the debugger answers.
        match self.to_rx.recv().ok()? {
            ToServer::Symbol(text) => {
                let sym = parse_symbol_info_cached(&text, self.types)?;
                self.cache.insert(name.to_string(), sym.clone());
                Some(sym)
            }
            ToServer::Shutdown => None,
            ToServer::Expr(_) => None, // protocol violation
        }
    }
}

/// Parse a symbol-information line: `var E1 int %s[20]`, `func E2 int %s`,
/// or `notfound`, caching each declaration pattern's type in `types`.
fn parse_symbol_info_cached(
    text: &str,
    types: &mut HashMap<String, Type>,
) -> Option<ExternalSym> {
    let text = text.trim();
    if text == "notfound" {
        return None;
    }
    let (kind, rest) = text.split_once(' ')?;
    let (handle, decl) = rest.split_once(' ')?;
    let ty = match types.get(decl) {
        Some(t) => t.clone(),
        None => {
            let t = parse_decl_pattern(decl)?;
            types.insert(decl.to_string(), t.clone());
            t
        }
    };
    match kind {
        "var" => Some(ExternalSym::Var { ty, handle: handle.to_string() }),
        "func" => Some(ExternalSym::Func { ret: ty, handle: handle.to_string() }),
        _ => None,
    }
}

/// Reconstruct a type from its declaration pattern by parsing it as a
/// declaration — reusing the compiler's own parser, in the spirit of the
/// paper's front-end reuse.
pub fn parse_decl_pattern(decl: &str) -> Option<Type> {
    // The declaration may be preceded by struct definitions the debugger
    // sent along (e.g. "struct acc { int count; }; struct acc *%s").
    let src = format!("{};", decl.replace("%s", "__x"));
    let unit = parse::parse("<sym>", &src).ok()?;
    unit.decls.iter().rev().find_map(|d| match d {
        ldb_cc::ast::TopDecl::Var(v) if v.name == "__x" => Some(v.ty.clone()),
        _ => None,
    })
}

/// A `Read` over a channel of byte chunks — the debugger's end of the
/// reply pipe (ldb wraps it in a PostScript file object).
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl PipeReader {
    fn new(rx: Receiver<Vec<u8>>) -> PipeReader {
        PipeReader { rx, buf: Vec::new(), pos: 0 }
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(b) => {
                    self.buf = b;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // server gone: EOF
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Play the debugger's role by hand: pull bytes off the reply pipe,
    /// answer lookups, and collect the final PostScript.
    fn evaluate(handle: &mut ServerHandle, expr: &str, answers: &[(&str, &str)]) -> String {
        handle.to_server.send(ToServer::Expr(expr.into())).unwrap();
        let mut text = String::new();
        loop {
            let mut chunk = [0u8; 256];
            let n = handle.reply_pipe.read(&mut chunk).unwrap();
            assert!(n > 0, "pipe closed early; got {text:?}");
            text.push_str(std::str::from_utf8(&chunk[..n]).unwrap());
            // Answer any lookup that appeared.
            while let Some(idx) = text.find("ExpressionServer.lookup") {
                let line = &text[..idx];
                let name = line.rsplit('/').next().unwrap().trim().to_string();
                text = text[idx + "ExpressionServer.lookup".len()..].to_string();
                let reply = answers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, r)| r.to_string())
                    .unwrap_or_else(|| "notfound".to_string());
                handle.to_server.send(ToServer::Symbol(reply)).unwrap();
            }
            if text.contains("ExpressionServer.result") || text.contains("ExpressionServer.error")
            {
                return text;
            }
        }
    }

    #[test]
    fn full_lookup_dance() {
        let mut h = spawn();
        let out = evaluate(&mut h, "i + a[2]", &[("i", "var E1 int %s"), ("a", "var E2 int %s[20]")]);
        assert!(out.contains("E1 SymLoc fetchI"), "{out}");
        assert!(out.contains("E2 SymLoc 2 4 mul Shifted fetchI"), "{out}");
        assert!(out.trim_end().ends_with("ExpressionServer.result"), "{out}");
        assert!(out.contains("(int %s)"), "carries the result type: {out}");
        h.to_server.send(ToServer::Shutdown).unwrap();
        h.join.join().unwrap();
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let mut h = spawn();
        let out = evaluate(&mut h, "zz + 1", &[]);
        assert!(out.contains("ExpressionServer.error"), "{out}");
        assert!(out.contains("undefined"), "{out}");
    }

    #[test]
    fn syntax_error_reported() {
        let mut h = spawn();
        let out = evaluate(&mut h, "1 +", &[]);
        assert!(out.contains("ExpressionServer.error"), "{out}");
    }

    #[test]
    fn entries_discarded_per_expression_but_lookup_repeats() {
        // "The expression server discards new symbol-table entries after
        // the evaluation of each expression": the second expression must
        // ask again (and may receive a different handle for a different
        // scope).
        let mut h = spawn();
        let _ = evaluate(&mut h, "i + 1", &[("i", "var E1 int %s")]);
        let out = evaluate(&mut h, "i * 2", &[("i", "var E7 int %s")]);
        assert!(out.contains("E7 SymLoc fetchI 2 mul"), "{out}");
    }

    #[test]
    fn one_lookup_per_name_within_an_expression() {
        let mut h = spawn();
        let out = evaluate(&mut h, "i + i * i", &[("i", "var E1 int %s")]);
        assert!(out.matches("E1 SymLoc").count() == 3, "{out}");
    }

    #[test]
    fn decl_pattern_parsing() {
        assert_eq!(parse_decl_pattern("int %s"), Some(Type::Int));
        assert_eq!(
            parse_decl_pattern("double *%s"),
            Some(Type::Ptr(std::rc::Rc::new(Type::Double)))
        );
        assert_eq!(
            parse_decl_pattern("int %s[20]"),
            Some(Type::Array(std::rc::Rc::new(Type::Int), 20))
        );
        assert_eq!(parse_decl_pattern("garbage $$"), None);
    }

    #[test]
    fn assignment_through_server() {
        let mut h = spawn();
        let out = evaluate(&mut h, "i = i + 1", &[("i", "var E1 int %s")]);
        assert!(out.contains("E1 SymLoc E1 SymLoc fetchI 1 add storeI"), "{out}");
    }

    #[test]
    fn calls_into_target_rejected() {
        let mut h = spawn();
        let out = evaluate(&mut h, "f(3)", &[("f", "func E9 int %s")]);
        assert!(out.contains("ExpressionServer.error"), "{out}");
        assert!(out.contains("calls"), "{out}");
    }
}

//! The expression server (paper, Sec. 3): assignment and expression
//! evaluation by *reusing the compiler front end* as a server in a
//! separate thread. The debugger sends expression text; the server parses
//! and typechecks it, asking the debugger for unknown symbols via
//! `ExpressionServer.lookup` callbacks written in PostScript; the
//! resulting IR tree is rewritten into a PostScript procedure that the
//! debugger interprets against target memory.

pub mod rewrite;
pub mod server;

pub use rewrite::{rewrite, REWRITE_PRELUDE};
pub use server::{parse_decl_pattern, spawn, PipeReader, ServerHandle, ToServer};

/// Escape text for inclusion in a PostScript string literal.
pub fn escape_ps(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '(' => out.push_str("\\("),
            ')' => out.push_str("\\)"),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

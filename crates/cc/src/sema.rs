//! Semantic analysis and lowering to IR.
//!
//! One pass over the AST typechecks, builds the symbol-table arena (the
//! uplink tree of the paper's Figure 2), places stopping points exactly
//! where the paper's Figure 1 shows them, and lowers statements and
//! expressions to [`crate::ir`] trees.
//!
//! The front end supports an [`ExternalResolver`]: when an identifier is
//! not in scope, the resolver gets a chance to supply it. The expression
//! server is exactly this front end with a resolver that asks the debugger
//! (`/a ExpressionServer.lookup`) — the reuse the paper's Sec. 3 is built
//! on.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::*;
use crate::ir::*;
use crate::lex::{err, CcResult, Pos};
use crate::types::{FuncType, Sfx, Type};

/// An externally supplied symbol (from the debugger, via the expression
/// server's lookup protocol).
#[derive(Debug, Clone)]
pub enum ExternalSym {
    /// A variable whose address the rewriter will obtain from the symbol
    /// table entry named by `handle` (e.g. `S10`).
    Var {
        /// The variable's type.
        ty: Type,
        /// The debugger-side symbol-entry handle.
        handle: String,
    },
    /// A function.
    Func {
        /// Return type.
        ret: Type,
        /// The debugger-side handle.
        handle: String,
    },
}

/// Resolves identifiers the compilation unit does not define.
pub trait ExternalResolver {
    /// Look up `name`; `None` makes the reference an error.
    fn lookup(&mut self, name: &str) -> Option<ExternalSym>;
}

/// The prefix marking pseudo-globals that stand for debugger symbol
/// handles in expression-server trees.
pub const SYM_HANDLE_PREFIX: &str = "@sym:";

#[derive(Debug, Clone)]
enum Binding {
    Local(u32),
    Param(u32),
    Global { link_name: String, ty: Type },
    StaticVar { link_name: String, ty: Type },
    Func { link_name: String, ty: Rc<FuncType> },
    External(ExternalSym),
}

struct FuncCtx {
    params: Vec<VarIr>,
    locals: Vec<VarIr>,
    stops: Vec<StopIr>,
    body: Vec<StmtIr>,
    sym_chain: Option<usize>,
    break_labels: Vec<u32>,
    continue_labels: Vec<u32>,
    func_name: String,
    ret: Type,
}

/// The analyzer.
pub struct Sema<'r> {
    unit: UnitIr,
    scopes: Vec<HashMap<String, Binding>>,
    f: Option<FuncCtx>,
    labels: u32,
    strings: u32,
    statics: u32,
    resolver: Option<&'r mut dyn ExternalResolver>,
}

/// Analyze a parsed unit, producing IR.
///
/// # Errors
/// Type errors, undefined identifiers, unsupported constructs.
pub fn analyze(ast: &Unit) -> CcResult<UnitIr> {
    Sema::new(None).run(ast)
}

/// Typecheck and lower a single expression in the context of `resolver`
/// (every identifier is external). Returns the tree and its type. This is
/// the expression-server path.
///
/// # Errors
/// Parse and type errors.
pub fn analyze_expression(
    src: &str,
    resolver: &mut dyn ExternalResolver,
) -> CcResult<(Tree, Type)> {
    // Wrap the expression in a function so the parser can see it, then
    // lower just that expression.
    let wrapped = format!("int __expr(void) {{ __e({src}); }}");
    let ast = crate::parse::parse("<expr>", &wrapped)?;
    let mut sema = Sema::new(Some(resolver));
    sema.scopes.push(HashMap::new());
    let TopDecl::Func(f) = &ast.decls[0] else { unreachable!() };
    let StmtKind::Block(stmts) = &f.body.kind else { unreachable!() };
    let StmtKind::Expr(call) = &stmts[0].kind else {
        return err(f.pos, "expected an expression");
    };
    let ExprKind::Call(_, args) = &call.kind else { unreachable!() };
    sema.f = Some(FuncCtx {
        params: Vec::new(),
        locals: Vec::new(),
        stops: Vec::new(),
        body: Vec::new(),
        sym_chain: None,
        break_labels: Vec::new(),
        continue_labels: Vec::new(),
        func_name: "__expr".into(),
        ret: Type::Int,
    });
    let (tree, ty) = sema.expr(&args[0])?;
    Ok((tree, ty))
}

impl<'r> Sema<'r> {
    fn new(resolver: Option<&'r mut dyn ExternalResolver>) -> Self {
        Sema {
            unit: UnitIr::default(),
            scopes: Vec::new(),
            f: None,
            labels: 0,
            strings: 0,
            statics: 0,
            resolver,
        }
    }

    fn run(mut self, ast: &Unit) -> CcResult<UnitIr> {
        self.unit.file = ast.file.clone();
        self.scopes.push(HashMap::new()); // file scope
        for decl in &ast.decls {
            match decl {
                TopDecl::Struct(_) => {} // already folded into types
                TopDecl::Var(g) => self.global(g)?,
                TopDecl::Func(f) => self.function(f)?,
            }
        }
        Ok(self.unit)
    }

    // ----- helpers -----

    fn fresh_label(&mut self) -> u32 {
        self.labels += 1;
        self.labels
    }

    fn fctx(&mut self) -> &mut FuncCtx {
        self.f.as_mut().expect("inside a function")
    }

    fn emit(&mut self, s: StmtIr) {
        self.fctx().body.push(s);
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes.last_mut().expect("scope").insert(name.to_string(), b);
    }

    fn find(&self, name: &str) -> Option<Binding> {
        for s in self.scopes.iter().rev() {
            if let Some(b) = s.get(name) {
                return Some(b.clone());
            }
        }
        None
    }

    /// Place a stopping point here; records the current visible symbol.
    fn stop(&mut self, pos: Pos) {
        let sym = self.fctx().sym_chain;
        let index = self.fctx().stops.len() as u32;
        self.fctx().stops.push(StopIr { index, line: pos.line, col: pos.col, sym });
        self.emit(StmtIr::Stop(index));
    }

    fn add_sym(&mut self, name: &str, ty: &Type, kind: SymKindIr, pos: Pos) -> usize {
        let uplink = self.f.as_ref().and_then(|f| f.sym_chain);
        self.unit.syms.push(SymNode {
            name: name.to_string(),
            ty: ty.clone(),
            kind,
            pos,
            uplink,
            where_: WhereIr::None,
            is_static_scope: false,
            is_extern_scope: false,
        });
        self.unit.syms.len() - 1
    }

    fn string_label(&mut self, s: &str) -> String {
        // Reuse identical literals.
        for d in &self.unit.data {
            if d.str_init.as_deref() == Some(s) {
                return d.link_name.clone();
            }
        }
        self.strings += 1;
        let name = format!("{}.L.str.{}", self.unit.unit_name(), self.strings);
        self.unit.data.push(DataIr {
            link_name: name.clone(),
            size: s.len() as u32 + 1,
            align: 1,
            init: Vec::new(),
            str_init: Some(s.to_string()),
            is_private: true,
            sym: None,
        });
        name
    }

    // ----- globals -----

    fn global(&mut self, g: &GlobalDecl) -> CcResult<()> {
        if let Type::Func(ft) = &g.ty {
            // A prototype.
            self.bind(
                &g.name,
                Binding::Func { link_name: format!("_{}", g.name), ty: Rc::clone(ft) },
            );
            return Ok(());
        }
        let link_name =
            if g.is_static { format!("{}.{}", self.unit.unit_name(), g.name) } else { format!("_{}", g.name) };
        let sym = self.add_sym(&g.name, &g.ty, SymKindIr::Variable, g.pos);
        self.unit.syms[sym].is_static_scope = g.is_static;
        self.unit.syms[sym].is_extern_scope = !g.is_static;
        let b = if g.is_static {
            Binding::StaticVar { link_name: link_name.clone(), ty: g.ty.clone() }
        } else {
            Binding::Global { link_name: link_name.clone(), ty: g.ty.clone() }
        };
        self.bind(&g.name, b);
        if g.is_extern {
            return Ok(()); // storage defined elsewhere
        }
        let init = match &g.init {
            None => Vec::new(),
            Some(init) => self.const_init(&g.ty, init, g.pos)?,
        };
        let str_init = match &g.init {
            Some(Init::Str(s)) => Some(s.clone()),
            _ => None,
        };
        self.unit.data.push(DataIr {
            link_name,
            size: g.ty.size().max(1),
            align: g.ty.align(),
            init: if str_init.is_some() { Vec::new() } else { init },
            str_init,
            is_private: g.is_static,
            sym: Some(sym),
        });
        Ok(())
    }

    fn const_init(&mut self, ty: &Type, init: &Init, pos: Pos) -> CcResult<Vec<InitItem>> {
        match init {
            Init::Scalar(e) => {
                let c = self.const_expr(e)?;
                Ok(vec![InitItem { offset: 0, sfx: ty.suffix(), value: c }])
            }
            Init::List(es) => {
                let Type::Array(el, n) = ty else {
                    return err(pos, "brace initializer requires an array");
                };
                if es.len() as u32 > *n {
                    return err(pos, "too many initializers");
                }
                let mut items = Vec::new();
                for (i, e) in es.iter().enumerate() {
                    let c = self.const_expr(e)?;
                    items.push(InitItem {
                        offset: i as u32 * el.size(),
                        sfx: el.suffix(),
                        value: c,
                    });
                }
                Ok(items)
            }
            Init::Str(_) => Ok(Vec::new()),
        }
    }

    fn const_expr(&mut self, e: &Expr) -> CcResult<Const> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Const::I(*v)),
            ExprKind::CharLit(c) => Ok(Const::I(*c as i64)),
            ExprKind::FloatLit(v) => Ok(Const::F(*v)),
            ExprKind::SizeofType(t) => Ok(Const::I(t.size() as i64)),
            ExprKind::Unary("-", inner) => match self.const_expr(inner)? {
                Const::I(v) => Ok(Const::I(-v)),
                Const::F(v) => Ok(Const::F(-v)),
            },
            ExprKind::Binary(op, a, b) => {
                let (a, b) = (self.const_expr(a)?, self.const_expr(b)?);
                match (a, b) {
                    (Const::I(x), Const::I(y)) => Ok(Const::I(match *op {
                        "+" => x + y,
                        "-" => x - y,
                        "*" => x * y,
                        "/" if y != 0 => x / y,
                        _ => return err(e.pos, "unsupported constant operator"),
                    })),
                    _ => err(e.pos, "non-integer constant arithmetic"),
                }
            }
            _ => err(e.pos, "initializer is not a constant"),
        }
    }

    // ----- functions -----

    fn function(&mut self, f: &FuncDecl) -> CcResult<()> {
        let ft = Rc::new(FuncType {
            ret: f.ret.clone(),
            params: f.params.iter().map(|p| (p.name.clone(), p.ty.clone())).collect(),
        });
        let link_name = if f.is_static {
            format!("{}.{}", self.unit.unit_name(), f.name)
        } else {
            format!("_{}", f.name)
        };
        self.bind(&f.name, Binding::Func { link_name, ty: Rc::clone(&ft) });
        let fsym = self.add_sym(
            &f.name,
            &Type::Func(Rc::clone(&ft)),
            SymKindIr::Procedure,
            f.pos,
        );
        self.unit.syms[fsym].is_static_scope = f.is_static;
        self.unit.syms[fsym].is_extern_scope = !f.is_static;

        self.f = Some(FuncCtx {
            params: Vec::new(),
            locals: Vec::new(),
            stops: Vec::new(),
            body: Vec::new(),
            sym_chain: None,
            break_labels: Vec::new(),
            continue_labels: Vec::new(),
            func_name: f.name.clone(),
            ret: f.ret.clone(),
        });
        self.scopes.push(HashMap::new());

        // Parameters: chained into the symbol tree in order.
        for p in &f.params {
            let sym = self.add_sym(&p.name, &p.ty, SymKindIr::Variable, p.pos);
            let id = self.fctx().params.len() as u32;
            self.fctx().params.push(VarIr {
                name: p.name.clone(),
                ty: p.ty.clone(),
                addr_taken: false,
                storage: Storage::Unassigned,
                pos: p.pos,
                sym,
            });
            self.fctx().sym_chain = Some(sym);
            self.bind(&p.name, Binding::Param(id));
        }

        // Stopping point 0: function entry (the opening brace).
        self.stop(f.body.pos);

        // Body.
        let StmtKind::Block(stmts) = &f.body.kind else { unreachable!("body is a block") };
        self.scopes.push(HashMap::new());
        let saved_chain = self.fctx().sym_chain;
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.fctx().sym_chain = saved_chain;
        self.scopes.pop();

        // Stopping point at the closing brace (function exit).
        self.stop(f.end_pos);
        self.emit(StmtIr::Ret(None));

        self.scopes.pop();
        let ctx = self.f.take().expect("in function");
        self.unit.funcs.push(FuncIr {
            name: f.name.clone(),
            ret: f.ret.clone(),
            params: ctx.params,
            locals: ctx.locals,
            stops: ctx.stops,
            body: ctx.body,
            is_static: f.is_static,
            pos: f.pos,
            end_pos: f.end_pos,
            sym: fsym,
        });
        Ok(())
    }

    // ----- statements -----

    fn lower_stmt(&mut self, s: &Stmt) -> CcResult<()> {
        match &s.kind {
            StmtKind::Empty => Ok(()),
            StmtKind::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let saved_chain = self.fctx().sym_chain;
                for st in stmts {
                    self.lower_stmt(st)?;
                }
                self.fctx().sym_chain = saved_chain;
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    self.local_decl(d)?;
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.stop(e.pos);
                let t = self.expr_for_effect(e)?;
                if let Some(t) = t {
                    self.emit(StmtIr::Expr(t));
                }
                Ok(())
            }
            StmtKind::If(cond, then, els) => {
                self.stop(cond.pos);
                let lfalse = self.fresh_label();
                self.branch(cond, false, lfalse)?;
                self.lower_stmt(then)?;
                if let Some(els) = els {
                    let lend = self.fresh_label();
                    self.emit(StmtIr::Jump(lend));
                    self.emit(StmtIr::Label(lfalse));
                    self.lower_stmt(els)?;
                    self.emit(StmtIr::Label(lend));
                } else {
                    self.emit(StmtIr::Label(lfalse));
                }
                Ok(())
            }
            StmtKind::While(cond, body) => {
                let ltop = self.fresh_label();
                let lend = self.fresh_label();
                self.emit(StmtIr::Label(ltop));
                self.stop(cond.pos);
                self.branch(cond, false, lend)?;
                self.fctx().break_labels.push(lend);
                self.fctx().continue_labels.push(ltop);
                self.lower_stmt(body)?;
                self.fctx().break_labels.pop();
                self.fctx().continue_labels.pop();
                self.emit(StmtIr::Jump(ltop));
                self.emit(StmtIr::Label(lend));
                Ok(())
            }
            StmtKind::DoWhile(body, cond) => {
                let ltop = self.fresh_label();
                let lcond = self.fresh_label();
                let lend = self.fresh_label();
                self.emit(StmtIr::Label(ltop));
                self.fctx().break_labels.push(lend);
                self.fctx().continue_labels.push(lcond);
                self.lower_stmt(body)?;
                self.fctx().break_labels.pop();
                self.fctx().continue_labels.pop();
                self.emit(StmtIr::Label(lcond));
                self.stop(cond.pos);
                self.branch(cond, true, ltop)?;
                self.emit(StmtIr::Label(lend));
                Ok(())
            }
            StmtKind::For(init, cond, step, body) => {
                // Stopping points in the paper's order: init, cond, body
                // (recursively), step — Figure 1's 4, 5, 6, 7.
                if let Some(init) = init {
                    self.stop(init.pos);
                    if let Some(t) = self.expr_for_effect(init)? {
                        self.emit(StmtIr::Expr(t));
                    }
                }
                let ltop = self.fresh_label();
                let lcont = self.fresh_label();
                let lend = self.fresh_label();
                self.emit(StmtIr::Label(ltop));
                if let Some(cond) = cond {
                    self.stop(cond.pos);
                    self.branch(cond, false, lend)?;
                }
                self.fctx().break_labels.push(lend);
                self.fctx().continue_labels.push(lcont);
                self.lower_stmt(body)?;
                self.fctx().break_labels.pop();
                self.fctx().continue_labels.pop();
                self.emit(StmtIr::Label(lcont));
                if let Some(step) = step {
                    self.stop(step.pos);
                    if let Some(t) = self.expr_for_effect(step)? {
                        self.emit(StmtIr::Expr(t));
                    }
                }
                self.emit(StmtIr::Jump(ltop));
                self.emit(StmtIr::Label(lend));
                Ok(())
            }
            StmtKind::Return(e) => {
                let pos = e.as_ref().map(|e| e.pos).unwrap_or(s.pos);
                self.stop(pos);
                match e {
                    None => self.emit(StmtIr::Ret(None)),
                    Some(e) => {
                        let (t, ty) = self.expr(e)?;
                        let ret = self.fctx().ret.clone();
                        let t = self.convert(t, &ty, &ret, e.pos)?;
                        self.emit(StmtIr::Ret(Some(t)));
                    }
                }
                Ok(())
            }
            StmtKind::Break => {
                let Some(&l) = self.fctx().break_labels.last() else {
                    return err(s.pos, "break outside a loop");
                };
                self.emit(StmtIr::Jump(l));
                Ok(())
            }
            StmtKind::Continue => {
                let Some(&l) = self.fctx().continue_labels.last() else {
                    return err(s.pos, "continue outside a loop");
                };
                self.emit(StmtIr::Jump(l));
                Ok(())
            }
        }
    }

    fn local_decl(&mut self, d: &LocalDecl) -> CcResult<()> {
        if d.is_static {
            // Function-scoped static: storage in the data segment under a
            // mangled private name (found through the anchor table).
            self.statics += 1;
            let func = self.fctx().func_name.clone();
            let link_name = format!("{func}.{}.{}", d.name, self.statics);
            let sym = self.add_sym(&d.name, &d.ty, SymKindIr::Variable, d.pos);
            self.fctx().sym_chain = Some(sym);
            let init = match &d.init {
                None => Vec::new(),
                Some(e) => {
                    let c = self.const_expr(e)?;
                    vec![InitItem { offset: 0, sfx: d.ty.suffix(), value: c }]
                }
            };
            self.unit.data.push(DataIr {
                link_name: link_name.clone(),
                size: d.ty.size().max(1),
                align: d.ty.align(),
                init,
                str_init: None,
                is_private: true,
                sym: Some(sym),
            });
            self.bind(&d.name, Binding::StaticVar { link_name, ty: d.ty.clone() });
            return Ok(());
        }
        let sym = self.add_sym(&d.name, &d.ty, SymKindIr::Variable, d.pos);
        self.fctx().sym_chain = Some(sym);
        let id = self.fctx().locals.len() as u32;
        self.fctx().locals.push(VarIr {
            name: d.name.clone(),
            ty: d.ty.clone(),
            addr_taken: false,
            storage: Storage::Unassigned,
            pos: d.pos,
            sym,
        });
        self.bind(&d.name, Binding::Local(id));
        if let Some(init) = &d.init {
            // An initialized declaration is a stopping point, like any
            // other assignment.
            self.stop(init.pos);
            let (rhs, rty) = self.expr(init)?;
            let rhs = self.convert(rhs, &rty, &d.ty.decay(), init.pos)?;
            let t = Tree::Asgn(d.ty.decay().suffix(), Box::new(Tree::Local(id)), Box::new(rhs));
            self.emit(StmtIr::Expr(t));
        }
        Ok(())
    }

    /// Make a fresh compiler temporary of the given type.
    fn temp(&mut self, ty: &Type) -> u32 {
        let id = self.fctx().locals.len() as u32;
        let sym = self.unit.syms.len();
        // Temporaries get no symbol-table entry; use a placeholder node so
        // indexes stay simple.
        self.unit.syms.push(SymNode {
            name: format!("$t{id}"),
            ty: ty.clone(),
            kind: SymKindIr::Variable,
            pos: Pos::default(),
            uplink: None,
            where_: WhereIr::None,
            is_static_scope: false,
            is_extern_scope: false,
        });
        self.fctx().locals.push(VarIr {
            name: format!("$t{id}"),
            ty: ty.clone(),
            addr_taken: false,
            storage: Storage::Unassigned,
            pos: Pos::default(),
            sym,
        });
        id
    }

    // ----- conditions -----

    /// Emit a branch to `label` taken when `cond`'s truth equals `when`.
    fn branch(&mut self, cond: &Expr, when: bool, label: u32) -> CcResult<()> {
        match &cond.kind {
            ExprKind::Unary("!", inner) => self.branch(inner, !when, label),
            ExprKind::Binary("&&", a, b) => {
                if when {
                    // Jump if both true.
                    let skip = self.fresh_label();
                    self.branch(a, false, skip)?;
                    self.branch(b, true, label)?;
                    self.emit(StmtIr::Label(skip));
                } else {
                    self.branch(a, false, label)?;
                    self.branch(b, false, label)?;
                }
                Ok(())
            }
            ExprKind::Binary("||", a, b) => {
                if when {
                    self.branch(a, true, label)?;
                    self.branch(b, true, label)?;
                } else {
                    let skip = self.fresh_label();
                    self.branch(a, true, skip)?;
                    self.branch(b, false, label)?;
                    self.emit(StmtIr::Label(skip));
                }
                Ok(())
            }
            _ => {
                let (t, _) = self.expr(cond)?;
                self.emit(StmtIr::CJump(t, when, label));
                Ok(())
            }
        }
    }

    // ----- expressions -----

    /// Lower an expression used only for effect. Returns `None` when the
    /// whole effect was emitted as statements (printf expansion).
    fn expr_for_effect(&mut self, e: &Expr) -> CcResult<Option<Tree>> {
        match &e.kind {
            ExprKind::Call(name, args) if name == "printf" => {
                self.lower_printf(e.pos, args)?;
                Ok(None)
            }
            // Statement-level x++ needs no temporary.
            ExprKind::Postfix(op, inner) => {
                let t = self.incdec(inner, op, e.pos)?;
                Ok(Some(t))
            }
            _ => {
                let (t, _) = self.expr(e)?;
                Ok(Some(t))
            }
        }
    }

    fn lower_printf(&mut self, pos: Pos, args: &[Expr]) -> CcResult<()> {
        let Some(first) = args.first() else {
            return err(pos, "printf needs a format string");
        };
        let ExprKind::StrLit(fmt) = &first.kind else {
            return err(first.pos, "printf format must be a string literal");
        };
        let mut lit = String::new();
        let mut argi = 1usize;
        let bytes = fmt.as_bytes();
        let mut i = 0;
        let flush =
            |sema: &mut Self, lit: &mut String| {
                if !lit.is_empty() {
                    let label = sema.string_label(lit);
                    sema.emit(StmtIr::Expr(Tree::Call(
                        Sfx::V,
                        "$putstr".into(),
                        vec![Tree::Global(label)],
                    )));
                    lit.clear();
                }
            };
        while i < bytes.len() {
            if bytes[i] == b'%' && i + 1 < bytes.len() {
                let spec = bytes[i + 1];
                i += 2;
                if spec == b'%' {
                    lit.push('%');
                    continue;
                }
                flush(self, &mut lit);
                let Some(arg) = args.get(argi) else {
                    return err(pos, "not enough printf arguments");
                };
                argi += 1;
                let (t, ty) = self.expr(arg)?;
                match spec {
                    b'd' | b'u' | b'x' => {
                        let t = self.convert(t, &ty, &Type::Int, arg.pos)?;
                        self.emit(StmtIr::Expr(Tree::Call(Sfx::V, "$putint".into(), vec![t])));
                    }
                    b'c' => {
                        let t = self.convert(t, &ty, &Type::Int, arg.pos)?;
                        self.emit(StmtIr::Expr(Tree::Call(Sfx::V, "$putchar".into(), vec![t])));
                    }
                    b'f' | b'g' | b'e' => {
                        let t = self.convert(t, &ty, &Type::Double, arg.pos)?;
                        self.emit(StmtIr::Expr(Tree::Call(Sfx::V, "$putflt".into(), vec![t])));
                    }
                    b's' => {
                        if !matches!(ty.decay(), Type::Ptr(_)) {
                            return err(arg.pos, "%s needs a char pointer");
                        }
                        self.emit(StmtIr::Expr(Tree::Call(Sfx::V, "$putstr".into(), vec![t])));
                    }
                    other => {
                        return err(pos, format!("unsupported format %{}", other as char))
                    }
                }
            } else {
                lit.push(bytes[i] as char);
                i += 1;
            }
        }
        flush(self, &mut lit);
        Ok(())
    }

    /// The address of an lvalue; returns (address tree, object type).
    fn lvalue(&mut self, e: &Expr) -> CcResult<(Tree, Type)> {
        match &e.kind {
            ExprKind::Ident(name) => {
                let Some(b) = self.find(name).or_else(|| self.resolve_external(name)) else {
                    return err(e.pos, format!("`{name}` is undefined"));
                };
                match b {
                    Binding::Local(id) => {
                        let ty = self.fctx().locals[id as usize].ty.clone();
                        Ok((Tree::Local(id), ty))
                    }
                    Binding::Param(id) => {
                        let ty = self.fctx().params[id as usize].ty.clone();
                        Ok((Tree::Param(id), ty))
                    }
                    Binding::Global { link_name, ty } | Binding::StaticVar { link_name, ty } => {
                        Ok((Tree::Global(link_name), ty))
                    }
                    Binding::Func { .. } => err(e.pos, "function used as a variable"),
                    Binding::External(ExternalSym::Var { ty, handle }) => {
                        Ok((Tree::Global(format!("{SYM_HANDLE_PREFIX}{handle}")), ty))
                    }
                    Binding::External(ExternalSym::Func { .. }) => {
                        err(e.pos, "function used as a variable")
                    }
                }
            }
            ExprKind::Unary("*", inner) => {
                let (t, ty) = self.expr(inner)?;
                let Some(pointee) = ty.pointee().cloned() else {
                    return err(e.pos, format!("cannot dereference `{ty}`"));
                };
                Ok((t, pointee))
            }
            ExprKind::Index(base, idx) => {
                let (bt, bty) = self.expr(base)?;
                let Some(el) = bty.pointee().cloned() else {
                    return err(e.pos, format!("cannot index `{bty}`"));
                };
                let (it, ity) = self.expr(idx)?;
                if !ity.is_integer() {
                    return err(idx.pos, "array index must be an integer");
                }
                let scaled = Tree::Bin(
                    BinIr::Mul,
                    Sfx::I,
                    Box::new(it),
                    Box::new(Tree::Cnst(Sfx::I, Const::I(el.size() as i64))),
                );
                Ok((Tree::Bin(BinIr::Add, Sfx::P, Box::new(bt), Box::new(scaled)), el))
            }
            ExprKind::Member(base, fname, is_arrow) => {
                let (bt, bty) = if *is_arrow {
                    let (t, ty) = self.expr(base)?;
                    let Some(p) = ty.pointee().cloned() else {
                        return err(e.pos, "-> on a non-pointer");
                    };
                    (t, p)
                } else {
                    self.lvalue(base)?
                };
                let Type::Struct(sd) = &bty else {
                    return err(e.pos, format!("member access on `{bty}`"));
                };
                let Some(field) = sd.field(fname) else {
                    return err(e.pos, format!("no field `{fname}` in struct {}", sd.name));
                };
                let fty = field.ty.clone();
                let off = field.offset;
                Ok((
                    Tree::Bin(
                        BinIr::Add,
                        Sfx::P,
                        Box::new(bt),
                        Box::new(Tree::Cnst(Sfx::I, Const::I(off as i64))),
                    ),
                    fty,
                ))
            }
            _ => err(e.pos, "expression is not an lvalue"),
        }
    }

    fn resolve_external(&mut self, name: &str) -> Option<Binding> {
        let r = self.resolver.as_mut()?;
        let sym = r.lookup(name)?;
        Some(Binding::External(sym))
    }

    fn mark_addr_taken(&mut self, t: &Tree) {
        match t {
            Tree::Local(id) => self.fctx().locals[*id as usize].addr_taken = true,
            Tree::Param(id) => self.fctx().params[*id as usize].addr_taken = true,
            Tree::Bin(_, _, a, b) => {
                self.mark_addr_taken(a);
                self.mark_addr_taken(b);
            }
            _ => {}
        }
    }

    /// Load an lvalue as an rvalue, with promotions and array decay.
    fn load(&mut self, addr: Tree, ty: &Type) -> (Tree, Type) {
        match ty {
            Type::Array(..) => (addr, ty.decay()),
            Type::Struct(_) => (addr, ty.clone()), // struct rvalues stay addresses
            _ => {
                let sfx = ty.suffix();
                let t = Tree::Indir(sfx, Box::new(addr));
                // Integral promotion to int.
                match ty {
                    Type::Char | Type::UChar | Type::Short | Type::UShort => {
                        (Tree::Cvt(sfx, Sfx::I, Box::new(t)), Type::Int)
                    }
                    _ => (t, ty.clone()),
                }
            }
        }
    }

    /// Lower an expression to (tree, type).
    pub(crate) fn expr(&mut self, e: &Expr) -> CcResult<(Tree, Type)> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Tree::Cnst(Sfx::I, Const::I(*v)), Type::Int)),
            ExprKind::CharLit(c) => Ok((Tree::Cnst(Sfx::I, Const::I(*c as i64)), Type::Int)),
            ExprKind::FloatLit(v) => Ok((Tree::Cnst(Sfx::D, Const::F(*v)), Type::Double)),
            ExprKind::StrLit(s) => {
                let label = self.string_label(s);
                Ok((Tree::Global(label), Type::Ptr(Rc::new(Type::Char))))
            }
            ExprKind::SizeofType(t) => {
                Ok((Tree::Cnst(Sfx::I, Const::I(t.size() as i64)), Type::Int))
            }
            ExprKind::SizeofExpr(inner) => {
                // Type only; do not evaluate.
                let (_, ty) = self.expr(inner)?;
                Ok((Tree::Cnst(Sfx::I, Const::I(ty.size() as i64)), Type::Int))
            }
            ExprKind::Ident(_) | ExprKind::Index(..) | ExprKind::Member(..) => {
                let (addr, ty) = self.lvalue(e)?;
                Ok(self.load(addr, &ty))
            }
            ExprKind::Unary("*", _) => {
                let (addr, ty) = self.lvalue(e)?;
                Ok(self.load(addr, &ty))
            }
            ExprKind::Unary("&", inner) => {
                let (addr, ty) = self.lvalue(inner)?;
                self.mark_addr_taken(&addr);
                Ok((addr, Type::Ptr(Rc::new(ty))))
            }
            ExprKind::Unary("-", inner) => {
                let (t, ty) = self.expr(inner)?;
                if !ty.is_arith() {
                    return err(e.pos, "unary - needs arithmetic");
                }
                // Fold negated literals.
                if let Tree::Cnst(s, c) = &t {
                    let folded = match c {
                        Const::I(v) => Const::I(v.wrapping_neg()),
                        Const::F(v) => Const::F(-v),
                    };
                    return Ok((Tree::Cnst(*s, folded), ty));
                }
                Ok((Tree::Un(UnIr::Neg, ty.suffix(), Box::new(t)), ty))
            }
            ExprKind::Unary("~", inner) => {
                let (t, ty) = self.expr(inner)?;
                if !ty.is_integer() {
                    return err(e.pos, "~ needs an integer");
                }
                Ok((Tree::Un(UnIr::Bcom, ty.suffix(), Box::new(t)), ty))
            }
            ExprKind::Unary("!", inner) => {
                let (t, ty) = self.expr(inner)?;
                let zero = if ty.is_float() {
                    Tree::Cnst(ty.suffix(), Const::F(0.0))
                } else {
                    Tree::Cnst(Sfx::I, Const::I(0))
                };
                Ok((
                    Tree::Bin(BinIr::Eq, ty.suffix(), Box::new(t), Box::new(zero)),
                    Type::Int,
                ))
            }
            ExprKind::Unary(op @ ("++" | "--"), inner) => {
                let t = self.incdec(inner, op, e.pos)?;
                let ty = self.lvalue(inner)?.1;
                Ok((t, ty))
            }
            ExprKind::Postfix(op, inner) => {
                // Value context: old value via a temporary.
                let (addr, ty) = self.lvalue(inner)?;
                let tmp = self.temp(&ty);
                let (val, _) = self.load(addr.clone(), &ty);
                let save = Tree::Asgn(ty.decay().suffix(), Box::new(Tree::Local(tmp)), Box::new(val));
                self.emit(StmtIr::Expr(save));
                let t = self.incdec(inner, op, e.pos)?;
                self.emit(StmtIr::Expr(t));
                let (old, oty) = self.load(Tree::Local(tmp), &ty);
                Ok((old, oty))
            }
            ExprKind::Unary(op, _) => err(e.pos, format!("unsupported unary {op}")),
            ExprKind::Cast(to, inner) => {
                let (t, ty) = self.expr(inner)?;
                let t = self.convert(t, &ty, to, e.pos)?;
                Ok((t, to.clone()))
            }
            ExprKind::Binary(op @ ("&&" | "||"), ..) => {
                // Value context: materialize 0/1 through branches.
                let tmp = self.temp(&Type::Int);
                let ltrue = self.fresh_label();
                let lend = self.fresh_label();
                let when_true = *op == "&&" || *op == "||";
                let _ = when_true;
                self.branch(e, true, ltrue)?;
                self.emit(StmtIr::Expr(Tree::Asgn(
                    Sfx::I,
                    Box::new(Tree::Local(tmp)),
                    Box::new(Tree::Cnst(Sfx::I, Const::I(0))),
                )));
                self.emit(StmtIr::Jump(lend));
                self.emit(StmtIr::Label(ltrue));
                self.emit(StmtIr::Expr(Tree::Asgn(
                    Sfx::I,
                    Box::new(Tree::Local(tmp)),
                    Box::new(Tree::Cnst(Sfx::I, Const::I(1))),
                )));
                self.emit(StmtIr::Label(lend));
                Ok((Tree::Indir(Sfx::I, Box::new(Tree::Local(tmp))), Type::Int))
            }
            ExprKind::Binary(op, a, b) => self.binary(op, a, b, e.pos),
            ExprKind::Assign("=", lhs, rhs) => {
                let (addr, lty) = self.lvalue(lhs)?;
                if matches!(lty, Type::Struct(_) | Type::Array(..)) {
                    return err(e.pos, "aggregate assignment is not in the subset");
                }
                let (rt, rty) = self.expr(rhs)?;
                let rt = self.convert(rt, &rty, &lty, rhs.pos)?;
                Ok((Tree::Asgn(lty.suffix(), Box::new(addr), Box::new(rt)), lty))
            }
            ExprKind::Assign(op, lhs, rhs) => {
                // a op= b  →  a = a op b (address re-evaluated; addresses
                // with side effects are out of the subset).
                let bin: &'static str = &op[..op.len() - 1];
                let inner = Expr {
                    kind: ExprKind::Binary(
                        match bin {
                            "+" => "+",
                            "-" => "-",
                            "*" => "*",
                            "/" => "/",
                            "%" => "%",
                            "&" => "&",
                            "|" => "|",
                            "^" => "^",
                            "<<" => "<<",
                            ">>" => ">>",
                            _ => return err(e.pos, "bad compound assignment"),
                        },
                        lhs.clone(),
                        rhs.clone(),
                    ),
                    pos: e.pos,
                };
                let assign = Expr {
                    kind: ExprKind::Assign("=", lhs.clone(), Box::new(inner)),
                    pos: e.pos,
                };
                self.expr(&assign)
            }
            ExprKind::Call(name, args) => self.call(name, args, e.pos),
        }
    }

    fn incdec(&mut self, lv: &Expr, op: &str, pos: Pos) -> CcResult<Tree> {
        let (addr, ty) = self.lvalue(lv)?;
        let one = if ty.is_float() {
            Tree::Cnst(ty.suffix(), Const::F(1.0))
        } else if ty.is_pointer() {
            let sz = ty.pointee().map(Type::size).unwrap_or(1);
            Tree::Cnst(Sfx::I, Const::I(sz as i64))
        } else {
            Tree::Cnst(Sfx::I, Const::I(1))
        };
        let (val, vty) = self.load(addr.clone(), &ty);
        let bir = if op.starts_with('+') { BinIr::Add } else { BinIr::Sub };
        let newv = Tree::Bin(bir, vty.suffix(), Box::new(val), Box::new(one));
        let newv = self.convert(newv, &vty, &ty, pos)?;
        Ok(Tree::Asgn(ty.suffix(), Box::new(addr), Box::new(newv)))
    }

    fn binary(&mut self, op: &str, a: &Expr, b: &Expr, pos: Pos) -> CcResult<(Tree, Type)> {
        let (mut ta, tya) = self.expr(a)?;
        let (mut tb, tyb) = self.expr(b)?;
        let bir = match op {
            "+" => BinIr::Add,
            "-" => BinIr::Sub,
            "*" => BinIr::Mul,
            "/" => BinIr::Div,
            "%" => BinIr::Mod,
            "&" => BinIr::Band,
            "|" => BinIr::Bor,
            "^" => BinIr::Bxor,
            "<<" => BinIr::Lsh,
            ">>" => BinIr::Rsh,
            "==" => BinIr::Eq,
            "!=" => BinIr::Ne,
            "<" => BinIr::Lt,
            "<=" => BinIr::Le,
            ">" => BinIr::Gt,
            ">=" => BinIr::Ge,
            other => return err(pos, format!("unsupported operator {other}")),
        };
        // Pointer arithmetic.
        let pa = tya.is_pointer();
        let pb = tyb.is_pointer();
        if pa || pb {
            match bir {
                BinIr::Add | BinIr::Sub if pa && !pb => {
                    let el = tya.pointee().map(Type::size).unwrap_or(1) as i64;
                    let scaled = Tree::Bin(
                        BinIr::Mul,
                        Sfx::I,
                        Box::new(tb),
                        Box::new(Tree::Cnst(Sfx::I, Const::I(el))),
                    );
                    return Ok((
                        Tree::Bin(bir, Sfx::P, Box::new(ta), Box::new(scaled)),
                        tya.decay(),
                    ));
                }
                BinIr::Add if pb && !pa => {
                    let el = tyb.pointee().map(Type::size).unwrap_or(1) as i64;
                    let scaled = Tree::Bin(
                        BinIr::Mul,
                        Sfx::I,
                        Box::new(ta),
                        Box::new(Tree::Cnst(Sfx::I, Const::I(el))),
                    );
                    return Ok((
                        Tree::Bin(BinIr::Add, Sfx::P, Box::new(tb), Box::new(scaled)),
                        tyb.decay(),
                    ));
                }
                BinIr::Sub if pa && pb => {
                    let el = tya.pointee().map(Type::size).unwrap_or(1) as i64;
                    let diff = Tree::Bin(BinIr::Sub, Sfx::I, Box::new(ta), Box::new(tb));
                    return Ok((
                        Tree::Bin(
                            BinIr::Div,
                            Sfx::I,
                            Box::new(diff),
                            Box::new(Tree::Cnst(Sfx::I, Const::I(el))),
                        ),
                        Type::Int,
                    ));
                }
                _ if bir.is_cmp() => {
                    return Ok((
                        Tree::Bin(bir, Sfx::P, Box::new(ta), Box::new(tb)),
                        Type::Int,
                    ));
                }
                _ => return err(pos, "invalid pointer arithmetic"),
            }
        }
        if !tya.is_arith() || !tyb.is_arith() {
            return err(pos, format!("operator {op} needs arithmetic operands"));
        }
        // Usual arithmetic conversions.
        let common = usual_arith(&tya, &tyb);
        if matches!(bir, BinIr::Mod | BinIr::Band | BinIr::Bor | BinIr::Bxor | BinIr::Lsh | BinIr::Rsh)
            && common.is_float()
        {
            return err(pos, format!("operator {op} needs integer operands"));
        }
        ta = self.convert(ta, &tya, &common, pos)?;
        tb = self.convert(tb, &tyb, &common, pos)?;
        let result_ty = if bir.is_cmp() { Type::Int } else { common.clone() };
        Ok((Tree::Bin(bir, common.suffix(), Box::new(ta), Box::new(tb)), result_ty))
    }

    fn call(&mut self, name: &str, args: &[Expr], pos: Pos) -> CcResult<(Tree, Type)> {
        if name == "printf" {
            return err(pos, "printf may only appear as a statement in the subset");
        }
        if name == "exit" {
            let (t, ty) = match args.first() {
                Some(a) => self.expr(a)?,
                None => (Tree::Cnst(Sfx::I, Const::I(0)), Type::Int),
            };
            let t = self.convert(t, &ty, &Type::Int, pos)?;
            return Ok((Tree::Call(Sfx::V, "$exit".into(), vec![t]), Type::Void));
        }
        let binding = self.find(name).or_else(|| self.resolve_external(name));
        let (link_name, ret, param_tys): (String, Type, Option<Vec<Type>>) = match binding {
            Some(Binding::Func { link_name, ty }) => (
                link_name,
                ty.ret.clone(),
                Some(ty.params.iter().map(|(_, t)| t.clone()).collect()),
            ),
            Some(Binding::External(ExternalSym::Func { ret, handle })) => {
                (format!("{SYM_HANDLE_PREFIX}{handle}"), ret, None)
            }
            Some(_) => return err(pos, format!("`{name}` is not a function")),
            None => return err(pos, format!("function `{name}` is undefined")),
        };
        let mut trees = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let (t, ty) = self.expr(a)?;
            let want = match &param_tys {
                Some(ps) => ps.get(i).cloned().unwrap_or_else(|| default_promote(&ty)),
                None => default_promote(&ty),
            };
            trees.push(self.convert(t, &ty, &want.decay(), a.pos)?);
        }
        if let Some(ps) = &param_tys {
            if ps.len() != args.len() {
                return err(pos, format!("`{name}` expects {} arguments", ps.len()));
            }
        }
        let sfx = ret.decay().suffix();
        Ok((Tree::Call(sfx, link_name, trees), ret))
    }

    /// Insert a conversion from `from` to `to` (no-op when identical).
    fn convert(&mut self, t: Tree, from: &Type, to: &Type, pos: Pos) -> CcResult<Tree> {
        let from = from.decay();
        let to = to.decay();
        if from == to {
            return Ok(t);
        }
        let (fs, ts) = (from.suffix(), to.suffix());
        if fs == ts {
            return Ok(t);
        }
        // Pointer/integer interconversion is allowed with a cast; the
        // subset also permits implicit pointer<->pointer.
        match (&from, &to) {
            (a, b) if a.is_arith() && b.is_arith() => Ok(Tree::Cvt(fs, ts, Box::new(t))),
            (a, b) if a.is_pointer() && b.is_pointer() => Ok(t),
            (a, b) if a.is_pointer() && b.is_integer() => Ok(Tree::Cvt(Sfx::P, ts, Box::new(t))),
            (a, b) if a.is_integer() && b.is_pointer() => Ok(Tree::Cvt(fs, Sfx::P, Box::new(t))),
            (Type::Void, _) | (_, Type::Void) => {
                err(pos, format!("cannot convert `{from}` to `{to}`"))
            }
            _ => err(pos, format!("cannot convert `{from}` to `{to}`")),
        }
    }
}

fn usual_arith(a: &Type, b: &Type) -> Type {
    if matches!(a, Type::Double) || matches!(b, Type::Double) {
        Type::Double
    } else if matches!(a, Type::Float) || matches!(b, Type::Float) {
        Type::Float
    } else if a.is_unsigned() || b.is_unsigned() {
        Type::UInt
    } else {
        Type::Int
    }
}

fn default_promote(ty: &Type) -> Type {
    match ty {
        Type::Float => Type::Double,
        Type::Char | Type::UChar | Type::Short | Type::UShort => Type::Int,
        other => other.decay(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn lower(src: &str) -> UnitIr {
        analyze(&parse("t.c", src).unwrap()).unwrap()
    }

    const FIB: &str = r#"void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i;
      for (i=2; i<n; i++)
          a[i] = a[i-1] + a[i-2];
    }
    { int j;
      for (j=0; j<n; j++)
          printf("%d ", a[j]);
    }
    printf("\n");
}
"#;

    #[test]
    fn fib_has_fourteen_stopping_points() {
        let u = lower(FIB);
        let f = &u.funcs[0];
        // The paper's Figure 1 shows stopping points 0..13.
        assert_eq!(f.stops.len(), 14, "stops: {:?}", f.stops);
        // Entry point is index 0 on line 2 (the opening brace).
        assert_eq!(f.stops[0].line, 2);
        // Point 13 is the closing brace.
        assert_eq!(f.stops[13].line, 15);
    }

    #[test]
    fn fib_symbol_uplinks_form_figure2_tree() {
        let u = lower(FIB);
        // Find i, a, n, j, fib.
        let find = |n: &str| u.syms.iter().position(|s| s.name == n).unwrap();
        let (n, a, i, j) = (find("n"), find("a"), find("i"), find("j"));
        assert_eq!(u.syms[a].uplink, Some(n), "a uplinks to n");
        assert_eq!(u.syms[i].uplink, Some(a), "i uplinks to a");
        assert_eq!(u.syms[j].uplink, Some(a), "j uplinks to a (sibling scope of i)");
        assert_eq!(u.syms[n].uplink, None);
    }

    #[test]
    fn stop_points_see_correct_symbols() {
        let u = lower(FIB);
        let f = &u.funcs[0];
        let name_at = |idx: usize| {
            f.stops[idx]
                .sym
                .map(|s| u.syms[s].name.clone())
                .unwrap_or_default()
        };
        // Stopping point 9 (j<n) sees j, per the paper.
        assert_eq!(name_at(9), "j");
        // Stopping point 5 (i<n) sees i.
        assert_eq!(name_at(5), "i");
        // Stopping point 1 (n>20) sees a (declared on the line above).
        assert_eq!(name_at(1), "a");
        // Stopping point 0 (function entry) sees only the parameter n.
        assert_eq!(name_at(0), "n");
        // Point 12 (printf) is outside both inner blocks: sees a.
        assert_eq!(name_at(12), "a");
    }

    #[test]
    fn static_array_becomes_private_datum() {
        let u = lower(FIB);
        let a = u.data.iter().find(|d| d.link_name.contains(".a.")).unwrap();
        assert!(a.is_private);
        assert_eq!(a.size, 80);
        // printf literals are split around the format specs.
        assert!(u.data.iter().any(|d| d.str_init.as_deref() == Some(" ")));
        assert!(u.data.iter().any(|d| d.str_init.as_deref() == Some("\n")));
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let u = lower("int f(int *p) { return p[2]; }");
        let f = &u.funcs[0];
        let has_mul_by_4 = f.body.iter().any(|s| {
            format!("{s:?}").contains("Mul") && format!("{s:?}").contains("I(4)")
        });
        assert!(has_mul_by_4, "{:#?}", f.body);
    }

    #[test]
    fn conversions_inserted() {
        let u = lower("double g; int f(int i) { g = i; return g; }");
        let txt = format!("{:?}", u.funcs[0].body);
        assert!(txt.contains("Cvt(I, D"), "{txt}");
        assert!(txt.contains("Cvt(D, I"), "{txt}");
    }

    #[test]
    fn char_loads_promote() {
        let u = lower("int f(char *s) { return s[0]; }");
        let txt = format!("{:?}", u.funcs[0].body);
        assert!(txt.contains("Indir(C"), "{txt}");
        assert!(txt.contains("Cvt(C, I"), "{txt}");
    }

    #[test]
    fn type_errors_detected() {
        for bad in [
            "int f(void) { return x; }",
            "int f(int i) { return i(); }",
            "int f(double d) { return d % 2; }",
            "struct s { int x; }; int f(struct s v) { return v; }",
            "int f(void) { break; }",
            "int f(int i) { return *i; }",
        ] {
            let ast = parse("t.c", bad);
            let Ok(ast) = ast else { continue };
            assert!(analyze(&ast).is_err(), "{bad}");
        }
    }

    #[test]
    fn short_circuit_value_and_branch() {
        lower("int f(int a, int b) { int c; c = a && b; if (a || !b) c++; return c; }");
    }

    #[test]
    fn address_taken_is_tracked() {
        let u = lower("int f(void) { int x; int *p; p = &x; return *p; }");
        let f = &u.funcs[0];
        assert!(f.locals.iter().find(|l| l.name == "x").unwrap().addr_taken);
        assert!(!f.locals.iter().find(|l| l.name == "p").unwrap().addr_taken);
    }

    #[test]
    fn external_resolver_supplies_symbols() {
        struct R;
        impl ExternalResolver for R {
            fn lookup(&mut self, name: &str) -> Option<ExternalSym> {
                (name == "i").then(|| ExternalSym::Var { ty: Type::Int, handle: "S10".into() })
            }
        }
        let (tree, ty) = analyze_expression("i + 1", &mut R).unwrap();
        assert_eq!(ty, Type::Int);
        let txt = format!("{tree:?}");
        assert!(txt.contains("@sym:S10"), "{txt}");
        assert!(analyze_expression("zz + 1", &mut R).is_err());
    }

    #[test]
    fn global_initializers_fold() {
        let u = lower("int a = 2 + 3 * 4; double d = -1.5; int t[3] = {7, 8, 9};");
        let a = &u.data[0];
        assert_eq!(a.init[0].value, Const::I(14));
        let d = &u.data[1];
        assert_eq!(d.init[0].value, Const::F(-1.5));
        let t = &u.data[2];
        assert_eq!(t.init.len(), 3);
        assert_eq!(t.init[2].offset, 8);
    }
}

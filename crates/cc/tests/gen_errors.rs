//! Code-generation errors name the statement that failed: the back ends
//! report limits with no position of their own, and the generator gives
//! them the line and column of the statement being lowered.

use ldb_cc::driver::{compile, CompileOpts};
use ldb_machine::Arch;

#[test]
fn too_many_register_arguments_name_the_call_statement() {
    let src = "int f(int a, int b, int c, int d, int e) { return a + e; }\n\
               int main(void) {\n    int x;\n    x = f(1, 2, 3, 4, 5);\n    return x;\n}\n";
    for debug in [true, false] {
        let opts = CompileOpts { debug, ..CompileOpts::default() };
        let err =
            compile("args.c", src, Arch::Mips, opts).expect_err("5 integer arguments on MIPS");
        // The statement's stopping point: an assignment's sits at its
        // operator.
        assert_eq!((err.pos.line, err.pos.col), (4, 7), "{err}");
        assert!(
            err.to_string().contains("too many integer arguments for the MIPS convention"),
            "{err}"
        );
    }
}

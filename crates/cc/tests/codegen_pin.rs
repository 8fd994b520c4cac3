//! Pins code generation byte for byte. A fixed corpus is compiled for each
//! target configuration; the linked image (code and data bytes, bases,
//! entry, symbols) and the emitted PostScript symbol tables are folded
//! into one FNV-1a digest per configuration and compared with a recorded
//! constant. Any change to a back end, the scheduler, the linker or the
//! symbol-table emitter that moves a single byte fails here.
//!
//! The corpus covers loops, doubles, register variables (more than any
//! target has registers for), statics, structs, large constants, and a
//! call with the most integer arguments each calling convention allows.
//!
//! To re-record after an intended change to generated code, run
//! `cargo test -p ldb-cc --test codegen_pin -- --nocapture` and copy the
//! printed digests into `PINS`.

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::gen::target_gen;
use ldb_cc::pssym::{emit, PsMode};
use ldb_machine::{Arch, ByteOrder, Image};

/// (configuration, architecture, byte order, recorded digest).
const PINS: [(&str, Arch, ByteOrder, u64); 5] = [
    ("mips-big", Arch::Mips, ByteOrder::Big, 0x56c6be0d3ebe0de3),
    ("mips-little", Arch::Mips, ByteOrder::Little, 0xd8408f0e26d3c3fb),
    ("m68k", Arch::M68k, ByteOrder::Big, 0x82217733addbd48e),
    ("sparc", Arch::Sparc, ByteOrder::Big, 0xa691fc4b06ce3323),
    ("vax", Arch::Vax, ByteOrder::Little, 0xf131131204892759),
];

const CORPUS: &str = r#"
struct point { int x; int y; double w; };
struct point origin;
static int counter;
static double scale;
short history[8];
char tag;

int sum_to(int n) {
    int i;
    int s;
    s = 0;
    for (i = 1; i <= n; i++)
        s = s + i;
    return s;
}

double average(double a, double b) {
    return (a + b) / 2.0;
}

float halve(float f) {
    return f / 2;
}

void move(struct point *p, int dx, int dy) {
    p->x = p->x + dx;
    p->y = p->y + dy;
    p->w = p->w * scale;
    history[counter % 8] = (short)p->x;
    counter++;
}

int crowded(int n) {
    int a; int b; int c; int d; int e; int f; int g; int h; int k;
    unsigned u;
    int buf[4];
    char *cp;
    a = n; b = a + 1; c = b * 2; d = c - a; e = d ^ b;
    f = e | 3; g = f & 12; h = g << 2; k = h >> 1;
    u = 4000000000;
    buf[0] = a + b + c;
    buf[1] = d + e + f;
    buf[2] = g + h + k;
    buf[3] = 0x12345678;
    cp = &tag;
    do {
        a = a + buf[n & 3];
        n--;
        if (a > 100000) break;
    } while (n > 0);
    return a + b + c + d + e + f + g + h + k + (int)(u >> 28) + *cp;
}

static int twice(int x) {
    return 2 * x;
}

int wide(ARGS) {
    return BODY;
}

int main(void) {
    int k;
    double d;
    k = 0;
    d = 0.0;
    scale = 1.25;
    tag = 'p';
    origin.w = 2.0;
    while (k < 10) {
        d = average(d, k * 1.5);
        k++;
    }
    move(&origin, 3, 4);
    k = sum_to(10);
    printf("%d %g %d %g\n", k, d, crowded(7), (double)halve(3.0));
    k = wide(CALL);
    return twice(k) & 255;
}
"#;

/// The most integer arguments a call can pass: the register conventions
/// have four (MIPS) and six (SPARC) argument registers; the stack
/// conventions are bounded only by the scratch registers that hold the
/// evaluated arguments until they are pushed.
fn max_int_args(arch: Arch) -> usize {
    match arch {
        Arch::Mips => 4,
        Arch::Sparc => 6,
        Arch::M68k | Arch::Vax => target_gen(arch).iscratch().len(),
    }
}

/// The corpus with `wide` taking `n` integer arguments.
fn corpus(n: usize) -> String {
    let params: Vec<String> = (0..n).map(|i| format!("int p{i}")).collect();
    let body: Vec<String> = (0..n).map(|i| format!("p{i} * {}", i + 1)).collect();
    let call: Vec<String> = (0..n).map(|i| format!("{}", i + 1)).collect();
    CORPUS
        .replace("ARGS", &params.join(", "))
        .replace("BODY", &body.join(" + "))
        .replace("CALL", &call.join(", "))
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent fields cannot trade bytes.
    fn field(&mut self, b: &[u8]) {
        self.bytes(&(b.len() as u64).to_le_bytes());
        self.bytes(b);
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }

    fn image(&mut self, img: &Image) {
        self.field(&img.code);
        self.word(img.code_base);
        self.field(&img.data);
        self.word(img.data_base);
        self.word(img.bss_size);
        self.word(img.entry);
        self.word(img.stack_top);
        self.word(img.symbols.len() as u32);
        for s in &img.symbols {
            self.field(s.name.as_bytes());
            self.word(s.addr);
            self.bytes(&[s.kind.nm_letter() as u8]);
        }
    }
}

/// The digest of one configuration: the `-g` image and both forms of its
/// symbol table, then the image compiled without `-g` (which the MIPS
/// schedules freely).
fn digest(arch: Arch, order: ByteOrder) -> u64 {
    let src = corpus(max_int_args(arch));
    let mut h = Fnv::new();
    for debug in [true, false] {
        let opts = CompileOpts { debug, order: Some(order), ..CompileOpts::default() };
        let c = compile("pin.c", &src, arch, opts).unwrap_or_else(|e| panic!("{arch}: {e}"));
        h.image(&c.linked.image);
        if debug {
            for mode in [PsMode::Eager, PsMode::Deferred] {
                h.field(emit(&c.unit, &c.funcs, arch, mode).as_bytes());
            }
        }
    }
    h.0
}

#[test]
fn generated_code_matches_recorded_digests() {
    let mut wrong = Vec::new();
    for (name, arch, order, want) in PINS {
        let got = digest(arch, order);
        println!("(\"{name}\", Arch::{arch:?}, ByteOrder::{order:?}, {got:#018x}),");
        if got != want {
            wrong.push(format!("{name}: digest {got:#018x}, recorded {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "generated code changed:\n  {}\nIf the change is intended, re-record: run \
         `cargo test -p ldb-cc --test codegen_pin -- --nocapture` and copy the printed \
         lines into PINS in crates/cc/tests/codegen_pin.rs.",
        wrong.join("\n  ")
    );
}

/// One integer argument past the register conventions is refused, with
/// the convention named.
#[test]
fn register_conventions_refuse_one_argument_too_many() {
    for (arch, name) in [(Arch::Mips, "MIPS"), (Arch::Sparc, "SPARC")] {
        let err = compile("pin.c", &corpus(max_int_args(arch) + 1), arch, CompileOpts::default())
            .expect_err("one argument too many must not compile");
        let want = format!("too many integer arguments for the {name} convention");
        assert!(err.to_string().contains(&want), "{arch}: {err}");
    }
}

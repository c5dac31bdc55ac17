//! Byte-identity pin for the compile and print paths.
//!
//! Every seeded generator program (the IR differential's seeds), plus a few
//! hand-written programs that reach what the generator does not (short
//! circuits, shared subexpressions, structs, pointers, calls — the paths
//! that spill several temps), is compiled through the IR at both
//! optimization levels.  The disassembly and the full
//! compiled program — code, statement maps, `block_starts`, per-function
//! `BlockDebug` lists — are digested per level, and so is the
//! `print_program` text.  The digests must equal the committed golden file:
//! a mismatch means an emitted byte moved.

mod common;

use cp_bytecode::disasm::disassemble;
use cp_bytecode::{compile_with_opts, CompileOpts, OptLevel};
use cp_lang::frontend;
use cp_lang::pretty::print_program;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/compile_digests.txt");

/// Programs whose emission spills several temps, so slot layout is pinned,
/// and one that reaches every construct the printer renders.
const HAND_WRITTEN: [(&str, &str); 4] = [
    (
        "short-circuit",
        r#"
        global limit: u32 = 100;
        fn pick(a: u32, b: u32, c: u32) -> u32 {
            if ((a > b && b > c) || a == c) { return a; }
            return (a + b) * c;
        }
        fn main() -> u32 {
            var x: u32 = input_byte(0) as u32;
            var y: u32 = input_byte(1) as u32;
            var z: u32 = input_byte(2) as u32;
            var t: u32 = ((x ^ y) & (z | x)) << 2;
            var u: u32 = ((x ^ y) & (z | x)) >> 1;
            var w: u32 = ((x > 3 && y < 9) as u32) + ((z != 0 || x == 0) as u32);
            output(pick(x, y, z) as u64);
            output((t + u + w) as u64);
            if (t > limit) { exit(1); }
            return w;
        }
    "#,
    ),
    (
        "struct-pointer",
        r#"
        struct Pair { lo: u16, hi: u16, data: ptr<u8>, }
        fn fill(p: ptr<Pair>, n: u64) -> u64 {
            var i: u64 = 0;
            var sum: u64 = 0;
            while (i < n) {
                p.data[i] = (i as u8) ^ (p.lo as u8);
                sum = sum + (p.data[i] as u64) + (p.data[i] as u64);
                i = i + 1;
            }
            return sum;
        }
        fn main() -> u32 {
            var p: Pair;
            p.lo = input_byte(0) as u16;
            p.hi = input_byte(1) as u16;
            var n: u64 = ((p.lo as u64) * (p.hi as u64)) % 16;
            p.data = malloc(n + 1) as ptr<u8>;
            var s: u64 = fill(&p, n);
            output(s);
            return (s & 255) as u32;
        }
    "#,
    ),
    (
        "shared-loads",
        r#"
        fn main() -> u32 {
            var buf: ptr<u32> = malloc(64) as ptr<u32>;
            var k: u64 = (input_byte(0) as u64) & 15;
            buf[k] = input_byte(1) as u32;
            var a: u32 = (buf[k] | buf[k]) ^ ((buf[k] >> 3) & (buf[k] << 1));
            var b: u32 = (buf[k] | buf[k]) ^ ((buf[k] >> 3) & (buf[k] << 1));
            var c: u32 = ((a < b || a > 7) && (b != 0 && a != 5)) as u32;
            output((a ^ b ^ c) as u64);
            return c;
        }
    "#,
    ),
    (
        "printer-surface",
        r#"
        struct Hdr { a: u8, b: u32, next: ptr<Hdr>, }
        global g: u64 = 0x10;
        fn touch(p: ptr<u32>) {
            *p = ~(*p);
            return;
        }
        fn main() -> u32 {
            var h: Hdr;
            var q: ptr<Hdr> = &h;
            var unset: u16;
            h.b = input_byte(0) as u32;
            touch(&h.b);
            var s: u64 = sizeof(Hdr) + sizeof(ptr<u8>);
            var neg: i32 = -(h.b as i32);
            if (!(h.b == 3)) {
                output(s);
            } else if (h.b > 7) {
                output(g);
            } else {
                exit(2);
            }
            output((*q).b as u64);
            return (neg as u32) ^ q.b;
        }
    "#,
    ),
];

/// 64-bit FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden line: the compiled digests at -O0 and -O2, then the printed
/// source's digest.
fn digest_line(label: &str, source: &str) -> String {
    let analyzed = frontend(source).unwrap_or_else(|e| panic!("{label}: rejected: {e}"));
    let mut line = label.to_string();
    for (name, opt) in [("o0", OptLevel::None), ("o2", OptLevel::Full)] {
        let program = compile_with_opts(&analyzed, &CompileOpts { opt })
            .unwrap_or_else(|e| panic!("{label}: {name} compile failed: {e:?}"));
        let text = format!("{}{program:?}", disassemble(&program));
        let _ = write!(line, " {name}={:016x}", digest(&text));
    }
    let printed = print_program(&analyzed.program);
    let _ = write!(line, " print={:016x}", digest(&printed));
    line
}

#[test]
fn seeded_and_hand_written_programs_compile_and_print_to_the_golden_bytes() {
    let mut actual: String = (1..=60u64)
        .map(|seed| {
            let source = common::program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            digest_line(&format!("seed-{seed:02}"), &source) + "\n"
        })
        .collect();
    for (label, source) in HAND_WRITTEN {
        actual += &digest_line(label, source);
        actual.push('\n');
    }
    for (want, got) in GOLDEN.lines().zip(actual.lines()) {
        assert_eq!(got, want, "compiled or printed bytes moved");
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden file covers a different program set; current table:\n{actual}"
    );
}

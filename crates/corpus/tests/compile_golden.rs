//! Byte-identity pin for the compile and print paths over the corpus.
//!
//! The five hand-written scenarios and the first forty synthetic scenarios
//! contribute their recipient and donor sources.  Each is compiled through
//! the IR at both optimization levels; the disassembly and the full compiled
//! program — code, statement maps, `block_starts`, per-function `BlockDebug`
//! lists — are digested per level, and so is the `print_program` text.  The
//! digests must equal the committed golden file: a mismatch means an emitted
//! byte moved.

use cp_bytecode::disasm::disassemble;
use cp_bytecode::{compile_with_opts, CompileOpts, OptLevel};
use cp_corpus::scenarios;
use cp_corpus::synthetic::synthetic_scenarios;
use cp_lang::frontend;
use cp_lang::pretty::print_program;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/compile_digests.txt");

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
fn corpus_programs_compile_and_print_to_the_golden_bytes() {
    let mut actual = String::new();
    for scenario in scenarios().into_iter().chain(synthetic_scenarios(40)) {
        for (role, source) in [
            ("recipient", scenario.source),
            ("donor", scenario.donor_source),
        ] {
            actual += &digest_line(&format!("{} {role}", scenario.name), source);
            actual.push('\n');
        }
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

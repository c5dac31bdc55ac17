//! Differential testing of the three compilation pipelines.
//!
//! The `cp-ir` path (at both optimization levels) must agree with the
//! original direct backend on *behavior*: the same `output` stream and the
//! same detector verdict on every input.  Program counters inside error
//! payloads legitimately differ between backends (the instruction streams
//! are different), so faults are compared as verdicts — error class plus
//! backend-independent payload — rather than bit-for-bit.  The optimized
//! build must also never be worse than -O0: no more emitted instructions,
//! and no more executed steps on any input.
//!
//! The corpus is the deterministic random-program generator shared with the
//! pretty-printer round-trip test: well-typed scalar programs with loops,
//! branches, casts, and division (so divide-by-zero traps are exercised),
//! and no pointers (so behavior cannot depend on frame sizes, which the IR
//! backend legitimately grows for spill slots).

mod common;

use common::Rng;
use cp_bytecode::{compile_direct, compile_with_opts, CompileOpts, CompiledProgram, OptLevel};
use cp_lang::frontend;
use cp_vm::{run, RunConfig, Termination, VmError};

/// A backend-independent description of how a run ended.
fn verdict(termination: &Termination) -> String {
    match termination {
        Termination::Returned(v) => format!("returned {v}"),
        Termination::Exited(v) => format!("exited {v}"),
        Termination::Error(e) => match e {
            // pc/function fields identify instructions, which differ between
            // backends; everything else must match exactly.
            VmError::DivideByZero { .. } => "divide by zero".to_string(),
            VmError::OutOfBounds { addr, len, write } => {
                format!("out of bounds {addr}+{len} write={write}")
            }
            VmError::OverflowIntoAllocation { requested } => {
                format!("overflow into allocation of {requested}")
            }
            other => format!("{other:?}"),
        },
    }
}

#[test]
fn ir_backends_agree_with_the_direct_compiler() {
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    let mut rng = Rng(0xD1FF_E2E4 ^ 0x9E37_79B9_7F4A_7C15);
    for _ in 0..4 {
        inputs.push((0..6).map(|_| rng.next() as u8).collect());
    }

    let config = RunConfig {
        max_steps: 200_000,
        ..RunConfig::default()
    };
    for seed in 1..=60u64 {
        let source = common::program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let analyzed = frontend(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: generated source rejected: {e}\n{source}"));
        let direct = compile_direct(&analyzed).expect("direct compiles");
        let unopt = compile_with_opts(
            &analyzed,
            &CompileOpts {
                opt: OptLevel::None,
            },
        )
        .expect("IR -O0 compiles");
        let opt = compile_with_opts(
            &analyzed,
            &CompileOpts {
                opt: OptLevel::Full,
            },
        )
        .expect("IR -O2 compiles");

        // Optimizing never pessimizes: -O2 emits no more code than -O0 ...
        let code_len = |program: &CompiledProgram| -> usize {
            program.functions.iter().map(|f| f.code.len()).sum()
        };
        assert!(
            code_len(&opt) <= code_len(&unopt),
            "seed {seed}: ir-opt emitted {} instructions, ir-noopt {}\n{source}",
            code_len(&opt),
            code_len(&unopt)
        );

        let backends: [(&str, &CompiledProgram); 3] =
            [("direct", &direct), ("ir-noopt", &unopt), ("ir-opt", &opt)];
        for input in &inputs {
            let reference = run(&direct, input, &config);
            let mut steps = Vec::with_capacity(2);
            for (name, program) in &backends[1..] {
                let result = run(program, input, &config);
                steps.push(result.steps);
                assert_eq!(
                    result.outputs, reference.outputs,
                    "seed {seed}: {name} outputs diverged on {input:?}\n{source}"
                );
                assert_eq!(
                    verdict(&result.termination),
                    verdict(&reference.termination),
                    "seed {seed}: {name} verdict diverged on {input:?}\n{source}"
                );
            }
            // ... and executes no more steps.
            assert!(
                steps[1] <= steps[0],
                "seed {seed}: ir-opt ran {} steps, ir-noopt {} on {input:?}\n{source}",
                steps[1],
                steps[0]
            );
        }
    }
}

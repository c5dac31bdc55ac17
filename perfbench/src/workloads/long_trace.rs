//! `long-trace`: donor analysis of a loop-heavy program over a long input.
//!
//! Op: `Session::record` plus `Trace::checks` with every check's sizes and
//! support, in a fresh arena epoch.  The donor is the `long_trace` bench's
//! checksum loop: a tainted loop bound, a running sum over every input
//! byte, a guard per iteration and a final guarded allocation.  The seed
//! fills the input bytes; the iteration count is fixed, so every op
//! executes the same instructions.  Compiling happens once, in set-up.

use super::{elapsed_ns, repeated_setup, Layered, Opts, Outcome, Timed};
use crate::ledger::{Counters, Ledger, SpanStats, Traced};
use crate::stats::{Ratio, Samples};
use cp_bytecode::{compile_with_opts, CompileOpts};
use cp_core::{ArenaEpoch, Session, VmRunConfig};
use cp_obs::{span, Collector};
use cp_solver::differential::Rng;
use cp_vm::Termination;
use std::time::Instant;

/// Loop iterations; each records two tainted branches.
const ITERATIONS: usize = 5120;

/// Executed-instruction ceiling, far above what one op needs.
const MAX_STEPS: u64 = 10_000_000;

/// Untimed ops in each set-up.
const WARMUP_OPS: usize = 4;

const SOURCE: &str = r#"
    fn main() -> u32 {
        var limit: u64 = ((input_byte(0) as u64) << 8) | (input_byte(1) as u64);
        var sum: u32 = 0;
        var i: u64 = 0;
        while (i < limit) {
            sum = sum + (input_byte(i + 2) as u32);
            if (sum > 16000000) { exit(1); }
            i = i + 1;
        }
        if (((sum as u64) * limit) > 4000000000) { exit(2); }
        var buf: u64 = malloc((sum as u64) + 16);
        output(sum as u64);
        return 0;
    }
"#;

/// What one op's trace must show: the loop's sum computed here from the
/// input bytes, and the check-list shape, fixed by the first op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    tainted_branches: usize,
    checks: usize,
    raw_ops: usize,
    simplified_ops: usize,
    support: usize,
}

struct State {
    session: Session,
    input: Vec<u8>,
    termination: Termination,
    outputs: Vec<u64>,
    shape: Option<Shape>,
}

/// The seeded input: a big-endian iteration count, then one byte per
/// iteration.
fn input(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut bytes = vec![(ITERATIONS >> 8) as u8, (ITERATIONS & 0xFF) as u8];
    bytes.extend((0..ITERATIONS).map(|_| rng.next_u64() as u8));
    bytes
}

/// The program's behaviour on `input`, computed without running it.
fn expected(input: &[u8]) -> (Termination, Vec<u64>) {
    let limit = (u64::from(input[0]) << 8) | u64::from(input[1]);
    let mut sum: u32 = 0;
    for i in 0..limit as usize {
        sum = sum.wrapping_add(u32::from(input.get(i + 2).copied().unwrap_or(0)));
        if sum > 16_000_000 {
            return (Termination::Exited(1), Vec::new());
        }
    }
    if u64::from(sum) * limit > 4_000_000_000 {
        return (Termination::Exited(2), Vec::new());
    }
    (Termination::Returned(0), vec![u64::from(sum)])
}

fn setup(seed: u64) -> State {
    let input = input(seed);
    let (termination, outputs) = expected(&input);
    let session = Session::builder()
        .source(SOURCE)
        .max_steps(MAX_STEPS)
        .input(&input)
        .build()
        .expect("the long-trace donor compiles");
    let mut state = State {
        session,
        input,
        termination,
        outputs,
        shape: None,
    };
    let mut warm = Outcome::default();
    for _ in 0..WARMUP_OPS {
        warm.count(state.op());
    }
    state
}

impl State {
    /// One op; whether its output and check list are right.
    fn op(&mut self) -> bool {
        let _epoch = ArenaEpoch::begin();
        let trace = self.session.record();
        let shape = {
            let _span = span!("core.checks");
            let checks = trace.checks();
            Shape {
                tainted_branches: trace.tainted_branches().len(),
                checks: checks.len(),
                raw_ops: checks.iter().map(|c| c.raw_ops()).sum(),
                simplified_ops: checks.iter().map(|c| c.simplified_ops()).sum(),
                support: checks.iter().map(|c| c.support().len()).sum(),
            }
        };
        let first = *self.shape.get_or_insert(shape);
        trace.termination == self.termination
            && trace.outputs == self.outputs
            && shape == first
            && shape.tainted_branches >= 2 * ITERATIONS
    }
}

pub(crate) fn timed(opts: &Opts) -> (Timed, Vec<f64>) {
    let (mut state, setups) = repeated_setup(|| setup(opts.seed));
    let mut outcome = Outcome::default();
    let mut latencies = Samples::default();
    let mut busy_ns = 0;
    let phase = Instant::now();
    while phase.elapsed() < opts.budget() {
        let started = Instant::now();
        let ok = state.op();
        let ns = elapsed_ns(started);
        busy_ns += ns;
        latencies.push(ns as f64 / 1e6);
        outcome.count(ok);
    }
    let timed = Timed {
        outcome,
        latencies,
        busy_ns,
        workers: 1,
    };
    (timed, setups)
}

pub(crate) fn traced(opts: &Opts) -> (Layered, Vec<f64>) {
    let (mut state, setups) = repeated_setup(|| setup(opts.seed));
    let mut outcome = Outcome::default();
    let collector = Collector::new();
    let mut counters = Counters::default();
    let (mut traced_ns, mut untraced_ns, mut ops) = (0, 0, 0);

    let phase = Instant::now();
    let mut traced_first = false;
    while phase.elapsed() < opts.budget().mul_f64(0.6) {
        traced_first = !traced_first;
        for traced in [traced_first, !traced_first] {
            let before = Counters::read();
            let started = Instant::now();
            let ok = {
                let _subscription = traced.then(|| collector.subscribe());
                let _op = span!("op");
                state.op()
            };
            let ns = elapsed_ns(started);
            outcome.count(ok);
            if traced {
                counters.accumulate(&before, &Counters::read());
                traced_ns += ns;
                ops += 1;
            } else {
                untraced_ns += ns;
            }
        }
    }
    let spans = SpanStats::of(&collector.take());

    // The replay: the set-up's frontend and compile, and recordings paired
    // with plain runs of the same program on the same input.
    let config = VmRunConfig {
        max_steps: MAX_STEPS,
        ..VmRunConfig::default()
    };
    let (mut record_ns, mut run_ns) = (0, 0);
    let mut instructions = 0;
    let phase = Instant::now();
    {
        let _subscription = collector.subscribe();
        while phase.elapsed() < opts.budget().mul_f64(0.3) {
            let analyzed = {
                let _span = span!("lang.frontend");
                cp_lang::frontend(SOURCE).expect("the long-trace donor parses")
            };
            let program = {
                let _span = span!("compile");
                compile_with_opts(&analyzed, &CompileOpts::default())
                    .expect("the long-trace donor compiles")
            };
            instructions = program
                .functions
                .iter()
                .map(|f| f.code.len())
                .sum::<usize>();
            let started = Instant::now();
            let ok = {
                let _epoch = ArenaEpoch::begin();
                let trace = state.session.record();
                trace.termination == state.termination && trace.outputs == state.outputs
            };
            record_ns += elapsed_ns(started);
            let started = Instant::now();
            let run = {
                let _epoch = ArenaEpoch::begin();
                let _span = span!("vm.run");
                cp_vm::run(&program, &state.input, &config)
            };
            run_ns += elapsed_ns(started);
            outcome
                .count(ok && run.termination == state.termination && run.outputs == state.outputs);
        }
    }
    let replay = SpanStats::of(&collector.take());

    let mut ledger = Ledger::default();
    ledger.ratio("obs.span_coverage", spans.covered("op", "op wall"));
    Traced {
        ops,
        spans,
        counters,
        traced_ns,
        untraced_ns,
    }
    .fill(&mut ledger);
    ledger.set("lang.frontend_us", replay.mean_us("lang.frontend"));
    ledger.set("compile.us", replay.mean_us("compile"));
    ledger.set("compile.instructions", instructions as f64);
    ledger.set("vm.run_us", replay.mean_us("vm.run"));
    ledger.ratio(
        "taint.overhead_ratio",
        Ratio::of(
            record_ns as f64,
            run_ns as f64,
            "plain vm::run of the donor on the same input",
        ),
    );
    (Layered { outcome, ledger }, setups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_expected_sum_matches_a_hand_count() {
        let mut input = vec![0, 3, 10, 20, 30, 99];
        assert_eq!(expected(&input), (Termination::Returned(0), vec![60]));
        input[1] = 0;
        assert_eq!(expected(&input), (Termination::Returned(0), vec![0]));
    }
}

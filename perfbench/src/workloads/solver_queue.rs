//! `solver-queue`: the equivalence queue translation drives, without the
//! rest of the pipeline.
//!
//! Op: one `EquivSession::equivalent` query.  Queries come in blocks of
//! [`SESSION_SPAN`]; each block gets a fresh session, as translation's
//! candidate queue does.  A pass decides a pool of [`POOL`] generated
//! expression pairs over six input bytes, in the four modes of
//! `cp_solver::differential`: independent, simplifier round-trip,
//! algebraic rewrite and near miss.  Each pass runs in its own arena epoch,
//! starts with the verdict memo reset, and takes the blocks in an order
//! drawn from the run's seed.  Every verdict
//! is audited outside the timed region: a `Refuted` witness must separate
//! the pair under `cp_symexpr::eval`, a `Proved` pair must survive a
//! separately seeded sampling stream, and no verdict may contradict its
//! mode (a rewrite refuted, a near miss proved).

use super::{elapsed_ns, repeated_setup, shuffle, Layered, Opts, Outcome, Timed};
use crate::ledger::{Counters, Ledger, SpanStats, Traced};
use crate::stats::Samples;
use cp_core::ArenaEpoch;
use cp_obs::{span, Collector};
use cp_solver::bitblast::BlastLimits;
use cp_solver::differential::{random_expr, Rng, INPUT_BYTES};
use cp_solver::incremental::EquivSession;
use cp_solver::{reset_solver_memo, Equivalence, SampleSolver, Solver};
use cp_symexpr::eval::eval;
use cp_symexpr::rewrite::simplify;
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, UnOp, Width};
use std::time::Instant;

/// Queries one session decides before it is rolled.
const SESSION_SPAN: usize = 64;

/// Pairs every pass decides.
const POOL: usize = 1024;

/// Seed of the pool's generator.  Query cost is heavy-tailed: a few pairs
/// per hundred run into the solver's budget, and what a session already
/// holds changes how long they take, so a pool and a session mix drawn from
/// the run's seed would move throughput by tens of percent between seeds.
/// The pool and its blocks are therefore the same on every run; the run's
/// seed orders the blocks.
const POOL_SEED: u64 = 0x5EED_0000_C0DE_0001;

/// The per-pair budgets of `cp_solver::differential`'s harness.  Random
/// pairs are far more varied than translation's miters, and under
/// `Solver::default()` a rare pathological pair takes seconds; capped, it
/// becomes `Unknown` and shows in `undecided_ratio` instead.
fn solver() -> Solver {
    Solver {
        sampler: SampleSolver::with_samples(48),
        limits: BlastLimits {
            max_gates: 20_000,
            max_conflicts: 800,
        },
        exhaustive_budget: 1 << 12,
    }
}

/// Samples of the audit's reference stream per proved pair.
const AUDIT_SAMPLES: u32 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Independent,
    RoundTrip,
    Rewrite,
    NearMiss,
}

const MODES: [Mode; 4] = [
    Mode::Independent,
    Mode::RoundTrip,
    Mode::Rewrite,
    Mode::NearMiss,
];

fn width(rng: &mut Rng) -> Width {
    Width::all()[rng.below(4) as usize]
}

/// An equivalent rewrite of a random expression.
fn rewrite(rng: &mut Rng) -> (ExprRef, ExprRef) {
    let w = width(rng);
    let x = random_expr(rng, 2).zext(w);
    let y = random_expr(rng, 2).zext(w);
    match rng.below(5) {
        0 => {
            const COMMUTATIVE: [BinOp; 5] =
                [BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor];
            let op = COMMUTATIVE[rng.below(5) as usize];
            (x.binop(op, y), y.binop(op, x))
        }
        1 => {
            let z = random_expr(rng, 2).zext(w);
            (
                x.binop(BinOp::Add, y).binop(BinOp::Add, z),
                x.binop(BinOp::Add, y.binop(BinOp::Add, z)),
            )
        }
        2 => (
            x.binop(BinOp::And, y).unop(UnOp::Not),
            x.unop(UnOp::Not).binop(BinOp::Or, y.unop(UnOp::Not)),
        ),
        3 => (
            x.binop(BinOp::Sub, y),
            x.binop(BinOp::Add, y.unop(UnOp::Neg)),
        ),
        _ => (
            x.binop(BinOp::Mul, SymExpr::constant(w, 2)),
            x.binop(BinOp::Shl, SymExpr::constant(w, 1)),
        ),
    }
}

/// A pair that differs on some input: one constant or leaf nudged.
fn near_miss(rng: &mut Rng) -> (ExprRef, ExprRef) {
    let w = width(rng);
    let x = random_expr(rng, 2).zext(w);
    match rng.below(3) {
        0 => (
            x.binop(BinOp::Add, SymExpr::constant(w, 1)),
            x.binop(BinOp::Add, SymExpr::constant(w, 2)),
        ),
        1 => {
            let a = rng.below(INPUT_BYTES as u64) as usize;
            let b = (a + 1) % INPUT_BYTES;
            (
                x.binop(BinOp::Xor, SymExpr::input_byte(a).zext(w)),
                x.binop(BinOp::Xor, SymExpr::input_byte(b).zext(w)),
            )
        }
        _ => (x, x.unop(UnOp::Not)),
    }
}

fn pair(rng: &mut Rng, mode: Mode) -> (ExprRef, ExprRef) {
    match mode {
        Mode::Independent => (random_expr(rng, 3), random_expr(rng, 3)),
        Mode::RoundTrip => {
            let e = random_expr(rng, 3);
            (e, simplify(&e))
        }
        Mode::Rewrite => rewrite(rng),
        Mode::NearMiss => near_miss(rng),
    }
}

/// Whether `verdict` on `(a, b)` of `mode` holds up outside the solver.
fn audit(
    reference: &SampleSolver,
    mode: Mode,
    a: &ExprRef,
    b: &ExprRef,
    verdict: &Equivalence,
) -> bool {
    match verdict {
        Equivalence::Refuted { witness } => {
            let mut env = [0u8; INPUT_BYTES];
            for &(offset, byte) in witness {
                if let Some(slot) = env.get_mut(offset) {
                    *slot = byte;
                }
            }
            let separates = eval(a, &env[..]) != eval(b, &env[..]);
            separates && !matches!(mode, Mode::RoundTrip | Mode::Rewrite)
        }
        Equivalence::Proved => mode != Mode::NearMiss && !reference.equivalent(a, b).is_refuted(),
        Equivalence::Unknown => true,
    }
}

/// The pool, cut into session blocks, in generation order.
fn pool_blocks() -> Vec<Vec<(Mode, ExprRef, ExprRef)>> {
    let mut rng = Rng::new(POOL_SEED);
    let pairs: Vec<_> = (0..POOL)
        .map(|case| {
            let mode = MODES[case % MODES.len()];
            let (a, b) = pair(&mut rng, mode);
            (mode, a, b)
        })
        .collect();
    pairs.chunks(SESSION_SPAN).map(<[_]>::to_vec).collect()
}

struct State {
    order: Rng,
    reference: SampleSolver,
}

/// One block's verdicts and timings.
#[derive(Default)]
struct Block {
    verdicts: Vec<Equivalence>,
    ns: Vec<u64>,
    wall_ns: u64,
}

impl State {
    fn new(seed: u64) -> State {
        State {
            order: Rng::new(seed),
            reference: SampleSolver {
                samples: AUDIT_SAMPLES,
                ..SampleSolver::with_seed(seed ^ 0x5EED_A0D1_7000_0001)
            },
        }
    }

    /// The pool's session blocks in a fresh seeded order.  The pairs live
    /// in the caller's arena epoch.
    fn pool(&mut self) -> Vec<Vec<(Mode, ExprRef, ExprRef)>> {
        let mut blocks = pool_blocks();
        shuffle(&mut self.order, &mut blocks);
        blocks
    }

    /// Decides `pairs` on a fresh session, timing each query.
    fn decide(&self, pairs: &[(Mode, ExprRef, ExprRef)]) -> Block {
        let mut block = Block::default();
        let started = Instant::now();
        let mut session = EquivSession::new(solver());
        for (_, a, b) in pairs {
            let _span = span!("solver.equiv");
            let started = Instant::now();
            block.verdicts.push(session.equivalent(a, b));
            block.ns.push(elapsed_ns(started));
        }
        drop(session);
        block.wall_ns = elapsed_ns(started);
        block
    }

    /// Audits every verdict of `block`, counting it in `outcome`; returns
    /// the `Unknown` verdicts.
    fn audit(
        &self,
        pairs: &[(Mode, ExprRef, ExprRef)],
        block: &Block,
        outcome: &mut Outcome,
    ) -> u64 {
        for ((mode, a, b), verdict) in pairs.iter().zip(&block.verdicts) {
            outcome.count(audit(&self.reference, *mode, a, b, verdict));
        }
        block
            .verdicts
            .iter()
            .filter(|v| **v == Equivalence::Unknown)
            .count() as u64
    }
}

fn setup(seed: u64) -> State {
    let state = State::new(seed);
    {
        let _epoch = ArenaEpoch::begin();
        state.decide(&pool_blocks()[0]);
    }
    state
}

pub(crate) fn timed(opts: &Opts) -> (Timed, Vec<f64>) {
    let (mut state, setups) = repeated_setup(|| setup(opts.seed));
    let mut outcome = Outcome::default();
    let mut latencies = Samples::default();
    let (mut busy_ns, mut unknown) = (0, 0);
    // Whole passes, so every run decides each pair equally often.
    let phase = Instant::now();
    while phase.elapsed() < opts.budget() {
        let _epoch = ArenaEpoch::begin();
        let blocks = state.pool();
        reset_solver_memo();
        for pairs in &blocks {
            let block = state.decide(pairs);
            unknown += state.audit(pairs, &block, &mut outcome);
            busy_ns += block.wall_ns;
            block
                .ns
                .iter()
                .for_each(|&ns| latencies.push(ns as f64 / 1e6));
        }
    }
    outcome.lines.push(format!(
        "undecided_ratio {:.6} ratio ({unknown} Unknown verdicts / {} queries)",
        unknown as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    ));
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
    let (mut traced_ns, mut untraced_ns, mut ops, mut unknown) = (0, 0, 0, 0);

    // Each block is decided twice, traced and untraced, alternating which
    // goes first; the memo is reset before each so both start alike.
    let phase = Instant::now();
    let mut traced_first = false;
    'passes: loop {
        let _epoch = ArenaEpoch::begin();
        let blocks = state.pool();
        for chunk in &blocks {
            if phase.elapsed() >= opts.budget().mul_f64(0.9) {
                break 'passes;
            }
            traced_first = !traced_first;
            for traced in [traced_first, !traced_first] {
                reset_solver_memo();
                let before = Counters::read();
                let block = {
                    let _subscription = traced.then(|| collector.subscribe());
                    let _op = span!("op");
                    state.decide(chunk)
                };
                let undecided = state.audit(chunk, &block, &mut outcome);
                if traced {
                    counters.accumulate(&before, &Counters::read());
                    traced_ns += block.wall_ns;
                    ops += chunk.len() as u64;
                    unknown += undecided;
                } else {
                    untraced_ns += block.wall_ns;
                }
            }
        }
    }
    let spans = SpanStats::of(&collector.take());

    let mut ledger = Ledger::default();
    ledger.ratio("obs.span_coverage", spans.covered("op", "op block wall"));
    ledger.set("solver.equiv_us", spans.mean_us("solver.equiv"));
    Traced {
        ops,
        spans,
        counters,
        traced_ns,
        untraced_ns,
    }
    .fill(&mut ledger);
    ledger.set("solver.unknown_per_op", unknown as f64 / ops.max(1) as f64);
    (Layered { outcome, ledger }, setups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_verdict_fails_its_audit() {
        let reference = SampleSolver::with_seed(7);
        let x = SymExpr::input_byte(0).zext(Width::W32);
        let y = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 1));
        let agreeing = Equivalence::Refuted {
            witness: vec![(1, 5)],
        };
        assert!(!audit(&reference, Mode::Independent, &x, &x, &agreeing));
        assert!(!audit(
            &reference,
            Mode::Independent,
            &x,
            &y,
            &Equivalence::Proved
        ));
        assert!(!audit(
            &reference,
            Mode::NearMiss,
            &x,
            &x,
            &Equivalence::Proved
        ));
        let separating = Equivalence::Refuted {
            witness: vec![(0, 5)],
        };
        assert!(audit(&reference, Mode::Independent, &x, &y, &separating));
        assert!(!audit(&reference, Mode::Rewrite, &x, &y, &separating));
        assert!(audit(
            &reference,
            Mode::Rewrite,
            &x,
            &y,
            &Equivalence::Unknown
        ));
    }
}

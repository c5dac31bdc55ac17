//! `sweep-warm`: the steady state of a batch sweep.
//!
//! Op: one scenario of `cp_corpus::synthetic::synthetic_scenarios(BATCH)`
//! run through `run_scenarios` on a pool of [`WORKERS`] threads.  One
//! untimed batch in set-up warms the verdict memo, so the memo answers
//! nearly every solver query and the solver itself is bypassed.  An op's
//! latency is the `scenario.wall_ns{name}` gauge the pipeline publishes;
//! throughput is measured around `run_scenarios`.  The seed permutes the
//! batch order.

use super::pipeline::{ReplayFacts, TransferFacts};
use super::{elapsed_ns, repeated_setup, shuffle, Layered, Opts, Outcome, Timed, WORKERS};
use crate::expected::Expected;
use crate::ledger::{fill_replay, Counters, Ledger, SpanStats, Traced};
use crate::stats::{Ratio, Samples};
use cp_corpus::pipeline::{run_scenarios, ScenarioOutcome, SweepOptions};
use cp_corpus::synthetic::synthetic_scenarios;
use cp_corpus::Scenario;
use cp_obs::Collector;
use cp_solver::differential::Rng;
use cp_solver::reset_solver_memo;
use std::time::Instant;

/// Scenarios per batch: every one of the twenty variants 100 times.
const BATCH: usize = 2000;

struct State {
    scenarios: Vec<Scenario>,
    expected: Expected,
}

fn setup(seed: u64) -> State {
    let mut scenarios = synthetic_scenarios(BATCH);
    shuffle(&mut Rng::new(seed), &mut scenarios);
    let state = State {
        scenarios,
        expected: Expected::load(),
    };
    reset_solver_memo();
    state.batch();
    state
}

impl State {
    /// One batch; returns its wall in nanoseconds and the rows.
    fn batch(&self) -> (u64, Vec<ScenarioOutcome>) {
        let started = Instant::now();
        let outcomes = run_scenarios(&self.scenarios, SweepOptions::with_workers(WORKERS));
        (elapsed_ns(started), outcomes)
    }

    /// Checks every row against the expected file.
    fn check(&self, outcomes: &[ScenarioOutcome], outcome: &mut Outcome) {
        for row in outcomes {
            outcome.count(self.expected.matches(row));
        }
    }
}

/// The wall the pipeline published for `scenario`'s last run, in ms.
fn published_ms(scenario: &Scenario) -> f64 {
    cp_obs::metrics::gauge_with("scenario.wall_ns", scenario.name).get() as f64 / 1e6
}

pub(crate) fn timed(opts: &Opts) -> (Timed, Vec<f64>) {
    let (state, setups) = repeated_setup(|| setup(opts.seed));
    let mut outcome = Outcome::default();
    let mut latencies = Samples::default();
    let mut busy_ns = 0;
    let phase = Instant::now();
    while phase.elapsed() < opts.budget() {
        let (wall, outcomes) = state.batch();
        busy_ns += wall;
        state.check(&outcomes, &mut outcome);
        for scenario in &state.scenarios {
            latencies.push(published_ms(scenario));
        }
    }
    let timed = Timed {
        outcome,
        latencies,
        busy_ns,
        workers: WORKERS,
    };
    (timed, setups)
}

pub(crate) fn traced(opts: &Opts) -> (Layered, Vec<f64>) {
    let (state, setups) = repeated_setup(|| setup(opts.seed));
    let mut outcome = Outcome::default();
    let collector = Collector::new();
    let mut counters = Counters::default();
    let mut facts = TransferFacts::default();
    let (mut traced_ns, mut untraced_ns, mut ops) = (0, 0, 0);

    let phase = Instant::now();
    let mut traced_first = false;
    while phase.elapsed() < opts.budget().mul_f64(0.6) {
        traced_first = !traced_first;
        for traced in [traced_first, !traced_first] {
            let before = Counters::read();
            let (wall, outcomes) = {
                let _subscription = traced.then(|| collector.subscribe());
                state.batch()
            };
            state.check(&outcomes, &mut outcome);
            if traced {
                counters.accumulate(&before, &Counters::read());
                traced_ns += wall;
                ops += outcomes.len() as u64;
                outcomes.iter().for_each(|o| facts.add(o));
            } else {
                untraced_ns += wall;
            }
        }
    }
    let spans = SpanStats::of(&collector.take());

    // The layer replay over the twenty distinct variants, memo warm like
    // the op.
    let variants = synthetic_scenarios(20);
    let mut replays = ReplayFacts::default();
    let phase = Instant::now();
    while phase.elapsed() < opts.budget().mul_f64(0.3) {
        let _subscription = collector.subscribe();
        for scenario in &variants {
            replays.replay_checked(&state.expected, scenario, &mut outcome);
        }
    }
    let replay_spans = SpanStats::of(&collector.take());

    let mut ledger = Ledger::default();
    facts.fill(&mut ledger, &spans, ops);
    let busy = spans.total_ns("scenario") as f64;
    let pool = (WORKERS as u64 * spans.total_ns("sweep")) as f64;
    ledger.ratio(
        "corpus.pool_idle_share",
        Ratio::of(pool - busy, pool, "worker time: workers x sweep wall"),
    );
    Traced {
        ops,
        spans,
        counters,
        traced_ns,
        untraced_ns,
    }
    .fill(&mut ledger);
    fill_replay(&mut ledger, &replay_spans);
    replays.fill(&mut ledger);
    (Layered { outcome, ledger }, setups)
}

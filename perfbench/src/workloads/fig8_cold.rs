//! `fig8-cold`: the paper's Figure 8, one transfer at a time, as a fresh
//! `fig8` process sees it.
//!
//! Op: one `cp_corpus::pipeline::run_scenario` call on one of the five
//! corpus scenarios, inside its own `ArenaEpoch` and `catch_unwind` as
//! `run_scenarios` runs it, on one worker.  The verdict memo is reset
//! before every op, so each transfer takes the memo's miss path as the
//! first transfer of a fresh process does.  (Resetting once per round
//! instead would let a scenario reuse verdicts of whichever scenario the
//! order put before it, splitting its latency in two.)  The seed permutes
//! the scenario order of every round.

use super::pipeline::{ReplayFacts, TransferFacts};
use super::{elapsed_ns, repeated_setup, shuffle, Layered, Opts, Outcome, Timed};
use crate::expected::Expected;
use crate::ledger::{fill_replay, Counters, Ledger, SpanStats, Traced};
use crate::stats::Samples;
use cp_core::ArenaEpoch;
use cp_corpus::pipeline::{run_scenario, ScenarioOutcome};
use cp_corpus::Scenario;
use cp_obs::Collector;
use cp_solver::differential::Rng;
use cp_solver::reset_solver_memo;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Untimed rounds in each set-up.
const WARMUP_ROUNDS: usize = 20;

pub(crate) struct State {
    scenarios: [Scenario; 5],
    rng: Rng,
    expected: Expected,
}

fn setup(seed: u64) -> State {
    let mut state = State {
        scenarios: cp_corpus::scenarios(),
        rng: Rng::new(seed),
        expected: Expected::load(),
    };
    let mut warm = Outcome::default();
    for _ in 0..WARMUP_ROUNDS {
        let order = state.next_order();
        round(&state.expected, &order, None, |_, _, ok| warm.count(ok));
    }
    state
}

impl State {
    fn next_order(&mut self) -> [Scenario; 5] {
        let mut order = self.scenarios;
        shuffle(&mut self.rng, &mut order);
        order
    }
}

/// One op, isolated like `run_scenarios` isolates it; `None` if it
/// panicked.
pub(crate) fn op(scenario: &Scenario) -> Option<ScenarioOutcome> {
    catch_unwind(AssertUnwindSafe(|| {
        let _epoch = ArenaEpoch::begin();
        run_scenario(scenario)
    }))
    .ok()
}

/// One round: runs every scenario of `order` on a freshly reset verdict
/// memo, reporting each op's scenario, wall in nanoseconds and whether it
/// matched `expected`.  With `counters`, each op's registry increments are
/// added to it.
pub(crate) fn round(
    expected: &Expected,
    order: &[Scenario],
    mut counters: Option<&mut Counters>,
    mut each: impl FnMut(&Scenario, u64, bool),
) -> Vec<Option<ScenarioOutcome>> {
    order
        .iter()
        .map(|scenario| {
            // The reset also zeroes the memo's counters, so read after it.
            reset_solver_memo();
            let before = counters.is_some().then(Counters::read);
            let started = Instant::now();
            let outcome = op(scenario);
            let ns = elapsed_ns(started);
            if let (Some(total), Some(before)) = (counters.as_deref_mut(), before) {
                total.accumulate(&before, &Counters::read());
            }
            each(
                scenario,
                ns,
                outcome.as_ref().is_some_and(|o| expected.matches(o)),
            );
            outcome
        })
        .collect()
}

pub(crate) fn timed(opts: &Opts) -> (Timed, Vec<f64>) {
    let (mut state, setups) = repeated_setup(|| setup(opts.seed));
    let mut outcome = Outcome::default();
    let mut latencies = Samples::default();
    let mut rows: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut busy_ns = 0;
    let phase = Instant::now();
    while phase.elapsed() < opts.budget() {
        let order = state.next_order();
        round(&state.expected, &order, None, |scenario, ns, ok| {
            outcome.count(ok);
            busy_ns += ns;
            let ms = ns as f64 / 1e6;
            latencies.push(ms);
            rows.entry(scenario.name).or_default().push(ms);
        });
    }
    for (name, samples) in &rows {
        let summary = samples.summary();
        outcome.lines.push(format!(
            "row {name:<24} latency_p50_ms {:.4} (n={})",
            summary.p50, summary.count
        ));
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
    let mut facts = TransferFacts::default();
    let (mut traced_ns, mut untraced_ns, mut ops) = (0, 0, 0);

    // Traced and untraced rounds over the same order, alternating which
    // goes first.
    let phase = Instant::now();
    let mut traced_first = false;
    while phase.elapsed() < opts.budget().mul_f64(0.6) {
        let order = state.next_order();
        traced_first = !traced_first;
        for traced in [traced_first, !traced_first] {
            let mut wall = 0;
            let outcomes = {
                let _subscription = traced.then(|| collector.subscribe());
                let counted = traced.then_some(&mut counters);
                round(&state.expected, &order, counted, |_, ns, ok| {
                    outcome.count(ok);
                    wall += ns;
                })
            };
            if traced {
                traced_ns += wall;
                ops += order.len() as u64;
                outcomes.iter().flatten().for_each(|o| facts.add(o));
            } else {
                untraced_ns += wall;
            }
        }
    }
    let spans = SpanStats::of(&collector.take());

    // The layer replay, cold like the op.
    let mut replays = ReplayFacts::default();
    let phase = Instant::now();
    while phase.elapsed() < opts.budget().mul_f64(0.3) {
        let order = state.next_order();
        let _subscription = collector.subscribe();
        for scenario in &order {
            reset_solver_memo();
            replays.replay_checked(&state.expected, scenario, &mut outcome);
        }
    }
    let replay_spans = SpanStats::of(&collector.take());

    let mut ledger = Ledger::default();
    facts.fill(&mut ledger, &spans, ops);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::faults::{self, FaultPoint};

    #[test]
    fn an_injected_panic_fails_one_op_and_the_round_goes_on() {
        let expected = Expected::load();
        let scenarios = cp_corpus::scenarios();
        let _armed = faults::arm(FaultPoint::ScenarioPanic, "palette-oob-read");
        let mut outcome = Outcome::default();
        let mut failed = Vec::new();
        let outcomes = round(&expected, &scenarios, None, |scenario, _, ok| {
            outcome.count(ok);
            if !ok {
                failed.push(scenario.name);
            }
        });
        assert_eq!(outcomes.len(), 5);
        assert_eq!(outcome.attempted, 5);
        assert_eq!(outcome.failed, 1);
        assert_eq!(failed, ["palette-oob-read"]);
        assert!(outcomes[2].is_none(), "the panicking op yields no outcome");
    }

    #[test]
    fn a_clean_round_fails_nothing() {
        let expected = Expected::load();
        let mut outcome = Outcome::default();
        round(&expected, &cp_corpus::scenarios(), None, |_, _, ok| {
            outcome.count(ok)
        });
        assert_eq!((outcome.attempted, outcome.failed), (5, 0));
    }
}

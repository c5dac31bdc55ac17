//! Ledger pieces the two pipeline workloads (`fig8-cold`, `sweep-warm`)
//! derive the same way.

use super::{elapsed_ns, Outcome};
use crate::expected::Expected;
use crate::ledger::{Ledger, SpanStats};
use crate::replay::{replay, Replayed};
use crate::stats::Ratio;
use cp_core::{ArenaEpoch, Budgets, VmRunConfig};
use cp_corpus::pipeline::ScenarioOutcome;
use cp_corpus::Scenario;
use cp_obs::span;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Transfer facts read from the traced ops' outcomes.
#[derive(Default)]
pub struct TransferFacts {
    attempts: Vec<usize>,
    discoveries: Vec<(usize, usize)>,
}

impl TransferFacts {
    /// Notes one traced op's outcome.
    pub fn add(&mut self, outcome: &ScenarioOutcome) {
        if let Ok(transfer) = &outcome.result {
            self.attempts.push(transfer.attempts);
        }
        if let Some(found) = &outcome.discovery {
            self.discoveries
                .push((found.executions, found.solver_queries));
        }
    }

    /// Fills the transfer-level metrics of `ops` traced ops.
    pub fn fill(&self, ledger: &mut Ledger, spans: &SpanStats, ops: u64) {
        // Every validate span counts, including those spent on donor
        // checks that transferred nothing before the accepted one.
        let transfers = self.attempts.len() as f64;
        let first_try = self.attempts.iter().filter(|&&a| a == 1).count();
        ledger.set(
            "patch.attempts_per_transfer",
            Ratio::of(
                spans.count("validate") as f64,
                transfers,
                "accepted transfers",
            )
            .value(),
        );
        ledger.ratio(
            "patch.first_try_ratio",
            Ratio::of(first_try as f64, transfers, "accepted transfers"),
        );
        let calls = self.discoveries.len().max(1) as f64;
        let executions: usize = self.discoveries.iter().map(|d| d.0).sum();
        let queries: usize = self.discoveries.iter().map(|d| d.1).sum();
        ledger.set("diode.executions", executions as f64 / calls);
        ledger.set("diode.solver_queries", queries as f64 / calls);

        // run_scenario parses and compiles the recipient and the donor;
        // each validation attempt re-parses and recompiles, and the
        // unpatched baseline compiles once more per transfer.
        let validations = spans.count("validate") as f64 / ops.max(1) as f64;
        let baselines = spans.count("plan") as f64 / ops.max(1) as f64;
        ledger.set("lang.frontend_calls_per_op", 2.0 + validations);
        ledger.set("compile.calls_per_op", 2.0 + baselines + validations);
        ledger.ratio(
            "corpus.unattributed_share",
            spans.uncovered("scenario", "scenario wall"),
        );
    }
}

/// Aggregates of the replays.
#[derive(Default)]
pub struct ReplayFacts {
    instructions: Vec<usize>,
    record_ns: u64,
    run_ns: u64,
}

impl ReplayFacts {
    /// Notes a replay's compiles, then times a recording of the recipient
    /// on the error input against a plain run of it, each in a fresh arena
    /// epoch so neither reuses the other's interned expressions.
    fn add(&mut self, replayed: &mut Replayed) -> bool {
        self.instructions.extend(&replayed.instructions);
        let config = VmRunConfig {
            max_steps: Budgets::default().vm_steps,
            ..VmRunConfig::default()
        };
        let started = Instant::now();
        let recorded = {
            let _epoch = ArenaEpoch::begin();
            let trace = replayed.recipient.record_guarded(&replayed.error_input);
            trace.map(|t| t.termination)
        };
        self.record_ns += elapsed_ns(started);
        let started = Instant::now();
        let ran = {
            let _epoch = ArenaEpoch::begin();
            let _span = span!("vm.run");
            cp_vm::run(replayed.recipient.program(), &replayed.error_input, &config)
        };
        self.run_ns += elapsed_ns(started);
        recorded.is_ok_and(|termination| termination == ran.termination)
    }

    /// Fills the replay-derived metrics not read from spans.
    pub fn fill(&self, ledger: &mut Ledger) {
        let programs = self.instructions.len().max(1) as f64;
        ledger.set(
            "compile.instructions",
            self.instructions.iter().sum::<usize>() as f64 / programs,
        );
        ledger.ratio(
            "taint.overhead_ratio",
            Ratio::of(
                self.record_ns as f64,
                self.run_ns as f64,
                "plain vm::run of the recipient on the error input",
            ),
        );
    }

    /// Replays `scenario` in its own arena epoch and checks the guard it
    /// transfers against `expected`.
    pub fn replay_checked(
        &mut self,
        expected: &Expected,
        scenario: &Scenario,
        outcome: &mut Outcome,
    ) {
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            let _epoch = ArenaEpoch::begin();
            replay(scenario)
        }));
        let ok = match replayed {
            Ok(Ok(mut replayed)) => {
                self.add(&mut replayed) && expected.matches_guard(scenario.name, &replayed.guard)
            }
            _ => false,
        };
        outcome.count(ok);
    }
}

//! The expected Figure 8 outcome of every scenario, from `expected.txt`.
//!
//! The benchmark checks the program against this file rather than against
//! anything the program computes about itself: a scenario is correct only
//! when its status, patch action and guard text match the row by name.

use cp_corpus::pipeline::ScenarioOutcome;
use cp_lang::PatchAction;
use std::collections::HashMap;

const EXPECTED: &str = include_str!("../expected.txt");

/// One expected row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `ok`, `degraded` or `failed`.
    pub status: String,
    /// `exit` or `return0`.
    pub action: String,
    /// The accepted patch's guard expression.
    pub guard: String,
}

/// Expected rows keyed by scenario or variant name.
pub struct Expected {
    rows: HashMap<String, Row>,
}

impl Expected {
    /// Parses the checked-in expectations.
    pub fn load() -> Expected {
        let rows = EXPECTED
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| {
                let fields: Vec<&str> = line.split('\t').collect();
                assert_eq!(fields.len(), 4, "malformed expected row: {line:?}");
                let row = Row {
                    status: fields[1].to_owned(),
                    action: fields[2].to_owned(),
                    guard: fields[3].to_owned(),
                };
                (fields[0].to_owned(), row)
            })
            .collect();
        Expected { rows }
    }

    /// Whether `outcome` matches its expected row.  Sweep rows are named
    /// `<variant>#<index>` and match the variant's row.
    pub fn matches(&self, outcome: &ScenarioOutcome) -> bool {
        let name = outcome.scenario.name;
        let key = name.split('#').next().unwrap_or(name);
        let Some(row) = self.rows.get(key) else {
            return false;
        };
        let Ok(transfer) = &outcome.result else {
            return false;
        };
        let action = match transfer.patch.action {
            PatchAction::Exit(_) => "exit",
            PatchAction::ReturnZero => "return0",
        };
        outcome.status.label() == row.status
            && action == row.action
            && transfer.guard() == row.guard
    }

    /// Whether a replayed transfer of `name` matches its expected row.
    pub fn matches_guard(&self, name: &str, guard: &str) -> bool {
        let key = name.split('#').next().unwrap_or(name);
        self.rows.get(key).is_some_and(|row| row.guard == guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_and_variant_has_a_row() {
        let expected = Expected::load();
        assert_eq!(expected.rows.len(), 25);
        for scenario in cp_corpus::scenarios()
            .iter()
            .chain(&cp_corpus::synthetic::synthetic_scenarios(20))
        {
            let key = scenario.name.split('#').next().unwrap_or(scenario.name);
            assert!(expected.rows.contains_key(key), "{key} has no row");
        }
    }
}

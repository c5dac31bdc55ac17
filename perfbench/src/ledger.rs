//! The per-layer ledger of a traced run.
//!
//! Three sources feed it: the stage spans the program emits (`scenario`,
//! `discover`, `record`, `profile`, `translate`, `plan`, `validate`), the
//! always-on registry counters read around the traced ops, and the layer
//! replay's own spans around each public call the benchmark makes
//! (`replay` and its children, see `replay.rs`).  Self time is a span's
//! duration minus the durations of its children.

use crate::stats::Ratio;
use cp_obs::metrics::{self, MetricValue};
use cp_obs::TraceData;
use std::collections::{BTreeMap, HashMap};

/// One per-layer metric: its name, unit and what it measures (with the
/// base of every ratio).
pub struct LayerDef {
    /// Metric name, `<layer>.<measure>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`: which way the metric improves.
    pub better: &'static str,
    /// What the value is.
    pub meaning: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, meaning: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: "lower",
        meaning,
    }
}

const fn higher(name: &'static str, unit: &'static str, meaning: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: "higher",
        meaning,
    }
}

/// Every per-layer metric, in report order.  Names ending in `_ratio` or
/// `_share` are ratios and must be filled through [`Ledger::ratio`].
pub const PER_LAYER: &[LayerDef] = &[
    lower(
        "lang.frontend_us",
        "us",
        "replayed cp_lang::frontend, per call",
    ),
    lower(
        "lang.frontend_calls_per_op",
        "calls/op",
        "frontend calls one op makes",
    ),
    lower(
        "compile.us",
        "us",
        "replayed compile_with_opts at the default level, per call",
    ),
    lower(
        "compile.calls_per_op",
        "calls/op",
        "bytecode compiles one op makes",
    ),
    lower(
        "compile.instructions",
        "instr",
        "emitted instructions per compiled program",
    ),
    lower(
        "vm.steps_per_op",
        "steps/op",
        "recorded VM steps (vm.steps) per op",
    ),
    lower(
        "vm.run_us",
        "us",
        "plain cp_vm::run on a recorded input, per run",
    ),
    lower(
        "taint.record_us",
        "us",
        "record span (taint recording + profile), per recording",
    ),
    lower(
        "taint.stmt_ends_per_op",
        "count/op",
        "taint.stmt_ends per op",
    ),
    lower(
        "taint.overhead_ratio",
        "ratio",
        "recording time / plain vm::run time, same program and input",
    ),
    lower(
        "arena.peak_nodes",
        "nodes",
        "process-wide peak of live expression-arena nodes",
    ),
    lower(
        "solver.translate_us",
        "us",
        "translate span, per translation",
    ),
    higher(
        "solver.memo_hit_ratio",
        "ratio",
        "verdict-memo hits / memo probes (hits + misses)",
    ),
    higher(
        "solver.memo_hits_per_op",
        "count/op",
        "solver.memo.hit per op",
    ),
    lower(
        "solver.memo_misses_per_op",
        "count/op",
        "solver.memo.miss per op",
    ),
    lower(
        "solver.equiv_us",
        "us",
        "EquivSession::equivalent, per query",
    ),
    higher(
        "solver.incremental_reuse_ratio",
        "ratio",
        "solver.incremental.reuse / solver.incremental.queries",
    ),
    lower(
        "solver.unknown_per_op",
        "count/op",
        "Unknown verdicts per op",
    ),
    lower(
        "diode.discover_us",
        "us",
        "discover span self time (search and solver, recordings excluded), per call",
    ),
    lower(
        "diode.executions",
        "count",
        "program executions per discover call",
    ),
    lower(
        "diode.solver_queries",
        "count",
        "satisfiability queries per discover call",
    ),
    lower("patch.plan_us", "us", "plan span, per transfer"),
    lower("patch.validate_us", "us", "validate span, per attempt"),
    lower(
        "patch.attempts_per_transfer",
        "count",
        "validate spans / accepted transfers",
    ),
    higher(
        "patch.first_try_ratio",
        "ratio",
        "transfers whose accepted check validated on its first plan / accepted transfers",
    ),
    lower(
        "patch.print_us",
        "us",
        "replayed Patch::apply + print_program, per attempt",
    ),
    lower(
        "patch.reparse_us",
        "us",
        "replayed frontend re-parse of the patched source, per attempt",
    ),
    lower(
        "patch.recompile_us",
        "us",
        "replayed cp_bytecode::compile of the patched program, per attempt",
    ),
    lower(
        "patch.rerun_us",
        "us",
        "replayed vm::run of the patched program on the error and benign inputs, per attempt",
    ),
    lower(
        "corpus.unattributed_share",
        "share",
        "scenario wall under no stage span / scenario wall",
    ),
    lower(
        "corpus.pool_idle_share",
        "share",
        "worker time outside scenario spans / (workers x timed wall)",
    ),
    lower(
        "obs.trace_overhead_ratio",
        "ratio",
        "traced wall / untraced wall, same ops",
    ),
    higher(
        "obs.span_coverage",
        "share",
        "op wall under a stage or replay span / op wall",
    ),
    lower(
        "budget.exhausted",
        "count",
        "budget.exhausted{stage} increments over the traced ops",
    ),
];

fn is_ratio(name: &str) -> bool {
    name.ends_with("_ratio") || name.ends_with("_share") || name.ends_with("coverage")
}

fn lookup(name: &str) -> &'static LayerDef {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// A filled per-layer metric.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A time or a count.
    Plain(f64),
    /// A ratio with its base.
    Ratio(Ratio),
}

impl Value {
    /// The number reported.
    pub fn number(&self) -> f64 {
        match self {
            Value::Plain(v) => *v,
            Value::Ratio(r) => r.value(),
        }
    }
}

/// Per-layer values of one traced run; unset metrics report zero.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, Value>,
}

impl Ledger {
    /// Sets a time or count.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let def = lookup(name);
        assert!(!is_ratio(def.name), "{name} is a ratio: give it a base");
        self.values.insert(def.name, Value::Plain(value));
    }

    /// Sets a ratio together with its base.
    pub fn ratio(&mut self, name: &'static str, ratio: Ratio) {
        let def = lookup(name);
        assert!(is_ratio(def.name), "{name} is not a ratio");
        assert!(!ratio.base.is_empty(), "{name} needs a stated base");
        self.values.insert(def.name, Value::Ratio(ratio));
    }

    /// Every per-layer metric in report order with its value.
    pub fn rows(&self) -> Vec<(&'static LayerDef, Value)> {
        PER_LAYER
            .iter()
            .map(|def| {
                let value = self
                    .values
                    .get(def.name)
                    .copied()
                    .unwrap_or(if is_ratio(def.name) {
                        Value::Ratio(Ratio::of(0.0, 0.0, "nothing measured"))
                    } else {
                        Value::Plain(0.0)
                    });
                (def, value)
            })
            .collect()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct NameStats {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Span counts and inclusive/self durations, by span name.
#[derive(Debug, Default)]
pub struct SpanStats {
    by_name: HashMap<&'static str, NameStats>,
}

impl SpanStats {
    /// Aggregates every span of `trace`.
    pub fn of(trace: &TraceData) -> SpanStats {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.duration_ns();
            }
        }
        let mut stats = SpanStats::default();
        for span in &trace.spans {
            let entry = stats.by_name.entry(span.name).or_default();
            let duration = span.duration_ns();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children.get(&span.id).copied().unwrap_or(0));
        }
        stats
    }

    /// Spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.count)
    }

    /// Summed duration of spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.total_ns)
    }

    /// Mean duration of spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e3 / s.count as f64)
    }

    /// Mean self time of spans named `name`, in microseconds.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e3 / s.count as f64)
    }

    /// Share of the wall of spans named `root` that no child span covers.
    pub fn uncovered(&self, root: &str, base: &'static str) -> Ratio {
        let stats = self.by_name.get(root).copied().unwrap_or_default();
        Ratio::of(stats.self_ns as f64, stats.total_ns as f64, base)
    }

    /// Share of the wall of spans named `root` that child spans cover.
    pub fn covered(&self, root: &str, base: &'static str) -> Ratio {
        let stats = self.by_name.get(root).copied().unwrap_or_default();
        Ratio::of(
            (stats.total_ns - stats.self_ns) as f64,
            stats.total_ns as f64,
            base,
        )
    }
}

/// The registry counters the ledger reads before and after traced ops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// `vm.steps`.
    pub vm_steps: u64,
    /// `taint.stmt_ends`.
    pub stmt_ends: u64,
    /// `solver.memo.hit`.
    pub memo_hits: u64,
    /// `solver.memo.miss`.
    pub memo_misses: u64,
    /// `solver.incremental.queries`.
    pub inc_queries: u64,
    /// `solver.incremental.reuse`.
    pub inc_reuse: u64,
    /// `solver.translate.unknown`.
    pub translate_unknown: u64,
    /// Sum of every `budget.exhausted{stage}`.
    pub budget_exhausted: u64,
}

fn counter(name: &str) -> u64 {
    match metrics::find(name) {
        Some(MetricValue::Counter(value)) => value,
        _ => 0,
    }
}

impl Counters {
    /// The counters' current totals.
    pub fn read() -> Counters {
        let budget_exhausted = metrics::snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("budget.exhausted"))
            .map(|(_, value)| match value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        Counters {
            vm_steps: counter("vm.steps"),
            stmt_ends: counter("taint.stmt_ends"),
            memo_hits: counter("solver.memo.hit"),
            memo_misses: counter("solver.memo.miss"),
            inc_queries: counter("solver.incremental.queries"),
            inc_reuse: counter("solver.incremental.reuse"),
            translate_unknown: counter("solver.translate.unknown"),
            budget_exhausted,
        }
    }

    /// Adds the increments since `before` into `self`.
    pub fn accumulate(&mut self, before: &Counters, after: &Counters) {
        self.vm_steps += after.vm_steps.saturating_sub(before.vm_steps);
        self.stmt_ends += after.stmt_ends.saturating_sub(before.stmt_ends);
        self.memo_hits += after.memo_hits.saturating_sub(before.memo_hits);
        self.memo_misses += after.memo_misses.saturating_sub(before.memo_misses);
        self.inc_queries += after.inc_queries.saturating_sub(before.inc_queries);
        self.inc_reuse += after.inc_reuse.saturating_sub(before.inc_reuse);
        self.translate_unknown += after
            .translate_unknown
            .saturating_sub(before.translate_unknown);
        self.budget_exhausted += after
            .budget_exhausted
            .saturating_sub(before.budget_exhausted);
    }
}

/// What every workload's traced run measures the same way.
pub struct Traced {
    /// Ops run with the collector subscribed.
    pub ops: u64,
    /// Program (and benchmark) spans of the traced ops.
    pub spans: SpanStats,
    /// Registry increments over the traced ops.
    pub counters: Counters,
    /// Wall of the traced ops, in nanoseconds.
    pub traced_ns: u64,
    /// Wall of the same ops run untraced, in nanoseconds.
    pub untraced_ns: u64,
}

impl Traced {
    /// Fills the metrics every workload derives the same way.
    pub fn fill(&self, ledger: &mut Ledger) {
        let ops = self.ops.max(1) as f64;
        let c = &self.counters;
        ledger.set("vm.steps_per_op", c.vm_steps as f64 / ops);
        ledger.set("taint.record_us", self.spans.mean_us("record"));
        ledger.set("taint.stmt_ends_per_op", c.stmt_ends as f64 / ops);
        ledger.set(
            "arena.peak_nodes",
            cp_symexpr::ExprArena::process_peak_nodes() as f64,
        );
        ledger.set("solver.translate_us", self.spans.mean_us("translate"));
        ledger.ratio(
            "solver.memo_hit_ratio",
            Ratio::of(
                c.memo_hits as f64,
                (c.memo_hits + c.memo_misses) as f64,
                "verdict-memo probes",
            ),
        );
        ledger.set("solver.memo_hits_per_op", c.memo_hits as f64 / ops);
        ledger.set("solver.memo_misses_per_op", c.memo_misses as f64 / ops);
        ledger.ratio(
            "solver.incremental_reuse_ratio",
            Ratio::of(
                c.inc_reuse as f64,
                c.inc_queries as f64,
                "incremental solver queries",
            ),
        );
        ledger.set("solver.unknown_per_op", c.translate_unknown as f64 / ops);
        ledger.set("diode.discover_us", self.spans.mean_self_us("discover"));
        ledger.set("patch.plan_us", self.spans.mean_us("plan"));
        ledger.set("patch.validate_us", self.spans.mean_us("validate"));
        ledger.ratio(
            "obs.trace_overhead_ratio",
            Ratio::of(
                self.traced_ns as f64,
                self.untraced_ns as f64,
                "untraced wall of the same ops",
            ),
        );
        ledger.set("budget.exhausted", c.budget_exhausted as f64);
    }
}

/// Fills the replay-derived metrics shared by the two pipeline workloads.
pub fn fill_replay(ledger: &mut Ledger, replay: &SpanStats) {
    ledger.set("lang.frontend_us", replay.mean_us("lang.frontend"));
    ledger.set("compile.us", replay.mean_us("compile"));
    ledger.set("vm.run_us", replay.mean_us("vm.run"));
    ledger.set("patch.print_us", replay.mean_us("patch.print"));
    ledger.set("patch.reparse_us", replay.mean_us("patch.reparse"));
    ledger.set("patch.recompile_us", replay.mean_us("patch.recompile"));
    ledger.set("patch.rerun_us", replay.mean_us("patch.rerun"));
    ledger.ratio(
        "obs.span_coverage",
        replay.covered("replay", "replayed scenario wall"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_states_its_base() {
        for def in PER_LAYER {
            if is_ratio(def.name) {
                assert!(def.meaning.contains('/'), "{} states no base", def.name);
            }
        }
    }

    #[test]
    fn a_ratio_cannot_be_set_without_a_base() {
        let mut ledger = Ledger::default();
        ledger.ratio(
            "patch.first_try_ratio",
            Ratio::of(1.0, 2.0, "accepted transfers"),
        );
        let rows = ledger.rows();
        let (_, value) = rows
            .iter()
            .find(|(def, _)| def.name == "patch.first_try_ratio")
            .expect("listed");
        assert!(
            matches!(value, Value::Ratio(r) if r.value() == 0.5 && r.base == "accepted transfers")
        );
        let plain = std::panic::catch_unwind(|| {
            Ledger::default().set("patch.first_try_ratio", 0.5);
        });
        assert!(
            plain.is_err(),
            "a ratio set as a plain number must be refused"
        );
        let baseless = std::panic::catch_unwind(|| {
            Ledger::default().ratio("patch.first_try_ratio", Ratio::of(1.0, 2.0, ""));
        });
        assert!(baseless.is_err(), "a ratio without a base must be refused");
    }

    #[test]
    fn the_benchmark_file_lists_every_per_layer_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        for def in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                def.name, def.unit, def.better
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let collector = cp_obs::Collector::new();
        {
            let _sub = collector.subscribe();
            let _root = cp_obs::span!("replay");
            {
                let _child = cp_obs::span!("compile");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = SpanStats::of(&collector.take());
        assert_eq!(stats.count("replay"), 1);
        let root = stats.mean_us("replay");
        let child = stats.mean_us("compile");
        assert!((stats.mean_self_us("replay") - (root - child)).abs() < 1e-6);
        let covered = stats.covered("replay", "root wall");
        let uncovered = stats.uncovered("replay", "root wall");
        assert!((covered.value() + uncovered.value() - 1.0).abs() < 1e-9);
        assert!(
            covered.value() > 0.2 && covered.value() < 0.8,
            "{covered:?}"
        );
    }
}

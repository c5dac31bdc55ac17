//! The four workloads.  Each is a closed loop generated in this process
//! from the run's seed; the program under test only sees the generated
//! inputs.  A workload runs either timed (end-to-end metrics, no
//! subscriber anywhere) or traced (per-layer ledger).

pub mod fig8_cold;
pub mod long_trace;
mod pipeline;
pub mod solver_queue;
pub mod sweep_warm;

use crate::ledger::Ledger;
use crate::stats::Samples;
use cp_solver::differential::Rng;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Worker threads of the sweep pool (the machine the benchmark was sized
/// on has two cores).
pub const WORKERS: usize = 2;

/// What one run is asked for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
}

impl Opts {
    /// The measured phase's length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Ops attempted and failed, plus human-readable report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops run and checked.
    pub attempted: u64,
    /// Ops that panicked, tripped a budget or produced a wrong output.
    pub failed: u64,
    /// Lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one checked op.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A timed run's raw measurements.
pub struct Timed {
    /// Op counts and report lines.
    pub outcome: Outcome,
    /// Per-op latency in milliseconds.
    pub latencies: Samples,
    /// Summed wall of the timed op blocks, in nanoseconds: the base of
    /// `throughput_per_s`.  Input generation and output checks are
    /// excluded.
    pub busy_ns: u64,
    /// Closed-loop workers that ran the ops.
    pub workers: usize,
}

/// A traced run's ledger.
pub struct Layered {
    /// Op counts and report lines.
    pub outcome: Outcome,
    /// Per-layer metrics.
    pub ledger: Ledger,
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last state and every
/// set-up's wall in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let started = Instant::now();
        state = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Nanoseconds since `started`.
pub fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

//! The Code Phage benchmark: transfer latency and throughput on four
//! workloads, and a traced per-layer ledger.
//!
//! ```text
//! perfbench --workload <fig8-cold|sweep-warm|long-trace|solver-queue>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no trace
//! subscriber anywhere in the process.  With `--trace 1` it runs the same
//! workload traced and untraced, replays the layers, and reports the
//! per-layer ledger instead.  Either way every op's output is checked
//! against an expectation the program under test does not compute; the
//! run exits non-zero when any op failed.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! The benchmark reads no environment variable and writes no file.

mod expected;
mod ledger;
mod replay;
mod stats;
mod workloads;

use ledger::Value;
use stats::median;
use std::process::ExitCode;
use workloads::{fig8_cold, long_trace, solver_queue, sweep_warm, Layered, Opts, Timed};

const USAGE: &str = "usage: perfbench --workload <fig8-cold|sweep-warm|long-trace|solver-queue> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["fig8-cold", "sweep-warm", "long-trace", "solver-queue"];

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    detail: String,
}

fn end_to_end(timed: &Timed, setups: &[f64]) -> Vec<Metric> {
    let summary = timed.latencies.summary();
    let n = summary.count;
    let tail = match summary.tail_pct {
        Some(p) => format!(
            "p{p} averaged over {} consecutive blocks of ~{} samples, n={n}",
            summary.tail_blocks,
            n / summary.tail_blocks
        ),
        None => format!("max, n={n}"),
    };
    let busy_s = timed.busy_ns as f64 / 1e9;
    vec![
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
            detail: format!("median of {} set-ups, first {:.4}", setups.len(), setups[0]),
        },
        Metric {
            name: "latency_p50_ms",
            value: summary.p50,
            unit: "ms",
            detail: format!(
                "mean of {} one-second windows' medians, n={n}",
                summary.windows
            ),
        },
        Metric {
            name: "latency_tail_ms",
            value: summary.tail,
            unit: "ms",
            detail: tail,
        },
        Metric {
            name: "throughput_per_s",
            value: n as f64 / busy_s.max(1e-9),
            unit: "ops/s",
            detail: format!("n={n} ops in {busy_s:.3} s at {} worker(s)", timed.workers),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            detail: "VmHWM, n=1".into(),
        },
    ]
}

fn per_layer(layered: &Layered) -> Vec<Metric> {
    layered
        .ledger
        .rows()
        .into_iter()
        .map(|(def, value)| Metric {
            name: def.name,
            value: value.number(),
            unit: def.unit,
            detail: match value {
                Value::Ratio(r) => format!(
                    "{} / {} {}; {}; {} is better",
                    r.numerator, r.denominator, r.base, def.meaning, def.better
                ),
                Value::Plain(_) => format!("{}; {} is better", def.meaning, def.better),
            },
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let (outcome, metrics) = if args.trace {
        let (layered, _) = match args.workload.as_str() {
            "fig8-cold" => fig8_cold::traced(opts),
            "sweep-warm" => sweep_warm::traced(opts),
            "long-trace" => long_trace::traced(opts),
            _ => solver_queue::traced(opts),
        };
        let metrics = per_layer(&layered);
        (layered.outcome, metrics)
    } else {
        let (timed, setups) = match args.workload.as_str() {
            "fig8-cold" => fig8_cold::timed(opts),
            "sweep-warm" => sweep_warm::timed(opts),
            "long-trace" => long_trace::timed(opts),
            _ => solver_queue::timed(opts),
        };
        let metrics = end_to_end(&timed, &setups);
        (timed.outcome, metrics)
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        opts.seed,
        opts.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &metrics {
        println!(
            "{:<32} {:>16.6} {:<8} ({})",
            m.name, m.value, m.unit, m.detail
        );
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_ratio {failed_ratio:.6} ratio ({} failed / {} attempted ops)",
        outcome.failed, outcome.attempted
    );
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

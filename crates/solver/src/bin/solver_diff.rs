//! Differential smoke runner: cross-checks the decision procedure against
//! the sampling refuter on seeded random expression pairs and exits non-zero
//! on any disagreement.  CI invokes this with a fixed seed; developers can
//! sweep seeds locally:
//!
//! ```text
//! cargo run --release -p cp-solver --bin solver-diff -- --pairs 10000 --seed 48879
//! ```
//!
//! `--incremental` routes every query through a shared incremental session
//! (`cp_solver::incremental::EquivSession`) instead of a single-query session
//! per pair, auditing verdicts produced against reused AIG/CNF/learned-clause
//! state.

use cp_solver::differential::{cross_check, cross_check_incremental};

fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("solver-diff: invalid value `{v}` for {flag}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_flag(&args, "--seed", 0xBEEF);
    let pairs = parse_flag(&args, "--pairs", 10_000);
    let incremental = args.iter().any(|a| a == "--incremental");

    let report = if incremental {
        cross_check_incremental(seed, pairs)
    } else {
        cross_check(seed, pairs)
    };
    let mode = if incremental {
        "incremental"
    } else {
        "oneshot"
    };
    println!("solver-diff seed={seed} mode={mode} {}", report.summary());
    if !report.is_clean() {
        for d in &report.disagreements {
            eprintln!("DISAGREEMENT: {d}");
        }
        std::process::exit(1);
    }
}

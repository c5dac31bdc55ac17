//! The layer replay: one scenario through the same public calls
//! `cp_corpus::pipeline::run_scenario` makes, in its order and on its
//! inputs, with a span around each call the program does not span itself
//! (the frontend and the compiles run inside `Session::builder().build()`
//! and inside validation, where no stage span reaches them).
//!
//! The replay is measurement, not the op: its spans name the layer behind
//! each share of scenario wall, and its validate breakdown replays the
//! parts of the accepted attempt (`Patch::apply` + `print_program`, the
//! re-parse, the recompile and the re-runs).

use cp_bytecode::{compile, compile_with_opts, CompileOpts, CompiledProgram};
use cp_core::{Budgets, DiscoverConfig, DiscoverOutcome, Session, TransferError, TransferSpec};
use cp_corpus::{ErrorClass, Scenario};
use cp_lang::frontend;
use cp_lang::pretty::print_program;
use cp_obs::span;

/// What one replay observed beyond its spans.
pub struct Replayed {
    /// The accepted guard.
    pub guard: String,
    /// Instructions of each program the replay compiled from source.
    pub instructions: Vec<usize>,
    /// The recipient's session.
    pub recipient: Session,
    /// The error input the replay used.
    pub error_input: Vec<u8>,
}

fn instructions(program: &CompiledProgram) -> usize {
    program.functions.iter().map(|f| f.code.len()).sum()
}

fn build(source: &str, strip: bool) -> Result<(cp_lang::AnalyzedProgram, Session, usize), String> {
    let analyzed = {
        let _span = span!("lang.frontend");
        frontend(source).map_err(|e| e.to_string())?
    };
    let program = {
        let _span = span!("compile");
        compile_with_opts(&analyzed, &CompileOpts::default()).map_err(|e| e.to_string())?
    };
    let emitted = instructions(&program);
    let program = if strip { program.strip() } else { program };
    let session = Session::builder()
        .program(program)
        .budgets(Budgets::default())
        .build()
        .map_err(|e| e.to_string())?;
    Ok((analyzed, session, emitted))
}

/// Replays `scenario`; the caller opens the arena epoch and subscribes
/// the collector.
pub fn replay(scenario: &Scenario) -> Result<Replayed, String> {
    let root = span!("replay", scenario = scenario.name);
    let format = scenario.format();
    let (analyzed, mut recipient, recipient_instr) = build(scenario.source, false)?;

    let error_input = if scenario.error_class == ErrorClass::OverflowIntoAllocation {
        let _span = span!("diode.discover");
        match recipient.discover(scenario.benign_input, &DiscoverConfig::default()) {
            DiscoverOutcome::Found(found) => found.input,
            DiscoverOutcome::NoTargetReachable(_) => return Err("discovery found nothing".into()),
        }
    } else {
        scenario.error_input.to_vec()
    };

    let (_, mut donor, donor_instr) = build(scenario.donor_source, true)?;
    let donor_trace = {
        let _span = span!("taint.record");
        donor
            .record_guarded(&error_input)
            .map_err(|e| e.to_string())?
    };
    let crash = {
        let _span = span!("taint.record");
        recipient
            .record_guarded(&error_input)
            .map_err(|e| e.to_string())?
    };

    let spec = recipient.configure_spec(
        TransferSpec::new(&error_input, scenario.benign_corpus).with_action(scenario.patch_action),
    );
    let folded: Vec<_> = {
        let _span = span!("core.checks");
        donor_trace
            .checks()
            .iter()
            .map(|check| format.fold(&check.condition()))
            .collect()
    };
    let mut accepted = None;
    for condition in &folded {
        let _span = span!("patch.transfer");
        match cp_patch::transfer(&analyzed, condition, &crash.observation(), &spec) {
            Ok(outcome) => {
                accepted = Some(outcome);
                break;
            }
            Err(TransferError::RecompileBudget { .. }) => break,
            Err(_) => {}
        }
    }
    drop(root);
    let accepted = accepted.ok_or("no check transferred")?;

    // Outside the replayed scenario: the accepted attempt's validation
    // parts.
    let source = {
        let _span = span!("patch.print");
        let patched = accepted
            .patch
            .apply(&analyzed.program)
            .map_err(|e| e.to_string())?;
        print_program(&patched)
    };
    let reparsed = {
        let _span = span!("patch.reparse");
        frontend(&source).map_err(|e| e.to_string())?
    };
    let patched = {
        let _span = span!("patch.recompile");
        compile(&reparsed).map_err(|e| e.to_string())?
    };
    {
        let _span = span!("patch.rerun");
        cp_vm::run(&patched, &error_input, &spec.config);
        for input in scenario.benign_corpus {
            cp_vm::run(&patched, input, &spec.config);
        }
    }

    Ok(Replayed {
        guard: accepted.guard().to_owned(),
        instructions: vec![recipient_instr, donor_instr],
        recipient,
        error_input,
    })
}

//! The solver's one escalation ladder.
//!
//! Every public entry point — [`Solver::equivalent`], [`Solver::solve`],
//! [`EquivSession::equivalent`](crate::incremental::EquivSession::equivalent)
//! and [`SatSession::solve`](crate::incremental::SatSession::solve) — asks
//! one question of a [`Query`]: is there an input on which its predicate
//! holds?  For an equivalence query the predicate is `a ≠ b`, so a model is
//! a refutation witness and `Unsat` is a proof; for a satisfiability query
//! it is `full ≠ 0`.  The ladder answers on the caller's
//! [`IncrementalSolver`], cheapest rung first:
//!
//! 1. **simplify** — equal handles, before or after [`simplify`], or a
//!    simplified constant decide outright;
//! 2. **verdict memo** — the process-wide memo ([`crate::memo`]) is probed
//!    by the simplified query's positional DAG key;
//! 3. **sampling** — [`SampleSolver`] hunts for a model (recorded in the
//!    memo when found);
//! 4. **bit-blast** — the incremental context decides the query under
//!    assumptions; a model is re-validated against the original
//!    expressions, and definitive verdicts are recorded in the memo;
//! 5. **exhaustive** — when the blaster abandons and every byte environment
//!    of the (at most seven-byte) support fits in
//!    [`Solver::exhaustive_budget`] evaluations, enumeration decides;
//! 6. otherwise **Unknown**.
//!
//! Entering rungs 3, 4 and 5 emits a [`cp_obs::Event::SolverEscalation`]
//! with stage `"sampling"`, `"incremental"` or `"exhaustive"`.

use cp_symexpr::rewrite::simplify;
use cp_symexpr::ExprRef;

use crate::incremental::{IncrementalSolver, IncrementalVerdict};
use crate::memo::{key_equiv, key_nonzero, QueryKey};
use crate::{eval_model, witness_disagrees, Equivalence, SampleSolver, Satisfiability, Solver};

/// One solver question: is there an input on which the predicate holds?
pub(crate) enum Query<'q> {
    /// `a ≠ b`, both values zero-extended to `u64`.
    Equiv(ExprRef, ExprRef),
    /// `full ≠ 0`.  `extras` are the goals the bit-blast rung assumes; with
    /// whatever the session asserted permanently they make up `full`.
    NonZero {
        full: ExprRef,
        extras: &'q [ExprRef],
    },
}

impl Query<'_> {
    /// The `query` field of this query's escalation events.
    fn kind(&self) -> &'static str {
        match self {
            Query::Equiv(..) => "equiv",
            Query::NonZero { .. } => "sat",
        }
    }

    /// The simplified query, or the verdict when simplification decides it.
    fn simplified(&self) -> Result<Self, Satisfiability> {
        match *self {
            Query::Equiv(a, b) => {
                if a == b {
                    return Err(Satisfiability::Unsat);
                }
                let (sa, sb) = (simplify(&a), simplify(&b));
                if sa == sb {
                    Err(Satisfiability::Unsat)
                } else {
                    Ok(Query::Equiv(sa, sb))
                }
            }
            Query::NonZero { full, extras } => {
                let sc = simplify(&full);
                match sc.as_const() {
                    Some(0) => Err(Satisfiability::Unsat),
                    Some(_) => Err(Satisfiability::Sat { model: Vec::new() }),
                    None => Ok(Query::NonZero { full: sc, extras }),
                }
            }
        }
    }

    fn key(&self) -> QueryKey {
        match self {
            Query::Equiv(a, b) => key_equiv(a, b),
            Query::NonZero { full, .. } => key_nonzero(full),
        }
    }

    /// Whether the predicate holds under `model` (absent offsets read zero).
    fn holds(&self, model: &[(usize, u8)]) -> bool {
        match self {
            Query::Equiv(a, b) => witness_disagrees(a, b, model),
            Query::NonZero { full, .. } => eval_model(full, model) != 0,
        }
    }

    /// Sampling's verdict: a model, `Unsat` for an input-independent
    /// equivalence the single evaluation proved, otherwise `Unknown`.
    fn sample(&self, sampler: &SampleSolver) -> Satisfiability {
        match self {
            Query::Equiv(a, b) => match sampler.equivalent(a, b) {
                Equivalence::Refuted { witness } => Satisfiability::Sat { model: witness },
                Equivalence::Proved => Satisfiability::Unsat,
                Equivalence::Unknown => Satisfiability::Unknown,
            },
            Query::NonZero { full, .. } => sampler
                .find_model(full)
                .map_or(Satisfiability::Unknown, |model| Satisfiability::Sat {
                    model,
                }),
        }
    }

    /// Decides the query on `inc`, decoding a model over `offsets`.
    fn blast(&self, inc: &mut IncrementalSolver, offsets: &[usize]) -> IncrementalVerdict {
        match self {
            Query::Equiv(a, b) => inc.query_equiv(a, b, offsets),
            Query::NonZero { extras, .. } => {
                let goals: Vec<ExprRef> = extras.iter().map(simplify).collect();
                inc.query_nonzero(&goals, offsets)
            }
        }
    }

    /// Enumerates every byte environment over `offsets` for a model, when
    /// that fits in `budget` evaluations.
    fn enumerate(&self, offsets: &[usize], budget: u64) -> Satisfiability {
        // k = 8 would need 2^64 evaluations (and 256^8 overflows u64), so
        // only supports of up to seven bytes are even considered.
        let k = offsets.len() as u32;
        if k >= 8 || 256u64.saturating_pow(k) > budget {
            return Satisfiability::Unknown;
        }
        let mut env: Vec<(usize, u8)> = offsets.iter().map(|&o| (o, 0)).collect();
        for assignment in 0..256u64.pow(k) {
            for (i, slot) in env.iter_mut().enumerate() {
                slot.1 = (assignment >> (8 * i)) as u8;
            }
            if self.holds(&env) {
                return Satisfiability::Sat { model: env };
            }
        }
        Satisfiability::Unsat
    }
}

fn escalate(query: &Query, stage: &'static str) {
    cp_obs::event!(SolverEscalation {
        query: query.kind().to_string(),
        stage: stage.to_string()
    });
}

/// Runs `query` up the ladder on `inc` under `solver`'s budgets.  A `Sat`
/// model always makes the original (unsimplified) predicate hold.
pub(crate) fn decide(query: Query, solver: &Solver, inc: &mut IncrementalSolver) -> Satisfiability {
    let simple = match query.simplified() {
        Ok(simple) => simple,
        Err(verdict) => return verdict,
    };
    let key = simple.key();
    // A memo hit or a sampled model the original predicate rejects falls
    // through to the next rung.
    match key.probe(&solver.limits) {
        Some(Satisfiability::Sat { model }) if query.holds(&model) => {
            return Satisfiability::Sat { model }
        }
        Some(Satisfiability::Unsat) => return Satisfiability::Unsat,
        _ => {}
    }

    escalate(&simple, "sampling");
    let sampled = simple.sample(&solver.sampler);
    match &sampled {
        Satisfiability::Sat { model } if query.holds(model) => {
            key.record(&sampled);
            return sampled;
        }
        Satisfiability::Unsat => return sampled,
        _ => {}
    }

    escalate(&simple, "incremental");
    let verdict = match simple.blast(inc, key.offsets()) {
        IncrementalVerdict::Sat(model) => Satisfiability::Sat { model },
        IncrementalVerdict::Unsat { .. } => Satisfiability::Unsat,
        IncrementalVerdict::Abandoned(_) => {
            escalate(&simple, "exhaustive");
            return simple.enumerate(key.offsets(), solver.exhaustive_budget);
        }
    };
    if let Some(model) = verdict.model() {
        // The circuit mirrors `eval` gate for gate, so a blasted model the
        // original expressions reject is a solver bug.
        let valid = query.holds(model);
        debug_assert!(valid, "blasted model fails re-validation: {model:?}");
        if !valid {
            return Satisfiability::Unknown;
        }
    }
    key.record(&verdict);
    verdict
}

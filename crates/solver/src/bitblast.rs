//! Word-level bit-blasting: symbolic expressions → AIG → CNF → CDCL.
//!
//! This is the refutation-complete half of the solver: an equivalence query
//! over two expressions becomes a *miter* — a single circuit asserting that
//! the two values differ in at least one bit.  If the miter is unsatisfiable
//! the expressions are equal on **every** input (a proof, not a sampling
//! verdict); if it is satisfiable the model decodes into a concrete witness
//! environment on which they disagree.
//!
//! The pipeline is deliberately dependency-free and sized for the ≤64-bit,
//! small-support expressions this corpus produces:
//!
//! * **AIG construction** ([`Blaster`]) — every expression node becomes a
//!   vector of and-inverter literals, least-significant bit first, with
//!   structural hashing.  Because `cp-symexpr` hash-conses expressions, two
//!   structurally similar operands share gates, and the common case of a
//!   simplifier-rewritten expression against its original collapses the miter
//!   to constant false before any SAT search happens.
//! * **Tseitin CNF** of every gate, encoded once as the graph grows.
//! * **CDCL** ([`Cdcl`]) — two-watched-literal unit propagation, first-UIP
//!   clause learning with non-chronological backjumping, VSIDS-style
//!   activities and phase saving, budgeted by a conflict limit so
//!   pathological miters (e.g. wide multiplier equivalences) abandon to
//!   `Unknown` instead of hanging.
//!
//! Division and remainder (all four signedness variants) are blasted with a
//! restoring-divider circuit — one trial subtraction per result bit —
//! mirroring `cp_symexpr::eval`'s semantics exactly (division by zero yields
//! all-ones, remainder by zero the dividend, `INT_MIN / -1` wraps).  Wide
//! divider miters can exceed the gate budget, in which case the solver's
//! ladder still falls back to exhaustive enumeration.
//!
//! The [`Cdcl`] core is *incremental*: clauses can be added between
//! `solve_under_assumptions` calls, which keep the learned-clause database
//! and VSIDS activities alive across queries and return an unsat core over
//! the assumption literals on failure.  [`crate::incremental`] owns the one
//! context that drives both halves.

use cp_symexpr::{BinOp, CastKind, ExprRef, SymExpr, UnOp};
use std::collections::HashMap;

/// An AIG literal: `var << 1 | negated`.  Literal 0 is constant false,
/// literal 1 constant true (variable 0 is reserved for the constant).
pub type Lit = u32;

/// Constant-false literal.
pub const LIT_FALSE: Lit = 0;
/// Constant-true literal.
pub const LIT_TRUE: Lit = 1;

#[inline]
fn negate(lit: Lit) -> Lit {
    lit ^ 1
}

#[inline]
fn var_of(lit: Lit) -> u32 {
    lit >> 1
}

/// Why a blasting attempt was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlastError {
    /// The circuit exceeded the gate budget.
    GateBudget,
}

/// Resource limits for one solver query.
#[derive(Debug, Clone, Copy)]
pub struct BlastLimits {
    /// Maximum number of AND gates in the miter.
    pub max_gates: usize,
    /// Maximum CDCL conflicts before giving up.
    pub max_conflicts: u64,
}

impl Default for BlastLimits {
    fn default() -> Self {
        BlastLimits {
            max_gates: 100_000,
            max_conflicts: 20_000,
        }
    }
}

/// An and-inverter graph with structural hashing and constant folding.
///
/// Inputs and gates share one variable space: variable 0 is the reserved
/// constant, and every later variable is either an *input* (one bit of an
/// environment byte) or an AND gate over two earlier literals.  The two can
/// interleave — an incremental session grows both on demand across queries —
/// so the graph is node-indexed rather than split at a fixed input boundary.
struct Aig {
    /// Variable `v` (`v >= 1`) is `nodes[v - 1]`: `None` for an input
    /// variable, `Some((a, b))` for the AND of two earlier literals.
    nodes: Vec<Option<(Lit, Lit)>>,
    /// Count of gate (`Some`) nodes.
    gates: usize,
    /// Gate count snapshotted when the current query began: the budget below
    /// bounds `gates - gate_floor`, so a reused graph charges each query only
    /// for the gates *it* adds, never for state carried over (see
    /// `begin_query`).
    gate_floor: usize,
    strash: HashMap<(Lit, Lit), Lit>,
    max_gates: usize,
}

impl Aig {
    fn new(max_gates: usize) -> Self {
        Aig {
            nodes: Vec::new(),
            gates: 0,
            gate_floor: 0,
            strash: HashMap::new(),
            max_gates,
        }
    }

    fn n_vars(&self) -> usize {
        self.nodes.len() + 1
    }

    fn new_input(&mut self) -> u32 {
        self.nodes.push(None);
        self.nodes.len() as u32
    }

    /// Starts a fresh query: gates built from here on count against
    /// `max_gates`, while everything already in the graph is free to reuse.
    fn begin_query(&mut self) {
        self.gate_floor = self.gates;
    }

    fn and(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastError> {
        if a == LIT_FALSE || b == LIT_FALSE || a == negate(b) {
            return Ok(LIT_FALSE);
        }
        if a == LIT_TRUE || a == b {
            return Ok(b);
        }
        if b == LIT_TRUE {
            return Ok(a);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&lit) = self.strash.get(&key) {
            return Ok(lit);
        }
        if self.gates - self.gate_floor >= self.max_gates {
            return Err(BlastError::GateBudget);
        }
        self.nodes.push(Some(key));
        self.gates += 1;
        let lit = (self.nodes.len() as u32) << 1;
        self.strash.insert(key, lit);
        Ok(lit)
    }

    fn or(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastError> {
        Ok(negate(self.and(negate(a), negate(b))?))
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastError> {
        let l = self.and(a, negate(b))?;
        let r = self.and(negate(a), b)?;
        self.or(l, r)
    }

    /// `if s { t } else { e }`.
    fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Result<Lit, BlastError> {
        let then_branch = self.and(s, t)?;
        let else_branch = self.and(negate(s), e)?;
        self.or(then_branch, else_branch)
    }
}

fn const_bits(n: usize, value: u64) -> Vec<Lit> {
    (0..n)
        .map(|i| {
            if i < 64 && (value >> i) & 1 != 0 {
                LIT_TRUE
            } else {
                LIT_FALSE
            }
        })
        .collect()
}

/// Zero-extends or truncates a bit vector to `n` bits — the blasted analogue
/// of `Width::truncate` on a `u64` value.
fn resize_zero(bits: &[Lit], n: usize) -> Vec<Lit> {
    let mut out = Vec::with_capacity(n);
    out.extend(bits.iter().take(n).copied());
    out.resize(n, LIT_FALSE);
    out
}

fn invert(bits: &[Lit]) -> Vec<Lit> {
    bits.iter().map(|&b| negate(b)).collect()
}

/// Bit-blasts expressions into a shared AIG.
///
/// An incremental context ([`crate::incremental`]) keeps one alive across
/// its queries so structurally shared cones keep their gates (and the CDCL
/// built on top keeps its learned clauses).  `begin_query` resets the
/// per-query gate budget without discarding anything already built.
pub(crate) struct Blaster {
    aig: Aig,
    /// Input byte offset → first of its eight consecutive input variables.
    offset_var: HashMap<usize, u32>,
    /// Expression memo key → blasted bits at the expression's own width.
    memo: HashMap<usize, Vec<Lit>>,
}

impl Blaster {
    /// An empty graph; eight input variables per byte offset are added as
    /// expressions first mention it.
    pub(crate) fn new(max_gates: usize) -> Self {
        Blaster {
            aig: Aig::new(max_gates),
            offset_var: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// Starts a fresh query against the shared graph: everything already
    /// built stays reusable for free, and only gates added from here on
    /// count against the gate budget.
    pub(crate) fn begin_query(&mut self) {
        self.aig.begin_query();
    }

    /// First of the eight input variables for `offset`, allocating them on
    /// first use.
    fn input_base(&mut self, offset: usize) -> u32 {
        if let Some(&base) = self.offset_var.get(&offset) {
            return base;
        }
        let base = self.aig.new_input();
        for _ in 1..8 {
            self.aig.new_input();
        }
        self.offset_var.insert(offset, base);
        base
    }

    fn input_bits(&mut self, offset: usize) -> Vec<Lit> {
        let base = self.input_base(offset);
        (0..8).map(|i| (base + i) << 1).collect()
    }

    /// Root literal of the equivalence miter `a ≠ b` (both values
    /// zero-extended to a common width, exactly as the sampling comparison
    /// treats `eval` results).
    pub(crate) fn equiv_root(&mut self, a: &ExprRef, b: &ExprRef) -> Result<Lit, BlastError> {
        let va = self.blast(a)?;
        let vb = self.blast(b)?;
        let n = va.len().max(vb.len());
        let va = resize_zero(&va, n);
        let vb = resize_zero(&vb, n);
        let mut diff = LIT_FALSE;
        for (&x, &y) in va.iter().zip(&vb) {
            let bit = self.aig.xor(x, y)?;
            diff = self.aig.or(diff, bit)?;
        }
        Ok(diff)
    }

    /// Root literal asserting `expr ≠ 0`.
    pub(crate) fn nonzero_root(&mut self, expr: &ExprRef) -> Result<Lit, BlastError> {
        let bits = self.blast(expr)?;
        self.or_reduce(&bits)
    }

    /// Appends the Tseitin clauses of every gate not yet encoded into `sat`,
    /// growing its variable space first; `encoded` is the caller's cursor
    /// (first variable not yet encoded), advanced to the new frontier.
    ///
    /// This encodes the *whole* graph, not one query's cone: the clauses
    /// are definitional truths about the circuit, so clauses for gates
    /// outside a query's cone are sound, and the context keeps one growing
    /// CNF instead of re-walking cones.
    pub(crate) fn encode_new_gates(&self, sat: &mut Cdcl, encoded: &mut u32) {
        let n_vars = self.aig.n_vars() as u32;
        sat.ensure_vars(n_vars as usize);
        let start = (*encoded).max(1);
        for var in start..n_vars {
            let Some((a, b)) = self.aig.nodes[(var - 1) as usize] else {
                continue;
            };
            let g = var << 1;
            sat.add_clause(vec![negate(g), a]);
            sat.add_clause(vec![negate(g), b]);
            sat.add_clause(vec![g, negate(a), negate(b)]);
        }
        *encoded = n_vars;
    }

    /// Projects a CDCL model onto `offsets`.  Offsets the graph never
    /// mentioned (or whose variables the search left unassigned) decode as
    /// zero — a valid completion of any partial model.
    pub(crate) fn decode_model(&self, sat: &Cdcl, offsets: &[usize]) -> Vec<(usize, u8)> {
        offsets
            .iter()
            .map(|&off| {
                let byte = match self.offset_var.get(&off) {
                    Some(&base) => {
                        let mut byte = 0u8;
                        for i in 0..8u32 {
                            if sat.value(base + i) {
                                byte |= 1 << i;
                            }
                        }
                        byte
                    }
                    None => 0,
                };
                (off, byte)
            })
            .collect()
    }

    /// `a + b + cin`, returning the sum and the carry out.
    fn add(&mut self, a: &[Lit], b: &[Lit], cin: Lit) -> Result<(Vec<Lit>, Lit), BlastError> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.aig.xor(x, y)?;
            sum.push(self.aig.xor(xy, carry)?);
            let gen = self.aig.and(x, y)?;
            let prop = self.aig.and(xy, carry)?;
            carry = self.aig.or(gen, prop)?;
        }
        Ok((sum, carry))
    }

    fn mul(&mut self, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        let n = a.len();
        let mut acc = vec![LIT_FALSE; n];
        for i in 0..n {
            if b[i] == LIT_FALSE {
                continue;
            }
            let mut pp = vec![LIT_FALSE; n];
            for j in 0..n - i {
                pp[i + j] = self.aig.and(a[j], b[i])?;
            }
            acc = self.add(&acc, &pp, LIT_FALSE)?.0;
        }
        Ok(acc)
    }

    fn or_reduce(&mut self, bits: &[Lit]) -> Result<Lit, BlastError> {
        let mut acc = LIT_FALSE;
        for &b in bits {
            acc = self.aig.or(acc, b)?;
        }
        Ok(acc)
    }

    /// Per-bit `if s { t } else { e }` over two equal-width vectors.
    fn mux_vec(&mut self, s: Lit, t: &[Lit], e: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        debug_assert_eq!(t.len(), e.len());
        t.iter()
            .zip(e)
            .map(|(&x, &y)| self.aig.mux(s, x, y))
            .collect()
    }

    /// Two's-complement negation.
    fn neg(&mut self, a: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        let inverted = invert(a);
        let zero = vec![LIT_FALSE; a.len()];
        Ok(self.add(&inverted, &zero, LIT_TRUE)?.0)
    }

    /// Restoring divider: unsigned quotient and remainder, MSB first, one
    /// trial subtraction per bit over an `n + 1`-bit remainder register (the
    /// extra bit keeps the shift-in from overflowing).  The subtraction's
    /// carry-out means "no borrow" and doubles as the quotient bit and the
    /// keep/restore select.
    ///
    /// Division by zero needs no special casing: every trial subtraction
    /// against zero succeeds, so the quotient comes out all-ones and the
    /// remainder register re-accumulates the dividend — exactly
    /// `cp_symexpr::eval`'s `x / 0 = MAX`, `x % 0 = x` semantics.
    fn udivrem(&mut self, a: &[Lit], b: &[Lit]) -> Result<(Vec<Lit>, Vec<Lit>), BlastError> {
        let n = a.len();
        debug_assert_eq!(b.len(), n);
        let mut b_ext = b.to_vec();
        b_ext.push(LIT_FALSE);
        let not_b = invert(&b_ext);
        let mut r = vec![LIT_FALSE; n + 1];
        let mut q = vec![LIT_FALSE; n];
        for i in (0..n).rev() {
            // r' = (r << 1) | a[i]; r < 2^n here, so bit n of r is always
            // zero and dropping it cannot lose information.
            let mut shifted = Vec::with_capacity(n + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&r[..n]);
            let (diff, no_borrow) = self.add(&shifted, &not_b, LIT_TRUE)?;
            q[i] = no_borrow;
            r = self.mux_vec(no_borrow, &diff, &shifted)?;
        }
        r.truncate(n);
        Ok((q, r))
    }

    /// All four division/remainder variants on top of the restoring divider,
    /// mirroring `cp_symexpr::eval_binop` bit for bit: signed variants
    /// divide magnitudes and re-sign (quotient by `sign(a) ^ sign(b)`,
    /// remainder by the dividend's sign, so `INT_MIN / -1` wraps back to
    /// `INT_MIN` and `INT_MIN % -1` is zero), and signed division by zero is
    /// muxed to all-ones (the unsigned variants and signed remainder get
    /// their zero-divisor semantics from the divider structurally).
    fn divrem(&mut self, op: BinOp, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        match op {
            BinOp::DivU => Ok(self.udivrem(a, b)?.0),
            BinOp::RemU => Ok(self.udivrem(a, b)?.1),
            BinOp::DivS | BinOp::RemS => {
                let n = a.len();
                let (sa, sb) = (a[n - 1], b[n - 1]);
                let neg_a = self.neg(a)?;
                let abs_a = self.mux_vec(sa, &neg_a, a)?;
                let neg_b = self.neg(b)?;
                let abs_b = self.mux_vec(sb, &neg_b, b)?;
                let (q, r) = self.udivrem(&abs_a, &abs_b)?;
                if matches!(op, BinOp::RemS) {
                    let neg_r = self.neg(&r)?;
                    return self.mux_vec(sa, &neg_r, &r);
                }
                let neg_q = self.neg(&q)?;
                let sign_diff = self.aig.xor(sa, sb)?;
                let signed_q = self.mux_vec(sign_diff, &neg_q, &q)?;
                let b_zero = negate(self.or_reduce(b)?);
                let ones = vec![LIT_TRUE; n];
                self.mux_vec(b_zero, &ones, &signed_q)
            }
            _ => unreachable!("divrem called on a non-division operator"),
        }
    }

    /// Unsigned `a < b`: no carry out of `a + ¬b + 1`.
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Result<Lit, BlastError> {
        let nb = invert(b);
        let (_, carry) = self.add(a, &nb, LIT_TRUE)?;
        Ok(negate(carry))
    }

    /// Signed `a < b`: on differing signs the negative side is smaller,
    /// otherwise the unsigned comparison decides.
    fn slt(&mut self, a: &[Lit], b: &[Lit]) -> Result<Lit, BlastError> {
        let (sa, sb) = (a[a.len() - 1], b[b.len() - 1]);
        let unsigned = self.ult(a, b)?;
        let diff_sign = self.aig.xor(sa, sb)?;
        self.aig.mux(diff_sign, sa, unsigned)
    }

    fn equal(&mut self, a: &[Lit], b: &[Lit]) -> Result<Lit, BlastError> {
        let mut acc = LIT_TRUE;
        for (&x, &y) in a.iter().zip(b) {
            let same = negate(self.aig.xor(x, y)?);
            acc = self.aig.and(acc, same)?;
        }
        Ok(acc)
    }

    /// Barrel shifter matching `eval`'s semantics: shift amounts at or above
    /// the operand width produce zero (`Shl`/`ShrU`) or the replicated sign
    /// (`ShrS`).  Constant shift amounts fold to wires for free through the
    /// AIG's constant propagation.
    fn shift(&mut self, op: BinOp, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        let n = a.len();
        let stages = n.trailing_zeros() as usize;
        let fill = match op {
            BinOp::ShrS => a[n - 1],
            _ => LIT_FALSE,
        };
        let mut cur = a.to_vec();
        for (s, &sel) in b.iter().enumerate().take(stages) {
            let k = 1usize << s;
            let mut next = Vec::with_capacity(n);
            for i in 0..n {
                let shifted = match op {
                    BinOp::Shl => {
                        if i >= k {
                            cur[i - k]
                        } else {
                            LIT_FALSE
                        }
                    }
                    _ => {
                        if i + k < n {
                            cur[i + k]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.aig.mux(sel, shifted, cur[i])?);
            }
            cur = next;
        }
        let oob = self.or_reduce(&b[stages..])?;
        for bit in cur.iter_mut() {
            *bit = self.aig.mux(oob, fill, *bit)?;
        }
        Ok(cur)
    }

    /// Blasts `root` (iterative post-order, memoised per interned node).
    fn blast(&mut self, root: &ExprRef) -> Result<Vec<Lit>, BlastError> {
        let mut stack: Vec<(ExprRef, bool)> = vec![(*root, false)];
        while let Some((e, ready)) = stack.pop() {
            if self.memo.contains_key(&e.memo_key()) {
                continue;
            }
            if ready {
                let bits = self.blast_node(&e)?;
                self.memo.insert(e.memo_key(), bits);
                continue;
            }
            match e.as_ref() {
                SymExpr::Const { .. } | SymExpr::InputByte { .. } | SymExpr::Field { .. } => {
                    let bits = self.blast_node(&e)?;
                    self.memo.insert(e.memo_key(), bits);
                }
                SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => {
                    stack.push((e, true));
                    stack.push((*arg, false));
                }
                SymExpr::Binary { lhs, rhs, .. } => {
                    stack.push((e, true));
                    stack.push((*lhs, false));
                    stack.push((*rhs, false));
                }
            }
        }
        Ok(self.memo[&root.memo_key()].clone())
    }

    /// Blasts one node whose children are already memoised, mirroring the
    /// operand-width rules of `cp_symexpr::eval` exactly.
    fn blast_node(&mut self, e: &ExprRef) -> Result<Vec<Lit>, BlastError> {
        let node_bits = e.width().bits() as usize;
        match e.as_ref() {
            SymExpr::Const { width, value } => Ok(const_bits(node_bits, width.truncate(*value))),
            SymExpr::InputByte { offset } => Ok(self.input_bits(*offset)),
            SymExpr::Field { offsets, .. } => {
                // v = fold(v << 8 | byte) over offsets, then truncate.
                let mut v = vec![LIT_FALSE; 64];
                for &off in offsets {
                    let mut next = self.input_bits(off);
                    next.extend_from_slice(&v[..56]);
                    v = next;
                }
                Ok(resize_zero(&v, node_bits))
            }
            SymExpr::Unary { op, arg, .. } => {
                let arg_bits = self.memo[&arg.memo_key()].clone();
                match op {
                    UnOp::Neg => {
                        let a = invert(&resize_zero(&arg_bits, node_bits));
                        let zero = vec![LIT_FALSE; node_bits];
                        Ok(self.add(&a, &zero, LIT_TRUE)?.0)
                    }
                    // `!a` on the untruncated u64 sets every bit above the
                    // operand width; inverting the zero-extension models that.
                    UnOp::Not => Ok(invert(&resize_zero(&arg_bits, node_bits))),
                    UnOp::LogicalNot => {
                        let any = self.or_reduce(&arg_bits)?;
                        let mut out = vec![LIT_FALSE; node_bits];
                        out[0] = negate(any);
                        Ok(out)
                    }
                }
            }
            SymExpr::Cast { kind, width, arg } => {
                let arg_bits = self.memo[&arg.memo_key()].clone();
                match kind {
                    CastKind::ZeroExt | CastKind::Truncate => Ok(resize_zero(&arg_bits, node_bits)),
                    CastKind::SignExt => {
                        if width.bits() as usize <= arg_bits.len() {
                            Ok(resize_zero(&arg_bits, node_bits))
                        } else {
                            let sign = arg_bits[arg_bits.len() - 1];
                            let mut out = arg_bits;
                            out.resize(node_bits, sign);
                            Ok(out)
                        }
                    }
                }
            }
            SymExpr::Binary { op, lhs, rhs, .. } => {
                let ow = if op.is_comparison() {
                    lhs.width().bits() as usize
                } else {
                    node_bits
                };
                let a = resize_zero(&self.memo[&lhs.memo_key()].clone(), ow);
                let b = resize_zero(&self.memo[&rhs.memo_key()].clone(), ow);
                let result = match op {
                    BinOp::Add => self.add(&a, &b, LIT_FALSE)?.0,
                    BinOp::Sub => {
                        let nb = invert(&b);
                        self.add(&a, &nb, LIT_TRUE)?.0
                    }
                    BinOp::Mul => self.mul(&a, &b)?,
                    BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS => {
                        self.divrem(*op, &a, &b)?
                    }
                    BinOp::And => {
                        let mut out = Vec::with_capacity(ow);
                        for (&x, &y) in a.iter().zip(&b) {
                            out.push(self.aig.and(x, y)?);
                        }
                        out
                    }
                    BinOp::Or => {
                        let mut out = Vec::with_capacity(ow);
                        for (&x, &y) in a.iter().zip(&b) {
                            out.push(self.aig.or(x, y)?);
                        }
                        out
                    }
                    BinOp::Xor => {
                        let mut out = Vec::with_capacity(ow);
                        for (&x, &y) in a.iter().zip(&b) {
                            out.push(self.aig.xor(x, y)?);
                        }
                        out
                    }
                    BinOp::Shl | BinOp::ShrU | BinOp::ShrS => self.shift(*op, &a, &b)?,
                    BinOp::Eq => vec![self.equal(&a, &b)?],
                    BinOp::Ne => vec![negate(self.equal(&a, &b)?)],
                    BinOp::LtU => vec![self.ult(&a, &b)?],
                    BinOp::LeU => vec![negate(self.ult(&b, &a)?)],
                    BinOp::LtS => vec![self.slt(&a, &b)?],
                    BinOp::LeS => vec![negate(self.slt(&b, &a)?)],
                };
                Ok(resize_zero(&result, node_bits))
            }
        }
    }
}

/// One clause with its learning metadata.
struct Clause {
    /// The literals; slots 0 and 1 are the watched pair.
    lits: Vec<Lit>,
    /// Whether the clause was learned (only learned clauses are deletable).
    learnt: bool,
    /// Bump-on-use activity driving clause-database reduction.
    activity: f64,
    /// Literal-block distance (number of distinct decision levels) at the
    /// time of learning; `lbd <= 2` marks a *glue* clause that reduction
    /// always keeps.
    lbd: u32,
    /// Tombstone set by [`Cdcl::reduce_db`]; watch lists drop deleted
    /// entries lazily during propagation.
    deleted: bool,
}

/// How one `solve_under_assumptions` call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SolveResult {
    /// Satisfiable under the assumptions; the model is readable via
    /// [`Cdcl::value`] until the next call mutates the solver.
    Sat,
    /// Unsatisfiable under the assumptions.  `core` is the subset of the
    /// assumption literals the final conflict actually used (empty when the
    /// clause database is unsatisfiable on its own) — retracting any
    /// superset of the core is guaranteed to change nothing.
    Unsat { core: Vec<Lit> },
    /// The conflict budget ran out before a verdict.
    Budget,
}

/// A small conflict-driven clause-learning (CDCL) SAT solver: two watched
/// literals, first-UIP conflict analysis with non-chronological backjumping,
/// VSIDS-style variable activities, phase saving, activity-based clause
/// database reduction (glue clauses are exempt) and Luby restarts.  Clause
/// learning is what makes adder/shifter equivalence miters tractable — a
/// plain DPLL re-derives the same carry-chain conflicts exponentially often
/// — and reduction plus restarts are what keep the learned database and the
/// search from degrading on miters in the 100k-gate range.
///
/// The solver is *incremental*: [`Cdcl::add_clause`] and [`Cdcl::ensure_vars`]
/// grow the problem between [`Cdcl::solve_under_assumptions`] calls, and
/// everything learned — clauses, activities, saved phases — survives into
/// the next call.  Assumptions are enqueued as pseudo-decisions on the first
/// decision levels, so retracting a query is simply not assuming its literal
/// again; nothing learned depends on an assumption being true (learned
/// clauses are implied by the clause database alone).
pub(crate) struct Cdcl {
    /// Problem clauses followed by learned clauses.
    clauses: Vec<Clause>,
    /// Literal → indices of clauses watching it.
    watches: Vec<Vec<u32>>,
    /// Variable assignment: -1 unassigned, 0 false, 1 true.
    assign: Vec<i8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`None` for decisions and level-0
    /// units).
    reason: Vec<Option<u32>>,
    /// Assigned literals in assignment order.
    trail: Vec<Lit>,
    /// Trail length at each decision.
    trail_lim: Vec<usize>,
    prop_head: usize,
    /// VSIDS activity per variable, with the current bump increment.
    activity: Vec<f64>,
    var_inc: f64,
    /// Max-activity heap of candidate decision variables (entries may be
    /// stale; staleness is checked on pop).
    heap: std::collections::BinaryHeap<(ActKey, u32)>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Scratch marker per variable for conflict analysis (cleared via
    /// `marked` after every analysis, never reallocated).
    seen: Vec<bool>,
    /// Clause-activity bump increment (decayed like `var_inc`).
    cla_inc: f64,
    /// Live learned clauses (attached, not deleted).
    num_learnts: usize,
    /// Learned-clause count that triggers the next database reduction;
    /// grows geometrically after each reduction.
    max_learnts: usize,
    /// Completed restarts (also the index into the Luby sequence).
    restarts: u64,
    /// Database reductions performed.
    reduces: u64,
    unsat: bool,
}

/// The `i`-th term of the Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …),
/// 1-indexed, as a power of two to multiply the base restart interval by.
fn luby(mut i: u64) -> u64 {
    // Find the smallest complete subsequence (length 2^k - 1) containing i,
    // then recurse into it; the last element of a subsequence is 2^(k-1).
    loop {
        let mut size = 1u64;
        while size.saturating_mul(2) < i {
            size = size * 2 + 1;
        }
        if i == size {
            return size.div_ceil(2);
        }
        i -= size;
    }
}

/// `f64` activity as a totally ordered heap key.
#[derive(PartialEq)]
struct ActKey(f64);

impl Eq for ActKey {}

impl PartialOrd for ActKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ActKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Cdcl {
    /// An empty problem over the reserved constant variable alone; it grows
    /// through [`Cdcl::ensure_vars`] and [`Cdcl::add_clause`].
    pub(crate) fn new() -> Self {
        Cdcl {
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2],
            // Variable 0 is the constant-false reserved variable.
            assign: vec![0],
            level: vec![0],
            reason: vec![None],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0],
            var_inc: 1.0,
            heap: std::collections::BinaryHeap::new(),
            phase: vec![false],
            seen: vec![false],
            cla_inc: 1.0,
            num_learnts: 0,
            // The first reduction threshold, grown geometrically after
            // every reduction.
            max_learnts: 512,
            restarts: 0,
            reduces: 0,
            unsat: false,
        }
    }

    /// Grows the variable space to `n_vars` (no-op when already that large).
    /// New variables start unassigned with zero activity.
    pub(crate) fn ensure_vars(&mut self, n_vars: usize) {
        if n_vars <= self.assign.len() {
            return;
        }
        self.watches.resize(2 * n_vars, Vec::new());
        self.assign.resize(n_vars, -1);
        self.level.resize(n_vars, 0);
        self.reason.resize(n_vars, None);
        self.activity.resize(n_vars, 0.0);
        self.phase.resize(n_vars, false);
        self.seen.resize(n_vars, false);
    }

    /// Adds a permanent clause between solve calls, backtracking to the root
    /// level first (assignments from a previous query's assumptions must not
    /// leak into the clause's unit test).  Multi-literal clauses bump their
    /// variables' activities and phases so the new variables become
    /// decidable.
    pub(crate) fn add_clause(&mut self, clause: Vec<Lit>) {
        self.backtrack(0);
        match clause.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(clause[0], None) {
                    self.unsat = true;
                }
            }
            _ => {
                for &lit in &clause {
                    let v = var_of(lit) as usize;
                    self.activity[v] += 1.0;
                    self.phase[v] = lit & 1 != 0;
                    self.heap.push((ActKey(self.activity[v]), var_of(lit)));
                }
                self.attach(clause, false);
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0] as usize].push(idx);
        self.watches[lits[1] as usize].push(idx);
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: if learnt { self.cla_inc } else { 0.0 },
            lbd: 0,
            deleted: false,
        });
        idx
    }

    /// Bumps a clause's activity (rescaling all activities on overflow).
    fn bump_clause(&mut self, ci: u32) {
        let clause = &mut self.clauses[ci as usize];
        clause.activity += self.cla_inc;
        if clause.activity > 1e20 {
            for c in self.clauses.iter_mut() {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    pub(crate) fn value(&self, var: u32) -> bool {
        self.assign[var as usize] == 1
    }

    fn lit_val(assign: &[i8], lit: Lit) -> i8 {
        match assign[var_of(lit) as usize] {
            -1 => -1,
            v => {
                if lit & 1 == 0 {
                    v
                } else {
                    1 - v
                }
            }
        }
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn bump(&mut self, var: u32) {
        let act = &mut self.activity[var as usize];
        *act += self.var_inc;
        if *act > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.push((ActKey(self.activity[var as usize]), var));
    }

    /// Makes `lit` true; false if it is already false (conflict).
    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) -> bool {
        match Self::lit_val(&self.assign, lit) {
            0 => false,
            1 => true,
            _ => {
                let v = var_of(lit) as usize;
                self.assign[v] = i8::from(lit & 1 == 0);
                self.level[v] = self.current_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let falsified = negate(self.trail[self.prop_head]);
            self.prop_head += 1;
            let mut watchers = std::mem::take(&mut self.watches[falsified as usize]);
            let mut keep = 0;
            let mut conflict = None;
            'watchers: for w in 0..watchers.len() {
                let ci = watchers[w];
                let other = {
                    let clause = &mut self.clauses[ci as usize];
                    if clause.deleted {
                        // Reduced away; drop the stale watch entry.
                        continue;
                    }
                    // Normalise: the falsified literal sits at slot 1.
                    if clause.lits[0] == falsified {
                        clause.lits.swap(0, 1);
                    }
                    let other = clause.lits[0];
                    if Self::lit_val(&self.assign, other) == 1 {
                        watchers[keep] = ci;
                        keep += 1;
                        continue;
                    }
                    // Look for a non-false replacement watch.
                    let mut replaced = false;
                    for k in 2..clause.lits.len() {
                        if Self::lit_val(&self.assign, clause.lits[k]) != 0 {
                            clause.lits.swap(1, k);
                            let new_watch = clause.lits[1];
                            self.watches[new_watch as usize].push(ci);
                            replaced = true;
                            break;
                        }
                    }
                    if replaced {
                        continue 'watchers;
                    }
                    other
                };
                // Unit or conflicting.
                watchers[keep] = ci;
                keep += 1;
                if !self.enqueue(other, Some(ci)) {
                    for j in w + 1..watchers.len() {
                        watchers[keep] = watchers[j];
                        keep += 1;
                    }
                    conflict = Some(ci);
                    break;
                }
            }
            watchers.truncate(keep);
            debug_assert!(self.watches[falsified as usize].is_empty());
            self.watches[falsified as usize] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first), the level to backjump to, and the learned clause's
    /// literal-block distance.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32, u32) {
        let current = self.current_level();
        let mut learned: Vec<Lit> = vec![LIT_FALSE]; // slot 0 = UIP, patched below
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict;
        let mut idx = self.trail.len();
        loop {
            if self.clauses[ci as usize].learnt {
                self.bump_clause(ci);
            }
            for qi in 0..self.clauses[ci as usize].lits.len() {
                let q = self.clauses[ci as usize].lits[qi];
                if Some(q) == p {
                    continue;
                }
                let v = var_of(q);
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    if self.level[v as usize] >= current {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal of the
            // current level.
            loop {
                idx -= 1;
                if self.seen[var_of(self.trail[idx]) as usize] {
                    break;
                }
            }
            let lit_p = self.trail[idx];
            let v = var_of(lit_p);
            self.seen[v as usize] = false;
            self.bump(v);
            counter -= 1;
            if counter == 0 {
                learned[0] = negate(lit_p);
                break;
            }
            ci = self.reason[v as usize].expect("implied literal has a reason");
            p = Some(lit_p);
        }
        for &q in learned.iter().skip(1) {
            let v = var_of(q);
            self.seen[v as usize] = false;
            self.bump(v);
        }
        // Backjump to the second-highest level in the clause; position that
        // literal at slot 1 so it is watched.
        let mut backjump = 0;
        for i in 1..learned.len() {
            let lvl = self.level[var_of(learned[i]) as usize];
            if lvl > backjump {
                backjump = lvl;
                learned.swap(1, i);
            }
        }
        // Literal-block distance: distinct decision levels in the clause
        // (small LBD = "glue" connecting few levels, empirically the clauses
        // worth keeping forever).
        let mut levels: Vec<u32> = learned
            .iter()
            .map(|&q| self.level[var_of(q) as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        (learned, backjump, levels.len() as u32)
    }

    /// Deletes the less useful half of the learned clauses: keeps glue
    /// clauses (`lbd <= 2`), clauses currently acting as a propagation
    /// reason, and the higher-activity half of the rest.  Deletion is a
    /// tombstone; watch lists drop stale entries lazily in `propagate`.
    fn reduce_db(&mut self) {
        let live_reasons: std::collections::HashSet<u32> = self
            .reason
            .iter()
            .enumerate()
            .filter(|(v, r)| self.assign[*v] != -1 && r.is_some())
            .map(|(_, r)| r.unwrap())
            .collect();
        let mut deletable: Vec<(u32, f64)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                c.learnt && !c.deleted && c.lbd > 2 && !live_reasons.contains(&(*i as u32))
            })
            .map(|(i, c)| (i as u32, c.activity))
            .collect();
        deletable.sort_by(|a, b| a.1.total_cmp(&b.1));
        for &(ci, _) in deletable.iter().take(deletable.len() / 2) {
            let clause = &mut self.clauses[ci as usize];
            clause.deleted = true;
            clause.lits = Vec::new();
            self.num_learnts -= 1;
        }
        self.reduces += 1;
        // Let the database grow before the next reduction.
        self.max_learnts += self.max_learnts / 2;
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.current_level() > to_level {
            let lim = self.trail_lim.pop().expect("level underflow");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail underflow");
                let v = var_of(lit) as usize;
                self.phase[v] = lit & 1 != 0;
                self.assign[v] = -1;
                self.reason[v] = None;
                self.heap.push((ActKey(self.activity[v]), v as u32));
            }
        }
        self.prop_head = self.trail.len();
    }

    /// Picks the unassigned variable with the highest activity.
    fn decide(&mut self) -> Option<Lit> {
        while let Some((_, v)) = self.heap.pop() {
            if self.assign[v as usize] == -1 {
                return Some((v << 1) | u32::from(self.phase[v as usize]));
            }
        }
        None
    }

    /// Runs the search with `assumptions` enqueued as pseudo-decisions on
    /// the first decision levels (in order, one level each).  The conflict
    /// budget is *per call* — a reused solver charges each query only its
    /// own conflicts.
    ///
    /// Everything learned during the call is implied by the clause database
    /// alone (assumptions enter as decisions, never as clauses), so it
    /// soundly carries over to later calls under different assumptions.
    pub(crate) fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat { core: Vec::new() };
        }
        self.backtrack(0);
        /// Conflicts the first Luby interval allows before restarting.
        const RESTART_BASE: u64 = 128;
        let mut conflicts = 0u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                if self.current_level() == 0 {
                    // Conflict below every assumption: the clause database
                    // itself is unsatisfiable, permanently.
                    self.unsat = true;
                    return SolveResult::Unsat { core: Vec::new() };
                }
                conflicts += 1;
                conflicts_since_restart += 1;
                if conflicts > max_conflicts {
                    return SolveResult::Budget;
                }
                let (learned, backjump, lbd) = self.analyze(conflict);
                self.backtrack(backjump);
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                let assert_lit = learned[0];
                let reason = if learned.len() >= 2 {
                    let ci = self.attach(learned, true);
                    self.clauses[ci as usize].lbd = lbd;
                    Some(ci)
                } else {
                    None
                };
                let ok = self.enqueue(assert_lit, reason);
                debug_assert!(ok, "asserting literal must be unassigned after backjump");
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                }
            } else if conflicts_since_restart >= luby(self.restarts + 1) * RESTART_BASE {
                // Luby restart: abandon the current assignment prefix (phase
                // saving and the learned clauses preserve the progress; the
                // assumption levels are re-established by the branch below).
                self.restarts += 1;
                conflicts_since_restart = 0;
                self.backtrack(0);
            } else if (self.current_level() as usize) < assumptions.len() {
                // (Re-)establish the next assumption as a pseudo-decision.
                let lit = assumptions[self.current_level() as usize];
                match Self::lit_val(&self.assign, lit) {
                    1 => {
                        // Already implied: push an empty level so assumption
                        // `i` still owns decision level `i + 1`.
                        self.trail_lim.push(self.trail.len());
                    }
                    0 => {
                        let core = self.analyze_final(lit);
                        return SolveResult::Unsat { core };
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(lit, None);
                        debug_assert!(ok, "assumption variable was unassigned");
                    }
                }
            } else {
                let Some(decision) = self.decide() else {
                    return SolveResult::Sat;
                };
                self.trail_lim.push(self.trail.len());
                let ok = self.enqueue(decision, None);
                debug_assert!(ok, "decision variable was unassigned");
            }
        }
    }

    /// Final-conflict analysis: called when assumption `failed` is already
    /// false under the current (assumption-only) prefix.  Walks the trail
    /// backwards from the first decision level, expanding reason clauses,
    /// and collects the reason-less literals — while assumptions are still
    /// being established those are exactly the assumption pseudo-decisions —
    /// into the unsat core, which always includes `failed` itself.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        let fv = var_of(failed) as usize;
        if self.level[fv] == 0 || self.trail_lim.is_empty() {
            // ¬failed holds at the root level: no assumptions involved.
            return core;
        }
        self.seen[fv] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = var_of(lit) as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                None => {
                    debug_assert!(self.level[v] > 0, "level-0 literals are never marked");
                    // An assumption (for `failed`'s own variable this is the
                    // complementary-assumptions case, and `lit` = ¬failed is
                    // itself one of the assumptions).
                    core.push(lit);
                }
                Some(ci) => {
                    for qi in 0..self.clauses[ci as usize].lits.len() {
                        let q = self.clauses[ci as usize].lits[qi];
                        let qv = var_of(q) as usize;
                        // The clause contains the literal it implied; marking
                        // it again would leak scratch state past the walk.
                        if qv != v && self.level[qv] > 0 {
                            self.seen[qv] = true;
                        }
                    }
                }
            }
        }
        self.seen[fv] = false;
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{IncrementalSolver, IncrementalVerdict};
    use cp_symexpr::eval::eval;
    use cp_symexpr::{ExprBuild, SymExpr, Width};

    /// Decides the miter `a ≠ b` on a fresh incremental context.
    fn miter(a: &ExprRef, b: &ExprRef, limits: &BlastLimits) -> IncrementalVerdict {
        let mut offsets: Vec<usize> = a.support().iter().chain(b.support().iter()).collect();
        offsets.sort_unstable();
        offsets.dedup();
        IncrementalSolver::new(limits).query_equiv(a, b, &offsets)
    }

    /// Decides `expr ≠ 0` on a fresh incremental context.
    fn nonzero(expr: &ExprRef, limits: &BlastLimits) -> IncrementalVerdict {
        let offsets: Vec<usize> = expr.support().iter().collect();
        IncrementalSolver::new(limits).query_nonzero(std::slice::from_ref(expr), &offsets)
    }

    fn assert_unsat(verdict: IncrementalVerdict) {
        assert!(
            matches!(verdict, IncrementalVerdict::Unsat { .. }),
            "expected Unsat, got {verdict:?}"
        );
    }

    /// A solver over variables `1..n_vars` holding `clauses`.
    fn cdcl(n_vars: usize, clauses: Vec<Vec<Lit>>) -> Cdcl {
        let mut sat = Cdcl::new();
        sat.ensure_vars(n_vars);
        for clause in clauses {
            sat.add_clause(clause);
        }
        sat
    }

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    fn assert_witness_disagrees(a: &ExprRef, b: &ExprRef, witness: &[(usize, u8)]) {
        let lookup = |offset: usize| {
            witness
                .iter()
                .find(|(o, _)| *o == offset)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_ne!(eval(a, &lookup), eval(b, &lookup), "witness must disagree");
    }

    #[test]
    fn field_equals_its_byte_concatenation() {
        let raw = be16(4, 5);
        let field = SymExpr::field("/hdr/height", Width::W16, vec![4, 5]);
        assert_unsat(miter(&raw, &field, &BlastLimits::default()));
    }

    #[test]
    fn distinct_bytes_yield_a_real_witness() {
        let a = be16(0, 1);
        let b = be16(2, 3);
        match miter(&a, &b, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => assert_witness_disagrees(&a, &b, &witness),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn addition_commutes() {
        let x = SymExpr::input_byte(0).zext(Width::W32);
        let y = SymExpr::input_byte(1).zext(Width::W32);
        let ab = x.binop(BinOp::Add, y);
        let ba = y.binop(BinOp::Add, x);
        assert_unsat(miter(&ab, &ba, &BlastLimits::default()));
    }

    #[test]
    fn addition_associates() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let y = SymExpr::input_byte(1).zext(Width::W16);
        let z = SymExpr::input_byte(2).zext(Width::W16);
        let left = x.binop(BinOp::Add, y).binop(BinOp::Add, z);
        let right = x.binop(BinOp::Add, y.binop(BinOp::Add, z));
        assert_unsat(miter(&left, &right, &BlastLimits::default()));
    }

    #[test]
    fn off_by_one_is_satisfiable_with_verified_witness() {
        let x = SymExpr::input_byte(3).zext(Width::W32);
        let a = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 1));
        let b = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 2));
        match miter(&a, &b, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => assert_witness_disagrees(&a, &b, &witness),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn truncated_increment_differs_exactly_at_wraparound() {
        // x + 1 at 16 bits vs (x + 1) truncated through 8 bits: they differ
        // only at x == 255 — a needle sampling rarely finds but SAT must.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let plus = x.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        let wrapped = plus.truncate(Width::W8).zext(Width::W16);
        match miter(&plus, &wrapped, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => {
                assert_eq!(witness, vec![(0, 255)]);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn demorgan_holds() {
        let x = SymExpr::input_byte(0);
        let y = SymExpr::input_byte(1);
        let lhs = x.binop(BinOp::And, y).unop(UnOp::Not);
        let rhs = x.unop(UnOp::Not).binop(BinOp::Or, y.unop(UnOp::Not));
        assert_unsat(miter(&lhs, &rhs, &BlastLimits::default()));
    }

    #[test]
    fn multiply_by_two_equals_shift() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let double = x.binop(BinOp::Mul, SymExpr::constant(Width::W16, 2));
        let shifted = x.binop(BinOp::Shl, SymExpr::constant(Width::W16, 1));
        assert_unsat(miter(&double, &shifted, &BlastLimits::default()));
    }

    #[test]
    fn dynamic_shift_matches_eval_for_every_amount() {
        // x >> s (symbolic s) vs eval on all 256*256 inputs would be the
        // exhaustive check; here the miter against a wrong variant must be SAT
        // and the witness must be genuine.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let s = SymExpr::input_byte(1).zext(Width::W16);
        let shr = x.binop(BinOp::ShrU, s);
        let shl = x.binop(BinOp::Shl, s);
        match miter(&shr, &shl, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => assert_witness_disagrees(&shr, &shl, &witness),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn signed_shift_replicates_the_sign_for_large_amounts() {
        let x = SymExpr::input_byte(0);
        let big = x.binop(BinOp::ShrS, SymExpr::constant(Width::W8, 200));
        // For every x: result is 0xFF if the sign bit is set, else 0.
        let expected = x
            .binop(BinOp::LtS, SymExpr::constant(Width::W8, 0))
            .binop(BinOp::Mul, SymExpr::constant(Width::W8, 0xFF));
        assert_unsat(miter(&big, &expected, &BlastLimits::default()));
    }

    #[test]
    fn division_is_decided_by_the_divider_circuit() {
        // x / 2 == x >> 1 for unsigned x: a real UNSAT proof over the
        // restoring divider, not a fallback.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let div2 = x.binop(BinOp::DivU, SymExpr::constant(Width::W16, 2));
        let shr = x.binop(BinOp::ShrU, SymExpr::constant(Width::W16, 1));
        assert_unsat(miter(&div2, &shr, &BlastLimits::default()));
        // …while x / 3 disagrees with x >> 1 somewhere, with a genuine
        // witness.
        let div3 = x.binop(BinOp::DivU, SymExpr::constant(Width::W16, 3));
        match miter(&div3, &shr, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => assert_witness_disagrees(&div3, &shr, &witness),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_matches_eval_semantics() {
        // eval defines x / 0 = MAX and x % 0 = x; the divider must agree on
        // every input.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let zero = SymExpr::constant(Width::W16, 0);
        let div = x.binop(BinOp::DivU, zero);
        assert_unsat(miter(
            &div,
            &SymExpr::constant(Width::W16, 0xFFFF),
            &BlastLimits::default(),
        ));
        let rem = x.binop(BinOp::RemU, zero);
        assert_unsat(miter(&rem, &x, &BlastLimits::default()));
    }

    #[test]
    fn signed_division_by_minus_one_negates_including_int_min() {
        // At 8 bits, x / -1 is two's-complement negation for *every* x:
        // INT_MIN / -1 wraps back to INT_MIN exactly as Neg(INT_MIN) does.
        let x = SymExpr::input_byte(0);
        let div = x.binop(BinOp::DivS, SymExpr::constant(Width::W8, 0xFF));
        let neg = x.unop(UnOp::Neg);
        assert_unsat(miter(&div, &neg, &BlastLimits::default()));
    }

    /// Evaluates a blasted bit vector under a concrete environment by
    /// walking the AIG in variable order (topological by construction).
    fn simulate(blaster: &Blaster, bits: &[Lit], env: &[u8]) -> u64 {
        let n = blaster.aig.n_vars();
        let mut input_of: Vec<Option<(usize, u32)>> = vec![None; n];
        for (&off, &base) in &blaster.offset_var {
            for i in 0..8u32 {
                input_of[(base + i) as usize] = Some((off, i));
            }
        }
        let lit_value = |values: &[bool], lit: Lit| values[var_of(lit) as usize] ^ (lit & 1 == 1);
        let mut values = vec![false; n];
        for v in 1..n {
            values[v] = match blaster.aig.nodes[v - 1] {
                None => {
                    let (off, bit) = input_of[v].expect("input variable maps to an offset bit");
                    (env[off] >> bit) & 1 == 1
                }
                Some((a, b)) => lit_value(&values, a) && lit_value(&values, b),
            };
        }
        bits.iter().enumerate().fold(0u64, |acc, (i, &lit)| {
            acc | (u64::from(lit_value(&values, lit)) << i)
        })
    }

    #[test]
    fn division_circuits_match_eval_on_a_seeded_sweep() {
        // All four division variants at every width against the reference
        // evaluator: forced corners (INT_MIN / -1, divide-by-zero, ±1
        // divisors) plus a seeded random sweep, >10k samples in total.
        let ops = [BinOp::DivU, BinOp::DivS, BinOp::RemU, BinOp::RemS];
        let widths = [Width::W8, Width::W16, Width::W32, Width::W64];
        let mut rng = 0xD1D0_5EEDu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut checked = 0usize;
        for &width in &widths {
            let nbytes = width.bits() as usize / 8;
            // Field folds most-significant-first, so byte 0 is the top byte.
            let a = SymExpr::field("/a", width, (0..nbytes).collect());
            let b = SymExpr::field("/b", width, (nbytes..2 * nbytes).collect());
            for &op in &ops {
                let expr = a.binop(op, b);
                let mut blaster = Blaster::new(400_000);
                let bits = blaster.blast(&expr).expect("division blasts within budget");
                let mut cases: Vec<Vec<u8>> = Vec::new();
                // INT_MIN / -1 (the signed wraparound), x / 0, INT_MIN / 1,
                // -1 / -1, 0 / random.
                let int_min = |bytes: &mut [u8]| bytes[0] = 0x80;
                let mut case = vec![0u8; 2 * nbytes];
                int_min(&mut case);
                case[nbytes..].fill(0xFF);
                cases.push(case.clone());
                case[nbytes..].fill(0);
                cases.push(case.clone()); // INT_MIN / 0
                case[2 * nbytes - 1] = 1;
                cases.push(case.clone()); // INT_MIN / 1
                let mut case = vec![0xFFu8; 2 * nbytes];
                cases.push(case.clone()); // -1 / -1
                case[..nbytes].fill(0);
                cases.push(case.clone()); // 0 / -1
                while cases.len() < 640 {
                    let mut case: Vec<u8> = (0..2 * nbytes).map(|_| next() as u8).collect();
                    // Bias a slice of the sweep toward small divisors so
                    // quotient carry chains get exercised, and toward zero
                    // divisors so the guard path does.
                    match cases.len() % 8 {
                        0 => {
                            case[nbytes..].fill(0);
                            case[2 * nbytes - 1] = (next() % 5) as u8;
                        }
                        1 => case[nbytes..].fill(0),
                        _ => {}
                    }
                    cases.push(case);
                }
                for case in &cases {
                    let got = simulate(&blaster, &bits, case);
                    let want = eval(&expr, &case[..]);
                    assert_eq!(
                        got, want,
                        "{op:?} at {width:?} disagrees with eval on {case:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 10_000, "sweep too small: {checked}");
    }

    #[test]
    fn gate_budget_charges_each_query_only_its_own_gates() {
        // Regression for cumulative budget accounting: on a reused graph the
        // second query must not be charged for the first query's gates.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let y = SymExpr::input_byte(1).zext(Width::W16);
        let sum = x.binop(BinOp::Add, y);
        let prod = x.binop(BinOp::Mul, y);
        // How many gates the product needs on its own.
        let mut probe = Blaster::new(usize::MAX);
        probe.blast(&prod).expect("unbounded blast");
        let prod_gates = probe.aig.gates;
        // A shared graph whose budget fits exactly one product: after the
        // adder query consumed part of the graph, the product query must
        // still blast — `begin_query` resets the per-query floor.
        let mut shared = Blaster::new(prod_gates);
        shared.begin_query();
        shared.blast(&sum).expect("the adder fits the budget alone");
        assert!(shared.aig.gates > 0);
        shared.begin_query();
        shared
            .blast(&prod)
            .expect("per-query budget: prior gates must not count");
    }

    #[test]
    fn assumptions_solve_and_cores_stay_within_assumptions() {
        let lit = |v: u32, neg: bool| (v << 1) | u32::from(neg);
        // (a ∨ b) ∧ (¬a ∨ c): assuming ¬b forces a, which forces c.
        let clauses = vec![
            vec![lit(1, false), lit(2, false)],
            vec![lit(1, true), lit(3, false)],
        ];
        let mut sat = cdcl(4, clauses);
        assert_eq!(sat.solve_under_assumptions(&[], 1000), SolveResult::Sat);
        assert_eq!(
            sat.solve_under_assumptions(&[lit(2, true)], 1000),
            SolveResult::Sat
        );
        assert!(sat.value(1), "assuming ¬b must force a");
        assert!(sat.value(3), "…which must force c");
        // Contradictory assumptions: ¬b propagates c, conflicting with ¬c.
        let assumptions = [lit(2, true), lit(3, true)];
        let core = match sat.solve_under_assumptions(&assumptions, 1000) {
            SolveResult::Unsat { core } => core,
            other => panic!("expected Unsat, got {other:?}"),
        };
        assert!(!core.is_empty());
        for l in &core {
            assert!(
                assumptions.contains(l),
                "core must only name assumption literals: {core:?}"
            );
        }
        // Retrying under the core alone still conflicts with a core no
        // larger than the first (shrink-on-retry never grows).
        match sat.solve_under_assumptions(&core, 1000) {
            SolveResult::Unsat { core: again } => {
                assert!(again.len() <= core.len());
                assert!(again.iter().all(|l| core.contains(l)));
            }
            other => panic!("the core must still conflict, got {other:?}"),
        }
        // The solver state survives: satisfiable again once retracted.
        assert_eq!(sat.solve_under_assumptions(&[], 1000), SolveResult::Sat);
    }

    #[test]
    fn clauses_added_between_queries_constrain_later_ones() {
        let lit = |v: u32, neg: bool| (v << 1) | u32::from(neg);
        let mut sat = cdcl(3, vec![vec![lit(1, false), lit(2, false)]]);
        assert_eq!(
            sat.solve_under_assumptions(&[lit(1, true)], 1000),
            SolveResult::Sat
        );
        sat.add_clause(vec![lit(2, true), lit(1, false)]);
        // Now a ∨ b and (¬b ∨ a) force a under assumption ¬a → unsat, and
        // the core is the single assumption.
        match sat.solve_under_assumptions(&[lit(1, true)], 1000) {
            SolveResult::Unsat { core } => assert_eq!(core, vec![lit(1, true)]),
            other => panic!("expected Unsat, got {other:?}"),
        }
        // A permanent empty-handed contradiction yields the empty core.
        sat.add_clause(vec![lit(1, false)]);
        sat.add_clause(vec![lit(1, true)]);
        match sat.solve_under_assumptions(&[], 1000) {
            SolveResult::Unsat { core } => assert!(core.is_empty()),
            other => panic!("expected Unsat, got {other:?}"),
        }
    }

    #[test]
    fn luby_sequence_matches_the_literature() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expected);
    }

    /// CNF of the pigeonhole principle PHP(pigeons, holes): every pigeon
    /// sits in a hole, no hole holds two pigeons.  Unsatisfiable whenever
    /// `pigeons > holes`, and exponentially hard for resolution — a dense
    /// conflict generator that drives clause learning, database reduction
    /// and restarts far harder than the corpus miters do.
    fn pigeonhole(pigeons: usize, holes: usize) -> (usize, Vec<Vec<Lit>>) {
        // Variable 0 is the solver's reserved constant; p(i,j) starts at 1.
        let var = |i: usize, j: usize| (1 + i * holes + j) as u32;
        let mut clauses = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| var(i, j) << 1).collect());
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    clauses.push(vec![(var(a, j) << 1) | 1, (var(b, j) << 1) | 1]);
                }
            }
        }
        (1 + pigeons * holes, clauses)
    }

    #[test]
    fn cdcl_refutes_pigeonhole_with_reduction_and_restarts() {
        let (n_vars, clauses) = pigeonhole(8, 7);
        let mut sat = cdcl(n_vars, clauses);
        assert_eq!(
            sat.solve_under_assumptions(&[], 2_000_000),
            SolveResult::Unsat { core: Vec::new() }
        );
        assert!(sat.restarts > 0, "expected Luby restarts to fire");
        assert!(
            sat.reduces > 0,
            "expected clause-database reductions to fire"
        );
        // Reduction keeps the live learned set bounded by the (grown)
        // threshold instead of accumulating one clause per conflict.
        assert!(sat.num_learnts <= sat.max_learnts + 1);
    }

    #[test]
    fn cdcl_finds_planted_models_across_restarts() {
        // Random 3-CNF with a planted solution: every clause is forced to
        // contain at least one literal the hidden assignment satisfies, so
        // the instance is guaranteed satisfiable while still conflict-rich.
        let n_vars = 150usize;
        let mut rng = 0x1234_5678_9ABC_DEF1u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let planted: Vec<bool> = (0..=n_vars).map(|_| next() & 1 != 0).collect();
        let mut clauses = Vec::new();
        for _ in 0..600 {
            let mut vars = Vec::new();
            while vars.len() < 3 {
                let v = 1 + (next() as usize % n_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let mut lits: Vec<Lit> = vars
                .iter()
                .map(|&v| ((v as u32) << 1) | u32::from(next() & 1 != 0))
                .collect();
            // Force one literal to agree with the planted assignment.
            let fix = (next() as usize) % 3;
            lits[fix] = ((vars[fix] as u32) << 1) | u32::from(!planted[vars[fix]]);
            clauses.push(lits);
        }
        let mut sat = cdcl(n_vars + 1, clauses.clone());
        assert_eq!(
            sat.solve_under_assumptions(&[], 2_000_000),
            SolveResult::Sat
        );
        for clause in &clauses {
            assert!(
                clause
                    .iter()
                    .any(|&lit| sat.value(var_of(lit)) == (lit & 1 == 0)),
                "model must satisfy every clause"
            );
        }
    }

    #[test]
    fn adder_reassociation_miter_stays_tractable() {
        // Two differently associated 4-term sums: structurally disjoint
        // circuits whose equivalence needs real carry-chain reasoning (the
        // hardest instance of this family the learner proves in well under
        // a second; 5+ terms need XOR-aware reasoning no CDCL alone has).
        let bytes: Vec<ExprRef> = (0..4)
            .map(|i| SymExpr::input_byte(i).zext(Width::W16))
            .collect();
        let left = bytes[1..]
            .iter()
            .fold(bytes[0], |acc, b| acc.binop(BinOp::Add, *b));
        let right = bytes[..3]
            .iter()
            .rev()
            .fold(bytes[3], |acc, b| acc.binop(BinOp::Add, *b));
        assert_unsat(miter(&left, &right, &BlastLimits::default()));
    }

    #[test]
    fn nonzero_finds_a_model_for_a_narrow_equality() {
        // hdr16 == 0xBEEF has exactly one model over two bytes.
        let raw = be16(0, 1);
        let goal = raw.binop(BinOp::Eq, SymExpr::constant(Width::W16, 0xBEEF));
        match nonzero(&goal, &BlastLimits::default()) {
            IncrementalVerdict::Sat(model) => {
                let mut sorted = model.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![(0, 0xBE), (1, 0xEF)]);
                let lookup = |off: usize| sorted.iter().find(|(o, _)| *o == off).unwrap().1;
                assert_ne!(eval(&goal, &lookup), 0);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn nonzero_refutes_contradictions() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let lt = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 4));
        let ge = SymExpr::constant(Width::W16, 9).binop(BinOp::LeU, x);
        let both = lt.binop(BinOp::And, ge);
        assert_unsat(nonzero(&both, &BlastLimits::default()));
    }

    #[test]
    fn nonzero_constant_true_satisfies_trivially() {
        let one = SymExpr::constant(Width::W8, 1);
        assert!(matches!(
            nonzero(&one, &BlastLimits::default()),
            IncrementalVerdict::Sat(_)
        ));
        let zero = SymExpr::constant(Width::W8, 0);
        assert_unsat(nonzero(&zero, &BlastLimits::default()));
    }

    #[test]
    fn nonzero_decides_division_goals() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let y = SymExpr::input_byte(1).zext(Width::W16);
        // x / y can be nonzero (e.g. 2 / 1), and any witness must really
        // make it so.
        let quotient = x.binop(BinOp::DivU, y);
        match nonzero(&quotient, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => {
                let mut env = [0u8; 2];
                for &(off, byte) in &witness {
                    env[off] = byte;
                }
                assert_ne!(eval(&quotient, &env[..]), 0, "bogus witness {witness:?}");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
        // …but x % 2 never equals 3.
        let two = SymExpr::constant(Width::W16, 2);
        let three = SymExpr::constant(Width::W16, 3);
        let impossible = x.binop(BinOp::RemU, two).binop(BinOp::Eq, three);
        assert_unsat(nonzero(&impossible, &BlastLimits::default()));
    }

    #[test]
    fn gate_budget_abandons_instead_of_hanging() {
        let x = SymExpr::input_byte(0).zext(Width::W64);
        let y = SymExpr::input_byte(1).zext(Width::W64);
        let a = x.binop(BinOp::Mul, y).binop(BinOp::Mul, x);
        let b = y.binop(BinOp::Mul, x).binop(BinOp::Mul, x);
        let limits = BlastLimits {
            max_gates: 100,
            max_conflicts: 10,
        };
        assert_eq!(
            miter(&a, &b, &limits),
            IncrementalVerdict::Abandoned("gate budget")
        );
    }
}

//! IR → bytecode emission.
//!
//! The default compilation pipeline: lower the analyzed AST into the `cp-ir`
//! CFG, optionally thread its jumps ([`cp_ir::optimize`]), then *stackify*
//! each basic block into the stack-machine instruction stream.
//!
//! # Stackification
//!
//! IR temps are virtual registers; the bytecode machine only has an operand
//! stack and addressable frames.  A temp whose single use directly follows
//! its definition in stack (LIFO) order simply lives on the operand stack.
//! Every other temp — used more than once, used from a different block than
//! its definition, or consumed out of LIFO order — is *spilled* to a dedicated
//! frame slot past the function's source frame: its definition stores the
//! value and every use reloads it.  Spills round-trip values through memory,
//! which the VM keeps semantically transparent: the byte-level taint shadow
//! and the sticky overflow flag survive a store/load pair, so a spilled value
//! is indistinguishable from one kept on the stack.
//!
//! Emission runs as a fixpoint: an attempt that discovers a temp it cannot
//! satisfy from the stack adds that temp to the spill set and restarts.  Each
//! restart grows the set, so the loop terminates.
//!
//! The spill set and the slot table are dense, indexed by temp, and slots
//! are handed out in ascending temp order, so the frame layout is
//! deterministic without an ordered map.  The use counts are computed once
//! per function and shared by the spill analysis and every attempt, and the
//! instruction stream is pre-sized from the IR, so a function that needs no
//! restart emits with a handful of allocations.
//!
//! A definition whose destination is spilled needs its `FrameAddr` pushed
//! *below* the computed value (the machine's `Store` pops value, then
//! address, and there is no swap instruction), so all operands of such a
//! definition are reloaded rather than taken from the stack — spilling
//! cascades upward through the defining expression.
//!
//! # Blocks and jumps
//!
//! Blocks are laid out in IR order.  Under [`OptLevel::Full`] a jump to the
//! next block in layout order is elided; under [`OptLevel::None`] every
//! terminator is emitted literally, like a `-O0` build.  The emitted
//! function records its block boundaries in
//! [`CompiledFunction::block_starts`], and the program's debug information
//! gets per-block statement lists ([`cp_lang::BlockDebug`]) so traces can
//! attribute statement visits to blocks.

use crate::compiler::CompileError;
use crate::instr::{Instr, Intrinsic};
use crate::program::{CompiledFunction, CompiledProgram, ParamSlot};
use cp_ir::{Block, BlockId, Inst, InstKind, IrFunction, OptLevel, Temp, Terminator};
use cp_lang::{AnalyzedProgram, BlockDebug};

/// Options for [`compile_with_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOpts {
    /// Optimization level for the IR pipeline.
    pub opt: OptLevel,
}

/// Compiles a type-checked program to bytecode through the mid-level IR at
/// the default optimization level ([`OptLevel::Full`]).
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs the bytecode cannot express
/// (struct-typed parameters, whole-struct assignment).
pub fn compile(analyzed: &AnalyzedProgram) -> Result<CompiledProgram, CompileError> {
    compile_with_opts(analyzed, &CompileOpts::default())
}

/// Compiles a type-checked program to bytecode through the mid-level IR.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs the bytecode cannot express
/// (struct-typed parameters, whole-struct assignment).
pub fn compile_with_opts(
    analyzed: &AnalyzedProgram,
    opts: &CompileOpts,
) -> Result<CompiledProgram, CompileError> {
    let ir = cp_ir::lower(analyzed).map_err(|e| CompileError { message: e.message })?;
    let ir = match opts.opt {
        OptLevel::None => ir,
        OptLevel::Full => cp_ir::optimize(ir),
    };
    let mut debug = analyzed.debug.clone();
    let mut functions = Vec::with_capacity(ir.functions.len());
    for function in &ir.functions {
        let (compiled, blocks) = emit_function(function, opts.opt);
        if let Some(fn_debug) = debug.functions.get_mut(&function.name) {
            fn_debug.blocks = blocks;
        }
        functions.push(compiled);
    }
    Ok(CompiledProgram {
        functions,
        main: ir.main,
        globals_size: ir.globals_size,
        global_inits: ir.global_inits,
        debug: Some(debug),
    })
}

/// Why an emission attempt had to be abandoned.
struct NeedSpill(Vec<Temp>);

fn emit_function(function: &IrFunction, opt: OptLevel) -> (CompiledFunction, Vec<BlockDebug>) {
    let use_counts = function.use_counts();
    let mut spilled = initial_spills(function, &use_counts);
    loop {
        let mut emitter = Emitter::new(function, opt, &spilled, &use_counts);
        match emitter.run() {
            Ok(()) => return emitter.finish(),
            Err(NeedSpill(temps)) => {
                let mut progress = false;
                for t in temps {
                    progress |= !std::mem::replace(&mut spilled[t as usize], true);
                }
                assert!(
                    progress,
                    "emission made no progress spilling in `{}`",
                    function.name
                );
            }
        }
    }
}

/// Temps that can never live purely on the operand stack — used more than
/// once, or used outside their defining block — as a per-temp flag.
fn initial_spills(function: &IrFunction, uses: &[usize]) -> Vec<bool> {
    let defs = function.def_blocks();
    let mut spills: Vec<bool> = uses.iter().map(|&count| count > 1).collect();
    for (id, block) in function.blocks.iter().enumerate() {
        let mut cross = |t: Temp| {
            if defs[t as usize] != Some(id) {
                spills[t as usize] = true;
            }
        };
        for inst in &block.insts {
            for &t in inst.kind.operands().iter() {
                cross(t);
            }
        }
        if let Some(t) = block.term.operand() {
            cross(t);
        }
    }
    spills
}

struct Emitter<'a> {
    f: &'a IrFunction,
    opt: OptLevel,
    /// Frame slot offset of each spilled temp, indexed by temp.
    slots: Vec<Option<usize>>,
    frame_size: usize,
    code: Vec<Instr>,
    stmt_map: Vec<Option<usize>>,
    current_stmt: Option<usize>,
    /// The operand-stack model: unspilled temps whose values are live on the
    /// stack, bottom first.
    model: Vec<Temp>,
    use_counts: &'a [usize],
    /// Start pc of each block, by block id.
    block_pcs: Vec<usize>,
    /// `(code index, target block)` pairs to patch once all pcs are known.
    fixups: Vec<(usize, BlockId)>,
}

impl<'a> Emitter<'a> {
    fn new(
        function: &'a IrFunction,
        opt: OptLevel,
        spilled: &[bool],
        use_counts: &'a [usize],
    ) -> Self {
        // Spill slots live past the source frame, 8 bytes each, assigned in
        // ascending temp order so layout is deterministic.
        let mut frame_size = function.frame_size.div_ceil(8) * 8;
        let slots: Vec<Option<usize>> = spilled
            .iter()
            .map(|&spill| {
                spill.then(|| {
                    frame_size += 8;
                    frame_size - 8
                })
            })
            .collect();
        // Every instruction emits at least one bytecode, and most blocks end
        // in a jump or branch.
        let capacity = function.inst_count() + 2 * function.blocks.len();
        Emitter {
            f: function,
            opt,
            slots,
            frame_size,
            code: Vec::with_capacity(capacity),
            stmt_map: Vec::with_capacity(capacity),
            current_stmt: None,
            model: Vec::new(),
            use_counts,
            block_pcs: vec![0; function.blocks.len()],
            fixups: Vec::new(),
        }
    }

    /// The frame slot of `temp`, if it is spilled.
    fn slot(&self, temp: Temp) -> Option<usize> {
        self.slots[temp as usize]
    }

    fn emit(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.stmt_map.push(self.current_stmt);
        self.code.len() - 1
    }

    fn run(&mut self) -> Result<(), NeedSpill> {
        for (id, block) in self.f.blocks.iter().enumerate() {
            self.block_pcs[id] = self.code.len();
            debug_assert!(self.model.is_empty(), "operand stack dirty at block start");
            for inst in &block.insts {
                self.emit_inst(inst)?;
            }
            self.emit_terminator(id, block)?;
        }
        Ok(())
    }

    fn finish(mut self) -> (CompiledFunction, Vec<BlockDebug>) {
        for (at, target) in std::mem::take(&mut self.fixups) {
            let pc = self.block_pcs[target];
            match &mut self.code[at] {
                Instr::Jump { target: t } | Instr::JumpIfZero { target: t } => *t = pc,
                other => panic!("fixup on non-jump instruction {other:?}"),
            }
        }
        let block_starts: Vec<(usize, usize)> = self
            .block_pcs
            .iter()
            .enumerate()
            .map(|(id, &pc)| (pc, id))
            .collect();
        let blocks: Vec<BlockDebug> = self
            .f
            .blocks
            .iter()
            .map(|b| BlockDebug {
                stmts: b
                    .insts
                    .iter()
                    .filter_map(|i| match i.kind {
                        InstKind::StmtEnd { stmt } => Some(stmt),
                        _ => None,
                    })
                    .collect(),
                succs: b.term.successors().to_vec(),
            })
            .collect();
        let compiled = CompiledFunction {
            name: Some(self.f.name.clone()),
            frame_size: self.frame_size,
            params: self
                .f
                .params
                .iter()
                .map(|p| ParamSlot {
                    offset: p.offset,
                    width: p.width,
                })
                .collect(),
            returns_value: self.f.ret_width.is_some(),
            code: self.code,
            stmt_map: self.stmt_map,
            block_starts,
        };
        (compiled, blocks)
    }

    /// Pushes a spilled temp's value back onto the stack.
    fn reload(&mut self, temp: Temp) {
        let offset = self.slot(temp).expect("reloaded temp is spilled");
        self.emit(Instr::FrameAddr { offset });
        self.emit(Instr::Load {
            width: self.f.width(temp),
        });
    }

    /// Consumes the instruction's operands: the longest prefix already in
    /// position on the stack stays there, the rest are reloaded on top.
    ///
    /// Operands arrive in push order, so `ops[..p]` can come from the stack
    /// only if they are exactly its top `p` entries (deepest first).  Any
    /// remaining operand must be spilled; if one is not, the attempt fails
    /// and the fixpoint spills it.
    fn materialize(&mut self, ops: &[Temp]) -> Result<(), NeedSpill> {
        let mut prefix = 0;
        for p in (0..=ops.len()).rev() {
            if p <= self.model.len() && self.model[self.model.len() - p..] == ops[..p] {
                prefix = p;
                break;
            }
        }
        let missing: Vec<Temp> = ops[prefix..]
            .iter()
            .copied()
            .filter(|&t| self.slot(t).is_none())
            .collect();
        if !missing.is_empty() {
            return Err(NeedSpill(missing));
        }
        for &t in &ops[prefix..] {
            self.reload(t);
        }
        self.model.truncate(self.model.len() - prefix);
        Ok(())
    }

    /// Emits the value-producing core of an instruction, assuming its
    /// operands are already on the stack.
    fn emit_op(&mut self, kind: &InstKind) {
        match kind {
            InstKind::Const { width, value, .. } => {
                self.emit(Instr::PushConst {
                    width: *width,
                    value: *value,
                });
            }
            InstKind::FrameAddr { offset, .. } => {
                self.emit(Instr::FrameAddr { offset: *offset });
            }
            InstKind::GlobalAddr { offset, .. } => {
                self.emit(Instr::GlobalAddr { offset: *offset });
            }
            InstKind::Load { width, .. } => {
                self.emit(Instr::Load { width: *width });
            }
            InstKind::Binary { op, width, .. } => {
                self.emit(Instr::Binary {
                    op: *op,
                    width: *width,
                });
            }
            InstKind::Unary { op, width, .. } => {
                self.emit(Instr::Unary {
                    op: *op,
                    width: *width,
                });
            }
            InstKind::Cast { kind, from, to, .. } => {
                self.emit(Instr::Cast {
                    kind: *kind,
                    from: *from,
                    to: *to,
                });
            }
            InstKind::Call { function, .. } => {
                self.emit(Instr::Call {
                    function: *function,
                });
            }
            InstKind::CallIntrinsic { intrinsic, .. } => {
                self.emit(Instr::CallIntrinsic {
                    intrinsic: lower_intrinsic(*intrinsic),
                });
            }
            InstKind::Store { .. } | InstKind::StmtEnd { .. } => {
                unreachable!("handled by emit_inst")
            }
        }
    }

    fn emit_inst(&mut self, inst: &Inst) -> Result<(), NeedSpill> {
        self.current_stmt = inst.stmt;
        let kind = &inst.kind;
        match kind {
            InstKind::StmtEnd { stmt } => {
                self.emit(Instr::StmtEnd { stmt: *stmt });
                return Ok(());
            }
            InstKind::Store { addr, value, width } => {
                self.materialize(&[*addr, *value])?;
                self.emit(Instr::Store { width: *width });
                return Ok(());
            }
            _ => {}
        }
        let ops = kind.operands();
        let Some(dst) = kind.dst() else {
            // A call without a result (`output`, a void function).
            self.materialize(&ops)?;
            self.emit_op(kind);
            return Ok(());
        };
        if let Some(slot) = self.slot(dst) {
            // Spilled destination: the store address must sit below the
            // value, so reload every operand instead of taking any from the
            // stack (the cascade described in the module docs).
            let missing: Vec<Temp> = ops
                .iter()
                .copied()
                .filter(|&t| self.slot(t).is_none())
                .collect();
            if !missing.is_empty() {
                return Err(NeedSpill(missing));
            }
            self.emit(Instr::FrameAddr { offset: slot });
            for &t in ops.iter() {
                self.reload(t);
            }
            self.emit_op(kind);
            self.emit(Instr::Store {
                width: self.f.width(dst),
            });
            return Ok(());
        }
        // Unspilled destination: the value lives on the operand stack.
        self.materialize(&ops)?;
        self.emit_op(kind);
        if self.use_counts[dst as usize] == 0 {
            self.emit(Instr::Pop);
        } else {
            self.model.push(dst);
        }
        Ok(())
    }

    /// Brings a terminator operand to the top of the stack.
    fn materialize_operand(&mut self, temp: Temp) -> Result<(), NeedSpill> {
        if self.model.last() == Some(&temp) {
            self.model.pop();
        } else if self.slot(temp).is_some() {
            self.reload(temp);
        } else {
            return Err(NeedSpill(vec![temp]));
        }
        Ok(())
    }

    /// Emits a jump to `target`, unless it may fall through: under
    /// [`OptLevel::Full`] a jump to the next block in layout order is elided.
    fn jump_to(&mut self, from: BlockId, target: BlockId) {
        if self.opt == OptLevel::Full && target == from + 1 {
            return;
        }
        let at = self.emit(Instr::Jump { target: 0 });
        self.fixups.push((at, target));
    }

    fn emit_terminator(&mut self, id: BlockId, block: &Block) -> Result<(), NeedSpill> {
        self.current_stmt = block.term_stmt;
        match &block.term {
            Terminator::Jump(target) => {
                self.jump_to(id, *target);
            }
            Terminator::Branch {
                cond,
                if_zero,
                fallthrough,
            } => {
                self.materialize_operand(*cond)?;
                let at = self.emit(Instr::JumpIfZero { target: 0 });
                self.fixups.push((at, *if_zero));
                self.jump_to(id, *fallthrough);
            }
            Terminator::Return { value } => match value {
                Some(v) => {
                    self.materialize_operand(*v)?;
                    self.emit(Instr::Return { has_value: true });
                }
                None => {
                    self.emit(Instr::Return { has_value: false });
                }
            },
            Terminator::Exit { status } => {
                self.materialize_operand(*status)?;
                self.emit(Instr::Exit);
            }
        }
        assert!(
            self.model.is_empty(),
            "operand stack not empty at end of block {id} in `{}`: {:?}",
            self.f.name,
            self.model
        );
        Ok(())
    }
}

fn lower_intrinsic(intrinsic: cp_ir::Intrinsic) -> Intrinsic {
    match intrinsic {
        cp_ir::Intrinsic::InputByte => Intrinsic::InputByte,
        cp_ir::Intrinsic::InputLen => Intrinsic::InputLen,
        cp_ir::Intrinsic::Malloc => Intrinsic::Malloc,
        cp_ir::Intrinsic::Output => Intrinsic::Output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_direct;
    use cp_lang::frontend;

    fn both(source: &str) -> (CompiledProgram, CompiledProgram) {
        let analyzed = frontend(source).unwrap();
        let direct = compile_direct(&analyzed).unwrap();
        let via_ir = compile(&analyzed).unwrap();
        (direct, via_ir)
    }

    /// The value a straight-line function of constants and binary
    /// operators returns, or `None` if it does anything else.
    fn returned_constant(function: &CompiledFunction) -> Option<u64> {
        let mut stack = Vec::new();
        for instr in &function.code {
            match *instr {
                Instr::PushConst { value, .. } => stack.push(value),
                Instr::Binary { op, width } => {
                    let rhs = stack.pop()?;
                    let lhs = stack.pop()?;
                    stack.push(cp_symexpr::eval::eval_binop(op, width, lhs, rhs));
                }
                Instr::StmtEnd { .. } => {}
                Instr::Return { has_value: true } => return stack.pop(),
                _ => return None,
            }
        }
        None
    }

    #[test]
    fn ir_path_compiles_simple_programs() {
        let (direct, via_ir) = both("fn main() -> u32 { return 6 * 7; }");
        let direct_value = returned_constant(&direct.functions[direct.main]);
        assert_eq!(direct_value, Some(42));
        assert_eq!(
            returned_constant(&via_ir.functions[via_ir.main]),
            direct_value
        );
    }

    #[test]
    fn opt_level_none_preserves_every_operation() {
        let analyzed = frontend("fn main() -> u32 { return 6 * 7; }").unwrap();
        let program = compile_with_opts(
            &analyzed,
            &CompileOpts {
                opt: OptLevel::None,
            },
        )
        .unwrap();
        let main = &program.functions[program.main];
        assert!(main.code.iter().any(|i| matches!(i, Instr::Binary { .. })));
    }

    #[test]
    fn emitted_functions_carry_block_starts() {
        let (_, program) = both(
            r#"
            fn main() -> u32 {
                var i: u32 = 0;
                while (i < 4) { i = i + 1; }
                return i;
            }
        "#,
        );
        let main = &program.functions[program.main];
        assert!(main.block_starts.len() >= 3, "loop produces several blocks");
        assert_eq!(main.block_starts[0], (0, 0));
        let pcs: Vec<usize> = main.block_starts.iter().map(|&(pc, _)| pc).collect();
        let mut sorted = pcs.clone();
        sorted.sort_unstable();
        assert_eq!(pcs, sorted, "blocks are laid out in ascending pc order");
    }

    #[test]
    fn block_debug_attributes_statements_to_blocks() {
        let (_, program) = both(
            r#"
            fn main() -> u32 {
                var i: u32 = 0;
                while (i < 4) { i = i + 1; }
                output(i as u64);
                return i;
            }
        "#,
        );
        let debug = program.debug.as_ref().unwrap();
        let main = &debug.functions["main"];
        assert!(!main.blocks.is_empty());
        // The loop-body assignment and the post-loop output must sit in
        // different blocks.
        let body = main.stmt_block(2).expect("assignment attributed");
        let after = main.stmt_block(3).expect("output attributed");
        assert_ne!(body, after);
    }

    #[test]
    fn spilled_values_survive_round_trips() {
        // `var x = a && b` forces an address temp across the short-circuit
        // blocks, exercising the spill path.
        let (_, program) = both(
            r#"
            fn main() -> u32 {
                var a: u32 = input_byte(0) as u32;
                var b: u32 = input_byte(1) as u32;
                var x: u32 = 0;
                x = (a > 0 && b > 0) as u32;
                return x;
            }
        "#,
        );
        assert!(program.functions[program.main]
            .code
            .iter()
            .any(|i| matches!(i, Instr::Store { .. })));
    }
}

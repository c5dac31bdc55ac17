//! AST → CFG lowering.
//!
//! The lowering is deterministic and mirrors the evaluation order of the
//! original tree-walking bytecode compiler exactly — operand order, the
//! `a > b` ⇒ `b < a` comparison swap, short-circuit branch structure, and
//! `StmtEnd` placement are all identical, so an unoptimized emission of this
//! CFG behaves bit-for-bit like the direct compiler (modulo frame size:
//! short-circuit results travel through dedicated frame slots instead of
//! living on the operand stack across branches).

use crate::{
    Block, BlockId, Inst, InstKind, Intrinsic, IrFunction, IrParam, IrProgram, Temp, Terminator,
};
use cp_lang::ast::{BinaryOp, Expr, ExprKind, Function, Stmt, StmtKind, UnaryOp};
use cp_lang::{AnalyzedProgram, DebugInfo, Type};
use cp_symexpr::{BinOp, CastKind, UnOp, Width};
use std::fmt;

/// Errors produced while lowering an analyzed program to the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Description of the problem.
    pub message: String,
}

impl LowerError {
    fn new(message: impl Into<String>) -> Self {
        LowerError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn type_width(ty: &Type) -> Width {
    Width::from_bits(ty.bits().expect("width of a non-struct type"))
        .expect("integer and pointer widths are 8/16/32/64")
}

/// Lowers a type-checked program to the CFG IR.
///
/// # Errors
///
/// Returns a [`LowerError`] for constructs the bytecode cannot express
/// (struct-typed parameters, whole-struct assignment) — the same set the
/// direct compiler rejects.
pub fn lower(analyzed: &AnalyzedProgram) -> Result<IrProgram, LowerError> {
    let function_indices: Vec<&str> = analyzed
        .program
        .functions
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let fn_rets: Vec<Option<Width>> = analyzed
        .program
        .functions
        .iter()
        .map(|f| f.ret.as_ref().map(type_width))
        .collect();
    let mut functions = Vec::with_capacity(function_indices.len());
    for function in &analyzed.program.functions {
        functions.push(lower_function(
            function,
            analyzed,
            &function_indices,
            &fn_rets,
        )?);
    }
    let main = function_indices
        .iter()
        .position(|name| *name == "main")
        .ok_or_else(|| LowerError::new("program has no main function"))?;
    let global_inits = analyzed
        .debug
        .globals
        .iter()
        .map(|g| {
            let width = type_width(&g.ty);
            (g.offset, width, width.truncate(g.init))
        })
        .collect();
    Ok(IrProgram {
        functions,
        main,
        globals_size: analyzed.debug.globals_size,
        global_inits,
    })
}

fn lower_function(
    function: &Function,
    analyzed: &AnalyzedProgram,
    function_indices: &[&str],
    fn_rets: &[Option<Width>],
) -> Result<IrFunction, LowerError> {
    let fn_debug = analyzed
        .debug
        .functions
        .get(&function.name)
        .ok_or_else(|| LowerError::new(format!("missing debug info for `{}`", function.name)))?;
    let mut params = Vec::with_capacity(function.params.len());
    for param in &function.params {
        if !param.ty.is_integer() && !param.ty.is_pointer() {
            return Err(LowerError::new(format!(
                "parameter `{}` of `{}` has unsupported type `{}` (pass a pointer instead)",
                param.name, function.name, param.ty
            )));
        }
        let var = fn_debug
            .var(&param.name)
            .expect("parameter present in debug info");
        params.push(IrParam {
            offset: var.frame_offset,
            width: type_width(&param.ty),
        });
    }
    let ret_width = function.ret.as_ref().map(type_width);
    let mut lowerer = Lowerer {
        debug: &analyzed.debug,
        fn_debug,
        function_indices,
        fn_rets,
        blocks: vec![BlockBuild::new()],
        cur: 0,
        temp_widths: Vec::new(),
        current_stmt: None,
        frame_size: fn_debug.frame_size,
        slots_aligned: false,
    };
    lowerer.lower_stmts(&function.body)?;
    // Implicit return for every path that falls off the end — including
    // unreachable continuation blocks opened after a `return`/`exit`.
    for id in 0..lowerer.blocks.len() {
        if lowerer.blocks[id].term.is_none() {
            lowerer.cur = id;
            let value = ret_width.map(|width| lowerer.emit_const(width, 0));
            lowerer.terminate(Terminator::Return { value });
        }
    }
    let blocks = lowerer
        .blocks
        .into_iter()
        .map(|b| Block {
            insts: b.insts,
            term: b.term.expect("every block terminated"),
            term_stmt: b.term_stmt,
        })
        .collect();
    Ok(IrFunction {
        name: function.name.clone(),
        frame_size: lowerer.frame_size,
        params,
        ret_width,
        blocks,
        temp_widths: lowerer.temp_widths,
    })
}

struct BlockBuild {
    insts: Vec<Inst>,
    term: Option<Terminator>,
    term_stmt: Option<usize>,
}

impl BlockBuild {
    fn new() -> Self {
        BlockBuild {
            insts: Vec::new(),
            term: None,
            term_stmt: None,
        }
    }
}

struct Lowerer<'a> {
    debug: &'a DebugInfo,
    fn_debug: &'a cp_lang::FunctionDebug,
    function_indices: &'a [&'a str],
    fn_rets: &'a [Option<Width>],
    blocks: Vec<BlockBuild>,
    cur: BlockId,
    temp_widths: Vec<Width>,
    current_stmt: Option<usize>,
    frame_size: usize,
    slots_aligned: bool,
}

impl<'a> Lowerer<'a> {
    fn temp(&mut self, width: Width) -> Temp {
        self.temp_widths.push(width);
        (self.temp_widths.len() - 1) as Temp
    }

    fn emit(&mut self, kind: InstKind) {
        let stmt = self.current_stmt;
        self.blocks[self.cur].insts.push(Inst { kind, stmt });
    }

    fn emit_const(&mut self, width: Width, value: u64) -> Temp {
        let dst = self.temp(width);
        self.emit(InstKind::Const {
            dst,
            width,
            value: width.truncate(value),
        });
        dst
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BlockBuild::new());
        self.blocks.len() - 1
    }

    fn terminate(&mut self, term: Terminator) {
        let block = &mut self.blocks[self.cur];
        debug_assert!(block.term.is_none(), "block terminated twice");
        block.term = Some(term);
        block.term_stmt = self.current_stmt;
    }

    /// Allocates an 8-byte frame slot past the source locals, for values
    /// that must cross basic blocks (short-circuit results).
    fn alloc_slot(&mut self) -> usize {
        if !self.slots_aligned {
            self.frame_size = (self.frame_size + 7) & !7;
            self.slots_aligned = true;
        }
        let offset = self.frame_size;
        self.frame_size += 8;
        offset
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        for stmt in stmts {
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), LowerError> {
        self.current_stmt = Some(stmt.id);
        match &stmt.kind {
            StmtKind::VarDecl { name, ty, init } => {
                if let Some(init) = init {
                    let var = self
                        .fn_debug
                        .var(name)
                        .ok_or_else(|| LowerError::new(format!("unknown local `{name}`")))?;
                    let addr = self.temp(Width::W64);
                    self.emit(InstKind::FrameAddr {
                        dst: addr,
                        offset: var.frame_offset,
                    });
                    let value = self.rvalue(init)?;
                    self.emit(InstKind::Store {
                        addr,
                        value,
                        width: type_width(ty),
                    });
                }
                self.emit(InstKind::StmtEnd { stmt: stmt.id });
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let target_ty = target.ty();
                if !target_ty.is_integer() && !target_ty.is_pointer() {
                    return Err(LowerError::new(
                        "whole-struct assignment is not supported; assign fields individually",
                    ));
                }
                let addr = self.address(target)?;
                let value = self.rvalue(value)?;
                self.emit(InstKind::Store {
                    addr,
                    value,
                    width: type_width(target_ty),
                });
                self.emit(InstKind::StmtEnd { stmt: stmt.id });
                Ok(())
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let cond = self.rvalue(cond)?;
                let then_b = self.new_block();
                match else_block {
                    Some(else_stmts) => {
                        let else_b = self.new_block();
                        let join = self.new_block();
                        self.terminate(Terminator::Branch {
                            cond,
                            if_zero: else_b,
                            fallthrough: then_b,
                        });
                        self.cur = then_b;
                        self.lower_stmts(then_block)?;
                        if self.blocks[self.cur].term.is_none() {
                            self.terminate(Terminator::Jump(join));
                        }
                        self.cur = else_b;
                        self.lower_stmts(else_stmts)?;
                        if self.blocks[self.cur].term.is_none() {
                            self.terminate(Terminator::Jump(join));
                        }
                        self.cur = join;
                    }
                    None => {
                        let join = self.new_block();
                        self.terminate(Terminator::Branch {
                            cond,
                            if_zero: join,
                            fallthrough: then_b,
                        });
                        self.cur = then_b;
                        self.lower_stmts(then_block)?;
                        if self.blocks[self.cur].term.is_none() {
                            self.terminate(Terminator::Jump(join));
                        }
                        self.cur = join;
                    }
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block();
                self.terminate(Terminator::Jump(head));
                self.cur = head;
                self.current_stmt = Some(stmt.id);
                let cond = self.rvalue(cond)?;
                let body_b = self.new_block();
                let exit = self.new_block();
                self.current_stmt = Some(stmt.id);
                self.terminate(Terminator::Branch {
                    cond,
                    if_zero: exit,
                    fallthrough: body_b,
                });
                self.cur = body_b;
                self.lower_stmts(body)?;
                if self.blocks[self.cur].term.is_none() {
                    self.current_stmt = Some(stmt.id);
                    self.terminate(Terminator::Jump(head));
                }
                self.cur = exit;
                Ok(())
            }
            StmtKind::Return(value) => {
                let value = match value {
                    Some(value) => Some(self.rvalue(value)?),
                    None => None,
                };
                self.emit(InstKind::StmtEnd { stmt: stmt.id });
                self.terminate(Terminator::Return { value });
                self.cur = self.new_block();
                Ok(())
            }
            StmtKind::Exit(code) => {
                let status = self.rvalue(code)?;
                self.emit(InstKind::StmtEnd { stmt: stmt.id });
                self.terminate(Terminator::Exit { status });
                self.cur = self.new_block();
                Ok(())
            }
            StmtKind::Expr(expr) => {
                // The result temp, if any, is simply never used; the backend
                // pops it.
                self.lower_call_like(expr)?;
                self.emit(InstKind::StmtEnd { stmt: stmt.id });
                Ok(())
            }
        }
    }

    /// Lowers a call in statement position (result, if any, left unused).
    fn lower_call_like(&mut self, expr: &Expr) -> Result<(), LowerError> {
        match &expr.kind {
            ExprKind::Call { name, args } => {
                self.call(name, args)?;
                Ok(())
            }
            _ => {
                self.rvalue(expr)?;
                Ok(())
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<Option<Temp>, LowerError> {
        let mut arg_temps = Vec::with_capacity(args.len());
        for arg in args {
            arg_temps.push(self.rvalue(arg)?);
        }
        if let Some(intrinsic) = Intrinsic::from_name(name) {
            let dst = intrinsic.result_width().map(|w| self.temp(w));
            self.emit(InstKind::CallIntrinsic {
                dst,
                intrinsic,
                args: arg_temps,
            });
            return Ok(dst);
        }
        let index = self
            .function_indices
            .iter()
            .position(|candidate| *candidate == name)
            .ok_or_else(|| LowerError::new(format!("unknown function `{name}`")))?;
        let dst = self.fn_rets[index].map(|w| self.temp(w));
        self.emit(InstKind::Call {
            dst,
            function: index,
            args: arg_temps,
        });
        Ok(dst)
    }

    /// Lowers an expression for its value.
    fn rvalue(&mut self, expr: &Expr) -> Result<Temp, LowerError> {
        let ty = expr
            .ty
            .as_ref()
            .ok_or_else(|| LowerError::new("expression without a type reached lowering"))?;
        match &expr.kind {
            ExprKind::Int(value) => {
                let width = type_width(ty);
                Ok(self.emit_const(width, *value))
            }
            ExprKind::Sizeof(target) => {
                Ok(self.emit_const(Width::W64, self.debug.size_of(target) as u64))
            }
            ExprKind::Var(_)
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Deref(_) => {
                if !ty.is_integer() && !ty.is_pointer() {
                    return Err(LowerError::new(format!(
                        "cannot load a whole struct value of type `{ty}`"
                    )));
                }
                let addr = self.address(expr)?;
                let width = type_width(ty);
                let dst = self.temp(width);
                self.emit(InstKind::Load { dst, addr, width });
                Ok(dst)
            }
            ExprKind::AddrOf(inner) => self.address(inner),
            ExprKind::Cast {
                expr: inner,
                ty: target,
            } => {
                let src = self.rvalue(inner)?;
                Ok(self.cast(src, inner.ty(), target))
            }
            ExprKind::Unary { op, expr: inner } => {
                let src = self.rvalue(inner)?;
                let width = type_width(inner.ty());
                let (un_op, result_width) = match op {
                    UnaryOp::Neg => (UnOp::Neg, width),
                    UnaryOp::Not => (UnOp::Not, width),
                    UnaryOp::LogicalNot => (UnOp::LogicalNot, Width::W8),
                };
                let dst = self.temp(result_width);
                self.emit(InstKind::Unary {
                    dst,
                    op: un_op,
                    width,
                    src,
                });
                Ok(dst)
            }
            ExprKind::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs),
            ExprKind::Call { name, args } => {
                let dst = self.call(name, args)?;
                dst.ok_or_else(|| LowerError::new(format!("call to void function `{name}`")))
            }
        }
    }

    fn binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<Temp, LowerError> {
        if op.is_logical() {
            return self.logical(op, lhs, rhs);
        }
        if matches!(op, BinaryOp::Gt | BinaryOp::Ge) {
            // `a > b` is lowered as `b < a` (and `>=` as `<=`), matching the
            // direct compiler: the rhs is evaluated first.
            let swapped_lhs = self.rvalue(rhs)?;
            let swapped_rhs = self.rvalue(lhs)?;
            let signed = lhs.ty().is_signed();
            let width = type_width(lhs.ty());
            let bin_op = match (op, signed) {
                (BinaryOp::Gt, false) => BinOp::LtU,
                (BinaryOp::Gt, true) => BinOp::LtS,
                (BinaryOp::Ge, false) => BinOp::LeU,
                (BinaryOp::Ge, true) => BinOp::LeS,
                _ => unreachable!("only Gt/Ge are swapped"),
            };
            let dst = self.temp(Width::W8);
            self.emit(InstKind::Binary {
                dst,
                op: bin_op,
                width,
                lhs: swapped_lhs,
                rhs: swapped_rhs,
            });
            return Ok(dst);
        }
        let lhs_temp = self.rvalue(lhs)?;
        let rhs_temp = self.rvalue(rhs)?;
        let operand_ty = lhs.ty();
        let signed = operand_ty.is_signed();
        let width = type_width(operand_ty);
        let bin_op = match op {
            BinaryOp::Add => BinOp::Add,
            BinaryOp::Sub => BinOp::Sub,
            BinaryOp::Mul => BinOp::Mul,
            BinaryOp::Div => {
                if signed {
                    BinOp::DivS
                } else {
                    BinOp::DivU
                }
            }
            BinaryOp::Rem => {
                if signed {
                    BinOp::RemS
                } else {
                    BinOp::RemU
                }
            }
            BinaryOp::And => BinOp::And,
            BinaryOp::Or => BinOp::Or,
            BinaryOp::Xor => BinOp::Xor,
            BinaryOp::Shl => BinOp::Shl,
            BinaryOp::Shr => {
                if signed {
                    BinOp::ShrS
                } else {
                    BinOp::ShrU
                }
            }
            BinaryOp::Eq => BinOp::Eq,
            BinaryOp::Ne => BinOp::Ne,
            BinaryOp::Lt => {
                if signed {
                    BinOp::LtS
                } else {
                    BinOp::LtU
                }
            }
            BinaryOp::Le => {
                if signed {
                    BinOp::LeS
                } else {
                    BinOp::LeU
                }
            }
            BinaryOp::Gt | BinaryOp::Ge | BinaryOp::LogicalAnd | BinaryOp::LogicalOr => {
                unreachable!("handled above")
            }
        };
        let result_width = if bin_op.is_comparison() {
            Width::W8
        } else {
            width
        };
        let dst = self.temp(result_width);
        self.emit(InstKind::Binary {
            dst,
            op: bin_op,
            width,
            lhs: lhs_temp,
            rhs: rhs_temp,
        });
        Ok(dst)
    }

    /// Short-circuit lowering.  Like the direct compiler, `a && b` becomes
    /// two conditional branches — each atomic comparison of a composite
    /// check stays its own branch site.  The 0/1 result crosses the merge
    /// point through a dedicated frame slot (the operand stack is empty at
    /// block boundaries in emitted code).
    fn logical(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<Temp, LowerError> {
        let slot = self.alloc_slot();
        match op {
            BinaryOp::LogicalAnd => {
                let first = self.rvalue(lhs)?;
                let rhs_b = self.new_block();
                let true_b = self.new_block();
                let false_b = self.new_block();
                let join = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: first,
                    if_zero: false_b,
                    fallthrough: rhs_b,
                });
                self.cur = rhs_b;
                let second = self.rvalue(rhs)?;
                self.terminate(Terminator::Branch {
                    cond: second,
                    if_zero: false_b,
                    fallthrough: true_b,
                });
                self.store_flag(true_b, slot, 1, join);
                self.store_flag(false_b, slot, 0, join);
                self.cur = join;
                Ok(self.load_flag(slot))
            }
            BinaryOp::LogicalOr => {
                let first = self.rvalue(lhs)?;
                let true1_b = self.new_block();
                let rhs_b = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: first,
                    if_zero: rhs_b,
                    fallthrough: true1_b,
                });
                self.cur = rhs_b;
                let second = self.rvalue(rhs)?;
                let true2_b = self.new_block();
                let false_b = self.new_block();
                let join = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: second,
                    if_zero: false_b,
                    fallthrough: true2_b,
                });
                self.store_flag(true1_b, slot, 1, join);
                self.store_flag(true2_b, slot, 1, join);
                self.store_flag(false_b, slot, 0, join);
                self.cur = join;
                Ok(self.load_flag(slot))
            }
            _ => unreachable!("logical lowering only handles logical operators"),
        }
    }

    /// Emits `*slot = value; goto join` into `block` (the short-circuit
    /// arms).  The flag is a W32 0/1, matching the direct compiler's pushes.
    fn store_flag(&mut self, block: BlockId, slot: usize, value: u64, join: BlockId) {
        self.cur = block;
        let addr = self.temp(Width::W64);
        self.emit(InstKind::FrameAddr {
            dst: addr,
            offset: slot,
        });
        let flag = self.emit_const(Width::W32, value);
        self.emit(InstKind::Store {
            addr,
            value: flag,
            width: Width::W32,
        });
        self.terminate(Terminator::Jump(join));
    }

    fn load_flag(&mut self, slot: usize) -> Temp {
        let addr = self.temp(Width::W64);
        self.emit(InstKind::FrameAddr {
            dst: addr,
            offset: slot,
        });
        let dst = self.temp(Width::W32);
        self.emit(InstKind::Load {
            dst,
            addr,
            width: Width::W32,
        });
        dst
    }

    fn cast(&mut self, src: Temp, source: &Type, target: &Type) -> Temp {
        let from = type_width(source);
        let to = type_width(target);
        if from == to {
            return src;
        }
        let kind = if to.bits() > from.bits() {
            if source.is_signed() {
                CastKind::SignExt
            } else {
                CastKind::ZeroExt
            }
        } else {
            CastKind::Truncate
        };
        let dst = self.temp(to);
        self.emit(InstKind::Cast {
            dst,
            kind,
            from,
            to,
            src,
        });
        dst
    }

    /// Lowers the address of an lvalue to a 64-bit temp.
    fn address(&mut self, expr: &Expr) -> Result<Temp, LowerError> {
        match &expr.kind {
            ExprKind::Var(name) => {
                if let Some(var) = self.fn_debug.var(name) {
                    let dst = self.temp(Width::W64);
                    self.emit(InstKind::FrameAddr {
                        dst,
                        offset: var.frame_offset,
                    });
                    return Ok(dst);
                }
                if let Some(global) = self.debug.global(name) {
                    let dst = self.temp(Width::W64);
                    self.emit(InstKind::GlobalAddr {
                        dst,
                        offset: global.offset,
                    });
                    return Ok(dst);
                }
                Err(LowerError::new(format!("unknown variable `{name}`")))
            }
            ExprKind::Deref(inner) => self.rvalue(inner),
            ExprKind::Field { base, field } => {
                let (base_addr, struct_name) = match base.ty() {
                    Type::Struct(name) => (self.address(base)?, name),
                    Type::Ptr(inner) => match inner.as_ref() {
                        Type::Struct(name) => (self.rvalue(base)?, name),
                        other => {
                            return Err(LowerError::new(format!(
                                "field access through pointer to non-struct `{other}`"
                            )))
                        }
                    },
                    other => {
                        return Err(LowerError::new(format!(
                            "field access on non-struct `{other}`"
                        )))
                    }
                };
                let layout =
                    self.debug.structs.get(struct_name).ok_or_else(|| {
                        LowerError::new(format!("unknown struct `{struct_name}`"))
                    })?;
                let field_layout = layout.field(field).ok_or_else(|| {
                    LowerError::new(format!("struct `{struct_name}` has no field `{field}`"))
                })?;
                if field_layout.offset == 0 {
                    return Ok(base_addr);
                }
                let offset = self.emit_const(Width::W64, field_layout.offset as u64);
                let dst = self.temp(Width::W64);
                self.emit(InstKind::Binary {
                    dst,
                    op: BinOp::Add,
                    width: Width::W64,
                    lhs: base_addr,
                    rhs: offset,
                });
                Ok(dst)
            }
            ExprKind::Index { base, index } => {
                let base_addr = self.rvalue(base)?;
                let index_temp = self.rvalue(index)?;
                let index_w64 = self.cast(index_temp, index.ty(), &Type::U64);
                let element_ty = base
                    .ty()
                    .pointee()
                    .ok_or_else(|| LowerError::new("indexing a non-pointer"))?;
                let element_size = self.debug.size_of(element_ty) as u64;
                let scaled = if element_size == 1 {
                    index_w64
                } else {
                    let size = self.emit_const(Width::W64, element_size);
                    let scaled = self.temp(Width::W64);
                    self.emit(InstKind::Binary {
                        dst: scaled,
                        op: BinOp::Mul,
                        width: Width::W64,
                        lhs: index_w64,
                        rhs: size,
                    });
                    scaled
                };
                let dst = self.temp(Width::W64);
                self.emit(InstKind::Binary {
                    dst,
                    op: BinOp::Add,
                    width: Width::W64,
                    lhs: base_addr,
                    rhs: scaled,
                });
                Ok(dst)
            }
            _ => Err(LowerError::new("expression is not addressable")),
        }
    }
}

//! The IR optimizer: jump threading, followed at emission by the
//! backend's fall-through-jump elision.  Together they are all that
//! [`OptLevel::Full`](crate::OptLevel::Full) does.
//!
//! Threading touches control flow only.  It retargets and merges blocks and
//! drops unreachable ones, but every instruction that can execute survives
//! unchanged and in order, so the detectors fire exactly as at `-O0` (see
//! the crate docs).  It is deterministic: it keeps no hash map.

use crate::{Block, BlockId, IrFunction, IrProgram, Terminator};

/// Runs the optimizer over every function.
pub fn optimize(mut program: IrProgram) -> IrProgram {
    for function in &mut program.functions {
        jump_thread(function);
    }
    program
}

/// Jump threading and CFG cleanup:
/// - retargets jumps and branches through empty forwarding blocks,
/// - collapses branches whose arms coincide into jumps,
/// - deletes unreachable blocks,
/// - merges a block into its unique jump predecessor.
///
/// Only unconditional control flow is touched; a conditional branch on a
/// runtime value is a potential check site and always survives.
pub fn jump_thread(function: &mut IrFunction) {
    // Resolve chains of empty `Jump` blocks (bounded to tolerate cycles).
    let resolve = |blocks: &[Block], mut target: BlockId| -> BlockId {
        for _ in 0..blocks.len() {
            let block = &blocks[target];
            match block.term {
                Terminator::Jump(next) if block.insts.is_empty() && next != target => {
                    target = next;
                }
                _ => break,
            }
        }
        target
    };
    for id in 0..function.blocks.len() {
        let mut term = function.blocks[id].term.clone();
        term.map_targets(|t| resolve(&function.blocks, t));
        if let Terminator::Branch {
            if_zero,
            fallthrough,
            ..
        } = term
        {
            if if_zero == fallthrough {
                // Both arms agree: the condition no longer decides anything.
                // (Its computation stays; the emitter pops the unused value.)
                term = Terminator::Jump(if_zero);
            }
        }
        function.blocks[id].term = term;
    }

    drop_unreachable(function);

    // Merge `a: …; jump b` with `b` when `a` is b's only predecessor.
    loop {
        let mut preds = vec![0usize; function.blocks.len()];
        for block in &function.blocks {
            for &succ in block.term.successors().iter() {
                preds[succ] += 1;
            }
        }
        let mut merged = None;
        for id in 0..function.blocks.len() {
            if let Terminator::Jump(target) = function.blocks[id].term {
                if target != id && target != 0 && preds[target] == 1 {
                    merged = Some((id, target));
                    break;
                }
            }
        }
        let Some((id, target)) = merged else { break };
        let mut tail = std::mem::replace(
            &mut function.blocks[target],
            Block {
                insts: Vec::new(),
                term: Terminator::Jump(target),
                term_stmt: None,
            },
        );
        let head = &mut function.blocks[id];
        head.insts.append(&mut tail.insts);
        head.term = tail.term;
        head.term_stmt = tail.term_stmt;
        // `target` is now an unreachable self-loop; sweep it away.
        drop_unreachable(function);
    }
}

/// Deletes the blocks not reachable from the entry and renumbers the rest,
/// keeping their order.
fn drop_unreachable(function: &mut IrFunction) {
    let blocks = &mut function.blocks;
    let mut reachable = vec![false; blocks.len()];
    let mut stack = vec![0usize];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut reachable[id], true) {
            continue;
        }
        stack.extend_from_slice(&blocks[id].term.successors());
    }
    let mut remap = vec![usize::MAX; blocks.len()];
    let mut kept = 0usize;
    for (id, live) in reachable.iter().enumerate() {
        if *live {
            remap[id] = kept;
            kept += 1;
        }
    }
    let mut index = 0usize;
    blocks.retain(|_| {
        let keep = reachable[index];
        index += 1;
        keep
    });
    for block in blocks {
        block.term.map_targets(|t| remap[t]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Inst, InstKind, IrParam, Temp};
    use cp_symexpr::{BinOp, Width};

    /// Hand-written CFG scaffolding for the pass tests.
    struct Builder {
        function: IrFunction,
        cur: BlockId,
    }

    impl Builder {
        fn new() -> Builder {
            Builder {
                function: IrFunction {
                    name: "test".into(),
                    frame_size: 64,
                    params: Vec::<IrParam>::new(),
                    ret_width: Some(Width::W32),
                    blocks: vec![Block {
                        insts: Vec::new(),
                        term: Terminator::Return { value: None },
                        term_stmt: None,
                    }],
                    temp_widths: Vec::new(),
                },
                cur: 0,
            }
        }

        fn temp(&mut self, width: Width) -> Temp {
            self.function.temp_widths.push(width);
            (self.function.temp_widths.len() - 1) as Temp
        }

        fn push(&mut self, kind: InstKind) {
            self.function.blocks[self.cur]
                .insts
                .push(Inst { kind, stmt: None });
        }

        fn konst(&mut self, width: Width, value: u64) -> Temp {
            let dst = self.temp(width);
            self.push(InstKind::Const { dst, width, value });
            dst
        }

        fn binary(&mut self, op: BinOp, width: Width, lhs: Temp, rhs: Temp) -> Temp {
            let dst = self.temp(if op.is_comparison() { Width::W8 } else { width });
            self.push(InstKind::Binary {
                dst,
                op,
                width,
                lhs,
                rhs,
            });
            dst
        }

        fn block(&mut self) -> BlockId {
            self.function.blocks.push(Block {
                insts: Vec::new(),
                term: Terminator::Return { value: None },
                term_stmt: None,
            });
            self.function.blocks.len() - 1
        }

        fn terminate(&mut self, term: Terminator) {
            self.function.blocks[self.cur].term = term;
        }

        fn output(&mut self, value: Temp) {
            self.push(InstKind::CallIntrinsic {
                dst: None,
                intrinsic: crate::Intrinsic::Output,
                args: vec![value],
            });
        }
    }

    /// Runs the whole optimizer over the single function `b` has built.
    fn optimized(b: Builder) -> IrFunction {
        let program = optimize(IrProgram {
            functions: vec![b.function],
            main: 0,
            globals_size: 0,
            global_inits: Vec::new(),
        });
        program.functions.into_iter().next().unwrap()
    }

    fn count(function: &IrFunction, pred: impl Fn(&InstKind) -> bool) -> usize {
        function
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| pred(&i.kind))
            .count()
    }

    // The optimizer has no constant folder, CSE or DCE any more.  The tests
    // below pin that every instruction a detector can observe still reaches
    // the emitter, and that a branch on a constant stays a branch.

    #[test]
    fn const_fold_refuses_wrapping_mul_and_zero_divisor() {
        let mut b = Builder::new();
        // 0x1_0000 * 0x1_0000 wraps at 32 bits: the VM would set the sticky
        // overflow flag, so the instruction must survive.
        let big = b.konst(Width::W32, 0x1_0000);
        let wrapped = b.binary(BinOp::Mul, Width::W32, big, big);
        b.output(wrapped);
        // 5 / 0 traps: the instruction must survive.
        let five = b.konst(Width::W32, 5);
        let zero = b.konst(Width::W32, 0);
        let quot = b.binary(BinOp::DivU, Width::W32, five, zero);
        b.output(quot);
        let entry = b.function.blocks[0].insts.clone();
        let function = optimized(b);
        assert_eq!(
            count(&function, |k| matches!(k, InstKind::Binary { .. })),
            2
        );
        assert_eq!(function.blocks[0].insts, entry);
    }

    #[test]
    fn optimize_leaves_a_constant_branch_in_place() {
        let mut b = Builder::new();
        let c = b.konst(Width::W8, 1);
        let t1 = b.block();
        let t2 = b.block();
        b.terminate(Terminator::Branch {
            cond: c,
            if_zero: t2,
            fallthrough: t1,
        });
        let function = optimized(b);
        assert_eq!(
            function.blocks[0].term,
            Terminator::Branch {
                cond: c,
                if_zero: t2,
                fallthrough: t1,
            }
        );
    }

    #[test]
    fn cse_refuses_overflowing_mul_even_within_a_block() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let x = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x,
            addr,
            width: Width::W32,
        });
        // Each Mul may overflow and set the sticky flag: both must run.
        let m1 = b.binary(BinOp::Mul, Width::W32, x, x);
        b.output(m1);
        let m2 = b.binary(BinOp::Mul, Width::W32, x, x);
        b.output(m2);
        let function = optimized(b);
        assert_eq!(
            count(&function, |k| matches!(
                k,
                InstKind::Binary { op: BinOp::Mul, .. }
            )),
            2
        );
    }

    #[test]
    fn optimize_keeps_unread_mul_div_and_load() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let x = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x,
            addr,
            width: Width::W32,
        });
        // Nothing reads these results, and there is no DCE to drop them.
        b.binary(BinOp::Mul, Width::W32, x, x);
        b.binary(BinOp::DivU, Width::W32, x, x);
        let entry = b.function.blocks[0].insts.clone();
        let function = optimized(b);
        assert_eq!(function.blocks[0].insts, entry);
        assert_eq!(count(&function, |k| matches!(k, InstKind::Load { .. })), 1);
    }

    #[test]
    fn jump_threading_skips_empty_blocks_and_merges() {
        let mut b = Builder::new();
        let hop = b.block();
        let tail = b.block();
        b.terminate(Terminator::Jump(hop));
        b.cur = hop;
        b.terminate(Terminator::Jump(tail));
        b.cur = tail;
        let v = b.konst(Width::W32, 3);
        b.terminate(Terminator::Return { value: Some(v) });
        jump_thread(&mut b.function);
        // Everything collapses into the entry block.
        assert_eq!(b.function.blocks.len(), 1);
        assert_eq!(
            b.function.blocks[0].term,
            Terminator::Return { value: Some(v) }
        );
        assert_eq!(b.function.blocks[0].insts.len(), 1);
    }

    #[test]
    fn jump_threading_collapses_equal_arm_branches_only() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let c = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: c,
            addr,
            width: Width::W32,
        });
        let same = b.block();
        b.terminate(Terminator::Branch {
            cond: c,
            if_zero: same,
            fallthrough: same,
        });
        b.cur = same;
        let real = b.block();
        let other = b.block();
        let c2 = b.temp(Width::W32);
        let addr2 = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr2,
            offset: 8,
        });
        b.push(InstKind::Load {
            dst: c2,
            addr: addr2,
            width: Width::W32,
        });
        b.terminate(Terminator::Branch {
            cond: c2,
            if_zero: other,
            fallthrough: real,
        });
        jump_thread(&mut b.function);
        let branches = b
            .function
            .blocks
            .iter()
            .filter(|bl| matches!(bl.term, Terminator::Branch { .. }))
            .count();
        // The equal-arm branch is gone; the genuine two-way branch survives
        // (it is a potential check site).
        assert_eq!(branches, 1);
    }

    #[test]
    fn jump_threading_drops_unreachable_blocks() {
        let mut b = Builder::new();
        let live = b.block();
        let dead = b.block();
        b.terminate(Terminator::Jump(live));
        b.cur = live;
        let v = b.konst(Width::W32, 0);
        b.terminate(Terminator::Return { value: Some(v) });
        b.cur = dead;
        let w = b.konst(Width::W32, 9);
        b.terminate(Terminator::Exit { status: w });
        jump_thread(&mut b.function);
        assert!(b
            .function
            .blocks
            .iter()
            .all(|bl| !matches!(bl.term, Terminator::Exit { .. })));
    }
}

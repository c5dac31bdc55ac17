//! Randomized differential test of `MachineState`'s memory against a
//! reference model.
//!
//! The model below is the straightforward per-byte design: one hash map of
//! bytes, one of shadow entries keyed by start address and one set of
//! overflowed addresses, with the linear heap bounds check.  Seeded
//! sequences of stores, loads, shadow and overflow updates run against both,
//! and every observable result must agree: concrete values, bounds errors,
//! overflow flags, and load shadows.  Both sides intern into the same arena
//! epoch, so equal shadows are the same `ExprRef`.

use cp_symexpr::bytes::{recompose, ByteVal};
use cp_symexpr::{ArenaEpoch, BinOp, ExprBuild, ExprRef, SymExpr, Width};
use cp_vm::{MachineState, VmError, GLOBAL_BASE, HEAP_BASE, STACK_BASE, STACK_SIZE};
use std::collections::{HashMap, HashSet};

/// Size of the global segment: it extends 64 bytes past the 4 KiB page
/// boundary at `GLOBAL_BASE + 0x1000`, so accesses there straddle two pages.
const GLOBALS_SIZE: usize = 0x1000 + 64;

/// The reference memory model.
#[derive(Default)]
struct Model {
    memory: HashMap<u64, u8>,
    shadow: HashMap<u64, (Width, ExprRef)>,
    overflowed: HashSet<u64>,
    allocations: Vec<(u64, u64)>,
}

impl Model {
    fn check_access(&self, addr: u64, len: usize, write: bool) -> Result<(), VmError> {
        let end = addr.saturating_add(len as u64);
        if addr >= GLOBAL_BASE && end <= GLOBAL_BASE + GLOBALS_SIZE as u64 {
            return Ok(());
        }
        if addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE {
            return Ok(());
        }
        if addr >= HEAP_BASE {
            if self
                .allocations
                .iter()
                .any(|&(base, size)| addr >= base && end <= base + size)
            {
                return Ok(());
            }
            return Err(VmError::OutOfBounds { addr, len, write });
        }
        Err(VmError::UnmappedAccess { addr, write })
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), VmError> {
        self.check_access(addr, width.bytes(), true)?;
        for i in 0..width.bytes() {
            self.memory
                .insert(addr + i as u64, ((value >> (8 * i)) & 0xFF) as u8);
        }
        Ok(())
    }

    fn load(&self, addr: u64, width: Width) -> Result<u64, VmError> {
        self.check_access(addr, width.bytes(), false)?;
        let mut value = 0;
        for i in 0..width.bytes() {
            let byte = self.memory.get(&(addr + i as u64)).copied().unwrap_or(0);
            value |= (byte as u64) << (8 * i);
        }
        Ok(value)
    }

    fn set_shadow(&mut self, addr: u64, width: Width, expr: Option<ExprRef>) {
        let end = addr + width.bytes() as u64;
        let mut evicted = Vec::new();
        for start in addr.saturating_sub(7)..end {
            if start >= addr {
                if let Some((w, e)) = self.shadow.remove(&start) {
                    evicted.push((start, w, e));
                }
                continue;
            }
            if let Some((w, _)) = self.shadow.get(&start) {
                if start + w.bytes() as u64 > addr {
                    let (w, e) = self.shadow.remove(&start).unwrap();
                    evicted.push((start, w, e));
                }
            }
        }
        for (start, w, e) in evicted {
            for offset in 0..w.bytes() as u64 {
                let byte_addr = start + offset;
                if (addr..end).contains(&byte_addr) {
                    continue;
                }
                let byte = if offset == 0 {
                    e
                } else {
                    e.binop(BinOp::ShrU, SymExpr::constant(w, 8 * offset))
                };
                self.shadow
                    .insert(byte_addr, (Width::W8, byte.truncate(Width::W8)));
            }
        }
        if let Some(expr) = expr {
            self.shadow.insert(addr, (width, expr));
        }
    }

    fn shadow_byte(&self, addr: u64) -> Option<ExprRef> {
        for start in addr.saturating_sub(7)..=addr {
            let Some((width, expr)) = self.shadow.get(&start) else {
                continue;
            };
            if start + width.bytes() as u64 <= addr {
                continue;
            }
            let offset = addr - start;
            let byte = if offset == 0 {
                *expr
            } else {
                expr.binop(BinOp::ShrU, SymExpr::constant(*width, 8 * offset))
            };
            return Some(byte.truncate(Width::W8));
        }
        None
    }

    fn load_shadow(&self, addr: u64, width: Width) -> Option<ExprRef> {
        if let Some((w, expr)) = self.shadow.get(&addr) {
            if *w == width {
                return Some(*expr);
            }
        }
        let mut bytes = Vec::new();
        let mut tainted = false;
        for i in 0..width.bytes() {
            let byte_addr = addr + i as u64;
            match self.shadow_byte(byte_addr) {
                Some(expr) => {
                    tainted = true;
                    bytes.push(ByteVal::Sym(expr));
                }
                None => {
                    let concrete = self.memory.get(&byte_addr).copied().unwrap_or(0);
                    bytes.push(ByteVal::Known(concrete));
                }
            }
        }
        tainted.then(|| recompose(&bytes, width))
    }

    fn set_overflowed(&mut self, addr: u64, width: Width, overflowed: bool) {
        for i in 0..width.bytes() as u64 {
            if overflowed {
                self.overflowed.insert(addr + i);
            } else {
                self.overflowed.remove(&(addr + i));
            }
        }
    }

    fn is_overflowed(&self, addr: u64, width: Width) -> bool {
        (0..width.bytes() as u64).any(|i| self.overflowed.contains(&(addr + i)))
    }
}

/// SplitMix64: a tiny deterministic generator for the op sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn width(&mut self) -> Width {
        [Width::W8, Width::W16, Width::W32, Width::W64][self.below(4) as usize]
    }
}

/// A tainted expression of the given width over a random input byte.
fn tainted_expr(rng: &mut Rng, width: Width) -> ExprRef {
    let leaf = SymExpr::input_byte(rng.below(16) as usize);
    let expr = if width == Width::W8 {
        leaf
    } else {
        leaf.zext(width)
    };
    if rng.below(2) == 0 {
        expr
    } else {
        let k = SymExpr::constant(width, rng.below(256));
        expr.binop(BinOp::Add, k)
    }
}

/// Runs one seeded sequence of `ops` operations against both memories.
fn run_sequence(seed: u64, ops: usize) {
    let _epoch = ArenaEpoch::begin();
    let mut rng = Rng(seed);
    let mut state = MachineState::new(GLOBALS_SIZE);
    let mut model = Model::default();
    // A two-page heap block whose interior crosses a page boundary, then a
    // run of small blocks separated by guard gaps.
    for size in [0x2000u64, 24, 8, 1, 40, 3] {
        let base = state.allocate(size, u64::MAX).unwrap();
        model.allocations.push((base, size));
    }
    let heap_block = model.allocations[0].0;
    let small_block = model.allocations[2].0;
    // Windows around page boundaries in each segment, plus the edges of
    // the small heap blocks (which reach into their guard gaps).
    let windows = [
        GLOBAL_BASE,
        GLOBAL_BASE + 0x1000,
        GLOBAL_BASE + GLOBALS_SIZE as u64,
        STACK_BASE,
        STACK_BASE + 0x1000,
        STACK_BASE + STACK_SIZE,
        heap_block + 0x1000,
        heap_block + 0x2000,
        small_block,
        small_block + 8,
    ];
    for step in 0..ops {
        let centre = windows[rng.below(windows.len() as u64) as usize];
        let addr = (centre - 12) + rng.below(24);
        let width = rng.width();
        let ctx = || format!("seed {seed} step {step}: {width:?} at {addr:#x}");
        match rng.below(8) {
            0 | 1 => {
                let value = rng.next();
                assert_eq!(
                    state.store(addr, width, value),
                    model.store(addr, width, value),
                    "store, {}",
                    ctx()
                );
            }
            2 => assert_eq!(
                state.load(addr, width),
                model.load(addr, width),
                "load, {}",
                ctx()
            ),
            3 | 4 => {
                let expr = (rng.below(3) != 0).then(|| tainted_expr(&mut rng, width));
                state.set_shadow(addr, width, expr);
                model.set_shadow(addr, width, expr);
            }
            5 => assert_eq!(
                state.load_shadow(addr, width),
                model.load_shadow(addr, width),
                "load_shadow, {}",
                ctx()
            ),
            6 => {
                let flag = rng.below(2) == 0;
                state.set_overflowed(addr, width, flag);
                model.set_overflowed(addr, width, flag);
            }
            _ => assert_eq!(
                state.is_overflowed(addr, width),
                model.is_overflowed(addr, width),
                "is_overflowed, {}",
                ctx()
            ),
        }
    }
    // Final sweep: every byte and every aligned-or-not word in the windows
    // reads back identically.
    for &centre in &windows {
        for addr in centre - 12..centre + 12 {
            for width in [Width::W8, Width::W16, Width::W32, Width::W64] {
                assert_eq!(state.load(addr, width), model.load(addr, width));
                assert_eq!(
                    state.load_shadow(addr, width),
                    model.load_shadow(addr, width),
                    "final load_shadow, seed {seed}: {width:?} at {addr:#x}"
                );
                assert_eq!(
                    state.is_overflowed(addr, width),
                    model.is_overflowed(addr, width)
                );
            }
        }
    }
}

#[test]
fn memory_matches_reference_model() {
    for seed in 0..24 {
        run_sequence(0xC0DE_0000 + seed, 3_000);
    }
}

#[test]
fn heap_bounds_errors_match_reference_model_across_many_allocations() {
    let mut rng = Rng(7);
    let mut state = MachineState::new(0);
    let mut model = Model::default();
    for _ in 0..300 {
        let size = rng.below(100);
        let base = state.allocate(size, u64::MAX).unwrap();
        model.allocations.push((base, size));
    }
    let heap_end = state.heap_top + 64;
    for _ in 0..20_000 {
        let addr = HEAP_BASE - 4 + rng.below(heap_end - HEAP_BASE);
        let width = rng.width();
        assert_eq!(
            state.load(addr, width),
            model.load(addr, width),
            "{width:?} at {addr:#x}"
        );
    }
}

//! Machine state: paged memory with per-byte shadow and overflow bits,
//! frames, operand stacks and the heap.
//!
//! Memory is a store of 4 KiB pages, committed on first write.  Pages below
//! the end of the stack segment (the globals and the stack, both contiguous
//! and bounded) sit in a directly indexed table; heap pages are kept sparse,
//! keyed by page number, so a large allocation commits nothing until it is
//! written.  Besides its bytes, each page holds two bitsets with one bit per
//! byte:
//!
//! * `overflowed` — the byte belongs to a stored value whose computation
//!   wrapped (the sticky overflow flag of [`Value`]);
//! * `covered` — the byte lies inside some symbolic shadow entry.
//!
//! Shadow entries live in a map keyed by start address, and at most one
//! entry covers any byte.  The `covered` bits mirror that map exactly, which
//! lets untainted accesses skip the map altogether: a load whose bytes are
//! all uncovered has no shadow, and a store over uncovered bytes evicts
//! nothing.

use crate::error::VmError;
use crate::{GLOBAL_BASE, HEAP_BASE, HEAP_GUARD, STACK_BASE, STACK_SIZE};
use cp_symexpr::bytes::{recompose, ByteVal};
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, Width};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A concrete runtime value on the operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Value {
    /// The raw bits, truncated to `width`.
    pub raw: u64,
    /// Nominal width of the value.
    pub width: Width,
    /// Sticky flag: the value was produced by (or derived from) an arithmetic
    /// operation that wrapped.  The allocator checks this flag to detect the
    /// paper's "integer overflow at a memory allocation site" errors.
    pub overflowed: bool,
}

impl Value {
    /// Creates a value without the overflow flag.
    pub fn new(width: Width, raw: u64) -> Self {
        Value {
            raw: width.truncate(raw),
            width,
            overflowed: false,
        }
    }

    /// Creates a value with an explicit overflow flag.
    pub fn with_overflow(width: Width, raw: u64, overflowed: bool) -> Self {
        Value {
            raw: width.truncate(raw),
            width,
            overflowed,
        }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }
}

/// One live heap allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub base: u64,
    /// Size in bytes actually granted to the program.
    pub size: u64,
}

impl Allocation {
    /// Whether the range `[addr, addr + len)` lies entirely inside the
    /// allocation.
    pub fn contains_range(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.saturating_add(len as u64) <= self.base + self.size
    }
}

/// One activation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Index of the executing function.
    pub function: usize,
    /// Unique invocation id (monotonically increasing across the run).
    pub invocation: u64,
    /// Base address of the frame within the stack segment.
    pub frame_base: u64,
    /// Saved program counter of the caller (the instruction to resume after
    /// the call instruction).
    pub return_pc: usize,
    /// Height of the operand stack when the frame was entered (used to detect
    /// malformed bytecode on return).
    pub operand_base: usize,
}

/// log2 of the page size.
const PAGE_BITS: u32 = 12;
/// Bytes per page.
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Words in a page's per-byte bitsets.
const BITSET_WORDS: usize = PAGE_SIZE / 64;
/// Pages indexed directly: every page below the end of the stack segment,
/// which covers the globals and the stack.
const LOW_PAGES: usize = ((STACK_BASE + STACK_SIZE) >> PAGE_BITS) as usize;

/// One 4 KiB page: its bytes and two per-byte bitsets.
#[derive(Clone)]
struct Page {
    bytes: [u8; PAGE_SIZE],
    overflowed: [u64; BITSET_WORDS],
    covered: [u64; BITSET_WORDS],
}

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page {
            bytes: [0; PAGE_SIZE],
            overflowed: [0; BITSET_WORDS],
            covered: [0; BITSET_WORDS],
        })
    }
}

/// The bits for bytes `[offset, offset + len)` of a page, as (word, mask)
/// pairs; `len` is at most 8, so the range spans at most two words.  The
/// second mask is zero unless the range crosses into the next word (its
/// index is clamped to stay in bounds).
fn bit_masks(offset: usize, len: usize) -> [(usize, u64); 2] {
    let (word, bit) = (offset / 64, offset % 64);
    let ones = (1u64 << len) - 1;
    let spill = if bit + len > 64 {
        ones >> (64 - bit)
    } else {
        0
    };
    [
        (word, ones << bit),
        ((word + 1).min(BITSET_WORDS - 1), spill),
    ]
}

fn any_bit(bits: &[u64; BITSET_WORDS], offset: usize, len: usize) -> bool {
    bit_masks(offset, len)
        .iter()
        .any(|&(word, mask)| bits[word] & mask != 0)
}

fn set_bits(bits: &mut [u64; BITSET_WORDS], offset: usize, len: usize, on: bool) {
    for (word, mask) in bit_masks(offset, len) {
        if on {
            bits[word] |= mask;
        } else {
            bits[word] &= !mask;
        }
    }
}

/// Splits the (at most 8-byte) range `[addr, addr + len)` at a page
/// boundary into `(page number, offset in page, length)` pieces: one, or two
/// when the range straddles pages.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let page = addr >> PAGE_BITS;
    let offset = (addr & (PAGE_SIZE as u64 - 1)) as usize;
    let first = len.min(PAGE_SIZE - offset);
    [(page, offset, first), (page + 1, 0, len - first)]
        .into_iter()
        .filter(|&(_, _, n)| n > 0)
}

/// Byte memory as a store of lazily committed pages.  Uncommitted bytes read
/// as zero, uncovered and not overflowed.
#[derive(Clone)]
struct PageStore {
    /// Pages below [`LOW_PAGES`], indexed by page number.
    low: Vec<Option<Box<Page>>>,
    /// Every other page (the heap), keyed by page number.
    high: BTreeMap<u64, Box<Page>>,
}

impl PageStore {
    fn new() -> Self {
        PageStore {
            low: vec![None; LOW_PAGES],
            high: BTreeMap::new(),
        }
    }

    fn page(&self, number: u64) -> Option<&Page> {
        if number < LOW_PAGES as u64 {
            self.low[number as usize].as_deref()
        } else {
            self.high.get(&number).map(|page| &**page)
        }
    }

    fn page_mut(&mut self, number: u64) -> Option<&mut Page> {
        if number < LOW_PAGES as u64 {
            self.low[number as usize].as_deref_mut()
        } else {
            self.high.get_mut(&number).map(|page| &mut **page)
        }
    }

    /// The page, committing it (zeroed) on first use.
    fn commit(&mut self, number: u64) -> &mut Page {
        if number < LOW_PAGES as u64 {
            self.low[number as usize].get_or_insert_with(Page::zeroed)
        } else {
            self.high.entry(number).or_insert_with(Page::zeroed)
        }
    }

    fn read(&self, addr: u64, len: usize) -> u64 {
        let mut value = 0;
        let mut shift = 0;
        for (number, offset, n) in pieces(addr, len) {
            if let Some(page) = self.page(number) {
                for (i, &byte) in page.bytes[offset..offset + n].iter().enumerate() {
                    value |= (byte as u64) << (shift + 8 * i);
                }
            }
            shift += 8 * n;
        }
        value
    }

    fn write(&mut self, addr: u64, len: usize, mut value: u64) {
        for (number, offset, n) in pieces(addr, len) {
            let page = self.commit(number);
            for byte in &mut page.bytes[offset..offset + n] {
                *byte = value as u8;
                value >>= 8;
            }
        }
    }

    fn any(&self, bits: fn(&Page) -> &[u64; BITSET_WORDS], addr: u64, len: usize) -> bool {
        pieces(addr, len).any(|(number, offset, n)| {
            self.page(number)
                .is_some_and(|p| any_bit(bits(p), offset, n))
        })
    }

    /// Sets or clears a bit range; clearing never commits a page.
    fn set(
        &mut self,
        bits: fn(&mut Page) -> &mut [u64; BITSET_WORDS],
        addr: u64,
        len: usize,
        on: bool,
    ) {
        for (number, offset, n) in pieces(addr, len) {
            let page = if on {
                Some(self.commit(number))
            } else {
                self.page_mut(number)
            };
            if let Some(page) = page {
                set_bits(bits(page), offset, n, on);
            }
        }
    }

    fn any_covered(&self, addr: u64, len: usize) -> bool {
        self.any(|p| &p.covered, addr, len)
    }

    fn set_covered(&mut self, addr: u64, len: usize, on: bool) {
        self.set(|p| &mut p.covered, addr, len, on);
    }
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let low = self.low.iter().filter(|page| page.is_some()).count();
        f.debug_struct("PageStore")
            .field("committed_pages", &(low + self.high.len()))
            .finish()
    }
}

/// The complete mutable state of a running VM.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Paged byte memory covering all segments, with each byte's
    /// `overflowed` and `covered` bits.
    memory: PageStore,
    /// Symbolic shadow of stored values, keyed by start address.  At most
    /// one entry covers any byte, and a byte's `covered` bit is set exactly
    /// when an entry covers it.
    shadow: HashMap<u64, (Width, ExprRef)>,
    /// Live heap allocations, sorted by base address.
    pub allocations: Vec<Allocation>,
    /// Next free heap address.
    pub heap_top: u64,
    /// Next free stack address.
    pub stack_top: u64,
    /// Call stack.
    pub frames: Vec<Frame>,
    /// Operand stack (concrete values).
    pub operands: Vec<Value>,
    /// Operand stack (symbolic shadows, parallel to `operands`).
    pub operand_shadow: Vec<Option<ExprRef>>,
    /// Values passed to the `output` intrinsic, in order.
    pub outputs: Vec<u64>,
    /// Executed instruction count.
    pub steps: u64,
    /// Monotonic counter used to assign invocation ids.
    pub next_invocation: u64,
    /// Size of the global segment.
    pub globals_size: usize,
}

impl MachineState {
    /// Creates a fresh machine state for a program with the given global
    /// segment size.
    pub fn new(globals_size: usize) -> Self {
        MachineState {
            memory: PageStore::new(),
            shadow: HashMap::new(),
            allocations: Vec::new(),
            heap_top: HEAP_BASE,
            stack_top: STACK_BASE,
            frames: Vec::new(),
            operands: Vec::new(),
            operand_shadow: Vec::new(),
            outputs: Vec::new(),
            steps: 0,
            next_invocation: 0,
            globals_size,
        }
    }

    /// The base address of the global segment.
    pub fn globals_base(&self) -> u64 {
        GLOBAL_BASE
    }

    /// The currently executing frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    pub fn current_frame(&self) -> &Frame {
        self.frames.last().expect("no active frame")
    }

    /// Classifies an address and checks that an access of `len` bytes is
    /// valid.
    fn check_access(&self, addr: u64, len: usize, write: bool) -> Result<(), VmError> {
        let end = addr.saturating_add(len as u64);
        if addr >= GLOBAL_BASE && end <= GLOBAL_BASE + self.globals_size as u64 {
            return Ok(());
        }
        if addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE {
            return Ok(());
        }
        if addr >= HEAP_BASE {
            // Allocations are disjoint and sorted by base, so only the last
            // one starting at or below `addr` can contain the access.
            let after = self.allocations.partition_point(|a| a.base <= addr);
            if after > 0 && self.allocations[after - 1].contains_range(addr, len) {
                return Ok(());
            }
            return Err(VmError::OutOfBounds { addr, len, write });
        }
        Err(VmError::UnmappedAccess { addr, write })
    }

    /// Stores a little-endian value.
    ///
    /// # Errors
    ///
    /// Returns the out-of-bounds / unmapped error for invalid addresses.
    pub fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), VmError> {
        self.check_access(addr, width.bytes(), true)?;
        self.memory.write(addr, width.bytes(), value);
        Ok(())
    }

    /// Loads a little-endian value (unwritten bytes read as zero).
    ///
    /// # Errors
    ///
    /// Returns the out-of-bounds / unmapped error for invalid addresses.
    pub fn load(&mut self, addr: u64, width: Width) -> Result<u64, VmError> {
        self.check_access(addr, width.bytes(), false)?;
        Ok(self.memory.read(addr, width.bytes()))
    }

    /// Records the symbolic shadow of a stored value (or clears it).
    ///
    /// Every shadow entry overlapping `[addr, addr + width)` is invalidated
    /// first: a store overwrites those bytes, so a wider entry recorded
    /// earlier would otherwise keep describing memory that no longer holds
    /// its value.  Bytes of an invalidated entry that the store does *not*
    /// overwrite keep their taint as byte-wide entries, so partial aliased
    /// overwrites neither leave stale expressions nor drop taint.  This
    /// maintains the invariant that at most one entry covers any byte, which
    /// [`MachineState::load_shadow`] relies on.
    pub fn set_shadow(&mut self, addr: u64, width: Width, expr: Option<ExprRef>) {
        let len = width.bytes();
        // Only entries covering some byte of the range overlap it.
        if self.memory.any_covered(addr, len) {
            self.evict(addr, width);
        }
        if let Some(expr) = expr {
            self.shadow.insert(addr, (width, expr));
            self.memory.set_covered(addr, len, true);
        }
    }

    /// Removes every shadow entry overlapping `[addr, addr + width)`,
    /// re-shadowing the bytes of those entries outside the range.
    fn evict(&mut self, addr: u64, width: Width) {
        let end = addr + width.bytes() as u64;
        // An entry of exactly this extent is the only one covering the
        // range, and none of its bytes survive.
        if self.shadow.get(&addr).is_some_and(|&(w, _)| w == width) {
            self.shadow.remove(&addr);
            self.memory.set_covered(addr, width.bytes(), false);
            return;
        }
        // Entries start at most 7 bytes before `addr` (the widest value is 8
        // bytes), and any entry starting inside the range overlaps.
        let mut evicted: Vec<(u64, Width, ExprRef)> = Vec::new();
        for start in addr.saturating_sub(7)..end {
            if start >= addr {
                if let Some((w, e)) = self.shadow.remove(&start) {
                    evicted.push((start, w, e));
                }
                continue;
            }
            if let Some((w, _)) = self.shadow.get(&start) {
                if start + w.bytes() as u64 > addr {
                    let (w, e) = self.shadow.remove(&start).expect("entry just probed");
                    evicted.push((start, w, e));
                }
            }
        }
        // Re-shadow the surviving bytes of evicted entries, byte by byte.
        for (start, w, e) in evicted {
            self.memory.set_covered(start, w.bytes(), false);
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
                self.memory.set_covered(byte_addr, 1, true);
            }
        }
    }

    /// The 8-bit symbolic expression describing the single byte at `addr`,
    /// extracted from whichever shadow entry covers it.
    fn shadow_byte(&self, addr: u64) -> Option<ExprRef> {
        if !self.memory.any_covered(addr, 1) {
            return None;
        }
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

    /// The symbolic shadow of a `width`-byte load at `addr`, reconstructed
    /// byte-accurately.
    ///
    /// A load that exactly matches a recorded store reuses its expression;
    /// otherwise the result is recomposed from the per-byte shadows of every
    /// covering entry, with untainted bytes contributed as the constants
    /// currently in memory.  Returns `None` when no loaded byte is tainted.
    pub fn load_shadow(&self, addr: u64, width: Width) -> Option<ExprRef> {
        if !self.memory.any_covered(addr, width.bytes()) {
            return None;
        }
        if let Some((w, expr)) = self.shadow.get(&addr) {
            if *w == width {
                return Some(*expr);
            }
        }
        let mut bytes = Vec::with_capacity(width.bytes());
        for i in 0..width.bytes() {
            let byte_addr = addr + i as u64;
            bytes.push(match self.shadow_byte(byte_addr) {
                Some(expr) => ByteVal::Sym(expr),
                None => ByteVal::Known(self.memory.read(byte_addr, 1) as u8),
            });
        }
        Some(recompose(&bytes, width))
    }

    /// Marks or clears the overflow flag for a stored value.
    pub fn set_overflowed(&mut self, addr: u64, width: Width, overflowed: bool) {
        self.memory
            .set(|p| &mut p.overflowed, addr, width.bytes(), overflowed);
    }

    /// Whether any byte of `[addr, addr+width)` holds an overflowed value.
    pub fn is_overflowed(&self, addr: u64, width: Width) -> bool {
        self.memory.any(|p| &p.overflowed, addr, width.bytes())
    }

    /// Performs a heap allocation of `size` bytes and returns its base
    /// address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::AllocationTooLarge`] when `size` exceeds `max_size`.
    pub fn allocate(&mut self, size: u64, max_size: u64) -> Result<u64, VmError> {
        if size > max_size {
            return Err(VmError::AllocationTooLarge { requested: size });
        }
        let base = self.heap_top;
        self.heap_top = self
            .heap_top
            .saturating_add(size.max(1))
            .saturating_add(HEAP_GUARD);
        self.allocations.push(Allocation { base, size });
        Ok(base)
    }

    /// Pushes a frame for `function` and returns its base address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::StackOverflow`] if the stack segment is exhausted.
    pub fn push_frame(
        &mut self,
        function: usize,
        frame_size: usize,
        return_pc: usize,
    ) -> Result<&Frame, VmError> {
        if self.stack_top + frame_size as u64 > STACK_BASE + STACK_SIZE {
            return Err(VmError::StackOverflow);
        }
        let frame_base = self.stack_top;
        self.stack_top += frame_size as u64;
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        self.frames.push(Frame {
            function,
            invocation,
            frame_base,
            return_pc,
            operand_base: self.operands.len(),
        });
        Ok(self.frames.last().expect("frame just pushed"))
    }

    /// Pops the current frame, releasing its stack space.
    pub fn pop_frame(&mut self) -> Option<Frame> {
        let frame = self.frames.pop()?;
        self.stack_top = frame.frame_base;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::SymExpr;

    #[test]
    fn store_and_load_round_trip_little_endian() {
        let mut state = MachineState::new(16);
        state.store(GLOBAL_BASE, Width::W32, 0xAABBCCDD).unwrap();
        assert_eq!(state.load(GLOBAL_BASE, Width::W32).unwrap(), 0xAABBCCDD);
        assert_eq!(state.load(GLOBAL_BASE, Width::W8).unwrap(), 0xDD);
        assert_eq!(state.load(GLOBAL_BASE + 3, Width::W8).unwrap(), 0xAA);
    }

    #[test]
    fn global_access_outside_segment_is_unmapped() {
        let mut state = MachineState::new(4);
        assert!(state.store(GLOBAL_BASE + 8, Width::W8, 1).is_err());
        assert!(state.store(0, Width::W8, 1).is_err());
    }

    #[test]
    fn heap_bounds_are_enforced() {
        let mut state = MachineState::new(0);
        let base = state.allocate(8, u64::MAX).unwrap();
        state.store(base, Width::W64, 42).unwrap();
        let err = state.store(base + 8, Width::W8, 1).unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { .. }));
        let err = state.load(base + 9, Width::W8).unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { write: false, .. }));
    }

    #[test]
    fn allocations_are_separated_by_guard_gaps() {
        let mut state = MachineState::new(0);
        let a = state.allocate(4, u64::MAX).unwrap();
        let b = state.allocate(4, u64::MAX).unwrap();
        assert!(b >= a + 4 + HEAP_GUARD);
    }

    #[test]
    fn bounds_check_finds_the_right_block_among_many_allocations() {
        let mut state = MachineState::new(0);
        let bases: Vec<u64> = (0..1000)
            .map(|i| state.allocate(i % 37 + 1, u64::MAX).unwrap())
            .collect();
        let (base, size) = (bases[500], 500 % 37 + 1);
        state.store(base, Width::W8, 1).unwrap();
        state.load(base + size - 1, Width::W8).unwrap();
        // Straddling the block's end, inside its guard gap, and past the
        // last block are all out of bounds; below the heap is unmapped.
        for (addr, width) in [
            (base + size - 1, Width::W16),
            (base + size + HEAP_GUARD / 2, Width::W8),
            (bases[999] + 64, Width::W8),
        ] {
            assert_eq!(
                state.load(addr, width),
                Err(VmError::OutOfBounds {
                    addr,
                    len: width.bytes(),
                    write: false
                })
            );
        }
        assert_eq!(
            state.store(HEAP_BASE - 1, Width::W8, 0),
            Err(VmError::UnmappedAccess {
                addr: HEAP_BASE - 1,
                write: true
            })
        );
    }

    #[test]
    fn allocation_size_cap() {
        let mut state = MachineState::new(0);
        assert!(matches!(
            state.allocate(1 << 40, 1 << 30),
            Err(VmError::AllocationTooLarge { .. })
        ));
    }

    #[test]
    fn heap_pages_are_committed_only_when_written() {
        let mut state = MachineState::new(0);
        let base = state.allocate(1 << 30, 1 << 30).unwrap();
        assert!(state.memory.high.is_empty());
        // Reads and cleared flags leave untouched pages uncommitted.
        assert_eq!(state.load(base + (1 << 29), Width::W64).unwrap(), 0);
        state.set_overflowed(base + (1 << 29), Width::W64, false);
        state.set_shadow(base + (1 << 29), Width::W64, None);
        assert!(state.memory.high.is_empty());
        state.store(base, Width::W64, 1).unwrap();
        state.store(base + (1 << 30) - 8, Width::W64, 2).unwrap();
        assert_eq!(state.memory.high.len(), 2);
    }

    #[test]
    fn overflow_flags_track_addresses() {
        let mut state = MachineState::new(16);
        state.set_overflowed(GLOBAL_BASE, Width::W32, true);
        assert!(state.is_overflowed(GLOBAL_BASE + 2, Width::W8));
        assert!(!state.is_overflowed(GLOBAL_BASE + 4, Width::W8));
        state.set_overflowed(GLOBAL_BASE, Width::W32, false);
        assert!(!state.is_overflowed(GLOBAL_BASE, Width::W32));
    }

    #[test]
    fn frames_allocate_and_release_stack_space() {
        let mut state = MachineState::new(0);
        let base1 = {
            let f = state.push_frame(0, 32, 0).unwrap();
            f.frame_base
        };
        let base2 = {
            let f = state.push_frame(1, 16, 5).unwrap();
            f.frame_base
        };
        assert_eq!(base2, base1 + 32);
        state.pop_frame();
        let base3 = state.push_frame(2, 8, 0).unwrap().frame_base;
        assert_eq!(base3, base2);
    }

    #[test]
    fn overlapping_store_invalidates_stale_wider_shadow() {
        use cp_symexpr::eval::eval;
        let mut state = MachineState::new(16);
        // A tainted 32-bit store, then an untainted byte store into its
        // second byte: the stale 4-byte expression must not survive, but the
        // three untouched bytes keep their taint.
        let input = [5u8];
        state.store(GLOBAL_BASE, Width::W32, 5).unwrap();
        state.set_shadow(
            GLOBAL_BASE,
            Width::W32,
            Some(SymExpr::input_byte(0).zext(Width::W32)),
        );
        state.store(GLOBAL_BASE + 1, Width::W8, 7).unwrap();
        state.set_shadow(GLOBAL_BASE + 1, Width::W8, None);
        // Memory now holds 0x0705; the reconstructed shadow must agree.
        let concrete = state.load(GLOBAL_BASE, Width::W32).unwrap();
        assert_eq!(concrete, 0x0705);
        let expr = state
            .load_shadow(GLOBAL_BASE, Width::W32)
            .expect("untouched bytes stay tainted");
        assert_eq!(eval(&expr, &input[..]), concrete);
    }

    #[test]
    fn narrow_load_extracts_byte_of_wider_shadow() {
        use cp_symexpr::eval::eval;
        let mut state = MachineState::new(16);
        // Store a tainted 16-bit value (b0 << 8 | b1 little-endian layout:
        // byte 0 holds b1's position).  Loading one byte must keep taint.
        let expr = SymExpr::input_byte(0)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(1).zext(Width::W16));
        state.store(GLOBAL_BASE, Width::W16, 0x1234).unwrap();
        state.set_shadow(GLOBAL_BASE, Width::W16, Some(expr));
        let input = [0x12u8, 0x34];
        let low = state
            .load_shadow(GLOBAL_BASE, Width::W8)
            .expect("low byte stays tainted");
        let high = state
            .load_shadow(GLOBAL_BASE + 1, Width::W8)
            .expect("high byte stays tainted");
        assert_eq!(eval(&low, &input[..]), 0x34);
        assert_eq!(eval(&high, &input[..]), 0x12);
    }

    #[test]
    fn wide_load_recomposes_tainted_and_concrete_bytes() {
        use cp_symexpr::eval::eval;
        use cp_symexpr::input_support;
        let mut state = MachineState::new(16);
        state.store(GLOBAL_BASE, Width::W16, 0x0007).unwrap();
        state.set_shadow(GLOBAL_BASE, Width::W8, Some(SymExpr::input_byte(5)));
        let expr = state
            .load_shadow(GLOBAL_BASE, Width::W16)
            .expect("one tainted byte taints the word");
        // Byte 0 is symbolic, byte 1 is the concrete 0x00 from memory.
        let input = [0u8, 0, 0, 0, 0, 0x42];
        assert_eq!(eval(&expr, &input[..]), 0x42);
        assert_eq!(
            input_support(&expr).into_iter().collect::<Vec<_>>(),
            vec![5]
        );
    }
}

//! Common-subexpression elimination within straight-line regions.
//!
//! Pure register computations (arithmetic, broadcasts, shuffles, blends)
//! and loads are keyed on their operation and the *versions* of their
//! inputs; a repeated computation is replaced by a register move, which
//! copy propagation and DCE then dissolve. Loads participate with a
//! per-buffer epoch that is bumped by any store to the buffer (distinct
//! buffers never alias, by C-IR construction).
//!
//! Throughput notes: the pass streams over the body and rewrites repeated
//! computations *in place* (no rebuilt instruction vectors, no clones);
//! register versions and buffer epochs live in dense tables indexed by
//! register/buffer id; and commutative canonicalization uses the derived
//! [`Ord`] on the key types directly.
//!
//! Across cleanup-fixpoint rounds the pass is **incremental**
//! ([`cse_incremental`]): a [`CseCache`] memoizes each instruction's
//! hashed key under its destination register, and a round re-keys only
//! instructions whose destination or operands appear in the
//! [`DirtyLog`] seeded by the other cleanup passes. The availability
//! maps and version/epoch tables are still rebuilt from scratch every
//! round — only key *construction and hashing* (the dominant cost at
//! tens of thousands of instructions) is memoized — so the rewrite
//! decisions are bit-identical to a from-scratch run by construction.
//!
//! Reusing a memoized key is sound because a key depends only on the
//! instruction's content and its operands' version/epoch numbering at
//! that point of the scan, and every event that can change either marks
//! the dirty log (see the seeding rules in [`super`]): content rewrites
//! mark the destination; a deleted definition marks its register (reader
//! versions may shift); a deleted store marks its buffer (load epochs
//! shift); region merges mark everything. Registers with more than one
//! static definition are never memoized (one slot cannot represent two
//! program points), and debug builds recompute every reused key and
//! assert equality.

use crate::func::{CStmt, Function};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::instr::{BinOp, FmaKind, Instr, LaneSel, SOperand, SReg, VReg};
use crate::passes::{DirtyLog, RoundStats};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    SBin(BinOp, SKey, SKey),
    SFma(FmaKind, SKey, SKey, SKey),
    SSqrt(SKey),
    SLoad(usize, i64, u64),
    VBin(BinOp, VKey, VKey),
    VFma(FmaKind, VKey, VKey, VKey),
    VBroadcast(SKey),
    VShuffle(VKey, VKey, Vec<LaneSel>),
    VBlend(VKey, VKey, Vec<bool>),
    VLoad(usize, i64, Vec<Option<i64>>, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SKey {
    Reg(SReg, u32),
    Imm(u64),
}

type VKey = (VReg, u32);

/// A CSE key with its hash precomputed once. Used both as the memoized
/// per-register cache entry and as the availability-map key, so a reused
/// key is never re-hashed: `Hash` just writes the stored 64-bit value,
/// and `Eq` falls back to full key comparison only on hash collision.
#[derive(Debug, Clone)]
struct CachedKey {
    hash: u64,
    key: Rc<Key>,
}

impl CachedKey {
    fn new(key: Key) -> Self {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        CachedKey { hash: h.finish(), key: Rc::new(key) }
    }
}

impl PartialEq for CachedKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}
impl Eq for CachedKey {}
impl Hash for CachedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Memoized key of the (single) instruction defining a register.
#[derive(Debug, Clone, Default)]
enum Slot {
    /// No definition seen yet (or register unused).
    #[default]
    Unknown,
    /// More than one static definition (cross-region first-definitions,
    /// rename copy-backs): never memoized, one slot cannot stand for two
    /// program points.
    Multi,
    /// The definition is not CSE-keyed (moves, extracts, symbolic-offset
    /// loads).
    NonKeyed,
    /// The definition's key, hashed once.
    Keyed(CachedKey),
}

/// Cross-round memo of per-definition CSE keys (see module docs).
#[derive(Debug, Default)]
pub struct CseCache {
    init: bool,
    s_slots: Vec<Slot>,
    v_slots: Vec<Slot>,
}

impl CseCache {
    /// Whether the first full scan has populated the cache.
    pub fn is_initialized(&self) -> bool {
        self.init
    }

    /// Size the slot tables and mark multi-definition registers.
    fn prepare(&mut self, f: &Function) {
        self.s_slots = vec![Slot::Unknown; f.n_sregs];
        self.v_slots = vec![Slot::Unknown; f.n_vregs];
        let mut sdefs = vec![0u8; f.n_sregs];
        let mut vdefs = vec![0u8; f.n_vregs];
        f.for_each_instr(&mut |ins| {
            if let Some(r) = ins.sreg_write() {
                super::grow_update(&mut sdefs, r.0, |c| *c = c.saturating_add(1));
            }
            if let Some(r) = ins.vreg_write() {
                super::grow_update(&mut vdefs, r.0, |c| *c = c.saturating_add(1));
            }
        });
        for (slot, n) in self.s_slots.iter_mut().zip(&sdefs) {
            if *n >= 2 {
                *slot = Slot::Multi;
            }
        }
        for (slot, n) in self.v_slots.iter_mut().zip(&vdefs) {
            if *n >= 2 {
                *slot = Slot::Multi;
            }
        }
    }

    fn s_slot(&self, r: SReg) -> &Slot {
        self.s_slots.get(r.0).unwrap_or(&Slot::Unknown)
    }
    fn v_slot(&self, r: VReg) -> &Slot {
        self.v_slots.get(r.0).unwrap_or(&Slot::Unknown)
    }
    fn set_s(&mut self, r: SReg, slot: Slot) {
        super::grow_update(&mut self.s_slots, r.0, |s| {
            if !matches!(s, Slot::Multi) {
                *s = slot;
            }
        });
    }
    fn set_v(&mut self, r: VReg, slot: Slot) {
        super::grow_update(&mut self.v_slots, r.0, |s| {
            if !matches!(s, Slot::Multi) {
                *s = slot;
            }
        });
    }
}

/// Pass state: dense version/epoch tables plus the availability maps.
///
/// Table slots are `(generation, value)` pairs; a slot from an older
/// generation reads as the default, which makes [`Cse::reset`] O(1)
/// regardless of table size (no per-boundary refills).
struct Cse {
    gen: u32,
    svers: Vec<(u32, u32)>,
    vvers: Vec<(u32, u32)>,
    epochs: Vec<(u32, u64)>,
    avail_s: FxHashMap<CachedKey, (SReg, u32)>,
    avail_v: FxHashMap<CachedKey, (VReg, u32)>,
}

impl Cse {
    fn for_function(f: &Function) -> Self {
        Cse {
            gen: 0,
            svers: vec![(0, 0); f.n_sregs],
            vvers: vec![(0, 0); f.n_vregs],
            epochs: vec![(0, 0); f.buffers.len()],
            avail_s: FxHashMap::default(),
            avail_v: FxHashMap::default(),
        }
    }

    /// Forget everything (control-flow boundary).
    fn reset(&mut self) {
        self.gen += 1;
        self.avail_s.clear();
        self.avail_v.clear();
    }

    fn sver(&self, r: SReg) -> u32 {
        match self.svers.get(r.0) {
            Some((g, v)) if *g == self.gen => *v,
            _ => 0,
        }
    }
    fn vver(&self, r: VReg) -> u32 {
        match self.vvers.get(r.0) {
            Some((g, v)) if *g == self.gen => *v,
            _ => 0,
        }
    }
    fn epoch(&self, b: usize) -> u64 {
        match self.epochs.get(b) {
            Some((g, e)) if *g == self.gen => *e,
            _ => 0,
        }
    }
    fn bump_s(&mut self, r: SReg) {
        let gen = self.gen;
        super::grow_update(&mut self.svers, r.0, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
    }
    fn bump_v(&mut self, r: VReg) {
        let gen = self.gen;
        super::grow_update(&mut self.vvers, r.0, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
    }
    fn bump_epoch(&mut self, b: usize) {
        let gen = self.gen;
        super::grow_update(&mut self.epochs, b, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
    }
    fn skey(&self, o: &SOperand) -> SKey {
        match o {
            SOperand::Reg(r) => SKey::Reg(*r, self.sver(*r)),
            SOperand::Imm(v) => SKey::Imm(v.to_bits()),
        }
    }
    fn vkey(&self, r: VReg) -> VKey {
        (r, self.vver(r))
    }
}

fn instr_key(st: &Cse, ins: &Instr) -> Option<Key> {
    match ins {
        Instr::SBin { op, a, b, .. } => {
            let (ka, kb) = (st.skey(a), st.skey(b));
            // commutative ops: canonical operand order
            let (ka, kb) = match op {
                BinOp::Add | BinOp::Mul if kb < ka => (kb, ka),
                _ => (ka, kb),
            };
            Some(Key::SBin(*op, ka, kb))
        }
        Instr::SFma { kind, a, b, c, .. } => {
            // the product commutes; the addend does not
            let (ka, kb) = (st.skey(a), st.skey(b));
            let (ka, kb) = if kb < ka { (kb, ka) } else { (ka, kb) };
            Some(Key::SFma(*kind, ka, kb, st.skey(c)))
        }
        Instr::SSqrt { a, .. } => Some(Key::SSqrt(st.skey(a))),
        Instr::SLoad { src, .. } => {
            src.offset.as_constant().map(|off| Key::SLoad(src.buf.0, off, st.epoch(src.buf.0)))
        }
        Instr::VBin { op, a, b, .. } => {
            let (ka, kb) = (st.vkey(*a), st.vkey(*b));
            let (ka, kb) = match op {
                BinOp::Add | BinOp::Mul if kb < ka => (kb, ka),
                _ => (ka, kb),
            };
            Some(Key::VBin(*op, ka, kb))
        }
        Instr::VFma { kind, a, b, c, .. } => {
            let (ka, kb) = (st.vkey(*a), st.vkey(*b));
            let (ka, kb) = if kb < ka { (kb, ka) } else { (ka, kb) };
            Some(Key::VFma(*kind, ka, kb, st.vkey(*c)))
        }
        Instr::VBroadcast { src, .. } => Some(Key::VBroadcast(st.skey(src))),
        Instr::VShuffle { a, b, sel, .. } => {
            Some(Key::VShuffle(st.vkey(*a), st.vkey(*b), sel.clone()))
        }
        Instr::VBlend { a, b, mask, .. } => {
            Some(Key::VBlend(st.vkey(*a), st.vkey(*b), mask.clone()))
        }
        Instr::VLoad { base, lanes, .. } => base
            .offset
            .as_constant()
            .map(|off| Key::VLoad(base.buf.0, off, lanes.clone(), st.epoch(base.buf.0))),
        _ => None,
    }
}

/// Does a fresh key computation for `ins` depend on anything dirty?
/// Allocation-free by matching operands directly (the generic read
/// accessors build `Vec`s, which would dominate the clean path).
fn reads_dirty(dirty: &DirtyLog, ins: &Instr) -> bool {
    let s = |o: &SOperand| matches!(o, SOperand::Reg(r) if dirty.s_dirty(*r));
    match ins {
        Instr::SBin { a, b, .. } => s(a) || s(b),
        Instr::SFma { a, b, c, .. } => s(a) || s(b) || s(c),
        Instr::SSqrt { a, .. } => s(a),
        Instr::SLoad { src, .. } => dirty.buf_dirty(src.buf.0),
        Instr::VBin { a, b, .. } => dirty.v_dirty(*a) || dirty.v_dirty(*b),
        Instr::VFma { a, b, c, .. } => dirty.v_dirty(*a) || dirty.v_dirty(*b) || dirty.v_dirty(*c),
        Instr::VBroadcast { src, .. } => s(src),
        Instr::VShuffle { a, b, .. } | Instr::VBlend { a, b, .. } => {
            dirty.v_dirty(*a) || dirty.v_dirty(*b)
        }
        Instr::VLoad { base, .. } => dirty.buf_dirty(base.buf.0),
        // non-keyed shapes: the (absent) key cannot depend on operands
        _ => false,
    }
}

/// One incremental scan's working state over the shared cache.
struct Inc<'a> {
    cache: &'a mut CseCache,
    dirty: &'a DirtyLog,
    /// Full-recompute mode: first scan, or everything dirty.
    full: bool,
    rekeyed: usize,
    reused: usize,
}

/// Process one instruction, replacing repeats with moves in place.
/// Returns `true` when the instruction was rewritten.
fn process(st: &mut Cse, inc: &mut Inc, ins: &mut Instr) -> bool {
    let sdst = ins.sreg_write();
    let vdst = ins.vreg_write();
    // fetch the memoized key, or (re)compute and memoize it
    let key: Option<CachedKey> = {
        let slot = match (sdst, vdst) {
            (Some(r), _) => Some(inc.cache.s_slot(r)),
            (_, Some(r)) => Some(inc.cache.v_slot(r)),
            _ => None,
        };
        let def_dirty = match (sdst, vdst) {
            (Some(r), _) => inc.dirty.s_dirty(r),
            (_, Some(r)) => inc.dirty.v_dirty(r),
            _ => true,
        };
        let reusable = !inc.full
            && !def_dirty
            && matches!(slot, Some(Slot::NonKeyed) | Some(Slot::Keyed(_)))
            && !reads_dirty(inc.dirty, ins);
        if reusable {
            inc.reused += 1;
            let cached = match slot {
                Some(Slot::Keyed(k)) => Some(k.clone()),
                _ => None,
            };
            #[cfg(debug_assertions)]
            {
                let fresh = instr_key(st, ins);
                assert_eq!(
                    cached.as_ref().map(|c| (*c.key).clone()),
                    fresh,
                    "incremental CSE reused a stale key (dirty-seeding rule violated) \
                     for {ins:?}"
                );
            }
            cached
        } else {
            let fresh = instr_key(st, ins).map(CachedKey::new);
            if sdst.is_some() || vdst.is_some() {
                inc.rekeyed += 1;
                let slot = match &fresh {
                    Some(k) => Slot::Keyed(k.clone()),
                    None => Slot::NonKeyed,
                };
                if let Some(r) = sdst {
                    inc.cache.set_s(r, slot);
                } else if let Some(r) = vdst {
                    inc.cache.set_v(r, slot);
                }
            }
            fresh
        }
    };
    let mut replaced = false;
    if let Some(k) = &key {
        if let Some(sdst) = sdst {
            if let Some((r, v)) = st.avail_s.get(k) {
                if st.sver(*r) == *v && *r != sdst {
                    *ins = Instr::SMov { dst: sdst, a: (*r).into() };
                    replaced = true;
                    // the definition is a plain move now
                    inc.cache.set_s(sdst, Slot::NonKeyed);
                }
            }
        } else if let Some(vdst) = vdst {
            if let Some((r, v)) = st.avail_v.get(k) {
                if st.vver(*r) == *v && *r != vdst {
                    *ins = Instr::VMov { dst: vdst, src: *r };
                    replaced = true;
                    inc.cache.set_v(vdst, Slot::NonKeyed);
                }
            }
        }
    }
    // effects: bump versions/epochs, then record availability
    match &*ins {
        Instr::SStore { dst, .. } => st.bump_epoch(dst.buf.0),
        Instr::VStore { base, .. } => st.bump_epoch(base.buf.0),
        Instr::Call { .. } => {
            let gen = st.gen;
            st.epochs
                .iter_mut()
                .for_each(|s| *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) });
            // calls clobber nothing in registers, but be safe:
            st.avail_s.clear();
            st.avail_v.clear();
        }
        _ => {}
    }
    if let Some(r) = ins.sreg_write() {
        st.bump_s(r);
    }
    if let Some(r) = ins.vreg_write() {
        st.bump_v(r);
    }
    if let Some(k) = key {
        if let Some(r) = ins.sreg_write() {
            let ver = st.sver(r);
            st.avail_s.insert(k, (r, ver));
        } else if let Some(r) = ins.vreg_write() {
            let ver = st.vver(r);
            st.avail_v.insert(k, (r, ver));
        }
    }
    replaced
}

fn walk(stmts: &mut [CStmt], st: &mut Cse, inc: &mut Inc) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            CStmt::I(ins) => changed |= process(st, inc, ins),
            CStmt::For { body, .. } => {
                st.reset();
                changed |= walk(body, st, inc);
                st.reset();
            }
            CStmt::If { then_, else_, .. } => {
                st.reset();
                changed |= walk(then_, st, inc);
                st.reset();
                changed |= walk(else_, st, inc);
                st.reset();
            }
        }
    }
    changed
}

/// Eliminate common subexpressions in `f`, reusing memoized keys from
/// `cache` for instructions untouched since the last scan (per `dirty`).
/// Consumes and clears the dirty log; returns whether anything changed.
///
/// When the cache is warm and the dirty log is empty the scan is skipped
/// outright: CSE is idempotent on its own output within the post-rename
/// SSA regions, so a clean re-run could not change anything.
pub fn cse_incremental(
    f: &mut Function,
    cache: &mut CseCache,
    dirty: &mut DirtyLog,
    round: &mut RoundStats,
) -> bool {
    if cache.init && dirty.is_clean() {
        round.cse_skipped = true;
        return false;
    }
    let full = !cache.init || dirty.is_all();
    if !cache.init {
        cache.prepare(f);
    }
    let mut st = Cse::for_function(f);
    let mut inc = Inc { cache, dirty, full, rekeyed: 0, reused: 0 };
    let changed = walk(&mut f.body, &mut st, &mut inc);
    round.cse_rekeyed += inc.rekeyed;
    round.cse_reused += inc.reused;
    cache.init = true;
    dirty.clear();
    changed
}

/// Eliminate common subexpressions in `f`; returns whether anything
/// changed. One-shot form of [`cse_incremental`] (fresh cache, all
/// dirty).
pub fn cse(f: &mut Function) -> bool {
    let mut cache = CseCache::default();
    let mut dirty = DirtyLog::all_dirty();
    let mut round = RoundStats::default();
    cse_incremental(f, &mut cache, &mut dirty, &mut round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn repeated_scalar_computation_becomes_mov() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let x = b.sbin(BinOp::Mul, a, a);
        let y = b.sbin(BinOp::Mul, a, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        assert!(cse(&mut f), "must report a change");
        let mut muls = 0;
        let mut movs = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::SBin { op: BinOp::Mul, .. } => muls += 1,
            Instr::SMov { .. } => movs += 1,
            _ => {}
        });
        assert_eq!(muls, 1);
        assert_eq!(movs, 2); // the original mov + the CSE replacement
    }

    #[test]
    fn commutative_ops_match_reversed_operands() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let c = b.smov(4.0);
        let x = b.sbin(BinOp::Add, a, c);
        let y = b.sbin(BinOp::Add, c, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut adds = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SBin { op: BinOp::Add, .. }) {
                adds += 1;
            }
        });
        assert_eq!(adds, 1);
    }

    #[test]
    fn commutative_imm_reg_mixes_match() {
        // Imm/Reg operand orders must canonicalize to the same key.
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let x = b.sbin(BinOp::Mul, a, 2.0);
        let y = b.sbin(BinOp::Mul, 2.0, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut muls = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SBin { op: BinOp::Mul, .. }) {
                muls += 1;
            }
        });
        assert_eq!(muls, 1);
    }

    #[test]
    fn subtraction_is_not_commuted() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let c = b.smov(4.0);
        let x = b.sbin(BinOp::Sub, a, c);
        let y = b.sbin(BinOp::Sub, c, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut subs = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SBin { op: BinOp::Sub, .. }) {
                subs += 1;
            }
        });
        assert_eq!(subs, 2);
    }

    #[test]
    fn store_bumps_buffer_epoch_for_loads() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let l1 = b.sload(MemRef::new(t, 0));
        b.sstore(1.0, MemRef::new(t, 0));
        let l2 = b.sload(MemRef::new(t, 0));
        b.sstore(l1, MemRef::new(t, 1));
        b.sstore(l2, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut loads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SLoad { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 2, "store must invalidate the load CSE entry");
    }

    #[test]
    fn redundant_load_removed() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let l1 = b.sload(MemRef::new(t, 0));
        let l2 = b.sload(MemRef::new(t, 0));
        b.sstore(l1, MemRef::new(t, 1));
        b.sstore(l2, MemRef::new(t, 1));
        let mut f = b.finish();
        cse(&mut f);
        let mut loads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SLoad { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1);
    }

    #[test]
    fn vector_cse_emits_vmov() {
        let mut b = FunctionBuilder::new("f", 4);
        let t = b.buffer("t", 8, BufKind::ParamInOut);
        let v1 = b.vload_contig(MemRef::new(t, 0));
        let x = b.vbin(BinOp::Mul, v1, v1);
        let y = b.vbin(BinOp::Mul, v1, v1);
        b.vstore_contig(x, MemRef::new(t, 0));
        b.vstore_contig(y, MemRef::new(t, 4));
        let mut f = b.finish();
        cse(&mut f);
        let mut vmuls = 0;
        let mut vmovs = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::VBin { op: BinOp::Mul, .. } => vmuls += 1,
            Instr::VMov { .. } => vmovs += 1,
            _ => {}
        });
        assert_eq!(vmuls, 1);
        assert_eq!(vmovs, 1);
    }

    #[test]
    fn no_change_reports_false() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let a = b.smov(3.0);
        b.sstore(a, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(!cse(&mut f));
    }

    /// A warm cache with an empty dirty log skips the scan entirely and
    /// reports it; a targeted dirty mark re-keys only the affected
    /// instruction and its availability behavior stays correct.
    #[test]
    fn clean_round_skips_and_dirty_round_rekeys_sparsely() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamOut);
        let a = b.smov(3.0);
        let x = b.sbin(BinOp::Mul, a, a);
        let y = b.sbin(BinOp::Mul, a, a);
        b.sstore(x, MemRef::new(t, 0));
        b.sstore(y, MemRef::new(t, 1));
        let mut f = b.finish();
        let mut cache = CseCache::default();
        let mut dirty = DirtyLog::all_dirty();
        let mut r0 = RoundStats::default();
        assert!(cse_incremental(&mut f, &mut cache, &mut dirty, &mut r0));
        assert!(r0.cse_rekeyed > 0);
        assert_eq!(r0.cse_reused, 0, "first scan computes everything");
        assert!(dirty.is_clean(), "the scan consumes the dirty log");
        // clean round: whole-pass skip
        let mut r1 = RoundStats::default();
        assert!(!cse_incremental(&mut f, &mut cache, &mut dirty, &mut r1));
        assert!(r1.cse_skipped);
        assert_eq!((r1.cse_rekeyed, r1.cse_reused), (0, 0));
        // targeted dirt: only the marked definition re-keys, the rest reuse
        dirty.mark_s(crate::instr::SReg(0));
        let mut r2 = RoundStats::default();
        assert!(!cse_incremental(&mut f, &mut cache, &mut dirty, &mut r2));
        assert!(!r2.cse_skipped);
        assert!(r2.cse_reused > 0, "clean instructions must reuse memoized keys");
        assert!(
            r2.cse_rekeyed < r0.cse_rekeyed,
            "a sparse dirty set must not re-key the whole function"
        );
    }

    /// The one-shot wrapper and an incremental run over a mutating round
    /// sequence agree with a from-scratch run (bit-identical rewrites).
    #[test]
    fn incremental_matches_scratch_after_mutation() {
        let build = || {
            let mut b = FunctionBuilder::new("f", 1);
            let t = b.buffer("t", 4, BufKind::ParamInOut);
            let a = b.sload(MemRef::new(t, 0));
            let x = b.sbin(BinOp::Mul, a, a);
            let y = b.sbin(BinOp::Mul, a, a);
            let z = b.sbin(BinOp::Add, x, y);
            b.sstore(z, MemRef::new(t, 1));
            b.sstore(x, MemRef::new(t, 2));
            b.sstore(y, MemRef::new(t, 3));
            b.finish()
        };
        // incremental: scan, then re-scan with everything marked dirty
        let mut f1 = build();
        let mut cache = CseCache::default();
        let mut dirty = DirtyLog::all_dirty();
        let mut r = RoundStats::default();
        cse_incremental(&mut f1, &mut cache, &mut dirty, &mut r);
        dirty.mark_all();
        cse_incremental(&mut f1, &mut cache, &mut dirty, &mut r);
        // scratch: two one-shot runs
        let mut f2 = build();
        cse(&mut f2);
        cse(&mut f2);
        assert_eq!(
            crate::pretty::function_to_string(&f1),
            crate::pretty::function_to_string(&f2),
            "incremental and from-scratch CSE must produce identical code"
        );
    }
}

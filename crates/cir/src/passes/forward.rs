//! Scalar replacement and the domain-specific load/store analysis.
//!
//! This pass implements the paper's §3.3 optimization (Figs. 11–12): within
//! straight-line regions it tracks, per memory cell, which register lane
//! currently holds the cell's value. Loads whose bytes were all produced by
//! earlier stores are then replaced by register operations:
//!
//! * a scalar load becomes a scalar move ([`crate::Instr::SMov`]) or a lane
//!   extract;
//! * a vector load whose lanes live in one or two vector registers becomes
//!   a [`crate::Instr::VBlend`] (when lanes align) or a
//!   [`crate::Instr::VShuffle`] — the `smul9a`/`smul9b` example of Fig. 12;
//! * a vector load whose lanes are scattered scalar registers is left
//!   alone (re-packing through memory is what the hardware store buffer
//!   would do anyway).
//!
//! The stores themselves often become dead afterwards and are removed by
//! [`super::dce`] when the buffer is a local temporary, or kept when the
//! buffer is live-out (the paper keeps the `maskstore`s for the same
//! reason).
//!
//! Soundness relies on the C-IR invariant that distinct buffers never
//! alias. Conservative resets happen at control-flow boundaries and calls.
//!
//! Throughput notes: both `forward` and `copyprop` stream over the body
//! mutating instructions in place (no rebuilt vectors, no per-instruction
//! clones); register versions live in dense tables indexed by register id,
//! and copy facts are validated by version instead of being invalidated by
//! reverse scans.

use crate::func::{CStmt, Function};
use crate::fxhash::FxHashMap;
use crate::instr::{Instr, LaneSel, SOperand, SReg, VReg};
use crate::passes::DirtyLog;

/// Mark the destination register of `ins` in the dirty log (incremental
/// CSE seeding: the definition's content or existence changed).
fn mark_def(dirty: &mut DirtyLog, ins: &Instr) {
    if let Some(r) = ins.sreg_write() {
        dirty.mark_s(r);
    }
    if let Some(r) = ins.vreg_write() {
        dirty.mark_v(r);
    }
}

/// Who holds the current value of a memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellSrc {
    S(SReg, u32),
    VLane(VReg, u32, usize),
    Imm(f64),
}

/// Pass state: dense register-version tables plus the cell map.
struct State {
    svers: Vec<u32>,
    vvers: Vec<u32>,
    cells: FxHashMap<(usize, i64), CellSrc>,
}

impl State {
    fn for_function(f: &Function) -> Self {
        State { svers: vec![0; f.n_sregs], vvers: vec![0; f.n_vregs], cells: FxHashMap::default() }
    }
    fn sver(&self, r: SReg) -> u32 {
        self.svers.get(r.0).copied().unwrap_or(0)
    }
    fn vver(&self, r: VReg) -> u32 {
        self.vvers.get(r.0).copied().unwrap_or(0)
    }
    fn bump_s(&mut self, r: SReg) {
        super::grow_update(&mut self.svers, r.0, |v| *v += 1);
    }
    fn bump_v(&mut self, r: VReg) {
        super::grow_update(&mut self.vvers, r.0, |v| *v += 1);
    }
    fn valid(&self, c: &CellSrc) -> bool {
        match c {
            CellSrc::S(r, v) => self.sver(*r) == *v,
            CellSrc::VLane(r, v, _) => self.vver(*r) == *v,
            CellSrc::Imm(_) => true,
        }
    }
    fn invalidate_buffer(&mut self, buf: usize) {
        self.cells.retain(|(b, _), _| *b != buf);
    }
    fn clear_cells(&mut self) {
        self.cells.clear();
    }
}

/// Try to rewrite a vector load from tracked cells into a shuffle/blend.
///
/// Returns the replacement instruction, or `None` to keep the load.
fn rewrite_vload(dst: VReg, sources: &[Option<CellSrc>]) -> Option<Instr> {
    // All active lanes must be valid vector lanes (scalar sources would
    // need broadcast+blend chains that rarely pay off; see module docs).
    let mut regs: [Option<VReg>; 2] = [None, None];
    for s in sources.iter().flatten() {
        match s {
            CellSrc::VLane(r, _, _) => {
                if regs[0] == Some(*r) || regs[1] == Some(*r) {
                    continue;
                }
                if regs[0].is_none() {
                    regs[0] = Some(*r);
                } else if regs[1].is_none() {
                    regs[1] = Some(*r);
                } else {
                    return None; // more than two source registers
                }
            }
            _ => return None,
        }
    }
    let a = regs[0]?;
    let b = regs[1].unwrap_or(a);
    let sel: Vec<LaneSel> = sources
        .iter()
        .map(|s| match s {
            None => LaneSel::Zero,
            Some(CellSrc::VLane(r, _, lane)) => {
                if *r == a {
                    LaneSel::A(*lane)
                } else {
                    LaneSel::B(*lane)
                }
            }
            Some(_) => unreachable!("filtered above"),
        })
        .collect();
    // Blend pattern: every active lane i selects lane i of a source and no
    // zeros are required.
    let is_blend = sel.iter().enumerate().all(|(i, s)| match s {
        LaneSel::A(j) | LaneSel::B(j) => *j == i,
        LaneSel::Zero => false,
    });
    if is_blend && regs[1].is_some() {
        let mask = sel.iter().map(|s| matches!(s, LaneSel::B(_))).collect();
        return Some(Instr::VBlend { dst, a, b, mask });
    }
    Some(Instr::VShuffle { dst, a, b, sel })
}

/// Outcome of processing one instruction in place.
enum Outcome {
    Keep,
    Rewritten,
    Drop,
}

fn process(st: &mut State, ins: &mut Instr, ls_analysis: bool, scalar_repl: bool) -> Outcome {
    match ins {
        Instr::SStore { src, dst } => {
            if let Some(off) = dst.offset.as_constant() {
                let cell = match src {
                    SOperand::Reg(r) => CellSrc::S(*r, st.sver(*r)),
                    SOperand::Imm(v) => CellSrc::Imm(*v),
                };
                st.cells.insert((dst.buf.0, off), cell);
            } else {
                st.invalidate_buffer(dst.buf.0);
            }
            Outcome::Keep
        }
        Instr::VStore { src, base, lanes } => {
            if let Some(boff) = base.offset.as_constant() {
                let ver = st.vver(*src);
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        st.cells.insert((base.buf.0, boff + off), CellSrc::VLane(*src, ver, lane));
                    }
                }
            } else {
                st.invalidate_buffer(base.buf.0);
            }
            Outcome::Keep
        }
        Instr::SLoad { dst, src } => {
            let dst = *dst;
            let tracked = src.offset.as_constant().map(|off| (src.buf.0, off));
            let mut outcome = Outcome::Keep;
            if scalar_repl {
                if let Some(cellkey) = tracked {
                    if let Some(cell) = st.cells.get(&cellkey).copied() {
                        if st.valid(&cell) {
                            match cell {
                                CellSrc::S(r, _) if r != dst => {
                                    *ins = Instr::SMov { dst, a: r.into() };
                                    outcome = Outcome::Rewritten;
                                }
                                CellSrc::S(_, _) => {
                                    // load into the same register: drop
                                    outcome = Outcome::Drop;
                                }
                                CellSrc::Imm(v) => {
                                    *ins = Instr::SMov { dst, a: v.into() };
                                    outcome = Outcome::Rewritten;
                                }
                                CellSrc::VLane(r, _, lane) if ls_analysis => {
                                    *ins = Instr::VExtract { dst, src: r, lane };
                                    outcome = Outcome::Rewritten;
                                }
                                CellSrc::VLane(..) => {}
                            }
                        }
                    }
                }
            }
            st.bump_s(dst);
            // the register now also holds the cell's value
            if let Some(cellkey) = tracked {
                st.cells.insert(cellkey, CellSrc::S(dst, st.sver(dst)));
            }
            outcome
        }
        Instr::VLoad { dst, base, lanes } => {
            let dst = *dst;
            let boff = base.offset.as_constant();
            let mut replacement = None;
            if ls_analysis {
                if let Some(boff) = boff {
                    let sources: Vec<Option<CellSrc>> = lanes
                        .iter()
                        .map(|l| l.and_then(|off| st.cells.get(&(base.buf.0, boff + off)).copied()))
                        .collect();
                    let all_tracked = lanes
                        .iter()
                        .zip(&sources)
                        .all(|(l, s)| l.is_none() || s.is_some_and(|c| st.valid(&c)));
                    if all_tracked {
                        replacement = rewrite_vload(dst, &sources);
                    }
                }
            }
            st.bump_v(dst);
            // register lanes now mirror the loaded cells
            if let Some(boff) = boff {
                let ver = st.vver(dst);
                for (lane, l) in lanes.iter().enumerate() {
                    if let Some(off) = l {
                        st.cells.insert((base.buf.0, boff + off), CellSrc::VLane(dst, ver, lane));
                    }
                }
            }
            match replacement {
                Some(rep) => {
                    *ins = rep;
                    Outcome::Rewritten
                }
                None => Outcome::Keep,
            }
        }
        Instr::Call { .. } => {
            st.clear_cells();
            Outcome::Keep
        }
        other => {
            if let Some(r) = other.sreg_write() {
                st.bump_s(r);
            }
            if let Some(r) = other.vreg_write() {
                st.bump_v(r);
            }
            Outcome::Keep
        }
    }
}

fn walk(stmts: &mut Vec<CStmt>, st: &mut State, ls: bool, sr: bool, dirty: &mut DirtyLog) -> bool {
    let mut changed = false;
    let mut w = 0;
    for r in 0..stmts.len() {
        let keep = match &mut stmts[r] {
            CStmt::I(ins) => match process(st, ins, ls, sr) {
                Outcome::Keep => true,
                Outcome::Rewritten => {
                    // the definition's content changed (load → mov/
                    // extract/shuffle/blend)
                    mark_def(dirty, ins);
                    changed = true;
                    true
                }
                Outcome::Drop => {
                    // the definition disappears: later definitions of the
                    // register (and their readers) shift versions
                    mark_def(dirty, ins);
                    changed = true;
                    false
                }
            },
            CStmt::For { body, .. } => {
                st.clear_cells();
                changed |= walk(body, st, ls, sr, dirty);
                st.clear_cells();
                true
            }
            CStmt::If { then_, else_, .. } => {
                st.clear_cells();
                changed |= walk(then_, st, ls, sr, dirty);
                st.clear_cells();
                changed |= walk(else_, st, ls, sr, dirty);
                st.clear_cells();
                true
            }
        };
        if keep {
            if w != r {
                stmts.swap(w, r);
            }
            w += 1;
        }
    }
    stmts.truncate(w);
    changed
}

/// Run scalar replacement (`scalar_repl`) and/or the load/store analysis
/// (`ls_analysis`) over `f`; returns whether anything changed.
pub fn forward(f: &mut Function, ls_analysis: bool, scalar_repl: bool) -> bool {
    forward_tracked(f, ls_analysis, scalar_repl, &mut DirtyLog::default())
}

/// [`forward`], additionally recording touched definitions into `dirty`
/// for the incremental CSE scan.
pub fn forward_tracked(
    f: &mut Function,
    ls_analysis: bool,
    scalar_repl: bool,
    dirty: &mut DirtyLog,
) -> bool {
    let mut st = State::for_function(f);
    let mut body = std::mem::take(&mut f.body);
    let changed = walk(&mut body, &mut st, ls_analysis, scalar_repl, dirty);
    f.body = body;
    changed
}

// ---------------------------------------------------------------------
// Copy propagation
// ---------------------------------------------------------------------

/// Copy facts validated by source-register version: `copies[d] = (op, v)`
/// means `d` currently equals `op`, recorded when `op`'s register had
/// version `v`. A mismatching current version invalidates the fact lazily,
/// so redefinitions never require reverse scans.
///
/// Table slots carry a generation tag; slots from an older generation
/// read as the default, so [`CopyState::reset`] at control-flow
/// boundaries is O(1) regardless of register count.
struct CopyState {
    gen: u32,
    svers: Vec<(u32, u32)>,
    vvers: Vec<(u32, u32)>,
    scopies: Vec<(u32, Option<(SOperand, u32)>)>,
    vcopies: Vec<(u32, Option<(VReg, u32)>)>,
}

impl CopyState {
    fn for_function(f: &Function) -> Self {
        CopyState {
            gen: 0,
            svers: vec![(0, 0); f.n_sregs],
            vvers: vec![(0, 0); f.n_vregs],
            scopies: vec![(0, None); f.n_sregs],
            vcopies: vec![(0, None); f.n_vregs],
        }
    }
    fn reset(&mut self) {
        self.gen += 1;
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
    fn scopy(&self, r: SReg) -> Option<(SOperand, u32)> {
        match self.scopies.get(r.0) {
            Some((g, c)) if *g == self.gen => *c,
            _ => None,
        }
    }
    fn vcopy(&self, r: VReg) -> Option<(VReg, u32)> {
        match self.vcopies.get(r.0) {
            Some((g, c)) if *g == self.gen => *c,
            _ => None,
        }
    }
    fn write_s(&mut self, r: SReg) {
        let gen = self.gen;
        super::grow_update(&mut self.svers, r.0, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
        super::grow_update(&mut self.scopies, r.0, |c| *c = (gen, None));
    }
    fn write_v(&mut self, r: VReg) {
        let gen = self.gen;
        super::grow_update(&mut self.vvers, r.0, |s| {
            *s = if s.0 == gen { (gen, s.1 + 1) } else { (gen, 1) }
        });
        super::grow_update(&mut self.vcopies, r.0, |c| *c = (gen, None));
    }
    /// Substitute a scalar operand; returns `true` on change.
    fn subst_sop(&self, o: &mut SOperand) -> bool {
        if let SOperand::Reg(r) = o {
            if let Some((src, v)) = self.scopy(*r) {
                let live = match src {
                    SOperand::Reg(s) => self.sver(s) == v,
                    SOperand::Imm(_) => true,
                };
                if live && src != *o {
                    *o = src;
                    return true;
                }
            }
        }
        false
    }
    /// Substitute a vector register read; returns `true` on change.
    fn subst_v(&self, r: &mut VReg) -> bool {
        if let Some((src, v)) = self.vcopy(*r) {
            if self.vver(src) == v && src != *r {
                *r = src;
                return true;
            }
        }
        false
    }
    fn record_s(&mut self, dst: SReg, a: SOperand) {
        if matches!(a, SOperand::Reg(r) if r == dst) {
            return;
        }
        let ver = match a {
            SOperand::Reg(r) => self.sver(r),
            SOperand::Imm(_) => 0,
        };
        let gen = self.gen;
        super::grow_update(&mut self.scopies, dst.0, |c| *c = (gen, Some((a, ver))));
    }
    fn record_v(&mut self, dst: VReg, src: VReg) {
        if dst != src {
            let ver = self.vver(src);
            let gen = self.gen;
            super::grow_update(&mut self.vcopies, dst.0, |c| *c = (gen, Some((src, ver))));
        }
    }
}

fn copyprop_instr(st: &mut CopyState, ins: &mut Instr) -> bool {
    let mut changed = false;
    match ins {
        Instr::SMov { a, .. } | Instr::SSqrt { a, .. } => changed |= st.subst_sop(a),
        Instr::SBin { a, b, .. } => {
            changed |= st.subst_sop(a);
            changed |= st.subst_sop(b);
        }
        Instr::SFma { a, b, c, .. } => {
            changed |= st.subst_sop(a);
            changed |= st.subst_sop(b);
            changed |= st.subst_sop(c);
        }
        Instr::SStore { src, .. } => changed |= st.subst_sop(src),
        Instr::VBroadcast { src, .. } => changed |= st.subst_sop(src),
        Instr::VMov { src, .. } | Instr::VStore { src, .. } => changed |= st.subst_v(src),
        Instr::VBin { a, b, .. } | Instr::VShuffle { a, b, .. } | Instr::VBlend { a, b, .. } => {
            changed |= st.subst_v(a);
            changed |= st.subst_v(b);
        }
        Instr::VFma { a, b, c, .. } => {
            changed |= st.subst_v(a);
            changed |= st.subst_v(b);
            changed |= st.subst_v(c);
        }
        Instr::VExtract { src, .. } | Instr::VReduceAdd { src, .. } => {
            changed |= st.subst_v(src);
        }
        Instr::SLoad { .. } | Instr::VLoad { .. } | Instr::Call { .. } => {}
    }
    // Redefinitions invalidate (lazily, via versions), then new copy facts
    // are recorded from the rewritten instruction.
    if let Some(w) = ins.sreg_write() {
        st.write_s(w);
    }
    if let Some(w) = ins.vreg_write() {
        st.write_v(w);
    }
    if let Instr::SMov { dst, a } = ins {
        st.record_s(*dst, *a);
    }
    if let Instr::VMov { dst, src } = ins {
        st.record_v(*dst, *src);
    }
    changed
}

fn copyprop_walk(stmts: &mut [CStmt], st: &mut CopyState, dirty: &mut DirtyLog) -> bool {
    let mut changed = false;
    for s in stmts {
        match s {
            CStmt::I(ins) => {
                if copyprop_instr(st, ins) {
                    // substituted operands change the definition's key
                    // (substitutions in stores have no key to invalidate)
                    mark_def(dirty, ins);
                    changed = true;
                }
            }
            CStmt::For { body, .. } => {
                st.reset();
                changed |= copyprop_walk(body, st, dirty);
                st.reset();
            }
            CStmt::If { then_, else_, .. } => {
                st.reset();
                changed |= copyprop_walk(then_, st, dirty);
                st.reset();
                changed |= copyprop_walk(else_, st, dirty);
                st.reset();
            }
        }
    }
    changed
}

/// Propagate scalar and vector copies within straight-line regions;
/// returns whether anything changed.
pub fn copyprop(f: &mut Function) -> bool {
    copyprop_tracked(f, &mut DirtyLog::default())
}

/// [`copyprop`], additionally recording touched definitions into `dirty`
/// for the incremental CSE scan.
pub fn copyprop_tracked(f: &mut Function, dirty: &mut DirtyLog) -> bool {
    let mut st = CopyState::for_function(f);
    copyprop_walk(&mut f.body, &mut st, dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    #[test]
    fn scalar_store_load_forwards_to_mov() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 4, BufKind::Local);
        let r = b.smov(7.0);
        b.sstore(r, MemRef::new(t, 2));
        let l = b.sload(MemRef::new(t, 2));
        let _ = b.sbin(BinOp::Add, l, 1.0);
        let mut f = b.finish();
        assert!(forward(&mut f, true, true));
        let mut loads = 0;
        let mut movs = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::SLoad { .. } => loads += 1,
            Instr::SMov { .. } => movs += 1,
            _ => {}
        });
        assert_eq!(loads, 0);
        assert!(movs >= 2); // original + forwarded
    }

    #[test]
    fn vector_round_trip_becomes_blend() {
        // Mirror of paper Fig. 12: two masked stores, then a load gathering
        // lanes from both stored registers at matching lane positions.
        let mut b = FunctionBuilder::new("f", 4);
        let s = b.buffer("S", 16, BufKind::ParamInOut);
        let va = b.vbroadcast(1.0);
        let vb = b.vbroadcast(2.0);
        b.vstore(va, MemRef::new(s, 0), vec![Some(0), Some(1), None, None]);
        b.vstore(vb, MemRef::new(s, 0), vec![None, None, Some(2), Some(3)]);
        let _v = b.vload_contig(MemRef::new(s, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut blends = 0;
        let mut loads = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::VBlend { .. } => blends += 1,
            Instr::VLoad { .. } => loads += 1,
            _ => {}
        });
        assert_eq!(blends, 1, "{}", crate::pretty::function_to_string(&f));
        assert_eq!(loads, 0);
    }

    #[test]
    fn vector_gather_becomes_shuffle() {
        // Vertical (strided) reload of horizontally stored data — the exact
        // S(i:i+2, i+2) scenario of Fig. 11/12.
        let mut b = FunctionBuilder::new("f", 4);
        let s = b.buffer("S", 16, BufKind::ParamInOut);
        let va = b.vbroadcast(1.0);
        let vb = b.vbroadcast(2.0);
        // row 0: S[1..3] = va[0..2], row 1: S[6..8] = vb[0..2]
        b.vstore(va, MemRef::new(s, 1), vec![Some(0), Some(1), Some(2), None]);
        b.vstore(vb, MemRef::new(s, 6), vec![Some(0), Some(1), None, None]);
        // vertical load of S[2], S[6] (column 2 of rows 0-1)
        let _v = b.vload(MemRef::new(s, 2), vec![Some(0), Some(4), None, None]);
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut shuffles = 0;
        let mut vloads = 0;
        f.for_each_instr(&mut |i| match i {
            Instr::VShuffle { .. } => shuffles += 1,
            Instr::VLoad { .. } => vloads += 1,
            _ => {}
        });
        assert_eq!(shuffles, 1, "{}", crate::pretty::function_to_string(&f));
        assert_eq!(vloads, 0);
    }

    #[test]
    fn redefinition_invalidates_forwarding() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::Local);
        let r = b.smov(7.0);
        b.sstore(r, MemRef::new(t, 0));
        // redefine r before the load: forwarding must not use the new value
        b.instr(Instr::SMov { dst: r, a: 9.0.into() });
        let _l = b.sload(MemRef::new(t, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut loads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::SLoad { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 1, "stale register must not be forwarded");
    }

    #[test]
    fn control_flow_resets_state() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let r = b.smov(7.0);
        b.sstore(r, MemRef::new(t, 0));
        let i = b.begin_for(0, 2, 1);
        let addr = MemRef::new(t, crate::affine::Affine::var(i));
        let x = b.sload(addr.clone());
        let y = b.sbin(BinOp::Add, x, 1.0);
        b.sstore(y, addr);
        b.end_for();
        let l = b.sload(MemRef::new(t, 0));
        b.sstore(l, MemRef::new(t, 1));
        let mut f = b.finish();
        forward(&mut f, true, true);
        // the load after the loop must remain a load
        let mut post_loop_loads = 0;
        for s in &f.body {
            if let CStmt::I(Instr::SLoad { .. }) = s {
                post_loop_loads += 1;
            }
        }
        assert_eq!(post_loop_loads, 1);
    }

    #[test]
    fn copyprop_chains() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 1, BufKind::ParamOut);
        let a = b.smov(3.0);
        let c = b.smov(a);
        let d = b.sbin(BinOp::Mul, c, c);
        b.sstore(d, MemRef::new(t, 0));
        let mut f = b.finish();
        assert!(copyprop(&mut f));
        // the multiply now reads the immediate origin registers
        let mut found = false;
        f.for_each_instr(&mut |i| {
            if let Instr::SBin { op: BinOp::Mul, a, b, .. } = i {
                assert_eq!(*a, SOperand::Imm(3.0));
                assert_eq!(*b, SOperand::Imm(3.0));
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn copyprop_respects_source_redefinition() {
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.buffer("t", 2, BufKind::ParamInOut);
        let a = b.sload(MemRef::new(t, 0)); // opaque value
        let c = b.smov(a);
        // redefine the copy source: reads of c must NOT become reads of a
        b.instr(Instr::SMov { dst: a, a: 9.0.into() });
        b.sstore(c, MemRef::new(t, 1));
        let mut f = b.finish();
        copyprop(&mut f);
        let mut stored = None;
        f.for_each_instr(&mut |i| {
            if let Instr::SStore { src, .. } = i {
                stored = Some(*src);
            }
        });
        assert_eq!(stored, Some(SOperand::Reg(c)), "stale copy fact applied");
    }

    #[test]
    fn mixed_scalar_vector_sources_keep_load() {
        let mut b = FunctionBuilder::new("f", 4);
        let s = b.buffer("S", 8, BufKind::ParamInOut);
        let r = b.smov(5.0);
        b.sstore(r, MemRef::new(s, 0));
        let v = b.vbroadcast(1.0);
        b.vstore(v, MemRef::new(s, 1), vec![Some(0), Some(1), Some(2), None]);
        let _l = b.vload_contig(MemRef::new(s, 0));
        let mut f = b.finish();
        forward(&mut f, true, true);
        let mut vloads = 0;
        f.for_each_instr(&mut |i| {
            if matches!(i, Instr::VLoad { .. }) {
                vloads += 1;
            }
        });
        assert_eq!(vloads, 1, "mixed sources must not be rewritten");
    }
}

//! Code-level optimization passes (paper §3.3).
//!
//! The pipeline run by [`optimize`] mirrors SLinGen's Stage 3:
//!
//! 1. **Loop unrolling** for the small fixed trip counts typical of
//!    small-scale code ([`unroll`]);
//! 2. **constant folding** of affine conditions exposed by unrolling
//!    ([`constfold`]);
//! 3. **scalar replacement & load/store analysis** ([`forward`]): memory
//!    round-trips become register moves, shuffles, and blends (Fig. 12);
//! 4. **CSE**, **copy propagation**, and **DCE** cleanups, iterated to a
//!    fixpoint: every pass reports whether it changed the function, and
//!    the cleanup loop exits as soon as a full round changes nothing. On
//!    FMA-capable targets the fixpoint loop additionally runs
//!    [`contract`], fusing multiply–add chains into FMA instructions
//!    (the dead multiplies are collected by DCE).
//!
//! The cleanup fixpoint is **incremental**: each pass records the
//! registers and buffers it actually touched into a shared [`DirtyLog`],
//! and CSE — the most expensive cleanup — re-keys only instructions whose
//! own definition or operands are dirty, reusing memoized hashed keys for
//! the (typically vast) clean remainder. A round whose dirty log is empty
//! skips the CSE scan entirely; every other pass scans the whole function
//! every round. The dirty-seeding rules are:
//!
//! * `forward` rewrite (load → mov/extract/shuffle/blend) → destination
//!   register dirty; dropped load → its destination dirty (a definition
//!   disappeared, so reader versions may shift);
//! * `copyprop` operand substitution → the instruction's destination
//!   dirty (its key changes; reader keys depend only on versions);
//! * `contract` mul→FMA fusion → destination dirty;
//! * DCE instruction removal → its destination register dirty; dead-store
//!   removal → the stored buffer dirty (load epochs shift); removal of an
//!   emptied `For`/`If` → everything dirty (straight-line regions merge);
//! * a CSE rewrite leaves a plain move, which CSE records in its own
//!   cache rather than the log (the log is cleared after every scan).
//!
//! Reusing a cached key is sound exactly when the instruction's content
//! and its operands' version/epoch numbering at that point are unchanged
//! — the rules above over-approximate both, and debug builds recompute
//! every reused key and assert equality, so the pass-equivalence suite
//! exercises the invariant on every app × target × ν.
//!
//! An important C-IR invariant exploited here: *distinct [`crate::BufId`]s
//! never alias*. Operands related by `ow(..)` are mapped to the same buffer
//! by the driver.

pub mod constfold;
pub mod contract;
pub mod cse;
pub mod dce;
pub mod forward;
pub mod rename;
pub mod unroll;

use crate::func::Function;
use crate::instr::{SReg, VReg};
use std::time::{Duration, Instant};

/// Dense grow-on-demand tables used by the passes (versions, epochs, read
/// sets, rename maps). Tables are pre-sized from the function's register
/// and buffer counts; the grow path only triggers for ids allocated after
/// sizing.
pub(crate) fn grow_update<T: Clone + Default>(
    v: &mut Vec<T>,
    i: usize,
    update: impl FnOnce(&mut T),
) {
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    update(&mut v[i]);
}

/// What the cleanup passes touched since the last CSE scan (see the
/// module docs for the per-pass seeding rules). Dense bool tables keep
/// the per-instruction dirty checks allocation-free.
#[derive(Debug, Default)]
pub struct DirtyLog {
    all: bool,
    marks: usize,
    sregs: Vec<bool>,
    vregs: Vec<bool>,
    bufs: Vec<bool>,
}

impl DirtyLog {
    /// A log with everything marked dirty (initial state).
    pub fn all_dirty() -> Self {
        DirtyLog { all: true, ..DirtyLog::default() }
    }

    /// Mark a scalar register's definition or versioning as changed.
    pub fn mark_s(&mut self, r: SReg) {
        self.marks += 1;
        grow_update(&mut self.sregs, r.0, |b| *b = true);
    }

    /// Mark a vector register's definition or versioning as changed.
    pub fn mark_v(&mut self, r: VReg) {
        self.marks += 1;
        grow_update(&mut self.vregs, r.0, |b| *b = true);
    }

    /// Mark a buffer's store placement (load epochs) as changed.
    pub fn mark_buf(&mut self, b: usize) {
        self.marks += 1;
        grow_update(&mut self.bufs, b, |x| *x = true);
    }

    /// Mark everything dirty (control-flow regions merged).
    pub fn mark_all(&mut self) {
        self.all = true;
    }

    /// Whether nothing has been marked since the last [`DirtyLog::clear`].
    pub fn is_clean(&self) -> bool {
        !self.all && self.marks == 0
    }

    /// Whether everything is dirty.
    pub fn is_all(&self) -> bool {
        self.all
    }

    pub(crate) fn s_dirty(&self, r: SReg) -> bool {
        self.all || self.sregs.get(r.0).copied().unwrap_or(false)
    }
    pub(crate) fn v_dirty(&self, r: VReg) -> bool {
        self.all || self.vregs.get(r.0).copied().unwrap_or(false)
    }
    pub(crate) fn buf_dirty(&self, b: usize) -> bool {
        self.all || self.bufs.get(b).copied().unwrap_or(false)
    }

    /// Forget all marks (the consumer has caught up).
    pub fn clear(&mut self) {
        self.all = false;
        self.marks = 0;
        self.sregs.iter_mut().for_each(|b| *b = false);
        self.vregs.iter_mut().for_each(|b| *b = false);
        self.bufs.iter_mut().for_each(|b| *b = false);
    }
}

/// Toggles for the optimization pipeline (ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Maximum number of (static) instructions a fully unrolled function
    /// may reach; loops whose expansion would exceed it stay rolled.
    pub unroll_budget: usize,
    /// Enable the domain-specific load/store analysis (paper Fig. 12).
    pub load_store_analysis: bool,
    /// Enable scalar replacement (store→load forwarding through registers).
    pub scalar_replacement: bool,
    /// Enable common-subexpression elimination.
    pub cse: bool,
    /// Fuse multiply–add chains into FMA instructions (see
    /// [`contract`]). Off by default; the driver enables it when the
    /// generation target has FMA ([`crate::Target::has_fma`]).
    pub fma_contraction: bool,
    /// Maximum number of cleanup iterations; the loop exits early once a
    /// full round reaches a fixpoint (changes nothing). The cap is a
    /// safety net, not the expected exit: [`PipelineStats::converged`]
    /// records whether the loop actually reached its fixpoint, and the
    /// incremental CSE scan makes post-convergence rounds cheap, so the
    /// default is set high enough that large FMA-contracted bodies (which
    /// need more than three rounds of contract→DCE→copy cleanup) converge
    /// instead of silently stopping mid-cleanup.
    pub iterations: usize,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            unroll_budget: 1 << 14,
            load_store_analysis: true,
            scalar_replacement: true,
            cse: true,
            fma_contraction: false,
            iterations: 16,
        }
    }
}

impl PassConfig {
    /// A configuration with every optimization disabled except unrolling
    /// (used as the ablation baseline).
    pub fn minimal() -> Self {
        PassConfig {
            unroll_budget: 1 << 14,
            load_store_analysis: false,
            scalar_replacement: false,
            cse: false,
            fma_contraction: false,
            iterations: 1,
        }
    }

    /// This configuration specialized for a generation target: FMA
    /// contraction turns on exactly when the target can execute fused
    /// multiply-adds.
    pub fn for_target(mut self, target: crate::Target) -> Self {
        self.fma_contraction = self.fma_contraction || target.has_fma();
        self
    }
}

/// Per-round telemetry of one cleanup-fixpoint round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Instructions whose CSE key was recomputed this round.
    pub cse_rekeyed: usize,
    /// Instructions whose memoized CSE key was reused this round.
    pub cse_reused: usize,
    /// Whether the CSE scan was skipped outright (empty dirty log).
    pub cse_skipped: bool,
    /// Always 0. The cleanup passes no longer skip clean straight-line
    /// runs (only CSE is incremental, per instruction); the field stays so
    /// that readers of per-round telemetry keep compiling.
    pub blocks_skipped: usize,
    /// Whether any pass changed the function this round.
    pub changed: bool,
}

/// Telemetry of one [`optimize`] run: per-round incremental-CSE counters
/// plus whether the cleanup loop converged or hit the iteration cap.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// One entry per executed cleanup round.
    pub rounds: Vec<RoundStats>,
    /// `true` when the loop exited on a no-change round (fixpoint);
    /// `false` when it stopped on [`PassConfig::iterations`] with changes
    /// still pending.
    pub converged: bool,
}

/// Run the full Stage-3 pipeline over `f`.
pub fn optimize(f: &mut Function, config: &PassConfig) {
    optimize_with_stats(f, config, &mut |_, _| {});
}

/// Like [`optimize`], additionally invoking `observe(pass_name, elapsed)`
/// after every pass and returning [`PipelineStats`]. This is the single
/// source of truth for per-pass timing and fixpoint breakdowns (the
/// `bench --passes` tracker uses it), so instrumentation cannot drift
/// from the pipeline actually shipped.
pub fn optimize_with_stats(
    f: &mut Function,
    config: &PassConfig,
    observe: &mut dyn FnMut(&str, Duration),
) -> PipelineStats {
    let t = Instant::now();
    unroll::unroll(f, config.unroll_budget);
    observe("unroll", t.elapsed());
    let t = Instant::now();
    constfold::fold(f);
    observe("constfold", t.elapsed());
    let t = Instant::now();
    rename::rename(f);
    observe("rename", t.elapsed());
    let mut stats = PipelineStats::default();
    // What the passes touched since the last CSE scan; the first scan
    // sees everything dirty.
    let mut dirty = DirtyLog::all_dirty();
    let mut cache = cse::CseCache::default();
    for _ in 0..config.iterations.max(1) {
        let mut changed = false;
        let mut round = RoundStats::default();
        if config.scalar_replacement || config.load_store_analysis {
            let t = Instant::now();
            changed |= forward::forward_tracked(
                f,
                config.load_store_analysis,
                config.scalar_replacement,
                &mut dirty,
            );
            observe("forward", t.elapsed());
        }
        if config.cse {
            let t = Instant::now();
            changed |= cse::cse_incremental(f, &mut cache, &mut dirty, &mut round);
            observe("cse", t.elapsed());
        }
        if config.fma_contraction {
            let t = Instant::now();
            changed |= contract::contract_tracked(f, &mut dirty);
            observe("contract", t.elapsed());
        }
        let t = Instant::now();
        changed |= forward::copyprop_tracked(f, &mut dirty);
        observe("copyprop", t.elapsed());
        let t = Instant::now();
        changed |= dce::dce_tracked(f, &mut dirty);
        observe("dce", t.elapsed());
        round.changed = changed;
        stats.rounds.push(round);
        if !changed {
            stats.converged = true;
            break;
        }
    }
    debug_assert!(
        stats.converged || config.iterations <= stats.rounds.len(),
        "fixpoint bookkeeping out of sync"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use crate::func::{BufKind, FunctionBuilder};
    use crate::instr::{BinOp, MemRef};

    /// End-to-end: a rolled scalar loop becomes straight-line code with the
    /// memory round-trip removed.
    #[test]
    fn pipeline_shrinks_round_trips() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let t = b.buffer("t", 4, BufKind::Local);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        let i = b.begin_for(0, 4, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        let d = b.sbin(BinOp::Mul, r, 2.0);
        b.sstore(d, MemRef::new(t, Affine::var(i)));
        b.end_for();
        let j = b.begin_for(0, 4, 1);
        let r2 = b.sload(MemRef::new(t, Affine::var(j)));
        let d2 = b.sbin(BinOp::Add, r2, 1.0);
        b.sstore(d2, MemRef::new(y, Affine::var(j)));
        b.end_for();
        let mut f = b.finish();
        optimize(&mut f, &PassConfig::default());
        // after unrolling + forwarding + DCE: loads of t and stores to t gone
        let mut loads_t = 0;
        let mut stores_t = 0;
        f.for_each_instr(&mut |ins| match ins {
            crate::instr::Instr::SLoad { src, .. } if src.buf == t => loads_t += 1,
            crate::instr::Instr::SStore { dst, .. } if dst.buf == t => stores_t += 1,
            _ => {}
        });
        assert_eq!(
            loads_t,
            0,
            "temp loads should be forwarded:\n{}",
            crate::pretty::function_to_string(&f)
        );
        assert_eq!(
            stores_t,
            0,
            "dead temp stores should be eliminated:\n{}",
            crate::pretty::function_to_string(&f)
        );
    }

    /// The default pipeline must reach its fixpoint (not the iteration
    /// cap) on representative shapes, and report it.
    #[test]
    fn default_pipeline_converges() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 8, BufKind::ParamIn);
        let t = b.buffer("t", 8, BufKind::Local);
        let y = b.buffer("y", 8, BufKind::ParamOut);
        let i = b.begin_for(0, 8, 1);
        let r = b.sload(MemRef::new(x, Affine::var(i)));
        let d = b.sbin(BinOp::Mul, r, 2.0);
        b.sstore(d, MemRef::new(t, Affine::var(i)));
        b.end_for();
        let j = b.begin_for(0, 8, 1);
        let r2 = b.sload(MemRef::new(t, Affine::var(j)));
        let d2 = b.sbin(BinOp::Add, r2, 1.0);
        b.sstore(d2, MemRef::new(y, Affine::var(j)));
        b.end_for();
        let mut f = b.finish();
        let stats = optimize_with_stats(&mut f, &PassConfig::default(), &mut |_, _| {});
        assert!(stats.converged, "cleanup must exit on a fixpoint, not the cap");
        assert!(!stats.rounds.is_empty());
        // once converged, the final round's CSE scan was either skipped or
        // touched only what the previous round changed
        let last = stats.rounds.last().unwrap();
        assert!(!last.changed);
    }

    /// A capped run (iterations = 1 on a body that needs more) reports
    /// `converged == false` instead of silently stopping.
    #[test]
    fn capped_run_is_reported() {
        let mut b = FunctionBuilder::new("p", 1);
        let x = b.buffer("x", 4, BufKind::ParamIn);
        let t = b.buffer("t", 4, BufKind::Local);
        let y = b.buffer("y", 4, BufKind::ParamOut);
        for i in 0..4 {
            let r = b.sload(MemRef::new(x, i));
            let d = b.sbin(BinOp::Mul, r, 2.0);
            b.sstore(d, MemRef::new(t, i));
            let r2 = b.sload(MemRef::new(t, i));
            let d2 = b.sbin(BinOp::Add, r2, 1.0);
            b.sstore(d2, MemRef::new(y, i));
        }
        let mut f = b.finish();
        let capped = PassConfig { iterations: 1, ..PassConfig::default() };
        let stats = optimize_with_stats(&mut f, &capped, &mut |_, _| {});
        // one round of forward+cse+copyprop+dce changes things; the loop
        // stops on the cap with work still pending
        assert_eq!(stats.rounds.len(), 1);
        assert!(stats.rounds[0].changed);
        assert!(!stats.converged, "a capped exit must be reported");
    }
}

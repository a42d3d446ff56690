//! Golden C snapshots per target, and the cross-target acceptance
//! criteria of the retargetable-backend refactor:
//!
//! * the emitted source for a pinned potrf8 variant is byte-stable per
//!   target (scalar / SSE2 / AVX2 / AVX2+FMA) — `tests/snapshots/`;
//! * each target's output contains/omits the fused-multiply intrinsic
//!   family as appropriate (potrf's updates contract to
//!   `_mm256_fnmadd_pd`, the `c - a*b` form);
//! * on `Avx2Fma` the contraction pass strictly reduces modeled cycles
//!   vs. `Avx2` on potrf16 and kf8 (the machines differ only in FMA, so
//!   the delta isolates contraction);
//! * `generate()` on the default target is the AVX2 target — unchanged
//!   historical behavior.

use slingen::{apps, generate_with_spec, Options, Target, VariantSpec};
use slingen_synth::Policy;

/// The pinned variant each snapshot was generated from: Lazy policy at
/// the target's widest ν, loop threshold 64.
fn snapshot_generated(target: Target) -> slingen::Generated {
    let opts = Options::for_target(target);
    let spec = VariantSpec { policy: Policy::Lazy, nu: target.max_width(), loop_threshold: 64 };
    generate_with_spec(&apps::potrf(8), spec, &opts).expect("potrf8 generates")
}

fn snapshot_path(target: Target) -> String {
    // the test is attached to crates/core; snapshots live at the repo root
    format!("{}/../../tests/snapshots/potrf8_{target}.c", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn potrf8_c_is_byte_stable_per_target() {
    for target in Target::ALL {
        let want = std::fs::read_to_string(snapshot_path(target))
            .unwrap_or_else(|e| panic!("missing snapshot for {target}: {e}"));
        let got = snapshot_generated(target).c_code.to_string();
        assert_eq!(
            got, want,
            "{target}: emitted C drifted from tests/snapshots/potrf8_{target}.c — if the \
             change is intentional, regenerate the snapshot and note it in the PR"
        );
    }
}

#[test]
fn snapshots_use_the_right_intrinsic_families() {
    let scalar = std::fs::read_to_string(snapshot_path(Target::Scalar)).unwrap();
    assert!(!scalar.contains("_mm"), "scalar target must not use intrinsics");
    assert!(!scalar.contains("fma("), "no contraction on a non-FMA target");

    let sse2 = std::fs::read_to_string(snapshot_path(Target::Sse2)).unwrap();
    assert!(sse2.contains("_mm_") && !sse2.contains("_mm256"), "sse2 is the 128-bit family");
    assert!(!sse2.contains("maskload") && !sse2.contains("maskstore"), "no masked mem on SSE2");
    assert!(!sse2.contains("_mm_blend_pd"), "no immediate blends on SSE2");
    assert!(!sse2.contains("fmadd") && !sse2.contains("fmsub"), "no FMA on SSE2");

    let avx2 = std::fs::read_to_string(snapshot_path(Target::Avx2)).unwrap();
    assert!(avx2.contains("_mm256_"), "avx2 is the 256-bit family");
    assert!(
        !avx2.contains("fmadd") && !avx2.contains("fnmadd") && !avx2.contains("fmsub"),
        "the default target must omit every fused form"
    );

    let fma = std::fs::read_to_string(snapshot_path(Target::Avx2Fma)).unwrap();
    assert!(
        fma.contains("_mm256_fnmadd_pd"),
        "potrf's c - a*b updates must contract to fnmadd on the FMA target"
    );
}

/// The headline acceptance criterion: with otherwise-identical cost
/// tables, turning on FMA (and with it the contraction pass) strictly
/// reduces the tuned modeled cycle count on potrf16 and kf8.
#[test]
fn avx2fma_strictly_beats_avx2_on_potrf16_and_kf8() {
    for (name, program) in [("potrf16", apps::potrf(16)), ("kf8", apps::kf(8))] {
        let base = slingen::generate(&program, &Options::for_target(Target::Avx2)).unwrap();
        let fused = slingen::generate(&program, &Options::for_target(Target::Avx2Fma)).unwrap();
        assert!(
            fused.report.cycles < base.report.cycles,
            "{name}: Avx2Fma ({}) must strictly beat Avx2 ({})",
            fused.report.cycles,
            base.report.cycles
        );
        let mut fmas = 0usize;
        fused.function.for_each_instr(&mut |i| {
            if matches!(i, slingen_cir::Instr::SFma { .. } | slingen_cir::Instr::VFma { .. }) {
                fmas += 1;
            }
        });
        assert!(fmas > 0, "{name}: the FMA winner must actually contain fused instructions");
        let mut base_fmas = 0usize;
        base.function.for_each_instr(&mut |i| {
            if matches!(i, slingen_cir::Instr::SFma { .. } | slingen_cir::Instr::VFma { .. }) {
                base_fmas += 1;
            }
        });
        assert_eq!(base_fmas, 0, "{name}: the non-FMA target must never emit fused instructions");
    }
}

/// `Options::default()` is the AVX2 target: same machine, same search
/// space, same winner — the pre-refactor behavior is the default path.
#[test]
fn default_options_are_the_avx2_target() {
    let d = Options::default();
    assert_eq!(d.target, Target::Avx2);
    assert_eq!(d.nu, 4);
    let p = apps::potrf(8);
    let a = slingen::generate(&p, &Options::default()).unwrap();
    let b = slingen::generate(&p, &Options::for_target(Target::Avx2)).unwrap();
    assert_eq!(a.c_code, b.c_code);
    assert_eq!(a.spec, b.spec);
    assert_eq!(a.report.cycles, b.report.cycles);
}

/// The ν axis of the search space is derived from the target's widths: a
/// Scalar target never explores vector variants, SSE2 stops at ν = 2.
#[test]
fn search_space_nu_axis_follows_target_widths() {
    for (target, max_nu) in
        [(Target::Scalar, 1), (Target::Sse2, 2), (Target::Avx2, 4), (Target::Avx2Fma, 4)]
    {
        let opts = Options::for_target(target);
        let specs = opts.search.enumerate(opts.target, opts.nu);
        assert!(!specs.is_empty());
        for spec in &specs {
            assert!(
                target.supports_width(spec.nu),
                "{target}: spec ν={} outside the target's widths",
                spec.nu
            );
        }
        assert_eq!(specs.iter().map(|s| s.nu).max().unwrap(), max_nu, "{target}");
        let g = slingen::generate(&apps::potrf(6), &opts).unwrap();
        assert!(g.spec.nu <= max_nu, "{target}: winner ν={} too wide", g.spec.nu);
    }
}

/// The tuning cache keys on the target: the same program generated for
/// two targets through one shared cache yields two distinct entries.
#[test]
fn tune_cache_distinguishes_targets() {
    let p = apps::potrf(6);
    let avx2 = Options::for_target(Target::Avx2);
    let fma = Options { cache: avx2.cache.clone(), ..Options::for_target(Target::Avx2Fma) };
    let g1 = slingen::generate(&p, &avx2).unwrap();
    assert!(!g1.tuning.cache_hit);
    let g2 = slingen::generate(&p, &fma).unwrap();
    assert!(!g2.tuning.cache_hit, "a different target must miss the cache");
    assert_eq!(avx2.cache.len(), 2);
    // and each replays its own artifact
    assert!(slingen::generate(&p, &avx2).unwrap().tuning.cache_hit);
    assert!(slingen::generate(&p, &fma).unwrap().tuning.cache_hit);
}

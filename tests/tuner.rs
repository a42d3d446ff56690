//! Tuner regression suite: the variant-space search must return the true
//! optimum of its space, deterministically, on every paper app.

use proptest::prelude::*;
use slingen::{apps, generate_with_spec, Options, SearchSpace, Strategy, Target, VariantSpec};
use slingen_ir::Program;
use slingen_perf::pressure_lower_bound;
use slingen_synth::Policy;

fn paper_apps() -> Vec<(&'static str, Program)> {
    vec![
        ("potrf", apps::potrf(6)),
        ("trsyl", apps::trsyl(4)),
        ("trlya", apps::trlya(4)),
        ("trtri", apps::trtri(6)),
        ("kf", apps::kf(4)),
        ("gpr", apps::gpr(4)),
        ("l1a", apps::l1a(8)),
    ]
}

/// The tuned winner (default greedy search) is at least as fast as every
/// point of the space, on all 7 paper apps — i.e. greedy finds the global
/// optimum of the default space, not just a local one.
#[test]
fn tuned_winner_bounds_every_point_on_all_apps() {
    for (name, program) in paper_apps() {
        let opts = Options::default();
        let tuned = slingen::generate(&program, &opts).unwrap();
        for spec in opts.search.enumerate(opts.target, opts.nu) {
            let point = generate_with_spec(&program, spec, &opts).unwrap();
            assert!(
                tuned.report.cycles <= point.report.cycles + 1e-9,
                "{name}: tuned {} ({}) loses to point {} ({})",
                tuned.spec,
                tuned.report.cycles,
                spec,
                point.report.cycles
            );
        }
    }
}

/// The acceptance bound of the search refactor: the default tuner can
/// never lose to the historical 2-policy autotuner (both policies at the
/// options' ν and loop threshold).
#[test]
fn tuned_winner_never_loses_to_the_two_policy_fanout() {
    for (name, program) in paper_apps() {
        let opts = Options::default();
        let tuned = slingen::generate(&program, &opts).unwrap();
        for policy in Policy::ALL {
            let old = slingen::generate_with_policy(&program, policy, &opts).unwrap();
            assert!(
                tuned.report.cycles <= old.report.cycles + 1e-9,
                "{name}: tuned {} loses to 2-policy winner {policy}",
                tuned.spec
            );
        }
    }
}

/// The static pressure bound behind the tuner's incumbent cutoff never
/// exceeds the measured makespan, on every app × target × ν × policy: the
/// "prune" really is a lower bound, so skipping the VM for `lb > budget`
/// variants can only drop losers.
#[test]
fn pressure_lower_bound_never_exceeds_the_makespan() {
    for (name, program) in paper_apps() {
        for target in Target::ALL {
            let opts = Options::for_target(target);
            for &nu in target.widths() {
                for policy in Policy::ALL {
                    let spec = VariantSpec { policy, nu, loop_threshold: 64 };
                    let g = generate_with_spec(&program, spec, &opts).unwrap();
                    let lb = pressure_lower_bound(&g.function, &opts.machine);
                    assert!(
                        lb <= g.report.cycles + 1e-9,
                        "{name}/{target}/{spec}: pressure bound {lb} exceeds measured makespan {}",
                        g.report.cycles
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: across random Cholesky sizes, the greedy winner matches
    /// the exhaustive winner's modeled cycles (the coordinate descent
    /// does not get stuck in a local minimum of this space).
    #[test]
    fn greedy_matches_exhaustive_on_random_sizes(n in 3usize..12) {
        let program = apps::potrf(n);
        let greedy = slingen::generate(&program, &Options::default()).unwrap();
        let opts = Options {
            search: SearchSpace::default().with_strategy(Strategy::Exhaustive),
            ..Options::default()
        };
        let exhaustive = slingen::generate(&program, &opts).unwrap();
        prop_assert!(
            greedy.report.cycles <= exhaustive.report.cycles + 1e-9,
            "potrf({}): greedy {} ({}) vs exhaustive {} ({})",
            n, greedy.spec, greedy.report.cycles, exhaustive.spec, exhaustive.report.cycles
        );
    }
}

/// Two `generate()` runs racing on parallel threads (separate caches)
/// must produce byte-identical C and the same winning variant; a third,
/// sequential run must agree too.
#[test]
fn parallel_generation_is_deterministic() {
    let make = || {
        let program = apps::kf(4);
        let g = slingen::generate(&program, &Options::default()).unwrap();
        (g.c_code, g.spec)
    };
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(make);
        let hb = s.spawn(make);
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a.1, b.1, "winning VariantSpec must be identical");
    assert_eq!(a.0, b.0, "winning C code must be byte-identical");
    let c = make();
    assert_eq!(a.1, c.1);
    assert_eq!(a.0, c.0);
}

/// A shared cache serves repeated generation of the same kernel without
/// re-searching, and the cached result is the same artifact.
#[test]
fn cache_replays_identical_artifacts() {
    let program = apps::trtri(8);
    let opts = Options::default();
    let cold = slingen::generate(&program, &opts).unwrap();
    assert!(!cold.tuning.cache_hit);
    assert!(cold.tuning.explored >= 3);
    for _ in 0..3 {
        let warm = slingen::generate(&program, &opts).unwrap();
        assert!(warm.tuning.cache_hit);
        assert_eq!(warm.c_code, cold.c_code);
        assert_eq!(warm.spec, cold.spec);
        assert_eq!(warm.report.cycles, cold.report.cycles);
    }
    assert_eq!(opts.cache.stats(), (3, 1));
    // a different program through the same cache is a fresh entry
    let other = slingen::generate(&apps::trtri(6), &opts).unwrap();
    assert!(!other.tuning.cache_hit);
    assert_eq!(opts.cache.len(), 2);
    // the search is a pure function of the space, so a request seeded at
    // another axis member (threshold 256) replays the canonical entry
    let wider = Options { loop_threshold: 256, cache: opts.cache.clone(), ..Options::default() };
    let g = slingen::generate(&program, &wider).unwrap();
    assert!(g.tuning.cache_hit, "an axis-member seed threshold must hit the canonical entry");
    assert_eq!(g.c_code, cold.c_code);
    assert_eq!(opts.cache.len(), 2);
    // options that genuinely change the searched space still miss
    let narrowed = Options {
        search: SearchSpace::default().with_loop_thresholds(vec![16, 64]),
        cache: opts.cache.clone(),
        ..Options::default()
    };
    let g = slingen::generate(&program, &narrowed).unwrap();
    assert!(!g.tuning.cache_hit, "a different search space must miss");
    assert_eq!(opts.cache.len(), 3);
}

/// The cache key canonicalizes the seed coordinates: requests whose raw
/// `nu`/`loop_threshold` snap to the same axis members provably run the
/// same search, so they share one entry instead of missing.
#[test]
fn cache_canonicalizes_equivalent_seed_options() {
    let program = apps::trtri(8);
    let opts = Options::default(); // nu 4, threshold 64
    let cold = slingen::generate(&program, &opts).unwrap();
    assert!(!cold.tuning.cache_hit);
    // Every member of the default threshold axis {16, 64, 256} — and
    // off-axis values such as 100 and 63 — shares the canonical entry:
    // the greedy seed is derived from the space, not from the request.
    // ν = 8 snaps to 4 (the widest member of the AVX2 ν axis). All are
    // the same canonical search as the cold run.
    for (nu, thr) in [(4, 16), (4, 64), (4, 256), (4, 100), (4, 63), (8, 64)] {
        let equiv =
            Options { nu, loop_threshold: thr, cache: opts.cache.clone(), ..Options::default() };
        let warm = slingen::generate(&program, &equiv).unwrap();
        assert!(warm.tuning.cache_hit, "(ν={nu}, thr={thr}) must hit the canonical entry");
        assert_eq!(warm.c_code, cold.c_code);
        assert_eq!(warm.spec, cold.spec);
    }
    assert_eq!(opts.cache.len(), 1, "equivalent requests must share one entry");
}

/// Exploration statistics reconcile: every point of an exhaustive search
/// is accounted exactly once, predicted variants are part of that total,
/// and no lowered representative skips its measurement.
#[test]
fn exhaustive_stats_reconcile_with_the_space() {
    for (name, program) in paper_apps() {
        let opts = Options {
            search: SearchSpace::default().with_strategy(Strategy::Exhaustive),
            ..Options::default()
        };
        let g = slingen::generate(&program, &opts).unwrap();
        let space = opts.search.len(opts.target, opts.nu);
        assert_eq!(
            g.tuning.explored, space,
            "{name}: every point of the space must be accounted exactly once"
        );
        assert!(
            g.tuning.predicted < g.tuning.explored,
            "{name}: at least one variant must be a measured representative"
        );
        assert_eq!(g.tuning.deduped, 0, "{name}: every representative is measured");
        // The threshold axis has 3 members per (policy, ν) group; any
        // group whose profile separates fewer than 3 classes yields
        // predicted collisions. All 7 paper apps have at least one.
        assert!(g.tuning.predicted > 0, "{name}: expected predicted collisions, got none");
    }
}

/// A pinned policy bypasses the search but still reports its spec.
#[test]
fn pinned_policy_skips_search() {
    let program = apps::potrf(6);
    let opts = Options { policy: Some(slingen_synth::Policy::Lazy), ..Options::default() };
    let g = slingen::generate(&program, &opts).unwrap();
    assert_eq!(g.policy, slingen_synth::Policy::Lazy);
    assert_eq!(g.tuning.explored, 1);
    assert_eq!(opts.cache.stats(), (0, 0), "pinned generation must not consult the cache");
}

/// An empty search space is a graceful error under every strategy, not a
/// panic.
#[test]
fn empty_search_space_errors() {
    let program = apps::potrf(6);
    for strategy in [Strategy::Greedy, Strategy::Exhaustive] {
        let opts = Options {
            search: SearchSpace::default().with_loop_thresholds(Vec::new()).with_strategy(strategy),
            ..Options::default()
        };
        assert!(slingen::generate(&program, &opts).is_err(), "{strategy:?} must error");
        let opts = Options {
            search: SearchSpace::default().with_policies(Vec::new()).with_strategy(strategy),
            ..Options::default()
        };
        assert!(slingen::generate(&program, &opts).is_err(), "{strategy:?} must error");
    }
}

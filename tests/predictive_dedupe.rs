//! Soundness of the tuner's predictive threshold dedupe: the
//! [`LowerProfile`] recorded while Stage 2 runs classifies every loop
//! threshold exactly — two thresholds in the same class ("predicted
//! equal") must produce byte-identical C after the full pipeline, on
//! every paper app × target × ν × policy. The tuner skips Stage 2/3 for
//! predicted collisions, so this suite is the end-to-end proof that the
//! skip never changes the winner.

use proptest::prelude::*;
use slingen::{apps, generate_with_spec, Options, Target, VariantSpec};
use slingen_ir::Program;
use slingen_lgen::{lower_program_profiled, LowerOptions};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

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

/// Thresholds spanning all-looped (0) through all-unrolled (4096).
const THRESHOLDS: &[usize] = &[0, 16, 64, 256, 4096];

fn profile_for(
    program: &Program,
    policy: Policy,
    nu: usize,
    loop_threshold: usize,
) -> slingen_lgen::LowerProfile {
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(program, policy, nu, &mut db).expect("paper app synthesizes");
    let (_, profile) = lower_program_profiled(
        program,
        &basic,
        program.name(),
        &LowerOptions::new(nu, loop_threshold),
    )
    .expect("paper app lowers");
    profile
}

/// Exhaustive sweep: for every app × target × ν × policy, thresholds in
/// the same profile class emit byte-identical C; and the profile itself
/// is threshold-independent (the works values are recorded before the
/// loop-vs-unroll decision).
#[test]
fn equal_classes_are_byte_identical_everywhere() {
    for (name, program) in paper_apps() {
        for target in Target::ALL {
            for &nu in target.widths() {
                for policy in Policy::ALL {
                    let profile = profile_for(&program, policy, nu, THRESHOLDS[0]);
                    let mut by_class: HashMap<usize, (usize, Arc<str>)> = HashMap::new();
                    for &t in THRESHOLDS {
                        assert_eq!(
                            profile,
                            profile_for(&program, policy, nu, t),
                            "{name}/{target}/nu{nu}/{policy}: profile must not depend on the \
                             threshold"
                        );
                        let opts = Options::for_target(target);
                        let spec = VariantSpec { policy, nu, loop_threshold: t };
                        let c = generate_with_spec(&program, spec, &opts)
                            .expect("paper app generates")
                            .c_code;
                        match by_class.entry(profile.loop_class(t)) {
                            Entry::Occupied(e) => assert_eq!(
                                c,
                                e.get().1,
                                "{name}/{target}/nu{nu}/{policy}: thresholds {t} and {} share a \
                                 class but emit different C",
                                e.get().0
                            ),
                            Entry::Vacant(v) => {
                                v.insert((t, c));
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for random (app, target, policy, ν, threshold pair)
    /// draws, equal profile classes imply byte-identical emitted C.
    #[test]
    fn random_threshold_pairs_respect_their_class(
        app_idx in 0usize..7,
        target_idx in 0usize..4,
        policy_idx in 0usize..2,
        nu_idx in 0usize..3,
        t1 in 0usize..600,
        t2 in 0usize..600,
    ) {
        let (name, program) = paper_apps().swap_remove(app_idx);
        let target = Target::ALL[target_idx % Target::ALL.len()];
        let policy = Policy::ALL[policy_idx % Policy::ALL.len()];
        let widths = target.widths();
        let nu = widths[nu_idx % widths.len()];
        let profile = profile_for(&program, policy, nu, t1);
        if profile.loop_class(t1) != profile.loop_class(t2) {
            // not a predicted-equal pair; draw the next case (the
            // vendored proptest shim has no `prop_assume!`)
            continue;
        }
        let opts = Options::for_target(target);
        let c1 = generate_with_spec(
            &program, VariantSpec { policy, nu, loop_threshold: t1 }, &opts,
        ).unwrap().c_code;
        let c2 = generate_with_spec(
            &program, VariantSpec { policy, nu, loop_threshold: t2 }, &opts,
        ).unwrap().c_code;
        prop_assert_eq!(
            c1, c2,
            "{}/{}/nu{}/{}: predicted-equal thresholds {} and {} emit different C",
            name, target, nu, policy, t1, t2
        );
    }
}

//! Golden Stage-3 output table: for every paper app × target × ν ×
//! policy (loop threshold 64), plus the tuned `generate()` winner per
//! app × target, the digest and length of the emitted C and the exact
//! IEEE-754 wire encoding of the measured [`Report`].
//!
//! Any change to what Stages 1–3 produce, or to what the model measures,
//! shows up as a changed line in `tests/snapshots/stage3_digests.txt`.
//! If a change is intentional, regenerate the table with
//! `SLINGEN_BLESS=1 cargo test --release -p slingen --test stage3_digests`
//! and say so in the change description.
//!
//! [`Report`]: slingen_perf::Report

use slingen::{apps, generate, generate_with_spec, Generated, Options, Target, VariantSpec};
use slingen_cir::unparse::digest_c_for;
use slingen_ir::Program;
use slingen_synth::Policy;
use std::collections::{BTreeMap, BTreeSet};

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

fn line(label: &str, name: &str, target: Target, g: &Generated) -> String {
    let (digest, len) = digest_c_for(&g.function, target);
    format!("{label} {name} {target} {} {digest:016x} {len} {}\n", g.spec, g.report.to_wire())
}

fn digest_table() -> String {
    let mut table = String::new();
    for (name, program) in paper_apps() {
        for target in Target::ALL {
            let opts = Options::for_target(target);
            for &nu in target.widths() {
                for policy in Policy::ALL {
                    let spec = VariantSpec { policy, nu, loop_threshold: 64 };
                    let g = generate_with_spec(&program, spec, &opts)
                        .unwrap_or_else(|e| panic!("{name}/{target}/{spec}: {e:?}"));
                    table.push_str(&line("pinned", name, target, &g));
                }
            }
            let g = generate(&program, &opts)
                .unwrap_or_else(|e| panic!("{name}/{target} tuned: {e:?}"));
            table.push_str(&line("tuned", name, target, &g));
        }
    }
    table
}

/// Rows of one app × target with equal C digest and length must carry
/// equal reports: the tuner measures every representative, so a body that
/// two variants lower to identically is measured twice and must rank the
/// same both times. At least one such group spans both policies, the case
/// predictive dedupe cannot see.
fn assert_duplicate_bodies_measure_alike(table: &str) {
    let mut groups: BTreeMap<[&str; 4], (BTreeSet<&str>, BTreeSet<&str>)> = BTreeMap::new();
    for row in table.lines() {
        let f: Vec<&str> = row.splitn(7, ' ').collect();
        let (name, target, spec, digest, len, wire) = (f[1], f[2], f[3], f[4], f[5], f[6]);
        let (wires, policies) = groups.entry([name, target, digest, len]).or_default();
        wires.insert(wire);
        policies.insert(spec.split('/').next().expect("spec has a policy"));
    }
    for (key, (wires, _)) in &groups {
        assert_eq!(wires.len(), 1, "{key:?}: byte-identical C measured to different reports");
    }
    assert!(
        groups.values().any(|(_, policies)| policies.len() > 1),
        "expected a byte-identical body shared across policies"
    );
}

#[test]
fn stage3_output_matches_the_golden_table() {
    let path = format!("{}/../../tests/snapshots/stage3_digests.txt", env!("CARGO_MANIFEST_DIR"));
    let got = digest_table();
    assert_duplicate_bodies_measure_alike(&got);
    if std::env::var_os("SLINGEN_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write the golden table");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden table exists");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}: Stage-3 output drifted from the golden table", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden table row count changed");
}

//! Emit the generated single-source C for every benchmark kernel and
//! application — the paper's actual deliverable format.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example emit_c [--target scalar|sse2|avx2|avx2fma|all] [out_dir]
//! ```
//!
//! `--target` selects the instruction-set target (default `avx2`, the
//! historical behavior); `--target all` emits every shipped target into
//! per-target subdirectories, demonstrating the retargetable backend:
//! the same LA program becomes plain C, `_mm_*`, `_mm256_*`, or
//! `_mm256_fmadd_pd` code from one machine description.

use slingen::{apps, Options, Target};

fn emit_for(target: Target, out_dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(out_dir)?;
    let programs = vec![
        ("potrf", apps::potrf(12)),
        ("trsyl", apps::trsyl(8)),
        ("trlya", apps::trlya(8)),
        ("trtri", apps::trtri(12)),
        ("kf", apps::kf(8)),
        ("gpr", apps::gpr(8)),
        ("l1a", apps::l1a(16)),
    ];
    let opts = Options::for_target(target);
    for (name, program) in programs {
        let g = slingen::generate(&program, &opts)?;
        let path = format!("{out_dir}/{name}.c");
        std::fs::write(&path, g.c_code.as_bytes())?;
        println!(
            "{path}: [{target}] {} instrs, {} variant, {:.2} f/c modeled",
            g.function.static_instr_count(),
            g.spec,
            g.flops_per_cycle()
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target_arg: Option<String> = None;
    let mut out_dir = "generated_c".to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--target" {
            target_arg = args.get(i + 1).cloned();
            if target_arg.is_none() {
                eprintln!("error: --target requires a value (scalar|sse2|avx2|avx2fma|all)");
                std::process::exit(2);
            }
            i += 2;
        } else {
            out_dir = args[i].clone();
            i += 1;
        }
    }
    match target_arg.as_deref() {
        None => emit_for(Target::Avx2, &out_dir),
        Some("all") => {
            for target in Target::ALL {
                emit_for(target, &format!("{out_dir}/{target}"))?;
            }
            Ok(())
        }
        Some(name) => match Target::parse(name) {
            Some(target) => emit_for(target, &out_dir),
            None => {
                eprintln!("error: unknown target `{name}` (scalar|sse2|avx2|avx2fma|all)");
                std::process::exit(2);
            }
        },
    }
}

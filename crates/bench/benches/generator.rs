//! Criterion micro-benchmarks: generator compile time (Stages 1-3),
//! VM execution throughput, and the Stage-3 pass pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use slingen::{apps, Options};
use slingen_cir::passes::{optimize, PassConfig};
use slingen_lgen::{lower_program, LowerOptions};
use slingen_synth::{synthesize_program, AlgorithmDb, Policy};
use slingen_vm::{BufferSet, NullMonitor};

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generation");
    g.sample_size(10);
    for n in [8usize, 16, 32] {
        let program = apps::potrf(n);
        g.bench_function(format!("potrf_{n}_full_pipeline"), |b| {
            b.iter(|| slingen::generate(&program, &Options::default()).unwrap())
        });
    }
    let program = apps::kf(8);
    g.bench_function("kf_8_full_pipeline", |b| {
        b.iter(|| slingen::generate(&program, &Options::default()).unwrap())
    });
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    let program = apps::potrf(24);
    g.bench_function("stage1_synthesis", |b| {
        b.iter(|| {
            let mut db = AlgorithmDb::new();
            synthesize_program(&program, Policy::Lazy, 4, &mut db).unwrap()
        })
    });
    let mut db = AlgorithmDb::new();
    let basic = synthesize_program(&program, Policy::Lazy, 4, &mut db).unwrap();
    g.bench_function("stage2_lowering", |b| {
        b.iter(|| lower_program(&program, &basic, "potrf", &LowerOptions::default()).unwrap())
    });
    let f0 = lower_program(&program, &basic, "potrf", &LowerOptions::default()).unwrap();
    g.bench_function("stage3_passes", |b| {
        b.iter(|| {
            let mut f = f0.clone();
            optimize(&mut f, &PassConfig::default());
            f
        })
    });
    // pass pipeline on a bigger, fully-unrolled function (~43k instrs)
    let program64 = apps::potrf(64);
    let mut db64 = AlgorithmDb::new();
    let basic64 = synthesize_program(&program64, Policy::Lazy, 4, &mut db64).unwrap();
    let f64_ = lower_program(&program64, &basic64, "potrf", &LowerOptions::default()).unwrap();
    g.bench_function("stage3_passes_potrf64", |b| {
        b.iter(|| {
            let mut f = f64_.clone();
            optimize(&mut f, &PassConfig::default());
            f
        })
    });
    // incremental CSE in isolation: one nearly-clean round over the
    // converged ~43k-instruction potrf64 body (a single register dirty),
    // i.e. the cost the fixpoint loop pays per round after the seeding
    // scan — memoized key reuse plus dirty-set bookkeeping.
    use slingen_cir::passes::{cse, DirtyLog, RoundStats};
    let mut fc = f64_.clone();
    optimize(&mut fc, &PassConfig::default());
    let mut cache = cse::CseCache::default();
    let mut dirty = DirtyLog::all_dirty();
    let mut seed_round = RoundStats::default();
    cse::cse_incremental(&mut fc, &mut cache, &mut dirty, &mut seed_round);
    g.bench_function("cse_incremental", |b| {
        b.iter(|| {
            let mut round = RoundStats::default();
            dirty.mark_s(slingen_cir::SReg(0));
            cse::cse_incremental(&mut fc, &mut cache, &mut dirty, &mut round);
            round.cse_reused
        })
    });
    g.finish();
}

/// The autotuning search: Stage 1 through one shared algorithm database,
/// Stages 2-3 + measurement fanned out on parallel threads, over the
/// policy × ν × loop-threshold variant space.
fn bench_autotune(c: &mut Criterion) {
    use slingen::{SearchSpace, Strategy};
    let mut g = c.benchmark_group("autotune");
    g.sample_size(10);
    let potrf = apps::potrf(24);
    g.bench_function("autotune_fanout_potrf24", |b| {
        b.iter(|| slingen::generate(&potrf, &Options::default()).unwrap())
    });
    let kf = apps::kf(8);
    g.bench_function("autotune_fanout_kf8", |b| {
        b.iter(|| slingen::generate(&kf, &Options::default()).unwrap())
    });
    // the variant-space strategies head-to-head on one workload: greedy
    // coordinate descent (the default), the exhaustive sweep, and the
    // historical 2-policy row of the space
    let potrf16 = apps::potrf(16);
    g.bench_function("space_greedy_potrf16", |b| {
        b.iter(|| slingen::generate(&potrf16, &Options::default()).unwrap())
    });
    g.bench_function("space_exhaustive_potrf16", |b| {
        b.iter(|| {
            let opts = Options {
                search: SearchSpace::default().with_strategy(Strategy::Exhaustive),
                ..Options::default()
            };
            slingen::generate(&potrf16, &opts).unwrap()
        })
    });
    g.bench_function("space_policy_row_potrf16", |b| {
        b.iter(|| {
            let opts = Options {
                search: SearchSpace::default().with_nus([4]).with_loop_thresholds([64]),
                ..Options::default()
            };
            slingen::generate(&potrf16, &opts).unwrap()
        })
    });
    // repeated generation of the same program through one shared cache:
    // the high-traffic-service path (O(1) per request after the first)
    let cached_opts = Options::default();
    slingen::generate(&potrf16, &cached_opts).unwrap();
    g.bench_function("space_cached_potrf16", |b| {
        b.iter(|| slingen::generate(&potrf16, &cached_opts).unwrap())
    });
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm");
    g.sample_size(20);
    let program = apps::potrf(24);
    let generated = slingen::generate(&program, &Options::default()).unwrap();
    let mut fb = slingen_cir::FunctionBuilder::new("probe", 4);
    let map = slingen_lgen::BufferMap::build(&program, &mut fb);
    let inputs = slingen::workload::inputs(&program, 3);
    g.bench_function("execute_potrf_24", |b| {
        b.iter(|| {
            let mut bufs = BufferSet::for_function(&generated.function);
            for (op, data) in &inputs {
                bufs.set(map.buf(*op), data);
            }
            slingen_vm::execute(&generated.function, &mut bufs, &mut NullMonitor).unwrap();
            bufs
        })
    });
    g.finish();
}

criterion_group!(benches, bench_generation, bench_stages, bench_autotune, bench_vm);
criterion_main!(benches);

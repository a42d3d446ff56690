//! `cold_paper`: one closed-loop client sends `emit:"c"` requests for
//! distinct keys into a fresh cache, so every request is a cold search.
//!
//! A run serves whole passes over the capped Fig. 14/15 grid (see
//! [`inputs::cold_pass`]) until `--seconds` have passed; each pass gets a
//! fresh `Engine` and cache, so a key repeats across passes but never
//! within one cache. After the
//! window every distinct winner is checked with `slingen::verify`, every
//! response is compared byte for byte with the first response for its
//! key, and the n = 4 winners are compiled and timed.
//!
//! With `--trace 1` each request is followed by a replay of the search it
//! ran, through the public layer calls, in the order the search lowered
//! its representatives ([`replay`]).

use crate::calib::Reference;
use crate::inputs::{self, Key};
use crate::stats::{median_setup, ms_since, smooth_quantile, Metrics};
use crate::{fields, options_for, Ctx, Outcome};
use slingen::serve::{escape_json, Engine, Request};
use slingen::{Options, Target, TuneCache, VariantSpec};
use slingen_cir::passes::optimize_with_stats;
use slingen_cir::unparse::{digest_c_for, to_c_for};
use slingen_cir::{Function, FunctionBuilder};
use slingen_lgen::{lower_program_profiled, BufferMap};
use slingen_synth::{synthesize_program, AlgorithmDb, BasicProgram, Policy};
use slingen_vm::BufferSet;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// `slingen::verify` bound on the largest absolute output difference
/// between a winner and the Stage-1 reference, per unit of n: the
/// generator's own tests use 1e-8 at n <= 8, and rounding error grows
/// with the reduction length.
const VERIFY_TOL_PER_N: f64 = 1e-9;

/// Tail percentile of the request latencies: ~80 of ~800 requests (the
/// largest keys) lie beyond it; p99 would leave eight, all of one key.
const TAIL: f64 = 90.0;

/// Requests served between two bursts of the host-speed reference.
const REF_EVERY: usize = 4;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new(ctx.jobs);
    let mut rep = 0;
    let probe = inputs::probe_set();
    crate::reference_bursts(&mut reference);
    let (setup_s, naive) = median_setup(crate::SETUP_REPS, || {
        rep += 1;
        let dir = ctx.setup_dir(&format!("setup{rep}"));
        crate::naive_binaries(ctx, &probe, &dir)
    });
    out.e2e.set("setup_s", setup_s, "s");

    let mut lat_ms = Vec::new();
    let mut first: HashMap<Key, String> = HashMap::new();
    let mut pass0: Option<Engine> = None;
    let mut searches = 0u64;
    let ids: HashMap<(&str, usize, Target), usize> = inputs::grid()
        .into_iter()
        .flat_map(|(a, n)| [(a, n, Target::Avx2), (a, n, Target::Avx2Fma)])
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();
    let cpu0 = crate::stats::cpu_ms();
    let ref_cpu0 = reference.cpu_ms();
    let mut ref_ms = 0.0;
    let steal0 = crate::stats::steal_jiffies();
    let t0 = Instant::now();
    // Whole passes only, so every run serves each key equally often and
    // the latency distribution does not depend on where the clock ran out.
    for pass in 0.. {
        if pass > 0 && t0.elapsed().as_secs_f64() - ref_ms / 1e3 >= ctx.seconds {
            break;
        }
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        for key in inputs::cold_pass(ctx.seed, pass) {
            if lat_ms.len() % REF_EVERY == 0 {
                ref_ms += reference.burst();
            }
            let line = key.request(ids[&(key.app, key.n, key.target)], "c");
            let t = Instant::now();
            let resp = engine.handle_line(&line);
            let ms = ms_since(t);
            lat_ms.push(ms);
            let f = fields(&resp);
            out.check(f.ok && f.c.is_some(), || {
                format!("{}: {}", key.label(), resp.chars().take(200).collect::<String>())
            });
            match first.get(&key) {
                Some(r) => out.check(*r == resp, || {
                    format!("{}: response differs across passes", key.label())
                }),
                None => {
                    first.insert(key, resp);
                }
            }
            if ctx.trace {
                replay(&key, &line, &first[&key], &mut out);
            }
        }
        searches += engine.cache().searches();
        if pass == 0 {
            pass0 = Some(engine);
        }
    }
    // The reference bursts are left out of the serving clock and CPU.
    let wall_s = t0.elapsed().as_secs_f64() - ref_ms / 1e3;
    let cpu = crate::stats::cpu_ms() - cpu0 - (reference.cpu_ms() - ref_cpu0);
    out.layers.set("host.steal_pct", crate::stats::steal_pct(steal0), "%");
    let n = lat_ms.len().max(1) as f64;
    out.e2e.set("req_per_s", lat_ms.len() as f64 / wall_s, "1/s");
    crate::set_latency(&mut out, &lat_ms, TAIL);
    out.e2e.set("cpu_ms_per_req", cpu / n, "ms");
    out.layers.set("cache.searches", searches as f64, "count");
    if ctx.trace {
        finish_trace(&mut out.layers, &lat_ms);
    }

    let cache = pass0.expect("the window runs pass 0").cache().clone();
    let mut c_bytes = 0usize;
    let mut keys: Vec<&Key> = first.keys().collect();
    keys.sort();
    for key in keys {
        let program = key.program();
        match slingen::generate(&program, &options_for(key, &cache)) {
            Ok(g) => {
                c_bytes += g.c_code.len();
                let served = fields(&first[key]).c.unwrap_or("");
                out.check(escape_json(&g.c_code) == served, || {
                    format!("{}: served C is not the cached winner's", key.label())
                });
                let diff =
                    slingen::verify(&program, &g.function, g.spec.policy, g.spec.nu, ctx.seed);
                let tol = VERIFY_TOL_PER_N * key.n as f64;
                out.check(matches!(diff, Ok(d) if d <= tol), || {
                    format!("{}: verify gave {diff:?} (bound {tol:e})", key.label())
                });
            }
            Err(e) => out.check(false, || format!("{}: {e}", key.label())),
        }
    }
    out.e2e.set("emitted_c_kb", c_bytes as f64 / 1024.0, "KB");
    match naive {
        Ok(naive) => crate::probe_kernels(ctx, &cache, naive, &mut reference, &mut out),
        Err(e) => out.check(false, || format!("naive set-up: {e}")),
    }
    crate::at_reference_speed(&mut out, &reference, &crate::SERVING_TIMES);
    out
}

/// Per-request totals the traced replay reports as layer metrics.
fn finish_trace(m: &mut Metrics, untraced_ms: &[f64]) {
    let untraced: f64 = untraced_ms.iter().sum();
    let layers = m.get("trace.layers_ms").unwrap_or(0.0);
    m.set("trace.requests", untraced_ms.len() as f64, "count");
    m.set("trace.request_wall_ms", untraced, "ms");
    m.set("trace.request_p50_ms", smooth_quantile(untraced_ms, 0.5), "ms");
    m.set("tuner.parallel_gain", layers / untraced.max(f64::MIN_POSITIVE), "ratio");
    let explored = m.get("tuner.explored").unwrap_or(0.0);
    let reps = m.get("tuner.reps").unwrap_or(0.0);
    m.set("tuner.rep_ratio", reps / explored.max(1.0), "ratio");
    let (hits, misses) =
        (m.get("synth.db_hits").unwrap_or(0.0), m.get("synth.db_misses").unwrap_or(0.0));
    m.set("synth.db_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    let (reused, rekeyed) =
        (m.get("passes.cse_reused").unwrap_or(0.0), m.get("passes.cse_rekeyed").unwrap_or(0.0));
    m.set("passes.cse_reuse_ratio", reused / (reused + rekeyed).max(1.0), "ratio");
    let reqs = untraced_ms.len().max(1) as f64;
    for (total, name) in [
        ("serve.parse_total_ms", "serve.parse_us"),
        ("apps.build_total_ms", "apps.build_us"),
        ("serve.escape_total_ms", "serve.escape_us"),
    ] {
        m.set(name, m.get(total).unwrap_or(0.0) * 1e3 / reqs, "us");
    }
    m.set("serve.resp_kb", m.get("serve.resp_total_kb").unwrap_or(0.0) / reqs, "KB");
}

/// Time `f`, adding its wall time in ms to layer `name` and to the
/// replay's running total.
fn timed<T>(m: &mut Metrics, name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    let ms = ms_since(t);
    m.add(name, ms, "ms");
    m.add("trace.layers_ms", ms, "ms");
    r
}

/// Replay one request's search through the public layer calls.
///
/// `generate` with the request's options yields the representatives the
/// search lowered (`rep_costs`, in search order) and its stats. Each
/// representative is then synthesized (once per (policy, ν), through one
/// shared `AlgorithmDb`, as the search does), lowered, optimized with the
/// per-pass observer, digested, bounded, and model-measured (once per
/// distinct body, as the search does). The winner — least modeled cycles,
/// ties to the earlier point of the space — is unparsed and escaped. A
/// replay whose winner spec or escaped C differs from the served response
/// counts in `trace.replay_mismatches`: its layer figures then do not
/// describe the timed search.
fn replay(key: &Key, line: &str, served: &str, out: &mut Outcome) {
    let m = &mut out.layers;
    let req = timed(m, "serve.parse_total_ms", || Request::parse(line, Target::Avx2));
    let program = timed(m, "apps.build_total_ms", || key.program());
    let options = Options::for_target(key.target);
    let g = match (req, slingen::generate(&program, &options)) {
        (Ok(_), Ok(g)) => g,
        (r, g) => {
            out.check(false, || {
                format!("{}: replay set-up failed: {:?} {:?}", key.label(), r.err(), g.err())
            });
            return;
        }
    };
    m.add("tuner.explored", g.tuning.explored as f64, "count");
    m.add("tuner.reps", g.rep_costs.len() as f64, "count");
    m.add("tuner.predicted", g.tuning.predicted as f64, "count");
    m.add("tuner.deduped", g.tuning.deduped as f64, "count");
    m.add("tuner.pruned", g.tuning.pruned as f64, "count");
    m.add("tuner.lb_pruned", g.tuning.lb_pruned as f64, "count");

    let order: HashMap<VariantSpec, usize> = options
        .search
        .enumerate(options.target, options.nu)
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i))
        .collect();
    let passes = options.passes.for_target(options.target);
    let mut db = AlgorithmDb::new();
    let mut basics: HashMap<(Policy, usize), BasicProgram> = HashMap::new();
    let mut measured: HashMap<(u64, usize), f64> = HashMap::new();
    let mut best: Option<(f64, usize, VariantSpec)> = None;
    let mut winner_fn: Option<Function> = None;
    for rc in &g.rep_costs {
        let spec = rc.spec;
        let basic = match basics.entry((spec.policy, spec.nu)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                let r = timed(m, "synth.ms", || {
                    synthesize_program(&program, spec.policy, spec.nu, &mut db)
                });
                m.add("synth.calls", 1.0, "count");
                match r {
                    Ok(b) => slot.insert(b),
                    Err(e) => {
                        out.check(false, || {
                            format!("{}: replay synthesis of {spec}: {e}", key.label())
                        });
                        return;
                    }
                }
            }
        };
        let lowered = timed(m, "lgen.ms", || {
            lower_program_profiled(&program, basic, program.name(), &spec.lower_options())
        });
        let (mut f, profile) = match lowered {
            Ok(lowered) => lowered,
            Err(e) => {
                out.check(false, || format!("{}: replay lowering of {spec}: {e}", key.label()));
                return;
            }
        };
        m.add("lgen.instrs", f.static_instr_count() as f64, "count");
        let mut per_pass: Vec<(String, f64)> = Vec::new();
        let stats = timed(m, "passes.ms", || {
            optimize_with_stats(&mut f, &passes, &mut |name, d| {
                per_pass.push((format!("passes.{name}_ms"), d.as_nanos() as f64 / 1e6))
            })
        });
        for (name, ms) in per_pass {
            m.add(&name, ms, "ms");
        }
        m.add("passes.rounds", stats.rounds.len() as f64, "count");
        for r in &stats.rounds {
            m.add("passes.cse_reused", r.cse_reused as f64, "count");
            m.add("passes.cse_rekeyed", r.cse_rekeyed as f64, "count");
            m.add("passes.blocks_skipped", r.blocks_skipped as f64, "count");
        }
        m.add("passes.instrs_out", f.static_instr_count() as f64, "count");
        let body = timed(m, "unparse.digest_ms", || digest_c_for(&f, options.target));
        timed(m, "perf.lower_bound_ms", || {
            slingen_perf::pressure_lower_bound(&f, &options.machine)
        });
        if measured.contains_key(&body) {
            continue;
        }
        let report = timed(m, "perf.measure_ms", || model_measure(&program, &f, &options));
        let Ok(report) = report else {
            out.check(false, || format!("{}: replay measurement of {spec} failed", key.label()));
            return;
        };
        m.add("perf.dyn_instrs", report.instructions as f64, "count");
        measured.insert(body, report.cycles);
        // Every threshold of this (policy, ν) in the representative's loop
        // class shares its body and measurement, as the search predicts.
        let class = profile.loop_class(spec.loop_threshold);
        for (&s, &ord) in &order {
            let shares = (s.policy, s.nu) == (spec.policy, spec.nu)
                && profile.loop_class(s.loop_threshold) == class;
            if shares && best.as_ref().is_none_or(|b| (report.cycles, ord) < (b.0, b.1)) {
                best = Some((report.cycles, ord, s));
                winner_fn = Some(f.clone());
            }
        }
    }
    m.add("synth.db_hits", db.hits() as f64, "count");
    m.add("synth.db_misses", db.misses() as f64, "count");
    let (Some((_, _, spec)), Some(f)) = (best, winner_fn) else {
        out.check(false, || format!("{}: replay measured nothing", key.label()));
        return;
    };
    let c = timed(m, "unparse.emit_ms", || to_c_for(&f, options.target));
    m.add("unparse.c_bytes", c.len() as f64, "bytes");
    let escaped = timed(m, "serve.escape_total_ms", || escape_json(&c));
    m.add("serve.resp_total_kb", served.len() as f64 / 1024.0, "KB");
    let sf = fields(served);
    let same = g.spec == spec && sf.winner == spec.to_string() && sf.c == Some(escaped.as_str());
    m.add("trace.replay_mismatches", f64::from(u8::from(!same)), "count");
}

/// The model measurement the tuner runs on a lowered body: the VM under
/// the machine model, on the canonical autotuning workload.
fn model_measure(
    program: &slingen_ir::Program,
    f: &Function,
    options: &Options,
) -> Result<slingen_perf::Report, slingen_vm::VmError> {
    let mut fb = FunctionBuilder::new("probe", f.width);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(f);
    for (op, data) in slingen::workload::inputs(program, options.seed) {
        bufs.set(map.buf(op), &data);
    }
    slingen_perf::measure(f, &mut bufs, None, &options.machine)
}

//! The repository's benchmark: cold generation, hot serving, and measured
//! kernel time, each end to end, plus a traced run per workload that
//! times the layers from outside through their public functions.
//!
//! ```text
//! slingen-perfbench --workload cold_paper|hot_serve|kernels \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; see `README.md` for
//! every metric, its unit and the layer it belongs to.

mod calib;
mod cold;
mod hot;
mod inputs;
mod kernels;
mod stats;

use calib::Reference;
use inputs::Key;
use kernels::{Binary, Pair, Source};
use slingen::{Options, TuneCache};
use stats::{median_setup, Metrics};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How long `cold_paper` and `hot_serve` time their own n = 4 kernels
/// after serving.
const PROBE_SECONDS: f64 = 2.0;

/// Tail percentile of `kernels`' harness-run latencies: ~130 of ~1300
/// runs lie beyond it.
const KERNELS_TAIL: f64 = 90.0;

/// Bursts of the host-speed reference timed just before set-up.
const SETUP_BURSTS: usize = 5;

/// The end-to-end metrics `cold_paper` and `hot_serve` report at
/// reference speed, each with whether it is a rate (divided by the scale)
/// rather than a time (multiplied by it).
///
/// `kernel_ns_geomean` is not among them: the kernels are compute-bound
/// and L1-resident, timed by the harness from the TSC, and a busy host
/// slows them about half as much as the reference, so scaling
/// over-corrected them (IQR over median up to 0.136 scaled against 0.070
/// as measured over ten seeds).
pub const SERVING_TIMES: [(&str, bool); 5] = [
    ("setup_s", false),
    ("req_per_s", true),
    ("latency_p50_ms", false),
    ("latency_tail_ms", false),
    ("cpu_ms_per_req", false),
];

/// The end-to-end metric `kernels` reports at reference speed. Its
/// harness-run figures are mostly the harness's fixed 10 ms TSC
/// calibration loop, and its kernel times are compute-bound (see
/// [`SERVING_TIMES`]); they are reported as measured.
const KERNELS_TIMES: [(&str, bool); 1] = [("setup_s", false)];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("emitted_c_kb", "KB"),
    ("kernel_ns_geomean", "ns"),
    ("speedup_vs_naive", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("synth.ms", "ms"),
    ("synth.calls", "count"),
    ("synth.db_hit_ratio", "ratio"),
    ("lgen.ms", "ms"),
    ("lgen.instrs", "count"),
    ("passes.ms", "ms"),
    ("passes.unroll_ms", "ms"),
    ("passes.constfold_ms", "ms"),
    ("passes.rename_ms", "ms"),
    ("passes.forward_ms", "ms"),
    ("passes.cse_ms", "ms"),
    ("passes.contract_ms", "ms"),
    ("passes.copyprop_ms", "ms"),
    ("passes.dce_ms", "ms"),
    ("passes.rounds", "count"),
    ("passes.cse_reuse_ratio", "ratio"),
    ("passes.blocks_skipped", "count"),
    ("passes.instrs_out", "count"),
    ("unparse.digest_ms", "ms"),
    ("unparse.emit_ms", "ms"),
    ("unparse.c_bytes", "bytes"),
    ("perf.measure_ms", "ms"),
    ("perf.lower_bound_ms", "ms"),
    ("perf.dyn_instrs", "count"),
    ("tuner.explored", "count"),
    ("tuner.reps", "count"),
    ("tuner.rep_ratio", "ratio"),
    ("tuner.predicted", "count"),
    ("tuner.deduped", "count"),
    ("tuner.pruned", "count"),
    ("tuner.lb_pruned", "count"),
    ("tuner.parallel_gain", "ratio"),
    ("cache.hit_us", "us"),
    ("cache.load_ms", "ms"),
    ("cache.materialize_ms", "ms"),
    ("cache.save_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.searches", "count"),
    ("serve.parse_us", "us"),
    ("serve.escape_us", "us"),
    ("serve.resp_kb", "KB"),
    ("apps.build_us", "us"),
    ("harness.cc_ms", "ms"),
    ("harness.c_bytes", "bytes"),
    ("harness.runs", "count"),
    ("host.nproc", "count"),
    ("host.tsc_ghz", "GHz"),
    ("host.steal_pct", "%"),
    ("host.ref_burst_ms", "ms"),
    ("trace.requests", "count"),
    ("trace.request_wall_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("trace.request_p50_ms", "ms"),
    ("trace.replay_mismatches", "count"),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory under the working directory; removed when the
    /// run ends.
    pub work: PathBuf,
    /// Concurrent compilers, and threads of `cold_paper`'s host-speed
    /// reference: at most `nproc`, at most two.
    pub jobs: usize,
}

impl Ctx {
    /// A fresh directory for set-up repetition `rep`, so no repetition
    /// reuses another's binaries.
    fn setup_dir(&self, rep: &str) -> PathBuf {
        let d = self.work.join(rep);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("work directory is writable");
        d
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }
}

/// The fields of a serve response line the benchmark checks.
pub struct Fields<'a> {
    pub ok: bool,
    pub winner: &'a str,
    pub cycles: &'a str,
    /// The JSON-escaped C, if the response carries it.
    pub c: Option<&'a str>,
}

/// Pull the fields the benchmark checks out of one serve response line.
pub fn fields(resp: &str) -> Fields<'_> {
    let between = |start: &str, end: char| -> &str {
        resp.find(start)
            .map(|i| &resp[i + start.len()..])
            .map(|r| &r[..r.find(end).unwrap_or(r.len())])
            .unwrap_or("")
    };
    let c = resp.find(",\"c\":\"").map(|i| &resp[i + 6..]).and_then(|r| r.strip_suffix("\"}"));
    Fields {
        ok: resp.contains("\"ok\":true"),
        winner: between("\"winner\":\"", '"'),
        cycles: between("\"cycles\":", ','),
        c,
    }
}

/// The generation options a serve request for `key` uses, over `cache`.
pub fn options_for(key: &Key, cache: &TuneCache) -> Options {
    Options { cache: cache.clone(), ..Options::for_target(key.target) }
}

/// Straightforward-C harness sources for `keys`.
fn naive_sources(ctx: &Ctx, keys: &[Key]) -> Result<Vec<Source>, String> {
    let data_seed = inputs::kernel_data_seed(ctx.seed);
    keys.iter()
        .map(|k| {
            let program = k.program();
            let f = kernels::naive_function(&program)?;
            kernels::source(&format!("naive_{}{}", k.app, k.n), &program, &f, data_seed)
        })
        .collect()
}

/// Straightforward-C harnesses for `keys`, compiled (set-up of
/// `cold_paper` and `hot_serve`).
fn naive_binaries(ctx: &Ctx, keys: &[Key], dir: &Path) -> Result<Vec<Binary>, String> {
    kernels::compile_all(naive_sources(ctx, keys)?, dir, ctx.jobs).into_iter().collect()
}

/// What a winner contributes to a [`Pair`] besides its binary: modeled
/// cycles and bytes of emitted C.
type WinnerInfo = (f64, usize);

/// Harness sources for the winners of `keys` in `cache`. A key `cache`
/// has no entry for is generated cold.
fn winner_sources(
    ctx: &Ctx,
    keys: &[Key],
    cache: &TuneCache,
) -> Result<(Vec<Source>, Vec<WinnerInfo>), String> {
    let data_seed = inputs::kernel_data_seed(ctx.seed);
    let mut sources = Vec::new();
    let mut info = Vec::new();
    for k in keys {
        let program = k.program();
        let g = slingen::generate(&program, &options_for(k, cache)).map_err(|e| e.to_string())?;
        let name = format!("slingen_{}{}", k.app, k.n);
        sources.push(kernels::source(&name, &program, &g.function, data_seed)?);
        info.push((g.report.cycles, g.c_code.len()));
    }
    Ok((sources, info))
}

fn pairs(
    keys: &[Key],
    ours: Vec<Result<Binary, String>>,
    naive: Vec<Binary>,
    info: Vec<WinnerInfo>,
) -> Result<Vec<Pair>, String> {
    keys.iter()
        .zip(ours)
        .zip(naive)
        .zip(info)
        .map(|(((key, bin), naive), (model_cycles, c_bytes))| {
            Ok(Pair { key: *key, slingen: bin?, naive, model_cycles, c_bytes })
        })
        .collect()
}

/// The n = 4 kernel check `cold_paper` and `hot_serve` run after
/// serving: compile the winners their own cache holds and time them
/// against the naive binaries built during set-up.
pub fn probe_kernels(
    ctx: &Ctx,
    cache: &TuneCache,
    naive: Vec<Binary>,
    reference: &mut Reference,
    out: &mut Outcome,
) {
    let keys = inputs::probe_set();
    let dir = ctx.setup_dir("probe");
    let built = winner_sources(ctx, &keys, cache).and_then(|(sources, info)| {
        pairs(&keys, kernels::compile_all(sources, &dir, ctx.jobs), naive, info)
    });
    match built {
        Ok(pairs) => {
            record_timing(ctx, &pairs, PROBE_SECONDS, reference, out);
        }
        Err(e) => out.check(false, || format!("kernel probe: {e}")),
    }
}

fn record_timing(
    ctx: &Ctx,
    pairs: &[Pair],
    seconds: f64,
    reference: &mut Reference,
    out: &mut Outcome,
) -> kernels::Timing {
    for bin in pairs.iter().flat_map(|p| [&p.slingen, &p.naive]) {
        if bin.vm_check.is_nan() {
            println!("# note: {} outputs NaN on this seed's inputs in the VM", bin.name);
        }
    }
    let timing = kernels::time_pairs(pairs, seconds, ctx.seed, reference);
    out.attempted += timing.attempted;
    out.failed += timing.failed;
    out.errors.extend(timing.errors.iter().take(10).cloned());
    out.e2e.set("kernel_ns_geomean", timing.kernel_ns_geomean(), "ns");
    out.e2e.set("speedup_vs_naive", timing.speedup_geomean(), "ratio");
    kernels::layer_metrics(pairs, &timing, &mut out.layers);
    timing
}

/// `kernels`: set-up generates the winners of the fixed kernel set and
/// compiles them and their naive counterparts; the run times the pairs
/// interleaved. A "request" here is one harness run: one hardware timing
/// trial, the unit of work of the measured autotuner.
fn kernels_workload(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let keys = inputs::kernel_set();
    // The harnesses run one at a time, so the reference runs on one thread.
    let mut reference = Reference::new(1);
    reference_bursts(&mut reference);
    let mut rep = 0;
    let (setup_s, built) = median_setup(SETUP_REPS, || {
        rep += 1;
        let dir = ctx.setup_dir(&format!("setup{rep}"));
        let (mut sources, info) = winner_sources(ctx, &keys, &TuneCache::new())?;
        sources.extend(naive_sources(ctx, &keys)?);
        let mut ours = kernels::compile_all(sources, &dir, ctx.jobs);
        let naive = ours.split_off(keys.len()).into_iter().collect::<Result<Vec<_>, _>>()?;
        pairs(&keys, ours, naive, info)
    });
    out.e2e.set("setup_s", setup_s, "s");
    let pairs = match built {
        Ok(p) => p,
        Err(e) => {
            out.check(false, || format!("kernels set-up: {e}"));
            return out;
        }
    };
    let cpu0 = stats::cpu_ms();
    let ref_cpu0 = reference.cpu_ms();
    let steal0 = stats::steal_jiffies();
    let t0 = Instant::now();
    let timing = record_timing(ctx, &pairs, ctx.seconds, &mut reference, &mut out);
    // The reference bursts between rounds are left out of the clock and CPU.
    let wall_s = t0.elapsed().as_secs_f64() - timing.ref_ms / 1e3;
    let cpu = stats::cpu_ms() - cpu0 - (reference.cpu_ms() - ref_cpu0);
    out.layers.set("host.steal_pct", stats::steal_pct(steal0), "%");
    let runs = timing.run_ms.len().max(1) as f64;
    out.e2e.set("req_per_s", timing.run_ms.len() as f64 / wall_s, "1/s");
    set_latency(&mut out, &timing.run_ms, KERNELS_TAIL);
    out.e2e.set("cpu_ms_per_req", cpu / runs, "ms");
    let c_bytes: usize = pairs.iter().map(|p| p.c_bytes).sum();
    out.e2e.set("emitted_c_kb", c_bytes as f64 / 1024.0, "KB");
    out.layers.set("unparse.c_bytes", c_bytes as f64, "bytes");
    out.layers.set("trace.requests", runs, "count");
    out.layers.set("trace.request_wall_ms", timing.run_ms.iter().sum(), "ms");
    out.layers.set("trace.request_p50_ms", stats::smooth_quantile(&timing.run_ms, 0.5), "ms");
    at_reference_speed(&mut out, &reference, &KERNELS_TIMES);
    out
}

/// Time bursts of the host-speed reference before a set-up, so its scale
/// covers the set-up's stretch of the run too.
pub fn reference_bursts(reference: &mut Reference) {
    for _ in 0..SETUP_BURSTS {
        reference.burst();
    }
}

/// Put the time metrics `names` of `out` at reference speed (see
/// `calib.rs`), printing each as measured beside it.
pub fn at_reference_speed(out: &mut Outcome, reference: &Reference, names: &[(&str, bool)]) {
    let scale = reference.scale();
    println!(
        "# reference: {} bursts, median {} ms; times below scaled by {} to the reference speed",
        reference.bursts(),
        stats::json_num(reference.median_ms()),
        stats::json_num(scale)
    );
    out.layers.set("host.ref_burst_ms", reference.median_ms(), "ms");
    for &(name, rate) in names {
        if let Some(v) = out.e2e.get(name) {
            let unit = END_TO_END.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| *u);
            println!("# {name} as measured: {} {unit}", stats::json_num(v));
            out.e2e.set(name, if rate { v / scale } else { v * scale }, unit);
        }
    }
}

/// Record `latency_p50_ms` and `latency_tail_ms`, the `tail`th
/// percentile, from request latencies in ms, both as kernel estimates
/// ([`stats::smooth_quantile`]), and print how many samples lie beyond
/// the tail percentile.
///
/// Each workload fixes its tail percentile so that on the reference host
/// eighty samples or more lie beyond it, whatever the run's
/// throughput: a percentile picked by sample count (the highest one with
/// ten samples beyond) would change with the host's speed, and so would
/// the metric's meaning.
pub fn set_latency(out: &mut Outcome, lat_ms: &[f64], tail: f64) {
    out.e2e.set("latency_p50_ms", stats::smooth_quantile(lat_ms, 0.5), "ms");
    out.e2e.set("latency_tail_ms", stats::smooth_quantile(lat_ms, tail / 100.0), "ms");
    let beyond = (lat_ms.len() as f64 * (1.0 - tail / 100.0)).round();
    println!("# latency_tail_ms is p{tail} of {} requests ({beyond} beyond it)", lat_ms.len());
}

fn host_descriptor(tsc_ghz: Option<f64>, nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let cc = std::process::Command::new("cc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".into());
    let tsc = tsc_ghz.map(stats::json_num).unwrap_or_else(|| "null".into());
    format!(
        "{{\"host\": {{\"cpu\": \"{}\", \"nproc\": {nproc}, \"tsc_ghz\": {tsc}, \"cc\": \"{}\"}}}}",
        slingen::serve::escape_json(&cpu),
        slingen::serve::escape_json(&cc)
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !["cold_paper", "hot_serve", "kernels"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slingen-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("slingen-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        jobs: nproc.clamp(1, 2),
    };
    println!(
        "# workload {} seed {} seconds {} trace {} inputs {:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::fingerprint(args.seed)
    );
    let mut out = match args.workload.as_str() {
        "cold_paper" => cold::run(&ctx),
        "hot_serve" => hot::run(&ctx),
        _ => kernels_workload(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    out.e2e.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.set("ok_frac", ok_frac, "ratio");
    out.layers.set("host.nproc", nproc as f64, "count");
    for e in &out.errors {
        println!("# failed: {e}");
    }
    println!(
        "# failed_frac {} ({} of {} checked operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", host_descriptor(out.layers.get("host.tsc_ghz"), nproc));
    println!(
        "# {:.2}% of the host's CPU time was stolen by the hypervisor during the window",
        out.layers.get("host.steal_pct").unwrap_or(0.0)
    );
    let (names, source): (&[(&str, &str)], &Metrics) =
        if args.trace { (&PER_LAYER, &out.layers) } else { (&END_TO_END, &out.e2e) };
    let mut report = Metrics::default();
    for &(name, unit) in names {
        report.set(name, source.get(name).unwrap_or(0.0), unit);
    }
    if args.trace {
        // Per-kernel figures follow the fixed list, in kernel-set order.
        for k in inputs::kernel_set() {
            let id = format!("{}{}", k.app, k.n);
            for (name, unit) in [
                (format!("kernel.{id}_ns"), "ns"),
                (format!("naive.{id}_ns"), "ns"),
                (format!("model.{id}_cycles"), "model_cycles"),
            ] {
                let v = out.layers.get(&name).unwrap_or(0.0);
                report.set(name, v, unit);
            }
        }
    }
    for (name, value, unit) in report.iter() {
        println!("# {name:<28} {:>16} {unit}", stats::json_num(*value));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        report.to_json()
    );
}

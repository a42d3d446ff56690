//! Measured kernel time: emitted SLinGen C against straightforward C.
//!
//! Both sides go through `slingen_cir::unparse::to_c_harness` and the
//! same compiler flags, `-ffp-contract=off` included, so the compiler
//! fuses no multiply-adds the VM keeps separate. Every harness run's
//! `SLINGEN_CHECK` output checksum is compared with the VM's checksum of
//! the same function on the same inputs, so a binary that computed the
//! wrong thing is counted as failed, never timed.

use crate::calib::Reference;
use crate::inputs::Key;
use crate::stats::{geomean, median, ms_since, Metrics};
use slingen_baselines::{baseline_codegen, Flavor};
use slingen_cir::unparse::{to_c_harness, HarnessOpts};
use slingen_cir::{BufKind, Function, FunctionBuilder, Target};
use slingen_ir::Program;
use slingen_lgen::BufferMap;
use slingen_vm::{BufferSet, NullMonitor};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Flags shared by both sides; the ISA flags match `avx2fma`, the only
/// target the benchmark times.
pub const CFLAGS: [&str; 5] = ["-std=c99", "-O2", "-mavx2", "-mfma", "-ffp-contract=off"];

/// Harness loop shape: each run reports the median over `REPS` of the
/// fastest of `INNER` calls.
const WARMUP: u32 = 10;
const REPS: u32 = 21;
const INNER: u32 = 25;

/// Relative distance allowed between the harness checksum and the VM's.
/// Both sum the same outputs in the same order, so they agree exactly
/// unless the compiled code computed something else.
pub const CHECK_RTOL: f64 = 1e-12;

/// A harness source ready to compile, with the VM's checksum of the same
/// function on the same inputs.
pub struct Source {
    pub name: String,
    pub code: String,
    pub vm_check: f64,
}

/// A compiled harness binary.
pub struct Binary {
    pub name: String,
    pub path: PathBuf,
    pub vm_check: f64,
    pub c_bytes: usize,
    pub cc_ms: f64,
}

/// One harness run's output.
pub struct Run {
    pub ns: f64,
    pub tsc_hz: f64,
    pub wall_ms: f64,
}

/// The straightforward-C competitor: `Flavor::ClangPolly` scalar code.
pub fn naive_function(program: &Program) -> Result<Function, String> {
    baseline_codegen(program, Flavor::ClangPolly).map(|b| b.function).map_err(|e| e.to_string())
}

/// The harness source for `function` on the seeded inputs of `program`,
/// and the VM's checksum of the same call: the sum of every output
/// parameter in parameter order, exactly as the harness sums it.
pub fn source(
    name: &str,
    program: &Program,
    function: &Function,
    data_seed: u64,
) -> Result<Source, String> {
    let mut fb = FunctionBuilder::new("probe", function.width);
    let map = BufferMap::build(program, &mut fb);
    let mut bufs = BufferSet::for_function(function);
    for (op, data) in slingen::workload::inputs(program, data_seed) {
        bufs.set(map.buf(op), &data);
    }
    let inits: Vec<Vec<f64>> = function.params().map(|(id, _)| bufs.get(id).to_vec()).collect();
    slingen_vm::execute(function, &mut bufs, &mut NullMonitor).map_err(|e| e.to_string())?;
    let mut vm_check = 0.0;
    for (id, decl) in function.params() {
        if decl.kind != BufKind::ParamIn {
            vm_check += bufs.get(id).iter().take(decl.len).sum::<f64>();
        }
    }
    let opts = HarnessOpts { inits: &inits, warmup: WARMUP, reps: REPS, inner: INNER };
    let code = to_c_harness(function, Target::Avx2Fma, &opts);
    Ok(Source { name: name.to_string(), code, vm_check })
}

/// The headers every harness includes, with the feature macro the
/// harness defines ahead of them. Parsing `x86intrin.h` is most of a
/// harness's compile time and the same for every kernel, so it is
/// precompiled once per directory, with the harness flags, and every
/// harness (SLinGen and naive alike) is compiled with `-include` of it.
const PRELUDE: &str = "#define _POSIX_C_SOURCE 199309L\n#include <math.h>\n#include <stdio.h>\n\
                       #include <stdlib.h>\n#include <string.h>\n#include <time.h>\n\
                       #include <x86intrin.h>\n";

fn precompile_prelude(dir: &Path) -> Result<PathBuf, String> {
    let header = dir.join("prelude.h");
    std::fs::write(&header, PRELUDE).map_err(|e| format!("write {}: {e}", header.display()))?;
    let out = Command::new("cc")
        .args(CFLAGS)
        .args(["-x", "c-header"])
        .arg(&header)
        .arg("-o")
        .arg(dir.join("prelude.h.gch"))
        .env("TMPDIR", dir)
        .output()
        .map_err(|e| format!("cc not runnable: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "precompiling the harness headers failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(header)
}

/// Compile `sources` into `dir` on up to `jobs` concurrent compilers.
/// The compiler's temporaries go to `dir` as well.
pub fn compile_all(sources: Vec<Source>, dir: &Path, jobs: usize) -> Vec<Result<Binary, String>> {
    let prelude = match precompile_prelude(dir) {
        Ok(p) => p,
        Err(e) => return sources.iter().map(|_| Err(e.clone())).collect(),
    };
    // Largest first, so the compilers finish close together.
    let mut order: Vec<usize> = (0..sources.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sources[i].code.len()));
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<Binary, String>>>> =
        Mutex::new((0..sources.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, sources.len().max(1)) {
            s.spawn(|| {
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let r = compile(&sources[i], dir, &prelude);
                    out.lock().expect("compile result lock poisoned")[i] = Some(r);
                }
            });
        }
    });
    out.into_inner()
        .expect("compile result lock poisoned")
        .into_iter()
        .map(|r| r.expect("every source compiled"))
        .collect()
}

fn compile(src: &Source, dir: &Path, prelude: &Path) -> Result<Binary, String> {
    let c = dir.join(format!("{}.c", src.name));
    let bin = dir.join(&src.name);
    std::fs::write(&c, &src.code).map_err(|e| format!("write {}: {e}", c.display()))?;
    let t = Instant::now();
    let out = Command::new("cc")
        .args(CFLAGS)
        .arg("-include")
        .arg(prelude)
        .arg("-o")
        .arg(&bin)
        .arg(&c)
        .arg("-lm")
        .env("TMPDIR", dir)
        .output()
        .map_err(|e| format!("cc not runnable: {e}"))?;
    let cc_ms = ms_since(t);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diag = stderr.lines().find(|l| l.contains("error")).unwrap_or("no diagnostics");
        return Err(format!("{}: compile failed: {diag}", src.name));
    }
    Ok(Binary {
        name: src.name.clone(),
        path: bin,
        vm_check: src.vm_check,
        c_bytes: src.code.len(),
        cc_ms,
    })
}

/// Run one harness and check its output checksum against the VM's.
pub fn run(bin: &Binary) -> Result<Run, String> {
    let t = Instant::now();
    let out = Command::new(&bin.path).output().map_err(|e| format!("{}: {e}", bin.name))?;
    let wall_ms = ms_since(t);
    if !out.status.success() {
        return Err(format!("{}: exited with {}", bin.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |line: &str, key: &str| -> Option<f64> {
        let mut toks = line.split_whitespace();
        while let Some(t) = toks.next() {
            if t == key {
                return toks.next()?.parse().ok();
            }
        }
        None
    };
    let measure = stdout.lines().find(|l| l.starts_with("SLINGEN_MEASURE "));
    let check = stdout.lines().find(|l| l.starts_with("SLINGEN_CHECK "));
    let (Some(m), Some(c)) = (measure, check) else {
        return Err(format!("{}: unparseable output {stdout:?}", bin.name));
    };
    // The harness also prints its TSC reading, labelled "cycles"; it is
    // TSC ticks, and `ns` is the same reading converted at the TSC rate
    // the harness measured against CLOCK_MONOTONIC.
    let (Some(ns), Some(tsc_hz), Some(check)) =
        (field(m, "ns"), field(m, "tsc_hz"), field(c, "SLINGEN_CHECK"))
    else {
        return Err(format!("{}: unparseable output {stdout:?}", bin.name));
    };
    if !checksums_agree(check, bin.vm_check) {
        return Err(format!(
            "{}: SLINGEN_CHECK {check:e} differs from the VM's {:e}",
            bin.name, bin.vm_check
        ));
    }
    Ok(Run { ns, tsc_hz, wall_ms })
}

/// Whether a harness checksum matches the VM's: within [`CHECK_RTOL`],
/// or NaN on both sides. Inputs outside a kernel's domain (a matrix that
/// is not positive definite reaching a Cholesky step) make the VM and the
/// compiled C alike produce NaN; that is agreement, not a miscompile.
pub fn checksums_agree(harness: f64, vm: f64) -> bool {
    (harness.is_nan() && vm.is_nan()) || (harness - vm).abs() <= CHECK_RTOL * vm.abs().max(1.0)
}

/// A kernel and its straightforward-C competitor, compiled.
pub struct Pair {
    pub key: Key,
    pub slingen: Binary,
    pub naive: Binary,
    /// The winner's modeled cycles (the machine model, not a measurement).
    pub model_cycles: f64,
    /// Bytes of the winner's emitted C (`to_c_for`, no harness).
    pub c_bytes: usize,
}

/// What interleaved timing of a set of pairs measured.
#[derive(Default)]
pub struct Timing {
    /// Median ns per call of each pair's SLinGen and naive binary.
    pub kernel_ns: Vec<f64>,
    pub naive_ns: Vec<f64>,
    /// Median over rounds of each pair's naive/SLinGen ratio.
    pub speedup: Vec<f64>,
    /// Wall time of every harness run, ms.
    pub run_ms: Vec<f64>,
    pub tsc_hz: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rounds: u64,
    /// Wall time of the reference bursts between rounds, in ms.
    pub ref_ms: f64,
}

impl Timing {
    pub fn kernel_ns_geomean(&self) -> f64 {
        geomean(&self.kernel_ns)
    }

    pub fn speedup_geomean(&self) -> f64 {
        geomean(&self.speedup)
    }
}

/// Pairs timed between two bursts of the host-speed reference.
const PAIRS_PER_BURST: usize = 4;

/// Time every pair, SLinGen and naive back to back with the side that
/// goes first alternating by round, over rounds in a seeded order until
/// `seconds` have passed (at least three rounds), with a burst of
/// `reference` before every [`PAIRS_PER_BURST`] pairs; the bursts do not
/// count towards `seconds`.
pub fn time_pairs(pairs: &[Pair], seconds: f64, seed: u64, reference: &mut Reference) -> Timing {
    let mut t = Timing::default();
    let mut ours: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut theirs: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
    let start = Instant::now();
    while t.rounds < 3 || start.elapsed().as_secs_f64() - t.ref_ms / 1e3 < seconds {
        for (k, i) in
            crate::inputs::round_order(seed, t.rounds, pairs.len()).into_iter().enumerate()
        {
            if k % PAIRS_PER_BURST == 0 {
                t.ref_ms += reference.burst();
            }
            let p = &pairs[i];
            let order =
                if t.rounds % 2 == 0 { [&p.slingen, &p.naive] } else { [&p.naive, &p.slingen] };
            let mut got = [None, None];
            for bin in order {
                t.attempted += 1;
                match run(bin) {
                    Ok(r) => {
                        t.run_ms.push(r.wall_ms);
                        t.tsc_hz.push(r.tsc_hz);
                        let side = usize::from(std::ptr::eq(bin, &p.naive));
                        got[side] = Some(r.ns);
                    }
                    Err(e) => {
                        t.failed += 1;
                        t.errors.push(e);
                    }
                }
            }
            if let [Some(a), Some(b)] = got {
                ours[i].push(a);
                theirs[i].push(b);
                ratios[i].push(b / a);
            }
        }
        t.rounds += 1;
    }
    t.kernel_ns = ours.iter().map(|v| median(v)).collect();
    t.naive_ns = theirs.iter().map(|v| median(v)).collect();
    t.speedup = ratios.iter().map(|v| median(v)).collect();
    t
}

/// The harness layer's per-layer metrics for a set of timed pairs.
pub fn layer_metrics(pairs: &[Pair], timing: &Timing, m: &mut Metrics) {
    let bins = pairs.iter().flat_map(|p| [&p.slingen, &p.naive]);
    let (cc, bytes): (Vec<f64>, Vec<f64>) = bins.map(|b| (b.cc_ms, b.c_bytes as f64)).unzip();
    m.set("harness.cc_ms", median(&cc), "ms");
    m.set("harness.c_bytes", bytes.iter().sum(), "bytes");
    m.set("harness.runs", timing.attempted as f64, "count");
    m.set("host.tsc_ghz", median(&timing.tsc_hz) / 1e9, "GHz");
    for (i, p) in pairs.iter().enumerate() {
        let k = format!("{}{}", p.key.app, p.key.n);
        m.set(format!("kernel.{k}_ns"), timing.kernel_ns[i], "ns");
        m.set(format!("naive.{k}_ns"), timing.naive_ns[i], "ns");
        m.set(format!("model.{k}_cycles"), p.model_cycles, "model_cycles");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_agree_exactly_or_both_nan() {
        assert!(checksums_agree(1.5, 1.5));
        assert!(checksums_agree(1e6 * (1.0 + 1e-13), 1e6));
        assert!(!checksums_agree(1.0 + 1e-9, 1.0));
        assert!(checksums_agree(f64::NAN, f64::NAN));
        assert!(!checksums_agree(f64::NAN, 1.0));
        assert!(!checksums_agree(1.0, f64::NAN));
        assert!(!checksums_agree(f64::INFINITY, 1.0));
    }
}

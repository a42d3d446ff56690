//! Result bookkeeping: named metrics with units, order statistics, and
//! process counters read from `/proc`.

use std::time::Instant;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 += value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become -1 (never produced by a
/// passing run, and visibly wrong if they are).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".into()
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e6
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); NaN on empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Kernel estimate of quantile `q` (in `[0, 1]`): a Gaussian-weighted
/// mean of the order statistics around rank `q·n`, with bandwidth the
/// standard error of the sample quantile, `sqrt(q(1 − q)/n)`, on the
/// probability scale (Sheather and Marron, 1990). Request latencies come
/// in clusters, one per key; a single order statistic that falls in the
/// gap between two clusters is the largest sample of one key or the
/// smallest of the next, and jumps with either. The kernel estimate
/// averages across the gap instead. NaN on empty input.
pub fn smooth_quantile(xs: &[f64], q: f64) -> f64 {
    if xs.len() < 2 {
        return quantile(xs, q);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let h = (q * (1.0 - q) / n).sqrt().max(0.5 / n);
    // Ranks more than six bandwidths away carry no weight worth adding.
    let lo = (((q - 6.0 * h) * n).floor().max(0.0)) as usize;
    let hi = (((q + 6.0 * h) * n).ceil() as usize).min(v.len());
    let (mut sum, mut wsum) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate().take(hi).skip(lo) {
        let z = ((i as f64 + 0.5) / n - q) / h;
        let w = (-0.5 * z * z).exp();
        sum += w * x;
        wsum += w;
    }
    sum / wsum
}

/// User + system CPU of this process and of its waited-for children, in
/// ms (`/proc/self/stat` fields 14-17).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is fields[k - 3].
    let ticks: f64 = (14..=17).filter_map(|k| fields.get(k - 3)?.parse::<f64>().ok()).sum();
    ticks * 1e3 / USER_HZ
}

/// Clock ticks per second in `/proc` counters: fixed at 100 by the Linux
/// user-space ABI.
const USER_HZ: f64 = 100.0;

/// Cumulative (steal, total) jiffies of all CPUs from `/proc/stat`: time
/// the hypervisor ran something else while a CPU of this host wanted to
/// run, and all time.
pub fn steal_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (cpu.get(7).copied().unwrap_or(0.0), cpu.iter().take(8).sum())
}

/// Share of CPU time stolen by the hypervisor since `since`, in %.
pub fn steal_pct(since: (f64, f64)) -> f64 {
    let (s, t) = steal_jiffies();
    100.0 * (s - since.0) / (t - since.1).max(1.0)
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Measure `f` `reps` times and return the median wall time in s, with
/// the last repetition's result.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_nanos() as f64 / 1e9);
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    println!("# set-up repetitions: {} s", shown.join(" "));
    (median(&times), last.expect("at least one repetition"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_quantile_bridges_a_gap_between_clusters() {
        // Two equal clusters: the plain median is the midpoint of the
        // innermost samples; the kernel estimate averages across the gap
        // and moves little when one inner sample moves a lot.
        let mut xs: Vec<f64> = (0..400).map(|i| 20.0 + f64::from(i % 20) * 0.05).collect();
        xs.extend((0..400).map(|i| 24.0 + f64::from(i % 20) * 0.05));
        let a = smooth_quantile(&xs, 0.5);
        assert!(a > 20.5 && a < 24.5, "{a}");
        let mut ys = xs.clone();
        let inner = ys.iter().position(|&x| x == 24.0).expect("present");
        ys[inner] = 24.9;
        assert!((smooth_quantile(&ys, 0.5) - a).abs() < 0.05);
        // On evenly spread data it agrees with the plain quantile.
        let zs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert!((smooth_quantile(&zs, 0.9) - quantile(&zs, 0.9)).abs() < 1.0);
        assert_eq!(smooth_quantile(&[3.0], 0.5), 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("a", 1.5, "ms");
        m.add("b", 2.0, "count");
        m.add("b", 1.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}

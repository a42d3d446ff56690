//! Seeded inputs of every workload: key sets, the Zipf request stream,
//! the emit mix, and the kernel set's input data and timing order.
//!
//! Every draw comes from [`Rng`] seeded by the `--seed` argument, so the
//! same seed always yields the same inputs (`tests` below). The draws are
//! stratified where an unstratified draw would let the seed change how
//! much work a run does: a run's figures must move with the code, not
//! with which keys the seed happened to pick.

use slingen::Target;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for sub-draw `tag` of `seed`.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The paper's seven applications (Fig. 14 HLACs, Fig. 15 apps).
pub const APPS: [&str; 7] = ["potrf", "trsyl", "trlya", "trtri", "kf", "gpr", "l1a"];

/// Largest size of each app on the Fig. 14/15 grid (n = 4, 12, 20, ...)
/// that still takes at most ~0.3 s to generate cold on a 2-core Xeon, so
/// no single request dominates a run; kf20 alone takes 0.8-1.1 s.
const GRID_CAP: [(&str, usize); 7] = [
    ("potrf", 44),
    ("trsyl", 20),
    ("trlya", 28),
    ("trtri", 44),
    ("kf", 12),
    ("gpr", 36),
    ("l1a", 44),
];

/// One generation request: app, size, target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub app: &'static str,
    pub n: usize,
    pub target: Target,
}

impl Key {
    /// The request line `slingen-serve` would receive for this key.
    pub fn request(&self, id: usize, emit: &str) -> String {
        format!(
            "{{\"id\":{id},\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"emit\":\"{emit}\"}}",
            self.app, self.n, self.target
        )
    }

    pub fn label(&self) -> String {
        format!("{}{}/{}", self.app, self.n, self.target)
    }

    pub fn program(&self) -> slingen_ir::Program {
        build_program(self.app, self.n)
    }
}

/// The program of a paper app, built through `slingen::apps` exactly as
/// the serve front-end builds it (kf with k = n).
pub fn build_program(app: &str, n: usize) -> slingen_ir::Program {
    use slingen::apps;
    match app {
        "potrf" => apps::potrf(n),
        "trsyl" => apps::trsyl(n),
        "trlya" => apps::trlya(n),
        "trtri" => apps::trtri(n),
        "kf" => apps::kf_sized(n, n),
        "gpr" => apps::gpr(n),
        "l1a" => apps::l1a(n),
        other => panic!("unknown app `{other}`"),
    }
}

/// Every (app, n) of the capped Fig. 14/15 grid, in app order.
pub fn grid() -> Vec<(&'static str, usize)> {
    GRID_CAP.iter().flat_map(|&(app, cap)| (4..=cap).step_by(8).map(move |n| (app, n))).collect()
}

/// One pass of `cold_paper`: every (app, n) of the capped grid on both
/// `avx2` and `avx2fma` (so FMA contraction runs on exactly half), in a
/// seeded order. Pass `pass` of a run gets its own order. Serving the
/// whole grid each pass keeps the work mix identical for every seed;
/// only the order is drawn.
pub fn cold_pass(seed: u64, pass: u64) -> Vec<Key> {
    let mut keys: Vec<Key> = grid()
        .into_iter()
        .flat_map(|(app, n)| {
            [Target::Avx2, Target::Avx2Fma].map(move |target| Key { app, n, target })
        })
        .collect();
    Rng::derive(seed, 0x100 + pass).shuffle(&mut keys);
    keys
}

/// Sizes of the `hot_serve` key set per app: the smallest and largest of
/// each capped grid plus up to two between, 24 keys in all, so the
/// replayed entries range from 2 KB to ~1.1 MB of C.
const HOT_SIZES: [(&str, &[usize]); 7] = [
    ("potrf", &[4, 12, 20, 44]),
    ("trsyl", &[4, 12, 20]),
    ("trlya", &[4, 12, 28]),
    ("trtri", &[4, 12, 20, 44]),
    ("kf", &[4, 12]),
    ("gpr", &[4, 12, 28, 36]),
    ("l1a", &[4, 20, 28, 44]),
];

/// The `hot_serve` key set in Zipf rank order (rank 1 first).
///
/// The set and its ranks are fixed; the seed draws the request stream
/// and the emit mix ([`hot_stream`]). Every n = 4 key runs on `avx2fma`,
/// because those are the kernels the run compiles and times after
/// serving; the larger keys alternate between `avx2fma` and `avx2`. Ranks
/// go round-robin over the apps, smallest size first: the seven n = 4
/// keys take ~68% of the traffic, and the rest, up to 1.1 MB of C per
/// hit, the other ~32%. A seeded target or rank draw lets the seed decide
/// how large the hottest entries are: seeded targets with the largest
/// keys ranked first spread `req_per_s` by 12% (IQR over median) across
/// five seeds.
pub fn hot_keys() -> Vec<Key> {
    let longest = HOT_SIZES.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut keys = Vec::new();
    let mut fma = false;
    for depth in 0..longest {
        for &(app, sizes) in &HOT_SIZES {
            if let Some(&n) = sizes.get(depth) {
                fma = !fma;
                let target = if n == 4 || fma { Target::Avx2Fma } else { Target::Avx2 };
                keys.push(Key { app, n, target });
            }
        }
    }
    keys
}

/// Zipf(s = 1) over `k` ranks, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize) -> Zipf {
        let weights: Vec<f64> = (1..=k).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// A rank index in `0..k`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Share of `hot_serve` requests that ask for the full C; the rest ask
/// for a summary.
pub const HOT_C_SHARE: f64 = 0.1;

/// One request of the `hot_serve` client's stream: a key rank and whether
/// it asks for C.
pub fn hot_request(zipf: &Zipf, rng: &mut Rng) -> (usize, bool) {
    let rank = zipf.sample(rng);
    (rank, rng.unit() < HOT_C_SHARE)
}

/// The request stream of the `hot_serve` client.
pub fn hot_stream(seed: u64) -> Rng {
    Rng::derive(seed, 0x300)
}

/// The `kernels` set: every app at n = 4 and n = 8 on `avx2fma`. It is
/// fixed, so `kernel_ns_geomean` compares across seeds; the seed draws
/// the kernels' input data and the timing order. Both sizes compile in
/// well under a second (C size grows steeply with n: kf12 is ~0.8 MB).
pub fn kernel_set() -> Vec<Key> {
    [4, 8]
        .into_iter()
        .flat_map(|n| APPS.map(|app| Key { app, n, target: Target::Avx2Fma }))
        .collect()
}

/// The kernels `cold_paper` and `hot_serve` time after serving: their
/// own n = 4 winners on `avx2fma`.
pub fn probe_set() -> Vec<Key> {
    APPS.map(|app| Key { app, n: 4, target: Target::Avx2Fma }).to_vec()
}

/// The input-data seed of the kernels' harnesses and VM references.
pub fn kernel_data_seed(seed: u64) -> u64 {
    Rng::derive(seed, 0x400).next_u64()
}

/// The seeded order of timing round `round` over `n` binaries.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::derive(seed, 0x500 + round).shuffle(&mut order);
    order
}

/// A digest of everything a seed draws, printed with every result so two
/// runs can be shown to have had identical inputs.
pub fn fingerprint(seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for pass in 0..4 {
        for k in cold_pass(seed, pass) {
            eat(&k.label());
        }
    }
    let zipf = Zipf::new(hot_keys().len());
    let mut rng = hot_stream(seed);
    for _ in 0..1000 {
        let (rank, c) = hot_request(&zipf, &mut rng);
        eat(&format!("{rank}{c}"));
    }
    eat(&kernel_data_seed(seed).to_string());
    for round in 0..4 {
        eat(&format!("{:?}", round_order(seed, round, 28)));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 7, 0xdead_beef] {
            assert_eq!(cold_pass(seed, 0), cold_pass(seed, 0));
            assert_eq!(kernel_data_seed(seed), kernel_data_seed(seed));
            assert_eq!(round_order(seed, 3, 28), round_order(seed, 3, 28));
            assert_eq!(fingerprint(seed), fingerprint(seed));
        }
    }

    #[test]
    fn different_seeds_draw_differently() {
        assert_ne!(cold_pass(1, 0), cold_pass(2, 0));
        assert_ne!(cold_pass(1, 0), cold_pass(1, 1));
        assert_ne!(hot_stream(1).next_u64(), hot_stream(2).next_u64());
        assert_ne!(fingerprint(1), fingerprint(2));
    }

    #[test]
    fn cold_pass_serves_the_whole_grid_on_both_targets() {
        let mut keys = cold_pass(5, 0);
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 2 * grid().len());
        let fma = keys.iter().filter(|k| k.target == Target::Avx2Fma).count();
        assert_eq!(2 * fma, keys.len());
        assert!(keys.iter().all(|k| !(k.app == "kf" && k.n > 12)));
    }

    #[test]
    fn hot_keys_are_distinct_and_probe_keys_included() {
        let keys = hot_keys();
        assert_eq!(keys.len(), 24);
        let mut d = keys.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 24);
        assert_eq!(keys[..7].to_vec(), probe_set());
        let fma = keys.iter().filter(|k| k.target == Target::Avx2Fma).count();
        assert!((12..=19).contains(&fma), "{fma}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(24);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 24];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[23]);
        let share0 = counts[0] as f64 / 100_000.0;
        assert!((share0 - 1.0 / 3.776).abs() < 0.01, "{share0}");
    }
}

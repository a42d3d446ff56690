//! The host-speed reference: a fixed job, timed in short bursts between
//! the requests of a workload, that puts the workload's time figures on
//! one scale however fast the shared host happens to be.
//!
//! The host this benchmark runs on is a VM whose speed drifts with its
//! neighbours' load: within two hours the same `cold_paper` run read
//! 11–38 req/s with under 4% hypervisor steal, so the slowdown is inside
//! the vCPU (shared caches, SMT siblings, memory bandwidth), not time
//! taken away from it. Medians within a run cannot remove a drift that
//! happens between runs. A reference timed in the same run, a few ms at a
//! time between the workload's own requests, sees the same host speed the
//! requests saw; a workload's time metrics are reported scaled by
//! [`Reference::scale`], so they read as at one fixed reference speed.
//!
//! The job is this file's alone, so no change to the generator can move
//! it: it runs on the same number of threads as the workload's clients,
//! touches a working set of a few MB (open-addressing hash table, buffer
//! copies, a sort, a dependent floating-point chain), and allocates
//! nothing while timed, so neither the allocator nor the generator's code
//! is part of the reference.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The burst length the scale is relative to, in ms: scaled times read as
/// if every burst of the run had taken this long. It is close to one burst
/// on the reference host (2-vCPU Xeon VM: run medians of 2.7–5.7 ms as
/// its neighbours' load varied).
const NOMINAL_BURST_MS: f64 = 3.0;

/// Slots of each thread's hash table (a power of two; 512 KB of `u64`).
const TABLE_SLOTS: usize = 1 << 16;
/// Keys inserted and looked up per burst: a load factor of ~0.6.
const KEYS: usize = 40_000;
/// Bytes of each copy buffer.
const COPY_BYTES: usize = 1 << 20;
/// Copies per burst.
const COPIES: usize = 8;
/// Elements sorted per burst.
const SORT_LEN: usize = 65_536;
/// Steps of the dependent floating-point chain per burst.
const FP_STEPS: usize = 200_000;

/// One thread's preallocated working set.
struct Scratch {
    table: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    sort: Vec<u32>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            table: vec![0; TABLE_SLOTS],
            src: (0..COPY_BYTES).map(|i| (i * 131 % 251) as u8).collect(),
            dst: vec![0; COPY_BYTES],
            sort: vec![0; SORT_LEN],
        }
    }

    /// The fixed job; `salt` varies the keys so no burst is a replay the
    /// caches already hold.
    fn job(&mut self, salt: u64) -> u64 {
        let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.table.fill(0);
        let mask = TABLE_SLOTS - 1;
        let mut acc = 0u64;
        let keys: [u64; 4] = [next(), next(), next(), next()];
        for i in 0..KEYS as u64 {
            let k = (keys[(i & 3) as usize] ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)) | 1;
            let mut s = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & mask;
            while self.table[s] != 0 && self.table[s] != k {
                s = (s + 1) & mask;
            }
            self.table[s] = k;
        }
        for i in 0..KEYS as u64 {
            let k = (keys[(i & 3) as usize] ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)) | 1;
            let mut s = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & mask;
            while self.table[s] != k {
                s = (s + 1) & mask;
            }
            acc = acc.wrapping_add(s as u64);
        }
        for c in 0..COPIES {
            let off = (next() as usize % 4096) * (c + 1);
            let n = COPY_BYTES - off;
            self.dst[..n].copy_from_slice(&self.src[off..]);
            acc = acc.wrapping_add(u64::from(black_box(&self.dst)[n / 2]));
        }
        for v in self.sort.iter_mut() {
            *v = next() as u32;
        }
        self.sort.sort_unstable();
        acc = acc.wrapping_add(u64::from(self.sort[SORT_LEN / 2]));
        let mut f = 1.0 + (salt % 7) as f64 * 1e-3;
        for _ in 0..FP_STEPS {
            f = f.mul_add(0.999_999, 1e-7);
        }
        acc.wrapping_add(f.to_bits())
    }
}

/// Bursts of the reference job, one per call to [`Reference::burst`].
pub struct Reference {
    scratch: Vec<Scratch>,
    bursts_ms: Vec<f64>,
    cpu_ms: f64,
}

impl Reference {
    /// A reference that runs its job on `threads` threads at once, with
    /// three untimed bursts to warm its working set.
    pub fn new(threads: usize) -> Reference {
        let mut r = Reference {
            scratch: (0..threads.max(1)).map(|_| Scratch::new()).collect(),
            bursts_ms: Vec::new(),
            cpu_ms: 0.0,
        };
        for _ in 0..3 {
            r.run();
        }
        r.bursts_ms.clear();
        r.cpu_ms = 0.0;
        r
    }

    fn run(&mut self) -> f64 {
        let salt = self.bursts_ms.len() as u64;
        let cpu0 = crate::stats::cpu_ms();
        let t = Instant::now();
        std::thread::scope(|s| {
            for (i, sc) in self.scratch.iter_mut().enumerate() {
                s.spawn(move || black_box(sc.job(salt * 8 + i as u64)));
            }
        });
        let ms = t.elapsed().as_nanos() as f64 / 1e6;
        self.cpu_ms += crate::stats::cpu_ms() - cpu0;
        self.bursts_ms.push(ms);
        ms
    }

    /// Time one burst; returns its wall time in ms, so a caller can leave
    /// it out of its own clock.
    pub fn burst(&mut self) -> f64 {
        self.run()
    }

    /// Process CPU time the timed bursts took, in ms, so a caller can
    /// leave it out of its own CPU figures.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ms
    }

    pub fn bursts(&self) -> usize {
        self.bursts_ms.len()
    }

    /// Median burst wall time, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.bursts_ms)
    }

    /// Factor that turns a time measured during these bursts into the
    /// time on the reference host at rest: `NOMINAL_BURST_MS` over the
    /// median burst. Multiply times by it; divide rates by it.
    pub fn scale(&self) -> f64 {
        NOMINAL_BURST_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_is_deterministic_per_salt() {
        let (mut a, mut b) = (Scratch::new(), Scratch::new());
        assert_eq!(a.job(3), b.job(3));
        assert_ne!(a.job(3), a.job(4));
    }

    #[test]
    fn scale_follows_the_median_burst() {
        let mut r = Reference::new(1);
        for _ in 0..3 {
            r.burst();
        }
        assert_eq!(r.bursts(), 3);
        assert!(r.scale() > 0.0 && r.scale().is_finite());
        assert!((r.scale() * r.median_ms() - NOMINAL_BURST_MS).abs() < 1e-9);
    }
}

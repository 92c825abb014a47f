//! Same-run host calibration: the ceilings `kernel.*.frac_ceiling`
//! divides by, measured on this host in this run (never constants from
//! another machine).

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, Metrics};

/// Cache sizes in bytes read from sysfs: (per-core L2, last-level).
pub fn cache_sizes() -> (usize, usize) {
    let mut l2 = 0usize;
    let mut llc = 0usize;
    let mut llc_level = 0u32;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level == 2 {
            l2 = bytes;
        }
        if level >= llc_level {
            llc_level = level;
            llc = bytes;
        }
    }
    // Conservative fallbacks when sysfs is unavailable.
    (
        if l2 == 0 { 1 << 20 } else { l2 },
        if llc == 0 { 32 << 20 } else { llc },
    )
}

/// STREAM triad `a = b + s·c` on `threads` threads over arrays of `len`
/// doubles each; returns the median pass bandwidth in GB/s (24 bytes per
/// element, the STREAM convention).
fn triad(len: usize, threads: usize, passes: usize) -> f64 {
    let chunk = len.div_ceil(threads);
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    // First touch on the threads that stream the chunk later.
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(1.0);
                b.fill(2.0);
                c.fill(0.5);
            });
        }
    });
    let mut rates = Vec::with_capacity(passes);
    let scalar = black_box(3.0f64);
    for _ in 0..passes {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + scalar * z;
                    }
                });
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        black_box(&a);
        rates.push(24.0 * len as f64 / dt / 1e9);
    }
    median(&rates)
}

/// Triad over small per-thread arrays repeated `reps` times so they stay
/// in L2; returns aggregate GB/s.
fn triad_resident(len: usize, threads: usize, reps: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                let mut a = vec![0.0f64; len];
                let b = vec![2.0f64; len];
                let c = vec![0.5f64; len];
                let scalar = black_box(3.0f64);
                for _ in 0..reps {
                    for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                        *x = y + scalar * z;
                    }
                    black_box(&mut a);
                }
            });
        }
    });
    24.0 * (len * reps * threads) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Multiply-add chains (`x = x·m + k`, 2 FLOP each): every chain depends
/// on its previous value, and 16 independent chains per thread keep the
/// floating-point pipelines full. Aggregate GFLOP/s over `threads`.
fn fma_rate(iters: usize, threads: usize) -> f64 {
    const CHAINS: usize = 16;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                let m = black_box(0.999_999f64);
                let k = black_box(1e-7f64);
                let mut x = [1.0f64; CHAINS];
                for _ in 0..iters {
                    for v in x.iter_mut() {
                        *v = *v * m + k;
                    }
                }
                black_box(x);
            });
        }
    });
    2.0 * (CHAINS * iters * threads) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Host ceilings measured now, on `threads` threads.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    pub triad_gbs: f64,
    pub fma_gflops: f64,
}

impl Ceilings {
    /// Roofline bound at arithmetic intensity `ai` (FLOP/byte), GFLOP/s.
    pub fn roof_gflops(&self, ai: f64) -> f64 {
        self.fma_gflops.min(self.triad_gbs * ai)
    }
}

/// Run the calibration and record every number with its array size next
/// to the cache sizes it was chosen against.
pub fn calibrate(threads: usize, m: &mut Metrics) -> Ceilings {
    let (l2, llc) = cache_sizes();
    // Three arrays whose combined footprint is at least 4x the LLC.
    let big_len = (4 * llc).div_ceil(3 * 8).max(1 << 20);
    let triad_gbs = triad(big_len, threads, 5);
    // Three per-thread arrays filling about half of one core's L2.
    let small_len = (l2 / 2 / (3 * 8)).max(1024);
    let reps = (400_000_000 / (small_len * threads)).max(10);
    let triad_l2_gbs = triad_resident(small_len, threads, reps);
    let fma_gflops = fma_rate(20_000_000, threads);
    m.put("host.triad_gbs", triad_gbs, "GB/s", 5);
    m.put("host.triad_l2_gbs", triad_l2_gbs, "GB/s", 1);
    m.put("host.fma_gflops", fma_gflops, "GFLOP/s", 1);
    m.put("host.threads", threads as f64, "count", 1);
    m.put("host.llc_mib", llc as f64 / (1 << 20) as f64, "MiB", 1);
    m.put("host.l2_mib", l2 as f64 / (1 << 20) as f64, "MiB", 1);
    m.put(
        "host.triad_array_mib",
        (big_len * 8) as f64 / (1 << 20) as f64,
        "MiB",
        1,
    );
    m.put(
        "host.triad_l2_array_kib",
        (small_len * 8) as f64 / 1024.0,
        "KiB",
        1,
    );
    Ceilings {
        triad_gbs,
        fma_gflops,
    }
}

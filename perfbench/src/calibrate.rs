//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a factor of
//! up to two over minutes as other tenants come and go. That drift is
//! common to every piece of code the process runs, so a fixed kernel
//! timed next to the simulation measures it: over one minute, windows in
//! which a conservative campaign's median time moved by ±15% saw the
//! ratio of campaign time to kernel time move by ±3%. The kernel is the
//! benchmark's own code and never the simulator's, so a change to the
//! simulator moves the simulation's time and not the kernel's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in seconds, on the host the benchmark's figures are
/// quoted for (a 2-core shared Intel Xeon VM in its common state). A time
/// `t` measured while the kernel took `k` is reported as
/// `t * REFERENCE_KERNEL_S / k`: what it would have taken on that host.
pub const REFERENCE_KERNEL_S: f64 = 0.002;

/// Runs the calibration kernel once and returns its wall time in seconds.
///
/// The work resembles the simulator's: ordered-map inserts and range
/// lookups, a float sort, and a linear scan, over a few hundred kilobytes.
/// Its inputs come from a fixed xorshift stream, so every call does the
/// same work.
pub fn kernel_s() -> f64 {
    let started = Instant::now();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..6_000 {
        let k = next() % 30_000;
        map.insert(k, k);
    }
    let mut values: Vec<f64> = (0..12_000).map(|_| (next() % 1_000_000) as f64).collect();
    values.sort_by(f64::total_cmp);
    let mut acc = 0u64;
    for _ in 0..6_000 {
        let k = next() % 30_000;
        if let Some((&hit, _)) = map.range(k..).next() {
            acc = acc.wrapping_add(hit);
        }
    }
    acc += values.windows(2).filter(|w| w[1] - w[0] < 3.0).count() as u64;
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Scale factor that turns times measured while the kernel took
/// `kernel_s` (a typical sample, e.g. a median) into reference-host
/// times.
pub fn scale(kernel_s: f64) -> f64 {
    REFERENCE_KERNEL_S / kernel_s
}

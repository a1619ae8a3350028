//! The frozen host-speed reference kernel and the normalisation it feeds.
//!
//! A shared VM's host speed drifts by tens of percent within minutes, and
//! swings between fast and slow states that last seconds, so a raw host
//! time is not a usable ruler across runs. Every run therefore also times
//! this kernel — a fixed, pure-Rust mix of fannkuch, heapsort, nbody,
//! sieve, hashing and binary trees that never changes with the simulator —
//! every 0.1 s, and reports host times in *normalised seconds*:
//! `raw × R0 / R`, where `R` is the kernel's best time within
//! [`WINDOW_S`] of the timed work and [`R0_S`] its best time when the
//! benchmark was defined. The kernel must stay byte-for-byte frozen:
//! editing it redefines every normalised number.

use std::hint::black_box;
use std::time::Instant;

/// How far around a timed interval the reference runs that normalise it
/// may lie, in seconds.
pub const WINDOW_S: f64 = 0.3;

/// The reference-kernel timings of one run, on the run's clock.
#[derive(Debug, Clone, Default)]
pub struct Normaliser {
    /// `(start, seconds)` of each kernel run, in start order.
    runs: Vec<(f64, f64)>,
}

impl Normaliser {
    /// Records one kernel run that started at `start` and took `secs`.
    pub fn record(&mut self, start: f64, secs: f64) {
        self.runs.push((start, secs));
    }

    /// The best kernel time of the whole run (`R` of the printed summary).
    pub fn best(&self) -> f64 {
        self.runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min)
    }

    /// `R` for work timed over `[a, b]`: the best kernel time that started
    /// within [`WINDOW_S`] of the interval, or the run's best when none did.
    pub fn local(&self, a: f64, b: f64) -> f64 {
        let r = self
            .runs
            .iter()
            .filter(|(t, _)| *t >= a - WINDOW_S && *t <= b + WINDOW_S)
            .map(|r| r.1)
            .fold(f64::INFINITY, f64::min);
        if r.is_finite() {
            r
        } else {
            self.best()
        }
    }

    /// Normalised seconds of `secs` of work timed over `[a, b]`.
    pub fn normalise(&self, secs: f64, a: f64, b: f64) -> f64 {
        secs * R0_S / self.local(a, b)
    }
}

/// Best reference-kernel time, in seconds, on the machine the benchmark
/// was defined on (2-vCPU x86-64 VM, release build).
pub const R0_S: f64 = 0.003_018;

/// Checksum the kernel must return; a mismatch means the reference itself
/// is broken and the run is not correct.
pub const CHECKSUM: u64 = 0x07ed_e82e_61d8_3841;

/// Runs the kernel once and returns `(seconds, checksum)`.
pub fn time_kernel() -> (f64, u64) {
    let t = Instant::now();
    let sum = kernel(black_box(8), black_box(3000), black_box(400), black_box(40_000));
    (t.elapsed().as_secs_f64(), black_box(sum))
}

fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (x >> 32)
}

fn kernel(perm_n: usize, heap_n: usize, body_steps: usize, sieve_n: usize) -> u64 {
    let mut h = mix(0, fannkuch(perm_n));
    h = mix(h, heapsort(heap_n));
    h = mix(h, nbody(body_steps).to_bits());
    h = mix(h, sieve(sieve_n));
    h = mix(h, hash(sieve_n / 4));
    mix(h, binary_trees(12))
}

fn fannkuch(n: usize) -> u64 {
    let mut perm1: Vec<usize> = (0..n).collect();
    let mut perm = vec![0usize; n];
    let mut count = vec![0usize; n];
    let (mut max_flips, mut checksum, mut sign, mut r) = (0u64, 0i64, 1i64, n);
    loop {
        while r != 1 {
            count[r - 1] = r;
            r -= 1;
        }
        perm.copy_from_slice(&perm1);
        let mut flips = 0u64;
        while perm[0] != 0 {
            let k = perm[0];
            perm[..=k].reverse();
            flips += 1;
        }
        max_flips = max_flips.max(flips);
        checksum += sign * flips as i64;
        sign = -sign;
        loop {
            if r == n {
                return max_flips.wrapping_mul(1_000_003) ^ checksum as u64;
            }
            let first = perm1[0];
            perm1.copy_within(1..=r, 0);
            perm1[r] = first;
            count[r] -= 1;
            if count[r] > 0 {
                break;
            }
            r += 1;
        }
    }
}

fn heapsort(n: usize) -> u64 {
    let mut seed = 42u64;
    let mut a: Vec<u64> = (0..n)
        .map(|_| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        })
        .collect();
    fn sift(a: &mut [u64], mut root: usize, end: usize) {
        loop {
            let mut child = 2 * root + 1;
            if child >= end {
                return;
            }
            if child + 1 < end && a[child] < a[child + 1] {
                child += 1;
            }
            if a[root] >= a[child] {
                return;
            }
            a.swap(root, child);
            root = child;
        }
    }
    for i in (0..n / 2).rev() {
        sift(&mut a, i, n);
    }
    for end in (1..n).rev() {
        a.swap(0, end);
        sift(&mut a, 0, end);
    }
    a.iter().enumerate().fold(0, |h, (i, v)| mix(h, v ^ i as u64))
}

fn nbody(steps: usize) -> f64 {
    let mut pos: [[f64; 3]; 4] =
        [[0.0, 0.0, 0.0], [4.84, -1.16, -0.10], [8.34, 4.12, -0.40], [12.89, -15.11, -0.22]];
    let mut vel = [[0.0, 0.0, 0.0], [0.60, 2.81, -0.02], [-1.01, 1.82, 0.008], [1.08, 0.86, -0.01]];
    let mass = [39.47, 0.037, 0.011, 0.0017];
    let dt = 0.01;
    for _ in 0..steps {
        for i in 0..4 {
            for j in i + 1..4 {
                let d = [pos[i][0] - pos[j][0], pos[i][1] - pos[j][1], pos[i][2] - pos[j][2]];
                let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let mag = dt / (d2 * d2.sqrt());
                for k in 0..3 {
                    vel[i][k] -= d[k] * mass[j] * mag;
                    vel[j][k] += d[k] * mass[i] * mag;
                }
            }
        }
        for (p, v) in pos.iter_mut().zip(&vel) {
            for k in 0..3 {
                p[k] += dt * v[k];
            }
        }
    }
    pos.iter().flatten().sum()
}

fn sieve(n: usize) -> u64 {
    let mut composite = vec![false; n + 1];
    let mut count = 0u64;
    for i in 2..=n {
        if !composite[i] {
            count += 1;
            let mut j = i * i;
            while j <= n {
                composite[j] = true;
                j += i;
            }
        }
    }
    count
}

/// Open-addressing table of `n` keys, inserted then probed twice over.
fn hash(n: usize) -> u64 {
    let cap = (2 * n).next_power_of_two();
    let mut keys = vec![u64::MAX; cap];
    let mut vals = vec![0u64; cap];
    let slot = |keys: &[u64], k: u64| {
        let mut i = (mix(7, k) as usize) & (cap - 1);
        while keys[i] != u64::MAX && keys[i] != k {
            i = (i + 1) & (cap - 1);
        }
        i
    };
    for k in 0..n as u64 {
        let i = slot(&keys, k * 31);
        keys[i] = k * 31;
        vals[i] = k;
    }
    let mut sum = 0u64;
    for k in 0..2 * n as u64 {
        let i = slot(&keys, k * 31);
        if keys[i] != u64::MAX {
            sum = sum.wrapping_add(vals[i]);
        }
    }
    sum
}

struct Node {
    kids: Option<(Box<Node>, Box<Node>)>,
}

fn binary_trees(depth: u32) -> u64 {
    fn make(d: u32) -> Node {
        Node { kids: (d > 0).then(|| (Box::new(make(d - 1)), Box::new(make(d - 1)))) }
    }
    fn check(n: &Node) -> u64 {
        1 + n.kids.as_ref().map_or(0, |(l, r)| check(l) + check(r))
    }
    (4..=depth).step_by(2).map(|d| check(&make(d))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(time_kernel().1, time_kernel().1);
    }

    #[test]
    fn normalisation_uses_the_nearby_best_reference() {
        let mut n = Normaliser::default();
        n.record(0.0, 0.004);
        n.record(1.0, 0.006);
        n.record(1.1, 0.005);
        assert_eq!(n.best(), 0.004);
        assert_eq!(n.local(1.05, 1.2), 0.005);
        assert_eq!(n.normalise(2.0, 1.05, 1.2), 2.0 * R0_S / 0.005);
        // Nothing within the window: fall back to the run's best.
        assert_eq!(n.local(5.0, 6.0), 0.004);
    }
}

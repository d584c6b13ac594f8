//! A host-speed reference, so wall numbers can be compared across the
//! speed states of a shared host.
//!
//! The sandbox this benchmark is accepted on flips, every few minutes,
//! between a fast state and one in which throughput-bound code runs up to
//! 1.4x slower (a busy neighbour on the sibling hardware thread: a
//! dependent multiply chain is unaffected, a hash-count loop and every
//! workload here are). A whole run sits inside one state, so no statistic
//! over the run's own samples can remove it, and ten runs that straddle
//! both states spread by 30-40 % — wider than any bound worth having.
//!
//! So every timed operation of the closed-loop workloads is followed, on
//! the same thread, by a fixed kernel of the benchmark's own — counting
//! keys into a small hash table, the kind of work the simulator does —
//! and the operation's wall time is scaled by how much slower than
//! [`NOMINAL_S`] that kernel just ran. The reported wall metrics are
//! therefore in *reference-host* time; the raw medians and the median
//! scale factor are kept in each run's notes. The kernel belongs to the
//! benchmark, not the program, so a program change cannot move it.
//!
//! `serve_live` is not scaled: its latency is set by a 1 ms schedule and
//! the 5 ms batching budget as much as by CPU work, and its threads run on
//! whichever cores the OS picks.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the fastest of [`PASSES`] passes takes on the baseline host in
/// its fast state. A constant, not a per-run measurement: dividing by
/// something measured in the same run would only rescale noise.
pub const NOMINAL_S: f64 = 1.7e-4;

/// Passes per sample. The timed operation leaves the caches full of its
/// own data, so the first passes run cold: after an LP run the fastest of
/// three passes read anywhere from 170 to 202 us on a host whose fastest
/// of six read 170 to 172 us every time. Eight leaves a margin; at
/// 0.17 ms a pass the sample still costs a tenth of the shortest timed
/// operation (a 14 ms `serve_delta` round).
const PASSES: usize = 8;
/// Keys per pass: 256 KiB of `u32`, resident in L2.
const KEYS: usize = 1 << 16;
/// Table slots: 16 KiB, resident in L1.
const SLOTS: usize = 1 << 12;
/// Sweeps over the keys per pass.
const SWEEPS: u32 = 4;

pub struct HostRef {
    keys: Vec<u32>,
    table: Vec<u32>,
}

impl HostRef {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        // SplitMix-style stream: the keys only need to be spread out.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys = (0..KEYS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 40) as u32
            })
            .collect();
        Self {
            keys,
            table: vec![0; SLOTS],
        }
    }

    fn pass(&mut self) {
        for sweep in 0..SWEEPS {
            for &k in &self.keys {
                let slot = (k.wrapping_mul(2_654_435_761).wrapping_add(sweep) >> 20) as usize
                    & (SLOTS - 1);
                self.table[slot] = self.table[slot].wrapping_add(k);
            }
        }
        black_box(&mut self.table);
    }

    /// Seconds of the fastest of [`PASSES`] passes, right now, on this
    /// thread (the minimum discards the cold passes and any pass an
    /// interrupt landed in).
    pub fn sample(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..PASSES {
            let started = Instant::now();
            self.pass();
            best = best.min(started.elapsed().as_secs_f64());
        }
        best
    }

    /// The factor that turns a wall time measured next to a reference
    /// sample of `reference_s` seconds into reference-host time.
    pub fn scale(reference_s: f64) -> f64 {
        NOMINAL_S / reference_s
    }
}

/// One timed operation and the reference sample taken right after it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub wall_s: f64,
    pub reference_s: f64,
}

impl Timed {
    /// Times `wall_s` against a fresh sample of `host`.
    pub fn new(wall_s: f64, host: &mut HostRef) -> Self {
        Self {
            wall_s,
            reference_s: host.sample(),
        }
    }

    /// Operations timed back to back, as one: wall times add and so do
    /// reference-host times, each part scaled by the sample taken right
    /// after it (one sample after a second of work would say little about
    /// a host whose speed changes within that second).
    pub fn total(parts: &[Timed]) -> Self {
        let wall_s: f64 = parts.iter().map(|p| p.wall_s).sum();
        let scaled_s: f64 = parts.iter().map(Timed::scaled_s).sum();
        Self {
            wall_s,
            reference_s: NOMINAL_S * wall_s / scaled_s,
        }
    }

    pub fn scale(&self) -> f64 {
        HostRef::scale(self.reference_s)
    }

    /// The operation's wall time in reference-host seconds.
    pub fn scaled_s(&self) -> f64 {
        self.wall_s * self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_and_scale_is_their_inverse() {
        let mut host = HostRef::new();
        let s = host.sample();
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(HostRef::scale(NOMINAL_S), 1.0);
        assert!(HostRef::scale(2.0 * NOMINAL_S) < HostRef::scale(NOMINAL_S));
    }

    #[test]
    fn total_adds_walls_and_scaled_times() {
        let parts = [
            Timed {
                wall_s: 0.4,
                reference_s: NOMINAL_S,
            },
            Timed {
                wall_s: 0.6,
                reference_s: 2.0 * NOMINAL_S,
            },
        ];
        let total = Timed::total(&parts);
        assert!((total.wall_s - 1.0).abs() < 1e-12);
        assert!((total.scaled_s() - 0.7).abs() < 1e-12);
        assert!((Timed::total(&parts[..1]).scaled_s() - 0.4).abs() < 1e-12);
    }
}

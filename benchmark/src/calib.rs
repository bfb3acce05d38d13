//! Host-speed calibration.
//!
//! The hosts this benchmark runs on (small shared VMs) change speed
//! under it: for seconds to tens of seconds at a time everything
//! computes up to ~25 % slower, with no steal time and nothing else
//! running in the guest. Sizing runs showed whole 10-second runs
//! landing in a fast or a slow regime (`paper-cold` medians of ten
//! runs spread 20 %), so no statistic over raw operation times is
//! steady. A fixed arithmetic kernel interleaved with the work tracks
//! the regime: dividing each pass by the kernel's time next to it
//! brought the same spread to 1.5 %.
//!
//! So every run interleaves short slices of that kernel with its
//! operations (about 4 % of the time), and each timed region is
//! divided by the speed factor around it: the median time of the
//! slices nearest to it, over [`NOMINAL_SLICE_MS`]. Reported times
//! are therefore those of a host on which a slice takes exactly its
//! nominal time. The run's mean factor is reported as
//! `host.speed_factor` (traced run) and printed with every result.

use std::time::{Duration, Instant};

/// Kernel iterations per slice.
const SLICE_ITERS: u64 = 2_000_000;
/// What one slice takes on the sizing host when nothing disturbs it.
pub const NOMINAL_SLICE_MS: f64 = 2.95;
/// Share of elapsed time spent in slices.
const DUTY: f64 = 0.04;
/// Slices whose median gives the factor around a point in time.
const NEAREST: usize = 8;

/// A fixed dependent chain of multiplies, adds and shifts: nothing to
/// cache, nothing to predict, so its time is the core's speed.
fn slice() -> u64 {
    let mut x = 1u64;
    for _ in 0..SLICE_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 33;
    }
    x
}

/// A timed region: when its middle was (seconds since the calibrator
/// started) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub mid_s: f64,
    pub ms: f64,
}

#[derive(Debug)]
pub struct Calibrator {
    origin: Instant,
    last_tick: Instant,
    owed: Duration,
    /// `(when, how long)` of every slice, in time order.
    slices: Vec<Timed>,
}

impl Calibrator {
    pub fn new() -> Self {
        let now = Instant::now();
        Calibrator {
            origin: now,
            last_tick: now,
            owed: Duration::ZERO,
            slices: Vec::new(),
        }
    }

    /// Call between timed regions: runs the slices that the time since
    /// the last call has earned.
    pub fn tick(&mut self) {
        let nominal = Duration::from_secs_f64(NOMINAL_SLICE_MS / 1e3);
        self.owed += self.last_tick.elapsed().mul_f64(DUTY);
        while self.owed >= nominal {
            let t0 = Instant::now();
            std::hint::black_box(slice());
            let took = t0.elapsed();
            self.slices.push(Timed {
                mid_s: (t0 + took / 2 - self.origin).as_secs_f64(),
                ms: took.as_secs_f64() * 1e3,
            });
            self.owed -= nominal;
        }
        self.last_tick = Instant::now();
    }

    /// The region that started at `start` and took `took`.
    pub fn region(&self, start: Instant, took: Duration) -> Timed {
        Timed {
            mid_s: (start + took / 2 - self.origin).as_secs_f64(),
            ms: took.as_secs_f64() * 1e3,
        }
    }

    /// The speed factor around `mid_s`: the median of the nearest
    /// slices over the nominal slice time; 1.0 if no slice ran.
    fn factor_at(&self, mid_s: f64) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        let after = self.slices.partition_point(|s| s.mid_s < mid_s);
        let (mut lo, mut hi) = (after, after);
        while hi - lo < NEAREST.min(self.slices.len()) {
            let before = lo.checked_sub(1).map(|i| mid_s - self.slices[i].mid_s);
            let behind = self.slices.get(hi).map(|s| s.mid_s - mid_s);
            match (before, behind) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (_, Some(_)) => hi += 1,
                (Some(_), None) => lo -= 1,
                (None, None) => break,
            }
        }
        let near: Vec<f64> = self.slices[lo..hi].iter().map(|s| s.ms).collect();
        crate::stats::median(&near) / NOMINAL_SLICE_MS
    }

    /// `region`'s time on a host of nominal speed, in ms.
    pub fn calibrated_ms(&self, region: Timed) -> f64 {
        region.ms / self.factor_at(region.mid_s)
    }

    /// Mean slice time over the run divided by the nominal time.
    pub fn mean_factor(&self) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        let ms: Vec<f64> = self.slices.iter().map(|s| s.ms).collect();
        crate::stats::mean(&ms) / NOMINAL_SLICE_MS
    }

    pub fn slices(&self) -> usize {
        self.slices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_slices(slices: &[(f64, f64)]) -> Calibrator {
        let mut c = Calibrator::new();
        c.slices = slices
            .iter()
            .map(|&(mid_s, ms)| Timed { mid_s, ms })
            .collect();
        c
    }

    #[test]
    fn slices_follow_elapsed_time() {
        let mut c = Calibrator::new();
        c.tick();
        assert_eq!(c.slices(), 0, "no time has passed, nothing is owed");
        assert_eq!(c.mean_factor(), 1.0);
        c.owed = Duration::from_secs_f64(3.5 * NOMINAL_SLICE_MS / 1e3);
        c.tick();
        assert_eq!(c.slices(), 3);
        assert!(c.owed < Duration::from_secs_f64(NOMINAL_SLICE_MS / 1e3));
        assert!(c.slices.windows(2).all(|w| w[0].mid_s < w[1].mid_s));
    }

    #[test]
    fn a_region_is_divided_by_the_speed_of_the_slices_around_it() {
        // A host at nominal speed for 10 s, then 1.5x slower.
        let slices: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let at = i as f64 * 0.1;
                (at, NOMINAL_SLICE_MS * if at < 10.0 { 1.0 } else { 1.5 })
            })
            .collect();
        let c = with_slices(&slices);
        let fast = c.calibrated_ms(Timed {
            mid_s: 3.0,
            ms: 100.0,
        });
        let slow = c.calibrated_ms(Timed {
            mid_s: 15.0,
            ms: 150.0,
        });
        assert!((fast - 100.0).abs() < 1e-9 && (slow - 100.0).abs() < 1e-9);
        assert!((c.mean_factor() - 1.25).abs() < 1e-9);
        // Before the first and after the last slice: the nearest ones.
        assert!(
            (c.calibrated_ms(Timed {
                mid_s: -1.0,
                ms: 10.0
            }) - 10.0)
                .abs()
                < 1e-9
        );
        assert!(
            (c.calibrated_ms(Timed {
                mid_s: 99.0,
                ms: 15.0
            }) - 10.0)
                .abs()
                < 1e-9
        );
        // Fewer slices than the window, and none at all.
        let few = with_slices(&[(1.0, 2.0 * NOMINAL_SLICE_MS)]);
        assert_eq!(
            few.calibrated_ms(Timed {
                mid_s: 0.0,
                ms: 8.0
            }),
            4.0
        );
        assert_eq!(
            with_slices(&[]).calibrated_ms(Timed {
                mid_s: 0.0,
                ms: 8.0
            }),
            8.0
        );
    }
}

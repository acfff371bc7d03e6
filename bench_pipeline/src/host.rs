//! The host's speed, read off a fixed probe, and wall-clock readings
//! corrected for it.
//!
//! The box this benchmark runs on is a 2-vCPU slice of a shared machine, and
//! how fast it runs ordinary systems code swings by ±30 % over minutes: the
//! same binary at the same seed took 0.33 s per `batch-studies` iteration
//! and, five minutes later, 0.53 s, with every sample of the later stretch
//! slow — nothing measured inside one run (best-of, median, longer runs)
//! sees through that. A tight arithmetic loop barely notices (+8 %) and a
//! pointer chase through DRAM little (+15 %), so it is not the clock and not
//! the memory: it is whatever shares the cores, and it taxes branchy,
//! allocating, cache-resident code — which the system under test is.
//!
//! So the timed sections interleave a *probe*: a few milliseconds of exactly
//! that kind of code (formatted string keys into an ordered map of growing
//! vectors, then a walk and a free), written here against `std` alone so that
//! no change to the system can move it. Its wall-clock time tracks the
//! slow-downs (over a seven-minute drift the interquartile spread of a
//! 20-second window's median iteration was 38 % raw and 3 % divided by the
//! probe). Every wall-clock reading is divided by the host's *slowness* around
//! the moment it was taken — the median of the four nearest probe readings
//! over [`PROBE_REF_NS`], the probe's time on this box at its fastest — so a
//! reported millisecond is a millisecond of the quiet host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Map inserts per probe, over this many distinct keys.
const PROBE_STEPS: u64 = 8000;
const PROBE_KEYS: u64 = 1500;
/// The probe's wall-clock nanoseconds on the quiet host: the scale that
/// makes a corrected reading equal a raw one when nothing shares the cores.
pub const PROBE_REF_NS: f64 = 2_000_000.0;
/// Timed work between two probe readings, at least: long enough that the
/// probe stays a small share of a run, short enough to follow the host.
pub const PROBE_EVERY_NS: u64 = 30_000_000;

/// The probe's work: `steps` inserts, then a walk and a free.
fn churn(steps: u64) {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for i in 0..steps {
        let key = format!("k{}", i.wrapping_mul(2_654_435_761) % PROBE_KEYS);
        map.entry(key).or_default().push(i);
    }
    black_box(map.values().flatten().sum::<u64>());
}

/// One reading: wall-clock nanoseconds of the fixed probe, after a short
/// untimed stretch of the same work — what ran before the probe has the
/// caches, so a cold reading would say more about that than about the host.
pub fn probe_ns() -> u64 {
    churn(PROBE_STEPS / 4);
    let t0 = Instant::now();
    churn(PROBE_STEPS);
    t0.elapsed().as_nanos() as u64
}

/// The probe readings taken through one timed section, in order.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    ns: Vec<u64>,
}

impl Probes {
    /// Take a reading; returns its position in the series.
    pub fn take(&mut self) -> usize {
        self.ns.push(probe_ns());
        self.ns.len() - 1
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// How much slower than the quiet host the box ran between reading
    /// `after` and the next: the median of the four readings nearest that
    /// stretch (two before, two after; fewer at the ends) over the
    /// reference. 1 when no reading was taken (the traced runs take none).
    pub fn slowness(&self, after: usize) -> f64 {
        if self.ns.is_empty() {
            return 1.0;
        }
        let lo = after.saturating_sub(1).min(self.ns.len() - 1);
        let hi = (after + 3).min(self.ns.len());
        let near: Vec<f64> = self.ns[lo..hi].iter().map(|&ns| ns as f64).collect();
        crate::stats::median(&near) / PROBE_REF_NS
    }

    /// The whole section's slowness: the median reading over the reference.
    pub fn overall(&self) -> f64 {
        if self.ns.is_empty() {
            return 1.0;
        }
        let all: Vec<f64> = self.ns.iter().map(|&ns| ns as f64).collect();
        crate::stats::median(&all) / PROBE_REF_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(ns: &[u64]) -> Probes {
        Probes { ns: ns.to_vec() }
    }

    #[test]
    fn slowness_is_the_median_of_the_nearest_readings_over_the_reference() {
        let r = PROBE_REF_NS as u64;
        // No readings: raw time stands.
        assert_eq!(Probes::default().slowness(0), 1.0);
        // A quiet host reads 1 everywhere.
        assert_eq!(series(&[r, r, r, r, r]).slowness(2), 1.0);
        // Work after reading 2 sees readings 1..=4; one outlier is ignored.
        let p = series(&[r, 2 * r, 2 * r, 9 * r, 2 * r, r]);
        assert_eq!(p.slowness(2), 2.0);
        // At the ends the window shrinks rather than wraps.
        assert_eq!(series(&[3 * r, r]).slowness(0), 1.0);
        assert_eq!(series(&[r, 3 * r]).slowness(5), 3.0);
        assert_eq!(p.overall(), 2.0);
    }

    #[test]
    fn the_probe_takes_milliseconds_not_micro_or_whole_seconds() {
        let ns = (0..5).map(|_| probe_ns()).min().expect("a reading");
        assert!((200_000..200_000_000).contains(&ns), "probe took {ns} ns");
    }
}

//! Sample statistics, failure accounting and process probes shared by
//! every workload.

/// A percentile of a sample set, with the counts that say how far it
/// can be trusted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The interpolated value.
    pub value: f64,
    /// Number of samples it was taken over.
    pub n: usize,
    /// Samples that lie strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten samples lie beyond the percentile — the
    /// rule a reported tail percentile must meet to mean anything.
    pub fn trusted(&self) -> bool {
        self.beyond >= 10
    }
}

/// The `p`-th percentile (`0.0..=1.0`) of `samples`, interpolated
/// linearly between closest ranks (the `numpy` default). `None` for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64);
    Some(Percentile {
        value,
        n,
        beyond: if hi == lo { n - 1 - lo } else { n - hi },
    })
}

/// The median of `samples`; `0.0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// Counts attempted and failed operations. A failure is anything the
/// benchmark can observe going wrong: a quarantined cell, an output that
/// differs from its reference, a refused or failed request.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per distinct failure, capped so a systematic fault
    /// cannot flood the output.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation; it fails unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Adds another tally's operations and notes to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Failed over attempted; `0.0` when nothing was attempted.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the host offers, at least 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the benchmark's only source of input randomness, so the
/// same workload seed always yields the same inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_interpolates_between_middle_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_states_its_sample_count() {
        let p = percentile(&ramp(7), 0.9).unwrap();
        assert_eq!(p.n, 7);
        assert!((p.value - 6.4).abs() < 1e-9, "{}", p.value);
        assert!(percentile(&[], 0.5).is_none());
        let single = percentile(&[5.0], 0.99).unwrap();
        assert_eq!((single.value, single.n, single.beyond), (5.0, 1, 0));
    }

    #[test]
    fn tail_is_trusted_only_with_ten_samples_beyond() {
        // p99 of 1000 samples sits between ranks 989 and 990 (0-based):
        // ranks 990..=999 lie beyond it — exactly ten.
        let p99 = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p99.beyond, 10);
        assert!(p99.trusted());
        // With 900 samples only nine do.
        let short = percentile(&ramp(900), 0.99).unwrap();
        assert_eq!(short.beyond, 9);
        assert!(!short.trusted());
        // p90 needs a hundred.
        assert!(percentile(&ramp(100), 0.9).unwrap().trusted());
        assert!(!percentile(&ramp(90), 0.9).unwrap().trusted());
        // The median of 21 samples has ten beyond it.
        assert_eq!(percentile(&ramp(21), 0.5).unwrap().beyond, 10);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "bad".to_string());
        t.check(true, || unreachable!());
        t.check(true, || unreachable!());
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_ratio(), 0.25);
        assert_eq!(t.notes, vec!["bad".to_string()]);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
        let mut sum = Tally::default();
        sum.absorb(t);
        sum.absorb(Tally::default());
        assert_eq!((sum.attempted, sum.failed, sum.notes.len()), (4, 1, 1));
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (7, 7);
        let xs: Vec<u64> = (0..4).map(|_| splitmix(&mut a)).collect();
        let ys: Vec<u64> = (0..4).map(|_| splitmix(&mut b)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }
}

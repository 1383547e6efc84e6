//! Profile data produced by the input-sensitive profilers.
//!
//! A profiler's output is, per (routine, thread) pair, a set of
//! *performance tuples* relating observed input sizes to activation costs.
//! For each distinct input size the collector keeps worst-case (and
//! auxiliary) cost statistics — the paper's cost plots show, for each
//! distinct input size `n` of routine `r`, the maximum cost of an
//! activation of `r` on input size `n`.

use drms_trace::fnv::FnvBuildHasher;
use drms_trace::{RoutineId, ThreadId};
use std::collections::{BTreeMap, HashMap};

/// Aggregated cost statistics of all activations sharing one input size.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Number of activations observed.
    pub count: u64,
    /// Worst-case cost.
    pub max: u64,
    /// Best-case cost.
    pub min: u64,
    /// Sum of costs (for means).
    pub sum: u64,
}

impl CostStats {
    /// Folds one activation cost into the statistics.
    pub fn observe(&mut self, cost: u64) {
        if self.count == 0 {
            self.min = cost;
            self.max = cost;
        } else {
            self.min = self.min.min(cost);
            self.max = self.max.max(cost);
        }
        self.count += 1;
        self.sum += cost;
    }

    /// Mean cost across observed activations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Relative cost spread `(max − min) / mean` of the activations
    /// sharing this input size — the paper's indicator that "some kind
    /// of information might not be captured correctly" when large.
    pub fn spread(&self) -> f64 {
        let mean = self.mean();
        if mean <= 0.0 {
            0.0
        } else {
            (self.max - self.min) as f64 / mean
        }
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &CostStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Operation-level classification of (possibly induced) first reads,
/// attributed to the topmost pending routine at the time of the read.
///
/// Backs the paper's *thread input* and *external input* metrics
/// (Figures 13–15).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InputBreakdown {
    /// Plain first reads: the location's first access by the activation.
    pub plain: u64,
    /// Induced first reads caused by a store of another thread.
    pub thread_induced: u64,
    /// Induced first reads caused by kernel writes (external input).
    pub kernel_induced: u64,
}

impl InputBreakdown {
    /// Total (possibly induced) first-read operations.
    pub fn total(&self) -> u64 {
        self.plain + self.thread_induced + self.kernel_induced
    }

    /// Total induced first reads (thread + kernel).
    pub fn induced(&self) -> u64 {
        self.thread_induced + self.kernel_induced
    }

    /// Fraction of first reads induced by other threads, in `[0, 1]`.
    pub fn thread_fraction(&self) -> f64 {
        ratio(self.thread_induced, self.total())
    }

    /// Fraction of first reads induced by the kernel, in `[0, 1]`.
    pub fn kernel_fraction(&self) -> f64 {
        ratio(self.kernel_induced, self.total())
    }

    /// Adds another breakdown.
    pub fn merge(&mut self, other: &InputBreakdown) {
        self.plain += other.plain;
        self.thread_induced += other.thread_induced;
        self.kernel_induced += other.kernel_induced;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The profile of one routine as observed by one thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutineProfile {
    /// Number of collected activations.
    pub calls: u64,
    /// For each distinct rms value: cost statistics.
    pub by_rms: BTreeMap<u64, CostStats>,
    /// For each distinct drms value: cost statistics.
    pub by_drms: BTreeMap<u64, CostStats>,
    /// Σ rms over activations (dynamic-input-volume numerator).
    pub sum_rms: u64,
    /// Σ drms over activations (dynamic-input-volume denominator).
    pub sum_drms: u64,
    /// Operation-level first-read classification.
    pub breakdown: InputBreakdown,
}

impl RoutineProfile {
    /// Records one completed activation.
    pub fn record(&mut self, rms: u64, drms: u64, cost: u64) {
        self.calls += 1;
        self.by_rms.entry(rms).or_default().observe(cost);
        self.by_drms.entry(drms).or_default().observe(cost);
        self.sum_rms += rms;
        self.sum_drms += drms;
    }

    /// Number of distinct rms values collected (`|rms_r|` in the paper).
    pub fn distinct_rms(&self) -> usize {
        self.by_rms.len()
    }

    /// Number of distinct drms values collected (`|drms_r|`).
    pub fn distinct_drms(&self) -> usize {
        self.by_drms.len()
    }

    /// Worst-case cost plot keyed by rms: `(input size, max cost)`.
    pub fn rms_plot(&self) -> Vec<(u64, u64)> {
        self.by_rms.iter().map(|(&n, s)| (n, s.max)).collect()
    }

    /// Worst-case cost plot keyed by drms: `(input size, max cost)`.
    pub fn drms_plot(&self) -> Vec<(u64, u64)> {
        self.by_drms.iter().map(|(&n, s)| (n, s.max)).collect()
    }

    /// Merges another profile of the same routine (e.g. another thread's).
    pub fn merge(&mut self, other: &RoutineProfile) {
        self.calls += other.calls;
        for (&n, s) in &other.by_rms {
            self.by_rms.entry(n).or_default().merge(s);
        }
        for (&n, s) in &other.by_drms {
            self.by_drms.entry(n).or_default().merge(s);
        }
        self.sum_rms += other.sum_rms;
        self.sum_drms += other.sum_drms;
        self.breakdown.merge(&other.breakdown);
    }

    /// Rough host bytes used by this profile's tables.
    pub fn approx_bytes(&self) -> u64 {
        ((self.by_rms.len() + self.by_drms.len())
            * (std::mem::size_of::<u64>() + std::mem::size_of::<CostStats>() + 32)) as u64
    }
}

/// A full profiling report: thread-sensitive routine profiles.
///
/// Profiles generated by different threads are kept distinct (as in the
/// paper) and may be merged afterwards with
/// [`ProfileReport::merged_by_routine`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    profiles: HashMap<(RoutineId, ThreadId), RoutineProfile, FnvBuildHasher>,
}

impl ProfileReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile of `(routine, thread)`, created on demand.
    pub fn entry(&mut self, routine: RoutineId, thread: ThreadId) -> &mut RoutineProfile {
        self.profiles.entry((routine, thread)).or_default()
    }

    /// The profile of `(routine, thread)`, if any activation was recorded.
    pub fn get(&self, routine: RoutineId, thread: ThreadId) -> Option<&RoutineProfile> {
        self.profiles.get(&(routine, thread))
    }

    /// Iterates `((routine, thread), profile)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&(RoutineId, ThreadId), &RoutineProfile)> {
        self.profiles.iter()
    }

    /// Number of `(routine, thread)` profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no activation was recorded.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Merges the per-thread profiles of each routine into one profile per
    /// routine, returned in routine-id order.
    pub fn merged_by_routine(&self) -> BTreeMap<RoutineId, RoutineProfile> {
        let mut out: BTreeMap<RoutineId, RoutineProfile> = BTreeMap::new();
        for (&(routine, _), profile) in &self.profiles {
            out.entry(routine).or_default().merge(profile);
        }
        out
    }

    /// The merged profile of one routine across all threads.
    pub fn merged_routine(&self, routine: RoutineId) -> RoutineProfile {
        let mut out = RoutineProfile::default();
        for (&(r, _), profile) in &self.profiles {
            if r == routine {
                out.merge(profile);
            }
        }
        out
    }

    /// Global dynamic input volume (paper metric 2):
    /// `1 − Σ rms / Σ drms` over all routine activations, in `[0, 1)`.
    pub fn dynamic_input_volume(&self) -> f64 {
        let (mut rms, mut drms) = (0u64, 0u64);
        for p in self.profiles.values() {
            rms += p.sum_rms;
            drms += p.sum_drms;
        }
        if drms == 0 {
            0.0
        } else {
            1.0 - rms as f64 / drms as f64
        }
    }

    /// Rough host bytes used by all profile tables.
    pub fn approx_bytes(&self) -> u64 {
        self.profiles
            .values()
            .map(RoutineProfile::approx_bytes)
            .sum::<u64>()
            + (self.profiles.len() * 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_stats_observe_and_merge() {
        let mut s = CostStats::default();
        s.observe(10);
        s.observe(4);
        s.observe(7);
        assert_eq!((s.count, s.min, s.max, s.sum), (3, 4, 10, 21));
        assert!((s.mean() - 7.0).abs() < 1e-9);
        let mut t = CostStats::default();
        t.observe(100);
        s.merge(&t);
        assert_eq!((s.count, s.max), (4, 100));
        let mut empty = CostStats::default();
        empty.merge(&s);
        assert_eq!(empty, s);
        s.merge(&CostStats::default());
        assert_eq!(s.count, 4);
    }

    #[test]
    fn breakdown_fractions() {
        let b = InputBreakdown {
            plain: 50,
            thread_induced: 25,
            kernel_induced: 25,
        };
        assert_eq!(b.total(), 100);
        assert_eq!(b.induced(), 50);
        assert!((b.thread_fraction() - 0.25).abs() < 1e-9);
        assert!((b.kernel_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(InputBreakdown::default().thread_fraction(), 0.0);
    }

    #[test]
    fn routine_profile_plots_are_worst_case() {
        let mut p = RoutineProfile::default();
        p.record(5, 10, 100);
        p.record(5, 10, 300);
        p.record(5, 20, 200);
        assert_eq!(p.calls, 3);
        assert_eq!(p.distinct_rms(), 1);
        assert_eq!(p.distinct_drms(), 2);
        assert_eq!(p.rms_plot(), vec![(5, 300)]);
        assert_eq!(p.drms_plot(), vec![(10, 300), (20, 200)]);
        assert_eq!(p.sum_rms, 15);
        assert_eq!(p.sum_drms, 40);
    }

    #[test]
    fn report_merging_across_threads() {
        let mut rep = ProfileReport::new();
        let r = RoutineId::new(1);
        rep.entry(r, ThreadId::new(0)).record(1, 2, 10);
        rep.entry(r, ThreadId::new(1)).record(1, 3, 30);
        rep.entry(RoutineId::new(2), ThreadId::new(0))
            .record(4, 4, 5);
        assert_eq!(rep.len(), 3);
        let merged = rep.merged_by_routine();
        assert_eq!(merged.len(), 2);
        let m = &merged[&r];
        assert_eq!(m.calls, 2);
        assert_eq!(m.drms_plot(), vec![(2, 10), (3, 30)]);
        assert_eq!(rep.merged_routine(r).calls, 2);
        assert_eq!(rep.merged_routine(RoutineId::new(9)).calls, 0);
    }

    #[test]
    fn dynamic_input_volume_bounds() {
        let mut rep = ProfileReport::new();
        assert_eq!(rep.dynamic_input_volume(), 0.0);
        rep.entry(RoutineId::new(0), ThreadId::MAIN)
            .record(10, 10, 1);
        assert!(rep.dynamic_input_volume().abs() < 1e-9);
        rep.entry(RoutineId::new(1), ThreadId::MAIN)
            .record(0, 30, 1);
        // Σrms = 10, Σdrms = 40 → volume = 0.75
        assert!((rep.dynamic_input_volume() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn report_bytes_grow_with_content() {
        let mut rep = ProfileReport::new();
        let before = rep.approx_bytes();
        for i in 0..50 {
            rep.entry(RoutineId::new(0), ThreadId::MAIN).record(i, i, i);
        }
        assert!(rep.approx_bytes() > before);
    }
}

//! `drms_obs` — the run-level observability registry.
//!
//! The paper evaluates aprof-drms by its overheads (Table 1, §5), which
//! means the instrumentation substrate itself must be measurable: event
//! volumes, scheduler occupancy, shadow-memory pressure, kernel transfer
//! traffic, salvage and fault counters. [`Metrics`] is the one place all
//! of those land — a deterministic, allocation-light registry of
//! monotonic **counters**, **gauges** and **fixed-bucket histograms**
//! keyed by dotted names (`vm.events.read`, `shadow.cache.hit`, …).
//!
//! Design rules:
//!
//! * **Deterministic by construction.** The default renderings
//!   ([`to_json`](Metrics::to_json), [`to_prometheus`](Metrics::to_prometheus))
//!   contain no wall-clock, no host addresses, no iteration-order
//!   artifacts: the same program + seed + schedule produces byte-identical
//!   output. Wall-clock measurements go into the separate *timings*
//!   section, which only [`to_json_with_timings`](Metrics::to_json_with_timings)
//!   renders.
//! * **Allocation-light.** Static names (`&'static str`) are stored
//!   borrowed; dynamic names (per-thread, per-tool) allocate once at
//!   registration, never per increment. Hot loops accumulate into plain
//!   integer fields and fold into the registry at finalization — the
//!   registry is the *ledger*, not the fast path.
//! * **Self-checking.** [`Metrics::audit`] cross-checks the recorded
//!   counters against each other (events emitted vs events counted,
//!   salvaged + dropped vs total lines, per-thread cost sums vs run
//!   cost), turning every accounting bug into a visible invariant
//!   violation instead of a silently wrong table.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A registry key: borrowed for static names, owned for dynamic ones.
pub type Name = Cow<'static, str>;

/// A fixed-bucket histogram: `counts[i]` holds observations `<= bounds[i]`
/// (and `counts[bounds.len()]` the overflow bucket), cumulative count and
/// sum alongside.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending. Static: picked at the observation
    /// site, identical for a given metric name.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `len == bounds.len() + 1` (the last
    /// slot is the `+Inf` bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Adds `other`'s observations into `self`.
    ///
    /// # Errors
    /// Returns [`MergeError`] when the bucket bounds differ — one metric
    /// name must always use one bucket layout. `self` is untouched in
    /// that case.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.bounds != other.bounds {
            return Err(MergeError {
                name: String::new(),
                ours: self.bounds.clone(),
                theirs: other.bounds.clone(),
            });
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        Ok(())
    }
}

/// Error produced when merging histograms with mismatched bucket
/// layouts. One metric name must always use one bucket layout; two
/// registries disagreeing on it means they were produced by different
/// code (or one was corrupted in transit) and adding their buckets
/// would silently misattribute observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeError {
    /// The registry name of the offending histogram (empty when the
    /// merge was on a bare [`Histogram`] outside a registry).
    pub name: String,
    /// The bucket bounds already registered.
    pub ours: Vec<u64>,
    /// The bucket bounds of the incoming histogram.
    pub theirs: Vec<u64>,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.name.is_empty() {
            write!(f, "histogram `{}`: ", self.name)?;
        }
        write!(
            f,
            "merge with mismatched bucket bounds: {:?} vs {:?}",
            self.ours, self.theirs
        )
    }
}

impl std::error::Error for MergeError {}

/// The metrics registry. See the module docs for the design rules.
///
/// # Example
/// ```
/// use drms_trace::obs::Metrics;
/// let mut m = Metrics::new();
/// m.inc("vm.events.read");
/// m.add("vm.events.read", 2);
/// m.set_gauge("vm.threads", 4);
/// m.observe("kernel.transfer.cells", &[4, 64], 100);
/// assert_eq!(m.counter("vm.events.read"), 3);
/// assert_eq!(m.gauge("vm.threads"), 4);
/// let json = m.to_json();
/// assert_eq!(json, m.to_json(), "rendering is deterministic");
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<Name, u64>,
    gauges: BTreeMap<Name, u64>,
    histograms: BTreeMap<Name, Histogram>,
    /// Wall-clock measurements in seconds. Excluded from the default
    /// renderings — see the module determinism rules.
    timings: BTreeMap<Name, f64>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: impl Into<Name>) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `by`. Counters are monotonic: there
    /// is deliberately no decrement.
    pub fn add(&mut self, name: impl Into<Name>, by: u64) {
        *self.counters.entry(name.into()).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: impl Into<Name>, value: u64) {
        self.gauges.insert(name.into(), value);
    }

    /// Current value of gauge `name` (0 when never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name`, creating it over `bounds`
    /// on first use. One name must always use one bucket layout.
    pub fn observe(&mut self, name: impl Into<Name>, bounds: &[u64], value: u64) {
        self.histograms
            .entry(name.into())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Folds a pre-counted histogram into the registry (used when hot
    /// loops bucket locally and publish at finalization).
    ///
    /// # Errors
    /// Returns [`MergeError`] (carrying `name`) when a histogram is
    /// already registered under `name` with a different bucket layout.
    pub fn merge_histogram(
        &mut self,
        name: impl Into<Name>,
        h: &Histogram,
    ) -> Result<(), MergeError> {
        let name = name.into();
        self.histograms
            .entry(name.clone())
            .or_insert_with(|| Histogram::new(&h.bounds))
            .merge(h)
            .map_err(|e| MergeError {
                name: name.into_owned(),
                ..e
            })
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Records a wall-clock measurement in seconds. Timings never appear
    /// in the default renderings (determinism rule); use
    /// [`to_json_with_timings`](Self::to_json_with_timings) to export them.
    pub fn set_timing(&mut self, name: impl Into<Name>, seconds: f64) {
        self.timings.insert(name.into(), seconds);
    }

    /// The recorded wall-clock timing in seconds, if any.
    pub fn timing(&self, name: &str) -> Option<f64> {
        self.timings.get(name).copied()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timings.is_empty()
    }

    /// Records the accounting of one lossy-salvage pass under `prefix`
    /// (e.g. `journal` or `trace.shard`): `<prefix>.lines.salvaged`,
    /// `<prefix>.lines.dropped` and `<prefix>.lines.total`, which
    /// [`audit`](Self::audit) cross-checks (`salvaged + dropped == total`).
    pub fn record_salvage(&mut self, prefix: &str, salvaged: u64, dropped: u64, total: u64) {
        self.add(format!("{prefix}.lines.salvaged"), salvaged);
        self.add(format!("{prefix}.lines.dropped"), dropped);
        self.add(format!("{prefix}.lines.total"), total);
    }

    /// Merges `other` into `self`: counters, histogram buckets and
    /// timings add; gauges add as well, which gives grid merges (sweep
    /// cells) sum semantics — a merged registry reports totals across
    /// cells, and stays deterministic because addition commutes.
    ///
    /// # Errors
    /// Returns [`MergeError`] when `other` registers a histogram under a
    /// name `self` already holds with a different bucket layout (the
    /// registries were produced by different code). `self` may hold a
    /// partial merge in that case — treat it as poisoned.
    pub fn merge(&mut self, other: &Metrics) -> Result<(), MergeError> {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.merge_histogram(k.clone(), h)?;
        }
        for (k, v) in &other.timings {
            *self.timings.entry(k.clone()).or_insert(0.0) += v;
        }
        Ok(())
    }

    /// Cross-checks the registered counters against each other and
    /// returns every violated invariant (empty ⇒ consistent).
    ///
    /// Checks applied when the participating names are present:
    ///
    /// 1. `Σ vm.events.<kind>` == `vm.events.total` — every event the VM
    ///    delivered to a tool was counted by kind, and vice versa;
    /// 2. `Σ vm.blocks.thread.<t>` == `vm.basic_blocks`;
    /// 3. `Σ vm.cost.thread.<t>` == `vm.cost.total` — per-thread cost
    ///    sums match the run cost;
    /// 4. `Σ sched.preempt.<cause>` == `sched.slices` — every slice
    ///    ended for exactly one recorded cause;
    /// 5. `<p>.lines.salvaged + <p>.lines.dropped == <p>.lines.total`
    ///    for every salvage prefix `<p>` (lossy codec accounting);
    /// 6. `shadow.cache.hit + shadow.cache.miss == shadow.cache.lookups`;
    /// 7. every histogram's bucket counts sum to its total;
    /// 8. `sweep.attempts == sweep.completed + sweep.retries +
    ///    sweep.quarantined` — every supervised cell attempt either
    ///    completed its cell, was retried, or was the final attempt of a
    ///    quarantined cell (all four counters are additive, so the
    ///    invariant survives grid merges).
    pub fn audit(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        let mut check_sum = |parts: &str, total_name: &str| {
            if !self.counters.contains_key(total_name) {
                return;
            }
            let total = self.counter(total_name);
            let sum: u64 = self
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(parts) && k.as_ref() != total_name)
                .map(|(_, v)| v)
                .sum();
            if sum != total {
                violations.push(format!("sum({parts}*) = {sum} != {total_name} = {total}"));
            }
        };
        check_sum("vm.events.", "vm.events.total");
        check_sum("vm.blocks.thread.", "vm.basic_blocks");
        check_sum("vm.cost.thread.", "vm.cost.total");
        check_sum("sched.preempt.", "sched.slices");

        let salvage_prefixes: Vec<String> = self
            .counters
            .keys()
            .filter_map(|k| k.strip_suffix(".lines.total").map(str::to_owned))
            .collect();
        for p in salvage_prefixes {
            let salvaged = self.counter(&format!("{p}.lines.salvaged"));
            let dropped = self.counter(&format!("{p}.lines.dropped"));
            let total = self.counter(&format!("{p}.lines.total"));
            if salvaged + dropped != total {
                violations.push(format!(
                    "{p}.lines.salvaged ({salvaged}) + {p}.lines.dropped ({dropped}) \
                     != {p}.lines.total ({total})"
                ));
            }
        }

        if self.counters.contains_key("shadow.cache.lookups") {
            let hit = self.counter("shadow.cache.hit");
            let miss = self.counter("shadow.cache.miss");
            let lookups = self.counter("shadow.cache.lookups");
            if hit + miss != lookups {
                violations.push(format!(
                    "shadow.cache.hit ({hit}) + shadow.cache.miss ({miss}) \
                     != shadow.cache.lookups ({lookups})"
                ));
            }
        }

        if self.counters.contains_key("sweep.attempts") {
            let attempts = self.counter("sweep.attempts");
            let completed = self.counter("sweep.completed");
            let retries = self.counter("sweep.retries");
            let quarantined = self.counter("sweep.quarantined");
            if completed + retries + quarantined != attempts {
                violations.push(format!(
                    "sweep.completed ({completed}) + sweep.retries ({retries}) \
                     + sweep.quarantined ({quarantined}) != sweep.attempts ({attempts})"
                ));
            }
        }

        for (name, h) in &self.histograms {
            let bucket_sum: u64 = h.counts.iter().sum();
            if bucket_sum != h.total {
                violations.push(format!(
                    "histogram {name}: bucket sum {bucket_sum} != total {}",
                    h.total
                ));
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Renders the registry as deterministic JSON: sorted names, integer
    /// values, no timings. Byte-identical across runs of the same
    /// program + seed + schedule.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Like [`to_json`](Self::to_json), plus a `"timings"` section of
    /// wall-clock seconds. **Not** deterministic across runs — meant for
    /// overhead reports, not for byte-comparison gates.
    pub fn to_json_with_timings(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, timings: bool) -> String {
        fn map_block(out: &mut String, title: &str, entries: &BTreeMap<Name, u64>, last: bool) {
            let _ = writeln!(out, "  \"{title}\": {{");
            for (i, (k, v)) in entries.iter().enumerate() {
                let comma = if i + 1 < entries.len() { "," } else { "" };
                let _ = writeln!(out, "    \"{k}\": {v}{comma}");
            }
            let _ = writeln!(out, "  }}{}", if last { "" } else { "," });
        }
        let mut out = String::from("{\n");
        map_block(&mut out, "counters", &self.counters, false);
        map_block(&mut out, "gauges", &self.gauges, false);
        let _ = writeln!(out, "  \"histograms\": {{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    \"{k}\": {{\"bounds\": {:?}, \"counts\": {:?}, \
                 \"total\": {}, \"sum\": {}}}{comma}",
                h.bounds, h.counts, h.total, h.sum
            );
        }
        let _ = writeln!(out, "  }}{}", if timings { "," } else { "" });
        if timings {
            let _ = writeln!(out, "  \"timings\": {{");
            for (i, (k, v)) in self.timings.iter().enumerate() {
                let comma = if i + 1 < self.timings.len() { "," } else { "" };
                let _ = writeln!(out, "    \"{k}\": {v:.6}{comma}");
            }
            let _ = writeln!(out, "  }}");
        }
        out.push_str("}\n");
        out
    }

    /// Renders the registry as a compact line-per-entry text form meant
    /// for embedding in checkpoint journals ([`crate::journal`]):
    ///
    /// ```text
    /// counter <name> <value>
    /// gauge <name> <value>
    /// hist <name> <bounds|-> <counts> <total> <sum>
    /// timing <name> <seconds>
    /// ```
    ///
    /// Deterministic (sorted names) and lossless: [`from_lines`]
    /// (Self::from_lines) round-trips it exactly, including timings —
    /// journals capture the full cell state, and the determinism split
    /// is re-applied at render time, not at checkpoint time.
    ///
    /// Metric names must not contain spaces (dotted names never do).
    pub fn to_lines(&self) -> String {
        fn csv(values: &[u64]) -> String {
            if values.is_empty() {
                return "-".to_string();
            }
            values
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist {k} {} {} {} {}",
                csv(&h.bounds),
                csv(&h.counts),
                h.total,
                h.sum
            );
        }
        for (k, v) in &self.timings {
            let _ = writeln!(out, "timing {k} {v}");
        }
        out
    }

    /// Parses the [`to_lines`](Self::to_lines) form back into a registry.
    /// Blank lines are skipped; any other malformed line is an error (the
    /// journal layer has already checksummed the payload, so damage here
    /// means a writer bug, not file corruption).
    pub fn from_lines(text: &str) -> Result<Metrics, String> {
        fn uncsv(tok: &str) -> Result<Vec<u64>, String> {
            if tok == "-" {
                return Ok(Vec::new());
            }
            tok.split(',')
                .map(|v| v.parse().map_err(|_| format!("bad number `{v}`")))
                .collect()
        }
        let mut m = Metrics::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("metrics line {}: {msg}: `{line}`", i + 1);
            let mut tok = line.split(' ');
            let kind = tok.next().unwrap_or_default();
            let name = tok.next().ok_or_else(|| err("missing name"))?.to_string();
            match kind {
                "counter" | "gauge" => {
                    let v: u64 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bad value"))?;
                    if kind == "counter" {
                        m.add(name, v);
                    } else {
                        m.set_gauge(name, v);
                    }
                }
                "hist" => {
                    let bounds = uncsv(tok.next().ok_or_else(|| err("missing bounds"))?)
                        .map_err(|e| err(&e))?;
                    let counts = uncsv(tok.next().ok_or_else(|| err("missing counts"))?)
                        .map_err(|e| err(&e))?;
                    let total: u64 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bad total"))?;
                    let sum: u64 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bad sum"))?;
                    if counts.len() != bounds.len() + 1 {
                        return Err(err("counts/bounds length mismatch"));
                    }
                    m.histograms.insert(
                        name.into(),
                        Histogram {
                            bounds,
                            counts,
                            total,
                            sum,
                        },
                    );
                }
                "timing" => {
                    let v: f64 = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bad seconds"))?;
                    m.set_timing(name, v);
                }
                _ => return Err(err("unknown entry kind")),
            }
            if tok.next().is_some() {
                return Err(err("trailing tokens"));
            }
        }
        Ok(m)
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (dots become underscores, `drms_` prefix), for quick diffing with
    /// standard tooling. Deterministic; timings are excluded.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            format!("drms_{}", name.replace(['.', '-'], "_"))
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = sanitize(k);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, v) in &self.gauges {
            let n = sanitize(k);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, h) in &self.histograms {
            let n = sanitize(k);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0;
            for (i, c) in h.counts.iter().enumerate() {
                cumulative += c;
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{n}_bucket{{le=\"{b}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.total);
        }
        out
    }

    /// Iterates the counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Iterates the gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_ref(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let mut m = Metrics::new();
        m.inc("a.one");
        m.add("a.one", 4);
        m.set_gauge("g", 7);
        m.set_gauge("g", 9);
        m.observe("h", &[2, 8], 1);
        m.observe("h", &[2, 8], 5);
        m.observe("h", &[2, 8], 100);
        assert_eq!(m.counter("a.one"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), 9, "gauges are last-write-wins");
        let h = m.histogram("h").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.total, 3);
        assert_eq!(h.sum, 106);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let mut a = Metrics::new();
        a.inc("z.last");
        a.inc("a.first");
        a.set_timing("wall", 1.23);
        let mut b = Metrics::new();
        b.inc("a.first");
        b.inc("z.last");
        b.set_timing("wall", 9.87);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "insertion order and timings must not leak into default JSON"
        );
        assert!(a.to_json().find("a.first").unwrap() < a.to_json().find("z.last").unwrap());
        assert!(!a.to_json().contains("wall"), "no wall-clock by default");
        assert!(a.to_json_with_timings().contains("\"wall\": 1.23"));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Metrics::new();
        a.inc("c");
        a.set_gauge("g", 10);
        a.observe("h", &[4], 3);
        let mut b = Metrics::new();
        b.add("c", 2);
        b.set_gauge("g", 5);
        b.observe("h", &[4], 9);
        a.merge(&b).unwrap();
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 15, "gauges merge additively (grid sums)");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.counts, vec![1, 1]);
        assert_eq!(h.sum, 12);
    }

    #[test]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1, 2]);
        a.observe(1);
        let err = a.merge(&Histogram::new(&[1, 3])).unwrap_err();
        assert!(
            err.to_string().contains("mismatched bucket bounds"),
            "{err}"
        );
        assert_eq!(err.ours, vec![1, 2]);
        assert_eq!(err.theirs, vec![1, 3]);
        assert_eq!(a.total, 1, "failed merge leaves the histogram untouched");
    }

    #[test]
    fn registry_merge_names_the_offending_histogram() {
        let mut a = Metrics::new();
        a.observe("vm.h", &[1, 2], 1);
        let mut b = Metrics::new();
        b.observe("vm.h", &[1, 3], 1);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err.name, "vm.h");
        assert!(err.to_string().contains("`vm.h`"), "{err}");
        // Same layouts merge fine, and the error type is Eq for tests.
        let mut c = Metrics::new();
        c.observe("vm.h", &[1, 2], 9);
        assert_eq!(a.merge(&c), Ok(()));
    }

    #[test]
    fn audit_passes_on_consistent_registries() {
        let mut m = Metrics::new();
        m.add("vm.events.read", 3);
        m.add("vm.events.call", 2);
        m.add("vm.events.total", 5);
        m.add("vm.blocks.thread.0", 10);
        m.add("vm.blocks.thread.1", 4);
        m.add("vm.basic_blocks", 14);
        m.add("sched.preempt.quantum", 2);
        m.add("sched.slices", 2);
        m.record_salvage("trace", 7, 1, 8);
        m.add("shadow.cache.hit", 9);
        m.add("shadow.cache.miss", 1);
        m.add("shadow.cache.lookups", 10);
        assert_eq!(m.audit(), Ok(()));
        assert_eq!(
            Metrics::new().audit(),
            Ok(()),
            "empty registry is consistent"
        );
    }

    #[test]
    fn audit_flags_every_broken_invariant() {
        let mut m = Metrics::new();
        m.add("vm.events.read", 3);
        m.add("vm.events.total", 5);
        m.record_salvage("sched", 4, 1, 6);
        m.add("shadow.cache.hit", 2);
        m.add("shadow.cache.lookups", 5);
        let violations = m.audit().unwrap_err();
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("vm.events")));
        assert!(violations.iter().any(|v| v.contains("sched.lines")));
        assert!(violations.iter().any(|v| v.contains("shadow.cache")));
    }

    #[test]
    fn audit_checks_sweep_attempt_accounting() {
        let mut m = Metrics::new();
        m.add("sweep.attempts", 7);
        m.add("sweep.completed", 4);
        m.add("sweep.retries", 2);
        m.add("sweep.quarantined", 1);
        assert_eq!(m.audit(), Ok(()));
        m.add("sweep.retries", 1);
        let violations = m.audit().unwrap_err();
        assert!(violations.iter().any(|v| v.contains("sweep.attempts")));
    }

    #[test]
    fn line_codec_roundtrips_everything() {
        let mut m = Metrics::new();
        m.add("vm.events.total", 42);
        m.set_gauge("sweep.cells", 6);
        m.observe("kernel.transfer.cells", &[4, 64], 5);
        m.observe("kernel.transfer.cells", &[4, 64], 1000);
        m.observe("empty.bounds", &[], 3);
        m.set_timing("patterns.native.secs", 0.12345678901234);
        let text = m.to_lines();
        let back = Metrics::from_lines(&text).unwrap();
        assert_eq!(back, m, "{text}");
        assert_eq!(back.to_lines(), text);
        assert_eq!(Metrics::from_lines("").unwrap(), Metrics::new());
    }

    #[test]
    fn line_codec_rejects_malformed_lines() {
        for bad in [
            "counter a",
            "gauge g x",
            "hist h 1,2 1,1 2",
            "hist h 1,2 1,1,1,1 4 9",
            "mystery m 1",
            "counter a 1 extra",
        ] {
            assert!(Metrics::from_lines(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn prometheus_rendering_has_buckets_and_types() {
        let mut m = Metrics::new();
        m.inc("vm.events.total");
        m.set_gauge("vm.threads", 2);
        m.observe("kernel.transfer.cells", &[4, 64], 5);
        m.observe("kernel.transfer.cells", &[4, 64], 1000);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE drms_vm_events_total counter"));
        assert!(text.contains("drms_vm_threads 2"));
        assert!(text.contains("drms_kernel_transfer_cells_bucket{le=\"64\"} 1"));
        assert!(text.contains("drms_kernel_transfer_cells_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("drms_kernel_transfer_cells_count 2"));
    }
}

//! A small deterministic metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by `name{label="value",...}` strings.
//!
//! Registries are plain values, cheap to create per worker task, merged in a
//! deterministic (submission) order at reassembly. All iteration is over
//! `BTreeMap`s so exposition output is byte-stable regardless of insertion
//! order or thread count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default buckets for wall-clock durations in seconds.
pub const TIME_BUCKETS: &[f64] = &[
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
];

/// Default buckets for model sizes (constraint / variable counts).
pub const SIZE_BUCKETS: &[f64] = &[10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0];

/// The quantiles the registry exposes for every sketch series (p50/p95/p99).
pub const QUANTILES: &[f64] = &[0.5, 0.95, 0.99];

/// Exact streaming quantile sketch.
///
/// Unlike the fixed-bucket [`Histogram`] (whose quantile estimates are only
/// as good as its bucket layout), the sketch keeps every observation and
/// answers quantile queries exactly. Suites observe one value per function,
/// so memory is bounded by suite size; the deterministic shard-merge order
/// plus a total-order sort make every query byte-stable across worker
/// counts and runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuantileSketch {
    values: Vec<f64>,
    sum: f64,
}

impl QuantileSketch {
    pub fn new() -> QuantileSketch {
        QuantileSketch::default()
    }

    pub fn observe(&mut self, v: f64) {
        self.values.push(v);
        self.sum += v;
    }

    /// Fold another shard in. Concatenation order follows the registry's
    /// deterministic merge order; queries sort, so order never shows.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.values.extend_from_slice(&other.values);
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact nearest-rank quantile (`q` in `[0, 1]`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(sorted[rank - 1])
    }
}

/// Fixed-bucket histogram with an implicit `+Inf` bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Upper bounds, ascending. `counts` has one extra slot for `+Inf`.
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
    pub total: u64,
}

impl Histogram {
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    pub fn observe(&mut self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.total += 1;
    }

    /// Fold another histogram in.
    ///
    /// When the shard's bucket layout doesn't match, the merge must not
    /// abort the suite run it is part of: the shard's observations are
    /// salvaged into the `+Inf` bucket (keeping `_count` and `_sum` exact,
    /// losing only the per-bucket breakdown for those samples) and the
    /// mismatch is reported for the caller to surface.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), BucketMismatch> {
        if self.bounds != other.bounds {
            *self.counts.last_mut().expect("histogram has +Inf bucket") += other.total;
            self.sum += other.sum;
            self.total += other.total;
            return Err(BucketMismatch {
                expected: self.bounds.clone(),
                found: other.bounds.clone(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.total += other.total;
        Ok(())
    }
}

/// A histogram shard arrived with a different bucket layout than the series
/// it merges into. The observations were folded into `+Inf` rather than
/// dropped; this error carries both layouts for diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketMismatch {
    pub expected: Vec<f64>,
    pub found: Vec<f64>,
}

impl std::fmt::Display for BucketMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "histogram bucket layout mismatch: expected {:?}, found {:?} (shard folded into +Inf)",
            self.expected, self.found
        )
    }
}

impl std::error::Error for BucketMismatch {}

/// Build the canonical series key `name{k1="v1",k2="v2"}`.
///
/// Labels are emitted in the order given; callers use a fixed label order per
/// metric family so keys are stable. Label values must not contain `"` , `,`
/// or `}` (enforced in debug builds) — every producer passes stable
/// identifier-like names.
pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        debug_assert!(
            !v.contains(['"', ',', '}']),
            "label value {v:?} needs quoting"
        );
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

fn family(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

fn label_value<'a>(series: &'a str, label: &str) -> Option<&'a str> {
    let rest = series.split_once('{')?.1.strip_suffix('}')?;
    for pair in rest.split(',') {
        let (k, v) = pair.split_once('=')?;
        if k == label {
            return v.strip_prefix('"')?.strip_suffix('"');
        }
    }
    None
}

/// Counter / gauge / histogram registry. See module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `by` to a counter series.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        if by != 0 {
            *self.counters.entry(key(name, labels)).or_insert(0) += by;
        }
    }

    /// Set a gauge series. Gauges are set once (in the final merged registry
    /// or in exactly one shard); `merge` sums them, so don't set the same
    /// gauge series in two shards.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(key(name, labels), value);
    }

    /// Observe `value` into a histogram series, creating it with `bounds` on
    /// first use.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
        self.histograms
            .entry(key(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Observe `value` into an exact quantile sketch series.
    pub fn observe_quantile(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.sketches
            .entry(key(name, labels))
            .or_default()
            .observe(value);
    }

    /// Fold another registry (a worker shard) into this one.
    ///
    /// Never panics: a shard histogram whose bucket layout disagrees with
    /// the accumulated series is folded into `+Inf` and counted under the
    /// `obs_histogram_merge_mismatch_total` counter instead of aborting
    /// the run.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        let mut mismatches = 0u64;
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => {
                    if mine.merge(h).is_err() {
                        mismatches += 1;
                    }
                }
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        self.inc("obs_histogram_merge_mismatch_total", &[], mismatches);
        for (k, s) in &other.sketches {
            self.sketches.entry(k.clone()).or_default().merge(s);
        }
    }

    /// Exact-series counter lookup (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&key(name, labels)).copied().unwrap_or(0)
    }

    /// Sum every counter series in a family, across all label combinations.
    pub fn counter_family_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| family(k) == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// For each value of `label` within the counter family `name`, the summed
    /// count — sorted by label value for deterministic rendering.
    pub fn counter_by_label(&self, name: &str, label: &str) -> Vec<(String, u64)> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (k, v) in &self.counters {
            if family(k) == name {
                if let Some(value) = label_value(k, label) {
                    *out.entry(value.to_string()).or_insert(0) += v;
                }
            }
        }
        out.into_iter().collect()
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&key(name, labels)).copied()
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&key(name, labels))
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn sketch(&self, name: &str, labels: &[(&str, &str)]) -> Option<&QuantileSketch> {
        self.sketches.get(&key(name, labels))
    }

    /// Exact nearest-rank quantile of a sketch series; `None` when the
    /// series is absent or empty.
    pub fn quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.sketch(name, labels).and_then(|s| s.quantile(q))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.sketches.is_empty()
    }

    /// Prometheus-style text exposition. Deterministic: series are emitted in
    /// sorted key order with one `# TYPE` header per family.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (k, v) in &self.counters {
            let fam = family(k);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} counter");
                last_family = fam.to_string();
            }
            let _ = writeln!(out, "{k} {v}");
        }
        last_family.clear();
        for (k, v) in &self.gauges {
            let fam = family(k);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} gauge");
                last_family = fam.to_string();
            }
            let _ = writeln!(out, "{k} {v}");
        }
        last_family.clear();
        for (k, h) in &self.histograms {
            let fam = family(k);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} histogram");
                last_family = fam.to_string();
            }
            let labels = k.strip_prefix(fam).unwrap_or("");
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                let _ = writeln!(
                    out,
                    "{fam}_bucket{} {cumulative}",
                    with_le(labels, &format!("{bound}"))
                );
            }
            cumulative += h.counts[h.bounds.len()];
            let _ = writeln!(out, "{fam}_bucket{} {cumulative}", with_le(labels, "+Inf"));
            let _ = writeln!(out, "{fam}_sum{labels} {}", h.sum);
            let _ = writeln!(out, "{fam}_count{labels} {}", h.total);
        }
        last_family.clear();
        for (k, s) in &self.sketches {
            let fam = family(k);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} summary");
                last_family = fam.to_string();
            }
            let labels = k.strip_prefix(fam).unwrap_or("");
            for q in QUANTILES {
                if let Some(v) = s.quantile(*q) {
                    let _ = writeln!(
                        out,
                        "{fam}{} {v}",
                        with_label(labels, "quantile", &format!("{q}"))
                    );
                }
            }
            let _ = writeln!(out, "{fam}_sum{labels} {}", s.sum());
            let _ = writeln!(out, "{fam}_count{labels} {}", s.count());
        }
        out
    }
}

/// A [`Metrics`] registry behind a mutex, for components that mutate one
/// registry from many threads *live* (the long-running daemon) instead of
/// merging per-task shards after the fact (the batch driver). Contention
/// is negligible at the daemon's update granularity — a handful of
/// counter bumps per request, never per solver iteration.
#[derive(Debug, Default)]
pub struct SharedMetrics(std::sync::Mutex<Metrics>);

impl SharedMetrics {
    pub fn new() -> SharedMetrics {
        SharedMetrics::default()
    }

    /// Add `by` to a counter series.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.0.lock().unwrap().inc(name, labels, by);
    }

    /// Set a gauge series to an absolute value.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.0.lock().unwrap().set_gauge(name, labels, value);
    }

    /// Observe into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
        self.0.lock().unwrap().observe(name, labels, bounds, value);
    }

    /// Observe into an exact quantile sketch series.
    pub fn observe_quantile(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.0.lock().unwrap().observe_quantile(name, labels, value);
    }

    /// Fold a finished task's shard into the live registry.
    pub fn merge(&self, shard: &Metrics) {
        self.0.lock().unwrap().merge(shard);
    }

    /// Exact-series counter lookup (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.0.lock().unwrap().counter(name, labels)
    }

    /// Current gauge value, when set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.0.lock().unwrap().gauge(name, labels)
    }

    /// A point-in-time copy of the registry.
    pub fn snapshot(&self) -> Metrics {
        self.0.lock().unwrap().clone()
    }

    /// Render the current registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        self.0.lock().unwrap().to_prometheus()
    }
}

/// Splice an `le` label into an existing (possibly empty) label block.
fn with_le(labels: &str, le: &str) -> String {
    with_label(labels, "le", le)
}

/// Splice an extra `key="value"` label into an existing (possibly empty)
/// label block.
fn with_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        let inner = &labels[1..labels.len() - 1];
        format!("{{{inner},{key}=\"{value}\"}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sum_by_family() {
        let mut m = Metrics::new();
        m.inc("x_total", &[], 2);
        m.inc("x_total", &[], 3);
        m.inc("y_total", &[("rung", "ip-optimal")], 1);
        m.inc("y_total", &[("rung", "coloring")], 4);
        assert_eq!(m.counter("x_total", &[]), 5);
        assert_eq!(m.counter_family_sum("y_total"), 5);
        assert_eq!(
            m.counter_by_label("y_total", "rung"),
            vec![("coloring".to_string(), 4), ("ip-optimal".to_string(), 1),]
        );
    }

    #[test]
    fn inc_zero_creates_no_series() {
        let mut m = Metrics::new();
        m.inc("x_total", &[], 0);
        assert!(m.is_empty());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Metrics::new();
        a.inc("c", &[], 1);
        a.observe("h", &[], &[1.0, 2.0], 0.5);
        let mut b = Metrics::new();
        b.inc("c", &[], 2);
        b.inc("d", &[("k", "v")], 7);
        b.observe("h", &[], &[1.0, 2.0], 5.0);
        b.set_gauge("g", &[], 1.5);
        a.merge(&b);
        assert_eq!(a.counter("c", &[]), 3);
        assert_eq!(a.counter("d", &[("k", "v")]), 7);
        assert_eq!(a.gauge("g", &[]), Some(1.5));
        let h = a.histogram("h", &[]).unwrap();
        assert_eq!(h.total, 2);
        assert_eq!(h.counts, vec![1, 0, 1]);
        assert!((h.sum - 5.5).abs() < 1e-12);
    }

    #[test]
    fn merge_order_is_deterministic() {
        let mut shard1 = Metrics::new();
        shard1.inc("z", &[], 1);
        shard1.inc("a", &[("l", "x")], 2);
        let mut shard2 = Metrics::new();
        shard2.inc("a", &[("l", "y")], 3);
        shard2.inc("z", &[], 4);

        let mut ab = Metrics::new();
        ab.merge(&shard1);
        ab.merge(&shard2);
        let mut ba = Metrics::new();
        ba.merge(&shard2);
        ba.merge(&shard1);
        assert_eq!(ab.to_prometheus(), ba.to_prometheus());
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let mut m = Metrics::new();
        for v in [0.5, 1.5, 99.0] {
            m.observe("t_seconds", &[("phase", "build")], &[1.0, 2.0], v);
        }
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE t_seconds histogram"));
        assert!(text.contains("t_seconds_bucket{phase=\"build\",le=\"1\"} 1"));
        assert!(text.contains("t_seconds_bucket{phase=\"build\",le=\"2\"} 2"));
        assert!(text.contains("t_seconds_bucket{phase=\"build\",le=\"+Inf\"} 3"));
        assert!(text.contains("t_seconds_sum{phase=\"build\"} 101"));
        assert!(text.contains("t_seconds_count{phase=\"build\"} 3"));
    }

    #[test]
    fn exposition_has_one_type_line_per_family() {
        let mut m = Metrics::new();
        m.inc("f_total", &[("a", "1")], 1);
        m.inc("f_total", &[("a", "2")], 1);
        let text = m.to_prometheus();
        assert_eq!(text.matches("# TYPE f_total counter").count(), 1);
    }

    #[test]
    fn histogram_merge_mismatch_folds_into_inf_instead_of_panicking() {
        let mut a = Metrics::new();
        a.observe("h", &[], &[1.0, 2.0], 0.5);
        let mut bad_shard = Metrics::new();
        bad_shard.observe("h", &[], &[5.0], 3.0);
        bad_shard.observe("h", &[], &[5.0], 7.0);
        a.merge(&bad_shard);
        let h = a.histogram("h", &[]).unwrap();
        // Nothing lost: count and sum are exact, the two mismatched samples
        // just land in +Inf.
        assert_eq!(h.total, 3);
        assert!((h.sum - 10.5).abs() < 1e-12);
        assert_eq!(h.counts, vec![1, 0, 2]);
        assert_eq!(a.counter("obs_histogram_merge_mismatch_total", &[]), 1);
    }

    #[test]
    fn histogram_merge_reports_mismatch_layouts() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[5.0]);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err.expected, vec![1.0, 2.0]);
        assert_eq!(err.found, vec![5.0]);
        assert!(err.to_string().contains("bucket layout mismatch"));
    }

    #[test]
    fn quantile_sketch_is_exact_nearest_rank() {
        let mut m = Metrics::new();
        for v in 1..=100 {
            m.observe_quantile("q_dist", &[], v as f64);
        }
        assert_eq!(m.quantile("q_dist", &[], 0.5), Some(50.0));
        assert_eq!(m.quantile("q_dist", &[], 0.95), Some(95.0));
        assert_eq!(m.quantile("q_dist", &[], 0.99), Some(99.0));
        assert_eq!(m.quantile("q_dist", &[], 1.0), Some(100.0));
        assert_eq!(m.quantile("q_dist", &[], 0.0), Some(1.0));
        assert_eq!(m.quantile("absent", &[], 0.5), None);
    }

    #[test]
    fn sketch_merge_is_order_invariant_for_queries() {
        let mut s1 = QuantileSketch::new();
        for v in [9.0, 1.0, 5.0] {
            s1.observe(v);
        }
        let mut s2 = QuantileSketch::new();
        for v in [3.0, 7.0] {
            s2.observe(v);
        }
        let mut a = s1.clone();
        a.merge(&s2);
        let mut b = s2.clone();
        b.merge(&s1);
        for q in QUANTILES {
            assert_eq!(a.quantile(*q), b.quantile(*q));
        }
        assert_eq!(a.count(), 5);
        assert_eq!(a.quantile(0.5), Some(5.0));
    }

    #[test]
    fn sketches_expose_as_prometheus_summaries() {
        let mut m = Metrics::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.observe_quantile("pivots_dist", &[("target", "x86")], v);
        }
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE pivots_dist summary"));
        assert!(text.contains("pivots_dist{target=\"x86\",quantile=\"0.5\"} 2"));
        assert!(text.contains("pivots_dist{target=\"x86\",quantile=\"0.95\"} 4"));
        assert!(text.contains("pivots_dist{target=\"x86\",quantile=\"0.99\"} 4"));
        assert!(text.contains("pivots_dist_sum{target=\"x86\"} 10"));
        assert!(text.contains("pivots_dist_count{target=\"x86\"} 4"));
    }

    #[test]
    fn label_value_parses_multi_label_keys() {
        let k = key("m", &[("rung", "ip-optimal"), ("reason", "solver-timeout")]);
        assert_eq!(k, "m{rung=\"ip-optimal\",reason=\"solver-timeout\"}");
        assert_eq!(label_value(&k, "reason"), Some("solver-timeout"));
        assert_eq!(label_value(&k, "rung"), Some("ip-optimal"));
        assert_eq!(label_value(&k, "absent"), None);
    }
}

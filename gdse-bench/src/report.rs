//! What a run reports: the metric catalog (name, unit and, per layer, the
//! workload that measures it), the exact results, the one-line JSON result,
//! the tagged record, and the statistics samples are reduced with.

use serde::Value;
use std::hash::{Hash, Hasher};

/// A catalog entry: metric name and unit, as printed. Which way each
/// metric improves is recorded in BENCHMARK.json, where `compare` reads it.
pub type MetricSpec = (&'static str, &'static str);

/// End-to-end metrics: every untraced run of every workload reports all of
/// them. What "throughput" and "latency" count differs per workload (see
/// the README's workload table); the name means the same user-visible fact.
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// A per-layer catalog entry: name, unit, and the workload whose traced
/// runs measure it (`None`: every workload).
pub type LayerSpec = (&'static str, &'static str, Option<&'static str>);

const DSE: Option<&str> = Some("dse-sweep");
const TRAIN: Option<&str> = Some("train-epochs");
const SERVE: Option<&str> = Some("serve-open");
const ROUNDS: Option<&str> = Some("rounds-campaign");

/// Per-layer metrics. A traced run measures exactly the ones its workload
/// owns; running without one of them, or with one it does not own, fails
/// the run's checks.
pub const PER_LAYER: &[LayerSpec] = &[
    // core::dse
    ("dse.surrogate_share", "ratio", DSE),
    ("dse.bookkeeping_us_per_point", "us", DSE),
    // core::inference (replay of predict_batch)
    ("predict.lower_us_per_point", "us", DSE),
    ("predict.batch_us_per_point", "us", DSE),
    ("predict.forward_cls_us_per_point", "us", DSE),
    ("predict.forward_reg_us_per_point", "us", DSE),
    ("predict.forward_bram_us_per_point", "us", DSE),
    ("predict.readout_us_per_point", "us", DSE),
    ("predict.release_us_per_point", "us", DSE),
    ("predict.coverage", "ratio", DSE),
    // gdse-gnn (recomposed classifier forward)
    ("gnn.inputs_us_per_point", "us", DSE),
    ("gnn.conv0_us_per_point", "us", DSE),
    ("gnn.conv1_us_per_point", "us", DSE),
    ("gnn.conv2_us_per_point", "us", DSE),
    ("gnn.conv3_us_per_point", "us", DSE),
    ("gnn.norm_us_per_point", "us", DSE),
    ("gnn.jkn_us_per_point", "us", DSE),
    ("gnn.pool_us_per_point", "us", DSE),
    ("gnn.heads_us_per_point", "us", DSE),
    ("gnn.coverage", "ratio", DSE),
    // gdse-tensor (single ops at the shapes of a 2mm x 64 batch)
    ("tensor.tape_nodes_per_forward", "count", DSE),
    ("tensor.linear_ns_per_row", "ns", DSE),
    ("tensor.gather_rows_ns_per_row", "ns", DSE),
    ("tensor.scatter_add_rows_ns_per_row", "ns", DSE),
    ("tensor.segment_softmax_ns_per_row", "ns", DSE),
    ("tensor.layer_norm_ns_per_row", "ns", DSE),
    ("tensor.row_dot_ns_per_row", "ns", DSE),
    ("tensor.max_stack_ns_per_row", "ns", DSE),
    ("tensor.concat_cols_ns_per_row", "ns", DSE),
    ("tensor.mul_col_broadcast_ns_per_row", "ns", DSE),
    ("quant.predict_speedup", "x", DSE),
    // core::trainer (recomposed regression training)
    ("train.batch_us_per_step", "us", TRAIN),
    ("train.forward_us_per_step", "us", TRAIN),
    ("train.loss_us_per_step", "us", TRAIN),
    ("train.backward_us_per_step", "us", TRAIN),
    ("train.clip_us_per_step", "us", TRAIN),
    ("train.adam_us_per_step", "us", TRAIN),
    ("train.release_us_per_step", "us", TRAIN),
    ("train.tape_nodes_per_step", "count", TRAIN),
    ("train.coverage", "ratio", TRAIN),
    // gdse-serve (server span histograms, read through `stats`)
    ("serve.ingress_us", "us", SERVE),
    ("serve.route_us", "us", SERVE),
    ("serve.queue_wait_us", "us", SERVE),
    ("serve.batch_wait_us", "us", SERVE),
    ("serve.infer_us", "us", SERVE),
    ("serve.write_us", "us", SERVE),
    ("serve.wire_us", "us", SERVE),
    ("serve.coverage", "ratio", SERVE),
    ("serve.batch_size_mean", "count", SERVE),
    ("serve.cache_hit_ratio", "ratio", SERVE),
    ("serve.light.p99_ms", "ms", SERVE),
    ("serve.heavy.p50_ms", "ms", SERVE),
    ("serve.heavy.p99_ms", "ms", SERVE),
    ("serve.generator_late_ms", "ms", SERVE),
    // exec, core::harness, merlin-sim, core::persist (campaign stages)
    ("rounds.train_share", "ratio", ROUNDS),
    ("rounds.dse_share", "ratio", ROUNDS),
    ("rounds.validate_share", "ratio", ROUNDS),
    ("rounds.checkpoint_share", "ratio", ROUNDS),
    ("exec.parallel_efficiency", "ratio", ROUNDS),
    ("exec.cache_hit_ratio", "ratio", ROUNDS),
    ("oracle.evals", "count", ROUNDS),
    ("oracle.retries", "count", ROUNDS),
    ("rounds.validations_lost", "count", ROUNDS),
    // the benchmark's own spans
    ("trace.overhead", "ratio", None),
];

/// `(name, unit)` of every per-layer metric.
pub fn per_layer_specs() -> Vec<MetricSpec> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
}

/// The per-layer metrics a traced run of `workload` measures.
pub fn owned_by(workload: &str) -> Vec<&'static str> {
    PER_LAYER
        .iter()
        .filter(|m| m.2.is_none_or(|w| w == workload))
        .map(|m| m.0)
        .collect()
}

fn find(name: &str) -> MetricSpec {
    END_TO_END
        .iter()
        .copied()
        .chain(per_layer_specs())
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"))
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (kernels explored, training runs, requests,
    /// validations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, one line each; empty means correct.
    pub errors: Vec<String>,
    /// `(name, value)` in emission order; units come from the catalog.
    pub metrics: Vec<(&'static str, f64)>,
    /// Exact results: quality numbers and digests of the program's outputs,
    /// `(name, value)`. A seed gives the same values in every run, and
    /// `compare` requires them equal between parent and change.
    pub exact: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric of the catalog.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalog: a bug in the benchmark.
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((find(name).0, value));
    }

    /// Records an exact number; its shortest round-trip form, so equal
    /// strings mean equal bits.
    pub fn exact_number(&mut self, name: &str, value: f64) {
        self.exact.push((name.to_string(), format!("{value:?}")));
    }

    /// Records the digest of an exact output.
    pub fn exact_digest(&mut self, name: &str, value: &impl Hash) {
        self.exact.push((name.to_string(), digest(value)));
    }

    /// Records a failed correctness check unless `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Checks that the run measured exactly the metrics `expected`, each
    /// once and finite.
    pub fn check_measured(&mut self, expected: &[&str]) {
        for &name in expected {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|m| m.1)
                .collect();
            self.check(values.len() == 1 && values[0].is_finite(), || {
                format!("`{name}` measured {values:?}, expected one finite value")
            });
        }
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|m| m.0)
            .filter(|n| !expected.contains(n))
            .collect();
        self.check(extra.is_empty(), || {
            format!("measured metrics this run does not own: {extra:?}")
        });
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Reads back a record written by [`Outcome::record`]; a failed run
    /// comes back with one error saying so.
    pub fn from_value(v: &Value) -> Option<Outcome> {
        let get = |k: &str| v.as_map()?.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let count = |k: &str| match get(k)? {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        };
        let mut out = Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..Outcome::default()
        };
        if get("correct")? != &Value::Bool(true) {
            out.errors
                .push("a part of the run failed its checks".into());
        }
        for (name, m) in get("metrics")?.as_map()? {
            let value = m.as_map()?.iter().find(|(k, _)| k == "value")?;
            let Value::Float(x) = value.1 else {
                return None;
            };
            out.push(name, x);
        }
        for (name, x) in get("exact")?.as_map()? {
            out.exact.push((name.clone(), x.as_str()?.to_string()));
        }
        Some(out)
    }

    /// Merges the results of several processes that ran the same work:
    /// counts and errors add up, each metric is the median over the parts,
    /// and the exact results must agree.
    ///
    /// # Panics
    ///
    /// With no parts, or parts that report different metrics.
    pub fn merge(parts: &[Outcome]) -> Outcome {
        let mut out = Outcome::default();
        for p in parts {
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.errors.extend(p.errors.iter().cloned());
        }
        for (i, (name, _)) in parts[0].metrics.iter().enumerate() {
            let values: Vec<f64> = parts
                .iter()
                .map(|p| {
                    assert_eq!(p.metrics[i].0, *name, "parts report the same metrics");
                    p.metrics[i].1
                })
                .collect();
            out.metrics.push((name, median(&values)));
        }
        out.exact = parts[0].exact.clone();
        for p in &parts[1..] {
            out.check(p.exact == out.exact, || {
                format!(
                    "parts disagree on exact results: {:?} vs {:?}",
                    parts[0].exact, p.exact
                )
            });
        }
        out
    }

    fn metric_values<'a>(&self, specs: impl Iterator<Item = &'a (&'static str, f64)>) -> Value {
        Value::Map(
            specs
                .map(|&(name, value)| {
                    let m = Value::Map(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(find(name).1.into())),
                    ]);
                    (name.to_string(), m)
                })
                .collect(),
        )
    }

    fn fields(&self, metrics: Value) -> Vec<(String, Value)> {
        vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(i128::from(self.attempted))),
            ("failed".into(), Value::Int(i128::from(self.failed))),
            ("metrics".into(), metrics),
        ]
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (`{name: {value, unit}}`), with every metric of `declared`
    /// in its order. The result format wants a number for each declared
    /// metric, so one the run did not measure (a layer its workload does
    /// not run) reads 0 here; records list only measured metrics.
    pub fn result(&self, declared: &[MetricSpec]) -> Value {
        let all: Vec<(&'static str, f64)> = declared
            .iter()
            .map(|&(name, _)| {
                let v = self.metrics.iter().find(|m| m.0 == name);
                (name, v.map_or(0.0, |m| m.1))
            })
            .collect();
        Value::Map(self.fields(self.metric_values(all.iter())))
    }

    /// The record: the result fields with the measured metrics only, and
    /// `exact` (`{name: value}`).
    pub fn record(&self) -> Value {
        let mut fields = self.fields(self.metric_values(self.metrics.iter()));
        let exact = self
            .exact
            .iter()
            .map(|(n, x)| (n.clone(), Value::Str(x.clone())))
            .collect();
        fields.push(("exact".into(), Value::Map(exact)));
        Value::Map(fields)
    }
}

/// FNV-1a: a hash that does not change between builds or toolchains, so
/// digests of one commit compare with another's.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hex digest of a value.
pub fn digest(value: &impl Hash) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    value.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Median of the samples (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Percentile `q` in [0, 1] of the samples, linearly interpolated.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) computes them.
///
/// # Panics
///
/// With fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (ld, n) = (v.len() as i64, 4i64);
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (q(1), q(3))
}

/// Geometric mean of positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Resets the peak resident set size to the current one, so that the next
/// [`peak_rss_mb`] covers only what runs in between (Linux 4.0 and later;
/// elsewhere the peak stays the process's).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set size (`VmHWM`), in MiB.
///
/// # Panics
///
/// Where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn catalog_names_are_unique_and_every_layer_has_a_known_owner() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for (name, _, owner) in PER_LAYER {
            assert!(
                owner.is_none_or(|w| crate::workloads::NAMES.contains(&w)),
                "{name}"
            );
        }
    }

    #[test]
    fn digests_are_stable() {
        // FNV-1a 64 of no bytes is its offset basis.
        assert_eq!(digest(&()), "cbf29ce484222325");
        assert_eq!(digest(&[1u64, 2]), digest(&[1u64, 2]));
        assert_ne!(digest(&[1u64, 2]), digest(&[2u64, 1]));
    }

    #[test]
    fn the_result_line_lists_every_declared_metric_and_the_record_only_measured_ones() {
        let mut o = Outcome::default();
        o.push("trace.overhead", 1.5);
        o.exact_number("x", 0.1);
        let specs = per_layer_specs();
        let result = o.result(&specs);
        let metrics = result.as_map().unwrap()[3].1.as_map().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let record = o.record();
        let fields = record.as_map().unwrap();
        assert_eq!(fields[3].1.as_map().unwrap().len(), 1);
        assert_eq!(fields[4].0, "exact");
        let back = Outcome::from_value(&record).unwrap();
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.exact, vec![("x".to_string(), "0.1".to_string())]);
    }
}

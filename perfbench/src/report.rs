//! Metric declarations and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit and
//! direction; per-layer metrics also name the end-to-end metric (and the
//! workload) they are expected to move, so a change that claims a gain
//! in one layer knows where the gain should show.

use std::fmt::Write as _;

use gfaas_core::snap::Fnv1a;
use gfaas_core::RunMetrics;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric(s) and workload(s) this one should move; for
    /// end-to-end metrics, what it measures.
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off (`--trace 0`). `sim_*` metrics are
/// simulated and repeat exactly for a seed; the rest are host-side.
pub const END_TO_END: [Def; 6] = [
    def(
        "ns_per_request",
        "ns",
        Lower,
        "host ns of Cluster::run / trace requests, upper quartile of repetitions",
    ),
    def(
        "setup_s",
        "s",
        Lower,
        "host s of Scenario::trace + Cluster::new, median of repetitions",
    ),
    def(
        "peak_rss_mib",
        "MiB",
        Lower,
        "peak resident memory of the process after its first set-up and run",
    ),
    def(
        "sim_p99_latency_s",
        "s",
        Lower,
        "simulated 99th-percentile request latency",
    ),
    def(
        "sim_gpu_seconds",
        "GPU-s",
        Lower,
        "simulated provisioned GPU-seconds",
    ),
    def(
        "sim_capacity_rpm",
        "req/min",
        Higher,
        "paper testbed capacity for the seed, same on every workload",
    ),
];

const SETUP: &str = "setup_s, all workloads";
const SELF_NS: &str = "ns_per_request on testbed12 and elastic_diurnal";
const SCHED: &str = "ns_per_request on fleet768; no move on testbed12";
const ARM: &str = "sim_p99_latency_s and the printed miss ratio on testbed12";
const CACHE: &str = "ns_per_request and the printed miss ratio on testbed12";
const ELASTIC: &str = "ns_per_request and sim_gpu_seconds on elastic_diurnal";
const STORE: &str = "sim_p99_latency_s on elastic_diurnal";
const SNAP: &str = "ns_per_request and peak_rss_mib on lookahead_backlog";
const TRACE: &str = "none: tracing cost, all workloads";

/// Measured in the traced run (`--trace 1`).
pub const PER_LAYER: [Def; 61] = [
    def("workload.gen_ms", "ms", Lower, SETUP),
    def("cluster.build_ms", "ms", Lower, "setup_s, most on fleet768"),
    def("cluster.self_ns_per_req", "ns/req", Lower, SELF_NS),
    def("cluster.events_per_req", "1/req", Lower, SELF_NS),
    def("cluster.passes_per_req", "1/req", Lower, SELF_NS),
    def("cluster.rounds_per_req", "1/req", Lower, SELF_NS),
    def("cluster.heap_peak", "count", Lower, SELF_NS),
    def("scheduler.idle_order.calls", "count", Lower, SCHED),
    def("scheduler.idle_order.ns_per_call", "ns", Lower, SCHED),
    def("scheduler.idle_order.ns_per_req", "ns/req", Lower, SCHED),
    def("scheduler.on_gpu_idle.calls", "count", Lower, SCHED),
    def("scheduler.on_gpu_idle.ns_per_call", "ns", Lower, SCHED),
    def("scheduler.on_gpu_idle.ns_per_req", "ns/req", Lower, SCHED),
    def("scheduler.on_gpu_idle.placed_ratio", "ratio", Higher, SCHED),
    def("scheduler.estimator_calls_per_req", "1/req", Lower, SCHED),
    def("scheduler.arm.hit_local_share", "ratio", Higher, ARM),
    def("scheduler.arm.hit_remote_share", "ratio", Higher, ARM),
    def("scheduler.arm.wait_busy_share", "ratio", Lower, ARM),
    def("scheduler.arm.miss_share", "ratio", Lower, ARM),
    def("scheduler.arm.rider_share", "ratio", Higher, ARM),
    def("cache.on_hit.calls", "count", Higher, CACHE),
    def("cache.on_insert.calls", "count", Lower, CACHE),
    def("cache.pick_victim.calls", "count", Lower, CACHE),
    def("cache.order.calls", "count", Lower, CACHE),
    def("cache.pick_victim.ns_per_call", "ns", Lower, CACHE),
    def("cache.order.ns_per_call", "ns", Lower, CACHE),
    def("cache.ns_per_req", "ns/req", Lower, CACHE),
    def("batching.plan.calls", "count", Lower, ELASTIC),
    def("batching.plan.ns_per_call", "ns", Lower, ELASTIC),
    def("batching.ns_per_req", "ns/req", Lower, ELASTIC),
    def("batching.holds_parked", "count", Lower, ELASTIC),
    def("batching.avg_batch", "req", Higher, ELASTIC),
    def("autoscale.step.calls", "count", Lower, ELASTIC),
    def("autoscale.step.ns_per_call", "ns", Lower, ELASTIC),
    def("autoscale.ns_per_req", "ns/req", Lower, ELASTIC),
    def("autoscale.scale_ups", "count", Lower, ELASTIC),
    def("autoscale.scale_downs", "count", Lower, ELASTIC),
    def("store.host_hits", "count", Higher, STORE),
    def("store.origin_loads", "count", Lower, STORE),
    def("store.prefetches", "count", Lower, STORE),
    def("store.demotions", "count", Lower, STORE),
    def("store.host_hit_ratio", "ratio", Higher, STORE),
    def("snap.snapshots", "count", Lower, SNAP),
    def("snap.rollbacks", "count", Lower, SNAP),
    def("snap.fork_ns_per_fork", "ns", Lower, SNAP),
    def("snap.fork_ns_per_req", "ns/req", Lower, SNAP),
    def("snap.at25.snapshot_us", "us", Lower, SNAP),
    def("snap.at25.rollback_us", "us", Lower, SNAP),
    def("snap.at25.commit_us", "us", Lower, SNAP),
    def("snap.at25.image_bytes", "B", Lower, SNAP),
    def("snap.at50.snapshot_us", "us", Lower, SNAP),
    def("snap.at50.rollback_us", "us", Lower, SNAP),
    def("snap.at50.commit_us", "us", Lower, SNAP),
    def("snap.at50.image_bytes", "B", Lower, SNAP),
    def("snap.at75.snapshot_us", "us", Lower, SNAP),
    def("snap.at75.rollback_us", "us", Lower, SNAP),
    def("snap.at75.commit_us", "us", Lower, SNAP),
    def("snap.at75.image_bytes", "B", Lower, SNAP),
    def("obs.events", "count", Lower, TRACE),
    def("trace.overhead_ratio", "ratio", Lower, TRACE),
    def("trace.run_ns_per_req", "ns/req", Lower, TRACE),
];

/// Digest of a run's simulated outcome: FNV-1a over the `Debug` form of
/// its [`RunMetrics`] (floats print round-trip exact, so equal digests
/// mean bit-equal metrics).
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format!("{m:?}").as_bytes());
    h.finish()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First, second and third quartile of a non-empty sample, by linear
/// interpolation between order statistics.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (i, f) = (x.floor() as usize, x.fract());
        v[i] + f * (v[(i + 1).min(v.len() - 1)] - v[i])
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One run's result: the checks, the request tally and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Checks that the metrics are exactly `defs`, each once and finite,
    /// and renders the result line.
    pub fn finish(mut self, defs: &[Def]) -> String {
        for d in defs {
            let n = self.metrics.iter().filter(|(m, _)| m == d.name).count();
            self.check(n == 1, || format!("metric {} reported {n} times", d.name));
        }
        for (name, v) in &self.metrics {
            if !defs.iter().any(|d| d.name == name) {
                self.errors.push(format!("undeclared metric {name}"));
            }
            if !v.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
            }
        }
        self.check(self.attempted > 0, || "no request attempted".into());
        let correct = self.errors.is_empty();
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let mut first = true;
        for d in defs {
            let Some(v) = self.value(d.name) else {
                continue;
            };
            let v = if v.is_finite() { v } else { 0.0 };
            if !first {
                line.push_str(", ");
            }
            first = false;
            write!(
                line,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        for e in &self.errors {
            eprintln!("perfbench: check failed: {e}");
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
    /// `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "invalid name {n}");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(d.unit), "invalid unit {} of {}", d.unit, d.name);
            assert!(!d.moves.is_empty(), "{} names no end-to-end effect", d.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate names");
        for w in &WORKLOADS {
            assert!(
                !w.why.is_empty() && w.why.len() <= 200,
                "{}: why too long",
                w.name
            );
        }
    }

    #[test]
    fn name_rules_reject_bad_names() {
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("GPU seconds"));
        assert!(valid_unit("req/min"));
    }

    /// BENCHMARK.json at the repository root lists exactly the metrics
    /// and workloads declared here, with the same units and directions.
    #[test]
    fn benchmark_json_matches_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len();
        assert_eq!(
            compact.matches("{\"name\":").count(),
            declared,
            "undeclared entries"
        );
    }

    #[test]
    fn result_line_lists_declared_metrics_in_order() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for (i, d) in END_TO_END.iter().enumerate().rev() {
            r.metric(d.name, i as f64 + 0.5);
        }
        let line = r.finish(&END_TO_END);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ns_per_request\": {\"value\": 0.5, \"unit\": \"ns\"}"
        ));
        let mut missing = Report {
            attempted: 1,
            ..Report::default()
        };
        missing.metric("ns_per_request", f64::NAN);
        assert!(missing
            .finish(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

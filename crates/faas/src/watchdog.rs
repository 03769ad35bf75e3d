//! The Watchdog: per-container function execution and metrics reporting.
//!
//! In OpenFaaS the watchdog is the process inside each function container
//! that receives invocations from the Gateway, runs the function code, and
//! writes status/latency metrics back to the platform (Fig 1). Here it
//! wraps a [`crate::gateway::CpuRunner`] and records one metrics key per
//! completed invocation plus rolling per-function aggregates.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gfaas_sim::time::{SimDuration, SimTime};

use crate::datastore::Datastore;
use crate::function::{Invocation, InvocationResult};
use crate::gateway::CpuRunner;

/// Key prefix for per-invocation metrics.
pub const METRICS_PREFIX: &str = "/metrics/invocations/";
/// Key prefix for per-function aggregate metrics.
pub const AGG_PREFIX: &str = "/metrics/functions/";

/// Rolling per-function statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FunctionStats {
    /// Completed invocations.
    pub count: u64,
    /// Sum of latencies in seconds (for means).
    pub total_latency_secs: f64,
    /// Worst observed latency in seconds.
    pub max_latency_secs: f64,
}

impl FunctionStats {
    /// Mean latency in seconds; 0 when no invocations completed.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_latency_secs / self.count as f64
        }
    }
}

/// The watchdog process.
pub struct Watchdog {
    datastore: Arc<Datastore>,
    stats: Mutex<HashMap<String, FunctionStats>>,
}

impl Watchdog {
    /// A watchdog reporting into the given datastore.
    pub fn new(datastore: Arc<Datastore>) -> Self {
        Watchdog {
            datastore,
            stats: Mutex::new(HashMap::new()),
        }
    }

    /// Locks the aggregates. No update panics partway, so even a poisoned
    /// lock guards consistent statistics.
    fn stats_map(&self) -> MutexGuard<'_, HashMap<String, FunctionStats>> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a CPU function body and records its metrics. `started_at` and
    /// `finished_at` come from the caller's clock (virtual or wall).
    pub fn execute(
        &self,
        invocation: &Invocation,
        runner: &mut dyn CpuRunner,
        started_at: SimTime,
        finished_at: SimTime,
    ) -> InvocationResult {
        let output = runner.run(invocation);
        let latency = finished_at.duration_since(started_at);
        self.record(&invocation.function, invocation.id, latency, true);
        InvocationResult {
            id: invocation.id,
            output,
            latency,
            cache_hit: None,
        }
    }

    /// Records a completed invocation's latency and status (also used by
    /// the GPU path, where execution happened on a device).
    pub fn record(&self, function: &str, invocation_id: u64, latency: SimDuration, ok: bool) {
        let secs = latency.as_secs_f64();
        self.datastore.put(
            format!("{METRICS_PREFIX}{function}/{invocation_id}"),
            format!("latency={secs:.6};ok={ok}"),
        );
        let mut stats = self.stats_map();
        let entry = stats.entry(function.to_string()).or_default();
        entry.count += 1;
        entry.total_latency_secs += secs;
        entry.max_latency_secs = entry.max_latency_secs.max(secs);
        self.datastore.put(
            format!("{AGG_PREFIX}{function}"),
            format!(
                "count={};mean={:.6};max={:.6}",
                entry.count,
                entry.mean_latency_secs(),
                entry.max_latency_secs
            ),
        );
    }

    /// Current aggregates for one function.
    pub fn stats(&self, function: &str) -> FunctionStats {
        self.stats_map().get(function).copied().unwrap_or_default()
    }
}

/// A trivial runner that returns a fixed payload; handy in tests/examples.
pub struct ConstRunner(pub Vec<u8>);

impl CpuRunner for ConstRunner {
    fn run(&mut self, _invocation: &Invocation) -> Vec<u8> {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(id: u64, f: &str) -> Invocation {
        Invocation {
            id,
            function: f.to_string(),
            payload: Vec::new(),
            arrived_at: SimTime::ZERO,
            batch_size: 1,
        }
    }

    #[test]
    fn execute_reports_latency_and_output() {
        let ds = Arc::new(Datastore::new());
        let wd = Watchdog::new(Arc::clone(&ds));
        let mut runner = ConstRunner(b"out".to_vec());
        let r = wd.execute(
            &inv(1, "f"),
            &mut runner,
            SimTime::from_secs(10),
            SimTime::from_secs(12),
        );
        assert_eq!(r.output, b"out".to_vec());
        assert_eq!(r.latency, SimDuration::from_secs(2));
        let kv = ds.get("/metrics/invocations/f/1").unwrap();
        assert!(String::from_utf8(kv.value.to_vec())
            .unwrap()
            .contains("latency=2.000000"));
    }

    #[test]
    fn aggregates_accumulate() {
        let ds = Arc::new(Datastore::new());
        let wd = Watchdog::new(ds);
        wd.record("f", 1, SimDuration::from_secs(1), true);
        wd.record("f", 2, SimDuration::from_secs(3), true);
        wd.record("g", 3, SimDuration::from_secs(9), true);
        let f = wd.stats("f");
        assert_eq!(f.count, 2);
        assert!((f.mean_latency_secs() - 2.0).abs() < 1e-12);
        assert_eq!(f.max_latency_secs, 3.0);
        assert_eq!(wd.stats("g").count, 1);
        assert_eq!(wd.stats("unknown"), FunctionStats::default());
    }

    #[test]
    fn aggregate_key_written_to_datastore() {
        let ds = Arc::new(Datastore::new());
        let wd = Watchdog::new(Arc::clone(&ds));
        wd.record("f", 1, SimDuration::from_millis(500), true);
        let kv = ds.get("/metrics/functions/f").unwrap();
        let s = String::from_utf8(kv.value.to_vec()).unwrap();
        assert!(s.contains("count=1"));
        assert!(s.contains("mean=0.500000"));
    }
}

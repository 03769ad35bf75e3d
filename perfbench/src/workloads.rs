//! The benchmark's workloads: four load regimes, each an open loop in
//! simulated time (arrivals follow the generated trace whatever the
//! cluster's progress), generated from the run's seed.

use gfaas_core::{
    AutoscaleSpec, Cluster, ClusterConfig, NullRecorder, PolicyRegistry, PolicySpec, StoreSpec,
};
use gfaas_models::ModelRegistry;
use gfaas_trace::Trace;
use gfaas_workload::{scenario, Scale};

use crate::layers::{
    CountingRecorder, TracedAutoscaler, TracedBatcher, TracedEvictor, TracedScheduler,
};

/// One benchmark workload: a traffic mix at a rate, and the cluster it
/// runs on.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the benchmark carries this workload (mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// Scenario registry name of the traffic mix.
    mix: &'static str,
    /// Offered load, requests per simulated minute.
    rpm: usize,
    /// Arrival horizon, simulated minutes.
    minutes: usize,
    working_set: usize,
    gpus: usize,
    policy: &'static str,
    batching: &'static str,
    store: &'static str,
    autoscale: Option<&'static str>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "testbed12",
        why: "paper setup: paper mix at 325 req/min on the 12-GPU testbed, unsaturated; \
              event loop, dispatch and completion dominate; control for fleet and fork work",
        mix: "paper",
        rpm: 325,
        minutes: 300,
        working_set: 25,
        gpus: 12,
        policy: "lalbo3:25",
        batching: "none",
        store: "flat",
        autoscale: None,
    },
    Workload {
        name: "fleet768",
        why: "paper mix with load scaled to 768 GPUs (325 req/min per 12 GPUs); idle-GPU \
              ordering and Algorithm-2 estimator calls grow with fleet size here only",
        mix: "paper",
        rpm: 20_800,
        minutes: 2,
        working_set: 25,
        gpus: 768,
        policy: "lalbo3:25",
        batching: "none",
        store: "flat",
        autoscale: None,
    },
    Workload {
        name: "lookahead_backlog",
        why: "paper mix at 3,250 req/min on 12 GPUs under lookahead:k=4,horizon=16, saturated; \
              the only workload whose scheduler forks the cluster through gfaas-snap",
        mix: "paper",
        rpm: 3250,
        minutes: 3,
        working_set: 35,
        gpus: 12,
        policy: "lookahead:k=4,horizon=16",
        batching: "none",
        store: "flat",
        autoscale: None,
    },
    Workload {
        name: "elastic_diurnal",
        why: "diurnal mix at 3,250 req/min with queue autoscaling 12-120 GPUs, a tiered host \
              store and coalescing; the only workload where autoscale, store and batching work",
        mix: "diurnal",
        rpm: 3250,
        minutes: 36,
        working_set: 35,
        gpus: 12,
        policy: "lalbo3:25",
        batching: "coalesce",
        store: "tiered:host=64G,origin_bw=2G",
        autoscale: Some("queue:min=12,max=120,up=12,down=2,cadence=3"),
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn scale(&self, rpm: usize, minutes: usize) -> Scale {
        Scale {
            name: self.name,
            requests_per_min: rpm,
            minutes,
            working_set: self.working_set,
        }
    }

    /// The workload's trace for `seed`.
    pub fn trace(&self, seed: u64) -> Trace {
        self.trace_at(self.rpm, self.minutes, seed)
    }

    /// The workload's mix at another rate and horizon.
    pub fn trace_at(&self, rpm: usize, minutes: usize, seed: u64) -> Trace {
        scenario::find(self.mix)
            .expect("workload mixes are registered scenarios")
            .trace(&self.scale(rpm, minutes), seed)
    }

    pub fn config(&self, seed: u64) -> ClusterConfig {
        let spec = |s: &str| PolicySpec::parse(s).expect("workload specs parse");
        let mut c = ClusterConfig::paper_testbed(spec(self.policy));
        c.num_gpus = self.gpus;
        c.batching = spec(self.batching);
        c.store = self
            .store
            .parse::<StoreSpec>()
            .expect("workload store spec parses");
        c.autoscale = self.autoscale.map(|a| {
            a.parse::<AutoscaleSpec>()
                .expect("workload autoscale spec parses")
        });
        c.seed = seed;
        c
    }

    /// The cluster as users build it: builtin policies, no recorder.
    pub fn cluster(&self, seed: u64) -> Cluster {
        Cluster::new(self.config(seed), ModelRegistry::table1())
    }

    /// The same cluster with every policy layer wrapped in a tracing
    /// decorator.
    pub fn traced_cluster(&self, seed: u64) -> Cluster {
        let config = self.config(seed);
        let reg = PolicyRegistry::builtin();
        let sched = reg
            .scheduler(&config.policy)
            .expect("scheduler spec resolves");
        let evictor = reg
            .evictor(&config.replacement, config.seed)
            .expect("evictor spec resolves");
        let batcher = reg
            .batcher(&config.batching)
            .expect("batching spec resolves");
        let autoscaler = config
            .autoscale
            .as_ref()
            .map(|a| a.build().expect("autoscale spec builds"));
        let mut cluster = Cluster::with_policies(
            config,
            ModelRegistry::table1(),
            Box::new(TracedScheduler(sched)),
            Box::new(TracedEvictor(evictor)),
        )
        .expect("workload config is valid");
        cluster.set_batcher(Box::new(TracedBatcher(batcher)));
        if let Some(a) = autoscaler {
            cluster.set_autoscaler(Box::new(TracedAutoscaler(a)));
        }
        cluster
    }

    /// The plain cluster with a counting recorder attached. Recording
    /// makes the cluster build every lifecycle event, so it runs apart
    /// from the span-traced run to keep that cost out of its self times.
    pub fn counted_cluster(&self, seed: u64) -> Cluster {
        let mut cluster = self.cluster(seed);
        cluster.set_recorder(Box::new(CountingRecorder(Box::new(NullRecorder))));
        cluster
    }
}

/// `sim_capacity_rpm` search: the paper testbed (`testbed12`'s cluster
/// and mix) is offered `CAPACITY_START_RPM`, then 5 req/min more per
/// step, each rate over a `CAPACITY_MINUTES` trace. A rate passes when
/// p99 latency is at most `LATENCY_LIMIT_S` *and* the backlog drains: the
/// last request completes within `LATENCY_LIMIT_S` of the last arrival,
/// so no queue is left growing when arrivals stop. The capacity is the
/// last rate before the first failing one.
pub const CAPACITY_START_RPM: usize = 325;
pub const CAPACITY_STEP_RPM: usize = 5;
pub const CAPACITY_MAX_RPM: usize = 1000;
pub const CAPACITY_MINUTES: usize = 60;
pub const LATENCY_LIMIT_S: f64 = 30.0;

/// One grid point of the capacity search.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPoint {
    pub rpm: usize,
    pub p99_s: f64,
    /// Last completion minus last arrival, seconds.
    pub drain_s: f64,
    pub pass: bool,
}

/// Runs the capacity search for `seed`; returns the capacity (0 when
/// even the first rate fails) and every grid point tried.
pub fn capacity(seed: u64) -> (usize, Vec<CapacityPoint>) {
    let w = &WORKLOADS[0];
    let mut points = Vec::new();
    let mut capacity = 0;
    let mut rpm = CAPACITY_START_RPM;
    while rpm <= CAPACITY_MAX_RPM {
        let trace = w.trace_at(rpm, CAPACITY_MINUTES, seed);
        let last_arrival = trace.requests().last().map_or(0.0, |r| r.at.as_secs_f64());
        let m = w.cluster(seed).run(&trace);
        let drain_s = m.makespan_secs - last_arrival;
        let pass = m.p99_latency_secs <= LATENCY_LIMIT_S && drain_s <= LATENCY_LIMIT_S;
        points.push(CapacityPoint {
            rpm,
            p99_s: m.p99_latency_secs,
            drain_s,
            pass,
        });
        if !pass {
            break;
        }
        capacity = rpm;
        rpm += CAPACITY_STEP_RPM;
    }
    (capacity, points)
}

#[cfg(test)]
impl Workload {
    /// The same workload at a tenth of its rate over two minutes, for tests.
    pub fn smoke(&self) -> Workload {
        Workload {
            rpm: (self.rpm / 10).max(60),
            minutes: 2,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::report::digest;

    #[test]
    fn decorators_and_recorder_leave_every_workload_bit_identical() {
        for w in WORKLOADS.iter().map(Workload::smoke) {
            let trace = w.trace(7);
            let plain = digest(&w.cluster(7).run(&trace));
            assert_eq!(
                plain,
                digest(&w.cluster(7).run(&trace)),
                "{}: reruns differ",
                w.name
            );

            layers::start();
            let traced = w.traced_cluster(7).run(&trace);
            let tracer = layers::stop();
            assert_eq!(
                plain,
                digest(&traced),
                "{}: tracing changed the run",
                w.name
            );
            assert!(!tracer.misnested, "{}: misnested spans", w.name);
            assert!(!tracer.spans.is_empty(), "{}: no spans", w.name);

            layers::start();
            let counted = w.counted_cluster(7).run(&trace);
            let counts = layers::stop().counts;
            assert_eq!(
                plain,
                digest(&counted),
                "{}: recording changed the run",
                w.name
            );
            assert!(counts.events > 0 && counts.arms.iter().sum::<u64>() > 0);
        }
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let w = WORKLOADS[0].smoke();
        assert_eq!(w.trace(3).requests(), w.trace(3).requests());
        assert_ne!(w.trace(3).requests(), w.trace(4).requests());
        assert_eq!(format!("{:?}", w.config(3)), format!("{:?}", w.config(3)));
    }

    #[test]
    fn every_workload_config_is_valid() {
        for w in &WORKLOADS {
            w.config(1).validate().expect("valid config");
            assert_eq!(
                w.traced_cluster(1).scheduler_name(),
                w.cluster(1).scheduler_name()
            );
            assert_eq!(
                w.traced_cluster(1).batcher_name(),
                w.cluster(1).batcher_name()
            );
        }
    }
}

//! End-to-end integration: FaaS substrate + trace + cluster + metrics.

use std::sync::Arc;

use gfaas_core::{Cluster, ClusterConfig, Policy};
use gfaas_faas::{Datastore, DatastoreMirror, FunctionSpec, Gateway, Runtime};
use gfaas_models::ModelRegistry;
use gfaas_trace::{AzureTraceConfig, Trace};

#[test]
fn gateway_to_cluster_to_datastore() {
    let ds = Arc::new(Datastore::new());
    let gateway = Gateway::new(Arc::clone(&ds));
    // Register one function per zoo model through the Gateway.
    let registry = ModelRegistry::table1();
    for id in registry.ids() {
        let name = registry.spec(id).name;
        let rt = gateway
            .register(FunctionSpec::gpu_inference(format!("fn-{name}"), name, 32))
            .unwrap();
        assert_eq!(rt, Runtime::GpuRedirect);
    }
    assert_eq!(gateway.list().len(), 22);
    assert_eq!(ds.range("/functions/").len(), 22);

    // Run a workload with datastore mirroring on.
    let mut cluster = Cluster::new(ClusterConfig::paper_testbed(Policy::lalbo3()), registry);
    cluster.set_recorder(Box::new(DatastoreMirror::new(Arc::clone(&ds))));
    let trace = AzureTraceConfig::paper(15, 3).generate();
    let m = cluster.run(&trace);

    assert_eq!(m.completed as usize, trace.len());
    // Every GPU reported a final status, every request a latency.
    for g in 0..12 {
        let kv = ds.get(format!("/gpu/{g}/status")).expect("status key");
        assert_eq!(kv.value, b"idle", "all GPUs idle after drain");
    }
    assert_eq!(ds.range("/latency/").len(), trace.len());
    // The mean of mirrored latencies equals the reported average.
    let sum: f64 = ds
        .range("/latency/")
        .iter()
        .map(|kv| String::from_utf8_lossy(&kv.value).parse::<f64>().unwrap())
        .sum();
    let mean = sum / trace.len() as f64;
    assert!((mean - m.avg_latency_secs).abs() < 1e-3);
}

#[test]
fn csv_trace_round_trips_through_the_cluster() {
    let trace = AzureTraceConfig::paper(25, 9).generate();
    let mut buf = Vec::new();
    trace.write_csv(&mut buf).unwrap();
    let parsed = Trace::read_csv(std::io::BufReader::new(&buf[..])).unwrap();
    assert_eq!(parsed.len(), trace.len());

    let run = |t: &Trace| {
        Cluster::new(
            ClusterConfig::paper_testbed(Policy::lalb()),
            ModelRegistry::table1(),
        )
        .run(t)
    };
    let a = run(&trace);
    let b = run(&parsed);
    // CSV timestamps are µs-exact, so the runs are identical.
    assert_eq!(a, b);
}

#[test]
fn watch_observes_gpu_status_transitions() {
    let ds = Arc::new(Datastore::new());
    let watcher = ds.watch("/gpu/");
    let cfg = ClusterConfig::paper_testbed(Policy::lalb());
    let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
    cluster.set_recorder(Box::new(DatastoreMirror::new(Arc::clone(&ds))));
    cluster.run(&AzureTraceConfig::paper(15, 5).generate());
    let events = watcher.drain();
    assert!(!events.is_empty());
    // Status events alternate busy/idle per GPU; ensure both appear.
    let busy = events.iter().any(|e| e.value == b"busy");
    let idle = events.iter().any(|e| e.value == b"idle");
    assert!(busy && idle);
    // Revisions are monotone in delivery order.
    for pair in events.windows(2) {
        assert!(pair[0].revision < pair[1].revision);
    }
}

#[test]
fn all_policies_complete_every_request() {
    let trace = AzureTraceConfig::paper(35, 13).generate();
    for policy in [Policy::lb(), Policy::lalb(), Policy::lalbo3()] {
        let m = Cluster::new(
            ClusterConfig::paper_testbed(policy),
            ModelRegistry::table1(),
        )
        .run(&trace);
        assert_eq!(m.completed as usize, trace.len(), "{}", policy.name());
        assert!(m.makespan_secs >= 360.0 - 60.0, "{}", policy.name());
        assert!(m.sm_utilization > 0.0 && m.sm_utilization <= 1.0);
    }
}

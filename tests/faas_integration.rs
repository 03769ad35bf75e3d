//! Cross-component FaaS substrate integration: Gateway + Watchdog +
//! Datastore + container scaling working together, as in the paper's
//! Fig 1 baseline platform.

use std::sync::Arc;

use gfaas_faas::container::{ContainerPool, ScalingPolicy};
use gfaas_faas::datastore::{Compare, Op};
use gfaas_faas::gateway::CpuRunner;
use gfaas_faas::watchdog::Watchdog;
use gfaas_faas::{Datastore, FunctionSpec, Gateway, Invocation};
use gfaas_sim::time::{SimDuration, SimTime};

struct Upper;
impl CpuRunner for Upper {
    fn run(&mut self, inv: &Invocation) -> Vec<u8> {
        String::from_utf8_lossy(&inv.payload)
            .to_uppercase()
            .into_bytes()
    }
}

#[test]
fn cpu_function_lifecycle_with_metrics() {
    let ds = Arc::new(Datastore::new());
    let gateway = Gateway::new(Arc::clone(&ds));
    let watchdog = Watchdog::new(Arc::clone(&ds));
    gateway
        .register(FunctionSpec::cpu("shout", "alpine"))
        .unwrap();

    // Invoke through the gateway; then report via the watchdog, as the
    // container would.
    let inv = gateway
        .make_invocation("shout", b"hello".to_vec(), SimTime::from_secs(1))
        .unwrap();
    let result = watchdog.execute(
        &inv,
        &mut Upper,
        SimTime::from_secs(1),
        SimTime::from_secs(1) + SimDuration::from_millis(120),
    );
    assert_eq!(result.output, b"HELLO");
    assert!((result.latency.as_secs_f64() - 0.12).abs() < 1e-9);
    // Metrics landed in the datastore under both key families.
    assert_eq!(ds.range("/metrics/invocations/shout/").len(), 1);
    assert!(ds.get("/metrics/functions/shout").is_some());
    assert_eq!(watchdog.stats("shout").count, 1);
}

#[test]
fn scaling_driven_by_observed_rate() {
    // The datastore's metrics feed a scaling loop: reconcile replicas to
    // the invocation rate like the paper's "request scaling" arrow.
    let mut pool = ContainerPool::new(SimDuration::from_secs(2));
    let policy = ScalingPolicy {
        min_replicas: 1,
        max_replicas: 8,
        target_per_replica: 60,
    };
    // Minute 1: 325 invocations → 6 replicas.
    assert_eq!(pool.reconcile("infer", 325, policy, SimTime::ZERO), 5 + 1);
    assert_eq!(pool.replicas("infer"), 6);
    // Containers become ready after cold start.
    assert_eq!(pool.running("infer"), 0);
    pool.tick(SimTime::from_secs(2));
    assert_eq!(pool.running("infer"), 6);
    // Demand collapses → scale back to the floor.
    pool.reconcile("infer", 10, policy, SimTime::from_secs(60));
    assert_eq!(pool.replicas("infer"), 1);
}

#[test]
fn cas_transaction_serialises_competing_schedulers() {
    // Two schedulers racing to claim a GPU through etcd-style CAS: only
    // one wins, the other observes the claim.
    let ds = Datastore::new();
    ds.put("/gpu/3/claim", "free");
    let claim = |who: &str| {
        ds.txn(
            &[Compare::ValueEquals(
                "/gpu/3/claim".into(),
                b"free".to_vec(),
            )],
            &[Op::Put("/gpu/3/claim".into(), who.into())],
            &[],
        )
        .succeeded
    };
    assert!(claim("sched-a"));
    assert!(!claim("sched-b"));
    assert_eq!(ds.get("/gpu/3/claim").unwrap().value, b"sched-a");
}

#[test]
fn lease_expiry_clears_stale_gpu_status() {
    // A GPU Manager heartbeats its status under a lease; if it dies the
    // status disappears instead of attracting dispatches forever.
    let ds = Datastore::new();
    let lease = ds.lease_grant(SimTime::ZERO, SimDuration::from_secs(5));
    ds.put_with_lease("/gpu/7/status", "idle", lease);
    // Heartbeats keep it alive...
    for s in [2u64, 4, 6] {
        assert!(ds.lease_keepalive(lease, SimTime::from_secs(s)));
        assert!(ds.expire_leases(SimTime::from_secs(s)).is_empty());
    }
    // ...until the manager crashes and stops refreshing.
    let dead = ds.expire_leases(SimTime::from_secs(11));
    assert_eq!(dead, vec!["/gpu/7/status".to_string()]);
    assert!(ds.get("/gpu/7/status").is_none());
}

#[test]
fn gateway_crud_is_visible_in_datastore_watches() {
    let ds = Arc::new(Datastore::new());
    let watcher = ds.watch("/functions/");
    let gateway = Gateway::new(Arc::clone(&ds));
    gateway
        .register(FunctionSpec::gpu_inference("cls", "resnet18", 32))
        .unwrap();
    gateway.deregister("cls").unwrap();
    let events = watcher.drain();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].key, "/functions/cls");
    assert!(matches!(
        events[1].kind,
        gfaas_faas::datastore::WatchEventKind::Delete
    ));
}

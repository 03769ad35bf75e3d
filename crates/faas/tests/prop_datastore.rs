//! Property tests for the etcd-like datastore: revision monotonicity,
//! range consistency, and watch completeness under arbitrary op streams.

use gfaas_faas::datastore::WatchEventKind;
use gfaas_faas::Datastore;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum DsOp {
    Put(u8, u8),
    Delete(u8),
    Get(u8),
}

fn arb_op() -> impl Strategy<Value = DsOp> {
    prop_oneof![
        (0u8..20, any::<u8>()).prop_map(|(k, v)| DsOp::Put(k, v)),
        (0u8..20).prop_map(DsOp::Delete),
        (0u8..20).prop_map(DsOp::Get),
    ]
}

fn key(k: u8) -> String {
    format!("/k/{k:02}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store always agrees with a shadow BTreeMap, and the revision
    /// strictly increases across effective mutations.
    #[test]
    fn store_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let ds = Datastore::new();
        let mut shadow: BTreeMap<String, u8> = BTreeMap::new();
        let mut last_rev = ds.revision();
        for op in ops {
            match op {
                DsOp::Put(k, v) => {
                    let rev = ds.put(key(k), vec![v]);
                    prop_assert!(rev > last_rev);
                    last_rev = rev;
                    shadow.insert(key(k), v);
                }
                DsOp::Delete(k) => {
                    let existed = shadow.remove(&key(k)).is_some();
                    let rev = ds.delete(key(k));
                    prop_assert_eq!(rev.is_some(), existed);
                    if let Some(r) = rev {
                        prop_assert!(r > last_rev);
                        last_rev = r;
                    }
                }
                DsOp::Get(k) => {
                    let got = ds.get(key(k)).map(|kv| kv.value[0]);
                    prop_assert_eq!(got, shadow.get(&key(k)).copied());
                }
            }
            prop_assert_eq!(ds.len(), shadow.len());
        }
        // Range over the whole prefix equals the shadow, in order.
        let range: Vec<(String, u8)> = ds
            .range("/k/")
            .into_iter()
            .map(|kv| (kv.key.clone(), kv.value[0]))
            .collect();
        let expect: Vec<(String, u8)> = shadow.into_iter().collect();
        prop_assert_eq!(range, expect);
    }

    /// A watcher sees exactly the mutations under its prefix, in revision
    /// order, with the right kinds.
    #[test]
    fn watcher_sees_every_matching_mutation(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let ds = Datastore::new();
        let watcher = ds.watch("/k/0"); // keys 00..09
        let mut expected = Vec::new();
        for op in ops {
            match op {
                DsOp::Put(k, v) => {
                    ds.put(key(k), vec![v]);
                    if key(k).starts_with("/k/0") {
                        expected.push((WatchEventKind::Put, key(k), Some(v)));
                    }
                }
                DsOp::Delete(k) => {
                    if ds.delete(key(k)).is_some() && key(k).starts_with("/k/0") {
                        expected.push((WatchEventKind::Delete, key(k), None));
                    }
                }
                DsOp::Get(_) => {}
            }
        }
        let events = watcher.drain();
        prop_assert_eq!(events.len(), expected.len());
        let mut last_rev = None;
        for (ev, (kind, k, v)) in events.iter().zip(&expected) {
            prop_assert_eq!(ev.kind, *kind);
            prop_assert_eq!(&ev.key, k);
            if let Some(v) = v {
                prop_assert_eq!(&ev.value, &vec![*v]);
            }
            if let Some(lr) = last_rev {
                prop_assert!(ev.revision > lr);
            }
            last_rev = Some(ev.revision);
        }
    }
}

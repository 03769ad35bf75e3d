//! The store itself: revisions, ranges, transactions, watches, leases.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

use gfaas_sim::time::{SimDuration, SimTime};

use super::lease::{Lease, LeaseId};
use super::txn::{Compare, Op, TxnResult};
use super::watch::{WatchEvent, WatchEventKind, WatchSink, Watcher};

/// A monotone store revision; every mutation bumps it by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Revision(pub u64);

/// A stored key with its metadata (etcd's `KeyValue`).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyValue {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Vec<u8>,
    /// Revision at which the key was created.
    pub create_revision: Revision,
    /// Revision of the last modification.
    pub mod_revision: Revision,
    /// Number of modifications since creation (1 = freshly created).
    pub version: u64,
    /// Attached lease, if any.
    pub lease: Option<LeaseId>,
}

#[derive(Debug, Default)]
struct Inner {
    revision: u64,
    map: BTreeMap<String, KeyValue>,
    watchers: Vec<WatchSink>,
    // Keyed by a `BTreeMap` so `expire_leases` visits due leases in id
    // order: the expiry-delete sequence (and hence revision numbers and
    // watch-event order) must not depend on hash iteration order.
    leases: BTreeMap<LeaseId, Lease>,
    next_lease: u64,
}

impl Inner {
    fn bump(&mut self) -> Revision {
        self.revision += 1;
        Revision(self.revision)
    }

    fn notify(&mut self, event: WatchEvent) {
        self.watchers.retain(|w| w.offer(&event));
    }

    fn put(&mut self, key: &str, value: Vec<u8>, lease: Option<LeaseId>) -> Revision {
        let rev = self.bump();
        let kv = match self.map.get_mut(key) {
            Some(existing) => {
                existing.value = value.clone();
                existing.mod_revision = rev;
                existing.version += 1;
                existing.lease = lease.or(existing.lease);
                existing.clone()
            }
            None => {
                let kv = KeyValue {
                    key: key.to_string(),
                    value: value.clone(),
                    create_revision: rev,
                    mod_revision: rev,
                    version: 1,
                    lease,
                };
                self.map.insert(key.to_string(), kv.clone());
                kv
            }
        };
        self.notify(WatchEvent {
            kind: WatchEventKind::Put,
            key: kv.key,
            value,
            revision: rev,
        });
        rev
    }

    fn delete(&mut self, key: &str) -> Option<Revision> {
        self.map.remove(key)?;
        let rev = self.bump();
        self.notify(WatchEvent {
            kind: WatchEventKind::Delete,
            key: key.to_string(),
            value: Vec::new(),
            revision: rev,
        });
        Some(rev)
    }

    fn check(&self, cmp: &Compare) -> bool {
        match cmp {
            Compare::Exists(k) => self.map.contains_key(k),
            Compare::NotExists(k) => !self.map.contains_key(k),
            Compare::ValueEquals(k, v) => self.map.get(k).is_some_and(|kv| kv.value == *v),
            Compare::ModRevisionEquals(k, r) => {
                self.map.get(k).is_some_and(|kv| kv.mod_revision == *r)
            }
        }
    }
}

/// The etcd-like store. Cheap to share: clone an `&Datastore` into each
/// component; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Datastore {
    inner: Mutex<Inner>,
}

impl Datastore {
    /// An empty store at revision 0.
    pub fn new() -> Self {
        Datastore::default()
    }

    /// Locks the store. No store operation panics partway through an
    /// update, so even a poisoned lock guards consistent state.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current revision.
    pub fn revision(&self) -> Revision {
        Revision(self.lock().revision)
    }

    /// Writes a key, returning the new revision.
    pub fn put(&self, key: impl AsRef<str>, value: impl Into<Vec<u8>>) -> Revision {
        self.lock().put(key.as_ref(), value.into(), None)
    }

    /// Writes a key attached to a lease.
    pub fn put_with_lease(
        &self,
        key: impl AsRef<str>,
        value: impl Into<Vec<u8>>,
        lease: LeaseId,
    ) -> Revision {
        self.lock().put(key.as_ref(), value.into(), Some(lease))
    }

    /// Reads a key.
    pub fn get(&self, key: impl AsRef<str>) -> Option<KeyValue> {
        self.lock().map.get(key.as_ref()).cloned()
    }

    /// Reads all keys with the given prefix, in key order.
    pub fn range(&self, prefix: impl AsRef<str>) -> Vec<KeyValue> {
        let prefix = prefix.as_ref();
        let inner = self.lock();
        inner
            .map
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Deletes a key; returns the revision if it existed.
    pub fn delete(&self, key: impl AsRef<str>) -> Option<Revision> {
        self.lock().delete(key.as_ref())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True iff the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically: if all `compares` hold, apply `then_ops`, else
    /// `else_ops` (etcd's transaction).
    pub fn txn(&self, compares: &[Compare], then_ops: &[Op], else_ops: &[Op]) -> TxnResult {
        let mut inner = self.lock();
        let succeeded = compares.iter().all(|c| inner.check(c));
        let ops = if succeeded { then_ops } else { else_ops };
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    inner.put(k, v.clone(), None);
                }
                Op::Delete(k) => {
                    inner.delete(k);
                }
            }
        }
        TxnResult {
            succeeded,
            revision: Revision(inner.revision),
        }
    }

    /// Subscribes to changes under a prefix. Events from mutations after
    /// this call are delivered in revision order.
    pub fn watch(&self, prefix: impl Into<String>) -> Watcher {
        let prefix = prefix.into();
        let (tx, rx) = mpsc::channel();
        self.lock().watchers.push(WatchSink {
            prefix: prefix.clone(),
            tx,
        });
        Watcher { prefix, rx }
    }

    /// Grants a lease with the given TTL starting at `now`.
    pub fn lease_grant(&self, now: SimTime, ttl: SimDuration) -> LeaseId {
        let mut inner = self.lock();
        let id = LeaseId(inner.next_lease);
        inner.next_lease += 1;
        inner.leases.insert(id, Lease::new(now, ttl));
        id
    }

    /// Refreshes a lease; returns false if it no longer exists.
    pub fn lease_keepalive(&self, id: LeaseId, now: SimTime) -> bool {
        let mut inner = self.lock();
        match inner.leases.get_mut(&id) {
            Some(l) => {
                l.keepalive(now);
                true
            }
            None => false,
        }
    }

    /// Expires due leases at `now`, deleting their keys (with delete events).
    /// Returns the deleted keys.
    pub fn expire_leases(&self, now: SimTime) -> Vec<String> {
        let mut inner = self.lock();
        let dead: Vec<LeaseId> = inner
            .leases
            .iter()
            .filter(|(_, l)| l.expired(now))
            .map(|(&id, _)| id)
            .collect();
        let mut deleted = Vec::new();
        for id in dead {
            inner.leases.remove(&id);
            let keys: Vec<String> = inner
                .map
                .iter()
                .filter(|(_, kv)| kv.lease == Some(id))
                .map(|(k, _)| k.clone())
                .collect();
            for k in keys {
                inner.delete(&k);
                deleted.push(k);
            }
        }
        deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    #[test]
    fn revisions_strictly_increase() {
        let ds = Datastore::new();
        let r1 = ds.put("a", b("1"));
        let r2 = ds.put("b", b("2"));
        let r3 = ds.put("a", b("3"));
        let r4 = ds.delete("b").unwrap();
        assert!(r1 < r2 && r2 < r3 && r3 < r4);
        assert_eq!(ds.revision(), r4);
    }

    #[test]
    fn key_metadata_tracks_versions() {
        let ds = Datastore::new();
        let r1 = ds.put("k", b("v1"));
        let kv = ds.get("k").unwrap();
        assert_eq!(kv.create_revision, r1);
        assert_eq!(kv.mod_revision, r1);
        assert_eq!(kv.version, 1);
        let r2 = ds.put("k", b("v2"));
        let kv = ds.get("k").unwrap();
        assert_eq!(kv.create_revision, r1);
        assert_eq!(kv.mod_revision, r2);
        assert_eq!(kv.version, 2);
        assert_eq!(kv.value, b("v2"));
    }

    #[test]
    fn delete_then_recreate_resets_metadata() {
        let ds = Datastore::new();
        ds.put("k", b("v1"));
        ds.delete("k");
        assert!(ds.get("k").is_none());
        let r = ds.put("k", b("v2"));
        let kv = ds.get("k").unwrap();
        assert_eq!(kv.create_revision, r);
        assert_eq!(kv.version, 1);
    }

    #[test]
    fn range_respects_prefix_and_order() {
        let ds = Datastore::new();
        ds.put("gpu/2/status", b("idle"));
        ds.put("gpu/1/status", b("busy"));
        ds.put("fn/alpha", b("x"));
        ds.put("gpu/10/status", b("idle"));
        let got: Vec<String> = ds.range("gpu/").into_iter().map(|kv| kv.key).collect();
        assert_eq!(got, vec!["gpu/1/status", "gpu/10/status", "gpu/2/status"]);
        assert!(ds.range("nope/").is_empty());
    }

    #[test]
    fn txn_cas_succeeds_and_fails_atomically() {
        let ds = Datastore::new();
        ds.put("lock", b("free"));
        let r = ds.txn(
            &[Compare::ValueEquals("lock".into(), b("free"))],
            &[
                Op::Put("lock".into(), b("held")),
                Op::Put("owner".into(), b("me")),
            ],
            &[],
        );
        assert!(r.succeeded);
        assert_eq!(ds.get("lock").unwrap().value, b("held"));
        assert_eq!(ds.get("owner").unwrap().value, b("me"));
        // Second CAS on the stale expectation takes the else branch.
        let r2 = ds.txn(
            &[Compare::ValueEquals("lock".into(), b("free"))],
            &[Op::Put("owner".into(), b("thief"))],
            &[Op::Put("contention".into(), b("1"))],
        );
        assert!(!r2.succeeded);
        assert_eq!(ds.get("owner").unwrap().value, b("me"));
        assert!(ds.get("contention").is_some());
    }

    #[test]
    fn txn_mod_revision_guard() {
        let ds = Datastore::new();
        let r1 = ds.put("k", b("a"));
        ds.put("k", b("b"));
        let r = ds.txn(
            &[Compare::ModRevisionEquals("k".into(), r1)],
            &[Op::Put("k".into(), b("stale-write"))],
            &[],
        );
        assert!(!r.succeeded);
        assert_eq!(ds.get("k").unwrap().value, b("b"));
    }

    #[test]
    fn txn_exists_guards() {
        let ds = Datastore::new();
        let r = ds.txn(
            &[Compare::NotExists("new".into())],
            &[Op::Put("new".into(), b("1"))],
            &[],
        );
        assert!(r.succeeded);
        let r2 = ds.txn(
            &[
                Compare::Exists("new".into()),
                Compare::NotExists("new".into()),
            ],
            &[Op::Delete("new".into())],
            &[],
        );
        assert!(!r2.succeeded, "contradictory compares cannot all hold");
        assert!(ds.get("new").is_some());
    }

    #[test]
    fn watch_delivers_matching_events_in_order() {
        let ds = Datastore::new();
        let w = ds.watch("gpu/");
        ds.put("gpu/0", b("idle"));
        ds.put("fn/x", b("ignored"));
        ds.put("gpu/0", b("busy"));
        ds.delete("gpu/0");
        let events = w.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, WatchEventKind::Put);
        assert_eq!(events[0].value, b("idle"));
        assert_eq!(events[1].value, b("busy"));
        assert_eq!(events[2].kind, WatchEventKind::Delete);
        assert!(events[0].revision < events[1].revision);
        assert!(events[1].revision < events[2].revision);
    }

    #[test]
    fn watch_does_not_see_prior_state() {
        let ds = Datastore::new();
        ds.put("gpu/0", b("pre-existing"));
        let w = ds.watch("gpu/");
        assert!(w.try_next().is_none());
    }

    #[test]
    fn dropped_watcher_is_pruned() {
        let ds = Datastore::new();
        let w = ds.watch("a/");
        drop(w);
        ds.put("a/k", b("v")); // must not panic or leak
        ds.put("a/k", b("v2"));
        assert_eq!(ds.get("a/k").unwrap().value, b("v2"));
    }

    #[test]
    fn lease_expiry_deletes_keys_with_events() {
        let ds = Datastore::new();
        let w = ds.watch("status/");
        let t0 = SimTime::ZERO;
        let lease = ds.lease_grant(t0, SimDuration::from_secs(10));
        ds.put_with_lease("status/gpu0", b("idle"), lease);
        ds.put("status/gpu1", b("idle")); // no lease
        assert!(ds.expire_leases(SimTime::from_secs(5)).is_empty());
        let deleted = ds.expire_leases(SimTime::from_secs(10));
        assert_eq!(deleted, vec!["status/gpu0".to_string()]);
        assert!(ds.get("status/gpu0").is_none());
        assert!(ds.get("status/gpu1").is_some());
        let events = w.drain();
        assert_eq!(events.last().unwrap().kind, WatchEventKind::Delete);
    }

    #[test]
    fn keepalive_extends_lease() {
        let ds = Datastore::new();
        let lease = ds.lease_grant(SimTime::ZERO, SimDuration::from_secs(10));
        ds.put_with_lease("k", b("v"), lease);
        assert!(ds.lease_keepalive(lease, SimTime::from_secs(8)));
        assert!(ds.expire_leases(SimTime::from_secs(12)).is_empty());
        let dead = ds.expire_leases(SimTime::from_secs(18));
        assert_eq!(dead.len(), 1);
        assert!(!ds.lease_keepalive(lease, SimTime::from_secs(19)));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let ds = Arc::new(Datastore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let ds = Arc::clone(&ds);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    ds.put(format!("t{t}/k{i}"), vec![t as u8]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ds.len(), 800);
        assert_eq!(ds.revision(), Revision(800));
    }
}

//! Datastore mirroring: the cluster's lifecycle events, published as the
//! etcd keys the paper's components coordinate through (Fig 2).
//!
//! [`DatastoreMirror`] is a [`Recorder`]: attach it to a cluster with
//! `Cluster::set_recorder` and it writes, as the run unfolds,
//!
//! * `/gpu/<g>/status` — `busy`, `idle`, or `offline`;
//! * `/gpu/<g>/lru` — the GPU's resident models, coldest first;
//! * `/latency/<id>` — each completed request's latency in seconds.

use std::collections::BTreeMap;
use std::sync::Arc;

use gfaas_gpu::{GpuId, ModelId};
use gfaas_obs::{ObsEvent, Recorder};
use gfaas_sim::time::SimTime;

use crate::datastore::Datastore;

/// Status key the GPU Manager publishes (paper: the Scheduler reads GPU
/// busy/idle status from etcd).
fn status_key(gpu: GpuId) -> String {
    format!("/gpu/{}/status", gpu.0)
}

/// Datastore key for a GPU's LRU list.
fn lru_key(gpu: GpuId) -> String {
    format!("/gpu/{}/lru", gpu.0)
}

/// Mirrors GPU status, per-GPU LRU lists and request latencies into a
/// [`Datastore`].
///
/// The `lru` key is written when a load starts and when a GPU goes
/// offline. It lists the GPU's resident models in recency order — loads
/// and cache hits make a model hottest — which is the LRU evictor's own
/// order. Under any other evictor it is still recency order, not that
/// evictor's internal ranking.
///
/// The mirror keeps its recency lists from the events it has seen, so
/// attach it before the run starts. Rolling the cluster back does not
/// rewind it, and a warm-started cluster's residents appear only once
/// they are used again.
#[derive(Debug)]
pub struct DatastoreMirror {
    ds: Arc<Datastore>,
    /// Per-GPU resident models, coldest first.
    recency: BTreeMap<GpuId, Vec<ModelId>>,
}

impl DatastoreMirror {
    /// A mirror writing into `ds`.
    pub fn new(ds: Arc<Datastore>) -> Self {
        DatastoreMirror {
            ds,
            recency: BTreeMap::new(),
        }
    }

    fn resident(&mut self, gpu: GpuId) -> &mut Vec<ModelId> {
        self.recency.entry(gpu).or_default()
    }

    /// Makes `model` the hottest resident of `gpu`.
    fn touch(&mut self, gpu: GpuId, model: ModelId) {
        let list = self.resident(gpu);
        list.retain(|&m| m != model);
        list.push(model);
    }

    fn drop_resident(&mut self, gpu: GpuId, model: ModelId) {
        self.resident(gpu).retain(|&m| m != model);
    }

    fn put_status(&self, gpu: GpuId, status: &str) {
        self.ds.put(status_key(gpu), status);
    }

    fn put_lru(&mut self, gpu: GpuId) {
        let list = self
            .resident(gpu)
            .iter()
            .map(|m| m.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.ds.put(lru_key(gpu), list);
    }
}

impl Recorder for DatastoreMirror {
    fn record(&mut self, _t: SimTime, ev: &ObsEvent<'_>) {
        match *ev {
            ObsEvent::HoldStart { gpu, .. } => self.put_status(gpu, "busy"),
            ObsEvent::Dispatch {
                gpu, model, hit, ..
            } => {
                if hit {
                    self.touch(gpu, model);
                }
                self.put_status(gpu, "busy");
            }
            ObsEvent::LoadStart { gpu, model, .. } => {
                self.touch(gpu, model);
                self.put_lru(gpu);
            }
            ObsEvent::Eviction { gpu, model } => self.drop_resident(gpu, model),
            ObsEvent::Crash { gpu, model, .. } => {
                self.drop_resident(gpu, model);
                self.put_status(gpu, "idle");
            }
            ObsEvent::InvocationDone { gpu, .. } | ObsEvent::ScaleUp { gpu } => {
                self.put_status(gpu, "idle");
            }
            ObsEvent::Offline { gpu } => {
                self.put_status(gpu, "offline");
                self.put_lru(gpu);
            }
            ObsEvent::Completion { req, latency, .. } => {
                self.ds.put(
                    format!("/latency/{req}"),
                    format!("{:.6}", latency.as_secs_f64()),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_sim::time::SimDuration;

    fn value(ds: &Datastore, key: &str) -> String {
        String::from_utf8(ds.get(key).expect(key).value).unwrap()
    }

    #[test]
    fn datastore_keys_are_stable() {
        assert_eq!(status_key(GpuId(7)), "/gpu/7/status");
        assert_eq!(lru_key(GpuId(0)), "/gpu/0/lru");
    }

    #[test]
    fn datastore_mirroring_writes_keys() {
        let ds = Arc::new(Datastore::new());
        let mut mirror = DatastoreMirror::new(Arc::clone(&ds));
        let (g0, g1) = (GpuId(0), GpuId(1));
        let (m0, m1, m2) = (ModelId(0), ModelId(1), ModelId(2));
        let t = SimTime::ZERO;
        let mut feed = |ev: ObsEvent<'_>| mirror.record(t, &ev);
        let miss = |gpu, lead, model| ObsEvent::Dispatch {
            gpu,
            lead,
            model,
            hit: false,
            false_miss: false,
            coalesced: 1,
        };
        let load = |gpu, model, batch| ObsEvent::LoadStart {
            gpu,
            model,
            batch,
            tier: gfaas_gpu::Tier::ORIGIN,
        };
        let done = |gpu, batch| ObsEvent::InvocationDone {
            gpu,
            batch,
            requests: 1,
        };

        // Two loads on GPU 0: m0 then m1, so m1 is hottest.
        feed(miss(g0, 0, m0));
        assert_eq!(value(&ds, "/gpu/0/status"), "busy");
        feed(load(g0, m0, 0));
        assert_eq!(value(&ds, "/gpu/0/lru"), "0");
        feed(done(g0, 0));
        assert_eq!(value(&ds, "/gpu/0/status"), "idle");
        feed(miss(g0, 1, m1));
        feed(load(g0, m1, 1));
        assert_eq!(value(&ds, "/gpu/0/lru"), "0,1");
        feed(done(g0, 1));

        // A hit on m0 makes it hottest; the list is rewritten at the
        // next load, after the eviction that load needed.
        feed(ObsEvent::Dispatch {
            gpu: g0,
            lead: 2,
            model: m0,
            hit: true,
            false_miss: false,
            coalesced: 1,
        });
        assert_eq!(value(&ds, "/gpu/0/status"), "busy");
        feed(done(g0, 2));
        feed(miss(g0, 3, m2));
        feed(ObsEvent::Eviction { gpu: g0, model: m1 });
        feed(load(g0, m2, 3));
        assert_eq!(value(&ds, "/gpu/0/lru"), "0,2");

        // A crash drops the crashed model and frees the GPU.
        feed(ObsEvent::Crash {
            gpu: g0,
            model: m2,
            requeued: 1,
        });
        assert_eq!(value(&ds, "/gpu/0/status"), "idle");

        // The retried request completes on GPU 1.
        feed(miss(g1, 3, m2));
        feed(load(g1, m2, 4));
        feed(ObsEvent::Completion {
            req: 3,
            gpu: g1,
            batch: 4,
            model: m2,
            latency: SimDuration::from_millis(2500),
        });
        feed(done(g1, 4));
        assert_eq!(value(&ds, "/latency/3"), "2.500000");
        assert_eq!(value(&ds, "/gpu/1/status"), "idle");

        // Draining GPU 0 evicts its last resident, then it goes offline
        // with an empty list.
        feed(ObsEvent::DrainStart { gpu: g0 });
        feed(ObsEvent::Eviction { gpu: g0, model: m0 });
        feed(ObsEvent::Offline { gpu: g0 });
        assert_eq!(value(&ds, "/gpu/0/status"), "offline");
        assert_eq!(value(&ds, "/gpu/0/lru"), "");
        assert_eq!(value(&ds, "/gpu/1/lru"), "2");

        // Scaling GPU 0 back up reports it idle.
        feed(ObsEvent::ScaleUp { gpu: g0 });
        assert_eq!(value(&ds, "/gpu/0/status"), "idle");
        let keys: Vec<String> = ds.range("/").into_iter().map(|kv| kv.key).collect();
        assert_eq!(
            keys,
            [
                "/gpu/0/lru",
                "/gpu/0/status",
                "/gpu/1/lru",
                "/gpu/1/status",
                "/latency/3"
            ]
        );
    }
}

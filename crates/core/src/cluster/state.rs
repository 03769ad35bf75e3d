//! The cluster's journaled state and its two persistence paths: the
//! snapshot journal ([`Cluster::snapshot`] / [`Cluster::rollback`], also
//! the lookahead forks) and the on-disk checkpoint
//! ([`Cluster::checkpoint`] / [`Cluster::restore`]). Both go through one
//! declaration, [`SimState`], whose codec destructures it without `..`
//! and rebuilds it as a struct literal — a field added but not encoded is
//! a compile error, not a silent rollback bug.

use std::collections::BTreeSet;

use gfaas_gpu::{GpuId, ModelId, Tier};
use gfaas_obs::SelfProfile;
use gfaas_sim::event::EventQueue;
use gfaas_sim::rng::DetRng;
use gfaas_sim::time::SimTime;
use gfaas_snap::{fnv1a, Dec, Enc, Fnv1a, JournalStats, SnapError, SnapId};
use gfaas_trace::Trace;

use super::queue::{GlobalQueue, QueueMark};
use super::{fleet_counts, Cluster, Event, LocalAgg};
use crate::gpu_manager::{GpuUnit, HoldSlot, InFlight, Phase, UnitState};
use crate::metrics::{MetricsCollector, MetricsImage};
use crate::request::Request;
#[cfg(feature = "simcheck")]
use crate::simcheck::SimChecker;

/// Every journaled plain-data field of the cluster, declared once:
/// snapshots clone it (all but the global queue, which is journaled by
/// its own undo log), rollbacks assign it, checkpoints encode it with
/// [`SimState::save`] and restores decode a fresh one with
/// [`SimState::load`].
#[derive(Clone)]
pub(super) struct SimState {
    pub(super) units: Vec<GpuUnit>,
    pub(super) global_queue: GlobalQueue,
    pub(super) now: SimTime,
    pub(super) last_completion: SimTime,
    pub(super) hot_model: Option<ModelId>,
    pub(super) local_moves: u64,
    pub(super) crashes: u64,
    pub(super) dispatch_seq: u64,
    pub(super) rng: DetRng,
    /// GPUs brought online / drained offline over the run.
    pub(super) scale_ups: u64,
    pub(super) scale_downs: u64,
    /// Low/high watermarks of the online (dispatchable) fleet size.
    pub(super) online_low: usize,
    pub(super) online_high: usize,
    /// Requests in the running trace; ticks stop once all have completed.
    pub(super) pending_total: u64,
    /// Units with a forming batch parked in their hold slot.
    pub(super) holding_units: usize,
    /// Units in the [`UnitState::Draining`] state.
    pub(super) draining_units: usize,
    /// Integrated GPU busy time (uploads + inference, including crashed
    /// work) — `RunMetrics::gpu_busy_seconds`.
    pub(super) busy_secs: f64,
    /// The pending runtime-event heap. Owned by the cluster (not the
    /// run loop) so a run can pause at a virtual-time bound
    /// ([`Cluster::run_until`]), be checkpointed, and resume; the drive
    /// loop `mem::take`s it while running.
    pub(super) events: EventQueue<Event>,
    /// Cursor into the trace: the next arrival to admit. Rolling back
    /// re-delivers arrivals.
    pub(super) next_arrival: usize,
    /// Whether [`Cluster::begin_run`] already performed its one-time
    /// setup (tick scheduling, RunStart emission, counters).
    pub(super) run_started: bool,
    /// Runtime invariant sanitizer (see [`crate::simcheck`]): observes
    /// arrivals, popped events, and queue-depth updates, asserting
    /// conservation invariants as the run progresses. Absent — not just
    /// inert — without the `simcheck` feature, and it never mutates sim
    /// state, so metrics are byte-identical either way (CI diffs the two
    /// builds on a smoke run).
    #[cfg(feature = "simcheck")]
    pub(super) simcheck: SimChecker,
}

impl SimState {
    /// Encodes every field, in declaration order.
    fn save(&self, enc: &mut Enc) {
        let SimState {
            units,
            global_queue,
            now,
            last_completion,
            hot_model,
            local_moves,
            crashes,
            dispatch_seq,
            rng,
            scale_ups,
            scale_downs,
            online_low,
            online_high,
            pending_total,
            holding_units,
            draining_units,
            busy_secs,
            events,
            next_arrival,
            run_started,
            #[cfg(feature = "simcheck")]
            simcheck,
        } = self;
        units.iter().for_each(|u| save_unit(enc, u));
        save_requests(enc, global_queue.iter());
        enc.put_time(*now);
        enc.put_time(*last_completion);
        save_opt(enc, hot_model, |enc, m| enc.put_u32(m.0));
        enc.put_u64(*local_moves);
        enc.put_u64(*crashes);
        enc.put_u64(*dispatch_seq);
        rng.state().iter().for_each(|&w| enc.put_u64(w));
        enc.put_u64(*scale_ups);
        enc.put_u64(*scale_downs);
        enc.put_usize(*online_low);
        enc.put_usize(*online_high);
        enc.put_u64(*pending_total);
        enc.put_usize(*holding_units);
        enc.put_usize(*draining_units);
        enc.put_f64(*busy_secs);
        save_events(enc, events);
        enc.put_usize(*next_arrival);
        enc.put_bool(*run_started);
        // The sanitizer slot is written unconditionally so the wire
        // layout is identical with and without the `simcheck` feature —
        // a checkpoint taken by either build restores under either.
        #[cfg(feature = "simcheck")]
        simcheck.save_state(enc);
        #[cfg(not(feature = "simcheck"))]
        enc.put_raw(&[0; SIMCHECK_SLOT]);
    }

    /// Decodes a state written by [`SimState::save`] for the fleet `self`
    /// describes: device ids and specs are configuration, so they come
    /// from `self`'s units and only the dynamic state is read. `self` is
    /// not modified.
    fn load(&self, dec: &mut Dec<'_>) -> Result<SimState, SnapError> {
        let mut units = self.units.clone();
        for u in &mut units {
            load_unit(dec, u)?;
        }
        let state = SimState {
            units,
            global_queue: load_requests(dec)?.into(),
            now: dec.time()?,
            last_completion: dec.time()?,
            hot_model: load_opt(dec, |dec| Ok(ModelId(dec.u32()?)))?,
            local_moves: dec.u64()?,
            crashes: dec.u64()?,
            dispatch_seq: dec.u64()?,
            rng: {
                let words = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
                if words == [0u64; 4] {
                    return Err(SnapError::Corrupt("all-zero rng state"));
                }
                DetRng::from_state(words)
            },
            scale_ups: dec.u64()?,
            scale_downs: dec.u64()?,
            online_low: dec.usize()?,
            online_high: dec.usize()?,
            pending_total: dec.u64()?,
            holding_units: dec.usize()?,
            draining_units: dec.usize()?,
            busy_secs: dec.f64()?,
            events: load_events(dec)?,
            next_arrival: dec.usize()?,
            run_started: dec.bool()?,
            #[cfg(feature = "simcheck")]
            simcheck: {
                let mut checker = SimChecker::new();
                checker.load_state(dec)?;
                checker
            },
        };
        #[cfg(not(feature = "simcheck"))]
        dec.take(SIMCHECK_SLOT)?;
        Ok(state)
    }

    /// Checks that a decoded state is one the event loop can run: every
    /// id indexes something that exists, every piece of pending work has
    /// the event that will finish it, and the counters agree with the
    /// units. Runs in release builds too — it is what stands between a
    /// well-formed but wrong checkpoint and a panic or a hang mid-run.
    fn audit(&self, num_models: usize, trace: &Trace) -> Result<(), SnapError> {
        let known = |m: ModelId| (m.0 as usize) < num_models;
        let unit_requests = self.units.iter().flat_map(|u| {
            let in_flight = u.in_flight.iter().flat_map(|f| &f.requests);
            let held = u.holding.iter().flat_map(|h| &h.requests);
            u.local_queue.iter().chain(in_flight).chain(held)
        });
        let models_known = self.hot_model.is_none_or(known)
            && self
                .global_queue
                .iter()
                .chain(unit_requests)
                .all(|r| known(r.model))
            && self
                .units
                .iter()
                .all(|u| u.device.resident_models().all(known));
        if !models_known {
            return Err(SnapError::Corrupt("model id out of range"));
        }
        // Pending completions and hold timers, by (gpu, token).
        let mut done = BTreeSet::new();
        let mut timers = BTreeSet::new();
        for (t, _, ev) in self.events.entries() {
            if t < self.now {
                return Err(SnapError::Corrupt("event pending before the clock"));
            }
            let (g, seq, pending) = match *ev {
                Event::GpuDone(g, seq) => (g, seq, Some(&mut done)),
                Event::BatchHold(g, seq) => (g, seq, Some(&mut timers)),
                Event::GpuCrash(g, seq) => (g, seq, None),
                Event::ScaleTick | Event::ObsTick => continue,
            };
            if g.0 as usize >= self.units.len() {
                return Err(SnapError::Corrupt("event names a gpu out of range"));
            }
            if let Some(pending) = pending {
                pending.insert((g, seq));
            }
        }
        for u in &self.units {
            let (flight, held) = (u.in_flight.as_ref(), u.holding.as_ref());
            if flight.is_some_and(|f| f.requests.is_empty())
                || held.is_some_and(|h| h.requests.is_empty())
            {
                return Err(SnapError::Corrupt("empty batch"));
            }
            if flight.is_some_and(|f| !done.contains(&(u.id(), f.seq))) {
                return Err(SnapError::Corrupt(
                    "in-flight work has no pending completion",
                ));
            }
            if held.is_some_and(|h| !timers.contains(&(u.id(), h.seq))) {
                return Err(SnapError::Corrupt("held batch has no pending timer"));
            }
        }
        if (self.holding_units, self.draining_units) != fleet_counts(&self.units) {
            return Err(SnapError::Corrupt("fleet counters disagree with the units"));
        }
        let arrivals = trace.requests();
        if self.next_arrival > arrivals.len() {
            return Err(SnapError::Corrupt("arrival cursor past trace end"));
        }
        if arrivals
            .get(self.next_arrival)
            .is_some_and(|r| r.at < self.now)
        {
            return Err(SnapError::Corrupt("clock past the next arrival"));
        }
        Ok(())
    }
}

/// Bytes of the sanitizer's checkpoint slot (`SimChecker::save_state`),
/// zero-filled and skipped by builds without the `simcheck` feature.
#[cfg(not(feature = "simcheck"))]
const SIMCHECK_SLOT: usize = 8 + 8 + 8 + 8 + 8 + 8 + 16;

/// Every piece of mutable simulation state, pinned in the snapshot
/// journal. Most of it is copied: the [`SimState`] and `local_aggs`
/// (fleet-sized), the policies' state from [`Cluster::save_policies`],
/// and the self-profile counters. The two members that grow with the run
/// are journaled by marks instead: the global queue by a [`QueueMark`]
/// into its undo log (the copied state holds an empty queue) and the
/// latency samples by the metrics' rewind mark. Capturing an image thus
/// costs O(fleet), whatever the backlog, and applying it also pays for
/// the queue writes made since. `local_aggs` is derived (a restore
/// rebuilds it; a rollback copies it rather than pay the rebuild on
/// every fork) and the self-profile counters are telemetry, so
/// checkpoints do not carry the last three fields.
#[derive(Clone)]
pub(super) struct ClusterImage {
    state: SimState,
    queue: QueueMark,
    metrics: MetricsImage,
    policies: Vec<u8>,
    local_aggs: Vec<LocalAgg>,
    profile: SelfProfile,
    estimator_calls: u64,
}

impl Cluster {
    /// Pins the complete mutable simulation state in the snapshot
    /// journal and returns a handle. The cluster keeps running normally;
    /// [`Cluster::rollback`] restores this instant byte-identically,
    /// [`Cluster::commit`] retires the pin. A pin copies the fleet-sized
    /// state and marks the rest: until the last pin is retired, every
    /// write to the global queue also logs its inverse. Zero-cost when
    /// unused: with no pin live, no run-loop path touches the journal.
    pub fn snapshot(&mut self) -> SnapId {
        let img = self.capture_image();
        self.journal.snapshot(img)
    }

    /// Restores the state pinned by `id`, discarding everything that
    /// happened since — metrics, RNG, queues, residency, pending events,
    /// the arrival cursor, all of it. Costs O(fleet) plus the global-queue
    /// writes made since the pin, not O(backlog). The pin survives, so
    /// the same snapshot can be rolled back to again. Returns false for a
    /// dead or foreign id, including every pin taken before a
    /// [`Cluster::restore`]. An attached recorder is *not* rewound:
    /// rolling back mid-recording leaves already-emitted telemetry in the
    /// sink (the lookahead forks stash the recorder first for exactly
    /// that reason).
    pub fn rollback(&mut self, id: SnapId) -> bool {
        let Some(img) = self.journal.rollback(id) else {
            return false;
        };
        self.apply_image(img);
        true
    }

    /// Retires the pin `id` (and any older pins), keeping the current
    /// timeline. Retiring the last live pin drops the queue's undo log.
    /// Returns false for a dead or foreign id.
    pub fn commit(&mut self, id: SnapId) -> bool {
        let committed = self.journal.commit(id);
        self.release_if_unpinned();
        committed
    }

    /// Journal counters: snapshots taken, rollbacks (including
    /// speculative forks), commits.
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Live (uncommitted, un-rolled-back) pins in the journal.
    pub fn journal_depth(&self) -> usize {
        self.journal.depth()
    }

    /// Captures a [`ClusterImage`]: copies the fleet-sized state and
    /// marks the global queue's undo log, which logs every later write
    /// until the last pin is retired. While the drive loop runs, the
    /// caller parks the event heap back in the state first.
    pub(super) fn capture_image(&mut self) -> ClusterImage {
        let queue = std::mem::take(&mut self.st.global_queue);
        let state = self.st.clone();
        self.st.global_queue = queue;
        ClusterImage {
            state,
            queue: self.st.global_queue.mark(),
            metrics: self.metrics.snapshot_image(),
            policies: self.save_policies(),
            local_aggs: self.local_aggs.clone(),
            profile: self.profile.clone(),
            estimator_calls: self.estimator_calls.get(),
        }
    }

    /// Restores an image captured by [`Cluster::capture_image`],
    /// byte-for-byte: the global queue is rewound through its undo log,
    /// everything else assigned. Policy objects are the same *objects* —
    /// only their mutable state is rewound, through their save/load
    /// hooks. When the image's frame was the journal's last, the undo
    /// log is dropped.
    pub(super) fn apply_image(&mut self, img: ClusterImage) {
        let mut queue = std::mem::take(&mut self.st.global_queue);
        queue.rewind(img.queue);
        self.st = img.state;
        self.st.global_queue = queue;
        self.release_if_unpinned();
        self.metrics.restore_image(&img.metrics);
        self.load_policies(&mut Dec::new(&img.policies))
            .expect("journaled policy state decodes");
        self.local_aggs = img.local_aggs;
        self.profile = img.profile;
        self.estimator_calls.set(img.estimator_calls);
        self.idle.rebuild(&self.st.units);
    }

    /// Drops the global queue's undo log once no pin is live: nothing
    /// can rewind to it any more, and later writes need not log.
    fn release_if_unpinned(&mut self) {
        if self.journal.is_empty() {
            self.st.global_queue.release();
        }
    }

    /// Encodes the state of the five policy hooks — cache (with its
    /// evictor), scheduler, batcher, store, autoscaler. Their one save
    /// site; [`Cluster::load_policies`] is the one load site.
    fn save_policies(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.cache.save_state(&mut enc);
        // The scheduler is taken out during a pass, so a fork captured
        // inside one records its absence.
        enc.put_bool(self.sched.is_some());
        if let Some(s) = &self.sched {
            s.save_state(&mut enc);
        }
        self.batcher.save_state(&mut enc);
        self.store.save_state(&mut enc);
        enc.put_bool(self.autoscaler.is_some());
        if let Some(a) = &self.autoscaler {
            a.save_state(&mut enc);
        }
        enc.into_bytes()
    }

    /// Loads state written by [`Cluster::save_policies`] into the live
    /// policy objects. On error some of them may already hold new state;
    /// [`Cluster::restore`] puts the old state back.
    fn load_policies(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.cache.load_state(dec)?;
        if dec.bool()? != self.sched.is_some() {
            return Err(SnapError::Corrupt("scheduler presence mismatch"));
        }
        if let Some(s) = self.sched.as_mut() {
            s.load_state(dec)?;
        }
        self.batcher.load_state(dec)?;
        self.store.load_state(dec)?;
        if dec.bool()? != self.autoscaler.is_some() {
            return Err(SnapError::Corrupt("autoscaler presence mismatch"));
        }
        if let Some(a) = self.autoscaler.as_mut() {
            a.load_state(dec)?;
        }
        Ok(())
    }

    /// Wraps a checkpoint body in the envelope for this cluster's config
    /// and `trace` — digests of both, and a checksum of the body.
    pub(super) fn seal(&self, trace: &Trace, body: &[u8]) -> Vec<u8> {
        gfaas_snap::seal(self.config_digest(), trace_digest(trace), trace.len(), body)
    }

    /// FNV digest of the full config debug form — the checkpoint
    /// envelope's compatibility fingerprint.
    fn config_digest(&self) -> u64 {
        fnv1a(format!("{:?}", self.config).as_bytes())
    }

    /// Serialises the paused run into a self-describing byte image: the
    /// simulation state, the policies' state and the metrics, sealed in an
    /// envelope carrying digests of the config and the trace and a
    /// checksum of the body, so a [`Cluster::restore`] into a different
    /// world — or of a damaged file — is rejected instead of silently
    /// diverging. Call between [`Cluster::run_until`] and
    /// [`Cluster::resume`]; a warm-started run's metrics are
    /// byte-identical to an uninterrupted one.
    pub fn checkpoint(&self, trace: &Trace) -> Vec<u8> {
        let mut body = Enc::new();
        self.st.save(&mut body);
        body.put_raw(&self.save_policies());
        self.metrics.save_state(&mut body);
        self.seal(trace, &body.into_bytes())
    }

    /// Restores a [`Cluster::checkpoint`] image into this cluster, which
    /// must have been built from the same config and be resuming the
    /// same trace (both enforced by the envelope digests). On success
    /// the cluster is exactly the paused instant; drive it with
    /// [`Cluster::resume`] or [`Cluster::run_until`].
    ///
    /// Fails closed and atomically: the body must match its checksum,
    /// decode completely, and pass a structural audit (ids in range,
    /// every in-flight or held batch with the pending event that ends
    /// it, counters consistent with the units). The state and metrics
    /// are decoded into fresh values and assigned only after every check
    /// passes, and the policies' previous state is put back if a later
    /// step fails — an `Err` leaves the cluster exactly as it was.
    ///
    /// A successful restore retires every live snapshot pin: each one
    /// describes a timeline the restored state never had, so a later
    /// [`Cluster::rollback`] to it returns false.
    pub fn restore(&mut self, bytes: &[u8], trace: &Trace) -> Result<(), SnapError> {
        let mut dec = gfaas_snap::open(
            bytes,
            self.config_digest(),
            trace_digest(trace),
            trace.len(),
        )?;
        let st = self.st.load(&mut dec)?;
        st.audit(self.registry.len(), trace)?;
        let before = self.save_policies();
        let metrics = self
            .load_policies(&mut dec)
            .and_then(|()| MetricsCollector::load_state(&mut dec))
            .and_then(|metrics| dec.finish().map(|()| metrics))
            .inspect_err(|_| {
                self.load_policies(&mut Dec::new(&before))
                    .expect("own policy state decodes");
            })?;
        self.st = st;
        self.metrics = metrics;
        self.journal.clear();
        // Derived state follows the restored units and queues.
        for gi in 0..self.st.units.len() {
            self.agg_rebuild(gi);
        }
        self.idle.rebuild(&self.st.units);
        Ok(())
    }
}

/// FNV digest over the trace's observable arrival stream — the
/// checkpoint envelope's proof that a warm start resumes the same
/// workload it paused.
fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv1a::new();
    for r in trace.requests() {
        h.write_u64(r.at.as_micros());
        h.write_u64(r.function as u64);
        h.write_u64(r.model as u64);
    }
    h.finish()
}

/// A presence flag, then the value if present.
fn save_opt<T>(enc: &mut Enc, v: &Option<T>, save: impl FnOnce(&mut Enc, &T)) {
    enc.put_bool(v.is_some());
    if let Some(v) = v {
        save(enc, v);
    }
}

fn load_opt<T>(
    dec: &mut Dec<'_>,
    load: impl FnOnce(&mut Dec<'_>) -> Result<T, SnapError>,
) -> Result<Option<T>, SnapError> {
    Ok(if dec.bool()? { Some(load(dec)?) } else { None })
}

fn save_request(enc: &mut Enc, r: &Request) {
    enc.put_u64(r.id);
    enc.put_u32(r.function);
    enc.put_u32(r.model.0);
    enc.put_usize(r.batch);
    enc.put_time(r.arrival);
    enc.put_u32(r.visits);
    enc.put_u16(r.tenant);
}

fn load_request(dec: &mut Dec<'_>) -> Result<Request, SnapError> {
    Ok(Request {
        id: dec.u64()?,
        function: dec.u32()?,
        model: ModelId(dec.u32()?),
        batch: dec.usize()?,
        arrival: dec.time()?,
        visits: dec.u32()?,
        tenant: dec.u16()?,
    })
}

/// A length-prefixed run of requests (a queue or a batch).
fn save_requests<'a>(enc: &mut Enc, rs: impl ExactSizeIterator<Item = &'a Request>) {
    enc.put_usize(rs.len());
    for r in rs {
        save_request(enc, r);
    }
}

fn load_requests(dec: &mut Dec<'_>) -> Result<Vec<Request>, SnapError> {
    let n = dec.usize()?;
    let mut requests = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        requests.push(load_request(dec)?);
    }
    Ok(requests)
}

fn save_inflight(enc: &mut Enc, f: &InFlight) {
    save_requests(enc, f.requests.iter());
    enc.put_u8(match f.phase {
        Phase::Loading => 0,
        Phase::Running => 1,
    });
    enc.put_bool(f.was_hit);
    enc.put_time(f.started);
    enc.put_u64(f.seq);
    enc.put_u8(f.tier.0);
}

fn load_inflight(dec: &mut Dec<'_>) -> Result<InFlight, SnapError> {
    Ok(InFlight {
        requests: load_requests(dec)?,
        phase: match dec.u8()? {
            0 => Phase::Loading,
            1 => Phase::Running,
            _ => return Err(SnapError::Corrupt("unknown in-flight phase")),
        },
        was_hit: dec.bool()?,
        started: dec.time()?,
        seq: dec.u64()?,
        tier: Tier(dec.u8()?),
    })
}

fn save_hold(enc: &mut Enc, h: &HoldSlot) {
    save_requests(enc, h.requests.iter());
    enc.put_usize(h.max_requests);
    enc.put_bool(h.hit);
    enc.put_time(h.release_at);
    enc.put_u64(h.seq);
}

fn load_hold(dec: &mut Dec<'_>) -> Result<HoldSlot, SnapError> {
    Ok(HoldSlot {
        requests: load_requests(dec)?,
        max_requests: dec.usize()?,
        hit: dec.bool()?,
        release_at: dec.time()?,
        seq: dec.u64()?,
    })
}

fn save_unit(enc: &mut Enc, u: &GpuUnit) {
    u.device.save_state(enc);
    save_requests(enc, u.local_queue.iter());
    save_opt(enc, &u.in_flight, save_inflight);
    save_opt(enc, &u.holding, save_hold);
    enc.put_u64(u.hits);
    enc.put_time(u.idle_since);
    enc.put_u8(match u.state {
        UnitState::Online => 0,
        UnitState::Draining => 1,
        UnitState::Offline => 2,
    });
    enc.put_time(u.online_since);
    enc.put_dur(u.provisioned);
}

fn load_unit(dec: &mut Dec<'_>, u: &mut GpuUnit) -> Result<(), SnapError> {
    u.device.load_state(dec)?;
    u.local_queue = load_requests(dec)?.into();
    u.in_flight = load_opt(dec, load_inflight)?;
    u.holding = load_opt(dec, load_hold)?;
    u.hits = dec.u64()?;
    u.idle_since = dec.time()?;
    u.state = match dec.u8()? {
        0 => UnitState::Online,
        1 => UnitState::Draining,
        2 => UnitState::Offline,
        _ => return Err(SnapError::Corrupt("unknown unit state")),
    };
    u.online_since = dec.time()?;
    u.provisioned = dec.dur()?;
    Ok(())
}

fn save_events(enc: &mut Enc, q: &EventQueue<Event>) {
    enc.put_u64(q.next_seq());
    enc.put_u64(q.total_scheduled());
    enc.put_u64(q.total_delivered());
    let entries = q.entries();
    enc.put_usize(entries.len());
    for (t, seq, ev) in entries {
        enc.put_time(t);
        enc.put_u64(seq);
        save_event(enc, ev);
    }
}

fn load_events(dec: &mut Dec<'_>) -> Result<EventQueue<Event>, SnapError> {
    let next_seq = dec.u64()?;
    let scheduled = dec.u64()?;
    let delivered = dec.u64()?;
    let n = dec.usize()?;
    let mut entries = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        let t = dec.time()?;
        let seq = dec.u64()?;
        entries.push((t, seq, load_event(dec)?));
    }
    Ok(EventQueue::from_parts(
        entries, next_seq, scheduled, delivered,
    ))
}

fn save_event(enc: &mut Enc, ev: &Event) {
    let (tag, token) = match *ev {
        Event::GpuDone(g, seq) => (0, Some((g, seq))),
        Event::GpuCrash(g, seq) => (1, Some((g, seq))),
        Event::ScaleTick => (2, None),
        Event::BatchHold(g, seq) => (3, Some((g, seq))),
        Event::ObsTick => (4, None),
    };
    enc.put_u8(tag);
    if let Some((g, seq)) = token {
        enc.put_u16(g.0);
        enc.put_u64(seq);
    }
}

fn load_event(dec: &mut Dec<'_>) -> Result<Event, SnapError> {
    Ok(match dec.u8()? {
        0 => Event::GpuDone(GpuId(dec.u16()?), dec.u64()?),
        1 => Event::GpuCrash(GpuId(dec.u16()?), dec.u64()?),
        2 => Event::ScaleTick,
        3 => Event::BatchHold(GpuId(dec.u16()?), dec.u64()?),
        4 => Event::ObsTick,
        _ => return Err(SnapError::Corrupt("unknown event tag")),
    })
}

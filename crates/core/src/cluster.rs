//! The cluster driver: Scheduler + Cache Manager + GPU Managers wired to
//! the discrete-event engine.
//!
//! This is the executable form of the paper's Fig 2/Fig 3 architecture.
//! The driver owns the global queue, the per-GPU units (local queue +
//! device), and the cache manager, and advances everything on virtual
//! time. Two kinds of occurrence drive it:
//!
//! * an *arrival* — a trace request enters the global queue; the scheduler
//!   runs if any GPU is idle. Arrivals stream straight from the
//!   time-sorted trace through a cursor, so the event heap only ever
//!   holds runtime events and stays fleet-sized even on million-request
//!   traces.
//! * `GpuDone` — a GPU finished its in-flight phase. A completed *load*
//!   rolls straight into the inference that triggered it; a completed
//!   *inference* records metrics, frees the GPU, and re-runs the scheduler.
//!
//! Scheduling passes implement §IV faithfully:
//!
//! * a pass runs "when at least one request is waiting in the global queue
//!   and at least one GPU is idle" — and additionally whenever an idle
//!   GPU has local-queue work, which Algorithm 1 always serves first;
//! * the driver keeps the online idle GPUs in Algorithm 1's frequency
//!   order as they go idle and busy, so a round copies its candidates
//!   instead of sorting the fleet; the active [`SchedulerPolicy`] may
//!   reorder them (LB: longest-idle first) and answers one [`Dispatch`]
//!   per idle GPU through a borrowed [`SchedCtx`] view of the
//!   queue/residency/finish-time state;
//! * Algorithm 1's visit counters and Algorithm 2's hit-elsewhere /
//!   wait-on-busy arms live in the policy impls
//!   (see [`crate::scheduler`]).

use std::cell::Cell;
use std::collections::VecDeque;

use gfaas_gpu::{GpuDevice, GpuId, ModelId, Tier};
use gfaas_models::ModelRegistry;
use gfaas_obs::ledger::{Ledger, LedgerHandle, LedgerRecorder};
use gfaas_obs::perfetto::{PerfettoHandle, PerfettoRecorder};
use gfaas_obs::sampler::{SamplerRecorder, SeriesHandle, TimeSeries};
use gfaas_obs::{Arm, GpuSample, MultiRecorder, ObsEvent, Recorder, SampleView, SelfProfile};
use gfaas_sim::event::EventQueue;
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_snap::Journal;
use gfaas_store::{ModelStore, StoreStats};
use gfaas_trace::Trace;

use crate::autoscale::{Autoscaler, ScaleDecision};
use crate::batching::{BatchPolicy, BatchView};
use crate::cache::{CacheManager, Evictor};
use crate::config::{BusyWaitPolicy, ClusterConfig, ConfigError};
use crate::gpu_manager::{GpuUnit, HoldSlot, InFlight, Phase, UnitState};
use crate::idle_index::IdleIndex;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::policy::{PolicyRegistry, PolicySpec};
use crate::request::Request;
use crate::scheduler::{Dispatch, LalbScheduler, SchedulerPolicy, DEFAULT_O3_LIMIT};
#[cfg(feature = "simcheck")]
use crate::simcheck::SimChecker;

mod queue;
mod state;
use queue::GlobalQueue;
use state::{ClusterImage, SimState};

/// Discrete events driving the cluster.
///
/// GPU events carry the dispatch sequence token of the work they belong
/// to; a crash invalidates the token so the stale completion event is
/// ignored when it fires. `Clone` because the snapshot journal pins the
/// pending event queue alongside the rest of the mutable state.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// The GPU finished its current phase (load or inference).
    GpuDone(GpuId, u64),
    /// The GPU process serving the in-flight request crashed (failure
    /// injection, `ClusterConfig::crash_rate`).
    GpuCrash(GpuId, u64),
    /// The autoscaler's cadence fired: observe the cluster, apply one
    /// scale decision, and re-arm (while requests remain).
    ScaleTick,
    /// A held batch's timer expired (see [`crate::batching`]); the GPU
    /// launches whatever the hold gathered. Carries the hold's sequence
    /// token so a stale timer (the batch filled and launched early) is
    /// ignored.
    BatchHold(GpuId, u64),
    /// The telemetry sampler's cadence fired: snapshot the cluster for
    /// the attached [`Recorder`] and re-arm (while requests remain).
    /// Only ever scheduled when a recorder with a cadence is attached,
    /// so unrecorded runs see an unchanged event stream.
    ObsTick,
}

/// The GPU-enabled FaaS cluster.
pub struct Cluster {
    config: ClusterConfig,
    registry: ModelRegistry,
    /// Every journaled plain-data field, declared once.
    st: SimState,
    cache: CacheManager,
    /// The active scheduling policy. Taken out during a pass so the
    /// policy can borrow the cluster through [`SchedCtx`].
    sched: Option<Box<dyn SchedulerPolicy>>,
    /// The active request-batching policy ([`crate::batching`]); the
    /// builtin `none` keeps the paper's per-request dispatch.
    batcher: Box<dyn BatchPolicy>,
    /// The model-store backend behind every cache-miss load
    /// ([`gfaas_store`]); the builtin `flat` keeps the paper's uniform
    /// load times.
    store: Box<dyn ModelStore>,
    /// Cached `store.is_flat()` so the hot load path (estimators run per
    /// scheduling decision) gates on one predictable branch and the flat
    /// default stays byte-identical to a build without the store hooks.
    store_flat: bool,
    metrics: MetricsCollector,
    /// Elastic capacity policy; `None` is the paper's fixed testbed.
    autoscaler: Option<Box<dyn Autoscaler>>,
    /// Recycled invocation vectors: every dispatch carries its requests in
    /// a `Vec` (through [`InFlight`]/[`HoldSlot`]), and completed
    /// invocations return theirs here instead of freeing, so the steady
    /// state allocates nothing per dispatch. Bounded by the fleet size.
    batch_pool: Vec<Vec<Request>>,
    /// Online units that are idle right now, in Algorithm 1's order,
    /// maintained at every dispatch, completion, crash, and scale
    /// transition (see [`IdleIndex`]). A round copies its candidates from
    /// here instead of scanning and sorting the fleet; together with the
    /// holding/draining counters, its size lets a pass on a saturated
    /// cluster prove itself a no-op in O(1) — and every arrival triggers
    /// a pass. Derived from the units: built with them, rebuilt on
    /// rollback and restore, never journaled.
    idle: IdleIndex,
    /// Per-unit incremental summary of the local queue (parallel to
    /// the units), maintained at every push/pop/remove so finish-time
    /// estimates need not walk the queue. See [`LocalAgg`].
    local_aggs: Vec<LocalAgg>,
    /// Recycled buffer for the per-pass idle-GPU candidate list.
    idle_scratch: Vec<GpuId>,
    /// Attached event recorder (see [`gfaas_obs`]). `None` — the default —
    /// is verifiably zero-cost: hot paths gate on `is_some()` before even
    /// constructing an [`ObsEvent`], and no [`Event::ObsTick`] is ever
    /// scheduled, so the event stream and metrics are byte-identical to a
    /// build without the hooks.
    recorder: Option<Box<dyn Recorder>>,
    /// Handle to the lifecycle ledger, when `config.record.ledger` is set.
    obs_ledger: Option<LedgerHandle>,
    /// Handle to the Perfetto trace builder, when `config.record.perfetto`
    /// is set.
    obs_perfetto: Option<PerfettoHandle>,
    /// Handle to the time-series sampler, when `config.record.sample_secs`
    /// is set.
    obs_series: Option<SeriesHandle>,
    /// Sampling cadence requested by the recorder (min over children).
    obs_cadence: Option<SimDuration>,
    /// SLO threshold for `ObsEvent::SloMiss` emission.
    obs_slo: Option<SimDuration>,
    /// Self-profiler counters for the event loop (always-on: plain
    /// integer bumps, no allocation). See [`SelfProfile`].
    profile: SelfProfile,
    /// Estimator-call count lives in a `Cell` because
    /// [`Cluster::estimated_wait_fast`] is called through `&self`.
    estimator_calls: Cell<u64>,
    /// Recycled per-GPU sample buffer for [`ObsEvent::Sample`].
    obs_scratch: Vec<GpuSample>,
    /// Undo-log of pinned state images (see [`gfaas_snap`]). Empty —
    /// and therefore zero-cost — unless [`Cluster::snapshot`] or the
    /// lookahead scheduler's what-if forks are in use.
    journal: Journal<ClusterImage>,
}

/// Incremental summary of one GPU's local queue, kept in lockstep with
/// the queue by [`Cluster::agg_push`] / [`Cluster::agg_remove`] /
/// [`Cluster::agg_rebuild`].
///
/// [`GpuUnit::estimated_wait`] charges queued work as order-independent
/// sums over integer-tick durations — a per-request inference sum, or
/// per-model coalesced group sums, plus one upload per distinct
/// non-resident model — so the whole estimate folds into this constant
/// -size state and stays *byte-identical* to the naive O(queue) walk
/// (addition of ticks is commutative and associative; residency is still
/// read at query time). [`Cluster::estimated_wait_fast`] consumes it and
/// carries a debug-build assertion against the naive recompute.
#[derive(Debug, Default, Clone)]
struct LocalAgg {
    /// Σ per-request inference time (on this unit's compute profile)
    /// over the local queue — the per-request-dispatch charge.
    infer_sum: SimDuration,
    /// Distinct queued models: `(model, Σ batch items, request count)`,
    /// in first-push order. Entries leave when their count hits zero.
    groups: Vec<(ModelId, usize, usize)>,
}

impl Cluster {
    /// Builds a cluster from a config and a model registry, resolving the
    /// config's policy specs through the builtin [`PolicyRegistry`].
    ///
    /// # Panics
    /// On an invalid config (see [`ClusterConfig::validate`]) or an
    /// unresolvable policy spec; use [`Cluster::try_new`] for a `Result`.
    pub fn new(config: ClusterConfig, registry: ModelRegistry) -> Self {
        Cluster::try_new(config, registry).unwrap_or_else(|e| panic!("invalid cluster config: {e}"))
    }

    /// Builds a cluster from a config and a model registry, resolving the
    /// config's policy specs through the builtin [`PolicyRegistry`].
    pub fn try_new(config: ClusterConfig, registry: ModelRegistry) -> Result<Self, ConfigError> {
        let policies = PolicyRegistry::builtin();
        let sched = policies.scheduler(&config.policy)?;
        let evictor = policies.evictor(&config.replacement, config.seed)?;
        Cluster::with_policies(config, registry, sched, evictor)
    }

    /// Replaces the batching policy with a custom [`BatchPolicy`] impl —
    /// the open path mirroring [`Cluster::with_policies`] for policies
    /// living outside the builtin registry. The config's `batching` spec
    /// is ignored in favour of the given object.
    pub fn set_batcher(&mut self, batcher: Box<dyn BatchPolicy>) {
        self.batcher = batcher;
    }

    /// The active batching policy's display name.
    pub fn batcher_name(&self) -> String {
        self.batcher.name()
    }

    /// The active model-store backend's display name.
    pub fn store_name(&self) -> String {
        self.store.name()
    }

    /// The store backend's counters (host hits, origin loads, prefetches,
    /// demotions, …). All-zero under the flat default.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Builds a cluster around explicitly constructed policy objects —
    /// the open path for policies living outside the builtin registry.
    /// The config's `policy`/`replacement` specs are ignored in favour of
    /// the given objects.
    pub fn with_policies(
        config: ClusterConfig,
        registry: ModelRegistry,
        sched: Box<dyn SchedulerPolicy>,
        evictor: Box<dyn Evictor>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        // Batching always resolves through the builtin registry (use
        // `set_batcher` for custom policies). The store spec resolves the
        // same way — through its canonical display form, so a registry
        // shadowing `tiered` would be honoured.
        let batcher = PolicyRegistry::builtin().batcher(&config.batching)?;
        let store_spec = PolicySpec::parse(&config.store.to_string())?;
        let store = PolicyRegistry::builtin().store(&store_spec)?;
        let store_flat = store.is_flat();
        // An elastic cluster allocates every device it may ever bring
        // online; `num_gpus` (clamped into the autoscale band) of them
        // start online, the rest wait offline for a scale-up.
        let total_units = config
            .autoscale
            .as_ref()
            .map_or(config.num_gpus, |a| a.max_gpus);
        let initial_online = config.autoscale.as_ref().map_or(config.num_gpus, |a| {
            config.num_gpus.clamp(a.min_gpus, a.max_gpus)
        });
        let autoscaler = match &config.autoscale {
            Some(spec) => Some(spec.build()?),
            None => None,
        };
        let units: Vec<GpuUnit> = (0..total_units)
            .map(|i| {
                let spec = config
                    .hetero_specs
                    .as_ref()
                    .map(|s| s[i].clone())
                    .unwrap_or_else(|| config.gpu_spec.clone());
                let mut unit = GpuUnit::new(GpuDevice::new(GpuId(i as u16), spec));
                if i >= initial_online {
                    unit.state = UnitState::Offline;
                }
                unit
            })
            .collect();
        let cache = CacheManager::with_evictor(units.iter().map(|u| u.id()), evictor);
        let idle = IdleIndex::of(&units);
        let rng = gfaas_sim::rng::DetRng::new(config.seed ^ 0xc4a5);
        // Build the recorder stack from the config's record spec. Off by
        // default: `recorder` stays `None` and every hook is a dead branch.
        let obs_slo = config.record.slo_secs.map(SimDuration::from_secs_f64);
        let mut multi = MultiRecorder::default();
        let mut obs_ledger = None;
        let mut obs_perfetto = None;
        let mut obs_series = None;
        if config.record.ledger {
            let (rec, handle) = LedgerRecorder::new(obs_slo);
            multi.push(Box::new(rec));
            obs_ledger = Some(handle);
        }
        if config.record.perfetto {
            let (rec, handle) = PerfettoRecorder::new();
            multi.push(Box::new(rec));
            obs_perfetto = Some(handle);
        }
        if let Some(secs) = config.record.sample_secs {
            let (rec, handle) = SamplerRecorder::new(SimDuration::from_secs_f64(secs));
            multi.push(Box::new(rec));
            obs_series = Some(handle);
        }
        let recorder = multi.into_recorder();
        let obs_cadence = recorder.as_ref().and_then(|r| r.sample_cadence());
        Ok(Cluster {
            config,
            registry,
            st: SimState {
                units,
                global_queue: GlobalQueue::default(),
                now: SimTime::ZERO,
                last_completion: SimTime::ZERO,
                hot_model: None,
                local_moves: 0,
                crashes: 0,
                dispatch_seq: 0,
                rng,
                scale_ups: 0,
                scale_downs: 0,
                online_low: initial_online,
                online_high: initial_online,
                pending_total: 0,
                holding_units: 0,
                draining_units: 0,
                busy_secs: 0.0,
                events: EventQueue::new(),
                next_arrival: 0,
                run_started: false,
                #[cfg(feature = "simcheck")]
                simcheck: SimChecker::new(),
            },
            cache,
            sched: Some(sched),
            batcher,
            store,
            store_flat,
            metrics: MetricsCollector::new(),
            autoscaler,
            batch_pool: Vec::new(),
            idle,
            local_aggs: vec![LocalAgg::default(); total_units],
            idle_scratch: Vec::new(),
            recorder,
            obs_ledger,
            obs_perfetto,
            obs_series,
            obs_cadence,
            obs_slo,
            profile: SelfProfile::default(),
            estimator_calls: Cell::new(0),
            obs_scratch: Vec::new(),
            journal: Journal::new(),
        })
    }

    /// Attaches an externally constructed [`Recorder`], replacing any
    /// recorder built from `config.record`. The open path for custom
    /// sinks; the built-in handle accessors ([`Cluster::ledger`] etc.)
    /// return `None` afterwards.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.obs_cadence = recorder.sample_cadence();
        self.recorder = Some(recorder);
        self.obs_ledger = None;
        self.obs_perfetto = None;
        self.obs_series = None;
    }

    /// Snapshot of the lifecycle ledger, if `config.record.ledger` was
    /// set. Meaningful after [`Cluster::run`] returns.
    pub fn ledger(&self) -> Option<Ledger> {
        self.obs_ledger.as_ref().map(|h| h.snapshot())
    }

    /// The recorded Perfetto/Chrome trace-event JSON, if
    /// `config.record.perfetto` was set. Meaningful after
    /// [`Cluster::run`] returns; loads in `ui.perfetto.dev`.
    pub fn perfetto_json(&self) -> Option<String> {
        self.obs_perfetto.as_ref().map(|h| h.to_json())
    }

    /// Snapshot of the sampled time series, if `config.record.sample_secs`
    /// was set. Meaningful after [`Cluster::run`] returns.
    pub fn time_series(&self) -> Option<TimeSeries> {
        self.obs_series.as_ref().map(|h| h.snapshot())
    }

    /// The event-loop self-profile gathered over [`Cluster::run`] —
    /// schedule passes, estimator calls, heap peak, and friends. Always
    /// collected (plain counter bumps); independent of `config.record`.
    pub fn self_profile(&self) -> SelfProfile {
        let mut p = self.profile.clone();
        p.estimator_calls = self.estimator_calls.get();
        p
    }

    /// Forwards `ev` to the attached recorder, if any. Hot paths
    /// additionally gate on `self.recorder.is_some()` before constructing
    /// the event so the disabled path costs one predictable branch.
    #[inline]
    fn emit(&mut self, ev: ObsEvent<'_>) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(self.st.now, &ev);
        }
    }

    /// Overrides which model Fig 6's duplicates metric tracks (defaults to
    /// the trace's most-invoked model).
    pub fn set_hot_model(&mut self, model: ModelId) {
        self.st.hot_model = Some(model);
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The model registry in use.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The active scheduler's display name.
    pub fn scheduler_name(&self) -> String {
        self.sched.as_ref().expect("scheduler in place").name()
    }

    /// The active evictor's registry key.
    pub fn evictor_name(&self) -> &'static str {
        self.cache.evictor_name()
    }

    /// Requests moved to busy GPUs' local queues over the run.
    pub fn local_moves(&self) -> u64 {
        self.st.local_moves
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Injected GPU-process crashes observed during the run.
    pub fn crashes(&self) -> u64 {
        self.st.crashes
    }

    /// Replaces the autoscaler with a custom [`Autoscaler`] impl — the
    /// open path mirroring [`Cluster::with_policies`]. The config's
    /// `autoscale` spec must be set: it still sizes the device pool
    /// (`max_gpus`) and the initial online fleet.
    ///
    /// # Panics
    /// If the config has no `autoscale` spec (there would be no offline
    /// devices to scale into).
    pub fn set_autoscaler(&mut self, autoscaler: Box<dyn Autoscaler>) {
        assert!(
            self.config.autoscale.is_some(),
            "set_autoscaler requires config.autoscale (it sizes the device pool)"
        );
        self.autoscaler = Some(autoscaler);
    }

    /// GPUs currently online (dispatchable); draining and offline GPUs
    /// are not counted.
    pub fn online_gpus(&self) -> usize {
        self.st
            .units
            .iter()
            .filter(|u| u.state == UnitState::Online)
            .count()
    }

    /// Low/high watermarks of the online fleet size over the run — the
    /// observable the min/max autoscale bounds are asserted against.
    pub fn online_bounds(&self) -> (usize, usize) {
        (self.st.online_low, self.st.online_high)
    }

    /// GPUs brought online by the autoscaler over the run.
    pub fn scale_ups(&self) -> u64 {
        self.st.scale_ups
    }

    /// GPUs drained offline by the autoscaler over the run.
    pub fn scale_downs(&self) -> u64 {
        self.st.scale_downs
    }

    /// Per-GPU inference time: the registry profile scaled by this GPU
    /// type's compute factor (§VI heterogeneity).
    fn infer_time_on(&self, gi: usize, model: ModelId, batch: usize) -> SimDuration {
        self.registry
            .infer_time(model, batch)
            .mul_f64(self.st.units[gi].device.spec().compute_scale)
    }

    /// Per-GPU model load time, scaled likewise — the estimator view of
    /// the load cost, priced through the store backend. Under the flat
    /// default this is exactly the registry profile × the device's PCIe
    /// scale; a tiered store reprices it by where the bytes live now
    /// (host cache, an in-flight fetch, or origin).
    fn load_time_on(&self, gi: usize, model: ModelId) -> SimDuration {
        self.load_cost_scaled(model, self.st.units[gi].device.spec().load_scale)
    }

    /// The store-priced load cost for `model` given a device's PCIe
    /// scale. Factored out of [`Cluster::load_time_on`] so estimator
    /// closures can price loads without borrowing the whole unit.
    fn load_cost_scaled(&self, model: ModelId, load_scale: f64) -> SimDuration {
        let flat = self.registry.load_time(model).mul_f64(load_scale);
        if self.store_flat {
            flat
        } else {
            self.store.load_cost(
                self.st.now,
                model,
                self.registry.occupancy_bytes(model),
                flat,
            )
        }
    }

    // ------------------------------------------------------------------
    // Local-queue aggregates (incremental finish-time estimators)
    // ------------------------------------------------------------------

    /// Accounts `r` joining `gi`'s local queue. Call alongside every
    /// `local_queue` push.
    fn agg_push(&mut self, gi: usize, r: &Request) {
        let dur = self.infer_time_on(gi, r.model, r.batch);
        let agg = &mut self.local_aggs[gi];
        agg.infer_sum += dur;
        match agg.groups.iter_mut().find(|g| g.0 == r.model) {
            Some(g) => {
                g.1 += r.batch;
                g.2 += 1;
            }
            None => agg.groups.push((r.model, r.batch, 1)),
        }
    }

    /// Accounts `r` leaving `gi`'s local queue (dispatch, coalescing
    /// collection). The inference charge is recomputed from the same
    /// immutable profile it was added from, so the subtraction is exact.
    fn agg_remove(&mut self, gi: usize, r: &Request) {
        let dur = self.infer_time_on(gi, r.model, r.batch);
        let agg = &mut self.local_aggs[gi];
        agg.infer_sum -= dur;
        let pos = agg
            .groups
            .iter()
            .position(|g| g.0 == r.model)
            .expect("removed request was accounted");
        let g = &mut agg.groups[pos];
        g.1 -= r.batch;
        g.2 -= 1;
        if g.2 == 0 {
            agg.groups.remove(pos);
        }
    }

    /// Appends `r` to `gi`'s local queue (Algorithm 2's wait arm), keeping
    /// the aggregate and the idle index's backlog list in step.
    fn push_local(&mut self, gi: usize, r: Request) {
        self.agg_push(gi, &r);
        self.st.units[gi].local_queue.push_back(r);
        self.st.local_moves += 1;
        self.idle.note_backlog(&self.st.units[gi]);
    }

    /// Recomputes `gi`'s aggregate from its queue — the rare-path reset
    /// after a crash rebuilds the local queue wholesale.
    fn agg_rebuild(&mut self, gi: usize) {
        self.local_aggs[gi] = LocalAgg::default();
        let n = self.st.units[gi].local_queue.len();
        for i in 0..n {
            let r = self.st.units[gi].local_queue[i];
            self.agg_push(gi, &r);
        }
    }

    /// [`GpuUnit::estimated_wait`] evaluated from the incremental
    /// aggregate in O(distinct queued models) instead of O(queue).
    /// Byte-identical by construction (see [`LocalAgg`]); debug builds
    /// assert equality against the naive walk on every call, which is
    /// also the oracle the property tests lean on.
    fn estimated_wait_fast(&self, gi: usize) -> SimDuration {
        self.estimator_calls.set(self.estimator_calls.get() + 1);
        let coalesced = !self.batcher.is_passthrough();
        let unit = &self.st.units[gi];
        let mut wait = unit
            .device
            .busy_until()
            .map(|t| t.duration_since(self.st.now))
            .unwrap_or(SimDuration::ZERO);
        if let Some(f) = &unit.in_flight {
            if f.phase == Phase::Loading {
                wait += self.infer_time_on(gi, f.model(), f.items());
            }
        }
        if let Some(h) = &unit.holding {
            wait += h.release_at.duration_since(self.st.now.min(h.release_at));
            if !unit.device.has_model(h.model()) {
                wait += self.load_time_on(gi, h.model());
            }
            wait += self.infer_time_on(gi, h.model(), h.items());
        }
        let agg = &self.local_aggs[gi];
        if coalesced {
            for &(m, items, _) in &agg.groups {
                if !unit.device.has_model(m) {
                    wait += self.load_time_on(gi, m);
                }
                wait += self.infer_time_on(gi, m, items);
            }
        } else {
            for &(m, _, _) in &agg.groups {
                if !unit.device.has_model(m) {
                    wait += self.load_time_on(gi, m);
                }
            }
            wait += agg.infer_sum;
        }
        #[cfg(debug_assertions)]
        {
            let spec = unit.device.spec();
            let (compute_scale, load_scale) = (spec.compute_scale, spec.load_scale);
            let registry = &self.registry;
            let naive = unit.estimated_wait(
                self.st.now,
                coalesced,
                |m, b| registry.infer_time(m, b).mul_f64(compute_scale),
                |m| self.load_cost_scaled(m, load_scale),
            );
            debug_assert_eq!(wait, naive, "local-queue aggregate out of sync on GPU {gi}");
        }
        wait
    }

    /// A lower bound on the wait either estimator reports for `gi`, for
    /// any model, in O(1): the remainder of the in-flight phase plus,
    /// with `whole_queue` (per-request dispatch, where the estimate
    /// drains the whole local queue), the queue's inference sum. Every
    /// other term the estimators add is non-negative. A join-aware
    /// estimate may stop before the local queue, so under batching only
    /// the in-flight remainder is certain.
    fn wait_floor(&self, gi: usize, whole_queue: bool) -> SimDuration {
        let busy = self.st.units[gi]
            .device
            .busy_until()
            .map_or(SimDuration::ZERO, |t| t.duration_since(self.st.now));
        if whole_queue {
            busy + self.local_aggs[gi].infer_sum
        } else {
            busy
        }
    }

    /// Requests a tenant currently occupies (in flight, held for a batch,
    /// or in local queues).
    fn tenant_load(&self, tenant: u16) -> usize {
        let of = |rs: &[Request]| rs.iter().filter(|r| r.tenant == tenant).count();
        self.st
            .units
            .iter()
            .map(|u| {
                let inflight = u.in_flight.as_ref().map_or(0, |f| of(&f.requests));
                let held = u.holding.as_ref().map_or(0, |h| of(&h.requests));
                inflight + held + u.local_queue.iter().filter(|r| r.tenant == tenant).count()
            })
            .sum()
    }

    /// True iff §VI isolation forbids dispatching more work for `tenant`.
    fn tenant_blocked(&self, tenant: u16) -> bool {
        match self.config.tenant_max_inflight {
            Some(cap) => self.tenant_load(tenant) >= cap,
            None => false,
        }
    }

    /// Feeds one queue-depth observation to the metrics integral and,
    /// under `simcheck`, to the sanitizer's independent mirror of it
    /// (the two must reproduce `avg_queue_depth` bit-for-bit).
    fn note_queue_depth(&mut self, t: SimTime, len: usize) {
        self.metrics.observe_queue_depth(t, len);
        #[cfg(feature = "simcheck")]
        self.st.simcheck.observe_queue_depth(t, len);
    }

    /// Fleet audit under `simcheck`: request conservation plus
    /// residency/host-tier capacity conservation, at the current instant.
    #[cfg(feature = "simcheck")]
    fn audit_invariants(&mut self) {
        let completed = self.metrics.completed();
        self.st.simcheck.audit(
            completed,
            self.st.global_queue.len(),
            &self.st.units,
            &self.registry,
            self.store.as_ref(),
        );
    }

    /// Runs a trace to completion (all requests served) and returns the
    /// run metrics.
    pub fn run(&mut self, trace: &Trace) -> RunMetrics {
        self.begin_run(trace);
        self.drive(trace, None);
        self.finish_run()
    }

    /// Runs the trace until virtual time passes `until`, then pauses:
    /// every arrival and runtime event at or before `until` is processed,
    /// the first occurrence after it is left pending. The paused cluster
    /// can be [`Cluster::snapshot`]ted, [`Cluster::checkpoint`]ed, driven
    /// further with another `run_until`, or run to completion with
    /// [`Cluster::resume`] — the occurrence stream is identical to an
    /// unpaused [`Cluster::run`], so the final metrics are byte-identical.
    pub fn run_until(&mut self, trace: &Trace, until: SimTime) {
        self.begin_run(trace);
        self.drive(trace, Some(until));
    }

    /// Drives a paused run (after [`Cluster::run_until`] or
    /// [`Cluster::restore`]) to completion and returns the run metrics.
    /// On a cluster that never started, this is exactly [`Cluster::run`].
    pub fn resume(&mut self, trace: &Trace) -> RunMetrics {
        self.run(trace)
    }

    /// One-time run setup: counters, tick scheduling, RunStart telemetry.
    /// Guarded by `run_started` so `run`/`run_until`/`resume` compose and
    /// a restored checkpoint does not redo it.
    fn begin_run(&mut self, trace: &Trace) {
        if self.st.run_started {
            return;
        }
        self.st.run_started = true;
        if self.st.hot_model.is_none() {
            self.st.hot_model = trace.hottest_model().map(ModelId);
        }
        self.metrics.record_hot_replicas(SimTime::ZERO, 0);
        self.note_queue_depth(SimTime::ZERO, 0);
        self.st.pending_total = trace.len() as u64;
        // Arrivals stream from the trace cursor instead of being
        // pre-scheduled, so the heap holds only runtime events (a handful
        // per GPU) rather than the whole trace.
        self.st.events = EventQueue::with_capacity(self.st.units.len() * 2 + 8);
        self.st.next_arrival = 0;
        if let Some(autoscaler) = &self.autoscaler {
            self.st
                .events
                .schedule(SimTime::ZERO + autoscaler.cadence(), Event::ScaleTick);
        }
        if self.recorder.is_some() {
            let online = self.online_gpus();
            let total = self.st.units.len();
            self.emit(ObsEvent::RunStart {
                online_gpus: online,
                total_gpus: total,
            });
            for gi in 0..self.st.units.len() {
                if matches!(self.st.units[gi].state, UnitState::Online) {
                    let g = self.st.units[gi].id();
                    self.emit(ObsEvent::UnitIdle { gpu: g });
                }
            }
            if let Some(cadence) = self.obs_cadence {
                self.st
                    .events
                    .schedule(SimTime::ZERO + cadence, Event::ObsTick);
            }
        }
    }

    /// The event loop: interleaves trace arrivals with runtime events in
    /// virtual-time order until both streams are exhausted — or, with a
    /// bound, until the next occurrence would land after `until`. At
    /// equal timestamps the arrival wins the tie-break — exactly the
    /// order pre-scheduled arrivals popped in, since their sequence
    /// numbers (0..N-1, assigned before any runtime event) sorted below
    /// everything else.
    fn drive(&mut self, trace: &Trace, until: Option<SimTime>) {
        let mut events = std::mem::take(&mut self.st.events);
        let arrivals = trace.requests();
        let num_tenants = self.config.num_tenants.max(1) as u32;
        loop {
            let arrival_at = arrivals.get(self.st.next_arrival).map(|r| r.at);
            let take_arrival = match (arrival_at, events.peek_time()) {
                (Some(a), Some(h)) => a <= h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if let Some(bound) = until {
                let next_at = if take_arrival {
                    arrival_at.expect("arrival branch has an arrival")
                } else {
                    events.peek_time().expect("event branch has an event")
                };
                if next_at > bound {
                    break;
                }
            }
            if take_arrival {
                let r = &arrivals[self.st.next_arrival];
                debug_assert!(r.at >= self.st.now, "trace not sorted by arrival");
                self.st.now = r.at;
                let request = Request::new(
                    self.st.next_arrival as u64,
                    r.function,
                    ModelId(r.model),
                    self.config.batch_size,
                    r.at,
                )
                .with_tenant((r.function % num_tenants) as u16);
                self.st.next_arrival += 1;
                self.profile.arrivals += 1;
                #[cfg(feature = "simcheck")]
                self.st.simcheck.on_arrival(self.st.now);
                let req_id = request.id;
                let req_model = request.model;
                self.st.global_queue.push_back(request);
                let qlen = self.st.global_queue.len();
                self.note_queue_depth(self.st.now, qlen);
                if self.recorder.is_some() {
                    self.emit(ObsEvent::Arrival {
                        req: req_id,
                        model: req_model,
                        queue_len: qlen,
                    });
                }
                // Feed the store's arrival-rate tracker; a tiered backend
                // may start an async prefetch on its origin link here.
                if !self.store_flat {
                    let bytes = self.registry.occupancy_bytes(req_model);
                    self.store.note_arrival(self.st.now, req_model, bytes);
                }
                self.schedule_pass(&mut events);
            } else {
                let (t, ev) = events.pop().expect("peeked event exists");
                debug_assert!(t >= self.st.now, "event delivered out of order");
                self.profile.events_popped += 1;
                self.profile.heap_peak = self.profile.heap_peak.max(events.len() + 1);
                self.st.now = t;
                #[cfg(feature = "simcheck")]
                if self.st.simcheck.on_event(t) {
                    self.audit_invariants();
                }
                self.handle_event(ev, &mut events);
            }
        }
        self.st.events = events;
    }

    /// Dispatches one popped runtime event to its handler. Shared by the
    /// main [`Cluster::drive`] loop and the lookahead policy's
    /// speculative replay, so a what-if fork advances the world through
    /// exactly the code the real timeline uses.
    fn handle_event(&mut self, ev: Event, events: &mut EventQueue<Event>) {
        match ev {
            Event::GpuDone(g, seq) => self.on_gpu_done(g, seq, events),
            Event::GpuCrash(g, seq) => self.on_gpu_crash(g, seq, events),
            Event::ScaleTick => self.on_scale_tick(events),
            Event::BatchHold(g, seq) => self.on_batch_hold(g, seq, events),
            Event::ObsTick => self.on_obs_tick(events),
        }
    }

    /// End-of-run accounting: finalises the metrics, closes recorder
    /// sinks, and (under `simcheck`) runs the drained-state audits and
    /// the ledger cross-check. Only meaningful once both occurrence
    /// streams are exhausted.
    fn finish_run(&mut self) -> RunMetrics {
        debug_assert!(self.st.events.is_empty(), "runtime events left pending");
        debug_assert!(
            self.st.global_queue.is_empty(),
            "requests left undispatched"
        );
        debug_assert!(
            self.st
                .units
                .iter()
                .all(|u| u.is_idle() && u.local_queue.is_empty()),
            "GPUs left busy after the event queue drained"
        );

        if self.recorder.is_some() {
            // Flush the final partial sampling window, then let sinks
            // close any open trace slices at the loop's last timestamp
            // (`self.st.now`, which is >= every emitted event's time).
            self.emit_sample();
            let now = self.st.now;
            if let Some(r) = self.recorder.as_deref_mut() {
                r.finish(now);
            }
        }

        let end = self.st.last_completion;
        let gpu_seconds: f64 = self
            .st
            .units
            .iter()
            .map(|u| u.provisioned_until(end).as_secs_f64())
            .sum();
        // Fixed clusters keep the paper's per-device mean (byte-identical
        // to the published pipeline); elastic clusters weight by
        // provisioned time, since averaging an offline device's zero over
        // the whole makespan would understate real utilisation.
        let sm: f64 = if self.autoscaler.is_some() {
            if gpu_seconds > 0.0 {
                self.st
                    .units
                    .iter()
                    .map(|u| u.device.sm_utilization(SimTime::ZERO, end) * end.as_secs_f64())
                    .sum::<f64>()
                    / gpu_seconds
            } else {
                0.0
            }
        } else {
            self.st
                .units
                .iter()
                .map(|u| u.device.sm_utilization(SimTime::ZERO, end))
                .sum::<f64>()
                / self.st.units.len().max(1) as f64
        };
        // The histogram's tick sum must be read before `finish` consumes
        // the collector; the ledger cross-check compares against it.
        #[cfg(feature = "simcheck")]
        let latency_ticks = self.metrics.latency_tick_sum();
        let mut metrics = std::mem::take(&mut self.metrics).finish(end, sm);
        metrics.gpu_seconds_provisioned = gpu_seconds;
        metrics.scale_up_events = self.st.scale_ups;
        metrics.scale_down_events = self.st.scale_downs;
        metrics.gpu_busy_seconds = self.st.busy_secs;
        #[cfg(feature = "simcheck")]
        {
            self.st.simcheck.finish(
                end,
                &metrics,
                &self.st.units,
                &self.registry,
                self.store.as_ref(),
            );
            // Two independent accountings of every completed request —
            // the observability ledger and the metrics pipeline — must
            // agree to the tick.
            if let Some(ledger) = self.ledger() {
                self.st
                    .simcheck
                    .check_ledger(&ledger, metrics.completed, latency_ticks);
            }
        }
        metrics
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// The telemetry cadence fired: snapshot the fleet for the recorder
    /// and re-arm while the run is still in progress.
    fn on_obs_tick(&mut self, events: &mut EventQueue<Event>) {
        self.emit_sample();
        if let Some(cadence) = self.obs_cadence {
            if self.metrics.completed() < self.st.pending_total {
                events.schedule(self.st.now + cadence, Event::ObsTick);
            }
        }
    }

    /// Emits one [`ObsEvent::Sample`] snapshot of the whole fleet to the
    /// recorder. Only called while recording.
    fn emit_sample(&mut self) {
        let mut gpus = std::mem::take(&mut self.obs_scratch);
        gpus.clear();
        let mut busy = 0usize;
        let mut online = 0usize;
        for u in &self.st.units {
            let is_online = matches!(u.state, UnitState::Online);
            let is_draining = matches!(u.state, UnitState::Draining);
            if matches!(u.state, UnitState::Offline) {
                continue;
            }
            let is_busy = u.in_flight.is_some();
            if is_online {
                online += 1;
            }
            if is_busy {
                busy += 1;
            }
            gpus.push(GpuSample {
                gpu: u.id(),
                online: is_online,
                draining: is_draining,
                busy: is_busy,
                resident: u.device.resident_models().count(),
                local_depth: u.local_queue.len(),
            });
        }
        let view = SampleView {
            queue_len: self.st.global_queue.len(),
            online,
            busy,
            draining: self.st.draining_units,
            holding: self.st.holding_units,
            gpus: &gpus,
        };
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(self.st.now, &ObsEvent::Sample { view });
        }
        gpus.clear();
        self.obs_scratch = gpus;
    }

    fn on_gpu_done(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        let phase = match &self.st.units[gi].in_flight {
            // A missing or mismatched token means the work crashed in the
            // meantime: the completion is stale and ignored.
            Some(f) if f.seq == seq => f.phase,
            _ => return,
        };
        match phase {
            Phase::Loading => {
                let (model, tier) = {
                    let f = self.st.units[gi]
                        .in_flight
                        .as_ref()
                        .expect("work in flight");
                    (f.model(), f.tier)
                };
                self.st.units[gi]
                    .device
                    .complete_load(self.st.now, model)
                    .expect("load completion mismatch");
                // The upload was a natural batch-forming window: requests
                // for this model that queued up during the load join the
                // invocation now, before the inference kernel launches.
                if !self.batcher.is_passthrough() {
                    self.topup_loaded_batch(gi);
                }
                if self.recorder.is_some() {
                    self.emit(ObsEvent::LoadComplete {
                        gpu: g,
                        model,
                        tier,
                    });
                }
                // A coalesced invocation runs the whole batch's inputs in
                // one pass of the affine latency model.
                let items = self.st.units[gi]
                    .in_flight
                    .as_ref()
                    .expect("work in flight")
                    .items();
                let dur = self.infer_time_on(gi, model, items);
                let done = self.st.units[gi]
                    .device
                    .start_inference(self.st.now, model, dur)
                    .expect("post-load inference start");
                if let Some(f) = self.st.units[gi].in_flight.as_mut() {
                    // The upload interval just closed; `started` now marks
                    // the inference interval for busy-time accounting.
                    self.st.busy_secs += self.st.now.duration_since(f.started).as_secs_f64();
                    f.started = self.st.now;
                    f.phase = Phase::Running;
                }
                if self.recorder.is_some() {
                    let f = self.st.units[gi]
                        .in_flight
                        .as_ref()
                        .expect("work in flight");
                    let (batch, requests, items) = (f.seq, f.requests.len(), f.items());
                    self.emit(ObsEvent::InferStart {
                        gpu: g,
                        model,
                        batch,
                        requests,
                        items,
                    });
                }
                self.schedule_inference_outcome(gi, done, dur, events);
            }
            Phase::Running => {
                let inflight = self.st.units[gi].in_flight.take().expect("work in flight");
                self.st.units[gi]
                    .device
                    .complete_inference(self.st.now, inflight.model())
                    .expect("inference completion mismatch");
                self.st.busy_secs += self.st.now.duration_since(inflight.started).as_secs_f64();
                // Per-request completion accounting: every coalesced
                // request ends now, each against its own arrival.
                let (b_model, b_seq) = (inflight.model(), inflight.seq);
                for r in &inflight.requests {
                    let latency = self.st.now.duration_since(r.arrival);
                    self.metrics.record_completion(latency);
                    if self.recorder.is_some() {
                        self.emit(ObsEvent::Completion {
                            req: r.id,
                            gpu: g,
                            batch: b_seq,
                            model: b_model,
                            latency,
                        });
                        if let Some(slo) = self.obs_slo {
                            if latency > slo {
                                self.emit(ObsEvent::SloMiss {
                                    req: r.id,
                                    latency,
                                    slo,
                                });
                            }
                        }
                    }
                }
                self.metrics.record_invocation(inflight.requests.len());
                if self.recorder.is_some() {
                    let requests = inflight.requests.len();
                    self.emit(ObsEvent::InvocationDone {
                        gpu: g,
                        batch: b_seq,
                        requests,
                    });
                }
                self.st.last_completion = self.st.last_completion.max(self.st.now);
                // Riding requests always served via residency (the lead's
                // load or cache hit), so they count toward Algorithm 1's
                // hit frequency; a lead miss does not.
                let hit_served = inflight.requests.len() - usize::from(!inflight.was_hit);
                self.st.units[gi].hits += hit_served as u64;
                let mut recycled = inflight.requests;
                recycled.clear();
                self.batch_pool.push(recycled);
                self.st.units[gi].idle_since = self.st.now;
                if self.st.units[gi].state == UnitState::Online {
                    self.idle.insert(&self.st.units[gi]);
                    if self.recorder.is_some() {
                        self.emit(ObsEvent::UnitIdle { gpu: g });
                    }
                }
                self.maybe_finish_drain(gi);
                self.schedule_pass(events);
            }
        }
    }

    /// Schedules the end of an inference that starts now and completes at
    /// `done`; with failure injection enabled it may instead crash partway
    /// through.
    fn schedule_inference_outcome(
        &mut self,
        gi: usize,
        done: SimTime,
        dur: SimDuration,
        events: &mut EventQueue<Event>,
    ) {
        let g = self.st.units[gi].id();
        let seq = self.st.units[gi]
            .in_flight
            .as_ref()
            .expect("work in flight")
            .seq;
        if self.config.crash_rate > 0.0 && self.st.rng.chance(self.config.crash_rate) {
            let frac = self.st.rng.range_f64(0.05, 0.95);
            let crash_at = done - dur.mul_f64(1.0 - frac);
            events.schedule(crash_at, Event::GpuCrash(g, seq));
        }
        events.schedule(done, Event::GpuDone(g, seq));
    }

    /// Failure injection: the GPU process serving the in-flight request
    /// died. The model's memory is reclaimed, the cache entry dropped, and
    /// the request is retried from the head of the global queue (its
    /// original arrival time is preserved, so the retry's latency reflects
    /// the crash).
    fn on_gpu_crash(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        match &self.st.units[gi].in_flight {
            Some(f) if f.seq == seq && matches!(f.phase, Phase::Running) => {}
            _ => return, // already completed or crashed
        }
        let inflight = self.st.units[gi].in_flight.take().expect("work in flight");
        let model = inflight.model();
        self.st.units[gi]
            .device
            .force_kill(self.st.now, model)
            .expect("crashing process exists");
        // The partial inference consumed real GPU time before dying (the
        // completed upload was already accounted at the phase switch).
        self.st.busy_secs += self.st.now.duration_since(inflight.started).as_secs_f64();
        self.cache.remove(g, model);
        self.on_residency_change(model);
        if self.recorder.is_some() {
            let requeued = inflight.requests.len();
            self.emit(ObsEvent::Crash {
                gpu: g,
                model,
                requeued,
            });
        }
        self.st.units[gi].idle_since = self.st.now;
        if self.st.units[gi].state == UnitState::Online && self.recorder.is_some() {
            self.emit(ObsEvent::UnitIdle { gpu: g });
        }
        self.st.crashes += 1;
        // Retry: the crashed invocation's requests (the whole coalesced
        // batch) rejoin the global queue at the front in order, followed
        // by any of this GPU's local-queue requests that were waiting on
        // the now-dead process (their residency expectation is void).
        let mut requeue = inflight.requests;
        let mut keep = VecDeque::new();
        while let Some(r) = self.st.units[gi].local_queue.pop_front() {
            if r.model == model {
                requeue.push(r);
            } else {
                keep.push_back(r);
            }
        }
        self.st.units[gi].local_queue = keep;
        self.agg_rebuild(gi);
        // The unit enters the idle set only now: its surviving local
        // queue decides whether it also carries a backlog.
        if self.st.units[gi].state == UnitState::Online {
            self.idle.insert(&self.st.units[gi]);
        }
        for r in requeue.into_iter().rev() {
            let id = r.id;
            self.st.global_queue.push_front(r);
            if self.recorder.is_some() {
                self.emit(ObsEvent::Requeued { req: id });
            }
        }
        let qlen = self.st.global_queue.len();
        self.note_queue_depth(self.st.now, qlen);
        if self.recorder.is_some() {
            self.emit(ObsEvent::QueueDepth { len: qlen });
        }
        self.maybe_finish_drain(gi);
        self.schedule_pass(events);
    }

    // ------------------------------------------------------------------
    // Autoscaling (elastic capacity; the policy lives in `autoscale`)
    // ------------------------------------------------------------------

    /// One autoscaler cadence: observe, decide, apply, re-arm. Ticks stop
    /// re-arming once every trace request has completed, so the event
    /// queue drains and the run ends.
    fn on_scale_tick(&mut self, events: &mut EventQueue<Event>) {
        #[cfg(feature = "simcheck")]
        self.audit_invariants();
        if self.metrics.completed() >= self.st.pending_total {
            return;
        }
        let mut autoscaler = self.autoscaler.take().expect("tick without autoscaler");
        let decision = autoscaler.step(&ScaleView { cluster: self });
        let cadence = autoscaler.cadence();
        self.autoscaler = Some(autoscaler);
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => self.scale_up(n, events),
            ScaleDecision::Down(n) => self.scale_down(n),
        }
        events.schedule(self.st.now + cadence, Event::ScaleTick);
    }

    /// Brings up to `want` offline devices online, cold (empty caches,
    /// reset frequency counters), then runs a scheduling pass so queued
    /// work can flow onto them immediately.
    fn scale_up(&mut self, want: usize, events: &mut EventQueue<Event>) {
        let mut provisioned: Vec<GpuId> = Vec::new();
        for unit in &mut self.st.units {
            if provisioned.len() == want {
                break;
            }
            if unit.state == UnitState::Offline {
                unit.state = UnitState::Online;
                unit.online_since = self.st.now;
                unit.idle_since = self.st.now;
                // A cold device has no cache; its old hit frequency (from
                // a previous online interval) would skew Algorithm 1's
                // idle ordering.
                unit.hits = 0;
                debug_assert!(unit.is_idle(), "offline units carry no work");
                self.idle.insert(unit);
                provisioned.push(unit.id());
            }
        }
        if provisioned.is_empty() {
            return;
        }
        self.st.scale_ups += provisioned.len() as u64;
        self.st.online_high = self.st.online_high.max(self.online_gpus());
        // Cold devices mean a burst of compulsory misses is coming: let a
        // tiered store stage its hottest absent models toward the host
        // cache before the cold-start storm hits the origin link.
        if !self.store_flat {
            self.store.note_scale_up(self.st.now);
        }
        for g in provisioned {
            if self.recorder.is_some() {
                self.emit(ObsEvent::ScaleUp { gpu: g });
                self.emit(ObsEvent::UnitIdle { gpu: g });
            }
        }
        self.schedule_pass(events);
    }

    /// Marks up to `want` online GPUs as drain victims, never dropping
    /// the online fleet below the autoscale minimum. Victims are chosen
    /// in evictor-style idle order — idle GPUs first, longest-idle first
    /// (the LRU of GPUs) — then busy ones by the same stale last-idle
    /// instant (id breaks ties); an already-idle victim drains (evicts
    /// its residents and goes offline) immediately, a busy one finishes
    /// its in-flight request and local queue first.
    fn scale_down(&mut self, want: usize) {
        let min_gpus = self
            .config
            .autoscale
            .as_ref()
            .map_or(1, |a| a.min_gpus)
            .max(1);
        let online = self.online_gpus();
        let allowed = online.saturating_sub(min_gpus).min(want);
        if allowed == 0 {
            return;
        }
        let mut victims: Vec<usize> = (0..self.st.units.len())
            .filter(|&gi| self.st.units[gi].state == UnitState::Online)
            .collect();
        victims.sort_by_key(|&gi| {
            let u = &self.st.units[gi];
            (!u.is_idle(), u.idle_since, gi)
        });
        for &gi in victims.iter().take(allowed) {
            if self.st.units[gi].is_idle() {
                self.idle.remove(&self.st.units[gi]);
            }
            self.st.units[gi].state = UnitState::Draining;
            self.st.draining_units += 1;
            self.st.scale_downs += 1;
            if self.recorder.is_some() {
                let g = self.st.units[gi].id();
                self.emit(ObsEvent::DrainStart { gpu: g });
            }
            self.maybe_finish_drain(gi);
        }
        self.st.online_low = self.st.online_low.min(self.online_gpus());
    }

    /// Completes a drain if the unit has nothing left to run: evicts its
    /// resident models (no request is lost — residency only speeds up
    /// future dispatches), closes its provisioned interval, and takes it
    /// offline.
    fn maybe_finish_drain(&mut self, gi: usize) {
        let unit = &self.st.units[gi];
        if unit.state != UnitState::Draining
            || unit.in_flight.is_some()
            || unit.holding.is_some()
            || !unit.local_queue.is_empty()
        {
            return;
        }
        let g = unit.id();
        let residents: Vec<ModelId> = unit.device.resident_models().collect();
        for model in residents {
            self.st.units[gi]
                .device
                .evict(model)
                .expect("drained GPU's residents are ready processes");
            self.cache.remove(g, model);
            self.on_residency_change(model);
            // Drain evictions demote like capacity evictions do — the
            // device is going away cleanly, so its weights are written
            // back to the host cache. (Crashes do not demote: the
            // process died with its memory.)
            if !self.store_flat {
                let bytes = self.registry.occupancy_bytes(model);
                self.store.demote(self.st.now, model, bytes);
            }
            if self.recorder.is_some() {
                self.emit(ObsEvent::Eviction { gpu: g, model });
            }
        }
        let unit = &mut self.st.units[gi];
        unit.provisioned += self.st.now.duration_since(unit.online_since);
        unit.state = UnitState::Offline;
        self.st.draining_units -= 1;
        if self.recorder.is_some() {
            self.emit(ObsEvent::Offline { gpu: g });
        }
    }

    // ------------------------------------------------------------------
    // Request batching (coalescing; the policies live in `batching`)
    // ------------------------------------------------------------------

    /// Same-model requests immediately coalescable with a dispatch on
    /// `gi`: matching entries in its local queue, plus — for online GPUs
    /// — matching, tenant-unblocked entries in the global queue.
    fn coalescable(&self, gi: usize, model: ModelId) -> usize {
        // The aggregate's request count is exactly the filter count the
        // naive scan produced.
        let local = self.local_aggs[gi]
            .groups
            .iter()
            .find(|g| g.0 == model)
            .map_or(0, |g| g.2);
        debug_assert_eq!(
            local,
            self.st.units[gi]
                .local_queue
                .iter()
                .filter(|r| r.model == model)
                .count()
        );
        let global = if self.st.units[gi].state == UnitState::Online {
            self.st
                .global_queue
                .iter()
                .filter(|r| r.model == model && !self.tenant_blocked(r.tenant))
                .count()
        } else {
            0
        };
        local + global
    }

    /// Moves same-model requests into `out` until it holds `cap`
    /// requests: local-queue entries first (they were placed here and
    /// would run next anyway), then global-queue entries in arrival
    /// order. Draining GPUs take no global work — a scale-down victim
    /// only winds down what it already owns. The §VI tenant cap counts
    /// the forming batch itself (its requests live only in `out` during
    /// collection, invisible to [`Cluster::tenant_load`]), so one
    /// coalesced invocation cannot smuggle a capped tenant past its
    /// in-flight limit.
    fn collect_same_model(
        &mut self,
        gi: usize,
        model: ModelId,
        cap: usize,
        out: &mut Vec<Request>,
    ) {
        let g = self.st.units[gi].id();
        let mut i = 0;
        while out.len() < cap && i < self.st.units[gi].local_queue.len() {
            if self.st.units[gi].local_queue[i].model == model {
                let r = self.st.units[gi]
                    .local_queue
                    .remove(i)
                    .expect("index in bounds");
                self.agg_remove(gi, &r);
                if self.recorder.is_some() {
                    let id = r.id;
                    self.emit(ObsEvent::Join { req: id, gpu: g });
                }
                out.push(r);
            } else {
                i += 1;
            }
        }
        if self.st.units[gi].state != UnitState::Online {
            return;
        }
        let global_before = self.st.global_queue.len();
        let mut i = 0;
        while out.len() < cap && i < self.st.global_queue.len() {
            let (matches, tenant) = {
                let r = self.st.global_queue.get(i);
                (r.model == model, r.tenant)
            };
            let blocked = matches
                && self.config.tenant_max_inflight.is_some_and(|tenant_cap| {
                    let forming = out.iter().filter(|r| r.tenant == tenant).count();
                    self.tenant_load(tenant) + forming >= tenant_cap
                });
            if matches && !blocked {
                let r = self.st.global_queue.remove(i).expect("index in bounds");
                if self.recorder.is_some() {
                    let id = r.id;
                    self.emit(ObsEvent::Join { req: id, gpu: g });
                }
                out.push(r);
            } else {
                i += 1;
            }
        }
        let qlen = self.st.global_queue.len();
        if qlen != global_before {
            self.note_queue_depth(self.st.now, qlen);
            if self.recorder.is_some() {
                self.emit(ObsEvent::QueueDepth { len: qlen });
            }
        }
    }

    /// The affine-latency view a [`BatchPolicy`] plans against, scaled to
    /// GPU `gi`'s own compute and PCIe profiles.
    fn batch_view(
        &self,
        gi: usize,
        model: ModelId,
        hit: bool,
        lead_arrival: SimTime,
        available: usize,
    ) -> BatchView {
        let spec = self.st.units[gi].device.spec();
        let profile = self.registry.profile(model);
        BatchView {
            model,
            hit,
            now: self.st.now,
            lead_arrival,
            available,
            items_per_request: self.config.batch_size,
            infer_base_secs: profile.infer_base_secs * spec.compute_scale,
            infer_item_secs: profile.infer_per_item_secs * spec.compute_scale,
            load_secs: profile.load_time.mul_f64(spec.load_scale).as_secs_f64(),
        }
    }

    /// Executes a scheduler dispatch through the batching layer: plans a
    /// batch for the lead request, coalesces available same-model
    /// requests, and either launches now or parks the batch in a hold
    /// slot awaiting its `BatchHold` timer. The `none` policy
    /// short-circuits to the paper's per-request launch.
    fn dispatch_batched(
        &mut self,
        gi: usize,
        lead: Request,
        hit: bool,
        events: &mut EventQueue<Event>,
    ) {
        // Every dispatch path funnels through here on an idle unit, and
        // every branch below leaves it busy (in flight or holding).
        debug_assert!(self.st.units[gi].is_idle(), "dispatch on a busy GPU");
        if self.st.units[gi].state == UnitState::Online {
            self.idle.remove(&self.st.units[gi]);
        }
        if self.recorder.is_some() {
            let (id, g) = (lead.id, self.st.units[gi].id());
            self.emit(ObsEvent::Join { req: id, gpu: g });
        }
        let mut requests = self.batch_pool.pop().unwrap_or_default();
        requests.push(lead);
        if self.batcher.is_passthrough() {
            self.launch_batch(gi, requests, hit, events);
            return;
        }
        let model = lead.model;
        let available = self.coalescable(gi, model);
        let view = self.batch_view(gi, model, hit, lead.arrival, available);
        let plan = self.batcher.plan(&view);
        let cap = plan.max_requests.max(1);
        self.collect_same_model(gi, model, cap, &mut requests);
        // The driver's backstop on [`BatchPlan::hold`]'s contract: a solo
        // batch launches immediately no matter what the policy answered —
        // holding a lone request would trade its latency for nothing.
        if requests.len() >= 2 && requests.len() < cap {
            if let Some(hold) = plan.hold {
                let g = self.st.units[gi].id();
                let seq = self.st.dispatch_seq;
                self.st.dispatch_seq += 1;
                let release_at = self.st.now + hold;
                self.profile.holds_parked += 1;
                if self.recorder.is_some() {
                    let gathered = requests.len();
                    self.emit(ObsEvent::HoldStart {
                        gpu: g,
                        model,
                        gathered,
                        release_at,
                    });
                }
                self.st.units[gi].holding = Some(HoldSlot {
                    requests,
                    max_requests: cap,
                    hit,
                    release_at,
                    seq,
                });
                self.st.holding_units += 1;
                events.schedule(release_at, Event::BatchHold(g, seq));
                return;
            }
        }
        self.launch_batch(gi, requests, hit, events);
    }

    /// Tops a held batch up with same-model requests that arrived since
    /// the hold began, launching early when it fills. Returns true iff
    /// the batch launched.
    fn fill_hold(&mut self, gi: usize, events: &mut EventQueue<Event>) -> bool {
        let Some(slot) = &self.st.units[gi].holding else {
            return false;
        };
        let (model, cap) = (slot.model(), slot.max_requests);
        let mut slot = self.st.units[gi]
            .holding
            .take()
            .expect("slot checked above");
        self.collect_same_model(gi, model, cap, &mut slot.requests);
        if slot.requests.len() >= cap {
            // Full: launch now; the pending BatchHold timer goes stale
            // (its token no longer matches a held slot).
            self.st.holding_units -= 1;
            self.launch_batch(gi, slot.requests, slot.hit, events);
            true
        } else {
            self.st.units[gi].holding = Some(slot);
            false
        }
    }

    /// A held batch's timer fired: launch whatever it gathered (after a
    /// final same-model top-up). A stale token means the batch already
    /// launched early.
    fn on_batch_hold(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        match &self.st.units[gi].holding {
            Some(h) if h.seq == seq => {}
            _ => return,
        }
        let mut slot = self.st.units[gi]
            .holding
            .take()
            .expect("slot checked above");
        self.st.holding_units -= 1;
        self.collect_same_model(gi, slot.model(), slot.max_requests, &mut slot.requests);
        self.launch_batch(gi, slot.requests, slot.hit, events);
    }

    /// Grows a just-loaded invocation's batch with same-model requests
    /// that queued up during the upload, re-consulting the batch policy
    /// (as a hit view: the model is resident now). The upload itself was
    /// the gathering window, so any `hold` in the new plan is ignored —
    /// the inference launches immediately.
    fn topup_loaded_batch(&mut self, gi: usize) {
        let (model, lead_arrival, len) = {
            let f = self.st.units[gi]
                .in_flight
                .as_ref()
                .expect("work in flight");
            (f.model(), f.lead().arrival, f.requests.len())
        };
        let available = self.coalescable(gi, model);
        if available == 0 {
            return;
        }
        let view = self.batch_view(gi, model, true, lead_arrival, available);
        let cap = self.batcher.plan(&view).max_requests.max(1);
        if cap <= len {
            return;
        }
        let mut requests = {
            let f = self.st.units[gi]
                .in_flight
                .as_mut()
                .expect("work in flight");
            std::mem::take(&mut f.requests)
        };
        self.collect_same_model(gi, model, cap, &mut requests);
        let g = self.st.units[gi].id();
        for _ in len..requests.len() {
            // Joiners ride the completed upload: hit decisions and cache
            // accesses like any coalesced request.
            self.metrics.record_dispatch(true, false);
            self.cache.touch(g, model);
        }
        if self.recorder.is_some() {
            let joined = requests.len() - len;
            if joined > 0 {
                self.emit(ObsEvent::LoadRiders { gpu: g, joined });
            }
        }
        self.st.units[gi]
            .in_flight
            .as_mut()
            .expect("work in flight")
            .requests = requests;
    }

    /// Launches a coalesced invocation on `gi` (both the hit and miss
    /// paths; a single-request batch is exactly the paper's per-request
    /// dispatch).
    fn launch_batch(
        &mut self,
        gi: usize,
        requests: Vec<Request>,
        hit: bool,
        events: &mut EventQueue<Event>,
    ) {
        self.profile.dispatches += 1;
        if hit {
            self.execute_hit(gi, requests, events);
        } else {
            self.execute_miss(gi, requests, events);
        }
    }

    // ------------------------------------------------------------------
    // Scheduling (paper §IV; the algorithms live in the policy impls)
    // ------------------------------------------------------------------

    /// Asserts the driver's derived fleet state — the idle index and the
    /// holding/draining counters — against a brute-force scan of the
    /// units. Runs on every pass round in debug and `simcheck` builds.
    #[cfg(any(debug_assertions, feature = "simcheck"))]
    fn audit_fleet_index(&self) {
        assert_eq!(
            self.idle,
            IdleIndex::of(&self.st.units),
            "idle index out of sync"
        );
        assert_eq!(
            (self.st.holding_units, self.st.draining_units),
            fleet_counts(&self.st.units),
            "holding/draining counters out of sync"
        );
    }

    /// Runs scheduling iterations until no dispatch is possible. The
    /// structure (pass loop, local-queue priority, idle filtering) is the
    /// driver's; every placement decision is the policy's. Draining GPUs
    /// are invisible to the policy but still serve their own local
    /// queues, so no already-placed request is lost to a scale-down.
    fn schedule_pass(&mut self, events: &mut EventQueue<Event>) {
        self.profile.schedule_passes += 1;
        let mut sched = self.sched.take().expect("scheduler in place");
        loop {
            self.profile.pass_rounds += 1;
            #[cfg(any(debug_assertions, feature = "simcheck"))]
            self.audit_fleet_index();
            // The saturated common case: nothing to top up, nothing to
            // drain, nowhere to dispatch — the pass is provably a no-op.
            if self.idle.is_empty() && self.st.holding_units == 0 && self.st.draining_units == 0 {
                break;
            }
            let mut progress = false;
            // Held batches vacuum up matching new arrivals and launch
            // early once full (no-op under per-request dispatch).
            if self.st.holding_units > 0 && !self.batcher.is_passthrough() {
                for gi in 0..self.st.units.len() {
                    if self.st.units[gi].holding.is_some() && self.fill_hold(gi, events) {
                        progress = true;
                    }
                }
            }
            // Drain victims run down their local queues (always resident
            // hits) but receive no new work.
            if self.st.draining_units > 0 {
                for gi in 0..self.st.units.len() {
                    if self.st.units[gi].state == UnitState::Draining && self.st.units[gi].is_idle()
                    {
                        if let Some(r) = self.st.units[gi].local_queue.pop_front() {
                            debug_assert!(
                                self.cache.is_cached(self.st.units[gi].id(), r.model),
                                "local-queue request's model must be resident"
                            );
                            self.agg_remove(gi, &r);
                            self.dispatch_batched(gi, r, true, events);
                            progress = true;
                        }
                    }
                }
            }
            // Online idle GPUs with work available to them, Algorithm 1's
            // input, already in its frequency order: all of them while the
            // global queue has work, else just those with a local backlog.
            // The candidate list lives in a recycled buffer — a pass runs
            // on every arrival, so per-pass allocation is hot.
            let mut idle = std::mem::take(&mut self.idle_scratch);
            idle.clear();
            self.idle
                .candidates(!self.st.global_queue.is_empty(), &mut idle);
            if idle.is_empty() {
                self.idle_scratch = idle;
                if progress {
                    continue;
                }
                break;
            }
            let mut ctx = SchedCtx {
                cluster: self,
                events,
                progress,
            };
            sched.idle_order(&ctx, &mut idle);
            for &g in &idle {
                // With the global queue empty only a local backlog can
                // still move, and every online idle GPU with one is in the
                // index's backlog list: the rest of the round is a no-op.
                if ctx.cluster.st.global_queue.is_empty() && !ctx.cluster.idle.has_backlog() {
                    break;
                }
                let gi = g.0 as usize;
                if !ctx.cluster.st.units[gi].is_idle() {
                    continue; // became busy earlier in this iteration
                }
                // Algorithm 1 lines 2–5: the local queue has priority.
                if let Some(r) = ctx.cluster.st.units[gi].local_queue.pop_front() {
                    debug_assert!(
                        ctx.cluster.cache.is_cached(g, r.model),
                        "local-queue request's model must be resident"
                    );
                    ctx.cluster.agg_remove(gi, &r);
                    ctx.cluster.dispatch_batched(gi, r, true, ctx.events);
                    ctx.progress = true;
                    continue;
                }
                if ctx.cluster.st.global_queue.is_empty() {
                    continue;
                }
                let dispatch = sched.on_gpu_idle(g, &mut ctx);
                ctx.apply(g, dispatch);
            }
            let made_progress = ctx.progress;
            self.idle_scratch = idle;
            if !made_progress {
                break;
            }
        }
        self.sched = Some(sched);
    }

    // ------------------------------------------------------------------
    // Dispatch execution
    // ------------------------------------------------------------------

    /// Starts a cache-hit inference on an idle GPU — one invocation
    /// serving every request in `requests` (one, unless a batch policy
    /// coalesced more).
    fn execute_hit(&mut self, gi: usize, requests: Vec<Request>, events: &mut EventQueue<Event>) {
        let g = self.st.units[gi].id();
        let model = requests[0].model;
        debug_assert!(self.cache.is_cached(g, model), "hit without residency");
        debug_assert!(requests.iter().all(|r| r.model == model));
        // Every coalesced request is a hit decision and a cache access.
        for _ in &requests {
            self.metrics.record_dispatch(true, false);
        }
        for _ in &requests {
            self.cache.touch(g, model);
        }
        let items: usize = requests.iter().map(|r| r.batch).sum();
        let dur = self.infer_time_on(gi, model, items);
        let done = self.st.units[gi]
            .device
            .start_inference(self.st.now, model, dur)
            .expect("hit dispatch on idle GPU");
        let seq = self.st.dispatch_seq;
        self.st.dispatch_seq += 1;
        if self.recorder.is_some() {
            let (lead, coalesced) = (requests[0].id, requests.len());
            self.emit(ObsEvent::Dispatch {
                gpu: g,
                lead,
                model,
                hit: true,
                false_miss: false,
                coalesced,
            });
            self.emit(ObsEvent::InferStart {
                gpu: g,
                model,
                batch: seq,
                requests: coalesced,
                items,
            });
        }
        self.st.units[gi].in_flight = Some(InFlight {
            requests,
            phase: Phase::Running,
            was_hit: true,
            started: self.st.now,
            seq,
            tier: Tier::HBM,
        });
        self.schedule_inference_outcome(gi, done, dur, events);
    }

    /// Starts a cache-miss (load, then inference) on an idle GPU,
    /// evicting victims as needed. The lead request pays the miss;
    /// coalesced requests ride the same upload and count as hits.
    fn execute_miss(&mut self, gi: usize, requests: Vec<Request>, events: &mut EventQueue<Event>) {
        let g = self.st.units[gi].id();
        let model = requests[0].model;
        debug_assert!(!self.cache.is_cached(g, model), "miss with residency");
        debug_assert!(requests.iter().all(|r| r.model == model));
        let false_miss = self.cache.cached_anywhere(model);
        self.metrics.record_dispatch(false, false_miss);
        for _ in 1..requests.len() {
            self.metrics.record_dispatch(true, false);
        }
        if self.recorder.is_some() {
            let (lead, coalesced) = (requests[0].id, requests.len());
            self.emit(ObsEvent::Dispatch {
                gpu: g,
                lead,
                model,
                hit: false,
                false_miss,
                coalesced,
            });
        }

        let occupancy = self.registry.occupancy_bytes(model);
        // The Cache Manager provisions against capacity minus its OOM
        // headroom (see `ClusterConfig::mem_headroom_mib`).
        let headroom = self.config.mem_headroom_mib * gfaas_gpu::MIB;
        let free = self.st.units[gi]
            .device
            .free_bytes()
            .saturating_sub(headroom);
        let registry = &self.registry;
        let victims = self
            .cache
            .select_victims(g, occupancy, free, |m| registry.occupancy_bytes(m), &[])
            .unwrap_or_else(|| {
                panic!(
                    "model {} ({} B) cannot fit GPU {} ({} B capacity)",
                    model,
                    occupancy,
                    g,
                    self.st.units[gi].device.spec().memory_bytes
                )
            });
        for v in victims {
            self.st.units[gi]
                .device
                .evict(v)
                .expect("victims on an idle GPU are evictable");
            self.on_residency_change(v);
            // Eviction demotes: the victim's weights land in the host
            // cache (a device→host writeback overlaps compute, so the
            // demotion itself is free), making the next miss for it a
            // host hit instead of an origin fetch.
            if !self.store_flat {
                let bytes = self.registry.occupancy_bytes(v);
                self.store.demote(self.st.now, v, bytes);
            }
            if self.recorder.is_some() {
                self.emit(ObsEvent::Eviction { gpu: g, model: v });
            }
        }
        // The store prices (and accounts) the upload: the flat backend
        // echoes the per-device profile time; a tiered backend settles
        // background transfers, serves from host if resident, joins an
        // in-flight prefetch, or queues an origin fetch.
        let flat_load = self
            .registry
            .load_time(model)
            .mul_f64(self.st.units[gi].device.spec().load_scale);
        let (tier, load_time) = if self.store_flat {
            (Tier::ORIGIN, flat_load)
        } else {
            self.store
                .begin_load(self.st.now, model, occupancy, flat_load)
        };
        let (_pid, ready) = self.st.units[gi]
            .device
            .start_load_timed(self.st.now, model, occupancy, load_time)
            .expect("load after eviction fits");
        self.cache.insert(g, model);
        self.on_residency_change(model);
        // Riding requests access the freshly inserted model (frequency
        // for TinyLFU-style evictors; a no-op for the insert-hot LRU).
        for _ in 1..requests.len() {
            self.cache.touch(g, model);
        }
        let seq = self.st.dispatch_seq;
        self.st.dispatch_seq += 1;
        if self.recorder.is_some() {
            self.emit(ObsEvent::LoadStart {
                gpu: g,
                model,
                batch: seq,
                tier,
            });
        }
        self.st.units[gi].in_flight = Some(InFlight {
            requests,
            phase: Phase::Loading,
            was_hit: false,
            started: self.st.now,
            seq,
            tier,
        });
        events.schedule(ready, Event::GpuDone(g, seq));
    }

    fn on_residency_change(&mut self, model: ModelId) {
        if self.st.hot_model == Some(model) {
            let replicas = self.cache.replica_count(model);
            self.metrics.record_hot_replicas(self.st.now, replicas);
            if self.recorder.is_some() {
                self.emit(ObsEvent::HotReplicas { replicas });
            }
        }
    }

    // ------------------------------------------------------------------
    // Speculative what-if scheduling (the lookahead policy's fork engine)
    // ------------------------------------------------------------------

    /// Forks the world, performs one candidate placement for the queued
    /// request at `queue_index`, replays up to `horizon` pending runtime
    /// events under a plain greedy LALBO3 scheduler, scores the outcome,
    /// and rolls everything back. The fork is invisible: the recorder is
    /// stashed for its duration, and every other mutable bit — metrics,
    /// RNG, residency, queues, the event heap — is journaled and restored
    /// byte-identically.
    pub(crate) fn speculate_placement(
        &mut self,
        events: &mut EventQueue<Event>,
        queue_index: usize,
        placement: SpecPlacement,
        horizon: usize,
    ) -> SpecScore {
        let recorder = self.recorder.take();
        #[cfg(debug_assertions)]
        let queue_before = {
            let q = &self.st.global_queue;
            (q.len(), q.age_ticks(self.st.now))
        };
        // Park the drive loop's event heap in the state for the capture.
        std::mem::swap(events, &mut self.st.events);
        let img = self.capture_image();
        let id = self.journal.snapshot(img);
        std::mem::swap(events, &mut self.st.events);
        let completed0 = self.metrics.completed();
        let lat0 = self.metrics.latency_sample_count();

        // The candidate leaves the global queue before placement — the
        // same bookkeeping as `SchedCtx::take_queued`, so conservation
        // audits hold inside the fork.
        let r = self
            .st
            .global_queue
            .remove(queue_index)
            .expect("speculated index in bounds");
        let qlen = self.st.global_queue.len();
        let now = self.st.now;
        self.note_queue_depth(now, qlen);
        match placement {
            SpecPlacement::HitOn(g) => self.dispatch_batched(g.0 as usize, r, true, events),
            SpecPlacement::MissOn(g) => self.dispatch_batched(g.0 as usize, r, false, events),
            SpecPlacement::WaitOn(g) => self.push_local(g.0 as usize, r),
        }

        // The fork starts mid-pass: idle GPUs *after* the served one in
        // the round's order still have undrained local queues, which the
        // rest of the outer round would serve next (Algorithm 1's local
        // priority). Serve them now so the replay's own passes see the
        // post-round invariant — an idle GPU never sits on queued work.
        for gi in 0..self.st.units.len() {
            if self.st.units[gi].state != UnitState::Offline && self.st.units[gi].is_idle() {
                if let Some(r) = self.st.units[gi].local_queue.pop_front() {
                    self.agg_remove(gi, &r);
                    self.dispatch_batched(gi, r, true, events);
                }
            }
        }

        // Inside the fork the world advances under greedy LALBO3 — the
        // lookahead recursing into its own forks would never terminate.
        // Future *arrivals* are invisible to the fork; only the already
        // -pending runtime events replay.
        let outer = self
            .sched
            .replace(Box::new(LalbScheduler::new(DEFAULT_O3_LIMIT)));
        for _ in 0..horizon {
            let Some((t, ev)) = events.pop() else {
                break;
            };
            debug_assert!(t >= self.st.now, "event delivered out of order");
            self.profile.events_popped += 1;
            self.st.now = t;
            #[cfg(feature = "simcheck")]
            if self.st.simcheck.on_event(t) {
                self.audit_invariants();
            }
            self.handle_event(ev, events);
        }
        self.sched = outer;

        // The waiting bill: completions pay their latency, everything
        // still outstanding pays its age as of the fork's end time. The
        // global backlog's share comes from the queue's arrival sum in
        // O(1); the per-GPU queues and batches are fleet-bounded walks.
        let end = self.st.now;
        let age = |r: &Request| end.duration_since(r.arrival).as_micros() as u128;
        let backlog_age = self.st.global_queue.age_ticks(end);
        #[cfg(any(debug_assertions, feature = "simcheck"))]
        assert_eq!(
            backlog_age,
            self.st.global_queue.age_ticks_naive(end),
            "global-queue arrival sum out of sync"
        );
        let mut cost_ticks = self.metrics.latency_ticks_from(lat0) as u128 + backlog_age;
        let mut pending = self.st.global_queue.len();
        for u in &self.st.units {
            pending += u.local_queue.len();
            cost_ticks += u.local_queue.iter().map(age).sum::<u128>();
            if let Some(f) = &u.in_flight {
                cost_ticks += f.requests.iter().map(age).sum::<u128>();
            }
            if let Some(h) = &u.holding {
                cost_ticks += h.requests.iter().map(age).sum::<u128>();
            }
        }
        let score = SpecScore {
            completed: self.metrics.completed() - completed0,
            cost_ticks,
            pending,
        };

        // `take` (not commit) retires only this fork's frame, so pins
        // the caller holds across the pass survive.
        let img = self.journal.take(id).expect("speculation frame is live");
        self.apply_image(img);
        #[cfg(debug_assertions)]
        {
            let q = &self.st.global_queue;
            assert_eq!(
                (q.len(), q.age_ticks(self.st.now)),
                queue_before,
                "the fork's rewind changed the global queue"
            );
            assert!(
                !self.journal.is_empty() || q.is_released(),
                "a fork with no pin beneath it left the queue's undo log behind"
            );
        }
        *events = std::mem::take(&mut self.st.events);
        self.recorder = recorder;
        score
    }

    /// [`GpuUnit::estimated_join_wait`] evaluated from the incremental
    /// aggregate: the preceding coalesced groups are charged from
    /// [`LocalAgg`]'s first-push-ordered sums and the walk early-returns
    /// at the request's own group, so the estimate costs O(preceding
    /// groups) instead of rebuilding a group list from the whole queue on
    /// every call. Byte-identical to the naive walk (same group order,
    /// same totals); debug builds assert that on every call, which is
    /// also what the property tests lean on.
    fn estimated_join_wait_fast(&self, gi: usize, model: ModelId) -> SimDuration {
        self.estimator_calls.set(self.estimator_calls.get() + 1);
        let unit = &self.st.units[gi];
        let mut wait = unit
            .device
            .busy_until()
            .map(|t| t.duration_since(self.st.now))
            .unwrap_or(SimDuration::ZERO);
        'done: {
            if let Some(f) = &unit.in_flight {
                if f.phase == Phase::Loading {
                    if f.model() == model {
                        break 'done; // joins the forming invocation
                    }
                    wait += self.infer_time_on(gi, f.model(), f.items());
                }
            }
            if let Some(h) = &unit.holding {
                wait += h.release_at.duration_since(self.st.now.min(h.release_at));
                if h.model() == model {
                    break 'done; // joins the held batch at its release
                }
                if !unit.device.has_model(h.model()) {
                    wait += self.load_time_on(gi, h.model());
                }
                wait += self.infer_time_on(gi, h.model(), h.items());
            }
            for &(m, items, _) in &self.local_aggs[gi].groups {
                if m == model {
                    break 'done; // shares its own group's invocation
                }
                if !unit.device.has_model(m) {
                    wait += self.load_time_on(gi, m);
                }
                wait += self.infer_time_on(gi, m, items);
            }
        }
        #[cfg(debug_assertions)]
        {
            let spec = unit.device.spec();
            let (compute_scale, load_scale) = (spec.compute_scale, spec.load_scale);
            let registry = &self.registry;
            let naive = unit.estimated_join_wait(
                self.st.now,
                model,
                |m, b| registry.infer_time(m, b).mul_f64(compute_scale),
                |m| self.load_cost_scaled(m, load_scale),
            );
            debug_assert_eq!(wait, naive, "join-wait aggregate out of sync on GPU {gi}");
        }
        wait
    }
}

/// A candidate placement a lookahead policy can fork on — the three §IV
/// arms, addressed at an explicit GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecPlacement {
    /// Dispatch as a cache hit on this idle GPU.
    HitOn(GpuId),
    /// Join this busy GPU's local queue (Algorithm 2's wait arm).
    WaitOn(GpuId),
    /// Dispatch as a miss — load the model — on this idle GPU.
    MissOn(GpuId),
}

/// What a speculative fork observed over its replay horizon. Compared
/// lexicographically: more completions, then a smaller waiting bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecScore {
    /// Requests completed inside the fork.
    pub completed: u64,
    /// The fork's total waiting bill in integer microseconds: latency
    /// accumulated by its completions *plus* the age (time since
    /// arrival) of every request still outstanding — queued globally or
    /// locally, in flight, or held in a forming batch — when the horizon
    /// ended. Charging outstanding work its age (not a headcount) makes
    /// starvation visible to the scorer: a placement that serves the
    /// young and strands the old loses to one that drains the tail.
    pub cost_ticks: u128,
    /// Requests still queued (global + local) when the horizon ended.
    pub pending: usize,
}

impl SpecScore {
    /// Strict "this fork won": ties on every field answer false, so a
    /// deterministic caller iterating candidates in index order keeps
    /// the earliest of equals.
    pub fn better_than(&self, other: &SpecScore) -> bool {
        if self.completed != other.completed {
            return self.completed > other.completed;
        }
        if self.cost_ticks != other.cost_ticks {
            return self.cost_ticks < other.cost_ticks;
        }
        self.pending < other.pending
    }
}

/// Units with a held batch and units draining, counted from scratch —
/// the definition the driver's incremental counters must agree with.
fn fleet_counts(units: &[GpuUnit]) -> (usize, usize) {
    let holding = units.iter().filter(|u| u.holding.is_some()).count();
    let draining = units
        .iter()
        .filter(|u| u.state == UnitState::Draining)
        .count();
    (holding, draining)
}

/// The borrowed cluster view a [`SchedulerPolicy`] works through during a
/// scheduling pass: read access to the global queue, GPU/cache/finish-time
/// state, plus the two Algorithm 2 placement commands that execute on
/// *other* GPUs ([`SchedCtx::dispatch_hit`], [`SchedCtx::enqueue_local`]).
pub struct SchedCtx<'a> {
    cluster: &'a mut Cluster,
    events: &'a mut EventQueue<Event>,
    progress: bool,
}

impl SchedCtx<'_> {
    // --- global queue -------------------------------------------------

    /// Requests currently waiting in the global queue.
    pub fn queue_len(&self) -> usize {
        self.cluster.st.global_queue.len()
    }

    /// The queued request at position `i` (0 = head, arrival order).
    pub fn queued(&self, i: usize) -> &Request {
        self.cluster.st.global_queue.get(i)
    }

    /// Removes and returns the queued request at position `i` for
    /// dispatch.
    pub fn take_queued(&mut self, i: usize) -> Request {
        let r = self
            .cluster
            .st
            .global_queue
            .remove(i)
            .expect("index in bounds");
        let qlen = self.cluster.st.global_queue.len();
        let now = self.cluster.st.now;
        self.cluster.note_queue_depth(now, qlen);
        if self.cluster.recorder.is_some() {
            self.cluster.emit(ObsEvent::QueueDepth { len: qlen });
        }
        r
    }

    /// Records that the request at position `i` was passed over by
    /// out-of-order dispatch (Algorithm 1's visit counter).
    pub fn note_skip(&mut self, i: usize) {
        self.cluster.st.global_queue.note_visit(i);
    }

    /// True iff §VI isolation forbids dispatching more work for `tenant`.
    pub fn tenant_blocked(&self, tenant: u16) -> bool {
        self.cluster.tenant_blocked(tenant)
    }

    // --- GPU state ----------------------------------------------------

    /// True iff `gpu` has no request in flight.
    pub fn is_idle(&self, gpu: GpuId) -> bool {
        self.cluster.st.units[gpu.0 as usize].is_idle()
    }

    /// Requests waiting in `gpu`'s local queue. An idle GPU with a
    /// backlog is mid-pass — Algorithm 1's local priority will serve it
    /// before new work may target it, so hit-elsewhere arms must skip it.
    pub fn local_backlog(&self, gpu: GpuId) -> usize {
        self.cluster.st.units[gpu.0 as usize].local_queue.len()
    }

    /// Cache hits `gpu` has served (Algorithm 1's frequency ordering key).
    pub fn hits(&self, gpu: GpuId) -> u64 {
        self.cluster.st.units[gpu.0 as usize].hits
    }

    /// When `gpu` last became idle (LB's longest-idle ordering key).
    pub fn idle_since(&self, gpu: GpuId) -> SimTime {
        self.cluster.st.units[gpu.0 as usize].idle_since
    }

    /// Estimated time until `gpu` drains its in-flight request and local
    /// queue (the paper's finish-time estimate), on this GPU's own
    /// compute and PCIe profiles. Queued requests whose model is not
    /// resident are charged their upload as well as their inference, so
    /// the wait-vs-load comparison stays honest for policies that queue
    /// non-resident work. When a batching policy is active, same-model
    /// queued work is charged as one coalesced invocation — the time the
    /// driver will actually spend — which makes waiting at a busy holder
    /// correctly cheaper than replicating the model.
    pub fn estimated_wait(&self, gpu: GpuId) -> SimDuration {
        self.cluster.estimated_wait_fast(gpu.0 as usize)
    }

    /// The wait a request for `model` would see before being *served* if
    /// queued at busy `gpu` — what Algorithm 2 compares against the load
    /// time. Under per-request dispatch this is exactly
    /// [`SchedCtx::estimated_wait`]; under batching the request shares
    /// its model's coalesced invocation (a forming load, a held batch,
    /// or a local-queue group), so only preceding work counts.
    pub fn estimated_wait_for(&self, gpu: GpuId, model: ModelId) -> SimDuration {
        if self.cluster.batcher.is_passthrough() {
            return self.estimated_wait(gpu);
        }
        self.cluster.estimated_join_wait_fast(gpu.0 as usize, model)
    }

    /// Time to upload `model` onto `gpu` (scaled by its PCIe profile).
    pub fn load_time(&self, gpu: GpuId, model: ModelId) -> SimDuration {
        self.cluster.load_time_on(gpu.0 as usize, model)
    }

    // --- cache state --------------------------------------------------

    /// True iff `model` is resident on `gpu`.
    pub fn is_cached(&self, gpu: GpuId, model: ModelId) -> bool {
        self.cluster.cache.is_cached(gpu, model)
    }

    /// GPUs currently holding `model`, in id order (the §VI replica
    /// list), borrowed without allocating. Only online GPUs count: a
    /// draining GPU still holds its models but must not attract new work,
    /// and its residents are about to be evicted anyway.
    pub fn online_holders(&self, model: ModelId) -> impl Iterator<Item = GpuId> + '_ {
        let units = &self.cluster.st.units;
        self.cluster
            .cache
            .holders(model)
            .iter()
            .copied()
            .filter(move |&g| units[g.0 as usize].state == UnitState::Online)
    }

    /// Algorithm 2's busy-holder pick: the online holder of `model` with
    /// the smallest [`SchedCtx::estimated_wait_for`], the lower id winning
    /// ties, or `None` when no online GPU holds `model`. The minimum is
    /// exact, but only holders that could still win are estimated: a
    /// holder whose O(1) lower bound already reaches the best wait found
    /// so far is skipped.
    pub fn min_wait_holder(&self, model: ModelId) -> Option<(SimDuration, GpuId)> {
        let whole_queue = self.cluster.batcher.is_passthrough();
        let mut best: Option<(SimDuration, GpuId)> = None;
        // Holders arrive in id order, so on equal waits the first stays.
        for j in self.online_holders(model) {
            let gi = j.0 as usize;
            if let Some((b, _)) = best {
                if self.cluster.wait_floor(gi, whole_queue) >= b {
                    continue;
                }
            }
            let wait = self.estimated_wait_for(j, model);
            debug_assert!(
                wait >= self.cluster.wait_floor(gi, whole_queue),
                "wait floor above the estimate on {j}"
            );
            if best.is_none_or(|(b, _)| wait < b) {
                best = Some((wait, j));
            }
        }
        best
    }

    // --- config / time ------------------------------------------------

    /// Algorithm 2's busy-holder handling (ablation knob).
    pub fn busy_wait(&self) -> BusyWaitPolicy {
        self.cluster.config.busy_wait
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.st.now
    }

    // --- placement commands (execute immediately) ---------------------

    /// Dispatches `r` as a cache hit on idle GPU `gpu` (Algorithm 2's
    /// hit-elsewhere arm). Executes immediately so later decisions in the
    /// same pass see `gpu` busy.
    pub fn dispatch_hit(&mut self, gpu: GpuId, r: Request) {
        let gi = gpu.0 as usize;
        debug_assert!(
            self.cluster.st.units[gi].local_queue.is_empty(),
            "idle GPUs have drained local queues"
        );
        if self.cluster.recorder.is_some() {
            let id = r.id;
            self.cluster.emit(ObsEvent::SchedArm {
                req: id,
                arm: Arm::HitRemote,
            });
        }
        self.cluster.dispatch_batched(gi, r, true, self.events);
        self.progress = true;
    }

    /// Appends `r` to busy GPU `gpu`'s local queue (Algorithm 2's
    /// wait-on-busy arm). Executes immediately so later finish-time
    /// estimates in the same pass include `r`.
    pub fn enqueue_local(&mut self, gpu: GpuId, r: Request) {
        let gi = gpu.0 as usize;
        if self.cluster.recorder.is_some() {
            let (id, model) = (r.id, r.model);
            self.cluster.emit(ObsEvent::SchedArm {
                req: id,
                arm: Arm::WaitBusy,
            });
            self.cluster.emit(ObsEvent::LocalEnqueue {
                req: id,
                gpu,
                model,
            });
        }
        self.cluster.push_local(gi, r);
        self.progress = true;
    }

    /// Dispatches `r` as a cache miss (load, then inference) on idle GPU
    /// `gpu` — completes the placement command set so a policy can
    /// execute any [`SpecPlacement`] it scored, not just the arms
    /// addressed at the GPU currently being served.
    pub fn dispatch_miss(&mut self, gpu: GpuId, r: Request) {
        let gi = gpu.0 as usize;
        if self.cluster.recorder.is_some() {
            let id = r.id;
            self.cluster.emit(ObsEvent::SchedArm {
                req: id,
                arm: Arm::Miss,
            });
        }
        self.cluster.dispatch_batched(gi, r, false, self.events);
        self.progress = true;
    }

    /// What-if fork: tries placing the queued request at `queue_index`
    /// per `placement`, replays up to `horizon` pending runtime events
    /// under greedy LALBO3, and reports the outcome — then restores the
    /// world byte-identically, as if the fork never ran.
    pub fn speculate(
        &mut self,
        queue_index: usize,
        placement: SpecPlacement,
        horizon: usize,
    ) -> SpecScore {
        self.cluster
            .speculate_placement(self.events, queue_index, placement, horizon)
    }

    /// Executes a policy's dispatch for `gpu` (driver-internal).
    fn apply(&mut self, gpu: GpuId, dispatch: Dispatch) {
        let gi = gpu.0 as usize;
        match dispatch {
            Dispatch::None => {}
            Dispatch::Hit(r) => {
                if self.cluster.recorder.is_some() {
                    let id = r.id;
                    self.cluster.emit(ObsEvent::SchedArm {
                        req: id,
                        arm: Arm::HitLocal,
                    });
                }
                self.cluster.dispatch_batched(gi, r, true, self.events);
                self.progress = true;
            }
            Dispatch::Miss(r) => {
                if self.cluster.recorder.is_some() {
                    let id = r.id;
                    self.cluster.emit(ObsEvent::SchedArm {
                        req: id,
                        arm: Arm::Miss,
                    });
                }
                self.cluster.dispatch_batched(gi, r, false, self.events);
                self.progress = true;
            }
        }
    }
}

/// The borrowed, read-only cluster view an [`Autoscaler`] observes on
/// each step: global queue depth, fleet composition, and per-GPU
/// utilisation and residency signals.
pub struct ScaleView<'a> {
    pub(crate) cluster: &'a Cluster,
}

impl ScaleView<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.st.now
    }

    /// Requests waiting in the global queue — the pressure signal.
    pub fn queue_len(&self) -> usize {
        self.cluster.st.global_queue.len()
    }

    /// Devices in the pool (online + draining + offline) — the autoscale
    /// `max_gpus`.
    pub fn total_gpus(&self) -> usize {
        self.cluster.st.units.len()
    }

    /// Online (dispatchable) GPUs.
    pub fn active_gpus(&self) -> usize {
        self.cluster.online_gpus()
    }

    /// GPUs currently draining toward offline.
    pub fn draining_gpus(&self) -> usize {
        self.cluster
            .st
            .units
            .iter()
            .filter(|u| u.state == UnitState::Draining)
            .count()
    }

    /// Online GPUs with a request in flight.
    pub fn busy_gpus(&self) -> usize {
        self.cluster
            .st
            .units
            .iter()
            .filter(|u| u.state == UnitState::Online && !u.is_idle())
            .count()
    }

    /// The online GPUs, in id order.
    pub fn online(&self) -> Vec<GpuId> {
        self.cluster
            .st
            .units
            .iter()
            .filter(|u| u.state == UnitState::Online)
            .map(|u| u.id())
            .collect()
    }

    /// How long `gpu` has been idle, or `None` when busy or not online.
    pub fn idle_secs(&self, gpu: GpuId) -> Option<f64> {
        let unit = &self.cluster.st.units[gpu.0 as usize];
        (unit.state == UnitState::Online && unit.is_idle()).then(|| {
            self.cluster
                .st
                .now
                .duration_since(unit.idle_since)
                .as_secs_f64()
        })
    }

    /// Depth of `gpu`'s local queue.
    pub fn local_depth(&self, gpu: GpuId) -> usize {
        self.cluster.st.units[gpu.0 as usize].local_queue.len()
    }

    /// Number of models resident on `gpu`.
    pub fn resident_models(&self, gpu: GpuId) -> usize {
        self.cluster.st.units[gpu.0 as usize]
            .device
            .resident_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Policy;
    use gfaas_models::zoo::{Family, ModelSpec};
    use gfaas_snap::{SnapError, HEADER_LEN};
    use gfaas_trace::TraceRequest;

    /// A registry of `n` identical small models: 100 MiB, 1 s load, 1 s
    /// inference at batch 32 — easy arithmetic for assertions.
    fn toy_registry(n: usize) -> ModelRegistry {
        let specs: Vec<ModelSpec> = (0..n)
            .map(|i| ModelSpec {
                name: Box::leak(format!("toy{i}").into_boxed_str()),
                occupancy_mib: 100,
                load_secs: 1.0,
                infer_secs_b32: 1.0,
                family: Family::ResNet,
            })
            .collect();
        ModelRegistry::from_specs(specs)
    }

    /// Latency in seconds of request `req`, read from the run's ledger.
    fn ledger_latency(c: &Cluster, req: u64) -> f64 {
        let ledger = c.ledger().expect("ledger recorded");
        let row = ledger.rows().iter().find(|r| r.req == req).expect("row");
        assert!(row.completed, "request {req} completed");
        row.latency.as_secs_f64()
    }

    fn trace_of(reqs: &[(f64, u32)]) -> Trace {
        Trace::new(
            reqs.iter()
                .map(|&(s, m)| TraceRequest {
                    at: SimTime::from_secs_f64(s),
                    function: m,
                    model: m,
                })
                .collect(),
        )
    }

    fn cluster(gpus: usize, mem_mib: u64, policy: Policy, nmodels: usize) -> Cluster {
        Cluster::new(
            ClusterConfig::test(gpus, mem_mib, policy),
            toy_registry(nmodels),
        )
    }

    #[test]
    fn single_request_is_a_cold_miss() {
        let mut c = cluster(1, 1000, Policy::lalb(), 1);
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert_eq!(m.completed, 1);
        assert_eq!(m.miss_ratio, 1.0);
        assert_eq!(m.false_miss_ratio, 0.0, "cold miss is not a false miss");
        // Latency = load (1 s) + inference (1 s).
        assert!((m.avg_latency_secs - 2.0).abs() < 1e-6);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let mut c = cluster(1, 1000, Policy::lalb(), 1);
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 0), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert!((m.miss_ratio - 1.0 / 3.0).abs() < 1e-9);
        // Hits take only the 1 s inference.
        assert!((m.max_latency_secs - 2.0).abs() < 1e-6);
    }

    #[test]
    fn lalb_routes_to_the_gpu_with_the_model() {
        // Two GPUs; model 0 lands on one of them; a later request for
        // model 0 must hit even though the other GPU is idle (and longest
        // idle, which would attract an LB dispatch).
        let mut c = cluster(2, 1000, Policy::lalb(), 2);
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.misses, 2, "only the two cold loads miss");
        assert_eq!(m.false_misses, 0);
    }

    #[test]
    fn lb_ignores_locality_and_false_misses() {
        // Two GPUs. Request A(m0) → gpu0. B(m1) → gpu1. C(m0) arrives when
        // both idle; LB picks the longest-idle GPU = gpu0 — which *does*
        // hold m0... so use 3 GPUs to force the false miss deterministically:
        // gpu2 has been idle longest (never used) and lacks m0.
        let mut c = cluster(3, 1000, Policy::lb(), 2);
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.misses, 3, "LB sends the repeat to the cold GPU");
        assert_eq!(m.false_misses, 1, "the repeat was cached elsewhere");
    }

    #[test]
    fn lalb_waits_on_busy_holder_when_faster_than_loading() {
        // One GPU holds model 0 and is busy with a 1 s inference; load
        // time is 1 s. A second request for model 0 arrives mid-inference:
        // remaining wait (~0.5 s) < load (1 s) → join the local queue, hit.
        let mut c = cluster(2, 1000, Policy::lalb(), 1);
        let m = c.run(&trace_of(&[(0.0, 0), (2.5, 0)]));
        // First: load 1s + infer 1s, busy [0,2]... arrives 2.5 when idle.
        // Make it overlap instead:
        assert_eq!(m.completed, 2);
        let mut c2 = cluster(2, 1000, Policy::lalb(), 1);
        let m2 = c2.run(&trace_of(&[(0.0, 0), (1.5, 0)]));
        // At t=1.5 gpu0 is inferring until t=2 (wait 0.5 < load 1).
        assert_eq!(m2.misses, 1, "second request waits for the busy holder");
        assert_eq!(c2.local_moves(), 1);
        // First request: load+infer = 2 s latency. Second: starts at t=2
        // off the local queue, finishes t=3 → latency 1.5 s.
        assert!((m2.max_latency_secs - 2.0).abs() < 1e-6);
        assert!((m2.avg_latency_secs - 1.75).abs() < 1e-6);
    }

    #[test]
    fn lalb_prefers_idle_miss_when_busy_holder_is_slow() {
        // gpu0 holds model 0 but has a long local backlog; a cold load on
        // idle gpu1 (1 s) beats waiting. Build backlog with three quick
        // requests for model 0 arriving together, then the probe.
        let mut c = cluster(2, 1000, Policy::lalb(), 1);
        let m = c.run(&trace_of(&[(0.0, 0), (0.1, 0), (0.2, 0), (0.3, 0)]));
        // t=0: miss on gpu0 (load until 1, infer until 2).
        // t=0.1: holder busy, wait = 1.9 > load 1 → miss on gpu1.
        // t=0.2: holders both busy; waits (1.8, 1.9-ish)... with both busy
        // and no idle GPU nothing dispatches until one frees.
        assert_eq!(m.completed, 4);
        assert_eq!(m.misses, 2, "duplicate replica created by load balancing");
        assert_eq!(
            m.false_misses, 1,
            "the replica is a false miss by definition"
        );
    }

    #[test]
    fn o3_dispatches_later_hit_ahead_of_head() {
        // gpu0 holds m0, gpu1 holds m1; both become idle at t≈2. Queue at
        // that moment: [m2 (cold), m0]. With O3, gpu0 should serve m0
        // first (hit), skipping m2; m2 then loads on gpu1's... gpu1 scans:
        // no m1 request; LLB places m2 as a miss there.
        let mut c = cluster(2, 1000, Policy::lalbo3(), 3);
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 1), (1.5, 2), (1.6, 0)]));
        assert_eq!(m.completed, 4);
        // Misses: m0 cold, m1 cold, m2 cold = 3. The m0 repeat must hit.
        assert_eq!(m.misses, 3);
        assert_eq!(m.hit_ratio, 0.25);
    }

    #[test]
    fn lalb_without_o3_serves_in_order() {
        // Same workload as the O3 test but limit 0: when gpu0 frees up,
        // the head (m2, cold) is placed there first, and m0's repeat then
        // replicates m0 onto gpu1 because waiting behind m2's load+infer
        // (2 s) is slower than a fresh 1 s load. In-order service costs a
        // fourth miss — and it is a false miss — exactly the behaviour O3
        // dispatch eliminates (compare `o3_dispatches_later_hit_ahead_of_head`).
        let mut c = cluster(2, 1000, Policy::lalb(), 3);
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 1), (1.5, 2), (1.6, 0)]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(m.false_misses, 1);
    }

    #[test]
    fn starvation_limit_bounds_visits() {
        // One m1 request queues at the head while a long stream of m0
        // hits arrives behind it (m0 is resident, m1 is not). O3 keeps
        // skipping the m1 head in favour of the m0 hits, incrementing its
        // visit counter each pass; once the counter reaches the limit the
        // head must be dispatched regardless. We read the per-request
        // latency back from the lifecycle ledger.
        let run = |limit: u32| {
            let mut cfg = ClusterConfig::test(1, 250, Policy::lalb_with_limit(limit));
            cfg.record.ledger = true;
            let mut c = Cluster::new(cfg, toy_registry(2));
            let mut reqs = vec![(0.0, 0), (0.1, 1)]; // id 0 = m0, id 1 = m1
            for i in 0..20 {
                reqs.push((0.2 + i as f64 * 0.01, 0));
            }
            let m = c.run(&trace_of(&reqs));
            assert_eq!(m.completed, 22);
            ledger_latency(&c, 1)
        };
        // Limit 2: m1 is skipped twice (t=2, t=3 passes), then force-
        // dispatched: load 4→5, infer 5→6 → latency ≈ 5.9 s.
        let bounded = run(2);
        assert!((bounded - 5.9).abs() < 0.01, "bounded latency {bounded}");
        // A huge limit starves m1 behind all 20 hits: served at t≈22.
        let starved = run(1000);
        assert!(starved > 20.0, "starved latency {starved}");
    }

    #[test]
    fn eviction_under_memory_pressure() {
        // GPU fits two 100 MiB models; touch three models round-robin.
        let mut c = cluster(1, 250, Policy::lalb(), 3);
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (10.0, 1),
            (20.0, 2), // evicts m0 (LRU)
            (30.0, 0), // miss again (was evicted), evicts m1
        ]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn duplicates_metric_tracks_hot_model() {
        let mut c = cluster(3, 1000, Policy::lb(), 2);
        // Hot model 0 gets replicated by LB across GPUs.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.1, 0),
            (0.2, 0),
            (10.0, 0),
            (10.1, 0),
        ]));
        assert_eq!(m.completed, 5);
        assert!(m.avg_duplicates > 0.5, "duplicates {:?}", m.avg_duplicates);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = trace_of(&[(0.0, 0), (0.5, 1), (1.0, 2), (1.5, 0), (2.0, 1)]);
        let m1 = cluster(2, 250, Policy::lalbo3(), 3).run(&t);
        let m2 = cluster(2, 250, Policy::lalbo3(), 3).run(&t);
        assert_eq!(m1, m2);
    }

    #[test]
    fn saturated_queue_eventually_drains() {
        // 50 requests for 5 models on 1 small GPU: heavy thrash, but all
        // must complete and the makespan must be finite and consistent.
        let reqs: Vec<(f64, u32)> = (0..50).map(|i| (i as f64 * 0.01, (i % 5) as u32)).collect();
        let mut c = cluster(1, 250, Policy::lalbo3(), 5);
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 50);
        assert!(m.makespan_secs > 50.0, "50 × ≥1 s of serial inference");
        assert!(m.queue_peak > 10);
    }

    #[test]
    fn heterogeneous_gpu_uses_its_own_profile() {
        // One GPU scaled to half load and half inference time: a cold
        // request costs 0.5 + 0.5 = 1 s instead of 2 s.
        let mut cfg = ClusterConfig::test(1, 1000, Policy::lalb());
        cfg.hetero_specs = Some(vec![gfaas_gpu::GpuSpec::test(1000).with_scales(0.5, 0.5)]);
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert!(
            (m.avg_latency_secs - 1.0).abs() < 1e-6,
            "{}",
            m.avg_latency_secs
        );
    }

    #[test]
    fn heterogeneous_estimation_prefers_fast_busy_holder() {
        // gpu0 (fast, holds m0, busy) vs gpu1 (slow, idle). The fast
        // holder's estimated wait (0.25 s remaining) beats a slow cold
        // load (1 s) → the repeat request queues locally and hits.
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalb());
        cfg.hetero_specs = Some(vec![
            gfaas_gpu::GpuSpec::test(1000).with_scales(0.5, 0.5),
            gfaas_gpu::GpuSpec::test(1000),
        ]);
        let mut c = Cluster::new(cfg, toy_registry(1));
        // First m0 at t=0 → fast gpu0 (ids tie-break): busy until t=1.0.
        // Second m0 at t=0.75: gpu0 wait 0.25 < load-on-gpu1 1.0 → wait.
        let m = c.run(&trace_of(&[(0.0, 0), (0.75, 0)]));
        assert_eq!(m.misses, 1, "repeat must wait for the fast holder");
        assert_eq!(c.local_moves(), 1);
    }

    #[test]
    fn tenant_cap_serialises_one_tenant() {
        // Tenant 0 (even functions) capped at 1 concurrent request; three
        // of its requests arrive together on a 3-GPU cluster. They must
        // run one at a time even though GPUs are free.
        let mut cfg = ClusterConfig::test(3, 1000, Policy::lalbo3());
        cfg.num_tenants = 2;
        cfg.tenant_max_inflight = Some(1);
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 0), (0.0, 0)]));
        assert_eq!(m.completed, 3);
        // Serialised: 2 s (cold) + 1 s + 1 s → last completes at t=4,
        // so max latency is 4 s (vs 2 s if run in parallel).
        assert!(
            (m.max_latency_secs - 4.0).abs() < 1e-6,
            "{}",
            m.max_latency_secs
        );
    }

    #[test]
    fn tenant_cap_does_not_starve_other_tenants() {
        // Tenant 0 floods; tenant 1's single request (odd function rank)
        // must still be served promptly on a free GPU.
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalbo3());
        cfg.num_tenants = 2;
        cfg.tenant_max_inflight = Some(1);
        cfg.record.ledger = true;
        let mut c = Cluster::new(cfg, toy_registry(2));
        // ids: 0..4 are tenant 0 (function 0 → model 0); id 5 is tenant 1.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.0, 0),
            (0.0, 0),
            (0.0, 0),
            (0.0, 0),
            (0.1, 1),
        ]));
        assert_eq!(m.completed, 6);
        let lat = ledger_latency(&c, 5);
        // Tenant 1's request cold-loads immediately on the second GPU:
        // ~2 s, not behind tenant 0's ~6 s backlog.
        assert!(lat < 2.5, "tenant 1 latency {lat}");
    }

    #[test]
    fn crashes_are_retried_and_complete() {
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalbo3());
        cfg.crash_rate = 0.3;
        cfg.seed = 5;
        let mut c = Cluster::new(cfg, toy_registry(3));
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.8, (i % 3) as u32)).collect();
        let m = c.run(&trace_of(&reqs));
        // Every request completes exactly once despite crashes.
        assert_eq!(m.completed, 40);
        assert!(c.crashes() > 0, "30% crash rate must fire at least once");
        // A crashed model was evicted, so crashes inflate the miss count
        // beyond the distinct-model minimum.
        assert!(m.misses > 3);
        // Ratios stay sane.
        assert!(m.miss_ratio <= 1.0 && m.hit_ratio <= 1.0);
    }

    #[test]
    fn crash_free_config_never_crashes() {
        let mut c = cluster(2, 1000, Policy::lalbo3(), 2);
        let m = c.run(&trace_of(&[(0.0, 0), (1.0, 1), (2.0, 0)]));
        assert_eq!(c.crashes(), 0);
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn crash_latency_includes_the_retry() {
        // With crash_rate 1.0 nothing would ever complete (every attempt
        // crashes); use a rate that certainly fires on the first draw for
        // this seed but lets the retry through. Probe seeds for one where
        // exactly the first attempt crashes.
        for seed in 0..50u64 {
            let mut cfg = ClusterConfig::test(1, 1000, Policy::lalb());
            cfg.crash_rate = 0.5;
            cfg.seed = seed;
            let mut c = Cluster::new(cfg, toy_registry(1));
            let m = c.run(&trace_of(&[(0.0, 0)]));
            assert_eq!(m.completed, 1);
            if c.crashes() == 1 {
                // load 1s + partial inference + reload 1s + inference 1s
                // → latency strictly above the crash-free 2 s.
                assert!(m.avg_latency_secs > 2.0, "latency {}", m.avg_latency_secs);
                return;
            }
        }
        panic!("no seed in 0..50 produced exactly one crash");
    }

    #[test]
    fn sm_utilization_counts_inference_only() {
        // One request: load 1 s + infer 1 s → SM busy 1 of 2 s.
        let mut c = cluster(1, 1000, Policy::lalb(), 1);
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert!((m.sm_utilization - 0.5).abs() < 1e-6);
    }

    // ------------------------------------------------------------------
    // Autoscaling
    // ------------------------------------------------------------------

    #[test]
    fn fixed_cluster_reports_full_fleet_gpu_seconds() {
        let mut c = cluster(2, 1000, Policy::lalb(), 1);
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert!(
            (m.gpu_seconds_provisioned - 2.0 * m.makespan_secs).abs() < 1e-9,
            "{} vs {}",
            m.gpu_seconds_provisioned,
            m.makespan_secs
        );
        assert_eq!(m.scale_up_events, 0);
        assert_eq!(m.scale_down_events, 0);
        assert_eq!(c.online_bounds(), (2, 2));
    }

    #[test]
    fn queue_pressure_scales_up_then_releases_the_quiet_fleet() {
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalbo3());
        cfg.autoscale = Some("queue:min=1,max=4,up=3,down=0,cadence=1".parse().unwrap());
        let mut c = Cluster::new(cfg, toy_registry(4));
        // A 12-request burst at t=0 swamps the 2-GPU initial fleet; a
        // long quiet gap then lets the autoscaler release capacity before
        // a final straggler arrives.
        let mut reqs: Vec<(f64, u32)> = (0..12).map(|i| (0.0, (i % 4) as u32)).collect();
        reqs.push((40.0, 0));
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 13, "no request lost across scale events");
        assert!(m.scale_up_events >= 2, "burst must provision GPUs");
        assert!(m.scale_down_events >= 1, "quiet gap must release GPUs");
        let (low, high) = c.online_bounds();
        assert!(high > 2 && high <= 4, "high watermark {high}");
        assert_eq!(low, 1, "fleet must drain to the configured minimum");
        // Elasticity must cost less than keeping the peak fleet all run.
        assert!(m.gpu_seconds_provisioned < 4.0 * m.makespan_secs);
        assert!(m.gpu_seconds_provisioned > 0.0);
    }

    #[test]
    fn autoscaled_runs_are_deterministic() {
        let run = || {
            let mut cfg = ClusterConfig::test(2, 500, Policy::lalbo3());
            cfg.autoscale = Some("queue:min=1,max=4,up=2,down=0,cadence=1".parse().unwrap());
            let mut c = Cluster::new(cfg, toy_registry(5));
            let reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.2, (i % 5) as u32)).collect();
            c.run(&trace_of(&reqs))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn draining_gpu_finishes_in_flight_and_local_queue_then_goes_offline() {
        /// Returns `Down(1)` on its first step, then holds — pinning the
        /// drain to an instant where both GPUs are busy, so the victim
        /// must wind down real work.
        #[derive(Debug)]
        struct DrainOnce {
            fired: bool,
        }
        impl crate::autoscale::Autoscaler for DrainOnce {
            fn name(&self) -> String {
                "drain-once".into()
            }
            fn cadence(&self) -> SimDuration {
                SimDuration::from_secs_f64(1.5)
            }
            fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision {
                if self.fired {
                    return ScaleDecision::Hold;
                }
                self.fired = true;
                assert_eq!(view.busy_gpus(), 3, "drain must hit a fully busy fleet");
                ScaleDecision::Down(1)
            }
        }

        let mut cfg = ClusterConfig::test(3, 1000, Policy::lalb());
        cfg.autoscale = Some("queue:min=1,max=3,up=9,down=0,cadence=1".parse().unwrap());
        let mut c = Cluster::new(cfg, toy_registry(3));
        c.set_autoscaler(Box::new(DrainOnce { fired: false }));
        // t=0: m0 → gpu0 (load 1 + infer 1). t=0.1: m1 → gpu1. t=1.2:
        // m0 again — gpu0's remaining wait (0.8 s) beats a 1 s load, so
        // idle gpu2's pass queues it locally at gpu0. t=1.3: cold m2
        // occupies gpu2, so the tick at t=1.5 sees all three GPUs busy
        // and drains the tie-break victim gpu0 — which must still serve
        // both its in-flight request and the locally queued hit before
        // going offline. A final m2 repeat at t=3.5 hits the survivor.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.1, 1),
            (1.2, 0),
            (1.3, 2),
            (3.5, 2),
        ]));
        assert_eq!(m.completed, 5, "drained requests are not lost");
        assert_eq!(c.local_moves(), 1, "the repeat queued at the busy holder");
        assert_eq!(m.misses, 3, "the locally queued request still hits");
        assert_eq!(m.scale_down_events, 1);
        assert_eq!(c.online_bounds(), (2, 3));
        assert_eq!(c.online_gpus(), 2);
        // Drain evictions clear the victim's device without polluting the
        // replacement-policy eviction count.
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.st.units[0].device.resident_count(), 0);
        assert_eq!(c.st.units[0].state, UnitState::Offline);
    }

    #[test]
    #[should_panic(expected = "set_autoscaler")]
    fn set_autoscaler_requires_an_autoscale_config() {
        let mut c = cluster(1, 1000, Policy::lalb(), 1);
        c.set_autoscaler(
            crate::autoscale::AutoscaleSpec::default()
                .build()
                .expect("default spec builds"),
        );
    }

    // ------------------------------------------------------------------
    // The pluggable policy surface
    // ------------------------------------------------------------------

    #[test]
    fn spec_strings_drive_the_cluster() {
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalbo3());
        cfg.policy = "lalbo3:25".parse().unwrap();
        cfg.replacement = "tinylfu:0.9".parse().unwrap();
        let mut c = Cluster::new(cfg, toy_registry(2));
        assert_eq!(c.scheduler_name(), "LALBO3");
        assert_eq!(c.evictor_name(), "tinylfu");
        let m = c.run(&trace_of(&[(0.0, 0), (1.0, 1), (10.0, 0)]));
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn try_new_surfaces_bad_specs_and_configs() {
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalb());
        cfg.policy = crate::policy::PolicySpec::bare("belady");
        assert!(Cluster::try_new(cfg, toy_registry(1)).is_err());
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalb());
        cfg.batch_size = 0;
        assert!(matches!(
            Cluster::try_new(cfg, toy_registry(1)),
            Err(ConfigError::ZeroBatch)
        ));
    }

    #[test]
    #[should_panic(expected = "invalid cluster config")]
    fn new_panics_on_invalid_config() {
        let mut cfg = ClusterConfig::test(4, 1000, Policy::lalb());
        cfg.gpus_per_node = 3; // does not divide 4
        let _ = Cluster::new(cfg, toy_registry(1));
    }

    #[test]
    fn injected_policy_objects_match_the_enum_path() {
        // The open path (`with_policies`) must behave bit-identically to
        // the compat enum path for the paper's policies.
        let t = trace_of(&[(0.0, 0), (0.3, 1), (0.9, 2), (1.5, 0), (2.0, 1), (2.2, 2)]);
        let via_enum = cluster(2, 250, Policy::lalbo3(), 3).run(&t);
        let cfg = ClusterConfig::test(2, 250, Policy::lalbo3());
        let seed = cfg.seed;
        let mut injected = Cluster::with_policies(
            cfg,
            toy_registry(3),
            Box::new(crate::scheduler::LalbScheduler::new(25)),
            crate::cache::ReplacementPolicy::Lru.build(seed),
        )
        .unwrap();
        assert_eq!(injected.run(&t), via_enum);
    }

    // ------------------------------------------------------------------
    // Request batching
    // ------------------------------------------------------------------

    /// A test cluster with the given batching spec.
    fn batched_cluster(gpus: usize, nmodels: usize, batching: &str) -> Cluster {
        let mut cfg = ClusterConfig::test(gpus, 1000, Policy::lalb());
        cfg.batching = batching.parse().unwrap();
        Cluster::new(cfg, toy_registry(nmodels))
    }

    #[test]
    fn coalesce_merges_a_same_model_backlog_into_one_invocation() {
        // Four m0 requests arrive together on one GPU. Per-request: load
        // 1 s + 4 sequential 1 s inferences (done at 2, 3, 4, 5). With
        // coalescing, the three requests queued behind the lead join its
        // invocation when the load completes: one batch-128 inference =
        // 0.1 + 0.9 × 4 = 3.7 s, everyone done at 4.7 s.
        let mut c = batched_cluster(1, 1, "coalesce:max=8,wait=0.05");
        assert_eq!(c.batcher_name(), "coalesce(max=8)");
        let m = c.run(&trace_of(&[(0.0, 0), (0.01, 0), (0.02, 0), (0.03, 0)]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.invocations, 1, "one coalesced invocation");
        assert_eq!(m.avg_effective_batch, 4.0);
        assert_eq!(m.batched_requests, 4);
        assert_eq!(m.effective_batch_hist, vec![(4, 1)]);
        assert_eq!(m.misses, 1, "riders share the lead's upload");
        assert!((m.makespan_secs - 4.7).abs() < 1e-6, "{}", m.makespan_secs);
        // Busy time: 1 s load + 3.7 s inference.
        assert!((m.gpu_busy_seconds - 4.7).abs() < 1e-6);
    }

    #[test]
    fn held_batch_launches_early_when_it_fills() {
        // m0's cold load+infer occupies the GPU until t=2 while two more
        // m0 requests queue up. At t=2 the dispatch coalesces both (take
        // 2 < max 3) and holds until 2.5; the arrival at t=2.2 fills the
        // batch, which launches immediately: 3-request inference =
        // 0.1 + 0.9 × 3 = 2.8 s → makespan 5.0, not 2.5 + 2.8.
        let mut c = batched_cluster(1, 1, "coalesce:max=3,wait=0.5");
        let m = c.run(&trace_of(&[(0.0, 0), (1.5, 0), (1.6, 0), (2.2, 0)]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.effective_batch_hist, vec![(1, 1), (3, 1)]);
        assert_eq!(m.batched_requests, 3);
        assert!((m.makespan_secs - 5.0).abs() < 1e-6, "{}", m.makespan_secs);
    }

    #[test]
    fn hold_timer_fires_when_no_one_joins() {
        // As above but nothing arrives during the hold: the BatchHold
        // timer fires at t=2.5 and launches the partial 2-request batch
        // (0.1 + 0.9 × 2 = 1.9 s) → makespan 4.4.
        let mut c = batched_cluster(1, 1, "coalesce:max=3,wait=0.5");
        let m = c.run(&trace_of(&[(0.0, 0), (1.5, 0), (1.6, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.effective_batch_hist, vec![(1, 1), (2, 1)]);
        assert_eq!(m.batched_requests, 2);
        assert!((m.makespan_secs - 4.4).abs() < 1e-6, "{}", m.makespan_secs);
    }

    #[test]
    fn batching_none_is_identical_to_the_paper_path() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.11, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let legacy = cluster(3, 400, Policy::lalbo3(), 5).run(&t);
        let mut cfg = ClusterConfig::test(3, 400, Policy::lalbo3());
        cfg.batching = "none".parse().unwrap();
        let none = Cluster::new(cfg, toy_registry(5)).run(&t);
        assert_eq!(legacy, none);
    }

    #[test]
    fn batched_runs_are_deterministic_and_conserve_requests() {
        let reqs: Vec<(f64, u32)> = (0..80).map(|i| (i as f64 * 0.07, (i % 6) as u32)).collect();
        let t = trace_of(&reqs);
        for spec in [
            "coalesce:max=4,wait=0.05",
            "adaptive:slo=20,max=8,wait=0.05",
        ] {
            let a = batched_cluster(3, 6, spec).run(&t);
            let b = batched_cluster(3, 6, spec).run(&t);
            assert_eq!(a, b, "{spec}");
            assert_eq!(a.completed, 80, "{spec}");
            assert!(a.batched_requests > 0, "{spec} must coalesce something");
        }
    }

    #[test]
    fn coalescing_respects_the_tenant_inflight_cap() {
        // §VI isolation must hold through the batching layer: with a
        // 1-request tenant cap, a coalesced dispatch may not pull the
        // capped tenant's queued requests into its batch (the forming
        // batch itself counts toward the cap). The three requests
        // serialise exactly like the per-request dispatch test:
        // 2 s (cold) + 1 s + 1 s → max latency 4 s.
        let mut cfg = ClusterConfig::test(3, 1000, Policy::lalbo3());
        cfg.num_tenants = 2;
        cfg.tenant_max_inflight = Some(1);
        cfg.batching = "coalesce:max=8,wait=0.05".parse().unwrap();
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 0), (0.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.batched_requests, 0, "the cap forbids coalescing here");
        assert!(
            (m.max_latency_secs - 4.0).abs() < 1e-6,
            "{}",
            m.max_latency_secs
        );
    }

    #[test]
    fn batching_survives_crashes_without_losing_requests() {
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalbo3());
        cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
        cfg.crash_rate = 0.3;
        cfg.seed = 5;
        let mut c = Cluster::new(cfg, toy_registry(3));
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.3, (i % 3) as u32)).collect();
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 40, "crashed batches retry whole");
        assert!(c.crashes() > 0);
    }

    #[test]
    fn draining_gpu_with_held_batch_finishes_before_going_offline() {
        // A GPU drained *mid-hold* must still launch and finish its held
        // batch before going offline.
        #[derive(Debug)]
        struct DrainAll;
        impl crate::autoscale::Autoscaler for DrainAll {
            fn name(&self) -> String {
                "drain-all".into()
            }
            fn cadence(&self) -> SimDuration {
                SimDuration::from_secs_f64(2.2)
            }
            fn step(&mut self, _view: &ScaleView<'_>) -> ScaleDecision {
                ScaleDecision::Down(1)
            }
        }
        let mut cfg = ClusterConfig::test(2, 1000, Policy::lalb());
        cfg.batching = "coalesce:max=4,wait=0.5".parse().unwrap();
        cfg.autoscale = Some(
            "queue:min=1,max=2,up=99,down=0,cadence=2.2"
                .parse()
                .unwrap(),
        );
        let mut c = Cluster::new(cfg, toy_registry(2));
        c.set_autoscaler(Box::new(DrainAll));
        // gpu0 runs m0 until t=2 while two more m0 requests queue; at t=2
        // they form a held batch (release 2.5). gpu1 runs m1 work and is
        // busy again at the t=2.2 tick, so the victim order (both busy,
        // stalest idle_since first) drains gpu0 — mid-hold. The hold must
        // still fire, run its batch on the draining GPU, and only then
        // take it offline.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.1, 1),
            (1.5, 0),
            (1.6, 0),
            (2.15, 1),
        ]));
        assert_eq!(m.completed, 5, "held requests survive the drain");
        assert_eq!(m.scale_down_events, 1);
        assert_eq!(m.effective_batch_hist, vec![(1, 3), (2, 1)]);
        assert_eq!(c.st.units[0].state, UnitState::Offline);
        assert!(c.st.units[0].holding.is_none());
        assert_eq!(c.online_gpus(), 1);
    }

    #[test]
    fn injected_custom_batcher_overrides_the_spec() {
        /// Merges everything available, never holds.
        #[derive(Debug)]
        struct TakeAll;
        impl crate::batching::BatchPolicy for TakeAll {
            fn name(&self) -> String {
                "take-all".into()
            }
            fn plan(&mut self, view: &crate::batching::BatchView) -> crate::batching::BatchPlan {
                crate::batching::BatchPlan {
                    max_requests: 1 + view.available,
                    hold: None,
                }
            }
        }
        let mut c = batched_cluster(1, 1, "none");
        c.set_batcher(Box::new(TakeAll));
        assert_eq!(c.batcher_name(), "take-all");
        let m = c.run(&trace_of(&[(0.0, 0), (0.01, 0), (0.02, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.invocations, 1);
        assert_eq!(m.avg_effective_batch, 3.0);
    }

    #[test]
    fn custom_scheduler_plugs_into_the_cluster() {
        /// Dispatches the queue head to the *lowest-id* idle GPU,
        /// ignoring locality and idle time — not a builtin policy.
        #[derive(Debug)]
        struct FirstGpu;
        impl SchedulerPolicy for FirstGpu {
            fn name(&self) -> String {
                "first-gpu".into()
            }
            fn idle_order(&mut self, _ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
                idle.sort();
            }
            fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
                if ctx.queue_len() == 0 {
                    return Dispatch::None;
                }
                let r = ctx.take_queued(0);
                if ctx.is_cached(gpu, r.model) {
                    Dispatch::Hit(r)
                } else {
                    Dispatch::Miss(r)
                }
            }
        }

        let cfg = ClusterConfig::test(3, 1000, Policy::lalb());
        let seed = cfg.seed;
        let mut c = Cluster::with_policies(
            cfg,
            toy_registry(2),
            Box::new(FirstGpu),
            crate::cache::ReplacementPolicy::Lru.build(seed),
        )
        .unwrap();
        assert_eq!(c.scheduler_name(), "first-gpu");
        // Requests arriving while all GPUs idle always land on gpu0.
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        // gpu0 evicted nothing (1000 MiB fits both models), served all
        // three: the repeat of m0 is a hit because gpu0 still holds it.
        assert_eq!(m.misses, 2);
    }

    #[test]
    fn work_queued_on_an_idle_gpu_is_served_next_round() {
        /// Parks a hit in the idle GPU's own local queue instead of
        /// dispatching it: the driver's backlog tracking must still
        /// serve it.
        #[derive(Debug)]
        struct QueueHere;
        impl SchedulerPolicy for QueueHere {
            fn name(&self) -> String {
                "queue-here".into()
            }
            fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
                let r = ctx.take_queued(0);
                if ctx.is_cached(gpu, r.model) {
                    ctx.enqueue_local(gpu, r);
                    Dispatch::None
                } else {
                    Dispatch::Miss(r)
                }
            }
        }

        let cfg = ClusterConfig::test(2, 1000, Policy::lalb());
        let seed = cfg.seed;
        let mut c = Cluster::with_policies(
            cfg,
            toy_registry(1),
            Box::new(QueueHere),
            crate::cache::ReplacementPolicy::Lru.build(seed),
        )
        .unwrap();
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 0), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(
            c.local_moves(),
            2,
            "both repeats went through the local queue"
        );
    }

    #[test]
    fn min_wait_holder_matches_a_full_estimator_sweep() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        /// LALB+O3, checking before every decision that the pruned
        /// holder search returns the full sweep's minimum for each
        /// queued model.
        #[derive(Debug)]
        struct Checked(LalbScheduler, Arc<AtomicUsize>);
        impl SchedulerPolicy for Checked {
            fn name(&self) -> String {
                "checked".into()
            }
            fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
                for i in 0..ctx.queue_len() {
                    let model = ctx.queued(i).model;
                    let sweep = ctx
                        .online_holders(model)
                        .map(|j| (ctx.estimated_wait_for(j, model), j))
                        .min();
                    assert_eq!(ctx.min_wait_holder(model), sweep);
                    if ctx.online_holders(model).count() >= 3 {
                        // Relaxed: a test statistic publishing no data.
                        self.1.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.0.on_gpu_idle(gpu, ctx)
            }
        }

        let reqs: Vec<(f64, u32)> = (0..240)
            .map(|i| (i as f64 * 0.05, (i % 2) as u32))
            .collect();
        for batching in ["none", "coalesce:max=4,wait=0.05"] {
            let mut cfg = ClusterConfig::test(6, 1000, Policy::lalbo3());
            cfg.batching = batching.parse().unwrap();
            let seed = cfg.seed;
            let checks = Arc::new(AtomicUsize::new(0));
            let mut c = Cluster::with_policies(
                cfg,
                toy_registry(2),
                Box::new(Checked(LalbScheduler::new(25), checks.clone())),
                crate::cache::ReplacementPolicy::Lru.build(seed),
            )
            .unwrap();
            assert_eq!(c.run(&trace_of(&reqs)).completed, 240);
            assert!(
                checks.load(Ordering::Relaxed) > 100,
                "{batching}: replicated models must be searched"
            );
        }
    }

    // ------------------------------------------------------------------
    // Versioned state: snapshot / rollback / checkpoint / lookahead
    // ------------------------------------------------------------------

    /// A busy little workload: 30 requests over 6 models on 3 GPUs with
    /// 300 MiB each (evictions!), batching and autoscaling enabled — every
    /// journaled component carries non-trivial state.
    fn snap_fixture() -> (ClusterConfig, Trace) {
        let mut cfg = ClusterConfig::test(3, 300, Policy::lalbo3());
        cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
        cfg.autoscale = Some("queue:min=2,max=4,up=6,down=1".parse().unwrap());
        let reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.13, (i % 6) as u32)).collect();
        (cfg, trace_of(&reqs))
    }

    fn snap_cluster(cfg: &ClusterConfig) -> Cluster {
        Cluster::new(cfg.clone(), toy_registry(6))
    }

    #[test]
    fn run_until_then_resume_is_byte_identical_to_a_full_run() {
        let (cfg, t) = snap_fixture();
        let full = snap_cluster(&cfg).run(&t);
        let mut paused = snap_cluster(&cfg);
        paused.run_until(&t, SimTime::from_secs_f64(3.0));
        assert!(paused.metrics.completed() > 0, "the pause point is mid-run");
        assert!(paused.metrics.completed() < 30);
        paused.run_until(&t, SimTime::from_secs_f64(5.0));
        assert_eq!(paused.resume(&t), full, "pausing must not perturb the run");
    }

    #[test]
    fn rollback_restores_byte_identical_state() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.3));
        let before = c.checkpoint(&t);
        let id = c.snapshot();
        assert_eq!(c.journal_depth(), 1);
        c.run_until(&t, SimTime::from_secs_f64(2.9));
        assert_ne!(c.checkpoint(&t), before, "the run advanced past the pin");
        assert!(c.rollback(id));
        // The checkpoint codec serialises every field of mutable state, so
        // byte equality here is the strongest restore check we can make.
        assert_eq!(c.checkpoint(&t), before, "rollback must be byte-exact");
        // The pin survives rollback: advance and rewind a second time.
        c.run_until(&t, SimTime::from_secs_f64(4.2));
        assert!(c.rollback(id));
        assert_eq!(c.checkpoint(&t), before);
        // A rolled-back cluster finishes exactly like an unperturbed one.
        let full = snap_cluster(&cfg).run(&t);
        assert_eq!(c.resume(&t), full);
    }

    #[test]
    fn commit_retires_pins_and_rollback_of_retired_pin_fails() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        let old = c.snapshot();
        c.run_until(&t, SimTime::from_secs_f64(1.5));
        let new = c.snapshot();
        assert_eq!(c.journal_depth(), 2);
        // Committing the newer pin retires it *and* everything older.
        assert!(c.commit(new));
        assert_eq!(c.journal_depth(), 0);
        assert!(!c.rollback(old), "retired pins must not restore");
        assert!(!c.rollback(new));
        assert!(!c.commit(new), "double-commit is rejected");
        let stats = c.journal_stats();
        assert_eq!(stats.snapshots, 2);
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.rollbacks, 0, "failed rollbacks do not count");
    }

    #[test]
    fn restore_retires_live_pins() {
        // A pin taken at 3 s describes a future the state restored from
        // 1 s never had: rolling back to it must refuse, not panic or
        // rewind the queue and the latency samples to marks past their
        // ends.
        let (cfg, t) = snap_fixture();
        let mut early = snap_cluster(&cfg);
        early.run_until(&t, SimTime::from_secs_f64(1.0));
        let bytes = early.checkpoint(&t);
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(3.0));
        let id = c.snapshot();
        c.restore(&bytes, &t).unwrap();
        assert_eq!(c.journal_depth(), 0);
        assert!(!c.rollback(id), "a pin from before the restore is dead");
        assert!(!c.commit(id));
        assert!(c.st.global_queue.is_released());
        let mut warm = snap_cluster(&cfg);
        warm.restore(&bytes, &t).unwrap();
        assert_eq!(c.resume(&t), warm.resume(&t));
    }

    #[test]
    fn the_last_commit_drops_the_queue_undo_log() {
        // Two pins over a saturated stretch: the queue logs its writes
        // while either is live, and retiring the last one drops the log
        // so it cannot grow across the rest of the run.
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.02, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let cfg = ClusterConfig::test(2, 300, Policy::lalbo3());
        let mut c = Cluster::new(cfg, toy_registry(5));
        c.run_until(&t, SimTime::from_secs_f64(0.2));
        assert!(c.st.global_queue.is_released(), "no pin, no log");
        let old = c.snapshot();
        c.run_until(&t, SimTime::from_secs_f64(0.5));
        let new = c.snapshot();
        c.run_until(&t, SimTime::from_secs_f64(1.5));
        assert!(!c.st.global_queue.is_released(), "pinned writes are logged");
        assert!(c.commit(old));
        assert!(
            !c.st.global_queue.is_released(),
            "the younger pin still needs the log"
        );
        assert!(c.commit(new));
        assert!(c.st.global_queue.is_released());
        c.run_until(&t, SimTime::from_secs_f64(2.5));
        assert!(
            c.st.global_queue.is_released(),
            "unpinned writes are not logged"
        );
    }

    #[test]
    fn plain_runs_never_touch_the_journal() {
        // Zero-cost guarantee: without snapshots or lookahead, the
        // journal stays empty for the whole run.
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run(&t);
        let stats = c.journal_stats();
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.commits, 0);
        assert_eq!(c.journal_depth(), 0);
    }

    #[test]
    fn checkpoint_restore_warm_start_is_byte_identical() {
        let (cfg, t) = snap_fixture();
        let full = snap_cluster(&cfg).run(&t);
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.9));
        let bytes = c.checkpoint(&t);
        // Restore into a *fresh* cluster with the same config and warm-start.
        let mut warm = snap_cluster(&cfg);
        warm.restore(&bytes, &t).unwrap();
        assert_eq!(warm.checkpoint(&t), bytes, "restore round-trips the wire");
        assert_eq!(warm.resume(&t), full, "warm start reproduces the full run");
        // The original paused cluster agrees too.
        assert_eq!(c.resume(&t), full);
    }

    #[test]
    fn restore_rejects_foreign_and_corrupt_checkpoints() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        let bytes = c.checkpoint(&t);

        // Wrong config: different fleet size.
        let mut other = Cluster::new(
            ClusterConfig::test(4, 300, Policy::lalbo3()),
            toy_registry(6),
        );
        assert!(matches!(
            other.restore(&bytes, &t),
            Err(SnapError::ConfigMismatch)
        ));

        // Wrong trace: one extra request.
        let mut reqs: Vec<(f64, u32)> =
            (0..30).map(|i| (i as f64 * 0.13, (i % 6) as u32)).collect();
        reqs.push((9.9, 0));
        assert!(matches!(
            snap_cluster(&cfg).restore(&bytes, &trace_of(&reqs)),
            Err(SnapError::TraceMismatch)
        ));

        // Truncated payload.
        assert!(snap_cluster(&cfg)
            .restore(&bytes[..bytes.len() - 3], &t)
            .is_err());

        // Corrupt magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            snap_cluster(&cfg).restore(&bad, &t),
            Err(SnapError::BadMagic)
        ));

        // A failed restore leaves the target untouched and runnable —
        // also when the damage sits late in a body whose checksum holds:
        // an unknown event tag, trailing bytes after the metrics, a body
        // cut short inside the metrics (the last two fail after the
        // policies were loaded, so their old state must be put back).
        let first = c.st.events.entries()[0];
        let mut event = first.0.as_micros().to_le_bytes().to_vec();
        event.extend_from_slice(&first.1.to_le_bytes());
        let late = [
            (
                resealed(&c, &t, |body| {
                    let at = find_unique(body, &event) + event.len();
                    body[at] = 9;
                }),
                SnapError::Corrupt("unknown event tag"),
            ),
            (
                resealed(&c, &t, |body| body.push(0)),
                SnapError::TrailingBytes(1),
            ),
            (
                resealed(&c, &t, |body| body.truncate(body.len() - 3)),
                SnapError::Truncated,
            ),
        ];
        let full = snap_cluster(&cfg).run(&t);
        let mut target = snap_cluster(&cfg);
        assert!(target.restore(&bad, &t).is_err());
        for (damaged, err) in late {
            assert_eq!(target.restore(&damaged, &t), Err(err));
        }
        assert_eq!(target.run(&t), full);
    }

    /// The one offset at which `needle` occurs in `hay`.
    fn find_unique(hay: &[u8], needle: &[u8]) -> usize {
        let hits: Vec<usize> = (0..=hay.len() - needle.len())
            .filter(|&i| hay[i..i + needle.len()] == *needle)
            .collect();
        assert_eq!(hits.len(), 1, "the pattern is located unambiguously");
        hits[0]
    }

    /// `c`'s checkpoint with its body edited and then sealed again the
    /// way [`Cluster::checkpoint`] seals it, so the checksum holds and
    /// the decoder or the audit is what must catch the damage.
    fn resealed(c: &Cluster, t: &Trace, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = c.checkpoint(t)[HEADER_LEN..].to_vec();
        edit(&mut body);
        c.seal(t, &body)
    }

    /// A deliberate corruption of a paused cluster's state.
    type StateEdit = fn(&mut SimState);

    /// The snapshot fixture paused at `at` seconds, its state edited by
    /// `edit`, then checkpointed.
    fn tampered(at: f64, edit: impl FnOnce(&mut SimState)) -> Vec<u8> {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(at));
        assert!(snap_cluster(&cfg).restore(&c.checkpoint(&t), &t).is_ok());
        edit(&mut c.st);
        c.checkpoint(&t)
    }

    /// Restores `bytes` into a fresh fixture cluster.
    fn restore_fixture(bytes: &[u8]) -> Result<(), SnapError> {
        let (cfg, t) = snap_fixture();
        snap_cluster(&cfg).restore(bytes, &t)
    }

    #[test]
    fn restore_rejects_every_single_bit_flip_and_leaves_the_target_untouched() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        let bytes = c.checkpoint(&t);
        let full = snap_cluster(&cfg).run(&t);
        let mut target = snap_cluster(&cfg);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(target.restore(&bad, &t).is_err(), "bit {bit} flipped");
        }
        assert_eq!(target.run(&t), full);
    }

    #[test]
    fn restore_rejects_gpu_ids_out_of_range() {
        // A completion for GPU 32769 on a four-GPU cluster would index
        // past the units when it fires.
        let bad = tampered(1.0, |st| {
            let mut entries: Vec<_> = st
                .events
                .entries()
                .into_iter()
                .map(|(at, seq, ev)| (at, seq, ev.clone()))
                .collect();
            let Event::GpuDone(g, _) = &mut entries[0].2 else {
                panic!("the first pending event is a completion");
            };
            g.0 |= 0x8000;
            let q = &st.events;
            let (next, scheduled, delivered) =
                (q.next_seq(), q.total_scheduled(), q.total_delivered());
            st.events = EventQueue::from_parts(entries, next, scheduled, delivered);
        });
        assert_eq!(
            restore_fixture(&bad),
            Err(SnapError::Corrupt("event names a gpu out of range"))
        );
    }

    #[test]
    fn restore_rejects_model_ids_out_of_range() {
        // The fixture registers six models.
        let edits: [StateEdit; 3] = [
            |st| st.hot_model = Some(ModelId(999)),
            |st| {
                let mut queued: Vec<Request> = st.global_queue.iter().copied().collect();
                queued[0].model = ModelId(999);
                st.global_queue = queued.into();
            },
            |st| {
                let u = st.units.iter_mut().find(|u| u.in_flight.is_some());
                u.and_then(|u| u.in_flight.as_mut()).unwrap().requests[0].model = ModelId(999);
            },
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            assert_eq!(
                restore_fixture(&tampered(1.0, edit)),
                Err(SnapError::Corrupt("model id out of range")),
                "edit {i}"
            );
        }
    }

    #[test]
    fn restore_rejects_work_without_its_pending_event() {
        // A dispatch token that no pending completion carries: the real
        // completion would be dropped as stale and the GPU never freed.
        let bad = tampered(1.0, |st| {
            let u = st.units.iter_mut().find(|u| u.in_flight.is_some());
            u.and_then(|u| u.in_flight.as_mut()).unwrap().seq += 1;
        });
        assert_eq!(
            restore_fixture(&bad),
            Err(SnapError::Corrupt(
                "in-flight work has no pending completion"
            ))
        );
        // Likewise a held batch whose timer carries another token.
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        let mut at = 0.0;
        while c.st.holding_units == 0 {
            at += 0.01;
            assert!(at < 4.0, "the fixture parks a batch");
            c.run_until(&t, SimTime::from_secs_f64(at));
        }
        let bad = tampered(at, |st| {
            let u = st.units.iter_mut().find(|u| u.holding.is_some());
            u.and_then(|u| u.holding.as_mut()).unwrap().seq += 1;
        });
        assert_eq!(
            restore_fixture(&bad),
            Err(SnapError::Corrupt("held batch has no pending timer"))
        );
    }

    #[test]
    fn restore_rejects_an_inconsistent_clock_or_an_empty_batch() {
        let edits: [(StateEdit, &str); 3] = [
            // Every pending event would lie in the past.
            (
                |st| st.now = SimTime::from_secs(1000),
                "event pending before the clock",
            ),
            // A rewound cursor would admit an arrival a second time.
            (|st| st.next_arrival -= 1, "clock past the next arrival"),
            (
                |st| {
                    let u = st.units.iter_mut().find(|u| u.in_flight.is_some());
                    u.and_then(|u| u.in_flight.as_mut())
                        .unwrap()
                        .requests
                        .clear();
                },
                "empty batch",
            ),
        ];
        for (edit, why) in edits {
            assert_eq!(
                restore_fixture(&tampered(1.0, edit)),
                Err(SnapError::Corrupt(why))
            );
        }
    }

    #[test]
    fn rollback_rewinds_the_self_profile() {
        // The profile is journaled but not checkpointed, so the
        // byte-comparing rollback tests cannot see it. At t=1.5 the
        // second request weighs waiting on the busy holder against a
        // load (Algorithm 2), so the estimator runs after the pin.
        let t = trace_of(&[(0.0, 0), (1.5, 0)]);
        let mut c = cluster(2, 1000, Policy::lalb(), 1);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        let pinned = c.self_profile();
        let id = c.snapshot();
        c.run_until(&t, SimTime::from_secs_f64(3.0));
        let moved = c.self_profile();
        assert!(moved.estimator_calls > pinned.estimator_calls);
        assert!(moved.events_popped > pinned.events_popped);
        assert!(c.rollback(id));
        assert_eq!(c.self_profile(), pinned);
    }

    // ------------------------------------------------------------------
    // Idle index and fleet counters (derived state)
    // ------------------------------------------------------------------

    /// Asserts the derived fleet state against a scan of the units.
    fn assert_fleet_index(c: &Cluster) {
        assert_eq!(c.idle, IdleIndex::of(&c.st.units), "idle index");
        assert_eq!(
            (c.st.holding_units, c.st.draining_units),
            fleet_counts(&c.st.units),
            "holding/draining counters"
        );
    }

    /// Runs `t` in `step`-second slices, checking the fleet index at
    /// every pause, and returns the metrics; pausing never perturbs a
    /// run, so they must equal an unpaused run's.
    fn run_stepped(c: &mut Cluster, t: &Trace, step: f64) -> RunMetrics {
        let mut at = 0.0;
        while c.metrics.completed() < t.len() as u64 {
            at += step;
            c.run_until(t, SimTime::from_secs_f64(at));
            assert_fleet_index(c);
        }
        c.resume(t)
    }

    #[test]
    fn idle_index_follows_crashes_scaling_and_held_batches() {
        let mut crashy = ClusterConfig::test(3, 300, Policy::lalbo3());
        crashy.crash_rate = 0.3;
        crashy.seed = 5;
        let steady: Vec<(f64, u32)> = (0..80).map(|i| (i as f64 * 0.05, (i % 5) as u32)).collect();
        let mut elastic = ClusterConfig::test(2, 1000, Policy::lalbo3());
        elastic.autoscale = Some("queue:min=1,max=4,up=3,down=0,cadence=1".parse().unwrap());
        let mut burst: Vec<(f64, u32)> = (0..12).map(|i| (0.0, (i % 4) as u32)).collect();
        burst.push((40.0, 0));
        // The snapshot fixture batches and autoscales on a small fleet.
        let (batched, batched_trace) = snap_fixture();
        let cases = [
            (crashy, trace_of(&steady), 5, 0.25),
            (elastic, trace_of(&burst), 4, 0.5),
            (batched, batched_trace, 6, 0.07),
        ];
        let (mut crashes, mut scale_downs, mut holds) = (0, 0, 0);
        for (cfg, t, nmodels, step) in cases {
            let full = Cluster::new(cfg.clone(), toy_registry(nmodels)).run(&t);
            let mut c = Cluster::new(cfg, toy_registry(nmodels));
            let m = run_stepped(&mut c, &t, step);
            assert_eq!(m, full, "pausing must not perturb the run");
            crashes += c.crashes();
            scale_downs += m.scale_down_events;
            holds += c.self_profile().holds_parked;
        }
        assert!(crashes > 0, "the crash path must fire");
        assert!(scale_downs > 0, "scale-up and drain must fire");
        assert!(holds > 0, "held batches must form");
    }

    #[test]
    fn idle_index_is_rebuilt_on_rollback_and_warm_start() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        // Early on two of the three GPUs are still idle; by 1.3 s the
        // fixture saturates every GPU.
        c.run_until(&t, SimTime::from_secs_f64(0.1));
        let pinned = c.idle.clone();
        assert_eq!(pinned.len(), 2);
        let id = c.snapshot();
        c.run_until(&t, SimTime::from_secs_f64(1.3));
        assert!(c.idle.is_empty(), "the fleet moved past the pin");
        assert!(c.rollback(id));
        assert_eq!(c.idle, pinned);
        assert_fleet_index(&c);
        let bytes = c.checkpoint(&t);
        let mut warm = snap_cluster(&cfg);
        warm.restore(&bytes, &t).unwrap();
        assert_eq!(warm.idle, pinned);
        assert_fleet_index(&warm);
        assert_eq!(warm.resume(&t), snap_cluster(&cfg).run(&t));
    }

    #[test]
    fn restore_rejects_corrupt_fleet_counters() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(0.1));
        // The two counters are consecutive little-endian words between
        // the fleet watermarks and trace size and the busy-seconds
        // accumulator; locate that run of words.
        let mut tail = Vec::new();
        for w in [
            c.st.online_low as u64,
            c.st.online_high as u64,
            c.st.pending_total,
            c.st.holding_units as u64,
            c.st.draining_units as u64,
            c.st.busy_secs.to_bits(),
        ] {
            tail.extend_from_slice(&w.to_le_bytes());
        }
        for counter in 0..2 {
            let bad = resealed(&c, &t, |body| {
                let at = find_unique(body, &tail) + (3 + counter) * 8;
                body[at] ^= 1;
            });
            assert_eq!(
                snap_cluster(&cfg).restore(&bad, &t),
                Err(SnapError::Corrupt("fleet counters disagree with the units")),
                "counter {counter} flipped"
            );
        }
        assert!(snap_cluster(&cfg).restore(&c.checkpoint(&t), &t).is_ok());
    }

    /// A test cluster driven by the lookahead what-if scheduler.
    fn lookahead_cluster(gpus: usize, mem_mib: u64, nmodels: usize, k: usize) -> Cluster {
        let cfg = ClusterConfig::test(gpus, mem_mib, Policy::lalbo3());
        let seed = cfg.seed;
        Cluster::with_policies(
            cfg,
            toy_registry(nmodels),
            Box::new(crate::scheduler::LookaheadScheduler::new(k, 8, 25)),
            crate::cache::ReplacementPolicy::Lru.build(seed),
        )
        .unwrap()
    }

    #[test]
    fn lookahead_serves_every_request_and_retires_every_fork() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let mut c = lookahead_cluster(3, 300, 5, 4);
        assert_eq!(c.scheduler_name(), "Lookahead(k=4,h=8)");
        let m = c.run(&t);
        assert_eq!(m.completed, 60);
        let stats = c.journal_stats();
        assert!(stats.snapshots > 0, "contended placements must speculate");
        assert_eq!(
            stats.snapshots, stats.rollbacks,
            "every fork is rolled back, none leaks"
        );
        assert_eq!(c.journal_depth(), 0, "no frames survive the run");
    }

    #[test]
    fn lookahead_runs_are_deterministic() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let a = lookahead_cluster(3, 300, 5, 4).run(&t);
        let b = lookahead_cluster(3, 300, 5, 4).run(&t);
        assert_eq!(a, b);
    }

    #[test]
    fn lookahead_with_k1_executes_without_forking() {
        // k=1 keeps only the first candidate arm: placement is decided
        // without speculation, so the journal must stay untouched.
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.11, (i % 4) as u32)).collect();
        let t = trace_of(&reqs);
        let mut c = lookahead_cluster(2, 300, 4, 1);
        let m = c.run(&t);
        assert_eq!(m.completed, 40);
        assert_eq!(c.journal_stats().snapshots, 0);
    }

    #[test]
    fn speculation_does_not_perturb_the_chosen_timeline() {
        // The lookahead run must itself be a valid simulation: conserve
        // requests and, like every policy, produce identical metrics when
        // paused and resumed (the fork/rollback machinery composes with
        // the user-facing snapshot API).
        let reqs: Vec<(f64, u32)> = (0..50).map(|i| (i as f64 * 0.08, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let full = lookahead_cluster(3, 300, 5, 4).run(&t);
        let mut paused = lookahead_cluster(3, 300, 5, 4);
        paused.run_until(&t, SimTime::from_secs_f64(2.0));
        assert_eq!(paused.resume(&t), full);
    }

    /// Every §IV arm open to the queued request at `i` at `c`'s paused
    /// instant: a hit on each idle holder, a wait at each busy one, a
    /// miss on each idle non-holder.
    fn arms_for(c: &Cluster, i: usize) -> Vec<SpecPlacement> {
        let model = c.st.global_queue.get(i).model;
        let online = c.st.units.iter().filter(|u| u.state == UnitState::Online);
        online
            .filter_map(|u| match (u.is_idle(), u.device.has_model(model)) {
                (true, true) => Some(SpecPlacement::HitOn(u.id())),
                (false, true) => Some(SpecPlacement::WaitOn(u.id())),
                (true, false) => Some(SpecPlacement::MissOn(u.id())),
                (false, false) => None,
            })
            .collect()
    }

    /// Forks every arm of the first queued request that has one at `c`'s
    /// paused instant, and checks each fork is invisible — the
    /// checkpoint bytes do not move — and, with no pin live, leaves no
    /// undo log behind. Returns the forks made.
    fn fork_every_arm(c: &mut Cluster, t: &Trace, horizon: usize) -> usize {
        let before = c.checkpoint(t);
        let pinned = c.journal_depth() > 0;
        let Some((i, arms)) = (0..c.st.global_queue.len())
            .map(|i| (i, arms_for(c, i)))
            .find(|(_, arms)| !arms.is_empty())
        else {
            return 0;
        };
        for &arm in &arms {
            let mut events = std::mem::take(&mut c.st.events);
            c.speculate_placement(&mut events, i, arm, horizon);
            c.st.events = events;
            assert!(pinned || c.st.global_queue.is_released(), "{arm:?}");
            assert_eq!(c.checkpoint(t), before, "{arm:?} must be invisible");
        }
        arms.len()
    }

    #[test]
    fn forks_leave_no_undo_log_and_no_trace() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let full = lookahead_cluster(3, 300, 5, 4).run(&t);
        let mut c = lookahead_cluster(3, 300, 5, 4);
        let mut forks = 0;
        for step in 1..=30 {
            c.run_until(&t, SimTime::from_secs_f64(step as f64 * 0.2));
            // The lookahead's own forks ran in between.
            assert!(c.st.global_queue.is_released(), "step {step}");
            if !c.st.global_queue.is_empty() {
                forks += fork_every_arm(&mut c, &t, 16);
            }
        }
        assert!(forks > 5, "the backlog must be forked on repeatedly");
        assert_eq!(c.resume(&t), full);
        assert!(
            c.journal_stats().snapshots > forks as u64,
            "and by the policy"
        );
        assert!(c.st.global_queue.is_released());
    }

    #[test]
    fn a_crash_requeued_inside_a_fork_is_undone() {
        let mut cfg = ClusterConfig::test(3, 300, Policy::lalbo3());
        cfg.crash_rate = 0.4;
        cfg.seed = 3;
        let seed = cfg.seed;
        let build = || {
            Cluster::with_policies(
                cfg.clone(),
                toy_registry(5),
                Box::new(crate::scheduler::LookaheadScheduler::new(4, 16, 25)),
                crate::cache::ReplacementPolicy::Lru.build(seed),
            )
            .unwrap()
        };
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.03, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let full = build().run(&t);
        let mut c = build();
        let mut crashed_in_fork = 0;
        for step in 1..=20 {
            c.run_until(&t, SimTime::from_secs_f64(step as f64 * 0.1));
            if c.st.global_queue.is_empty() {
                continue;
            }
            // A pending crash whose token is still live fires before its
            // completion (it is scheduled earlier), so a fork replaying
            // every pending event requeues that batch with `push_front`.
            let live_crash = c.st.events.entries().into_iter().any(|(_, _, ev)| {
                matches!(*ev, Event::GpuCrash(g, seq)
                    if c.st.units[g.0 as usize].in_flight.as_ref().is_some_and(|f| f.seq == seq))
            });
            let horizon = c.st.events.len() + 64;
            // A caller's pin is live across the forks: they must rewind
            // to their own marks and leave the pin's log usable.
            let before = c.checkpoint(&t);
            let id = c.snapshot();
            if fork_every_arm(&mut c, &t, horizon) > 0 {
                crashed_in_fork += live_crash as usize;
            }
            assert!(c.rollback(id));
            assert_eq!(c.checkpoint(&t), before);
            assert!(c.commit(id));
            assert!(c.st.global_queue.is_released());
        }
        assert!(crashed_in_fork > 0, "a fork must replay a live crash");
        assert!(c.crashes() > 0);
        assert_eq!(c.resume(&t), full);
    }
}

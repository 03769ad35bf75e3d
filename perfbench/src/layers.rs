//! Per-layer tracing from outside the simulator.
//!
//! Every policy layer of `gfaas-core` is an open trait the cluster calls
//! through a `Box<dyn _>`. The decorators here implement those traits
//! around the builtin objects, forward every method (the defaulted ones
//! too, so the decorated run takes exactly the undecorated code paths),
//! and record one span per call into a thread-local [`Tracer`]. The
//! caller opens a root span around `Cluster::run`; a layer's self time is
//! its spans' durations minus the child spans they cover, and the root's
//! self time is the cluster's own work (event loop, dispatch, completion
//! handling, estimators).
//!
//! Not every call gets a span: name and property queries
//! (`name`, `is_passthrough`, `cadence`, `sample_cadence`) are forwarded
//! only, and `Recorder::record` — a no-op sink here, fired about ten
//! times per request — is counted, in a run of its own, because a span
//! around it would time the tracer's own clock reads and attaching a
//! recorder makes the cluster build every event.
//!
//! Lookahead forks have no hook of their own; a fork captures every
//! subsystem's state (calling `BatchPolicy::save_state`) and rolls back
//! (calling `BatchPolicy::load_state`), so the batcher decorator brackets
//! each fork with a `snap.fork` span between those two calls.

use std::cell::RefCell;
use std::time::Instant;

use gfaas_core::obs::Arm;
use gfaas_core::snap::{Dec, Enc, SnapError};
use gfaas_core::{
    Autoscaler, BatchPlan, BatchPolicy, BatchView, Dispatch, Evictor, ObsEvent, Recorder,
    ScaleDecision, ScaleView, SchedCtx, SchedulerPolicy,
};
use gfaas_gpu::{GpuId, ModelId};
use gfaas_sim::time::{SimDuration, SimTime};

/// What a span measured. The discriminant indexes per-kind tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Cluster::run`, opened by the caller: the root of every trace.
    Run,
    IdleOrder,
    OnGpuIdle,
    OnInsert,
    OnHit,
    OnRemove,
    Order,
    PickVictim,
    CacheSaveState,
    CacheLoadState,
    BatchPlan,
    AutoscaleStep,
    /// One lookahead fork: capture, trial placement, replay, rollback.
    Fork,
}

impl Kind {
    pub const ALL: [Kind; 13] = [
        Kind::Run,
        Kind::IdleOrder,
        Kind::OnGpuIdle,
        Kind::OnInsert,
        Kind::OnHit,
        Kind::OnRemove,
        Kind::Order,
        Kind::PickVictim,
        Kind::CacheSaveState,
        Kind::CacheLoadState,
        Kind::BatchPlan,
        Kind::AutoscaleStep,
        Kind::Fork,
    ];

    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "cluster.run",
            Kind::IdleOrder => "scheduler.idle_order",
            Kind::OnGpuIdle => "scheduler.on_gpu_idle",
            Kind::OnInsert => "cache.on_insert",
            Kind::OnHit => "cache.on_hit",
            Kind::OnRemove => "cache.on_remove",
            Kind::Order => "cache.order",
            Kind::PickVictim => "cache.pick_victim",
            Kind::CacheSaveState => "cache.save_state",
            Kind::CacheLoadState => "cache.load_state",
            Kind::BatchPlan => "batching.plan",
            Kind::AutoscaleStep => "autoscale.step",
            Kind::Fork => "snap.fork",
        }
    }

    /// The layer a span's self time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Kind::Run => Layer::Cluster,
            Kind::IdleOrder | Kind::OnGpuIdle => Layer::Scheduler,
            Kind::OnInsert
            | Kind::OnHit
            | Kind::OnRemove
            | Kind::Order
            | Kind::PickVictim
            | Kind::CacheSaveState
            | Kind::CacheLoadState => Layer::Cache,
            Kind::BatchPlan => Layer::Batching,
            Kind::AutoscaleStep => Layer::Autoscale,
            Kind::Fork => Layer::Snap,
        }
    }
}

/// The layers self time is accounted to; they partition the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cluster,
    Scheduler,
    Cache,
    Batching,
    Autoscale,
    Snap,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Cluster,
        Layer::Scheduler,
        Layer::Cache,
        Layer::Batching,
        Layer::Autoscale,
        Layer::Snap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Cluster => "cluster",
            Layer::Scheduler => "scheduler",
            Layer::Cache => "cache",
            Layer::Batching => "batching",
            Layer::Autoscale => "autoscale",
            Layer::Snap => "snap",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call: nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX` for the root.
    pub parent: u32,
}

/// Counters the decorators keep beside the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// `on_gpu_idle` calls that took a request off the global queue.
    pub placed: u64,
    /// `Recorder::record` calls.
    pub events: u64,
    /// `ObsEvent::SchedArm` per arm, in [`ARMS`] order.
    pub arms: [u64; 5],
}

/// The Algorithm-2 arms in the order of [`Counts::arms`], with metric names.
pub const ARMS: [(Arm, &str); 5] = [
    (Arm::HitLocal, "hit_local"),
    (Arm::HitRemote, "hit_remote"),
    (Arm::WaitBusy, "wait_busy"),
    (Arm::Miss, "miss"),
    (Arm::Rider, "rider"),
];

/// In-memory span recorder; one per thread, off until [`start`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub counts: Counts,
    /// Set when a span closed out of nesting order; the trace is then
    /// unusable for self-time accounting.
    pub misnested: bool,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Counts::default(),
            misnested: false,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, kind: Kind) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            kind,
            start,
            end: start,
            parent,
        });
    }

    fn exit(&mut self, kind: Kind) {
        if !self.on {
            return;
        }
        let end = self.now();
        match self.open.pop() {
            Some(i) if self.spans[i as usize].kind == kind => self.spans[i as usize].end = end,
            _ => self.misnested = true,
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Clears the thread's tracer and starts recording.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        *t = Tracer::new();
        t.on = true;
    });
}

/// Stops recording and hands back everything recorded since [`start`].
/// A span still open at this point counts as misnested.
pub fn stop() -> Tracer {
    TRACER.with(|t| {
        let mut done = std::mem::replace(&mut *t.borrow_mut(), Tracer::new());
        done.on = false;
        done.misnested |= !done.open.is_empty();
        done
    })
}

pub fn enter(kind: Kind) {
    TRACER.with(|t| t.borrow_mut().enter(kind));
}

pub fn exit(kind: Kind) {
    TRACER.with(|t| t.borrow_mut().exit(kind));
}

fn count(f: impl FnOnce(&mut Counts)) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            f(&mut t.counts);
        }
    });
}

/// Runs `f` inside a span of `kind`.
fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    enter(kind);
    let r = f();
    exit(kind);
    r
}

/// Traces a [`SchedulerPolicy`].
#[derive(Debug)]
pub struct TracedScheduler(pub Box<dyn SchedulerPolicy>);

impl SchedulerPolicy for TracedScheduler {
    fn name(&self) -> String {
        self.0.name()
    }

    fn idle_order(&mut self, ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
        span(Kind::IdleOrder, || self.0.idle_order(ctx, idle));
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let queued = ctx.queue_len();
        let d = span(Kind::OnGpuIdle, || self.0.on_gpu_idle(gpu, ctx));
        if !matches!(d, Dispatch::None) || ctx.queue_len() < queued {
            count(|c| c.placed += 1);
        }
        d
    }

    fn save_state(&self, enc: &mut Enc) {
        self.0.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.0.load_state(dec)
    }
}

/// Traces an [`Evictor`] (the cache layer's policy).
#[derive(Debug)]
pub struct TracedEvictor(pub Box<dyn Evictor>);

impl Evictor for TracedEvictor {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    /// Called while the cluster is built, before tracing starts.
    fn attach_gpu(&mut self, gpu: GpuId) {
        self.0.attach_gpu(gpu);
    }

    fn on_insert(&mut self, gpu: GpuId, model: ModelId) {
        span(Kind::OnInsert, || self.0.on_insert(gpu, model));
    }

    fn on_hit(&mut self, gpu: GpuId, model: ModelId) {
        span(Kind::OnHit, || self.0.on_hit(gpu, model));
    }

    fn on_remove(&mut self, gpu: GpuId, model: ModelId) {
        span(Kind::OnRemove, || self.0.on_remove(gpu, model));
    }

    fn order(&self, gpu: GpuId) -> Vec<ModelId> {
        span(Kind::Order, || self.0.order(gpu))
    }

    fn pick_victim(&mut self, gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId> {
        span(Kind::PickVictim, || self.0.pick_victim(gpu, candidates))
    }

    fn save_state(&self, enc: &mut Enc) {
        span(Kind::CacheSaveState, || self.0.save_state(enc));
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        span(Kind::CacheLoadState, || self.0.load_state(dec))
    }
}

/// Traces a [`BatchPolicy`], and brackets lookahead forks (see the
/// module docs).
#[derive(Debug)]
pub struct TracedBatcher(pub Box<dyn BatchPolicy>);

impl BatchPolicy for TracedBatcher {
    fn name(&self) -> String {
        self.0.name()
    }

    fn plan(&mut self, view: &BatchView) -> BatchPlan {
        span(Kind::BatchPlan, || self.0.plan(view))
    }

    fn is_passthrough(&self) -> bool {
        self.0.is_passthrough()
    }

    fn save_state(&self, enc: &mut Enc) {
        enter(Kind::Fork);
        self.0.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        let r = self.0.load_state(dec);
        exit(Kind::Fork);
        r
    }
}

/// Traces an [`Autoscaler`].
#[derive(Debug)]
pub struct TracedAutoscaler(pub Box<dyn Autoscaler>);

impl Autoscaler for TracedAutoscaler {
    fn name(&self) -> String {
        self.0.name()
    }

    fn cadence(&self) -> SimDuration {
        self.0.cadence()
    }

    fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision {
        span(Kind::AutoscaleStep, || self.0.step(view))
    }

    fn save_state(&self, enc: &mut Enc) {
        self.0.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.0.load_state(dec)
    }
}

/// Counts the lifecycle events a [`Recorder`] sees, including the
/// Algorithm-2 arm of every placement.
#[derive(Debug)]
pub struct CountingRecorder(pub Box<dyn Recorder>);

impl Recorder for CountingRecorder {
    fn record(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        count(|c| {
            c.events += 1;
            if let ObsEvent::SchedArm { arm, .. } = ev {
                let i = ARMS
                    .iter()
                    .position(|(a, _)| a == arm)
                    .expect("every arm listed");
                c.arms[i] += 1;
            }
        });
        self.0.record(t, ev);
    }

    fn sample_cadence(&self) -> Option<SimDuration> {
        self.0.sample_cadence()
    }

    fn finish(&mut self, end: SimTime) {
        self.0.finish(end);
    }
}

/// Per-kind totals over a finished trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindTotals {
    pub calls: u64,
    /// Σ (span duration − covered child durations), ns.
    pub self_ns: u64,
}

/// Self time per span kind, indexed like [`Kind::ALL`].
pub fn self_times(spans: &[Span]) -> [KindTotals; Kind::ALL.len()] {
    let mut self_ns: Vec<i128> = spans.iter().map(|s| (s.end - s.start) as i128).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            self_ns[s.parent as usize] -= (s.end - s.start) as i128;
        }
    }
    let mut out = [KindTotals::default(); Kind::ALL.len()];
    for (s, ns) in spans.iter().zip(self_ns) {
        let t = &mut out[s.kind as usize];
        t.calls += 1;
        t.self_ns += ns.max(0) as u64;
    }
    out
}

/// Writes spans as tab-separated `name start_ns end_ns parent_index`
/// lines (parent `-` for the root).
pub fn write_spans(spans: &[Span], mut w: impl std::io::Write) -> std::io::Result<()> {
    writeln!(w, "name\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        if s.parent == NO_PARENT {
            writeln!(w, "{}\t{}\t{}\t-", s.kind.name(), s.start, s.end)?;
        } else {
            writeln!(w, "{}\t{}\t{}\t{}", s.kind.name(), s.start, s.end, s.parent)?;
        }
    }
    w.flush()
}

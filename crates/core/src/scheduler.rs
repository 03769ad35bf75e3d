//! Scheduling policies (paper §IV) — an open trait surface.
//!
//! * **LB** — the default load-balancing baseline: "simply dispatches the
//!   request at the head of the global queue whenever a GPU becomes idle"
//!   (§V-A). When several GPUs are idle, the longest-idle one is used
//!   (classic load balancing); locality is ignored, though an accidental
//!   hit still skips the upload.
//! * **LALB** — locality-aware load balancing, Algorithms 1 and 2. The
//!   O3 limit is 0: requests are considered strictly in arrival order, but
//!   each is *placed* with locality awareness (idle GPU with the model →
//!   hit; busy GPU with the model that will free up sooner than a model
//!   load → local queue; otherwise a miss on the idle GPU).
//! * **LALB+O3** — the same with out-of-order dispatch: a later request
//!   whose model is cached on the idle GPU may jump the queue; every
//!   request it jumps over has its visit counter incremented, and a request
//!   whose counter reaches the limit (default 25) is dispatched immediately
//!   via `LocalityLoadBalance` regardless of hit or miss (§IV-B's
//!   starvation guard).
//!
//! # The trait surface
//!
//! Policies implement [`SchedulerPolicy`]: the cluster driver calls
//! [`SchedulerPolicy::on_gpu_idle`] for each idle GPU with a borrowed
//! [`SchedCtx`] view of the queue, residency, and finish-time state, and
//! the policy answers with a [`Dispatch`] for that GPU (placements on
//! *other* GPUs — Algorithm 2's hit-elsewhere / wait-on-busy arms —
//! execute immediately through the context). The paper's three policies
//! are [`LbScheduler`] and [`LalbScheduler`]; the [`Policy`] enum survives
//! as a thin constructor facade, and string specs (`"lb"`, `"lalbo3:25"`)
//! resolve through [`crate::policy::PolicyRegistry`].

use crate::cluster::{SchedCtx, SpecPlacement, SpecScore};
use crate::config::BusyWaitPolicy;
use crate::request::Request;
use gfaas_gpu::GpuId;
use gfaas_sim::time::SimDuration;

/// The paper's default starvation limit for out-of-order dispatch.
pub const DEFAULT_O3_LIMIT: u32 = 25;

/// A scheduling policy — the paper's closed set, kept as a thin
/// constructor facade over the [`SchedulerPolicy`] impls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Default load balancing (the paper's baseline).
    LoadBalance,
    /// Locality-aware load balancing; `o3_limit == 0` disables
    /// out-of-order dispatch (pure LALB), `o3_limit > 0` enables it
    /// (LALB+O3) with that many allowed skips per request.
    Lalb {
        /// Maximum times a request may be skipped before it is dispatched
        /// unconditionally.
        o3_limit: u32,
    },
}

impl Policy {
    /// The LB baseline.
    pub fn lb() -> Policy {
        Policy::LoadBalance
    }

    /// LALB without out-of-order dispatch.
    pub fn lalb() -> Policy {
        Policy::Lalb { o3_limit: 0 }
    }

    /// LALB with out-of-order dispatch at the paper's default limit (25).
    pub fn lalbo3() -> Policy {
        Policy::Lalb {
            o3_limit: DEFAULT_O3_LIMIT,
        }
    }

    /// LALB with out-of-order dispatch at a custom limit (Fig 7's sweep).
    pub fn lalb_with_limit(o3_limit: u32) -> Policy {
        Policy::Lalb { o3_limit }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Policy::LoadBalance => "LB".to_string(),
            Policy::Lalb { o3_limit: 0 } => "LALB".to_string(),
            Policy::Lalb { o3_limit } if *o3_limit == DEFAULT_O3_LIMIT => "LALBO3".to_string(),
            Policy::Lalb { o3_limit } => format!("LALBO3(limit={o3_limit})"),
        }
    }

    /// True for the locality-aware variants.
    pub fn is_locality_aware(&self) -> bool {
        matches!(self, Policy::Lalb { .. })
    }

    /// Builds the trait-object scheduler this enum variant names.
    pub fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            Policy::LoadBalance => Box::new(LbScheduler),
            Policy::Lalb { o3_limit } => Box::new(LalbScheduler::new(o3_limit)),
        }
    }
}

/// What a policy decided for the idle GPU it was asked about.
#[derive(Debug, Clone, Copy)]
pub enum Dispatch {
    /// Nothing can be dispatched to this GPU in this pass.
    None,
    /// Run `Request` on the idle GPU as a cache hit (its model must be
    /// resident there).
    Hit(Request),
    /// Load the request's model on the idle GPU, evicting as needed, then
    /// run (the miss path).
    Miss(Request),
}

/// A scheduling policy driving the cluster's dispatch decisions.
///
/// The driver runs scheduling passes "when at least one request is
/// waiting in the global queue and at least one GPU is idle". Each pass it
/// collects the idle GPUs, lets the policy order them
/// ([`SchedulerPolicy::idle_order`]), and calls
/// [`SchedulerPolicy::on_gpu_idle`] per GPU until no policy makes
/// progress. Serving a GPU's own local queue first (Algorithm 1 lines
/// 2–5) is structural and stays in the driver, and so is the
/// locality-aware idle order: the driver keeps the idle GPUs sorted as
/// they go idle and busy, so the list a policy receives is already in
/// Algorithm 1's order.
///
/// Implementations must be deterministic: any randomness must come from
/// owned, seeded state.
pub trait SchedulerPolicy: std::fmt::Debug + Send {
    /// Display name for reports (the paper uses `LB` / `LALB` / `LALBO3`).
    fn name(&self) -> String;

    /// Orders the idle GPUs for one scheduling round. `idle` arrives in
    /// the locality-aware order — "the list of idle GPUs (sorted by
    /// frequency)": more cache hits ([`SchedCtx::hits`]) served first,
    /// then GPU id — and the default keeps it, at no cost. Override to
    /// impose another order (LB sorts longest-idle first); the GPUs a
    /// round serves are whatever the list holds after this call.
    fn idle_order(&mut self, ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
        let _ = (ctx, idle);
    }

    /// Decides what idle GPU `gpu` should run next. Placements on *other*
    /// GPUs (hit-elsewhere, wait-on-busy) execute immediately through
    /// `ctx`; the returned [`Dispatch`] is executed on `gpu` itself.
    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch;

    /// Serialises the policy's mutable state for a snapshot or
    /// checkpoint. The paper's policies (LB, LALB, LALB+O3) are
    /// stateless — configuration like the O3 limit is rebuilt from the
    /// spec, not serialised — so the default writes nothing; stateful
    /// policies must override both hooks symmetrically.
    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        let _ = enc;
    }

    /// Restores state written by [`SchedulerPolicy::save_state`] into a
    /// policy freshly built from the same spec.
    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        let _ = dec;
        Ok(())
    }
}

/// The LB baseline: head of the global queue to the longest-idle GPU,
/// locality ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct LbScheduler;

impl SchedulerPolicy for LbScheduler {
    fn name(&self) -> String {
        "LB".to_string()
    }

    /// LB: longest idle first (pure load spreading).
    fn idle_order(&mut self, ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
        idle.sort_by(|&a, &b| ctx.idle_since(a).cmp(&ctx.idle_since(b)).then(a.cmp(&b)));
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        if ctx.queue_len() == 0 {
            return Dispatch::None;
        }
        if ctx.tenant_blocked(ctx.queued(0).tenant) {
            return Dispatch::None; // §VI isolation: the head's tenant is at its cap
        }
        let r = ctx.take_queued(0);
        if ctx.is_cached(gpu, r.model) {
            Dispatch::Hit(r) // accidental hit still skips the upload
        } else {
            Dispatch::Miss(r)
        }
    }
}

/// Locality-aware load balancing (Algorithms 1 and 2); `o3_limit > 0`
/// adds out-of-order dispatch with that starvation limit.
#[derive(Debug, Clone, Copy)]
pub struct LalbScheduler {
    o3_limit: u32,
}

impl LalbScheduler {
    /// A LALB scheduler; `o3_limit == 0` is pure LALB, `> 0` is LALB+O3.
    pub fn new(o3_limit: u32) -> Self {
        LalbScheduler { o3_limit }
    }

    /// The configured starvation limit.
    pub fn o3_limit(&self) -> u32 {
        self.o3_limit
    }

    /// Algorithm 2. Places `r`, preferring (1) a miss on `gpu` if the model
    /// is cached nowhere, (2) a hit on another idle GPU, (3) the local
    /// queue of the busy holder with the smallest estimated wait when that
    /// wait beats the model's load time, (4) otherwise a miss on `gpu`.
    /// Returns `Some(Dispatch)` iff the request targets `gpu` itself.
    fn locality_load_balance(gpu: GpuId, r: Request, ctx: &mut SchedCtx<'_>) -> Option<Dispatch> {
        if ctx.online_holders(r.model).next().is_none() {
            // Lines 1–3: cached nowhere → allow the miss here.
            return Some(Dispatch::Miss(r));
        }
        // Lines 4–6: cached on another idle GPU → hit there. An idle
        // holder still carrying a local backlog is mid-pass (its queue
        // drains under Algorithm 1's local priority before it can accept
        // new work), so it is not an immediate-hit target.
        let idle_holder = ctx
            .online_holders(r.model)
            .find(|&j| j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0);
        if let Some(j) = idle_holder {
            ctx.dispatch_hit(j, r);
            return None;
        }
        // Lines 8–15: cached only on busy GPUs. Compare the best holder's
        // estimated finish time against the load time of a cold start.
        // `busy_wait` ablates this decision (DESIGN.md §4). Under a
        // batching policy the wait is join-aware (the request shares its
        // model's coalesced invocation); per-request dispatch keeps the
        // paper's drain estimate byte-identically.
        let load_time = ctx.load_time(gpu, r.model);
        if let Some((wait, j)) = ctx.min_wait_holder(r.model) {
            let join_queue = match ctx.busy_wait() {
                BusyWaitPolicy::Estimate => wait < load_time,
                BusyWaitPolicy::Never => false,
                BusyWaitPolicy::Always => true,
            };
            if join_queue {
                ctx.enqueue_local(j, r);
                return None;
            }
        }
        // Lines 16–18: the busy hit would be slower → allow the miss here.
        Some(Dispatch::Miss(r))
    }
}

impl SchedulerPolicy for LalbScheduler {
    fn name(&self) -> String {
        Policy::Lalb {
            o3_limit: self.o3_limit,
        }
        .name()
    }

    /// Algorithm 1 for one idle GPU.
    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // Lines 6–16: scan the global queue in arrival order for a request
        // whose model is cached on this GPU; skipped requests accumulate
        // visits, and a request at the limit is placed immediately.
        let mut i = 0;
        while i < ctx.queue_len() {
            if !ctx.is_idle(gpu) {
                return Dispatch::None; // got work via LocalityLoadBalance
            }
            let (tenant, model, visits) = {
                let r = ctx.queued(i);
                (r.tenant, r.model, r.visits)
            };
            if ctx.tenant_blocked(tenant) {
                // §VI isolation: capped tenants are passed over without
                // O3 visit accounting (they are blocked, not skipped).
                i += 1;
                continue;
            }
            if ctx.is_cached(gpu, model) {
                return Dispatch::Hit(ctx.take_queued(i));
            }
            if visits >= self.o3_limit {
                let r = ctx.take_queued(i);
                if let Some(d) = Self::locality_load_balance(gpu, r, ctx) {
                    return d;
                }
                // r went to another GPU or a local queue; the element at
                // index i is now the next request — do not advance i.
            } else {
                ctx.note_skip(i);
                i += 1;
            }
        }

        // Lines 17–21: no queued request has its model cached here; give
        // each request (arrival order) its best placement until this GPU
        // receives one. Capped tenants stay queued.
        let mut i = 0;
        while i < ctx.queue_len() {
            if !ctx.is_idle(gpu) {
                return Dispatch::None;
            }
            if ctx.tenant_blocked(ctx.queued(i).tenant) {
                i += 1;
                continue;
            }
            let r = ctx.take_queued(i);
            if let Some(d) = Self::locality_load_balance(gpu, r, ctx) {
                return d;
            }
        }
        Dispatch::None
    }
}

/// Speculative what-if scheduling on top of the snapshot journal.
///
/// Where LALB *estimates* the cost of each §IV placement arm with the
/// finish-time model, this policy *measures* it: for each of up to `k`
/// candidate placements (hit on an idle holder, wait at a busy holder,
/// miss here) it forks the world through [`SchedCtx::speculate`], replays
/// the next `horizon` pending runtime events under greedy LALBO3, scores
/// the fork (completions, then latency ticks, then backlog), and rolls
/// it back byte-identically. The winning arm is then executed for real.
///
/// The O3 hit scan (Algorithm 1 lines 6–16) is kept verbatim — a
/// cached-here hit needs no speculation to be right — so the forks only
/// pay off on the contended placements where the estimate is blind:
/// cascading effects of evictions, batch formation, and queue drains
/// inside the horizon.
#[derive(Debug, Clone, Copy)]
pub struct LookaheadScheduler {
    /// Maximum candidate placements forked per decision.
    k: usize,
    /// Pending runtime events replayed inside each fork.
    horizon: usize,
    /// Starvation limit for the out-of-order hit scan (as LALB+O3).
    o3_limit: u32,
}

/// Default candidate budget for [`LookaheadScheduler`].
pub const DEFAULT_LOOKAHEAD_K: usize = 4;
/// Default replay horizon for [`LookaheadScheduler`].
pub const DEFAULT_LOOKAHEAD_HORIZON: usize = 8;

impl LookaheadScheduler {
    /// A lookahead scheduler forking up to `k` candidates, each replayed
    /// `horizon` events deep, with the given O3 starvation limit.
    pub fn new(k: usize, horizon: usize, o3_limit: u32) -> Self {
        LookaheadScheduler {
            k: k.max(1),
            horizon,
            o3_limit,
        }
    }

    /// The issue's default configuration: `k=4`, `horizon=8`, O3 at the
    /// paper's limit.
    pub fn default_config() -> Self {
        Self::new(
            DEFAULT_LOOKAHEAD_K,
            DEFAULT_LOOKAHEAD_HORIZON,
            DEFAULT_O3_LIMIT,
        )
    }

    /// Picks and executes the best placement for the queued request at
    /// index `i`, forking the candidates when more than one arm is open.
    fn place(&self, gpu: GpuId, i: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let model = ctx.queued(i).model;
        if ctx.online_holders(model).next().is_none() {
            // Cached nowhere: the miss here is the only open arm
            // (Algorithm 2 lines 1–3) — nothing to speculate between.
            return Dispatch::Miss(ctx.take_queued(i));
        }
        // Candidate 0 is greedy LALBO3's own arm (Algorithm 2 verbatim):
        // first idle holder with an empty backlog, else the cheapest
        // estimated join-wait when it beats a cold load, else the miss
        // here. Anchoring the greedy arm first means a score tie — and
        // the strict comparison below — reproduces the baseline exactly;
        // the policy deviates only when a fork *measured* a strictly
        // better outcome than the estimate's pick.
        let idle_hit = ctx
            .online_holders(model)
            .find(|&j| j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0);
        let mut waits: Vec<(SimDuration, GpuId)> = ctx
            .online_holders(model)
            .map(|j| (ctx.estimated_wait_for(j, model), j))
            .collect();
        waits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let greedy = if let Some(j) = idle_hit {
            SpecPlacement::HitOn(j)
        } else {
            let join = waits
                .first()
                .is_some_and(|&(wait, _)| match ctx.busy_wait() {
                    BusyWaitPolicy::Estimate => wait < ctx.load_time(gpu, model),
                    BusyWaitPolicy::Never => false,
                    BusyWaitPolicy::Always => true,
                });
            if join {
                SpecPlacement::WaitOn(waits[0].1)
            } else {
                SpecPlacement::MissOn(gpu)
            }
        };
        // Alternatives, deterministic order: the remaining idle hits (id
        // order), waits at busy holders (cheapest estimate first), then
        // the miss here — deduplicated against the greedy arm, capped at
        // `k` forks total.
        let mut cands: Vec<SpecPlacement> = Vec::with_capacity(self.k);
        cands.push(greedy);
        let alts = ctx
            .online_holders(model)
            .filter(|&j| j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0)
            .map(SpecPlacement::HitOn)
            .chain(
                waits
                    .iter()
                    .filter(|&&(_, j)| !ctx.is_idle(j))
                    .map(|&(_, j)| SpecPlacement::WaitOn(j)),
            )
            .chain(std::iter::once(SpecPlacement::MissOn(gpu)));
        for p in alts {
            if cands.len() >= self.k {
                break;
            }
            if !cands.contains(&p) {
                cands.push(p);
            }
        }
        if cands.len() == 1 {
            return Self::execute(gpu, i, cands[0], ctx);
        }
        let mut best = cands[0];
        let mut best_score: SpecScore = ctx.speculate(i, cands[0], self.horizon);
        for &cand in &cands[1..] {
            let score = ctx.speculate(i, cand, self.horizon);
            // Strict comparison: the earliest candidate wins ties, so
            // the choice is deterministic.
            if score.better_than(&best_score) {
                best = cand;
                best_score = score;
            }
        }
        Self::execute(gpu, i, best, ctx)
    }

    /// Executes the chosen arm for real.
    fn execute(gpu: GpuId, i: usize, placement: SpecPlacement, ctx: &mut SchedCtx<'_>) -> Dispatch {
        match placement {
            SpecPlacement::HitOn(j) if j == gpu => Dispatch::Hit(ctx.take_queued(i)),
            SpecPlacement::HitOn(j) => {
                let r = ctx.take_queued(i);
                ctx.dispatch_hit(j, r);
                Dispatch::None
            }
            SpecPlacement::WaitOn(j) => {
                let r = ctx.take_queued(i);
                ctx.enqueue_local(j, r);
                Dispatch::None
            }
            SpecPlacement::MissOn(j) if j == gpu => Dispatch::Miss(ctx.take_queued(i)),
            SpecPlacement::MissOn(j) => {
                let r = ctx.take_queued(i);
                ctx.dispatch_miss(j, r);
                Dispatch::None
            }
        }
    }
}

impl SchedulerPolicy for LookaheadScheduler {
    fn name(&self) -> String {
        format!("Lookahead(k={},h={})", self.k, self.horizon)
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // The O3 hit scan, verbatim from LALB: a request whose model is
        // cached here is a free win, and skipped requests accumulate
        // visits toward the starvation limit.
        let mut i = 0;
        while i < ctx.queue_len() {
            if !ctx.is_idle(gpu) {
                return Dispatch::None;
            }
            let (tenant, model, visits) = {
                let r = ctx.queued(i);
                (r.tenant, r.model, r.visits)
            };
            if ctx.tenant_blocked(tenant) {
                i += 1;
                continue;
            }
            if ctx.is_cached(gpu, model) {
                return Dispatch::Hit(ctx.take_queued(i));
            }
            if visits >= self.o3_limit {
                // Starvation guard: place this request now, but let the
                // forks pick which arm serves it best.
                return self.place(gpu, i, ctx);
            }
            ctx.note_skip(i);
            i += 1;
        }
        // No cached-here hit: speculatively place the head-most
        // unblocked request. One placement per call — if it lands on
        // another GPU the pass loop calls back while progress holds.
        let mut i = 0;
        while i < ctx.queue_len() {
            if !ctx.is_idle(gpu) {
                return Dispatch::None;
            }
            if ctx.tenant_blocked(ctx.queued(i).tenant) {
                i += 1;
                continue;
            }
            return self.place(gpu, i, ctx);
        }
        Dispatch::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_names() {
        assert_eq!(Policy::lb().name(), "LB");
        assert_eq!(Policy::lalb().name(), "LALB");
        assert_eq!(Policy::lalbo3().name(), "LALBO3");
        assert_eq!(Policy::lalb_with_limit(45).name(), "LALBO3(limit=45)");
        assert_eq!(Policy::lalbo3(), Policy::lalb_with_limit(25));
    }

    #[test]
    fn lalb_is_limit_zero() {
        assert_eq!(Policy::lalb(), Policy::Lalb { o3_limit: 0 });
        assert!(Policy::lalb().is_locality_aware());
        assert!(!Policy::lb().is_locality_aware());
    }

    #[test]
    fn enum_builds_matching_trait_impls() {
        assert_eq!(Policy::lb().build().name(), "LB");
        assert_eq!(Policy::lalb().build().name(), "LALB");
        assert_eq!(Policy::lalbo3().build().name(), "LALBO3");
        assert_eq!(Policy::lalb_with_limit(7).build().name(), "LALBO3(limit=7)");
    }

    #[test]
    fn lalb_scheduler_exposes_its_limit() {
        assert_eq!(LalbScheduler::new(25).o3_limit(), 25);
    }
}

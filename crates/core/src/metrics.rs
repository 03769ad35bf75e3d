//! Run metrics: exactly the quantities the paper's evaluation plots.
//!
//! * Fig 4a — average function latency (arrival → completion);
//! * Fig 4b — cache miss ratio over scheduling decisions;
//! * Fig 4c — average SM utilisation across GPUs;
//! * Fig 5  — false-miss ratio: misses dispatched while the model was
//!   resident on *another* GPU, over all misses;
//! * Fig 6  — time-averaged number of GPUs holding the hottest model;
//! * Fig 7  — latency variance (the O3 sensitivity study).

use gfaas_sim::stats::{Histogram, Ratio, TimeWeighted, Welford};
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_snap::{Dec, Enc, SnapError};

/// Width of one latency-histogram bin, in seconds.
const LATENCY_BIN_SECS: f64 = 1.0;
/// Latency-histogram bins: 1-second bins over 10 minutes of latency.
const LATENCY_BINS: usize = 600;

/// Live collector, updated by the cluster driver as events complete.
#[derive(Debug)]
pub struct MetricsCollector {
    latency: Welford,
    latency_hist: Histogram,
    hits: Ratio,
    false_misses: u64,
    duplicates: TimeWeighted,
    completed: u64,
    queue_peak: usize,
    // Queue-depth integral in integer ticks (∫ depth d(ticks)): this is
    // bumped on every depth transition in the hot arrival/dispatch path,
    // so it avoids TimeWeighted's f64 conversions; u128 cannot overflow
    // (depth and tick count are both far below 2^64).
    queue_last_t: SimTime,
    queue_last_len: usize,
    queue_ticks: u128,
    /// Completed GPU invocations indexed by effective batch (coalesced
    /// requests per invocation); per-request dispatch puts everything in
    /// bucket 1. A flat array because this is bumped once per invocation
    /// and batch sizes are small.
    invocation_batches: Vec<u64>,
    batched_requests: u64,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector {
            latency: Welford::new(),
            // Quantiles are exact (the histogram keeps samples); the
            // bins are for display.
            latency_hist: Histogram::new(LATENCY_BIN_SECS, LATENCY_BINS),
            hits: Ratio::new(),
            false_misses: 0,
            duplicates: TimeWeighted::new(),
            completed: 0,
            queue_peak: 0,
            queue_last_t: SimTime::ZERO,
            queue_last_len: 0,
            queue_ticks: 0,
            invocation_batches: Vec::new(),
            batched_requests: 0,
        }
    }
}

impl MetricsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Records a completed request's end-to-end latency.
    pub fn record_completion(&mut self, latency: SimDuration) {
        self.latency.push_duration(latency);
        self.latency_hist.push(latency.as_secs_f64());
        self.completed += 1;
    }

    /// Records a scheduling decision: hit or miss, and — for misses —
    /// whether the model was resident elsewhere (a false miss, Fig 5).
    pub fn record_dispatch(&mut self, hit: bool, false_miss: bool) {
        self.hits.record(hit);
        if false_miss {
            debug_assert!(!hit, "a hit cannot be a false miss");
            self.false_misses += 1;
        }
    }

    /// Records a change in the hottest model's replica count at time `t`.
    pub fn record_hot_replicas(&mut self, t: SimTime, replicas: usize) {
        self.duplicates.set(t, replicas as f64);
    }

    /// Observes the global queue depth at time `t`.
    ///
    /// Tracks both the high-water mark and a time-weighted depth
    /// integral. Before PR 7 the queue was only peeked at arrival time,
    /// so idle stretches (depth 0) and hold/drain periods were invisible
    /// and no average could be reported; the driver now calls this at
    /// *every* depth transition (push, dispatch pop, crash requeue),
    /// which makes `avg_queue_depth` an exact time average rather than
    /// an arrival-biased sample. `queue_peak` is unchanged by this: the
    /// queue can only reach a new maximum on a push, and every push was
    /// already observed.
    pub fn observe_queue_depth(&mut self, t: SimTime, len: usize) {
        self.queue_peak = self.queue_peak.max(len);
        if t > self.queue_last_t {
            self.queue_ticks += (t.as_micros() - self.queue_last_t.as_micros()) as u128
                * self.queue_last_len as u128;
            self.queue_last_t = t;
        }
        self.queue_last_len = len;
    }

    /// Records a completed GPU invocation that served `requests` coalesced
    /// requests (1 for per-request dispatch).
    pub fn record_invocation(&mut self, requests: usize) {
        if requests >= self.invocation_batches.len() {
            self.invocation_batches.resize(requests + 1, 0);
        }
        self.invocation_batches[requests] += 1;
        if requests > 1 {
            self.batched_requests += requests as u64;
        }
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Sum of the latency histogram's samples in whole microseconds, for
    /// the simcheck ledger cross-check. Each sample was pushed as a
    /// `SimDuration` converted to seconds; whole-microsecond counts below
    /// 2^53 round-trip through `f64` exactly, so rounding back recovers
    /// the original integer tick count.
    pub fn latency_tick_sum(&self) -> u64 {
        self.latency_hist
            .samples()
            .iter()
            .map(|&secs| (secs * 1e6).round() as u64)
            .sum()
    }

    /// Latency samples recorded so far (completions), for delta scoring.
    pub(crate) fn latency_sample_count(&self) -> usize {
        self.latency_hist.mark().0
    }

    /// [`MetricsCollector::latency_tick_sum`] restricted to samples from
    /// index `start` on — what a speculative replay scores its own
    /// completions with, without re-walking the whole histogram.
    pub(crate) fn latency_ticks_from(&self, start: usize) -> u64 {
        self.latency_hist.samples()[start..]
            .iter()
            .map(|&secs| (secs * 1e6).round() as u64)
            .sum()
    }

    /// Captures the collector's mutable state for the snapshot journal.
    /// The latency histogram is captured as a rewind mark (two words)
    /// rather than a sample-buffer clone: during a run nothing but
    /// `push` touches it (quantile queries happen only in
    /// [`MetricsCollector::finish`]), which is exactly the contract
    /// [`Histogram::rewind`] requires.
    pub(crate) fn snapshot_image(&self) -> MetricsImage {
        MetricsImage {
            latency: self.latency.clone(),
            hist_mark: self.latency_hist.mark(),
            hits: self.hits,
            false_misses: self.false_misses,
            duplicates: self.duplicates.clone(),
            completed: self.completed,
            queue_peak: self.queue_peak,
            queue_last_t: self.queue_last_t,
            queue_last_len: self.queue_last_len,
            queue_ticks: self.queue_ticks,
            invocation_batches: self.invocation_batches.clone(),
            batched_requests: self.batched_requests,
        }
    }

    /// Restores the collector to a [`MetricsCollector::snapshot_image`].
    pub(crate) fn restore_image(&mut self, img: &MetricsImage) {
        self.latency = img.latency.clone();
        self.latency_hist.rewind(img.hist_mark);
        self.hits = img.hits;
        self.false_misses = img.false_misses;
        self.duplicates = img.duplicates.clone();
        self.completed = img.completed;
        self.queue_peak = img.queue_peak;
        self.queue_last_t = img.queue_last_t;
        self.queue_last_len = img.queue_last_len;
        self.queue_ticks = img.queue_ticks;
        self.invocation_batches.clone_from(&img.invocation_batches);
        self.batched_requests = img.batched_requests;
    }

    /// Serialises the collector for an on-disk checkpoint. Unlike
    /// [`MetricsCollector::snapshot_image`] this must be standalone, so
    /// the full histogram sample buffer is written out.
    pub(crate) fn save_state(&self, enc: &mut Enc) {
        let (n, mean, m2, min, max) = self.latency.raw_parts();
        enc.put_u64(n);
        enc.put_f64(mean);
        enc.put_f64(m2);
        enc.put_f64(min);
        enc.put_f64(max);
        let (mark_len, sorted) = self.latency_hist.mark();
        enc.put_f64(self.latency_hist.bin_width());
        enc.put_usize(self.latency_hist.bins().len());
        enc.put_usize(mark_len);
        for &s in self.latency_hist.samples() {
            enc.put_f64(s);
        }
        enc.put_bool(sorted);
        enc.put_u64(self.hits.hits());
        enc.put_u64(self.hits.total());
        enc.put_u64(self.false_misses);
        let (tw_last, tw_val, tw_int, tw_started, tw_start) = self.duplicates.raw_parts();
        enc.put_time(tw_last);
        enc.put_f64(tw_val);
        enc.put_f64(tw_int);
        enc.put_bool(tw_started);
        enc.put_time(tw_start);
        enc.put_u64(self.completed);
        enc.put_usize(self.queue_peak);
        enc.put_time(self.queue_last_t);
        enc.put_usize(self.queue_last_len);
        enc.put_u128(self.queue_ticks);
        enc.put_usize(self.invocation_batches.len());
        for &n in &self.invocation_batches {
            enc.put_u64(n);
        }
        enc.put_u64(self.batched_requests);
    }

    /// Rebuilds a collector from [`MetricsCollector::save_state`] bytes.
    pub(crate) fn load_state(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.u64()?;
        let mean = dec.f64()?;
        let m2 = dec.f64()?;
        let min = dec.f64()?;
        let max = dec.f64()?;
        let latency = Welford::from_raw_parts((n, mean, m2, min, max));
        let bin_width = dec.f64()?;
        let nbins = dec.usize()?;
        // Only the shape `Default` builds is valid. Checking it before
        // the histogram allocates its bins keeps a corrupt `nbins` from
        // aborting the process; comparing bit patterns rejects NaN too.
        if bin_width.to_bits() != LATENCY_BIN_SECS.to_bits() || nbins != LATENCY_BINS {
            return Err(SnapError::Corrupt("invalid histogram configuration"));
        }
        let nsamples = dec.usize()?;
        let mut samples = Vec::with_capacity(nsamples.min(dec.remaining() / 8));
        for _ in 0..nsamples {
            samples.push(dec.f64()?);
        }
        let sorted = dec.bool()?;
        let latency_hist = Histogram::from_raw_parts(bin_width, nbins, samples, sorted);
        let hits_n = dec.u64()?;
        let total = dec.u64()?;
        if hits_n > total {
            return Err(SnapError::Corrupt("hit count exceeds total"));
        }
        let hits = Ratio::from_raw_parts(hits_n, total);
        let false_misses = dec.u64()?;
        let tw_last = dec.time()?;
        let tw_val = dec.f64()?;
        let tw_int = dec.f64()?;
        let tw_started = dec.bool()?;
        let tw_start = dec.time()?;
        let duplicates =
            TimeWeighted::from_raw_parts((tw_last, tw_val, tw_int, tw_started, tw_start));
        let completed = dec.u64()?;
        let queue_peak = dec.usize()?;
        let queue_last_t = dec.time()?;
        let queue_last_len = dec.usize()?;
        let queue_ticks = dec.u128()?;
        let nbatches = dec.usize()?;
        let mut invocation_batches = Vec::with_capacity(nbatches.min(dec.remaining() / 8));
        for _ in 0..nbatches {
            invocation_batches.push(dec.u64()?);
        }
        let batched_requests = dec.u64()?;
        Ok(MetricsCollector {
            latency,
            latency_hist,
            hits,
            false_misses,
            duplicates,
            completed,
            queue_peak,
            queue_last_t,
            queue_last_len,
            queue_ticks,
            invocation_batches,
            batched_requests,
        })
    }

    /// Finalises the run into a [`RunMetrics`]. `sm_utilization` is
    /// computed by the caller from the devices; `end` is the completion
    /// time of the last request.
    pub fn finish(mut self, end: SimTime, sm_utilization: f64) -> RunMetrics {
        let misses = self.hits.misses();
        // One sort serves all three tail queries (`Histogram::quantiles`).
        let ps = self.latency_hist.quantiles(&[0.5, 0.95, 0.99]);
        let (p50, p95, p99) = (
            ps[0].unwrap_or(0.0),
            ps[1].unwrap_or(0.0),
            ps[2].unwrap_or(0.0),
        );
        let invocations: u64 = self.invocation_batches.iter().sum();
        // Integrate the queue's final stretch out to the makespan; the
        // driver anchors depth 0 at t=0, so the average spans the run.
        let queue_ticks = self.queue_ticks
            + end
                .as_micros()
                .saturating_sub(self.queue_last_t.as_micros()) as u128
                * self.queue_last_len as u128;
        let coalesced: u64 = self
            .invocation_batches
            .iter()
            .enumerate()
            .map(|(b, &n)| b as u64 * n)
            .sum();
        RunMetrics {
            p50_latency_secs: p50,
            p95_latency_secs: p95,
            p99_latency_secs: p99,
            completed: self.completed,
            avg_latency_secs: self.latency.mean(),
            latency_variance: self.latency.variance(),
            max_latency_secs: self.latency.max(),
            miss_ratio: self.hits.complement(),
            hit_ratio: self.hits.ratio(),
            false_miss_ratio: if misses == 0 {
                0.0
            } else {
                self.false_misses as f64 / misses as f64
            },
            false_misses: self.false_misses,
            misses,
            sm_utilization,
            avg_duplicates: self.duplicates.average_until(end),
            makespan_secs: end.as_secs_f64(),
            queue_peak: self.queue_peak,
            avg_queue_depth: if end == SimTime::ZERO {
                0.0
            } else {
                queue_ticks as f64 / end.as_micros() as f64
            },
            gpu_seconds_provisioned: 0.0,
            scale_up_events: 0,
            scale_down_events: 0,
            gpu_busy_seconds: 0.0,
            invocations,
            avg_effective_batch: if invocations == 0 {
                0.0
            } else {
                coalesced as f64 / invocations as f64
            },
            batched_requests: self.batched_requests,
            effective_batch_hist: self
                .invocation_batches
                .into_iter()
                .enumerate()
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }
}

/// A journaled image of [`MetricsCollector`]'s mutable state. Everything
/// is cloned except the latency histogram, whose sample buffer is
/// append-only during a run and is captured as a
/// [`Histogram::mark`]/[`Histogram::rewind`] pair instead.
#[derive(Debug, Clone)]
pub(crate) struct MetricsImage {
    latency: Welford,
    hist_mark: (usize, bool),
    hits: Ratio,
    false_misses: u64,
    duplicates: TimeWeighted,
    completed: u64,
    queue_peak: usize,
    queue_last_t: SimTime,
    queue_last_len: usize,
    queue_ticks: u128,
    invocation_batches: Vec<u64>,
    batched_requests: u64,
}

/// Final metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Requests completed.
    pub completed: u64,
    /// Mean end-to-end latency in seconds (Fig 4a).
    pub avg_latency_secs: f64,
    /// Population variance of latency (Fig 7's right axis companion).
    pub latency_variance: f64,
    /// Median end-to-end latency in seconds.
    pub p50_latency_secs: f64,
    /// 95th-percentile end-to-end latency in seconds.
    pub p95_latency_secs: f64,
    /// 99th-percentile end-to-end latency in seconds.
    pub p99_latency_secs: f64,
    /// Worst latency observed.
    pub max_latency_secs: f64,
    /// Misses / decisions (Fig 4b).
    pub miss_ratio: f64,
    /// Hits / decisions.
    pub hit_ratio: f64,
    /// False misses / misses (Fig 5).
    pub false_miss_ratio: f64,
    /// Raw false-miss count.
    pub false_misses: u64,
    /// Raw miss count.
    pub misses: u64,
    /// Mean SM utilisation across GPUs over the makespan (Fig 4c).
    pub sm_utilization: f64,
    /// Time-averaged replicas of the hottest model (Fig 6).
    pub avg_duplicates: f64,
    /// Completion time of the last request, seconds.
    pub makespan_secs: f64,
    /// Global-queue high-water mark.
    pub queue_peak: usize,
    /// Time-averaged global-queue depth over the makespan (exact: the
    /// driver records every depth transition, so idle stretches count).
    pub avg_queue_depth: f64,
    /// Integrated provisioned GPU capacity over the run, in GPU-seconds —
    /// the cost side of the autoscaling trade-off. A fixed cluster
    /// reports exactly `num_gpus × makespan`; an elastic cluster counts
    /// each GPU only while it is online or draining. Filled in by the
    /// cluster driver (the collector does not see provisioning events).
    pub gpu_seconds_provisioned: f64,
    /// GPUs brought online by the autoscaler over the run (0 for fixed
    /// clusters).
    pub scale_up_events: u64,
    /// GPUs drained offline by the autoscaler over the run (0 for fixed
    /// clusters).
    pub scale_down_events: u64,
    /// Integrated GPU *busy* time over the run, in GPU-seconds: every
    /// model-upload and inference interval actually executed (including
    /// work lost to injected crashes). The hardware cost per completed
    /// request that batching amortises; always ≤
    /// `gpu_seconds_provisioned`. Filled in by the cluster driver.
    pub gpu_busy_seconds: f64,
    /// GPU inference invocations completed. Equals `completed` under
    /// per-request dispatch; lower when a
    /// [`crate::batching::BatchPolicy`] coalesces requests.
    pub invocations: u64,
    /// Mean coalesced requests per invocation (`completed / invocations`;
    /// 1.0 under per-request dispatch, 0 for an empty run).
    pub avg_effective_batch: f64,
    /// Requests served by invocations that coalesced at least two
    /// requests (0 under per-request dispatch).
    pub batched_requests: u64,
    /// Effective-batch histogram: `(requests per invocation, invocation
    /// count)` pairs, ascending.
    pub effective_batch_hist: Vec<(usize, u64)>,
}

impl RunMetrics {
    /// Relative reduction of `ours` vs a `baseline` value, as the paper
    /// reports ("reduces X of LB by NN%"). Positive = improvement.
    pub fn reduction(baseline: f64, ours: f64) -> f64 {
        if baseline == 0.0 {
            0.0
        } else {
            (baseline - ours) / baseline
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_latency_and_ratios() {
        let mut c = MetricsCollector::new();
        c.record_completion(SimDuration::from_secs(2));
        c.record_completion(SimDuration::from_secs(4));
        c.record_dispatch(true, false);
        c.record_dispatch(false, true);
        c.record_dispatch(false, false);
        c.observe_queue_depth(SimTime::from_secs(0), 7);
        c.observe_queue_depth(SimTime::from_secs(50), 3);
        let m = c.finish(SimTime::from_secs(100), 0.5);
        assert_eq!(m.completed, 2);
        assert_eq!(m.p50_latency_secs, 2.0);
        assert_eq!(m.p95_latency_secs, 4.0);
        assert_eq!(m.p99_latency_secs, 4.0);
        assert!((m.avg_latency_secs - 3.0).abs() < 1e-12);
        assert!((m.latency_variance - 1.0).abs() < 1e-12);
        assert!((m.miss_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.false_miss_ratio - 0.5).abs() < 1e-12);
        assert_eq!(m.queue_peak, 7);
        // Depth 7 for 50 s then 3 for 50 s = time-average 5.
        assert!((m.avg_queue_depth - 5.0).abs() < 1e-12);
        assert_eq!(m.makespan_secs, 100.0);
        assert_eq!(m.sm_utilization, 0.5);
    }

    #[test]
    fn duplicates_time_average() {
        let mut c = MetricsCollector::new();
        c.record_hot_replicas(SimTime::from_secs(0), 1);
        c.record_hot_replicas(SimTime::from_secs(50), 3);
        let m = c.finish(SimTime::from_secs(100), 0.0);
        assert!((m.avg_duplicates - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_all_zeros() {
        let m = MetricsCollector::new().finish(SimTime::ZERO, 0.0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.avg_latency_secs, 0.0);
        assert_eq!(m.miss_ratio, 0.0);
        assert_eq!(m.false_miss_ratio, 0.0);
    }

    #[test]
    fn invocation_accounting_tracks_effective_batches() {
        let mut c = MetricsCollector::new();
        // Two solo invocations, one 3-request batch, one 2-request batch.
        for _ in 0..7 {
            c.record_completion(SimDuration::from_secs(1));
        }
        c.record_invocation(1);
        c.record_invocation(1);
        c.record_invocation(3);
        c.record_invocation(2);
        let m = c.finish(SimTime::from_secs(10), 0.0);
        assert_eq!(m.invocations, 4);
        assert!((m.avg_effective_batch - 7.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.batched_requests, 5, "only multi-request invocations");
        assert_eq!(m.effective_batch_hist, vec![(1, 2), (2, 1), (3, 1)]);
    }

    #[test]
    fn per_request_dispatch_reports_unit_batches() {
        let mut c = MetricsCollector::new();
        for _ in 0..3 {
            c.record_completion(SimDuration::from_secs(1));
            c.record_invocation(1);
        }
        let m = c.finish(SimTime::from_secs(5), 0.0);
        assert_eq!(m.invocations, m.completed);
        assert_eq!(m.avg_effective_batch, 1.0);
        assert_eq!(m.batched_requests, 0);
        assert_eq!(m.effective_batch_hist, vec![(1, 3)]);
    }

    fn busy_collector() -> MetricsCollector {
        let mut c = MetricsCollector::new();
        c.record_completion(SimDuration::from_micros(2_500_000));
        c.record_completion(SimDuration::from_micros(1_234_567));
        c.record_dispatch(true, false);
        c.record_dispatch(false, true);
        c.record_hot_replicas(SimTime::from_secs(1), 2);
        c.observe_queue_depth(SimTime::from_secs(0), 4);
        c.observe_queue_depth(SimTime::from_secs(2), 1);
        c.record_invocation(2);
        c
    }

    #[test]
    fn latency_tick_sum_is_exact() {
        let c = busy_collector();
        assert_eq!(c.latency_tick_sum(), 2_500_000 + 1_234_567);
    }

    #[test]
    fn snapshot_image_rolls_back_later_updates() {
        let mut c = busy_collector();
        let img = c.snapshot_image();
        let baseline = format!("{c:?}");
        c.record_completion(SimDuration::from_secs(9));
        c.record_dispatch(false, false);
        c.observe_queue_depth(SimTime::from_secs(5), 9);
        c.record_invocation(3);
        c.restore_image(&img);
        assert_eq!(format!("{c:?}"), baseline);
        let m = c.finish(SimTime::from_secs(10), 0.0);
        assert_eq!(m.completed, 2);
        assert_eq!(m.queue_peak, 4);
    }

    #[test]
    fn save_load_round_trips_the_collector() {
        let c = busy_collector();
        let mut enc = Enc::new();
        c.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let loaded = MetricsCollector::load_state(&mut dec).expect("load");
        dec.finish().expect("no trailing bytes");
        assert_eq!(format!("{loaded:?}"), format!("{c:?}"));
        // The rebuilt collector finalises to the same RunMetrics.
        let a = busy_collector().finish(SimTime::from_secs(10), 0.25);
        let b = loaded.finish(SimTime::from_secs(10), 0.25);
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_foreign_histogram_shapes() {
        let mut enc = Enc::new();
        busy_collector().save_state(&mut enc);
        let bytes = enc.into_bytes();
        // Welford's five words, then the bin width, then the bin count.
        let (width_at, nbins_at) = (5 * 8, 6 * 8);
        let patched = |at: usize, word: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&word.to_le_bytes());
            b
        };
        let shapes = [
            patched(nbins_at, u64::MAX),
            patched(nbins_at, 0),
            patched(nbins_at, 601),
            patched(width_at, 2.0f64.to_bits()),
            patched(width_at, f64::NAN.to_bits()),
        ];
        for bad in &shapes {
            assert!(matches!(
                MetricsCollector::load_state(&mut Dec::new(bad)),
                Err(SnapError::Corrupt(_))
            ));
        }
        assert!(MetricsCollector::load_state(&mut Dec::new(&bytes)).is_ok());
    }

    #[test]
    fn reduction_helper() {
        assert!((RunMetrics::reduction(10.0, 2.0) - 0.8).abs() < 1e-12);
        assert_eq!(RunMetrics::reduction(0.0, 5.0), 0.0);
        assert!(RunMetrics::reduction(2.0, 4.0) < 0.0);
    }
}

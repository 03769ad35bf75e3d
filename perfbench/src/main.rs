//! The repository benchmark: host cost and simulated outcome of the
//! gfaas simulator on four load regimes (see `workloads.rs`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload testbed12 --seed 11 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it builds the workload's inputs (trace and cluster,
//! timed as `setup_s`) and runs them, over and over for `--seconds`, and
//! reports the host cost per request together with the simulated
//! outcome. With `--trace 1` it reruns the workload
//! with every policy layer wrapped in a tracing decorator and reports
//! where the host time went, layer by layer, plus snapshot costs at
//! fixed pause points. Either way every run's `RunMetrics` must match
//! bit for bit (the digest is printed), and every request must complete.
//! The last stdout line is a JSON object: `correct`, `attempted`,
//! `failed` (requests not completed) and `metrics`.

mod layers;
mod report;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gfaas_core::{Cluster, RunMetrics};
use gfaas_sim::time::SimTime;
use gfaas_trace::Trace;

use layers::{Kind, Layer, ARMS};
use report::{digest, median, quartiles, ratio, Report, END_TO_END, PER_LAYER};
use workloads::{Workload, WORKLOADS};

/// Fewest measured repetitions per run, however long they take.
const MIN_REPS: usize = 3;
/// Timed snapshot/rollback/commit cycles per pause point.
const SNAP_REPS: usize = 5;
/// Pause points of the snapshot probe, as fractions of the arrival horizon.
const PAUSES: [(&str, f64); 3] = [("at25", 0.25), ("at50", 0.5), ("at75", 0.75)];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::find(value).ok_or_else(|| bad(&names.join(", ")))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("an integer"))?;
                if !(1..=60).contains(&s) {
                    return Err(bad("1 to 60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} seed {} trace {}: {}",
        w.name, args.seed, args.trace as u8, w.why
    );
    let budget = Duration::from_secs(args.seconds);
    let (report, defs): (Report, &[report::Def]) = if args.trace {
        (traced(w, args.seed, budget), &PER_LAYER)
    } else {
        (untraced(w, args.seed, budget), &END_TO_END)
    };
    for d in defs {
        if let Some(v) = report.value(d.name) {
            let unit = d.unit;
            let better = d.better.as_str();
            println!(
                "{:<36} {v:>16.4} {unit:<7} {better} is better; {}",
                d.name, d.moves
            );
        }
    }
    println!("{}", report.finish(defs));
    ExitCode::SUCCESS
}

/// Repeated untraced runs of one workload.
struct Runs {
    /// The trace of the last repetition (every repetition's is the same).
    trace: Trace,
    /// Host ms of `Scenario::trace` and of `Cluster::new`, per repetition.
    gen_ms: Vec<f64>,
    build_ms: Vec<f64>,
    /// Host ns of `Cluster::run` per trace request, per repetition.
    ns_per_req: Vec<f64>,
    /// Peak resident set after the first repetition, MiB.
    peak_rss_mib: Option<f64>,
    metrics: RunMetrics,
    digest: u64,
}

/// Sets up and runs the workload until `budget` has passed (and at least
/// `MIN_REPS` times). Each repetition builds its own inputs, so set-up
/// samples spread over the run like the run samples do. Every run must
/// match the first bit for bit.
fn measure(w: &Workload, seed: u64, budget: Duration, r: &mut Report) -> Runs {
    let start = Instant::now();
    let (mut gen_ms, mut build_ms, mut ns_per_req) = (Vec::new(), Vec::new(), Vec::new());
    let mut trace = Trace::default();
    let mut first: Option<(RunMetrics, u64)> = None;
    let mut peak_rss_mib = None;
    while ns_per_req.len() < MIN_REPS || start.elapsed() < budget {
        let t0 = Instant::now();
        trace = std::hint::black_box(w.trace(seed));
        let t1 = Instant::now();
        let mut cluster = std::hint::black_box(w.cluster(seed));
        let t2 = Instant::now();
        let m = cluster.run(std::hint::black_box(&trace));
        let t3 = Instant::now();
        gen_ms.push((t1 - t0).as_secs_f64() * 1e3);
        build_ms.push((t2 - t1).as_secs_f64() * 1e3);
        ns_per_req.push((t3 - t2).as_nanos() as f64 / trace.len() as f64);
        let d = digest(&m);
        tally(r, &trace, &m);
        match &first {
            None => {
                // Read before later repetitions' allocator churn can
                // raise it: one set-up and run is what a user pays.
                peak_rss_mib = read_peak_rss_mib();
                first = Some((m, d));
            }
            Some((_, d0)) => r.check(d == *d0, || {
                format!(
                    "repetition {} digest {d:#018x} != {d0:#018x}",
                    ns_per_req.len()
                )
            }),
        }
    }
    let (metrics, digest) = first.expect("at least one repetition");
    let q = quartiles(&ns_per_req);
    println!(
        "requests {}, {} repetitions, digest {digest:#018x}, ns/request quartiles {:.1} {:.1} {:.1}",
        trace.len(),
        ns_per_req.len(),
        q[0],
        q[1],
        q[2]
    );
    Runs {
        trace,
        gen_ms,
        build_ms,
        ns_per_req,
        peak_rss_mib,
        metrics,
        digest,
    }
}

/// Counts one run's requests and checks that all of them completed.
fn tally(r: &mut Report, trace: &Trace, m: &RunMetrics) {
    let n = trace.len() as u64;
    r.attempted += n;
    r.failed += n.saturating_sub(m.completed);
    r.check(m.completed == n, || {
        format!("completed {} of {n} requests", m.completed)
    });
}

fn untraced(w: &Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    let runs = measure(w, seed, budget, &mut r);
    let setup_s: Vec<f64> = (runs.gen_ms.iter().zip(&runs.build_ms))
        .map(|(g, b)| (g + b) / 1e3)
        .collect();
    r.metric("setup_s", median(&setup_s));
    // The upper quartile, not the median: the host's speed alternates
    // between regimes lasting tens of seconds, and the median of one run
    // jumps between them while the upper quartile tracks the usual one.
    r.metric("ns_per_request", quartiles(&runs.ns_per_req)[2]);
    match runs.peak_rss_mib {
        Some(mib) => r.metric("peak_rss_mib", mib),
        None => r
            .errors
            .push("cannot read VmHWM from /proc/self/status".into()),
    }

    let m = &runs.metrics;
    println!(
        "simulated over {} latency samples: p50 {:.4} s, p99 {:.4} s, miss ratio {:.4}",
        m.completed, m.p50_latency_secs, m.p99_latency_secs, m.miss_ratio
    );
    r.metric("sim_p99_latency_s", m.p99_latency_secs);
    r.metric("sim_gpu_seconds", m.gpu_seconds_provisioned);

    let (capacity, points) = workloads::capacity(seed);
    for p in &points {
        println!(
            "capacity probe {} req/min: p99 {:.2} s, drain {:.2} s, {}",
            p.rpm,
            p.p99_s,
            p.drain_s,
            if p.pass { "pass" } else { "fail" }
        );
    }
    r.metric("sim_capacity_rpm", capacity as f64);
    r
}

/// Peak resident set of this process so far, MiB.
fn read_peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn traced(w: &Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    // Untraced reference: set-up times, the digest, and the run time the
    // tracing overhead is measured against.
    let reference = measure(w, seed, budget / 2, &mut r);
    let trace = &reference.trace;
    let n = trace.len() as f64;
    r.metric("workload.gen_ms", median(&reference.gen_ms));
    r.metric("cluster.build_ms", median(&reference.build_ms));
    let untraced_ns = median(&reference.ns_per_req);

    let mut cluster = w.traced_cluster(seed);
    layers::start();
    layers::enter(Kind::Run);
    let t0 = Instant::now();
    let m = cluster.run(trace);
    let run_ns = t0.elapsed().as_nanos() as f64;
    layers::exit(Kind::Run);
    let tracer = layers::stop();
    tally(&mut r, trace, &m);
    let d = digest(&m);
    println!("traced digest {d:#018x}");
    r.check(d == reference.digest, || {
        format!(
            "traced digest {d:#018x} != untraced {:#018x}",
            reference.digest
        )
    });
    r.check(!tracer.misnested, || {
        "spans closed out of nesting order".into()
    });

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("{}.spans.tsv", w.name));
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::File::create(&file))
        .and_then(|f| layers::write_spans(&tracer.spans, std::io::BufWriter::new(f)));
    r.check(written.is_ok(), || {
        format!("writing {}: {written:?}", file.display())
    });
    println!("spans {} written to {}", tracer.spans.len(), file.display());

    let totals = layers::self_times(&tracer.spans);
    let of = |k: Kind| totals[k as usize];
    let per_call = |k: Kind| ratio(of(k).self_ns as f64, of(k).calls as f64);
    let per_req = |k: Kind| of(k).self_ns as f64 / n;

    // Self time per layer; together they must account for the whole run.
    let mut layer_ns = [0u64; Layer::ALL.len()];
    for k in Kind::ALL {
        layer_ns[k.layer() as usize] += of(k).self_ns;
    }
    let layer_per_req = |l: Layer| layer_ns[l as usize] as f64 / n;
    let root_ns = tracer.spans.first().map_or(0, |s| s.end - s.start);
    let accounted: u64 = layer_ns.iter().sum();
    r.check(accounted == root_ns, || {
        format!("layer self times sum to {accounted} ns, run span is {root_ns} ns")
    });
    let parts: Vec<String> = Layer::ALL
        .iter()
        .map(|&l| format!("{} {:.1}", l.name(), layer_per_req(l)))
        .collect();
    println!(
        "self ns/req by layer: {} = {:.1}",
        parts.join(" + "),
        accounted as f64 / n
    );

    // Lifecycle events and Algorithm-2 arms, from a separate recorded run.
    let mut counted = w.counted_cluster(seed);
    layers::start();
    let m_counted = counted.run(trace);
    let counts = layers::stop().counts;
    tally(&mut r, trace, &m_counted);
    let d = digest(&m_counted);
    r.check(d == reference.digest, || {
        format!(
            "recorded digest {d:#018x} != untraced {:#018x}",
            reference.digest
        )
    });

    let p = cluster.self_profile();
    r.metric("cluster.self_ns_per_req", per_req(Kind::Run));
    r.metric("cluster.events_per_req", p.events_popped as f64 / n);
    r.metric("cluster.passes_per_req", p.schedule_passes as f64 / n);
    r.metric("cluster.rounds_per_req", p.pass_rounds as f64 / n);
    r.metric("cluster.heap_peak", p.heap_peak as f64);

    r.metric(
        "scheduler.idle_order.calls",
        of(Kind::IdleOrder).calls as f64,
    );
    r.metric(
        "scheduler.idle_order.ns_per_call",
        per_call(Kind::IdleOrder),
    );
    r.metric("scheduler.idle_order.ns_per_req", per_req(Kind::IdleOrder));
    let idle = of(Kind::OnGpuIdle);
    r.metric("scheduler.on_gpu_idle.calls", idle.calls as f64);
    r.metric(
        "scheduler.on_gpu_idle.ns_per_call",
        per_call(Kind::OnGpuIdle),
    );
    r.metric("scheduler.on_gpu_idle.ns_per_req", per_req(Kind::OnGpuIdle));
    r.metric(
        "scheduler.on_gpu_idle.placed_ratio",
        ratio(tracer.counts.placed as f64, idle.calls as f64),
    );
    r.metric(
        "scheduler.estimator_calls_per_req",
        p.estimator_calls as f64 / n,
    );
    let arms: u64 = counts.arms.iter().sum();
    for ((_, arm), count) in ARMS.iter().zip(counts.arms) {
        r.metric(
            format!("scheduler.arm.{arm}_share"),
            ratio(count as f64, arms as f64),
        );
    }

    r.metric("cache.on_hit.calls", of(Kind::OnHit).calls as f64);
    r.metric("cache.on_insert.calls", of(Kind::OnInsert).calls as f64);
    r.metric("cache.pick_victim.calls", of(Kind::PickVictim).calls as f64);
    r.metric("cache.order.calls", of(Kind::Order).calls as f64);
    r.metric("cache.pick_victim.ns_per_call", per_call(Kind::PickVictim));
    r.metric("cache.order.ns_per_call", per_call(Kind::Order));
    r.metric("cache.ns_per_req", layer_per_req(Layer::Cache));

    r.metric("batching.plan.calls", of(Kind::BatchPlan).calls as f64);
    r.metric("batching.plan.ns_per_call", per_call(Kind::BatchPlan));
    r.metric("batching.ns_per_req", layer_per_req(Layer::Batching));
    r.metric("batching.holds_parked", p.holds_parked as f64);
    r.metric("batching.avg_batch", m.avg_effective_batch);

    r.metric("autoscale.step.calls", of(Kind::AutoscaleStep).calls as f64);
    r.metric("autoscale.step.ns_per_call", per_call(Kind::AutoscaleStep));
    r.metric("autoscale.ns_per_req", layer_per_req(Layer::Autoscale));
    r.metric("autoscale.scale_ups", cluster.scale_ups() as f64);
    r.metric("autoscale.scale_downs", cluster.scale_downs() as f64);

    let s = cluster.store_stats();
    r.metric("store.host_hits", s.host_hits as f64);
    r.metric("store.origin_loads", s.origin_loads as f64);
    r.metric("store.prefetches", s.prefetches as f64);
    r.metric("store.demotions", s.demotions as f64);
    r.metric(
        "store.host_hit_ratio",
        ratio(s.host_hits as f64, (s.host_hits + s.origin_loads) as f64),
    );

    let j = cluster.journal_stats();
    r.metric("snap.snapshots", j.snapshots as f64);
    r.metric("snap.rollbacks", j.rollbacks as f64);
    r.check(of(Kind::Fork).calls == j.snapshots, || {
        format!(
            "{} fork spans for {} snapshots",
            of(Kind::Fork).calls,
            j.snapshots
        )
    });
    r.metric("snap.fork_ns_per_fork", per_call(Kind::Fork));
    r.metric("snap.fork_ns_per_req", per_req(Kind::Fork));
    pause_probe(w, seed, trace, reference.digest, &mut r);

    r.metric("obs.events", counts.events as f64);
    r.metric("trace.overhead_ratio", run_ns / n / untraced_ns);
    r.metric("trace.run_ns_per_req", run_ns / n);
    r
}

/// Pauses an untraced run at fixed points of the arrival horizon, times
/// snapshot, rollback and commit there and sizes a checkpoint, then
/// resumes; the paused run must end bit-identical to an uninterrupted one.
fn pause_probe(w: &Workload, seed: u64, trace: &Trace, expect: u64, r: &mut Report) {
    let horizon = trace.requests().last().map_or(0.0, |q| q.at.as_secs_f64());
    let mut cluster: Cluster = w.cluster(seed);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (label, frac) in PAUSES {
        cluster.run_until(trace, SimTime::from_secs_f64(horizon * frac));
        let (mut snap, mut back, mut commit) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SNAP_REPS {
            let t = Instant::now();
            let id = cluster.snapshot();
            snap.push(us(t));
            let t = Instant::now();
            let rolled = cluster.rollback(id);
            back.push(us(t));
            let t = Instant::now();
            let committed = cluster.commit(id);
            commit.push(us(t));
            r.check(rolled && committed, || {
                format!("{label}: snapshot pin lost")
            });
        }
        let bytes = cluster.checkpoint(trace).len();
        println!(
            "pause {label} (t={:.1} s): snapshot {:.1} us, rollback {:.1} us, image {bytes} B",
            horizon * frac,
            median(&snap),
            median(&back)
        );
        r.metric(format!("snap.{label}.snapshot_us"), median(&snap));
        r.metric(format!("snap.{label}.rollback_us"), median(&back));
        r.metric(format!("snap.{label}.commit_us"), median(&commit));
        r.metric(format!("snap.{label}.image_bytes"), bytes as f64);
    }
    let m = cluster.resume(trace);
    let d = digest(&m);
    r.check(d == expect, || {
        format!("paused run digest {d:#018x} != uninterrupted {expect:#018x}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload fleet768 --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("fleet768", 9, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload testbed12 --seed x --seconds 1 --trace 0",
            "--workload testbed12 --seed 1 --seconds 0 --trace 0",
            "--workload testbed12 --seed 1 --seconds 1 --trace 2",
            "--workload testbed12 --seed 1 --seconds 1",
            "--workload testbed12 --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn paused_runs_resume_bit_identical() {
        for w in WORKLOADS.iter().map(Workload::smoke) {
            let trace = w.trace(5);
            let expect = digest(&w.cluster(5).run(&trace));
            let mut r = Report::default();
            pause_probe(&w, 5, &trace, expect, &mut r);
            assert!(r.errors.is_empty(), "{}: {:?}", w.name, r.errors);
            assert!(r.value("snap.at75.image_bytes").unwrap() > 0.0);
        }
    }
}

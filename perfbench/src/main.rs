//! Benchmark of the HKPR serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <zipf-http|cold-push|cold-walk|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run stands one workload's stack up several times (timing set-up),
//! warms it, then measures it under an open-loop Poisson schedule and a
//! closed loop of two clients. Answers are checked bit for bit against the
//! one-shot `run_batch` reference and audited against exact HKPR after the
//! clock stops. `--trace 1` replaces the closed loop with a second,
//! traced open-loop phase and reports the per-layer ledger instead of the
//! end-to-end metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the report goes to
//! standard error. See `perfbench/README.md`.

mod check;
mod client;
mod load;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

use hk_gateway::{json, wire};
use hk_serve::MultiEngine;

use client::HttpClient;
use load::Sample;
use stats::{mean, median, quantile, ratio};
use workload::{Answer, Reply, Spec, Stack, Workload, LATENCY_LIMIT, SPECS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Alternations of the measured phases per run.
const CYCLES: u64 = 8;
/// Share of the measured time spent in the open loop; the closed loop
/// gets the rest.
const OPEN_SHARE: f64 = 0.85;
/// Answers per run compared against `run_batch`.
const CHECK_SAMPLE: usize = 16;
/// Of those, answers audited against exact HKPR.
const AUDIT_SAMPLE: usize = 6;
/// Request index bases of the phases, so no two phases share a request.
const OPEN_BASE: u64 = 0;
const CLOSED_BASE: u64 = 1 << 40;
const TRACED_BASE: u64 = 2 << 40;
const WARM_BASE: u64 = 3 << 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if args.workload != "all" && !SPECS.iter().any(|s| s.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <zipf-http|cold-push|cold-walk|all> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let spec = SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .expect("validated above");
    println!("{}", run(spec, &args));
}

/// Run every workload in its own process, one after another.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut lines = Vec::new();
    for spec in &SPECS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(last) = stdout.lines().last().filter(|_| out.status.success()) else {
            eprintln!("perfbench: workload {} failed: {}", spec.name, out.status);
            return 1;
        };
        lines.push(format!("\"{}\":{last}", spec.name));
    }
    println!("{{{}}}", lines.join(","));
    0
}

/// Generated snapshots live beside the executable, inside the build
/// directory, and are removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(name: &str) -> Scratch {
        let exe = std::env::current_exe().expect("own executable path");
        let dir = exe
            .parent()
            .expect("executable has a directory")
            .join("perfbench-data")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create data directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Engine counters summed over the measured phases (the monotonic totals
/// also include set-up and warm-up).
#[derive(Clone, Copy, Default)]
struct Delta {
    hits: u64,
    misses: u64,
    coalesced: u64,
    inserts: u64,
    evictions: u64,
    hub_hits: u64,
    shed: u64,
}

impl Delta {
    fn totals(engine: &MultiEngine) -> Delta {
        let e = engine.stats();
        let c = e.cache;
        Delta {
            hits: c.hits,
            misses: c.misses,
            coalesced: c.coalesced,
            inserts: c.insertions,
            evictions: c.evictions,
            hub_hits: engine.hub_stats().hits,
            shed: e.shed_queued + e.shed_overload + e.cancelled_running,
        }
    }

    /// Run `phase` and add the counters it moved.
    fn measure<T>(&mut self, engine: &MultiEngine, phase: impl FnOnce() -> T) -> T {
        let before = Delta::totals(engine);
        let out = phase();
        let moved = Delta::totals(engine).zip(&before, |a, b| a - b);
        *self = self.zip(&moved, |a, b| a + b);
        out
    }

    fn zip(&self, o: &Delta, f: impl Fn(u64, u64) -> u64) -> Delta {
        Delta {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            coalesced: f(self.coalesced, o.coalesced),
            inserts: f(self.inserts, o.inserts),
            evictions: f(self.evictions, o.evictions),
            hub_hits: f(self.hub_hits, o.hub_hits),
            shed: f(self.shed, o.shed),
        }
    }

    fn hit_ratio(&self) -> f64 {
        let hits = self.hits as f64;
        ratio(hits, hits + (self.misses + self.coalesced) as f64)
    }
}

fn open_phase(
    w: &Workload,
    stack: &Stack,
    offsets: &[Duration],
    base: u64,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> Vec<Sample<Reply>> {
    match stack.addr() {
        Some(addr) => load::open_loop(connect(addr, w.spec.clients), offsets, base, |c, i| {
            workload::call_http(w, c, i, keep(i))
        }),
        None => load::open_loop(vec![(); w.spec.clients], offsets, base, |_, i| {
            workload::call_local(w, &stack.engine, i, keep(i))
        }),
    }
}

fn closed_phase(
    w: &Workload,
    stack: &Stack,
    duration: Duration,
    base: u64,
) -> (Vec<Sample<Reply>>, Duration) {
    match stack.addr() {
        Some(addr) => load::closed_loop(connect(addr, w.spec.clients), duration, base, |c, i| {
            workload::call_http(w, c, i, false)
        }),
        None => load::closed_loop(vec![(); w.spec.clients], duration, base, |_, i| {
            workload::call_local(w, &stack.engine, i, false)
        }),
    }
}

fn connect(addr: std::net::SocketAddr, clients: usize) -> Vec<HttpClient> {
    (0..clients)
        .map(|_| HttpClient::connect(addr).expect("connect to the gateway"))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open-loop latencies in ms; a failed request is infinitely late.
fn latencies_ms(samples: &[Sample<Reply>]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.reply.ok {
                ms(s.latency())
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Closed-loop answers within the latency limit.
fn good_count(samples: &[Sample<Reply>]) -> usize {
    latencies_ms(samples)
        .iter()
        .filter(|&&l| l <= ms(LATENCY_LIMIT))
        .count()
}

/// VmHWM of this process, MB (the kernel reports KiB).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Compare the kept answers against `run_batch` and audit the first few
/// against exact HKPR. Returns `(compared, mismatched, skipped, audit)`.
fn check_answers(
    w: &Workload,
    stack: &Stack,
    samples: &[Sample<Reply>],
) -> (usize, usize, usize, check::Audit) {
    let (mut compared, mut mismatched, mut skipped) = (0, 0, 0);
    let mut audit = check::Audit::default();
    let mut params = vec![None; w.data.len()];
    for s in samples {
        if matches!(s.reply.answer, Answer::None) {
            continue;
        }
        if !s.reply.full() {
            skipped += 1;
            continue;
        }
        let r = w.request(s.index);
        let (graph, _) = stack
            .engine
            .registry()
            .get(&w.data[r.graph].name)
            .expect("graph is resident");
        let params = params[r.graph]
            .get_or_insert_with(|| check::canonical_params(&graph, &w.spec.knobs))
            .clone();
        let reference = check::reference(&graph, &params, r.seed, r.rng_seed);
        let equal = match &s.reply.answer {
            Answer::Local(answer) => answer.bitwise_eq(&reference),
            Answer::Wire(body) => {
                let text = json::parse(body)
                    .ok()
                    .and_then(|j| j.get("result").map(json::Json::render));
                text == Some(wire::canonical_result_text(&reference))
            }
            Answer::None => unreachable!("skipped above"),
        };
        compared += 1;
        if !equal {
            mismatched += 1;
        }
        if audit.answers < AUDIT_SAMPLE {
            audit.add(&graph, &params, r.seed, &reference);
        }
    }
    (compared, mismatched, skipped, audit)
}

/// Check that the workload stresses the layer it exists for; returns the
/// broken claims.
fn stress_failures(
    spec: &Spec,
    samples: &[&Sample<Reply>],
    hit_ratio: f64,
    cache_hits: u64,
) -> Vec<String> {
    let work: Vec<_> = samples.iter().filter_map(|s| s.reply.work).collect();
    let mut failures = Vec::new();
    match spec.kind {
        workload::Kind::ColdPush => {
            let walks: Vec<f64> = work.iter().map(|w| w.walks as f64).collect();
            if median(&walks) != 0.0 {
                failures.push(format!("walks p50 {} != 0", median(&walks)));
            }
            if cache_hits != 0 {
                failures.push(format!("{cache_hits} cache hits on distinct keys"));
            }
        }
        workload::Kind::ColdWalk => {
            let exits = work.iter().filter(|w| w.early_exit).count();
            if exits != 0 || work.is_empty() {
                failures.push(format!(
                    "{exits} of {} computed answers exited early",
                    work.len()
                ));
            }
        }
        workload::Kind::ZipfHttp => {
            if hit_ratio <= 0.5 {
                failures.push(format!("cache hit ratio {hit_ratio:.3} <= 0.5"));
            }
        }
    }
    failures
}

/// Warm caches, connections and lazily built state before timing.
fn warm(w: &Workload, stack: &Stack) {
    if w.spec.kind == workload::Kind::ZipfHttp {
        // Fill the result cache with the workload's own distribution.
        for i in 0..2_000 {
            workload::call_local(w, &stack.engine, WARM_BASE + i, false);
        }
    }
    closed_phase(w, stack, Duration::from_millis(500), WARM_BASE + (1 << 30));
}

type Metric = (String, f64, &'static str);

fn run(spec: &'static Spec, args: &Args) -> String {
    let scratch = Scratch::create(spec.name);
    let w = Workload::prepare(spec, args.seed, &scratch.0);
    let mut setup_s = Vec::new();
    let mut get_us = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let (s, took) = Stack::start(&w);
        setup_s.push(took.as_secs_f64());
        get_us.extend_from_slice(&s.get_us);
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    warm(&w, &stack);

    // The measured phases alternate in short blocks, so that each phase
    // samples the whole run and not one stretch of a shared host's noise.
    let seconds = args.seconds as f64;
    let block = |share: f64| seconds * share / CYCLES as f64;
    let schedule = |cycle: u64, salt: u64| {
        let open_share = if args.trace { 0.5 } else { OPEN_SHARE };
        load::poisson_schedule(
            spec.rate,
            block(open_share),
            stats::mix_all(&[args.seed, cycle, salt]),
        )
    };
    let first_block = schedule(0, OPEN_BASE).len() as u64;
    let stride = (first_block / CHECK_SAMPLE as u64).max(1);
    let keep = move |i: u64| {
        i < first_block && i.is_multiple_of(stride) && i / stride < CHECK_SAMPLE as u64
    };
    let (mut open, mut closed, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut closed_wall = Duration::ZERO;
    // Latency median and goodput per block; the run reports their medians
    // over blocks, so a stretch of host interference shorter than half the
    // run does not move them.
    let (mut block_p50, mut block_goodput) = (Vec::new(), Vec::new());
    let (mut run_delta, mut traced_delta) = (Delta::default(), Delta::default());
    let engine = &stack.engine;
    for cycle in 0..CYCLES {
        let offsets = schedule(cycle, OPEN_BASE);
        let base = cycle << 32;
        let samples = run_delta.measure(engine, || {
            open_phase(&w, &stack, &offsets, OPEN_BASE + base, &keep)
        });
        block_p50.push(median(&latencies_ms(&samples)));
        open.extend(samples);
        if args.trace {
            let offsets = schedule(cycle, TRACED_BASE);
            let mut d = Delta::default();
            traced.extend(d.measure(engine, || {
                open_phase(&w, &stack, &offsets, TRACED_BASE + base, &|_| false)
            }));
            run_delta = run_delta.zip(&d, |a, b| a + b);
            traced_delta = traced_delta.zip(&d, |a, b| a + b);
        } else {
            let duration = Duration::from_secs_f64(block(1.0 - OPEN_SHARE));
            let (samples, wall) = run_delta.measure(engine, || {
                closed_phase(&w, &stack, duration, CLOSED_BASE + base)
            });
            block_goodput.push(good_count(&samples) as f64 / wall.as_secs_f64().max(1e-9));
            closed.extend(samples);
            closed_wall += wall;
        }
    }
    let peak_rss = peak_rss_mb();

    // Off the clock from here on.
    let all: Vec<&Sample<Reply>> = open.iter().chain(&closed).chain(&traced).collect();
    let attempted = all.len();
    let failed = all.iter().filter(|s| !s.reply.ok).count();
    let degraded = all
        .iter()
        .filter(|s| s.reply.ok && s.reply.degraded)
        .count();
    let (compared, mismatched, skipped, audit) = check_answers(&w, &stack, &open);
    let run_hit_ratio = run_delta.hit_ratio();
    let failures = stress_failures(spec, &all, run_hit_ratio, run_delta.hits);
    let correct = compared > 0 && mismatched == 0 && failures.is_empty();

    let open_ms = latencies_ms(&open);
    let mut report = format!(
        "perfbench {} seed={} seconds={} trace={} | host: nproc={} cpu=\"{}\"\n",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model()
    );
    report += &format!(
        "  open loop: offered {:.1}/s in {CYCLES} blocks, {} sent, {} failed, {} degraded; \
         generator lag p99 {:.3} ms\n",
        spec.rate,
        open.len(),
        open.iter().filter(|s| !s.reply.ok).count(),
        open.iter()
            .filter(|s| s.reply.ok && s.reply.degraded)
            .count(),
        quantile(&open.iter().map(|s| ms(s.lag())).collect::<Vec<_>>(), 0.99)
    );
    report += &format!(
        "  correctness: {compared} sampled answers vs run_batch, {mismatched} mismatched, \
         {skipped} skipped (degraded or failed)\n"
    );
    report += &format!(
        "  quality audit: {} answers, {} (seed, node) pairs vs exact HKPR, {} violations \
         (hkpr_violation_share {:.6})\n",
        audit.answers,
        audit.pairs,
        audit.violations,
        audit.violation_share()
    );
    report += &format!(
        "  requests: {attempted} sent, {failed} failed (failed_share {:.6}), {degraded} \
         degraded answers counted as successes; cache hit ratio {:.3}\n",
        ratio(failed as f64, attempted as f64),
        run_hit_ratio
    );
    for f in &failures {
        report += &format!("  STRESS CHECK FAILED: {f}\n");
    }

    let metrics: Vec<Metric> = if args.trace {
        let replays = stack
            .addr()
            .is_some()
            .then(|| trace::replay_gateway(&w, &stack.engine, &traced));
        let ledger = trace::Ledger::build(&traced, replays.as_deref());
        report += &ledger.render();
        let untraced_p50 = median(&open_ms);
        let traced_p50 = median(&latencies_ms(&traced));
        let mut m = layer_metrics(
            &w,
            &stack,
            &traced,
            replays.as_deref(),
            &traced_delta,
            &get_us,
        );
        m.push((
            "loadgen.lag_p99_ms".into(),
            quantile(
                &open
                    .iter()
                    .chain(&traced)
                    .map(|s| ms(s.lag()))
                    .collect::<Vec<_>>(),
                0.99,
            ),
            "ms",
        ));
        m.push((
            "ledger.unaccounted_share".into(),
            ledger.unaccounted_share(),
            "ratio",
        ));
        m.push((
            "ledger.trace_overhead_share".into(),
            ratio(traced_p50, untraced_p50) - 1.0,
            "ratio",
        ));
        m
    } else {
        let good = good_count(&closed);
        let conductance: Vec<f64> = open
            .iter()
            .filter(|s| s.reply.full())
            .map(|s| s.reply.conductance)
            .collect();
        report += &format!(
            "  closed loop: {} clients for {:.2} s, {} sent, {good} within {} ms \
             ({:.1}/s pooled over blocks)\n",
            spec.clients,
            closed_wall.as_secs_f64(),
            closed.len(),
            LATENCY_LIMIT.as_millis(),
            good as f64 / closed_wall.as_secs_f64().max(1e-9)
        );
        report += &format!(
            "  open-loop latency over {} samples in {CYCLES} blocks: pooled p50 {:.3} ms, \
             p90 {:.3} ms, p99 {:.3} ms ({} samples beyond it); conductance n={}, \
             setup reps={}\n",
            open_ms.len(),
            median(&open_ms),
            quantile(&open_ms, 0.9),
            quantile(&open_ms, 0.99),
            open_ms.len() - (0.99 * open_ms.len() as f64).ceil() as usize,
            conductance.len(),
            setup_s.len()
        );
        vec![
            ("setup_s".into(), median(&setup_s), "s"),
            ("latency_p50_ms".into(), median(&block_p50), "ms"),
            ("goodput_qps".into(), median(&block_goodput), "1/s"),
            (
                "answered_share".into(),
                1.0 - ratio(failed as f64, attempted as f64),
                "ratio",
            ),
            ("conductance_mean".into(), mean(&conductance), "ratio"),
            (
                "hkpr_within_bound_share".into(),
                1.0 - audit.violation_share(),
                "ratio",
            ),
            ("peak_rss_mb".into(), peak_rss, "MB"),
        ]
    };
    for (name, value, unit) in &metrics {
        report += &format!("  {name:<36} {value:>14.6} {unit}\n");
    }
    eprint!("{report}");
    drop(stack);
    drop(scratch);
    result_json(correct, attempted, failed, &metrics)
}

fn layer_metrics(
    w: &Workload,
    stack: &Stack,
    traced: &[Sample<Reply>],
    replays: Option<&[Option<trace::Replayed>]>,
    delta: &Delta,
    get_us: &[f64],
) -> Vec<Metric> {
    let http = |f: &dyn Fn(&Sample<Reply>, &trace::Replayed) -> f64| -> Vec<f64> {
        match replays {
            Some(r) => traced
                .iter()
                .zip(r)
                .filter_map(|(s, r)| r.as_ref().map(|r| f(s, r)))
                .collect(),
            None => Vec::new(),
        }
    };
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let wait = http(&|s, _| us(s.reply.first_byte.expect("HTTP reply") - s.sent));
    let read = http(&|s, _| us(s.done - s.reply.first_byte.expect("HTTP reply")));
    let parse = http(&|_, r| r.parse_us);
    let decode = http(&|_, r| r.decode_us);
    let encode = http(&|_, r| r.encode_us);
    let bytes = http(&|s, _| s.reply.body_bytes as f64);
    let engine = stack.engine.stats();
    let hub = stack.engine.hub_stats();
    let mut m: Vec<Metric> = vec![
        ("client.wait_us_p50".into(), median(&wait), "us"),
        ("client.read_us_p50".into(), median(&read), "us"),
        ("gateway.http.parse_us_p50".into(), median(&parse), "us"),
        ("gateway.wire.decode_us_p50".into(), median(&decode), "us"),
        ("gateway.wire.encode_us_p50".into(), median(&encode), "us"),
        (
            "gateway.wire.encode_us_p99".into(),
            quantile(&encode, 0.99),
            "us",
        ),
        (
            "gateway.wire.response_bytes_p50".into(),
            median(&bytes),
            "bytes",
        ),
        ("serve.cache.hit_ratio".into(), delta.hit_ratio(), "ratio"),
        (
            "serve.cache.coalesced".into(),
            delta.coalesced as f64,
            "count",
        ),
        ("serve.cache.inserts".into(), delta.inserts as f64, "count"),
        (
            "serve.cache.evictions".into(),
            delta.evictions as f64,
            "count",
        ),
        ("serve.hub.hits".into(), delta.hub_hits as f64, "count"),
        ("serve.hub.build_ms".into(), hub.build_ns as f64 / 1e6, "ms"),
        (
            "serve.hub.resident_mb".into(),
            hub.resident_bytes as f64 / 1e6,
            "MB",
        ),
        (
            "serve.engine.queue_hwm".into(),
            engine.queue_hwm as f64,
            "count",
        ),
        ("serve.engine.shed".into(), delta.shed as f64, "count"),
        ("serve.registry.get_us_p50".into(), median(get_us), "us"),
        (
            "serve.registry.loads".into(),
            stack.engine.registry().stats().loads as f64,
            "count",
        ),
    ];
    // Bench-side load of each snapshot straight from storage, summed over
    // the workload's graphs; median of three.
    let loads: Vec<f64> = (0..3)
        .map(|_| {
            w.data
                .iter()
                .map(|d| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(
                        hk_graph::io::load_binary(&d.path).expect("snapshot loads"),
                    );
                    ms(t.elapsed())
                })
                .sum()
        })
        .collect();
    m.push(("graph.storage.load_ms".into(), median(&loads), "ms"));
    m.push((
        "graph.storage.snapshot_mb".into(),
        w.data.iter().map(|d| d.snapshot_bytes as f64).sum::<f64>() / 1e6,
        "MB",
    ));
    trace::core_metrics(traced, replays, &mut m);
    m
}

/// The result line. Non-finite values (a percentile that landed on a failed
/// request) are written as 1e308, the largest round JSON number.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "1e308".into()
            };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

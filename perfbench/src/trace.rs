//! The traced run's per-layer ledger. Spans come from outside the
//! program: the load generator's timestamps, the program's own
//! `QueryTiming` and cost counters, and — for the HTTP workload — an
//! in-process replay of each recorded request through the gateway's
//! public steps.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hk_gateway::http::{response_bytes, HttpLimits, RequestParser};
use hk_gateway::{json, wire};
use hk_serve::{CacheOutcome, EngineConfig, MultiEngine, MultiEngineConfig, QueryTiming};

use crate::load::Sample;
use crate::stats::{median, quantile, ratio};
use crate::workload::{Reply, Work, Workload};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Gateway-side cost of one recorded HTTP request, replayed in-process.
pub struct Replayed {
    pub parse_us: f64,
    pub decode_us: f64,
    pub encode_us: f64,
    pub frame_us: f64,
    /// For answers the live engine computed: the same query on an
    /// uncached twin engine, whose timing splits push, walk and sweep
    /// (the wire carries only their sum).
    pub computed: Option<(QueryTiming, Work)>,
}

fn was_computed(reply: &Reply) -> bool {
    matches!(
        reply.outcome,
        Some(CacheOutcome::Miss | CacheOutcome::Uncached)
    )
}

/// Replay every answered request of `samples` through
/// `http::RequestParser` → `json::parse` → `wire::request_from_json` →
/// `MultiEngine::query` → `wire::response_json` → `Json::render` →
/// `http::response_bytes`, timing each step.
pub fn replay_gateway(
    w: &Workload,
    engine: &MultiEngine,
    samples: &[Sample<Reply>],
) -> Vec<Option<Replayed>> {
    let twin = MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 1,
            walk_threads: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        },
        ..MultiEngineConfig::default()
    });
    for d in &w.data {
        let (graph, _) = engine.registry().get(&d.name).expect("graph is resident");
        twin.registry().register_graph(&d.name, graph);
    }
    samples
        .iter()
        .map(|s| {
            if !s.reply.full() {
                return None;
            }
            let r = w.request(s.index);
            let name = &w.data[r.graph].name;
            let bytes = w.http_request(r);
            let t0 = Instant::now();
            let mut parser = RequestParser::new(HttpLimits::default());
            parser.feed(&bytes);
            let req = parser
                .try_next()
                .expect("benchmark request parses")
                .expect("benchmark request is complete");
            let t1 = Instant::now();
            let body = json::parse(&req.body).expect("benchmark body is JSON");
            let mut query = wire::request_from_json(&body).expect("benchmark body decodes");
            let deadline = req
                .header("x-deadline-ms")
                .map(|v| wire::deadline_from_header(v).expect("valid deadline header"));
            query.deadline = deadline.map(|d| t0 + d);
            let t2 = Instant::now();
            let computed = was_computed(&s.reply);
            let resp = if computed { &twin } else { engine }
                .query(name, query)
                .expect("replayed query succeeds");
            let t3 = Instant::now();
            let text = wire::response_json(name, query.seed, &resp).render();
            let t4 = Instant::now();
            let framed = response_bytes(200, "OK", "application/json", text.as_bytes(), true);
            let t5 = Instant::now();
            std::hint::black_box(framed);
            Some(Replayed {
                parse_us: us(t1 - t0),
                decode_us: us(t2 - t1),
                encode_us: us(t4 - t3),
                frame_us: us(t5 - t4),
                computed: computed.then(|| (resp.timing, Work::of(&resp.result))),
            })
        })
        .collect()
}

/// Ledger layers in request-path order; each row is one request's self
/// time in that layer, µs.
const LAYERS: [&str; 11] = [
    "gateway.http.parse",
    "gateway.wire.decode",
    "serve.engine",
    "serve.engine.queue",
    "core.push_plus",
    "core.walk",
    "core.estimate.other",
    "cluster.sweep",
    "gateway.wire.encode",
    "gateway.http.frame",
    "client.read",
];

/// Per-request self times of a traced phase.
pub struct Ledger {
    pub e2e_us: Vec<f64>,
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    pub unaccounted_us: Vec<f64>,
    /// `zipf-http`: hit latency split (encode, client read, cache probe).
    pub hit_split: Option<[f64; 3]>,
}

impl Ledger {
    /// Decompose each answered request of the traced phase. A layer's
    /// self time is its span minus its children's; the unaccounted rest
    /// is what no layer covers (in-process: the call around the engine's
    /// own total; over HTTP: loopback transfer and thread hand-offs).
    pub fn build(samples: &[Sample<Reply>], replays: Option<&[Option<Replayed>]>) -> Ledger {
        let mut ledger = Ledger {
            e2e_us: Vec::new(),
            layers: LAYERS.iter().map(|&l| (l, Vec::new())).collect(),
            unaccounted_us: Vec::new(),
            hit_split: None,
        };
        let mut hits: [Vec<f64>; 3] = Default::default();
        for (i, s) in samples.iter().enumerate() {
            if !s.reply.full() {
                continue;
            }
            let e2e = us(s.done - s.sent);
            let t = s.reply.timing;
            let mut row: BTreeMap<&'static str, f64> = BTreeMap::new();
            let (push, walk) = match replays {
                Some(r) => match r[i].as_ref().and_then(|r| r.computed.as_ref()) {
                    Some((twin, _)) => (ns_us(twin.push_ns), ns_us(twin.walk_ns)),
                    None => (0.0, 0.0),
                },
                None => (ns_us(t.push_ns), ns_us(t.walk_ns)),
            };
            row.insert("serve.engine.queue", ns_us(t.queue_ns));
            row.insert("core.push_plus", push);
            row.insert("core.walk", walk);
            row.insert("core.estimate.other", ns_us(t.estimate_ns) - push - walk);
            row.insert("cluster.sweep", ns_us(t.sweep_ns));
            row.insert(
                "serve.engine",
                ns_us(t.total_ns) - ns_us(t.queue_ns) - ns_us(t.estimate_ns) - ns_us(t.sweep_ns),
            );
            let unaccounted = match replays.and_then(|r| r[i].as_ref()) {
                Some(rp) => {
                    let first = s.reply.first_byte.expect("HTTP replies carry a first byte");
                    let wait = us(first - s.sent);
                    let read = us(s.done - first);
                    row.insert("gateway.http.parse", rp.parse_us);
                    row.insert("gateway.wire.decode", rp.decode_us);
                    row.insert("gateway.wire.encode", rp.encode_us);
                    row.insert("gateway.http.frame", rp.frame_us);
                    row.insert("client.read", read);
                    if s.reply.outcome == Some(CacheOutcome::Hit) {
                        hits[0].push(rp.encode_us);
                        hits[1].push(read);
                        hits[2].push(ns_us(t.total_ns));
                    }
                    wait - rp.parse_us
                        - rp.decode_us
                        - ns_us(t.total_ns)
                        - rp.encode_us
                        - rp.frame_us
                }
                None => e2e - ns_us(t.total_ns),
            };
            ledger.e2e_us.push(e2e);
            ledger.unaccounted_us.push(unaccounted);
            for (layer, column) in ledger.layers.iter_mut() {
                column.push(row.get(layer).copied().unwrap_or(0.0));
            }
        }
        if replays.is_some() && !hits[0].is_empty() {
            ledger.hit_split = Some([median(&hits[0]), median(&hits[1]), median(&hits[2])]);
        }
        ledger
    }

    pub fn unaccounted_share(&self) -> f64 {
        ratio(median(&self.unaccounted_us), median(&self.e2e_us))
    }

    /// Human-readable ledger: each layer's median self time and its share
    /// of the end-to-end median.
    pub fn render(&self) -> String {
        let e2e = median(&self.e2e_us);
        let mut out = format!(
            "  ledger over {} traced requests (send to last byte), e2e p50 {:.1} us\n",
            self.e2e_us.len(),
            e2e
        );
        out += &format!(
            "    {:<24} {:>12} {:>10}\n",
            "layer", "self p50 us", "share"
        );
        for layer in LAYERS {
            let v = median(&self.layers[layer]);
            out += &format!(
                "    {layer:<24} {v:>12.1} {:>9.1}%\n",
                100.0 * ratio(v, e2e)
            );
        }
        let u = median(&self.unaccounted_us);
        out += &format!(
            "    {:<24} {u:>12.1} {:>9.1}%\n",
            "unaccounted",
            100.0 * ratio(u, e2e)
        );
        if let Some([encode, read, probe]) = self.hit_split {
            out += &format!(
                "  cache-hit latency split (p50): wire encode {encode:.1} us, client read \
                 {read:.1} us, engine cache probe {probe:.1} us\n"
            );
        }
        out
    }
}

/// Per-layer counters of the answers a worker computed in the traced
/// phase. Queue waits come from the live engine (over HTTP, the body's
/// `timing`); work counters and the push/walk/sweep split come from the
/// replies in-process and from the twin replays over HTTP.
pub fn core_metrics(
    samples: &[Sample<Reply>],
    replays: Option<&[Option<Replayed>]>,
    out: &mut Vec<(String, f64, &'static str)>,
) {
    let queue_us: Vec<f64> = samples
        .iter()
        .filter(|s| was_computed(&s.reply))
        .map(|s| ns_us(s.reply.timing.queue_ns))
        .collect();
    let c: Vec<(QueryTiming, Work)> = match replays {
        Some(r) => r.iter().flatten().filter_map(|r| r.computed).collect(),
        None => samples
            .iter()
            .filter_map(|s| s.reply.work.map(|w| (s.reply.timing, w)))
            .collect(),
    };
    let col = |f: &dyn Fn(&(QueryTiming, Work)) -> f64| -> Vec<f64> { c.iter().map(f).collect() };
    let push_us = col(&|(t, _)| ns_us(t.push_ns));
    let walk_us = col(&|(t, _)| ns_us(t.walk_ns));
    let sweep_us = col(&|(t, _)| ns_us(t.sweep_ns));
    let ops = col(&|(_, w)| w.push_ops as f64);
    let walks = col(&|(_, w)| w.walks as f64);
    let steps = col(&|(_, w)| w.steps as f64);
    let support = col(&|(_, w)| w.support as f64);
    let prefix = col(&|(_, w)| w.prefix as f64);
    let early = col(&|(_, w)| if w.early_exit { 1.0 } else { 0.0 });
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    for (name, value, unit) in [
        ("serve.engine.queue_us_p50", median(&queue_us), "us"),
        ("serve.engine.queue_us_p99", quantile(&queue_us, 0.99), "us"),
        ("core.push_plus.us_p50", median(&push_us), "us"),
        ("core.push_plus.us_p99", quantile(&push_us, 0.99), "us"),
        ("core.push_plus.ops_p50", median(&ops), "count"),
        (
            "core.push_plus.ns_per_op",
            ratio(1e3 * sum(&push_us), sum(&ops)),
            "ns/op",
        ),
        (
            "core.push_plus.early_exit_share",
            ratio(sum(&early), c.len() as f64),
            "ratio",
        ),
        ("core.walk.us_p50", median(&walk_us), "us"),
        ("core.walk.walks_p50", median(&walks), "count"),
        ("core.walk.steps_p50", median(&steps), "count"),
        (
            "core.walk.ns_per_step",
            ratio(1e3 * sum(&walk_us), sum(&steps)),
            "ns/step",
        ),
        ("cluster.sweep.us_p50", median(&sweep_us), "us"),
        ("cluster.sweep.support_p50", median(&support), "count"),
        ("cluster.sweep.prefix_p50", median(&prefix), "count"),
        (
            "cluster.sweep.ns_per_support_node",
            ratio(1e3 * sum(&sweep_us), sum(&support)),
            "ns/node",
        ),
    ] {
        out.push((name.to_string(), value, unit));
    }
}

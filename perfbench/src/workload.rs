//! The three workloads: their inputs, the serving stack each one stands
//! up, and how one request is sent and its reply recorded.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hk_bench::datasets::DatasetId;
use hk_cluster::ClusterResult;
use hk_gateway::{Gateway, GatewayConfig};
use hk_graph::{Graph, NodeId};
use hk_serve::{
    CacheOutcome, EngineConfig, Knobs, MultiEngine, MultiEngineConfig, QueryRequest, QueryResponse,
    QueryTiming,
};

use crate::client::{number_after, string_after, HttpClient};
use crate::stats::{mix_all, unit, Zipf};

/// Deadline every request carries: generous, so the deadline machinery
/// runs on every request but should never fire.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Answers slower than this do not count towards goodput.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ZipfHttp,
    ColdPush,
    ColdWalk,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Open-loop offered rate (requests/s), fixed so that a faster change
    /// faces the same load: about a quarter or less of the closed-loop
    /// goodput of the commit that introduced the benchmark. At higher
    /// load the latency median sat on the edge between requests that
    /// found the worker free and requests that queued, and the shared
    /// host's speed drift flipped it from run to run.
    pub rate: f64,
    pub knobs: Knobs,
    /// Hub store size per graph (0 = off).
    pub hub_top_k: usize,
    /// Load-generator threads, each with its own connection (or
    /// in-process caller). `zipf-http` uses one: with two, the closed-loop
    /// goodput on a 2-vCPU host split between two levels (~370 and ~530
    /// requests/s) from run to run, a 33% spread.
    pub clients: usize,
}

const DEFAULT_KNOBS: Knobs = Knobs {
    t: 5.0,
    eps_r: 0.5,
    delta: None,
    p_f: 1e-6,
};

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "zipf-http",
        kind: Kind::ZipfHttp,
        rate: 40.0,
        knobs: DEFAULT_KNOBS,
        hub_top_k: 50,
        clients: 1,
    },
    Spec {
        name: "cold-push",
        kind: Kind::ColdPush,
        rate: 30.0,
        knobs: DEFAULT_KNOBS,
        hub_top_k: 0,
        clients: 2,
    },
    Spec {
        name: "cold-walk",
        kind: Kind::ColdWalk,
        rate: 25.0,
        knobs: Knobs {
            t: 10.0,
            eps_r: 0.5,
            delta: Some(1e-5),
            p_f: 1e-6,
        },
        hub_top_k: 0,
        clients: 2,
    },
];

/// Seeds per graph in the Zipf pool of `zipf-http`.
const POOL: usize = 200;
/// Side of the `cold-walk` torus: 72^3 = 373,248 nodes, 1,119,744 edges.
const TORUS_SIDE: usize = 72;

/// One generated graph, saved as a v2 snapshot the registry loads by path.
pub struct Dataset {
    pub name: String,
    pub path: PathBuf,
    pub snapshot_bytes: u64,
    /// Nodes with at least one neighbour: the uniform seed population.
    eligible: Vec<NodeId>,
    /// `zipf-http` only: seeds by Zipf rank.
    pool: Vec<NodeId>,
}

#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub graph: usize,
    pub seed: NodeId,
    pub rng_seed: u64,
}

pub struct Workload {
    pub spec: &'static Spec,
    pub seed: u64,
    pub data: Vec<Dataset>,
    graph_zipf: Zipf,
    seed_zipf: Zipf,
}

impl Workload {
    /// Generate and save the workload's graphs under `dir` (bench-side
    /// work, outside every timed phase) and draw its seed pools.
    pub fn prepare(spec: &'static Spec, seed: u64, dir: &Path) -> Workload {
        let graphs: Vec<(String, Graph)> = match spec.kind {
            // In Zipf rank order. Answers on dblp and the grid are small
            // (~120 KB and ~9 KB bodies), on youtube and plc large (~440
            // KB); with the small ones ranked first, the latency median
            // falls inside the dblp answers instead of in the gap between
            // the two size classes, where it would swing with every pool.
            Kind::ZipfHttp => [
                DatasetId::DblpLike,
                DatasetId::Grid3d,
                DatasetId::YoutubeLike,
                DatasetId::Plc,
            ]
            .iter()
            .map(|id| (id.name().to_string(), id.generate(4)))
            .collect(),
            Kind::ColdPush => [DatasetId::Plc, DatasetId::YoutubeLike]
                .iter()
                .map(|id| (id.name().to_string(), id.generate(4)))
                .collect(),
            Kind::ColdWalk => vec![(
                "torus-1m".to_string(),
                hk_graph::gen::grid3d(TORUS_SIDE, TORUS_SIDE, TORUS_SIDE, true)
                    .expect("torus dimensions are valid"),
            )],
        };
        let data = graphs
            .into_iter()
            .enumerate()
            .map(|(gi, (name, graph))| {
                let path = dir.join(format!("{name}.hkg"));
                hk_graph::io::save_binary_v2(&graph, &path).expect("write snapshot");
                let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();
                let eligible: Vec<NodeId> =
                    graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
                let pool = if spec.kind == Kind::ZipfHttp {
                    degree_weighted_pool(&graph, POOL, mix_all(&[seed, gi as u64]))
                } else {
                    Vec::new()
                };
                Dataset {
                    name,
                    path,
                    snapshot_bytes,
                    eligible,
                    pool,
                }
            })
            .collect::<Vec<_>>();
        Workload {
            spec,
            seed,
            graph_zipf: Zipf::new(data.len(), 1.0),
            seed_zipf: Zipf::new(POOL, 1.0),
            data,
        }
    }

    /// Request `index`, a pure function of `(seed, index)`.
    pub fn request(&self, index: u64) -> Req {
        let h = |salt: u64| mix_all(&[self.seed, index, salt]);
        match self.spec.kind {
            // Graph and seed each Zipf(1); every request uses RNG stream
            // 0, as a client sending only a seed does, so repeats share
            // cache entries and hub seeds hit the hub store.
            Kind::ZipfHttp => {
                let graph = self.graph_zipf.rank(unit(h(1)));
                let pool = &self.data[graph].pool;
                let seed = pool[self.seed_zipf.rank(unit(h(2))).min(pool.len() - 1)];
                Req {
                    graph,
                    seed,
                    rng_seed: 0,
                }
            }
            // Uniform seeds; RNG stream = request index, so no two
            // requests share a cache key.
            Kind::ColdPush | Kind::ColdWalk => {
                let graph = (h(1) % self.data.len() as u64) as usize;
                let eligible = &self.data[graph].eligible;
                Req {
                    graph,
                    seed: eligible[(h(2) % eligible.len() as u64) as usize],
                    rng_seed: index,
                }
            }
        }
    }

    pub fn query(&self, r: Req) -> QueryRequest {
        QueryRequest::new(r.seed)
            .knobs(self.spec.knobs)
            .rng_seed(r.rng_seed)
    }

    /// The serialized `POST /query/{graph}` a remote client sends. Only
    /// `zipf-http` goes over the wire, and its requests carry default
    /// knobs and RNG stream 0, so the body is the seed alone.
    pub fn http_request(&self, r: Req) -> Vec<u8> {
        debug_assert!(r.rng_seed == 0 && self.spec.knobs == DEFAULT_KNOBS);
        let body = format!("{{\"seed\":{}}}", r.seed);
        format!(
            "POST /query/{} HTTP/1.1\r\nHost: bench\r\nX-Deadline-Ms: {}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.data[r.graph].name,
            DEADLINE.as_millis(),
            body.len()
        )
        .into_bytes()
    }
}

/// `count` distinct nodes drawn with probability proportional to degree and
/// ranked by degree (descending, ties by id): the users of a graph service
/// ask about well-connected nodes more often, and the hub store
/// precomputes exactly those. Ranking by degree also keeps the Zipf head —
/// most of the traffic — nearly the same across workload seeds.
fn degree_weighted_pool(graph: &Graph, count: usize, seed: u64) -> Vec<NodeId> {
    let mut cumulative = Vec::with_capacity(graph.num_nodes());
    let mut total = 0u64;
    for v in graph.nodes() {
        total += graph.degree(v) as u64;
        cumulative.push(total);
    }
    let want = count.min(graph.nodes().filter(|&v| graph.degree(v) > 0).count());
    let mut pool: Vec<NodeId> = Vec::with_capacity(want);
    let mut draw = 0u64;
    while pool.len() < want {
        let x = mix_all(&[seed, draw]) % total;
        draw += 1;
        let v = cumulative.partition_point(|&c| c <= x) as NodeId;
        if !pool.contains(&v) {
            pool.push(v);
        }
    }
    pool.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    pool
}

/// A serving stack, ready to serve.
pub struct Stack {
    pub engine: Arc<MultiEngine>,
    /// `zipf-http` only.
    pub gateway: Option<Gateway>,
    /// Duration of each graph's first `GraphRegistry::get` (the load), µs.
    pub get_us: Vec<f64>,
}

impl Stack {
    /// Stand the stack up and return it with its set-up time: engine
    /// construction, registration, the first load of every graph, the hub
    /// builds that load starts, and the gateway bind.
    pub fn start(w: &Workload) -> (Stack, Duration) {
        let t0 = Instant::now();
        let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                walk_threads: 1,
                cache_bytes: 32 << 20,
                ..EngineConfig::default()
            },
            // 0 = unlimited: every graph stays resident.
            max_resident_bytes: 0,
            hub_top_k: w.spec.hub_top_k,
            hub_bytes: 0,
        }));
        for d in &w.data {
            engine.registry().register_path(&d.name, &d.path);
        }
        let get_us = w
            .data
            .iter()
            .map(|d| {
                let t = Instant::now();
                engine.registry().get(&d.name).expect("snapshot loads");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        // The first query on a graph opens its serving front, which starts
        // its hub build. RNG stream u64::MAX is never requested again.
        for d in &w.data {
            let probe = QueryRequest::new(d.eligible[0])
                .knobs(w.spec.knobs)
                .rng_seed(u64::MAX);
            engine.query(&d.name, probe).expect("probe query succeeds");
        }
        engine.wait_hub_builds();
        let gateway = (w.spec.kind == Kind::ZipfHttp).then(|| {
            let config = GatewayConfig {
                conn_workers: 2,
                ..GatewayConfig::default()
            };
            Gateway::start(Arc::clone(&engine), "127.0.0.1:0", config).expect("bind loopback")
        });
        let elapsed = t0.elapsed();
        (
            Stack {
                engine,
                gateway,
                get_us,
            },
            elapsed,
        )
    }

    pub fn addr(&self) -> Option<SocketAddr> {
        self.gateway.as_ref().map(Gateway::local_addr)
    }
}

/// Work counters of an answer a worker computed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub push_ops: u64,
    pub walks: u64,
    pub steps: u64,
    pub early_exit: bool,
    pub support: usize,
    pub prefix: usize,
}

impl Work {
    pub fn of(r: &ClusterResult) -> Work {
        Work {
            push_ops: r.stats.push_operations,
            walks: r.stats.random_walks,
            steps: r.stats.walk_steps,
            early_exit: r.stats.early_exit,
            support: r.support_size,
            prefix: r.cluster.len(),
        }
    }
}

/// A kept answer for the off-the-clock checks.
pub enum Answer {
    None,
    Local(Arc<ClusterResult>),
    /// Response body as received.
    Wire(Vec<u8>),
}

/// What one request returned.
pub struct Reply {
    /// A 200 / `Ok` answer, degraded or not.
    pub ok: bool,
    pub degraded: bool,
    pub outcome: Option<CacheOutcome>,
    pub conductance: f64,
    /// HTTP only.
    pub first_byte: Option<Instant>,
    pub body_bytes: usize,
    /// The program's own phase timing (over HTTP: the body's `timing`).
    pub timing: QueryTiming,
    /// In-process answers a worker computed.
    pub work: Option<Work>,
    pub answer: Answer,
}

impl Reply {
    pub fn failed() -> Reply {
        Reply {
            ok: false,
            degraded: false,
            outcome: None,
            conductance: f64::NAN,
            first_byte: None,
            body_bytes: 0,
            timing: QueryTiming::default(),
            work: None,
            answer: Answer::None,
        }
    }

    pub fn local(resp: QueryResponse, keep: bool) -> Reply {
        let computed = matches!(resp.outcome, CacheOutcome::Miss | CacheOutcome::Uncached);
        Reply {
            ok: true,
            degraded: resp.degraded.is_some(),
            outcome: Some(resp.outcome),
            conductance: resp.result.conductance,
            first_byte: None,
            body_bytes: 0,
            timing: resp.timing,
            work: computed.then(|| Work::of(&resp.result)),
            answer: if keep {
                Answer::Local(resp.result)
            } else {
                Answer::None
            },
        }
    }

    /// Read the few fields the benchmark needs from the compact JSON
    /// body by position: the outcome and conductance sit near its head
    /// and the timing object closes it, so no full parse runs here.
    pub fn wire(status: u16, first_byte: Instant, body: &[u8], keep: bool) -> Reply {
        if status != 200 {
            return Reply {
                first_byte: Some(first_byte),
                body_bytes: body.len(),
                ..Reply::failed()
            };
        }
        let head = &body[..body.len().min(256)];
        let tail = &body[body.len().saturating_sub(256)..];
        let ns = |key| number_after(tail, key).unwrap_or(0.0) as u64;
        Reply {
            ok: true,
            degraded: !head.windows(15).any(|w| w == b"\"degraded\":null"),
            outcome: string_after(head, "outcome").and_then(outcome_of),
            conductance: number_after(body, "conductance").unwrap_or(f64::NAN),
            first_byte: Some(first_byte),
            body_bytes: body.len(),
            timing: QueryTiming {
                queue_ns: ns("queue_ns"),
                estimate_ns: ns("estimate_ns"),
                sweep_ns: ns("sweep_ns"),
                total_ns: ns("total_ns"),
                ..QueryTiming::default()
            },
            work: None,
            answer: if keep {
                Answer::Wire(body.to_vec())
            } else {
                Answer::None
            },
        }
    }

    /// A full-accuracy answer.
    pub fn full(&self) -> bool {
        self.ok && !self.degraded
    }
}

fn outcome_of(name: &str) -> Option<CacheOutcome> {
    Some(match name {
        "hit" => CacheOutcome::Hit,
        "miss" => CacheOutcome::Miss,
        "coalesced" => CacheOutcome::Coalesced,
        "precomputed" => CacheOutcome::Precomputed,
        "uncached" => CacheOutcome::Uncached,
        _ => return None,
    })
}

/// Send request `index` in-process.
pub fn call_local(w: &Workload, engine: &MultiEngine, index: u64, keep: bool) -> Reply {
    let r = w.request(index);
    match engine.query(&w.data[r.graph].name, w.query(r).deadline_in(DEADLINE)) {
        Ok(resp) => Reply::local(resp, keep),
        Err(_) => Reply::failed(),
    }
}

/// Send request `index` over a client's connection.
pub fn call_http(w: &Workload, client: &mut HttpClient, index: u64, keep: bool) -> Reply {
    let r = w.request(index);
    match client.send(&w.http_request(r)) {
        Ok(resp) => Reply::wire(resp.status, resp.first_byte, client.body(), keep),
        Err(_) => Reply::failed(),
    }
}

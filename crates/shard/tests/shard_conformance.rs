//! End-to-end conformance of the sharded tier: a coordinator driving
//! `N ∈ {1, 2, 4}` real `hk-shardd` processes over loopback TCP must
//! produce answers **bitwise identical** to the single-process
//! `run_batch` path — what the engine and gateway serve — on the same
//! committed snapshot: same clusters, same conductance bits, same
//! estimate bits, same stats.
//!
//! This is also the CI shard smoke: it spawns the actual daemon binary
//! (via `CARGO_BIN_EXE_hk-shardd`), parses its readiness line, and
//! exercises the full Begin/Exec/Step/Collect/Finish protocol over the
//! wire, frontier-exchange rounds included.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use hk_cluster::{LocalClusterer, Method};
use hk_graph::Graph;
use hk_serve::run_batch;
use hk_shard::{QueryKnobs, ShardCoordinator};
use hkpr_core::HkprParams;

const RNG_SEED: u64 = 11;

fn snapshot_path() -> String {
    format!("{}/../../data/3d-grid.x4.hkg", env!("CARGO_MANIFEST_DIR"))
}

/// A spawned shard daemon, killed on drop so a failing assert cannot
/// leak processes.
struct Shard {
    child: Child,
    port: u16,
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn spawn_fleet(shards: usize) -> Vec<Shard> {
    (0..shards)
        .map(|i| {
            let mut child = Command::new(env!("CARGO_BIN_EXE_hk-shardd"))
                .args([
                    "--snapshot",
                    &snapshot_path(),
                    "--shard-id",
                    &i.to_string(),
                    "--shards",
                    &shards.to_string(),
                    "--port",
                    "0",
                ])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn hk-shardd");
            let stdout = child.stdout.take().expect("stdout piped");
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("readiness line");
            let port = line
                .trim()
                .strip_prefix("LISTENING ")
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"));
            Shard { child, port }
        })
        .collect()
}

/// Valid query seeds spread across the node range, so different shard
/// counts route them to different owners.
fn pick_seeds(graph: &Graph, params: &HkprParams, want: usize) -> Vec<u32> {
    let n = graph.num_nodes() as u32;
    let mut seeds = Vec::new();
    for k in 0..want as u32 {
        let mut cand = k * n / want as u32;
        while params.validate_seed(cand).is_err() {
            cand = (cand + 1) % n;
        }
        seeds.push(cand);
    }
    seeds
}

#[test]
fn shard_fleets_match_single_process_bitwise() {
    let graph = hk_graph::io::load_binary(snapshot_path()).expect("load committed snapshot");
    // t = 10 pushes past the budget on the committed 3d-grid snapshot,
    // so every seed gets a real walk phase (~20k walks each) — small
    // enough for debug CI, large enough to force frontier exchanges.
    let params = HkprParams::builder(&graph)
        .t(10.0)
        .eps_r(0.5)
        .delta(1e-3)
        .p_f(1e-3)
        .c(2.5)
        .build()
        .unwrap();
    let seeds = pick_seeds(&graph, &params, 5);
    let clusterer = LocalClusterer::new(&graph);
    let oracle = run_batch(&clusterer, Method::TeaPlus, &seeds, &params, RNG_SEED, 1);
    // At least one seed must exercise the walk phase, or the exchange
    // protocol goes untested.
    assert!(
        oracle
            .iter()
            .any(|r| r.as_ref().unwrap().stats.random_walks > 0),
        "all oracle queries early-exited; pick different params"
    );

    for shards in [1usize, 2, 4] {
        let fleet = spawn_fleet(shards);
        let addrs: Vec<(&str, u16)> = fleet.iter().map(|s| ("127.0.0.1", s.port)).collect();
        let mut coord = ShardCoordinator::connect(&addrs).expect("handshake");
        assert_eq!(coord.shards(), shards);
        assert_eq!(coord.fingerprint(), graph.fingerprint());
        let got = coord
            .run_batch(&seeds, QueryKnobs::from_params(&params), RNG_SEED)
            .expect("sharded batch");
        for (i, (wire, want)) in got.iter().zip(&oracle).enumerate() {
            let want = want.as_ref().expect("oracle query failed");
            assert!(
                wire.bitwise_matches(want),
                "seed {} diverged from the single-process oracle at N={shards}:\n\
                 wire cluster {} nodes, conductance {:?}; \
                 oracle cluster {} nodes, conductance {:?}",
                seeds[i],
                wire.cluster.len(),
                wire.conductance,
                want.cluster.len(),
                want.conductance,
            );
        }
        coord.shutdown();
        for mut shard in fleet {
            let status = shard.child.wait().expect("wait shard");
            assert!(status.success(), "shard exited with {status}");
        }
    }
}

#[test]
fn remote_errors_are_typed_not_fatal() {
    let fleet = spawn_fleet(2);
    let addrs: Vec<(&str, u16)> = fleet.iter().map(|s| ("127.0.0.1", s.port)).collect();
    let mut coord = ShardCoordinator::connect(&addrs).expect("handshake");
    let graph = hk_graph::io::load_binary(snapshot_path()).unwrap();
    let params = HkprParams::builder(&graph).build().unwrap();
    let knobs = QueryKnobs::from_params(&params);
    // An out-of-range seed is a remote query error...
    let err = coord
        .run_query(u32::MAX - 1, knobs, RNG_SEED)
        .expect_err("invalid seed must fail");
    assert!(
        matches!(err, hk_shard::ShardError::Remote(_)),
        "expected a typed remote error, got {err:?}"
    );
    // ...and the connection survives it: a valid query still works.
    let seed = {
        let mut s = 0u32;
        while params.validate_seed(s).is_err() {
            s += 1;
        }
        s
    };
    coord
        .run_query(seed, knobs, RNG_SEED)
        .expect("fleet must stay usable after a query error");
    coord.shutdown();
}

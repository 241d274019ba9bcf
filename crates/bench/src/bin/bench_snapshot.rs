//! Perf-trajectory snapshot: times the TEA+ query path variants on a
//! ~100k-edge PLC graph and writes `BENCH_tea_plus.json` so future PRs
//! can compare against a recorded baseline.
//!
//! End-to-end variants:
//!
//! * `hashmap_baseline` — the seed's hash-map implementation
//!   ([`hkpr_core::reference::tea_plus_reference`]) + sweep;
//! * `workspace_fresh`   — dense workspace allocated per query;
//! * `workspace_reuse`   — dense workspace reused across queries
//!   (the serving configuration; acceptance gate is >= 2x the baseline);
//! * `workspace_reuse_parallel4` — reuse + 4-thread batched walk fan-out.
//!
//! Usage: `cargo run --release -p hk-bench --bin bench_snapshot --
//! [--out FILE] [--seeds N] [--reps N]`

use std::time::Instant;

use hk_cluster::reference::sweep_estimate_reference;
use hk_cluster::{LocalClusterer, Method, QueryScratch};
use hk_graph::gen::holme_kim;
use hkpr_core::reference::tea_plus_reference;
use hkpr_core::tea_plus::TeaPlusOptions;
use hkpr_core::HkprParams;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One timed query closure (seed node, RNG seed).
type VariantFn<'a> = Box<dyn FnMut(u32, u64) + 'a>;

struct Variant {
    name: &'static str,
    avg_ms: f64,
}

fn main() {
    let mut out_path = String::from("BENCH_tea_plus.json");
    let mut num_seeds = 20usize;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a value"),
            "--seeds" => num_seeds = args.next().and_then(|v| v.parse().ok()).expect("--seeds N"),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            other => panic!("unknown argument {other}"),
        }
    }

    let mut rng = SmallRng::seed_from_u64(13);
    let graph = holme_kim(20_000, 5, 0.5, &mut rng).unwrap();
    let n = graph.num_nodes() as f64;
    let params = HkprParams::builder(&graph)
        .t(5.0)
        .eps_r(0.5)
        .delta(4.0 / n)
        .p_f(1e-6)
        .build()
        .unwrap();
    let clusterer = LocalClusterer::new(&graph);
    let seeds = hk_bench::pick_seeds(&graph, num_seeds, 3);

    let g = &graph;
    let p = &params;
    let cl = clusterer;
    let mut scratch = QueryScratch::new();
    let mut scratch4 = QueryScratch::with_threads(4);

    // One closure per variant, all running the same seed list.
    let mut runs: Vec<(&'static str, VariantFn)> = vec![
        (
            "hashmap_baseline",
            Box::new(move |s, i| {
                let out = tea_plus_reference(
                    g,
                    p,
                    s,
                    TeaPlusOptions::default(),
                    &mut SmallRng::seed_from_u64(i),
                )
                .unwrap();
                let _ = sweep_estimate_reference(g, &out.estimate);
            }),
        ),
        (
            "workspace_fresh",
            Box::new(move |s, i| {
                let mut fresh = QueryScratch::new();
                let _ = cl.run_in(Method::TeaPlus, s, p, i, &mut fresh).unwrap();
            }),
        ),
        (
            "workspace_reuse",
            Box::new(move |s, i| {
                let _ = cl.run_in(Method::TeaPlus, s, p, i, &mut scratch).unwrap();
            }),
        ),
        (
            "workspace_reuse_parallel4",
            Box::new(move |s, i| {
                let _ = cl.run_in(Method::TeaPlus, s, p, i, &mut scratch4).unwrap();
            }),
        ),
    ];

    // Interleave the variants' timed passes so transient CPU contention
    // on the host hits every variant alike, and take each variant's best
    // pass. One untimed warm-up pass first.
    let mut best = vec![f64::INFINITY; runs.len()];
    for (_, run) in runs.iter_mut() {
        for (i, &s) in seeds.iter().enumerate() {
            run(s, i as u64);
        }
    }
    for rep in 0..reps {
        for (vi, (_, run)) in runs.iter_mut().enumerate() {
            let t0 = Instant::now();
            for (i, &s) in seeds.iter().enumerate() {
                run(s, (rep * seeds.len() + i) as u64);
            }
            let ms = t0.elapsed().as_secs_f64() * 1000.0 / seeds.len() as f64;
            best[vi] = best[vi].min(ms);
        }
    }
    let variants: Vec<Variant> = runs
        .iter()
        .zip(&best)
        .map(|(&(name, _), &avg_ms)| Variant { name, avg_ms })
        .collect();

    let baseline = variants[0].avg_ms;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"tea_plus_end_to_end\",\n");
    json.push_str("  \"graph\": {\n");
    json.push_str("    \"generator\": \"holme_kim(20000, 5, 0.5; seed 13)\",\n");
    json.push_str(&format!("    \"nodes\": {},\n", graph.num_nodes()));
    json.push_str(&format!("    \"edges\": {}\n", graph.num_edges()));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"params\": {{ \"t\": 5.0, \"eps_r\": 0.5, \"delta\": {:.3e}, \"p_f\": 1e-6 }},\n",
        params.delta()
    ));
    json.push_str(&format!("  \"seeds\": {num_seeds},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"variants\": [\n");
    for (i, v) in variants.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"avg_ms_per_query\": {:.4}, \"speedup_vs_baseline\": {:.2} }}{}\n",
            v.name,
            v.avg_ms,
            baseline / v.avg_ms,
            if i + 1 < variants.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}

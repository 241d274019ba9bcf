//! Off-the-clock checks: answers against the one-shot `run_batch`
//! reference, and estimates against exact HKPR (the paper's Definition 1).

use hk_cluster::{ClusterResult, LocalClusterer, Method};
use hk_graph::{Graph, NodeId};
use hk_serve::{run_batch, EngineConfig, Knobs, ParamsKey};
use hkpr_core::{exact_hkpr, HkprParams};

/// The parameters the engine computes with for `knobs` on `graph`: the
/// cache key's quantized bucket centre, exactly as the submit path
/// canonicalizes them, under the engine's default hop-cap constant.
pub fn canonical_params(graph: &Graph, knobs: &Knobs) -> HkprParams {
    let delta = knobs.delta.unwrap_or(1.0 / graph.num_nodes().max(1) as f64);
    let (t, eps_r, delta, p_f) = ParamsKey::new(knobs.t, knobs.eps_r, delta, knobs.p_f).canonical();
    HkprParams::builder(graph)
        .t(t)
        .eps_r(eps_r)
        .delta(delta)
        .p_f(p_f)
        .c(EngineConfig::default().hop_c)
        .build()
        .expect("workload knobs are valid")
}

/// The one-shot reference answer for `(seed, rng_seed)`.
pub fn reference(graph: &Graph, params: &HkprParams, seed: NodeId, rng_seed: u64) -> ClusterResult {
    run_batch(
        &LocalClusterer::new(graph),
        Method::TeaPlus,
        &[seed],
        params,
        rng_seed,
        1,
    )
    .pop()
    .expect("one answer per seed")
    .expect("reference query succeeds")
}

/// Tally of `(seed, node)` pairs checked against Definition 1.
#[derive(Default)]
pub struct Audit {
    pub answers: usize,
    pub pairs: u64,
    pub violations: u64,
}

impl Audit {
    /// Check every node of `graph` for the `(d, eps_r, delta)` bound: the
    /// normalized estimate is within `eps_r` relative error where the true
    /// normalized HKPR exceeds `delta`, and within `eps_r * delta`
    /// absolute error elsewhere (the predicate of
    /// `tea_plus::tests::achieves_d_eps_delta_approximation`).
    pub fn add(
        &mut self,
        graph: &Graph,
        params: &HkprParams,
        seed: NodeId,
        answer: &ClusterResult,
    ) {
        let exact = exact_hkpr(graph, params.poisson(), seed);
        let (eps_r, delta) = (params.eps_r(), params.delta());
        for v in graph.nodes() {
            let d = graph.degree(v) as f64;
            if d == 0.0 {
                continue;
            }
            let approx = answer.estimate.rho(graph, v) / d;
            let truth = exact[v as usize] / d;
            let bound = if truth > delta {
                eps_r * truth
            } else {
                eps_r * delta
            };
            self.pairs += 1;
            if (approx - truth).abs() > bound + 1e-9 {
                self.violations += 1;
            }
        }
        self.answers += 1;
    }

    pub fn violation_share(&self) -> f64 {
        crate::stats::ratio(self.violations as f64, self.pairs as f64)
    }
}

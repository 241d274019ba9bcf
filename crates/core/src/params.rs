//! Query parameters and the derived quantities of the paper.
//!
//! A [`HkprParams`] bundles the user-facing knobs — heat constant `t`,
//! relative-error threshold `eps_r`, normalized-HKPR threshold `delta` and
//! failure probability `p_f` — together with the per-graph derived values
//! the algorithms need:
//!
//! * `p_f'` (Equation 6): the union-bound-corrected failure probability,
//!   "pre-computed when the graph G is loaded";
//! * `omega` for TEA (§4.2) and TEA+ (§5.3);
//! * the default residue threshold `rmax = 1/(omega * t)` for TEA;
//! * the hop cap `K = c * ln(1/(eps_r*delta)) / ln(d̄)` (Appendix A,
//!   Equation 20) and push budget `np = omega * t / 2` for TEA+.

use hk_graph::Graph;

use crate::error::HkprError;
use crate::poisson::PoissonTable;

/// Validated parameters for one HKPR query workload on one graph.
///
/// Construct through [`HkprParams::builder`]; the builder captures the
/// graph statistics (`n`, average degree, `p_f'`) that the paper computes
/// at load time.
#[derive(Clone, Debug)]
pub struct HkprParams {
    t: f64,
    eps_r: f64,
    delta: f64,
    p_f: f64,
    c: f64,
    n: usize,
    d_bar: f64,
    p_f_prime: f64,
    poisson: PoissonTable,
}

impl HkprParams {
    /// Start building parameters for `graph` with the paper's defaults:
    /// `t = 5`, `eps_r = 0.5`, `delta = 1/n`, `p_f = 1e-6`, `c = 2.5`.
    pub fn builder(graph: &Graph) -> HkprParamsBuilder {
        HkprParamsBuilder {
            t: 5.0,
            eps_r: 0.5,
            delta: None,
            p_f: 1e-6,
            c: 2.5,
            n: graph.num_nodes(),
            d_bar: graph.avg_degree(),
            degree_hist: hk_graph::metrics::degree_histogram(graph),
        }
    }

    /// Heat constant `t`.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// Relative error threshold `eps_r`.
    pub fn eps_r(&self) -> f64 {
        self.eps_r
    }

    /// Normalized-HKPR significance threshold `delta`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Failure probability `p_f`.
    pub fn p_f(&self) -> f64 {
        self.p_f
    }

    /// TEA+ hop-cap constant `c` (§7.2 tunes this; 2.5 is the paper's
    /// recommendation).
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Number of nodes of the graph the parameters were built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Average degree `d̄` of that graph.
    pub fn d_bar(&self) -> f64 {
        self.d_bar
    }

    /// `p_f'` per Equation (6): `p_f` itself when
    /// `sum_v p_f^(d(v)-1) <= 1`, else `p_f / sum_v p_f^(d(v)-1)`.
    pub fn p_f_prime(&self) -> f64 {
        self.p_f_prime
    }

    /// The shared Poisson table for `t`.
    pub fn poisson(&self) -> &PoissonTable {
        &self.poisson
    }

    /// `eps_a = eps_r * delta` — the absolute-error budget used by the
    /// TEA+ early-exit condition (Theorem 2 with `eps_a = eps_r * delta`).
    pub fn eps_abs(&self) -> f64 {
        self.eps_r * self.delta
    }

    /// TEA's walk-count coefficient (Algorithm 3, line 5):
    /// `omega = 2 (1 + eps_r/3) ln(1/p_f') / (eps_r^2 delta)`.
    pub fn omega_tea(&self) -> f64 {
        2.0 * (1.0 + self.eps_r / 3.0) * (1.0 / self.p_f_prime).ln()
            / (self.eps_r * self.eps_r * self.delta)
    }

    /// TEA+'s walk-count coefficient (Algorithm 5, line 5):
    /// `omega = 8 (1 + eps_r/6) ln(1/p_f') / (eps_r^2 delta)`.
    pub fn omega_tea_plus(&self) -> f64 {
        8.0 * (1.0 + self.eps_r / 6.0) * (1.0 / self.p_f_prime).ln()
            / (self.eps_r * self.eps_r * self.delta)
    }

    /// TEA's default residue threshold `rmax = 1/(omega t)` (§4.2: "we set
    /// rmax = O(1/(omega t))" to balance push and walk costs).
    pub fn rmax_default(&self) -> f64 {
        1.0 / (self.omega_tea() * self.t)
    }

    /// TEA+'s hop cap (Appendix A, Equation 20):
    /// `K = c * ln(1/(eps_r delta)) / ln(d̄)`, at least 1. The average
    /// degree is clamped at 1.5 so near-path graphs get a finite cap.
    pub fn hop_cap(&self) -> usize {
        let denom = self.d_bar.max(1.5).ln();
        let k = (self.c * (1.0 / self.eps_abs()).ln() / denom).ceil();
        (k.max(1.0) as usize).min(10_000)
    }

    /// TEA+'s push budget `np = omega t / 2` (Algorithm 5, line 5),
    /// saturated to `u64`.
    pub fn push_budget(&self) -> u64 {
        let np = self.omega_tea_plus() * self.t / 2.0;
        if np >= u64::MAX as f64 {
            u64::MAX
        } else {
            np.ceil() as u64
        }
    }

    /// Walk count of the pure Monte-Carlo baseline (§3):
    /// `nr = 2 (1 + eps_r/3) ln(n / p_f) / (eps_r^2 delta)`.
    pub fn monte_carlo_walks(&self) -> u64 {
        let nr = 2.0 * (1.0 + self.eps_r / 3.0) * (self.n as f64 / self.p_f).ln()
            / (self.eps_r * self.eps_r * self.delta);
        if nr >= u64::MAX as f64 {
            u64::MAX
        } else {
            nr.ceil() as u64
        }
    }

    /// Validate a seed node against this graph size.
    pub fn validate_seed(&self, seed: u32) -> Result<(), HkprError> {
        if (seed as usize) < self.n {
            Ok(())
        } else {
            Err(HkprError::SeedOutOfRange {
                seed,
                num_nodes: self.n,
            })
        }
    }
}

/// Builder for [`HkprParams`]. See [`HkprParams::builder`].
#[derive(Clone, Debug)]
pub struct HkprParamsBuilder {
    t: f64,
    eps_r: f64,
    delta: Option<f64>,
    p_f: f64,
    c: f64,
    n: usize,
    d_bar: f64,
    degree_hist: Vec<usize>,
}

impl HkprParamsBuilder {
    /// Heat constant `t` (paper default 5; §7.8 studies up to 40).
    pub fn t(mut self, t: f64) -> Self {
        self.t = t;
        self
    }

    /// Relative error threshold `eps_r` (paper sweeps 0.1–0.9).
    pub fn eps_r(mut self, eps_r: f64) -> Self {
        self.eps_r = eps_r;
        self
    }

    /// Normalized-HKPR threshold `delta` (paper default `1/n`).
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Failure probability `p_f` (paper default `1e-6`).
    pub fn p_f(mut self, p_f: f64) -> Self {
        self.p_f = p_f;
        self
    }

    /// TEA+ hop-cap constant `c` (paper recommendation 2.5 after Figure 2).
    pub fn c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Validate and finish.
    pub fn build(self) -> Result<HkprParams, HkprError> {
        if !(self.t.is_finite() && self.t > 0.0) {
            return Err(HkprError::InvalidParameter(format!(
                "t must be positive, got {}",
                self.t
            )));
        }
        // e^-t underflows f64 near t = 745, which would panic the Poisson
        // table build. The paper's sweeps stop at t = 40; 700 leaves
        // ample headroom while keeping a hostile knob a typed error
        // (serving engines expose `t` to callers).
        if self.t > 700.0 {
            return Err(HkprError::InvalidParameter(format!(
                "t must be at most 700 (e^-t underflows beyond), got {}",
                self.t
            )));
        }
        if !(self.eps_r > 0.0 && self.eps_r < 1.0) {
            return Err(HkprError::InvalidParameter(format!(
                "eps_r must lie in (0, 1), got {}",
                self.eps_r
            )));
        }
        if self.n == 0 {
            return Err(HkprError::InvalidParameter("graph has no nodes".into()));
        }
        let delta = self.delta.unwrap_or(1.0 / self.n as f64);
        if !(delta > 0.0 && delta < 1.0) {
            return Err(HkprError::InvalidParameter(format!(
                "delta must lie in (0, 1), got {delta}"
            )));
        }
        if !(self.p_f > 0.0 && self.p_f < 1.0) {
            return Err(HkprError::InvalidParameter(format!(
                "p_f must lie in (0, 1), got {}",
                self.p_f
            )));
        }
        if !(self.c.is_finite() && self.c > 0.0) {
            return Err(HkprError::InvalidParameter(format!(
                "c must be positive, got {}",
                self.c
            )));
        }

        // Equation (6): sum_v p_f^(d(v)-1) via the degree histogram so the
        // cost is O(max_degree) pow calls, not O(n). Degree-0 nodes are
        // counted as degree 1 (their HKPR vector is trivially exact).
        let mut sum = 0.0f64;
        for (d, &count) in self.degree_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let exponent = (d.max(1) - 1) as f64;
            sum += count as f64 * self.p_f.powf(exponent);
        }
        let p_f_prime = if sum <= 1.0 { self.p_f } else { self.p_f / sum };

        let params = HkprParams {
            t: self.t,
            eps_r: self.eps_r,
            delta,
            p_f: self.p_f,
            c: self.c,
            n: self.n,
            d_bar: self.d_bar,
            p_f_prime,
            poisson: PoissonTable::new(self.t),
        };
        // In-range knobs can still break the derived quantities: a tiny
        // `eps_r * delta` underflows to zero or a subnormal (HK-Push+ needs
        // a positive early-exit budget), and a tiny `eps_r^2 * delta`
        // overflows `omega` (TEA's `rmax = 1/(omega t)` becomes zero).
        if !params.eps_abs().is_normal() {
            return Err(HkprError::InvalidParameter(format!(
                "eps_r * delta must be a positive normal float, got {:e} * {delta:e} = {:e}",
                self.eps_r,
                params.eps_abs()
            )));
        }
        if !(params.omega_tea().is_finite()
            && params.omega_tea_plus().is_finite()
            && params.rmax_default() > 0.0)
        {
            return Err(HkprError::InvalidParameter(format!(
                "eps_r = {:e}, delta = {delta:e} overflow the walk-count coefficient omega",
                self.eps_r
            )));
        }
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;

    fn small_graph() -> Graph {
        // Degrees: 2, 2, 3, 1 — like the csr tests.
        graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn defaults_match_paper() {
        let g = small_graph();
        let p = HkprParams::builder(&g).build().unwrap();
        assert_eq!(p.t(), 5.0);
        assert_eq!(p.eps_r(), 0.5);
        assert!((p.delta() - 0.25).abs() < 1e-12); // 1/n with n=4
        assert_eq!(p.p_f(), 1e-6);
        assert_eq!(p.c(), 2.5);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn oversized_t_is_a_typed_error() {
        // t past the e^-t underflow horizon must be rejected up front —
        // serving engines expose t to callers, so this cannot be a panic.
        let g = small_graph();
        assert!(matches!(
            HkprParams::builder(&g).t(701.0).build(),
            Err(HkprError::InvalidParameter(m)) if m.contains("700")
        ));
        assert!(HkprParams::builder(&g).t(700.0).build().is_ok());
    }

    #[test]
    fn p_f_prime_equation_6() {
        let g = small_graph();
        let p_f = 1e-2;
        let p = HkprParams::builder(&g).p_f(p_f).build().unwrap();
        // Degrees 2,2,3,1 -> sum = p + p + p^2 + 1 = 1.0201 > 1.
        let sum = p_f + p_f + p_f * p_f + 1.0;
        assert!((p.p_f_prime() - p_f / sum).abs() < 1e-15);
    }

    #[test]
    fn p_f_prime_small_sum_keeps_p_f() {
        // All degrees >= 2 and few nodes: sum < 1 keeps p_f' = p_f.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let p = HkprParams::builder(&g).p_f(1e-6).build().unwrap();
        // sum = 3 * 1e-6 < 1.
        assert_eq!(p.p_f_prime(), 1e-6);
    }

    #[test]
    fn example_5_4_omega_and_np() {
        // §5.4: the 8-node graph G' with t=3, p_f=1e-2, eps_r=0.5,
        // delta=2*tau/9 gives omega ~ 970/tau and np ~ 1455/tau.
        let g = graph_from_edges([
            (0, 1), // s - v1
            (0, 2), // s - v2
            (1, 2), // v1 - v2
            (1, 3), // v1 - v3
            (2, 4),
            (2, 5),
            (2, 6),
            (2, 7), // v2 - v4..v7
        ]);
        let tau = 1.0 - 4.0 / 3.0f64.exp();
        let p = HkprParams::builder(&g)
            .t(3.0)
            .eps_r(0.5)
            .delta(2.0 * tau / 9.0)
            .p_f(1e-2)
            .build()
            .unwrap();
        let omega = p.omega_tea_plus();
        assert!(
            (omega * tau - 970.0).abs() < 5.0,
            "omega*tau = {}",
            omega * tau
        );
        let np = p.push_budget() as f64;
        assert!((np * tau - 1455.0).abs() < 8.0, "np*tau = {}", np * tau);
    }

    #[test]
    fn derived_quantities_positive_and_consistent() {
        let g = small_graph();
        let p = HkprParams::builder(&g)
            .eps_r(0.3)
            .delta(1e-4)
            .build()
            .unwrap();
        assert!(p.omega_tea() > 0.0);
        assert!(p.omega_tea_plus() > p.omega_tea()); // 8(1+e/6) > 2(1+e/3)
        assert!(p.rmax_default() > 0.0);
        assert!(p.hop_cap() >= 1);
        assert!(p.push_budget() > 0);
        assert!(p.monte_carlo_walks() > 0);
        assert!((p.eps_abs() - 0.3 * 1e-4).abs() < 1e-18);
    }

    #[test]
    fn hop_cap_grows_with_smaller_delta() {
        let g = small_graph();
        let loose = HkprParams::builder(&g).delta(1e-2).build().unwrap();
        let tight = HkprParams::builder(&g).delta(1e-8).build().unwrap();
        assert!(tight.hop_cap() > loose.hop_cap());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let g = small_graph();
        assert!(HkprParams::builder(&g).t(0.0).build().is_err());
        assert!(HkprParams::builder(&g).t(f64::NAN).build().is_err());
        assert!(HkprParams::builder(&g).eps_r(0.0).build().is_err());
        assert!(HkprParams::builder(&g).eps_r(1.0).build().is_err());
        assert!(HkprParams::builder(&g).delta(0.0).build().is_err());
        assert!(HkprParams::builder(&g).delta(1.0).build().is_err());
        assert!(HkprParams::builder(&g).p_f(0.0).build().is_err());
        assert!(HkprParams::builder(&g).p_f(1.0).build().is_err());
        assert!(HkprParams::builder(&g).c(0.0).build().is_err());
        assert!(HkprParams::builder(&Graph::empty(0)).build().is_err());
    }

    #[test]
    fn underflowing_eps_abs_and_overflowing_omega_are_typed_errors() {
        let g = small_graph();
        // eps_r * delta underflows to 0: HK-Push+ would have no budget.
        // eps_r = 1e-160 overflows omega to infinity (rmax = 0 for TEA).
        // A subnormal delta does both.
        for (eps_r, delta) in [(0.5, 5e-324), (1e-160, 0.25), (0.5, 1e-320)] {
            match HkprParams::builder(&g).eps_r(eps_r).delta(delta).build() {
                Err(HkprError::InvalidParameter(_)) => {}
                other => panic!(
                    "eps_r={eps_r:e} delta={delta:e}: expected InvalidParameter, got {other:?}"
                ),
            }
        }
        // The smallest knobs that keep every derived quantity finite
        // still build.
        let p = HkprParams::builder(&g)
            .eps_r(1e-100)
            .delta(1e-100)
            .build()
            .unwrap();
        assert!(p.eps_abs().is_normal() && p.omega_tea_plus().is_finite());
    }

    #[test]
    fn seed_validation() {
        let g = small_graph();
        let p = HkprParams::builder(&g).build().unwrap();
        assert!(p.validate_seed(0).is_ok());
        assert!(p.validate_seed(3).is_ok());
        assert!(p.validate_seed(4).is_err());
    }
}

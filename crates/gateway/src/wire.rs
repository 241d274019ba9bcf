//! JSON wire format: request decoding, answer/error encoding, and the
//! `ServeError` → HTTP status taxonomy.
//!
//! Three properties carry the weight here:
//!
//! * **Bit-faithful answers.** A successful response serializes every
//!   field [`ClusterResult::bitwise_eq`] compares — cluster members,
//!   conductance, support size, cost stats, and the estimate's
//!   `offset_coeff` plus full support — through the shortest-round-trip
//!   `f64` writer in [`crate::json`]. Rendering is injective on f64 bits
//!   (including `-0.0`), so two answers render to the same string iff
//!   they are bitwise equal: the bench's `--smoke` conformance check
//!   compares the over-the-wire text against a locally rendered
//!   [`hk_serve::run_batch`] answer by string equality.
//! * **One pass, no tree.** Answers, batch bodies and error bodies are
//!   written field by field into one buffer sized from the estimate's
//!   support up front; integers go through a digit loop, floats through
//!   [`json::write_f64`](crate::json::write_f64). The bytes are those
//!   the [`Json`] tree encoder produced, which the tests keep as the
//!   reference.
//! * **Typed failures.** Every [`ServeError`] maps to a fixed
//!   `(status, code)` pair — clients dispatch on machine-readable
//!   `code`, load balancers on status class. Degraded answers are *not*
//!   errors: they arrive as 200 with the `degraded` object set (wire
//!   mirror of [`hk_serve::Degraded`]), so a caller that ignores the
//!   marker still gets the best available estimate.

use std::time::Duration;

use hk_cluster::{ClusterResult, Method};
use hk_serve::{Degraded, Knobs, QueryRequest, QueryResponse, ServeError};

use crate::json::{write_f64, write_str, write_u64, Json};

/// Largest `f64`-exact integer (2^53); node ids, seeds and counters
/// above this cannot cross a JSON number unharmed.
const MAX_EXACT: u64 = 1 << 53;

/// Decode one query body: `{"seed": 7, "method": ..., "knobs": ...,
/// "rng_seed": 42}`. Only `seed` is required. The deadline comes from
/// the `x-deadline-ms` *header*, not the body — apply it afterwards with
/// [`QueryRequest::deadline_in`].
pub fn request_from_json(body: &Json) -> Result<QueryRequest, String> {
    if body.as_obj().is_none() {
        return Err("body must be a JSON object".into());
    }
    for (key, _) in body.as_obj().unwrap() {
        if !matches!(
            key.as_str(),
            "seed" | "method" | "knobs" | "rng_seed" | "seeds"
        ) {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let seed = body
        .get("seed")
        .ok_or("missing required field \"seed\"")?
        .as_u64()
        .ok_or("\"seed\" must be a non-negative integer")?;
    let seed = u32::try_from(seed).map_err(|_| format!("seed {seed} exceeds u32"))?;
    let mut req = QueryRequest::new(seed);
    if let Some(m) = body.get("method") {
        req = req.method(method_from_json(m)?);
    }
    if let Some(k) = body.get("knobs") {
        req = req.knobs(knobs_from_json(k)?);
    }
    if let Some(r) = body.get("rng_seed") {
        req = req.rng_seed(
            r.as_u64()
                .ok_or("\"rng_seed\" must be an integer below 2^53")?,
        );
    }
    Ok(req)
}

/// Decode a batch body: like a query body but with `"seeds": [..]`
/// instead of `"seed"`. Returns the seed list plus the template request
/// (item `i` runs as the template with seed `seeds[i]` and RNG stream
/// `rng_seed + i`, matching [`hk_serve::run_batch`]'s stream layout).
pub fn batch_from_json(body: &Json) -> Result<(Vec<u32>, QueryRequest), String> {
    let obj = body.as_obj().ok_or("body must be a JSON object")?;
    for (key, _) in obj {
        if !matches!(key.as_str(), "seeds" | "method" | "knobs" | "rng_seed") {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let seeds_json = body
        .get("seeds")
        .and_then(Json::as_arr)
        .ok_or("missing required array field \"seeds\"")?;
    if seeds_json.is_empty() {
        return Err("\"seeds\" must be non-empty".into());
    }
    let mut seeds = Vec::with_capacity(seeds_json.len());
    for s in seeds_json {
        let v = s.as_u64().ok_or("seeds must be non-negative integers")?;
        seeds.push(u32::try_from(v).map_err(|_| format!("seed {v} exceeds u32"))?);
    }
    let mut template = Json::Obj(vec![("seed".into(), Json::Num(0.0))]);
    if let Json::Obj(fields) = &mut template {
        for (k, v) in obj {
            if k != "seeds" {
                fields.push((k.clone(), v.clone()));
            }
        }
    }
    let req = request_from_json(&template)?;
    Ok((seeds, req))
}

fn method_from_json(m: &Json) -> Result<Method, String> {
    // Param-less methods may be a bare string; parameterized ones are
    // objects with a "name" plus their knobs.
    let (name, obj): (&str, &[(String, Json)]) = match m {
        Json::Str(s) => (s.as_str(), &[]),
        Json::Obj(fields) => (
            m.get("name")
                .and_then(Json::as_str)
                .ok_or("method object needs a string \"name\"")?,
            fields.as_slice(),
        ),
        _ => return Err("\"method\" must be a string or object".into()),
    };
    let allowed: &[&str] = match name {
        "monte_carlo" => &["name", "max_walks"],
        "cluster_hkpr" => &["name", "eps", "max_walks"],
        "hk_relax" => &["name", "eps_a"],
        "pr_nibble" => &["name", "alpha", "rmax"],
        "fora" => &["name", "alpha"],
        _ => &["name"],
    };
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("method {name:?} has no field {key:?}"));
        }
    }
    let f = |key: &str| m.get(key).and_then(Json::as_f64);
    let walks = |key: &str| m.get(key).and_then(Json::as_u64);
    match name {
        "tea" => Ok(Method::Tea),
        "tea_plus" => Ok(Method::TeaPlus),
        "exact" => Ok(Method::Exact),
        "monte_carlo" => Ok(Method::MonteCarlo {
            max_walks: walks("max_walks"),
        }),
        "cluster_hkpr" => Ok(Method::ClusterHkpr {
            eps: f("eps").ok_or("cluster_hkpr needs numeric \"eps\"")?,
            max_walks: walks("max_walks"),
        }),
        "hk_relax" => Ok(Method::HkRelax {
            eps_a: f("eps_a").ok_or("hk_relax needs numeric \"eps_a\"")?,
        }),
        "pr_nibble" => Ok(Method::PrNibble {
            alpha: f("alpha").ok_or("pr_nibble needs numeric \"alpha\"")?,
            rmax: f("rmax").ok_or("pr_nibble needs numeric \"rmax\"")?,
        }),
        "fora" => Ok(Method::Fora {
            alpha: f("alpha").ok_or("fora needs numeric \"alpha\"")?,
        }),
        other => Err(format!(
            "unknown method {other:?} (expected tea, tea_plus, monte_carlo, \
             cluster_hkpr, hk_relax, exact, pr_nibble or fora)"
        )),
    }
}

fn knobs_from_json(k: &Json) -> Result<Knobs, String> {
    let obj = k.as_obj().ok_or("\"knobs\" must be an object")?;
    let mut knobs = Knobs::default();
    for (key, value) in obj {
        let num = value
            .as_f64()
            .ok_or_else(|| format!("knob {key:?} must be numeric"))?;
        match key.as_str() {
            "t" => knobs.t = num,
            "eps_r" => knobs.eps_r = num,
            "delta" => knobs.delta = Some(num),
            "p_f" => knobs.p_f = num,
            other => return Err(format!("unknown knob {other:?}")),
        }
    }
    Ok(knobs)
}

/// `(status, reason, machine-readable code)` for a serving failure.
pub fn serve_error_parts(e: &ServeError) -> (u16, &'static str, &'static str) {
    match e {
        ServeError::Overloaded { .. } => (429, "Too Many Requests", "overloaded"),
        ServeError::DeadlineExceeded { .. } => (408, "Request Timeout", "deadline_exceeded"),
        ServeError::Cancelled { .. } => (408, "Request Timeout", "cancelled"),
        ServeError::Query(_) => (400, "Bad Request", "invalid_query"),
        ServeError::UnknownGraph(_) => (404, "Not Found", "unknown_graph"),
        ServeError::GraphLoad { .. } => (500, "Internal Server Error", "graph_load_failed"),
        ServeError::Disconnected => (503, "Service Unavailable", "shutting_down"),
        ServeError::Internal { .. } => (500, "Internal Server Error", "internal"),
    }
}

/// Render an error body: `{"error": code, "detail": human text}`.
pub fn error_body(code: &str, detail: &str) -> String {
    let mut out = String::with_capacity(32 + code.len() + detail.len());
    out.push_str("{\"error\":");
    write_str(&mut out, code);
    out.push_str(",\"detail\":");
    write_str(&mut out, detail);
    out.push('}');
    out
}

/// Bytes reserved per estimate entry and per cluster member: a node id,
/// a shortest-round-trip probability and the punctuation around them
/// average 34–36 bytes on the benchmark's graphs, so one reservation
/// almost always holds the whole body.
const ENTRY_BYTES: usize = 40;
const MEMBER_BYTES: usize = 8;
/// Bytes reserved for everything of an answer but its two lists.
const ANSWER_FIXED_BYTES: usize = 768;

fn result_size_hint(r: &ClusterResult) -> usize {
    ENTRY_BYTES * r.estimate.nnz() + MEMBER_BYTES * r.cluster.len()
}

/// Write one [`ClusterResult`] with every [`ClusterResult::bitwise_eq`]
/// field. Entry values and `conductance`/`offset_coeff` go through the
/// shortest-round-trip writer, so the text is injective on result bits.
fn write_result(out: &mut String, r: &ClusterResult) {
    debug_assert!(
        r.cluster.iter().all(|&v| (v as u64) < MAX_EXACT),
        "NodeId is u32, always f64-exact"
    );
    out.push_str("{\"cluster\":[");
    for (i, &v) in r.cluster.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u64(out, v.into());
    }
    out.push_str("],\"conductance\":");
    write_f64(out, r.conductance);
    out.push_str(",\"support_size\":");
    write_u64(out, r.support_size as u64);
    out.push_str(",\"stats\":{\"push_operations\":");
    write_u64(out, r.stats.push_operations);
    out.push_str(",\"random_walks\":");
    write_u64(out, r.stats.random_walks);
    out.push_str(",\"walk_steps\":");
    write_u64(out, r.stats.walk_steps);
    out.push_str(",\"alpha\":");
    write_f64(out, r.stats.alpha);
    out.push_str(",\"early_exit\":");
    out.push_str(if r.stats.early_exit { "true" } else { "false" });
    out.push_str("},\"estimate\":{\"offset_coeff\":");
    write_f64(out, r.estimate.offset_coeff());
    out.push_str(",\"entries\":[");
    for (i, (v, x)) in r.estimate.support().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        write_u64(out, v.into());
        out.push(',');
        write_f64(out, x);
        out.push(']');
    }
    out.push_str("]}}");
}

fn write_degraded(out: &mut String, d: &Degraded) {
    let a = &d.achieved;
    out.push_str("{\"tiers_completed\":");
    write_u64(out, a.tiers_completed.into());
    out.push_str(",\"tiers_planned\":");
    write_u64(out, a.tiers_planned.into());
    out.push_str(",\"push_tiers_completed\":");
    write_u64(out, a.push_tiers_completed.into());
    out.push_str(",\"push_tiers_planned\":");
    write_u64(out, a.push_tiers_planned.into());
    out.push_str(",\"walks_done\":");
    write_u64(out, a.walks_done);
    out.push_str(",\"walks_planned\":");
    write_u64(out, a.walks_planned);
    out.push_str(",\"eps_r_requested\":");
    write_f64(out, a.eps_r_requested);
    // INFINITY (no walk ran) renders as null by the writer's non-finite
    // rule; clients read null as "no bound".
    out.push_str(",\"eps_r_achieved\":");
    write_f64(out, a.eps_r_achieved);
    out.push_str(",\"after_ms\":");
    write_f64(out, d.after.as_secs_f64() * 1e3);
    out.push('}');
}

/// Wire name of a cache outcome.
pub fn outcome_name(resp: &QueryResponse) -> &'static str {
    use hk_serve::CacheOutcome::*;
    match resp.outcome {
        Hit => "hit",
        Miss => "miss",
        Coalesced => "coalesced",
        Precomputed => "precomputed",
        Uncached => "uncached",
    }
}

/// The success body of one answered query, borrowed from the response
/// it describes. [`render`](Answer::render) writes it in one pass into a
/// buffer sized up front; no JSON tree is built.
pub struct Answer<'a> {
    graph: &'a str,
    seed: u32,
    resp: &'a QueryResponse,
}

impl Answer<'_> {
    /// The compact JSON text of the answer.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.size_hint());
        self.write_into(&mut out);
        out
    }

    fn size_hint(&self) -> usize {
        ANSWER_FIXED_BYTES + self.graph.len() + result_size_hint(&self.resp.result)
    }

    /// Append the answer to `out`: `{graph, seed, outcome, degraded,
    /// result, timing}`, in that order. perfbench reads `outcome` and
    /// `degraded` from the head of the body and the `timing` fields from
    /// its tail, so the two short objects stay on either side of `result`.
    fn write_into(&self, out: &mut String) {
        let resp = self.resp;
        out.push_str("{\"graph\":");
        write_str(out, self.graph);
        out.push_str(",\"seed\":");
        write_u64(out, self.seed.into());
        out.push_str(",\"outcome\":");
        write_str(out, outcome_name(resp));
        out.push_str(",\"degraded\":");
        match &resp.degraded {
            Some(d) => write_degraded(out, d),
            None => out.push_str("null"),
        }
        out.push_str(",\"result\":");
        write_result(out, &resp.result);
        let t = &resp.timing;
        out.push_str(",\"timing\":{\"queue_ns\":");
        write_u64(out, t.queue_ns);
        out.push_str(",\"estimate_ns\":");
        write_u64(out, t.estimate_ns);
        out.push_str(",\"sweep_ns\":");
        write_u64(out, t.sweep_ns);
        out.push_str(",\"total_ns\":");
        write_u64(out, t.total_ns);
        out.push_str("}}");
    }
}

/// The success body for one answered query; `.render()` it to text.
pub fn response_json<'a>(graph: &'a str, seed: u32, resp: &'a QueryResponse) -> Answer<'a> {
    Answer { graph, seed, resp }
}

/// Render a batch body: `{"graph": .., "items": [..]}`, one item per
/// seed in order — the seed's answer, or `{"seed", "status", "error",
/// "detail"}` for an item that failed.
pub fn batch_body(graph: &str, items: &[(u32, Result<QueryResponse, ServeError>)]) -> String {
    let capacity = items.iter().fold(64 + graph.len(), |sum, (seed, item)| {
        sum + match item {
            Ok(resp) => response_json(graph, *seed, resp).size_hint(),
            Err(_) => 256,
        }
    });
    let mut out = String::with_capacity(capacity);
    out.push_str("{\"graph\":");
    write_str(&mut out, graph);
    out.push_str(",\"items\":[");
    for (i, (seed, item)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            Ok(resp) => response_json(graph, *seed, resp).write_into(&mut out),
            Err(e) => {
                let (status, _, code) = serve_error_parts(e);
                out.push_str("{\"seed\":");
                write_u64(&mut out, (*seed).into());
                out.push_str(",\"status\":");
                write_u64(&mut out, status.into());
                out.push_str(",\"error\":");
                write_str(&mut out, code);
                out.push_str(",\"detail\":");
                write_str(&mut out, &e.to_string());
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

/// Parse an `x-deadline-ms` header value into a duration. Strict
/// positive-integer milliseconds; anything else is a client error.
pub fn deadline_from_header(value: &str) -> Result<Duration, String> {
    let ms: u64 = value
        .parse()
        .map_err(|_| format!("x-deadline-ms {value:?} is not a positive integer"))?;
    if ms == 0 {
        return Err("x-deadline-ms must be >= 1".into());
    }
    Ok(Duration::from_millis(ms))
}

/// Canonical rendered text of a result — what `--smoke` compares.
pub fn canonical_result_text(r: &ClusterResult) -> String {
    let mut out = String::with_capacity(256 + result_size_hint(r));
    write_result(&mut out, r);
    out
}

/// The JSON-tree encoder the direct writer replaced, kept as the
/// byte-for-byte reference the writer is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn result_json(r: &ClusterResult) -> Json {
        let stats = Json::Obj(vec![
            (
                "push_operations".into(),
                Json::Num(r.stats.push_operations as f64),
            ),
            (
                "random_walks".into(),
                Json::Num(r.stats.random_walks as f64),
            ),
            ("walk_steps".into(), Json::Num(r.stats.walk_steps as f64)),
            ("alpha".into(), Json::Num(r.stats.alpha)),
            ("early_exit".into(), Json::Bool(r.stats.early_exit)),
        ]);
        let estimate = Json::Obj(vec![
            ("offset_coeff".into(), Json::Num(r.estimate.offset_coeff())),
            (
                "entries".into(),
                Json::Arr(
                    r.estimate
                        .support()
                        .map(|(v, x)| Json::Arr(vec![Json::Num(v as f64), Json::Num(x)]))
                        .collect(),
                ),
            ),
        ]);
        Json::Obj(vec![
            (
                "cluster".into(),
                Json::Arr(r.cluster.iter().map(|&v| Json::Num(v as f64)).collect()),
            ),
            ("conductance".into(), Json::Num(r.conductance)),
            ("support_size".into(), Json::Num(r.support_size as f64)),
            ("stats".into(), stats),
            ("estimate".into(), estimate),
        ])
    }

    fn degraded_json(d: &Degraded) -> Json {
        let a = &d.achieved;
        Json::Obj(vec![
            (
                "tiers_completed".into(),
                Json::Num(a.tiers_completed as f64),
            ),
            ("tiers_planned".into(), Json::Num(a.tiers_planned as f64)),
            (
                "push_tiers_completed".into(),
                Json::Num(a.push_tiers_completed as f64),
            ),
            (
                "push_tiers_planned".into(),
                Json::Num(a.push_tiers_planned as f64),
            ),
            ("walks_done".into(), Json::Num(a.walks_done as f64)),
            ("walks_planned".into(), Json::Num(a.walks_planned as f64)),
            ("eps_r_requested".into(), Json::Num(a.eps_r_requested)),
            ("eps_r_achieved".into(), Json::Num(a.eps_r_achieved)),
            ("after_ms".into(), Json::Num(d.after.as_secs_f64() * 1e3)),
        ])
    }

    pub fn response_json(graph: &str, seed: u32, resp: &QueryResponse) -> Json {
        let timing = Json::Obj(vec![
            ("queue_ns".into(), Json::Num(resp.timing.queue_ns as f64)),
            (
                "estimate_ns".into(),
                Json::Num(resp.timing.estimate_ns as f64),
            ),
            ("sweep_ns".into(), Json::Num(resp.timing.sweep_ns as f64)),
            ("total_ns".into(), Json::Num(resp.timing.total_ns as f64)),
        ]);
        Json::Obj(vec![
            ("graph".into(), Json::Str(graph.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("outcome".into(), Json::Str(outcome_name(resp).into())),
            (
                "degraded".into(),
                resp.degraded.as_ref().map_or(Json::Null, degraded_json),
            ),
            ("result".into(), result_json(&resp.result)),
            ("timing".into(), timing),
        ])
    }

    pub fn batch_body(graph: &str, items: &[(u32, Result<QueryResponse, ServeError>)]) -> Json {
        let items = items
            .iter()
            .map(|(seed, item)| match item {
                Ok(resp) => response_json(graph, *seed, resp),
                Err(e) => {
                    let (status, _, code) = serve_error_parts(e);
                    Json::Obj(vec![
                        ("seed".into(), Json::Num(*seed as f64)),
                        ("status".into(), Json::Num(status as f64)),
                        ("error".into(), Json::Str(code.into())),
                        ("detail".into(), Json::Str(e.to_string())),
                    ])
                }
            })
            .collect();
        Json::Obj(vec![
            ("graph".into(), Json::Str(graph.into())),
            ("items".into(), Json::Arr(items)),
        ])
    }

    pub fn error_body(code: &str, detail: &str) -> Json {
        Json::Obj(vec![
            ("error".into(), Json::Str(code.into())),
            ("detail".into(), Json::Str(detail.into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use hk_serve::{CacheOutcome, QueryTiming};
    use hkpr_core::estimate::HkprEstimate;
    use hkpr_core::AccuracyTier;
    use std::sync::Arc;

    const OUTCOMES: [CacheOutcome; 5] = [
        CacheOutcome::Hit,
        CacheOutcome::Miss,
        CacheOutcome::Coalesced,
        CacheOutcome::Precomputed,
        CacheOutcome::Uncached,
    ];

    /// The largest integer `f64` carries exactly.
    const TOP: u64 = (1 << 53) - 1;

    fn answer(result: ClusterResult, outcome: CacheOutcome) -> QueryResponse {
        QueryResponse {
            result: Arc::new(result),
            outcome,
            degraded: None,
            timing: QueryTiming {
                queue_ns: 1_250,
                push_ns: 40_000,
                walk_ns: 9_000,
                estimate_ns: 51_000,
                sweep_ns: 7_777,
                total_ns: 60_027,
            },
        }
    }

    fn result_with(cluster: Vec<u32>, entries: Vec<(u32, f64)>, offset: f64) -> ClusterResult {
        let mut estimate = HkprEstimate::from_sorted_entries(entries);
        estimate.set_offset_coeff(offset);
        ClusterResult {
            support_size: estimate.nnz(),
            cluster,
            conductance: 0.125,
            estimate,
            stats: Default::default(),
        }
    }

    /// Assert the direct writer's bytes equal the reference tree's.
    fn assert_identical(graph: &str, seed: u32, resp: &QueryResponse) {
        let direct = response_json(graph, seed, resp).render();
        let tree = reference::response_json(graph, seed, resp).render();
        assert_eq!(direct, tree, "answer bytes diverge for graph {graph:?}");
        assert_eq!(
            canonical_result_text(&resp.result),
            reference::result_json(&resp.result).render()
        );
    }

    #[test]
    fn writer_matches_reference_for_every_outcome_and_edge_value() {
        let subnormal = f64::from_bits(1);
        let floats = [
            -0.0,
            0.0,
            subnormal,
            -subnormal,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            1.0 / 3.0,
            0.1 + 0.2,
            2.5e-7,
        ];
        let entries: Vec<(u32, f64)> = floats
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u32 * 7, x))
            .chain([(u32::MAX, 1.0)])
            .collect();
        for outcome in OUTCOMES {
            for &x in &floats {
                let mut result = result_with(vec![0, 7, u32::MAX], entries.clone(), x);
                result.conductance = x;
                result.stats.alpha = x;
                assert_identical("plc", 3, &answer(result, outcome));
            }
        }
        // An empty cluster and an empty estimate.
        for outcome in OUTCOMES {
            assert_identical("g", 0, &answer(result_with(vec![], vec![], 0.0), outcome));
        }
        // Non-finite floats have no JSON form: both encoders write null.
        let mut result = result_with(vec![1], vec![(1, f64::NAN)], f64::INFINITY);
        result.conductance = f64::NEG_INFINITY;
        assert_identical("g", 1, &answer(result, CacheOutcome::Miss));
    }

    #[test]
    fn writer_matches_reference_at_the_integer_limits() {
        for top in [TOP, TOP + 1, TOP + 2, u64::MAX] {
            let mut result = result_with(vec![4], vec![(4, 0.5)], 0.0);
            result.stats.push_operations = top;
            result.stats.random_walks = top;
            result.stats.walk_steps = top;
            result.stats.early_exit = true;
            result.support_size = top as usize;
            let mut resp = answer(result, CacheOutcome::Uncached);
            resp.timing = QueryTiming {
                queue_ns: top,
                push_ns: top,
                walk_ns: top,
                estimate_ns: top,
                sweep_ns: top,
                total_ns: top,
            };
            resp.degraded = Some(Degraded {
                achieved: AccuracyTier {
                    tiers_completed: u32::MAX,
                    tiers_planned: u32::MAX,
                    walks_done: top,
                    walks_planned: top,
                    eps_r_requested: 0.5,
                    eps_r_achieved: 0.75,
                    push_tiers_completed: u32::MAX,
                    push_tiers_planned: u32::MAX,
                },
                after: Duration::from_nanos(top),
            });
            assert_identical("g", u32::MAX, &resp);
            if top == TOP {
                let text = response_json("g", u32::MAX, &resp).render();
                assert!(text.contains("\"push_operations\":9007199254740991,"));
                assert!(text.contains("\"total_ns\":9007199254740991}"));
            }
        }
    }

    #[test]
    fn writer_matches_reference_for_degraded_answers() {
        let tier = |eps_r_achieved: f64, push_done: u32| AccuracyTier {
            tiers_completed: 1,
            tiers_planned: 3,
            walks_done: 40,
            walks_planned: 640,
            eps_r_requested: 0.5,
            eps_r_achieved,
            push_tiers_completed: push_done,
            push_tiers_planned: 4,
        };
        for (achieved, after) in [
            // No walk ran: no bound, which the wire writes as null.
            (tier(f64::INFINITY, 4), Duration::from_nanos(2_345_678)),
            (tier(0.9, 4), Duration::from_micros(1_500)),
            (tier(f64::INFINITY, 2), Duration::from_millis(8)),
            (tier(0.5, 0), Duration::ZERO),
        ] {
            for outcome in OUTCOMES {
                let mut resp = answer(result_with(vec![1, 2], vec![(1, 0.5)], 0.0), outcome);
                resp.degraded = Some(Degraded { achieved, after });
                assert_identical("demo", 1, &resp);
                let text = response_json("demo", 1, &resp).render();
                if achieved.eps_r_achieved.is_infinite() {
                    assert!(text.contains("\"eps_r_achieved\":null,"), "{text}");
                }
                if after == Duration::from_nanos(2_345_678) {
                    assert!(text.contains("\"after_ms\":2.345678}"), "{text}");
                }
            }
        }
    }

    #[test]
    fn writer_escapes_graph_names_like_the_reference() {
        for graph in [
            "",
            "quote\"d",
            "back\\slash",
            "ctl\u{0}\u{1}\u{8}\u{c}\n\r\t\u{1f}",
            "déjà-vu/图/🦀",
            "\u{7f}\u{2028}",
        ] {
            let resp = answer(
                result_with(vec![2], vec![(2, 0.25)], 0.0),
                CacheOutcome::Hit,
            );
            assert_identical(graph, 2, &resp);
            let text = response_json(graph, 2, &resp).render();
            let parsed = json::parse(text.as_bytes()).unwrap();
            assert_eq!(parsed.get("graph").and_then(Json::as_str), Some(graph));
            let items = [(2, Ok(resp))];
            assert_eq!(
                batch_body(graph, &items),
                reference::batch_body(graph, &items).render()
            );
            assert_eq!(
                error_body(graph, graph),
                reference::error_body(graph, graph).render()
            );
        }
    }

    fn load(file: &str) -> hk_graph::Graph {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../data")
            .join(file);
        hk_graph::io::load_binary(&path).unwrap_or_else(|e| panic!("load {file}: {e}"))
    }

    /// TEA+ answers at the serving defaults for the `count` highest-degree
    /// nodes of a bundled graph (the largest answers it gives), plus
    /// `extra` seeds, through the one-shot `run_batch` path.
    fn run_batch_answers(file: &str, count: usize, extra: &[u32]) -> Vec<(u32, QueryResponse)> {
        let graph = load(file);
        let mut seeds: Vec<u32> = (0..graph.num_nodes() as u32).collect();
        seeds.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        seeds.truncate(count);
        seeds.extend_from_slice(extra);
        let params = hkpr_core::HkprParams::builder(&graph)
            .t(5.0)
            .eps_r(0.5)
            .p_f(1e-6)
            .build()
            .unwrap();
        let clusterer = hk_cluster::LocalClusterer::new(&graph);
        hk_serve::run_batch(&clusterer, Method::TeaPlus, &seeds, &params, 0, 2)
            .into_iter()
            .zip(&seeds)
            .map(|(r, &seed)| (seed, answer(r.unwrap(), CacheOutcome::Miss)))
            .collect()
    }

    #[test]
    fn writer_matches_reference_on_run_batch_answers() {
        for file in ["plc.x4.hkg", "3d-grid.x4.hkg"] {
            let answers = run_batch_answers(file, 3, &[0, 1, 500]);
            for (seed, resp) in &answers {
                assert!(resp.result.estimate.nnz() > 0, "{file} seed {seed}");
                assert_identical(file, *seed, resp);
            }
            // A batch body mixing answers and inline error items.
            let mut items: Vec<(u32, Result<QueryResponse, ServeError>)> = Vec::new();
            for (i, (seed, resp)) in answers.into_iter().enumerate() {
                items.push((seed, Ok(resp)));
                items.push((
                    seed + 1,
                    Err(match i % 3 {
                        0 => ServeError::DeadlineExceeded {
                            late_by: Duration::from_micros(1_500),
                        },
                        1 => ServeError::Overloaded {
                            queue_len: 9,
                            limit: 8,
                        },
                        _ => ServeError::Cancelled {
                            after: Duration::from_millis(3),
                        },
                    }),
                ));
            }
            assert_eq!(
                batch_body(file, &items),
                reference::batch_body(file, &items).render()
            );
            assert_eq!(
                batch_body(file, &[]),
                r#"{"graph":""#.to_owned() + file + r#"","items":[]}"#
            );
        }
    }

    #[test]
    fn largest_answer_keeps_the_fields_perfbench_reads_at_its_ends() {
        // perfbench's Reply::wire reads `outcome` and `degraded` from the
        // first 256 bytes of a body and the timing fields from the last
        // 256, without parsing the rest.
        let (seed, resp) = run_batch_answers("plc.x4.hkg", 8, &[])
            .into_iter()
            .max_by_key(|(_, r)| r.result.estimate.nnz())
            .unwrap();
        let body = response_json("plc", seed, &resp).render();
        assert!(
            body.len() > 100_000,
            "largest answer is {} bytes",
            body.len()
        );
        let (head, tail) = (&body[..256], &body[body.len() - 256..]);
        for needle in ["\"outcome\":\"", "\"degraded\":null"] {
            assert!(head.contains(needle), "{needle} not in the head: {head}");
        }
        for key in ["queue_ns", "estimate_ns", "sweep_ns", "total_ns"] {
            let needle = format!("\"{key}\":");
            assert!(tail.contains(&needle), "{needle} not in the tail: {tail}");
        }
    }

    #[test]
    fn decodes_a_full_request() {
        let body = json::parse(
            br#"{"seed": 7, "rng_seed": 42,
                 "method": {"name": "cluster_hkpr", "eps": 0.2, "max_walks": 1000},
                 "knobs": {"t": 5.0, "eps_r": 0.25, "delta": 0.001, "p_f": 0.000001}}"#,
        )
        .unwrap();
        let req = request_from_json(&body).unwrap();
        assert_eq!(req.seed, 7);
        assert_eq!(req.rng_seed, 42);
        assert!(matches!(
            req.method,
            Method::ClusterHkpr { eps, max_walks: Some(1000) } if eps == 0.2
        ));
        assert_eq!(req.knobs.eps_r, 0.25);
        assert_eq!(req.knobs.delta, Some(0.001));
        assert!(req.deadline.is_none());
    }

    #[test]
    fn string_methods_and_defaults() {
        let body = json::parse(br#"{"seed": 3, "method": "tea"}"#).unwrap();
        let req = request_from_json(&body).unwrap();
        assert!(matches!(req.method, Method::Tea));
        assert_eq!(req.knobs.t, Knobs::default().t);
    }

    #[test]
    fn rejects_bad_requests_with_reasons() {
        for (body, needle) in [
            (&br#"{"method": "tea"}"#[..], "seed"),
            (br#"{"seed": -1}"#, "seed"),
            (br#"{"seed": 1, "method": "warp"}"#, "unknown method"),
            (br#"{"seed": 1, "method": {"name": "hk_relax"}}"#, "eps_a"),
            (
                br#"{"seed": 1, "method": {"name": "tea", "eps": 1}}"#,
                "no field",
            ),
            (br#"{"seed": 1, "knobs": {"zeta": 2}}"#, "unknown knob"),
            (br#"{"seed": 1, "frobnicate": true}"#, "unknown field"),
            (br#"{"seed": 4294967296}"#, "exceeds u32"),
        ] {
            let parsed = json::parse(body).unwrap();
            let err = request_from_json(&parsed).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn batch_template_matches_run_batch_layout() {
        let body =
            json::parse(br#"{"seeds": [5, 9, 2], "rng_seed": 100, "method": "tea_plus"}"#).unwrap();
        let (seeds, template) = batch_from_json(&body).unwrap();
        assert_eq!(seeds, vec![5, 9, 2]);
        assert_eq!(template.rng_seed, 100);
        assert!(batch_from_json(&json::parse(br#"{"seeds": []}"#).unwrap()).is_err());
    }

    #[test]
    fn every_serve_error_maps_to_a_status() {
        let cases = [
            (
                ServeError::Overloaded {
                    queue_len: 9,
                    limit: 8,
                },
                (429, "overloaded"),
            ),
            (
                ServeError::DeadlineExceeded {
                    late_by: Duration::from_millis(1),
                },
                (408, "deadline_exceeded"),
            ),
            (
                ServeError::Cancelled {
                    after: Duration::from_millis(1),
                },
                (408, "cancelled"),
            ),
            (ServeError::UnknownGraph("x".into()), (404, "unknown_graph")),
            (
                ServeError::GraphLoad {
                    graph: "x".into(),
                    error: "io".into(),
                },
                (500, "graph_load_failed"),
            ),
            (ServeError::Disconnected, (503, "shutting_down")),
        ];
        for (err, (status, code)) in cases {
            let (s, _, c) = serve_error_parts(&err);
            assert_eq!((s, c), (status, code), "for {err:?}");
        }
        let body = error_body("overloaded", "queue full");
        let parsed = json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
    }

    #[test]
    fn response_json_carries_every_bitwise_field() {
        let result = ClusterResult {
            cluster: vec![1, 5, 9],
            conductance: 0.125,
            estimate: HkprEstimate::from_sorted_entries(vec![(1, 0.5), (5, -0.0)]),
            stats: Default::default(),
            support_size: 2,
        };
        let resp = QueryResponse {
            result: Arc::new(result),
            outcome: CacheOutcome::Miss,
            degraded: None,
            timing: Default::default(),
        };
        let text = response_json("demo", 1, &resp).render();
        for needle in [
            "\"cluster\":[1,5,9]",
            "\"conductance\":0.125",
            "\"support_size\":2",
            "\"offset_coeff\":",
            "[5,-0]", // -0.0 survives: Display renders the sign
            "\"push_operations\":0",
            "\"outcome\":\"miss\"",
            "\"degraded\":null",
        ] {
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
    }

    #[test]
    fn degraded_marker_round_trips_push_and_walk_tiers() {
        let result = ClusterResult {
            cluster: vec![1],
            conductance: 0.5,
            estimate: HkprEstimate::from_sorted_entries(vec![(1, 0.5)]),
            stats: Default::default(),
            support_size: 1,
        };
        // A push-degraded answer: ladder stopped after 2 of 4 certificate
        // tiers, walks still ran to completion.
        let resp = QueryResponse {
            result: Arc::new(result),
            outcome: CacheOutcome::Uncached,
            degraded: Some(Degraded {
                achieved: AccuracyTier {
                    tiers_completed: 3,
                    tiers_planned: 3,
                    walks_done: 640,
                    walks_planned: 640,
                    eps_r_requested: 0.5,
                    eps_r_achieved: 0.5,
                    push_tiers_completed: 2,
                    push_tiers_planned: 4,
                },
                after: Duration::from_millis(8),
            }),
            timing: Default::default(),
        };
        let text = response_json("demo", 1, &resp).render();
        // The wire marker exposes both ladders; a client can tell a
        // coarsened push (full walks) from a truncated walk phase.
        for needle in [
            "\"outcome\":\"uncached\"",
            "\"push_tiers_completed\":2",
            "\"push_tiers_planned\":4",
            "\"tiers_completed\":3",
            "\"walks_done\":640",
            "\"eps_r_achieved\":0.5",
        ] {
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
        let parsed = json::parse(text.as_bytes()).unwrap();
        let d = parsed.get("degraded").unwrap();
        assert_eq!(
            d.get("push_tiers_completed").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(d.get("push_tiers_planned").and_then(Json::as_u64), Some(4));
    }
}

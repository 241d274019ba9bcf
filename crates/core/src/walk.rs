//! `k-RandomWalk` (Algorithm 2): heat-kernel random walks that start at an
//! arbitrary hop index.
//!
//! A walk standing at hop `k + l` terminates with probability
//! `eta(k+l) / psi(k+l)` and otherwise moves to a uniform neighbor. Lemma 2
//! shows the returned node is distributed as `h_u^(k)[v]` — the probability
//! a heat-kernel walk stops at `v` given its `k`-th hop is at `u` — which
//! is exactly the quantity TEA/TEA+ need to convert residues into HKPR
//! mass (Lemma 1). Lemma 4 bounds the expected walk length by `t`.
//!
//! # The batched kernel
//!
//! The per-step stop test is *mathematically removable*: the product of
//! survival probabilities telescopes (`1 - eta(j)/psi(j) = psi(j+1)/psi(j)`),
//! so a walk at hop `k` stops at hop `h` with probability `eta(h)/psi(k)`
//! and its exact length can be drawn up front from a per-start-hop alias
//! table ([`crate::poisson::LengthTables`]). The batched engine draws each
//! walk's length, then steps it to the end with a divisionless Lemire
//! widening multiply on one `u32` draw per step. Walks run one after the
//! other, so RNG consumption is strictly sequential per walk — which is
//! what lets [`crate::shard_walk`] park a walk at a partition boundary and
//! resume it in another process bit-exactly. The step-by-step
//! [`k_random_walk`] stays as the sequential oracle of the reference
//! estimators and the statistical-agreement tests.

use hk_graph::{Graph, NodeId};
use rand::{Rng, RngExt};

use crate::poisson::{LengthTables, PoissonTable};

/// Run one `k-RandomWalk` from `start` whose hop counter begins at `k`.
/// Returns the terminating node and the number of steps taken.
///
/// Degree-0 nodes are absorbing: a walk that reaches one can never move,
/// so it terminates there (the remaining stop probability is spent in
/// place; this matches the limit behaviour of the defining random walk).
#[inline]
pub fn k_random_walk<R: Rng + ?Sized>(
    graph: &Graph,
    poisson: &PoissonTable,
    start: NodeId,
    k: usize,
    rng: &mut R,
) -> (NodeId, u32) {
    let mut cur = start;
    let mut hop = k;
    let mut steps = 0u32;
    loop {
        if rng.random::<f64>() < poisson.stop_prob(hop) {
            return (cur, steps);
        }
        let d = graph.degree(cur);
        if d == 0 {
            return (cur, steps);
        }
        cur = graph.neighbor_at(cur, rng.random_range(0..d));
        hop += 1;
        steps += 1;
    }
}

/// Run a plain heat-kernel walk of exactly `len` steps from `start`
/// (used by the Monte-Carlo and ClusterHKPR baselines, which sample the
/// Poisson length up front). Degree-0 nodes absorb the walk.
#[inline]
pub fn fixed_length_walk<R: Rng + ?Sized>(
    graph: &Graph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> NodeId {
    let mut cur = start;
    for _ in 0..len {
        let d = graph.degree(cur);
        if d == 0 {
            return cur;
        }
        cur = graph.neighbor_at(cur, rng.random_range(0..d));
    }
    cur
}

/// Scratch buffers of the batched walk engine, owned by
/// [`crate::workspace::QueryWorkspace`] so repeated queries reuse them.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    /// Walk multiplicity per alias-table column.
    start_counts: Vec<u64>,
    /// Flattened work items `(entry index, walk count)`, chunk-splittable.
    work: Vec<(u32, u64)>,
    /// Chunk boundaries: ranges into `work`.
    chunks: Vec<(u32, u32)>,
    /// Per-chunk `(steps walked, walks deposited)`. A chunk skipped by a
    /// fired cancel token records `(0, 0)`; a chunk that ran records its
    /// full planned walk count (chunks are atomic).
    chunk_progress: Vec<(u64, u32)>,
    /// Cumulative planned walks before each chunk boundary
    /// (`len == chunks.len() + 1`), filled at plan time so refinement
    /// tiers can be snapped to chunk prefixes.
    chunk_walk_prefix: Vec<u64>,
    /// Per-worker endpoint accumulators for the parallel path.
    worker_counts: Vec<EpochCounter>,
}

impl WalkScratch {
    /// Bytes held by the backing allocations (workspace memory
    /// accounting; see [`crate::QueryWorkspace::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.start_counts.capacity() * std::mem::size_of::<u64>()
            + self.work.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.chunks.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.chunk_progress.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.chunk_walk_prefix.capacity() * std::mem::size_of::<u64>()
            + self
                .worker_counts
                .iter()
                .map(EpochCounter::memory_bytes)
                .sum::<usize>()
    }

    /// Cumulative planned walks strictly before chunk `chunk` of the most
    /// recent plan (`chunk == num_chunks` gives the plan's total).
    pub(crate) fn planned_walks_through(&self, chunk: usize) -> u64 {
        self.chunk_walk_prefix[chunk]
    }

    /// Cumulative planned-walk prefix of the most recent plan
    /// (`prefix[c]` = walks in chunks `0..c`; `len == num_chunks + 1`).
    pub(crate) fn chunk_walk_prefix(&self) -> &[u64] {
        &self.chunk_walk_prefix
    }

    /// Flattened work items of the most recent plan (the distributed walk
    /// engine re-derives per-chunk item slices from these).
    pub(crate) fn work(&self) -> &[(u32, u64)] {
        &self.work
    }

    /// Chunk boundaries of the most recent plan, as ranges into
    /// [`work`](Self::work).
    pub(crate) fn chunks(&self) -> &[(u32, u32)] {
        &self.chunks
    }

    /// Release the backing allocations.
    pub(crate) fn release(&mut self) {
        *self = WalkScratch::default();
    }
}

/// A planned (sampled + chunked) walk phase awaiting execution.
///
/// Produced by [`plan_batched_walks`] / [`plan_batched_fixed_walks`];
/// executed — possibly in several chunk-prefix increments — by
/// [`run_planned_walks`] / [`run_planned_fixed_walks`]. The plan's state
/// (work items, chunk bounds, walk prefix) lives in the [`WalkScratch`]
/// it was planned on and stays valid until the next plan.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WalkPlan {
    /// Number of execution chunks.
    pub num_chunks: usize,
    /// Total planned walks across all chunks.
    pub total_walks: u64,
}

/// Progress cursor over a planned walk phase. Executing chunks
/// `[0, a)` then `[a, b)` deposits bit-identically to executing `[0, b)`
/// in one call: chunk RNG streams are keyed by *absolute* chunk index and
/// endpoint counts merge exactly (integer accumulators), which is what
/// makes tiered anytime refinement conformant with one-shot runs.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WalkCursor {
    /// First chunk the next execution call will run.
    pub next_chunk: usize,
    /// Walks deposited so far (counts only chunks that actually ran; a
    /// fired cancel token makes later chunks skip without depositing).
    pub walks_done: u64,
    /// Steps walked so far.
    pub steps: u64,
}

/// Target walks per execution chunk. Fixed (independent of thread count)
/// so the chunk decomposition — and with it every per-chunk RNG stream —
/// is a pure function of the sampled walk starts.
const CHUNK_WALKS: u64 = 4096;

use crate::alias::AliasTable;
use crate::cancel::CancelToken;
use crate::workspace::EpochCounter;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Per-chunk work function of the execution engine: runs absolute chunk
/// `chunk_idx` into `sink` and returns `(steps walked, walks deposited)`.
type ChunkFn<'a> = dyn Fn(usize, &mut EpochCounter) -> (u64, u32) + Sync + 'a;

/// Batched `k-RandomWalk` execution (the walk phase of TEA / TEA+).
///
/// The sequential reference interleaves one alias sample, one walk and one
/// hash-map deposit per iteration. This engine restructures the phase:
///
/// 1. **sample all `nr` starts up front** from `table` (one tight RNG
///    loop over the alias arrays, one `u64` draw each),
/// 2. **group walks by start entry** — every walk from the same `(hop,
///    node)` shares its first neighbor lookup's cache lines — and split
///    the grouped work into fixed-size chunks,
/// 3. **presample every walk's exact length** (the stop-test product
///    telescopes to `eta(h)/psi(k)`; see [`crate::poisson::LengthTables`])
///    and step it with independent per-chunk `SmallRng` streams derived
///    from `master_seed`, depositing endpoints into dense epoch-stamped
///    *counters* (integer, hence exactly mergeable),
/// 4. optionally fan chunks across `threads` workers
///    (`std::thread::scope`, enabled by the `parallel` feature); the
///    result is bit-identical for every thread count because chunking and
///    RNG streams depend only on `master_seed` and counts merge exactly.
///
/// Returns total steps walked; endpoint multiplicities land in `counts`
/// (caller converts to mass via `count * (alpha / nr)`).
///
/// `cancel` is polled at chunk boundaries (and periodically during start
/// sampling): when it fires, remaining chunks are skipped and the
/// partially-deposited counts are meaningless — the caller must check
/// the token afterwards and discard the phase. An unfired token changes
/// nothing (the checks are pure control flow).
///
/// A thin plan-then-run-everything wrapper over the resumable engine; the
/// output is bit-identical to any tiered execution of the same plan.
#[allow(clippy::too_many_arguments)]
pub fn run_batched_walks(
    graph: &Graph,
    poisson: &PoissonTable,
    entries: &[(u32, NodeId)],
    table: &AliasTable,
    nr: u64,
    master_seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
) -> u64 {
    let Some(plan) = plan_batched_walks(
        graph,
        entries,
        table,
        nr,
        master_seed,
        cancel,
        counts,
        scratch,
    ) else {
        return 0;
    };
    let mut cursor = WalkCursor::default();
    run_planned_walks(
        graph,
        poisson,
        entries,
        master_seed,
        threads,
        cancel,
        plan.num_chunks,
        &mut cursor,
        counts,
        scratch,
    );
    cursor.steps
}

/// Plan the batched walk phase: begin the endpoint accumulator, sample
/// every walk start (phase 1) and build the chunk decomposition (phase 2)
/// without executing anything. Returns `None` if the cancel token fired
/// during start sampling (the accumulator holds nothing yet).
///
/// The plan is a pure function of `(entries, table, nr, master_seed)` —
/// executing it in any sequence of chunk-prefix increments via
/// [`run_planned_walks`] deposits bit-identically to a one-shot
/// [`run_batched_walks`] call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_batched_walks(
    graph: &Graph,
    entries: &[(u32, NodeId)],
    table: &AliasTable,
    nr: u64,
    master_seed: u64,
    cancel: Option<&CancelToken>,
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
) -> Option<WalkPlan> {
    debug_assert_eq!(table.len(), entries.len());
    counts.begin(graph.num_nodes());
    if nr == 0 || entries.is_empty() {
        scratch.chunks.clear();
        scratch.chunk_progress.clear();
        scratch.chunk_walk_prefix.clear();
        scratch.chunk_walk_prefix.push(0);
        return Some(WalkPlan {
            num_chunks: 0,
            total_walks: 0,
        });
    }
    let WalkScratch {
        start_counts,
        work,
        chunks,
        chunk_progress,
        chunk_walk_prefix,
        ..
    } = scratch;

    // Phase 1: sample every walk start (one u64 draw each). The loop
    // polls the token every 64Ki draws so a huge `nr` cannot delay
    // cancellation until the chunk phase.
    start_counts.clear();
    start_counts.resize(entries.len(), 0);
    let mut rng = SmallRng::seed_from_u64(master_seed);
    for i in 0..nr {
        if i & 0xFFFF == 0 && cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        start_counts[table.sample_fast(&mut rng)] += 1;
    }

    // Phase 2: group into work items and fixed-size chunks.
    build_chunks(start_counts, work, chunks);
    let num_chunks = chunks.len();
    chunk_progress.clear();
    chunk_progress.resize(num_chunks, (0, 0));
    fill_chunk_walk_prefix(work, chunks, chunk_walk_prefix);
    Some(WalkPlan {
        num_chunks,
        total_walks: nr,
    })
}

/// Execute planned chunks `[cursor.next_chunk, upto_chunk)` of the most
/// recent [`plan_batched_walks`] on this scratch, advancing the cursor.
/// Chunk RNG streams are keyed by absolute chunk index, so any prefix
/// decomposition deposits bit-identically to a single full run. A fired
/// cancel token makes remaining chunks skip (depositing nothing); the
/// cursor's `walks_done` counts only chunks that actually ran, so the
/// partial deposits remain exactly normalizable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned_walks(
    graph: &Graph,
    poisson: &PoissonTable,
    entries: &[(u32, NodeId)],
    master_seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    upto_chunk: usize,
    cursor: &mut WalkCursor,
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
) {
    let lengths = poisson.length_tables();
    run_planned_chunks(
        graph,
        master_seed,
        threads,
        cancel,
        upto_chunk,
        cursor,
        counts,
        scratch,
        |items, rng, sink| run_presampled(graph, entries, lengths, items, rng, sink),
    );
}

/// Shared driver of [`run_planned_walks`] and [`run_planned_fixed_walks`]:
/// run chunks `[cursor.next_chunk, upto_chunk)` of the scratch's plan,
/// each through `walk_items` on its own RNG stream, then fold the chunks'
/// progress into the cursor.
#[allow(clippy::too_many_arguments)]
fn run_planned_chunks<F>(
    graph: &Graph,
    master_seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    upto_chunk: usize,
    cursor: &mut WalkCursor,
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
    walk_items: F,
) where
    F: Fn(&[(u32, u64)], &mut SmallRng, &mut EpochCounter) -> u64 + Sync,
{
    let WalkScratch {
        work,
        chunks,
        chunk_progress,
        worker_counts,
        ..
    } = scratch;
    let from = cursor.next_chunk;
    let upto = upto_chunk.min(chunks.len());
    if from >= upto {
        cursor.next_chunk = cursor.next_chunk.max(upto);
        return;
    }

    let work = &*work;
    let chunks = &*chunks;
    let run_chunk = move |chunk_idx: usize, sink: &mut EpochCounter| -> (u64, u32) {
        // Chunk-boundary cancellation: skip the chunk's work entirely
        // once the token fires (the walks are simply never deposited).
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return (0, 0);
        }
        let (lo, hi) = chunks[chunk_idx];
        let items = &work[lo as usize..hi as usize];
        let walks: u64 = items.iter().map(|&(_, c)| c).sum();
        let mut rng = chunk_rng(master_seed, chunk_idx as u64);
        (walk_items(items, &mut rng, sink), walks as u32)
    };

    execute_chunk_range(
        from,
        upto,
        threads,
        graph.num_nodes(),
        counts,
        chunk_progress,
        worker_counts,
        &run_chunk,
    );
    for &(steps, walks) in &chunk_progress[from..upto] {
        cursor.steps += steps;
        cursor.walks_done += walks as u64;
    }
    cursor.next_chunk = upto;
}

/// Run chunks `[from, upto)` inline or across workers. For a full-range
/// call this partitions chunks into contiguous ranges of
/// `span.div_ceil(threads)`, merged in worker order; for partial ranges
/// the partition differs per call, which is invisible in the output
/// because integer merges are exact.
#[allow(clippy::too_many_arguments)]
fn execute_chunk_range(
    from: usize,
    upto: usize,
    threads: usize,
    num_nodes: usize,
    counts: &mut EpochCounter,
    chunk_progress: &mut [(u64, u32)],
    worker_counts: &mut Vec<EpochCounter>,
    run_chunk: &ChunkFn<'_>,
) {
    let span = upto - from;
    let threads = threads.max(1).min(span.max(1));
    if threads <= 1 {
        for (off, slot) in chunk_progress[from..upto].iter_mut().enumerate() {
            *slot = run_chunk(from + off, counts);
        }
        return;
    }

    // Parallel fan-out: contiguous chunk ranges per worker, merged in
    // worker order. Exactness of the integer merge makes the outcome
    // independent of the split.
    let per_worker = span.div_ceil(threads);
    if worker_counts.len() < threads {
        worker_counts.resize_with(threads, EpochCounter::new);
    }
    let workers = &mut worker_counts[..threads];
    for w in workers.iter_mut() {
        w.begin(num_nodes);
    }
    run_chunks_parallel(
        from,
        per_worker,
        workers,
        &mut chunk_progress[from..upto],
        run_chunk,
    );
    for w in workers.iter() {
        counts.merge_from(w);
    }
}

/// Uniform index below `deg` from one `u32` draw: Lemire's widening
/// multiply, rejection sliver dropped (bias < deg / 2^32).
#[inline(always)]
pub(crate) fn lemire_pick(r: u32, deg: u32) -> usize {
    ((r as u64 * deg as u64) >> 32) as usize
}

/// Step one walk of presampled length `len >= 1` from `start`, whose row
/// `(row0, deg0)` is already resolved with `deg0 > 0`. One `u32` draw per
/// step; a degree-0 node absorbs the walk (its remaining length is spent
/// in place). Returns the endpoint and the steps taken.
#[inline(always)]
fn walk_presampled(
    graph: &Graph,
    start: NodeId,
    (row0, deg0): (usize, u32),
    len: u32,
    rng: &mut SmallRng,
) -> (NodeId, u64) {
    let (mut row, mut deg) = (row0, deg0);
    let mut node = start;
    let mut steps = 0u64;
    for _ in 0..len {
        let idx = lemire_pick(rng.next_u32(), deg);
        // SAFETY: idx < deg, so row + idx is inside node's row.
        node = unsafe { graph.neighbor_flat_unchecked(row + idx) };
        steps += 1;
        // SAFETY: node was read out of the CSR arrays (< n).
        let (nrow, ndeg) = unsafe { graph.neighbor_row_unchecked(node) };
        if ndeg == 0 {
            break; // absorbed; remaining length is spent in place
        }
        row = nrow;
        deg = ndeg;
    }
    (node, steps)
}

/// Execute one chunk's work items: per work group (shared `(hop, node)`)
/// bind the hop's length table and the start's row once, then draw each
/// walk's exact length (one `u64`) and step it to the end. Walks that
/// cannot move — zero sampled length, degree-0 start, or a start hop
/// beyond the Poisson truncation — batch-deposit at the start. Degree-0
/// and beyond-truncation groups consume no RNG at all (their outcome does
/// not depend on it); the consumption rule is a fixed function of the
/// work list, so chunk streams stay pure functions of
/// `(master_seed, chunk)`. [`crate::shard_walk`] mirrors this traversal
/// order draw for draw.
fn run_presampled(
    graph: &Graph,
    entries: &[(u32, NodeId)],
    lengths: &LengthTables,
    items: &[(u32, u64)],
    rng: &mut SmallRng,
    sink: &mut EpochCounter,
) -> u64 {
    let mut steps = 0u64;
    for &(entry_idx, walk_count) in items {
        let (hop0, start) = entries[entry_idx as usize];
        let row = graph.neighbor_row(start);
        let Some(table) = lengths.table(hop0 as usize).filter(|_| row.1 > 0) else {
            sink.inc(start, walk_count);
            continue;
        };
        let mut immediate = 0u64;
        for _ in 0..walk_count {
            let len = table.sample(rng);
            if len == 0 {
                immediate += 1;
                continue;
            }
            let (end, s) = walk_presampled(graph, start, row, len as u32, rng);
            sink.inc(end, 1);
            steps += s;
        }
        if immediate > 0 {
            sink.inc(start, immediate);
        }
    }
    steps
}

/// Split grouped walk multiplicities into work items of at most
/// [`CHUNK_WALKS`] walks and pack consecutive items into chunks of roughly
/// [`CHUNK_WALKS`] total walks.
fn build_chunks(multiplicities: &[u64], work: &mut Vec<(u32, u64)>, chunks: &mut Vec<(u32, u32)>) {
    work.clear();
    chunks.clear();
    let mut chunk_start = 0u32;
    let mut chunk_load = 0u64;
    for (i, &c) in multiplicities.iter().enumerate() {
        let mut remaining = c;
        while remaining > 0 {
            let piece = remaining.min(CHUNK_WALKS);
            work.push((i as u32, piece));
            remaining -= piece;
            chunk_load += piece;
            if chunk_load >= CHUNK_WALKS {
                chunks.push((chunk_start, work.len() as u32));
                chunk_start = work.len() as u32;
                chunk_load = 0;
            }
        }
    }
    if chunk_start < work.len() as u32 {
        chunks.push((chunk_start, work.len() as u32));
    }
}

/// Fill the cumulative planned-walk prefix over the chunk boundaries
/// (`prefix[c]` = walks in chunks `[0, c)`; last entry = total walks).
fn fill_chunk_walk_prefix(work: &[(u32, u64)], chunks: &[(u32, u32)], prefix: &mut Vec<u64>) {
    prefix.clear();
    prefix.reserve(chunks.len() + 1);
    let mut acc = 0u64;
    prefix.push(0);
    for &(lo, hi) in chunks {
        acc += work[lo as usize..hi as usize]
            .iter()
            .map(|&(_, c)| c)
            .sum::<u64>();
        prefix.push(acc);
    }
}

/// Execute chunk ranges on scoped worker threads (`parallel` feature).
/// Slot `i` of `chunk_progress` holds the progress of absolute chunk
/// `base + i`.
#[cfg(feature = "parallel")]
fn run_chunks_parallel(
    base: usize,
    per_worker: usize,
    workers: &mut [EpochCounter],
    chunk_progress: &mut [(u64, u32)],
    run_chunk: &ChunkFn<'_>,
) {
    std::thread::scope(|scope| {
        for (worker_idx, (sink, slots)) in workers
            .iter_mut()
            .zip(chunk_progress.chunks_mut(per_worker))
            .enumerate()
        {
            let first = base + worker_idx * per_worker;
            scope.spawn(move || {
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = run_chunk(first + off, sink);
                }
            });
        }
    });
}

/// Single-threaded fallback with identical results (chunk order and RNG
/// streams are unchanged; only the execution venue differs).
#[cfg(not(feature = "parallel"))]
fn run_chunks_parallel(
    base: usize,
    per_worker: usize,
    workers: &mut [EpochCounter],
    chunk_progress: &mut [(u64, u32)],
    run_chunk: &ChunkFn<'_>,
) {
    for (worker_idx, (sink, slots)) in workers
        .iter_mut()
        .zip(chunk_progress.chunks_mut(per_worker))
        .enumerate()
    {
        let first = base + worker_idx * per_worker;
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = run_chunk(first + off, sink);
        }
    }
}

/// Batched fixed-length walks — the Monte-Carlo walk phase. Walk lengths
/// were already sampled into `length_counts[len] = multiplicity`; all
/// walks start at `seed` and run through the same sequential stepping
/// loop as [`run_batched_walks`]. Endpoint multiplicities land in
/// `counts`; returns nothing extra (steps are `sum(len * count)`,
/// computed by the caller exactly).
#[allow(clippy::too_many_arguments)]
pub fn run_batched_fixed_walks(
    graph: &Graph,
    seed: NodeId,
    length_counts: &[u64],
    master_seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
) {
    let plan = plan_batched_fixed_walks(graph, length_counts, counts, scratch);
    let mut cursor = WalkCursor::default();
    run_planned_fixed_walks(
        graph,
        seed,
        master_seed,
        threads,
        cancel,
        plan.num_chunks,
        &mut cursor,
        counts,
        scratch,
    );
}

/// Plan the fixed-length walk phase: begin the endpoint accumulator and
/// build the chunk decomposition of `length_counts` without executing
/// anything. Unlike the entry-walk planner there is no sampling phase —
/// the length histogram *is* the multiplicity table — so planning is
/// infallible (cancellation only affects execution).
pub(crate) fn plan_batched_fixed_walks(
    graph: &Graph,
    length_counts: &[u64],
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
) -> WalkPlan {
    counts.begin(graph.num_nodes());
    let WalkScratch {
        work,
        chunks,
        chunk_progress,
        chunk_walk_prefix,
        ..
    } = scratch;

    // Reuse the chunk machinery with work items of (length, count).
    build_chunks(length_counts, work, chunks);
    let num_chunks = chunks.len();
    chunk_progress.clear();
    chunk_progress.resize(num_chunks, (0, 0));
    fill_chunk_walk_prefix(work, chunks, chunk_walk_prefix);
    WalkPlan {
        num_chunks,
        total_walks: *chunk_walk_prefix.last().unwrap_or(&0),
    }
}

/// Execute planned chunks `[cursor.next_chunk, upto_chunk)` of the most
/// recent [`plan_batched_fixed_walks`] on this scratch, advancing the
/// cursor. Same resumability contract as [`run_planned_walks`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned_fixed_walks(
    graph: &Graph,
    seed: NodeId,
    master_seed: u64,
    threads: usize,
    cancel: Option<&CancelToken>,
    upto_chunk: usize,
    cursor: &mut WalkCursor,
    counts: &mut EpochCounter,
    scratch: &mut WalkScratch,
) {
    let row = graph.neighbor_row(seed);
    run_planned_chunks(
        graph,
        master_seed,
        threads,
        cancel,
        upto_chunk,
        cursor,
        counts,
        scratch,
        |items, rng, sink| {
            let mut steps = 0u64;
            for &(len, walk_count) in items {
                if len == 0 || row.1 == 0 {
                    // Immobile walks deposit at the seed without RNG cost.
                    sink.inc(seed, walk_count);
                    continue;
                }
                for _ in 0..walk_count {
                    let (end, s) = walk_presampled(graph, seed, row, len, rng);
                    sink.inc(end, 1);
                    steps += s;
                }
            }
            steps
        },
    );
}

/// Independent RNG stream for one chunk (SplitMix64 expansion inside
/// `seed_from_u64` decorrelates consecutive indices).
#[inline]
pub(crate) fn chunk_rng(master_seed: u64, chunk_idx: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        master_seed ^ (chunk_idx.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn walk_stays_on_graph() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let (end, _) = k_random_walk(&g, &p, 0, 0, &mut rng);
            assert!((end as usize) < g.num_nodes());
        }
    }

    #[test]
    fn expected_steps_bounded_by_t() {
        // Lemma 4: E[steps] <= t.
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let t = 5.0;
        let p = PoissonTable::new(t);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let total: u64 = (0..n)
            .map(|_| k_random_walk(&g, &p, 0, 0, &mut rng).1 as u64)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(mean <= t + 0.1, "mean steps {mean} must be <= t={t}");
        // Walks started at hop 0 have expected length exactly t on a
        // regular graph (they stop with the raw Poisson distribution).
        assert!((mean - t).abs() < 0.15, "mean steps {mean}");
    }

    #[test]
    fn higher_start_hop_means_shorter_walks() {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 0)]);
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let mean_at = |k: usize, rng: &mut SmallRng| -> f64 {
            (0..n)
                .map(|_| k_random_walk(&g, &p, 0, k, rng).1 as u64)
                .sum::<u64>() as f64
                / n as f64
        };
        let m0 = mean_at(0, &mut rng);
        let m8 = mean_at(8, &mut rng);
        assert!(
            m8 < m0,
            "walks starting deeper must be shorter: {m8} vs {m0}"
        );
    }

    #[test]
    fn walk_from_beyond_table_stops_immediately() {
        let g = graph_from_edges([(0, 1)]);
        let p = PoissonTable::new(3.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let (end, steps) = k_random_walk(&g, &p, 0, p.k_max() + 10, &mut rng);
        assert_eq!(end, 0);
        assert_eq!(steps, 0);
    }

    #[test]
    fn isolated_node_absorbs() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let (end, steps) = k_random_walk(&g, &p, 2, 0, &mut rng);
        assert_eq!(end, 2);
        assert_eq!(steps, 0);
        assert_eq!(fixed_length_walk(&g, 2, 17, &mut rng), 2);
    }

    /// Run `nr` walks from `(start, k)` through the batched engine and
    /// return the endpoint frequencies.
    fn batched_distribution(
        g: &Graph,
        p: &PoissonTable,
        start: NodeId,
        k: u32,
        nr: u64,
        master_seed: u64,
    ) -> Vec<f64> {
        let entries = [(k, start)];
        let table = AliasTable::new(&[1.0]);
        let mut counts = EpochCounter::new();
        let mut scratch = WalkScratch::default();
        run_batched_walks(
            g,
            p,
            &entries,
            &table,
            nr,
            master_seed,
            1,
            None,
            &mut counts,
            &mut scratch,
        );
        (0..g.num_nodes() as NodeId)
            .map(|v| counts.get(v) as f64 / nr as f64)
            .collect()
    }

    /// Exact `h_u^(k)[v]` on a small graph via the dense backward
    /// recursion `h^(k)_u[v] = stop(k)*[u==v] + (1-stop(k)) *
    /// avg_{w in N(u)} h^(k+1)_w[v]`, with `h` beyond the table being the
    /// identity (stop prob 1).
    fn exact_h<const N: usize>(g: &Graph, p: &PoissonTable) -> [[f64; N]; N] {
        let kmax = p.k_max();
        let mut next = [[0.0f64; N]; N];
        for (u, row) in next.iter_mut().enumerate() {
            row[u] = 1.0;
        }
        for hop in (0..=kmax).rev() {
            let s = p.stop_prob(hop);
            let mut now = [[0.0; N]; N];
            for u in 0..N as u32 {
                let nbrs = g.neighbors(u);
                for v in 0..N {
                    let mut avg = 0.0;
                    for &w in nbrs {
                        avg += next[w as usize][v];
                    }
                    avg /= nbrs.len() as f64;
                    now[u as usize][v] =
                        s * if u as usize == v { 1.0 } else { 0.0 } + (1.0 - s) * avg;
                }
            }
            next = now;
        }
        next
    }

    #[test]
    fn lemma_2_distribution_on_path() {
        // Path 0 - 1 - 2. h_u^(k)[v] computed by hand for k far beyond the
        // mode is concentrated at u (stop_prob ~ 1); near 0 it spreads.
        // Both the per-step stop test and the batched length-presampling
        // engine must reproduce the exact backward-recursion distribution.
        let g = graph_from_edges([(0, 1), (1, 2)]);
        let p = PoissonTable::new(2.0);
        let n = 100_000usize;
        let exact = exact_h::<3>(&g, &p);

        // The original sequential walk.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let (end, _) = k_random_walk(&g, &p, 1, 0, &mut rng);
            counts[end as usize] += 1;
        }
        for v in 0..3 {
            let expect = exact[1][v];
            let got = counts[v] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "sequential v={v}: empirical {got} vs exact {expect}"
            );
        }

        // The batched engine, from several start hops.
        for k in [0u32, 1, 2] {
            let freq = batched_distribution(&g, &p, 1, k, n as u64, 99 + k as u64);
            // exact_h above is h^(0); recompute for start hop k by
            // re-running the backward recursion only down to level k.
            let expect = exact_h_at_hop(&g, &p, k as usize);
            for (v, &got) in freq.iter().enumerate() {
                assert!(
                    (got - expect[1][v]).abs() < 0.01,
                    "k={k} v={v}: empirical {got} vs exact {}",
                    expect[1][v]
                );
            }
        }
    }

    /// `h_u^(k)` for an arbitrary start hop: the backward recursion run
    /// only down to level `k`.
    fn exact_h_at_hop(g: &Graph, p: &PoissonTable, k: usize) -> [[f64; 3]; 3] {
        let kmax = p.k_max();
        let mut next = [[0.0f64; 3]; 3];
        for (u, row) in next.iter_mut().enumerate() {
            row[u] = 1.0;
        }
        for hop in (k..=kmax).rev() {
            let s = p.stop_prob(hop);
            let mut now = [[0.0; 3]; 3];
            for u in 0..3u32 {
                let nbrs = g.neighbors(u);
                for v in 0..3 {
                    let mut avg = 0.0;
                    for &w in nbrs {
                        avg += next[w as usize][v];
                    }
                    avg /= nbrs.len() as f64;
                    now[u as usize][v] =
                        s * if u as usize == v { 1.0 } else { 0.0 } + (1.0 - s) * avg;
                }
            }
            next = now;
        }
        next
    }

    #[test]
    fn presampling_kernels_handle_absorbing_and_out_of_table_starts() {
        // Degree-0 start: the walk deposits at the start.
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let freq = batched_distribution(&g, &p, 2, 0, 500, 7);
        assert_eq!(freq[2], 1.0, "degree-0 start must absorb");
        // Start hop beyond the table: immediate stop at the start.
        let freq = batched_distribution(&g, &p, 0, (p.k_max() + 5) as u32, 500, 8);
        assert_eq!(freq[0], 1.0, "out-of-table start must stop");
    }

    #[test]
    fn walk_scratch_memory_grows_then_releases() {
        // The serve cache budgets against QueryWorkspace::memory_bytes,
        // which folds in this scratch — the plan and per-worker buffers
        // must be visible to it and release() must return to the baseline.
        let mut gen_rng = SmallRng::seed_from_u64(40);
        let g = hk_graph::gen::holme_kim(2_000, 5, 0.3, &mut gen_rng).unwrap();
        let p = PoissonTable::new(5.0);
        let entries: Vec<(u32, NodeId)> = (0..64).map(|i| (0u32, i as NodeId)).collect();
        let weights = vec![1.0; entries.len()];
        let table = AliasTable::new(&weights);
        let mut counts = EpochCounter::new();
        let mut scratch = WalkScratch::default();
        let baseline = scratch.memory_bytes();
        run_batched_walks(
            &g,
            &p,
            &entries,
            &table,
            50_000,
            11,
            2,
            None,
            &mut counts,
            &mut scratch,
        );
        let grown = scratch.memory_bytes();
        assert!(
            grown > baseline,
            "scratch must account for walk buffers: {grown} vs {baseline}"
        );
        // Two workers ran, each with a counter spanning every node.
        assert!(
            grown >= 2 * g.num_nodes() * std::mem::size_of::<u64>(),
            "per-worker counters unaccounted: {grown}"
        );
        scratch.release();
        assert_eq!(scratch.memory_bytes(), baseline);
        // Scratch stays usable after release.
        run_batched_walks(
            &g,
            &p,
            &entries,
            &table,
            1_000,
            12,
            1,
            None,
            &mut counts,
            &mut scratch,
        );
        assert!(scratch.memory_bytes() > baseline);
    }
}

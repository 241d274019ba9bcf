//! Epoch-stamped dense per-query workspace.
//!
//! The hot loops of TEA / TEA+ — residue propagation, reserve
//! accumulation, and per-walk mass deposits — are all keyed by `u32` node
//! ids. The seed implementation routed every one of those operations
//! through an `FxHashMap`, paying hashing, probing and allocation on each
//! touch. This module replaces the maps with **dense arrays + epoch
//! stamps**:
//!
//! * each slot carries a `u32` stamp; a slot is *live* only when its stamp
//!   equals the current epoch, so "clearing" the structure between queries
//!   is one integer increment — no `memset`, no allocation;
//! * every first touch of a slot is recorded in a *touched list*, which is
//!   what converts the dense arrays back into the sparse outputs
//!   (`HkprEstimate`, residue entries) in O(touched) rather than O(n);
//! * a [`QueryWorkspace`] owns all of the buffers an end-to-end query
//!   needs (reserve, per-hop residues, walk-endpoint counters, worklists,
//!   walk scratch), so a long-lived serving thread allocates once and runs
//!   arbitrarily many queries allocation-free.
//!
//! The structure is deliberately paper-shaped: `DenseResidues` mirrors
//! [`crate::sparse::ResidueTable`] (per-hop vectors `r^(0..K)` with
//! incrementally maintained hop sums for `alpha` and `beta_k`), and the
//! workspace additionally maintains the per-hop residue maxima that make
//! the TEA+ condition-(11) check incremental (see
//! [`crate::push_plus::hk_push_plus_ws`]).

use hk_graph::NodeId;

/// One dense slot: epoch stamp + payload, kept adjacent so a random
/// access touches one cache line instead of two parallel arrays. For
/// `f64` payloads the stamp's alignment padding holds a memoized node
/// degree (see [`EpochVec::add_memo_deg`]) at no size cost.
#[derive(Clone, Copy, Debug, Default)]
struct Slot<T> {
    stamp: u32,
    deg: u32,
    value: T,
}

/// Dense `f64` vector with O(1) logical clear via epoch stamps and a
/// touched-node list for sparse read-back.
#[derive(Clone, Debug, Default)]
pub struct EpochVec {
    epoch: u32,
    slots: Vec<Slot<f64>>,
    touched: Vec<NodeId>,
}

impl EpochVec {
    /// Empty vector; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh query over a domain of `n` slots: bump the epoch
    /// (logically zeroing every slot) and grow the backing arrays if the
    /// graph got bigger. O(1) unless growing.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        if self.epoch == u32::MAX {
            // Epoch wrap (once per 4 billion queries): hard-reset stamps.
            for s in &mut self.slots {
                s.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Current value of slot `v` (0 when untouched this epoch).
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        let s = &self.slots[v as usize];
        if s.stamp == self.epoch {
            s.value
        } else {
            0.0
        }
    }

    /// Add `delta` to slot `v`; returns `(old, new)` so callers can detect
    /// threshold crossings.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) -> (f64, f64) {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            let old = s.value;
            s.value = old + delta;
            (old, old + delta)
        } else {
            s.stamp = epoch;
            s.value = delta;
            self.touched.push(v);
            (0.0, delta)
        }
    }

    /// [`add`](Self::add) that also memoizes the node's degree in the
    /// slot's padding: `deg_of` runs on first touch only, and repeat
    /// touches read the degree from the cache line the add already
    /// loaded. The push kernels touch each frontier node `~d` times, so
    /// this converts all but one of the per-neighbor degree lookups into
    /// free reads.
    #[inline]
    pub fn add_memo_deg(
        &mut self,
        v: NodeId,
        delta: f64,
        deg_of: impl FnOnce() -> u32,
    ) -> (f64, f64, u32) {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            let old = s.value;
            s.value = old + delta;
            (old, old + delta, s.deg)
        } else {
            s.stamp = epoch;
            s.value = delta;
            s.deg = deg_of();
            self.touched.push(v);
            (0.0, delta, s.deg)
        }
    }

    /// Zero slot `v`, returning the previous value. The slot stays on the
    /// touched list (its value is just 0).
    #[inline]
    pub fn take(&mut self, v: NodeId) -> f64 {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            let old = s.value;
            s.value = 0.0;
            old
        } else {
            0.0
        }
    }

    /// Nodes touched this epoch, in first-touch order. Values may have
    /// since returned to 0 (e.g. drained residues); read through
    /// [`get`](Self::get).
    #[inline]
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Iterate `(node, value)` for touched slots with non-zero value, in
    /// first-touch order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.touched.iter().filter_map(move |&v| {
            let x = self.slots[v as usize].value;
            (x != 0.0).then_some((v, x))
        })
    }

    /// [`iter_nonzero`](Self::iter_nonzero) plus each slot's memoized
    /// degree (only meaningful when entries were written through
    /// [`add_memo_deg`](Self::add_memo_deg)). Lets residue consumers
    /// (condition-(11) scans, TEA+ reduction) skip the per-entry degree
    /// lookup — the value rides in the cache line already loaded.
    pub fn iter_nonzero_with_deg(&self) -> impl Iterator<Item = (NodeId, f64, u32)> + '_ {
        self.touched.iter().filter_map(move |&v| {
            let s = &self.slots[v as usize];
            (s.value != 0.0).then_some((v, s.value, s.deg))
        })
    }

    /// Number of touched slots this epoch (including re-zeroed ones).
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// `max_v value[v] / deg[v]` over this epoch's non-zero slots (0.0
    /// when none) — the TEA+ condition-(11) residue probe. Only
    /// meaningful when entries were written through
    /// [`add_memo_deg`](Self::add_memo_deg) (degree memoized, `deg >= 1`).
    pub fn max_value_over_deg(&self) -> f64 {
        let mut max = 0.0f64;
        for (_, r, deg) in self.iter_nonzero_with_deg() {
            let norm = r / deg as f64;
            if norm > max {
                max = norm;
            }
        }
        max
    }

    /// Bytes held by the backing allocations.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<f64>>()
            + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Release the backing allocations (next [`begin`](Self::begin)
    /// re-grows from empty).
    fn release(&mut self) {
        self.slots = Vec::new();
        self.touched = Vec::new();
        self.epoch = 0;
    }
}

/// Dense `u64` counter vector with epoch-stamped O(1) clear — the walk
/// engine's endpoint accumulator. Counts (not `f64` masses) make parallel
/// merging *exact*: integer addition is associative, so the merged result
/// is bit-identical regardless of chunk-to-thread assignment.
#[derive(Clone, Debug, Default)]
pub struct EpochCounter {
    epoch: u32,
    slots: Vec<Slot<u64>>,
    touched: Vec<NodeId>,
}

impl EpochCounter {
    /// Empty counter; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh accumulation over `n` slots.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        if self.epoch == u32::MAX {
            for s in &mut self.slots {
                s.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Add `by` to slot `v`.
    #[inline]
    pub fn inc(&mut self, v: NodeId, by: u64) {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            s.value += by;
        } else {
            s.stamp = epoch;
            s.value = by;
            self.touched.push(v);
        }
    }

    /// Current count of slot `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> u64 {
        let s = &self.slots[v as usize];
        if s.stamp == self.epoch {
            s.value
        } else {
            0
        }
    }

    /// Iterate `(node, count)` for touched slots, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.touched
            .iter()
            .map(move |&v| (v, self.slots[v as usize].value))
    }

    /// Fold another counter into this one (exact integer merge).
    pub fn merge_from(&mut self, other: &EpochCounter) {
        for (v, c) in other.iter() {
            self.inc(v, c);
        }
    }

    /// Bytes held by the backing allocations.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<u64>>()
            + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Release the backing allocations.
    fn release(&mut self) {
        self.slots = Vec::new();
        self.touched = Vec::new();
        self.epoch = 0;
    }
}

/// Dense multi-hop residue store: the epoch-stamped counterpart of
/// [`crate::sparse::ResidueTable`]. Hop sums are maintained incrementally
/// (TEA's `alpha`, TEA+'s `beta_k`).
#[derive(Clone, Debug, Default)]
pub struct DenseResidues {
    hops: Vec<EpochVec>,
    hop_sums: Vec<f64>,
    active_hops: usize,
    n: usize,
}

impl DenseResidues {
    /// Empty store; [`begin`](Self::begin) shapes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh query with `num_hops` hop levels over `n` nodes.
    /// Hop levels grow on demand via [`add`](Self::add).
    pub fn begin(&mut self, num_hops: usize, n: usize) {
        self.n = n;
        self.ensure_hops(num_hops);
        self.active_hops = num_hops;
        for h in &mut self.hops[..num_hops] {
            h.begin(n);
        }
        self.hop_sums[..num_hops].fill(0.0);
    }

    fn ensure_hops(&mut self, num_hops: usize) {
        if self.hops.len() < num_hops {
            self.hops.resize_with(num_hops, EpochVec::new);
        }
        if self.hop_sums.len() < num_hops {
            self.hop_sums.resize(num_hops, 0.0);
        }
    }

    /// Number of hop levels in use (`K + 1`).
    pub fn num_hops(&self) -> usize {
        self.active_hops
    }

    /// Residue `r^(k)[v]`; 0 if absent.
    #[inline]
    pub fn get(&self, k: usize, v: NodeId) -> f64 {
        if k < self.active_hops {
            self.hops[k].get(v)
        } else {
            0.0
        }
    }

    /// [`add`](Self::add) that memoizes `deg` in the entry's slot so
    /// later scans ([`EpochVec::iter_nonzero_with_deg`]) skip the degree
    /// lookup.
    #[inline]
    pub(crate) fn add_with_deg(&mut self, k: usize, v: NodeId, delta: f64, deg: u32) -> (f64, f64) {
        let (old, new) = self.add(k, v, delta);
        if let Some(hop) = self.hops.get_mut(k) {
            let epoch_slot = &mut hop.slots[v as usize];
            epoch_slot.deg = deg;
        }
        (old, new)
    }

    /// Add `delta` to `r^(k)[v]`, growing hop levels if needed.
    /// Returns `(old, new)`.
    #[inline]
    pub fn add(&mut self, k: usize, v: NodeId, delta: f64) -> (f64, f64) {
        if k >= self.active_hops {
            let n = self.n;
            self.ensure_hops(k + 1);
            for h in &mut self.hops[self.active_hops..k + 1] {
                h.begin(n);
            }
            self.hop_sums[self.active_hops..k + 1].fill(0.0);
            self.active_hops = k + 1;
        }
        self.hop_sums[k] += delta;
        self.hops[k].add(v, delta)
    }

    /// Remove and return `r^(k)[v]` (0 if absent).
    #[inline]
    pub fn take(&mut self, k: usize, v: NodeId) -> f64 {
        if k >= self.active_hops {
            return 0.0;
        }
        let r = self.hops[k].take(v);
        self.hop_sums[k] -= r;
        r
    }

    /// Sum of residues at hop `k` (incremental; ordinary fp drift applies).
    pub fn hop_sum(&self, k: usize) -> f64 {
        if k < self.active_hops {
            self.hop_sums[k]
        } else {
            0.0
        }
    }

    /// `alpha = sum_k sum_u r^(k)[u]` — total residue mass.
    pub fn total_sum(&self) -> f64 {
        self.hop_sums[..self.active_hops].iter().sum()
    }

    /// Recompute the total from live entries (O(touched); drift bound for
    /// tests).
    pub fn total_sum_exact(&self) -> f64 {
        self.hops[..self.active_hops]
            .iter()
            .map(|h| h.iter_nonzero().map(|(_, r)| r).sum::<f64>())
            .sum()
    }

    /// One hop level's live view.
    pub fn hop(&self, k: usize) -> Option<&EpochVec> {
        (k < self.active_hops).then(|| &self.hops[k])
    }

    /// Split borrow for the push kernels: hops `k` and `k + 1` mutably,
    /// plus the hop-sum slice, all disjoint. Requires `k + 1 <
    /// num_hops()`. The kernels batch their hop-sum updates (one flush
    /// per processed node set instead of one per touched neighbor).
    pub(crate) fn push_kernel_parts(
        &mut self,
        k: usize,
    ) -> (&mut EpochVec, &mut EpochVec, &mut [f64]) {
        debug_assert!(k + 1 < self.active_hops);
        let (cur, next) = self.hops.split_at_mut(k + 1);
        (&mut cur[k], &mut next[0], &mut self.hop_sums)
    }

    /// Iterate all live `(k, v, r)` entries, hop-major, first-touch order
    /// within a hop (deterministic for a fixed push schedule).
    pub fn entries(&self) -> impl Iterator<Item = (usize, NodeId, f64)> + '_ {
        self.hops[..self.active_hops]
            .iter()
            .enumerate()
            .flat_map(|(k, h)| h.iter_nonzero().map(move |(v, r)| (k, v, r)))
    }

    /// Number of live (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.hops[..self.active_hops]
            .iter()
            .map(|h| h.iter_nonzero().count())
            .sum()
    }

    /// Bytes held by the backing allocations (all hop levels ever grown).
    pub fn memory_bytes(&self) -> usize {
        self.hops.iter().map(EpochVec::memory_bytes).sum::<usize>()
            + self.hop_sums.capacity() * std::mem::size_of::<f64>()
    }

    /// Release the backing allocations.
    fn release(&mut self) {
        self.hops = Vec::new();
        self.hop_sums = Vec::new();
        self.active_hops = 0;
        self.n = 0;
    }
}

/// Wall-clock split of the last estimator run on a workspace, in
/// nanoseconds. Recorded by `tea_in`, `tea_plus_in` and `monte_carlo_in`
/// for serving-layer telemetry; deliberately *not* part of
/// [`crate::QueryStats`], whose fields are deterministic counters that
/// serving tests compare bit-for-bit across thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time spent in the push phase (HK-Push / HK-Push+ / walk-length
    /// pre-sampling for Monte-Carlo).
    pub push_ns: u64,
    /// Time spent after the push phase: residue reduction (TEA+), the
    /// batched walk engine, and estimate assembly.
    pub walk_ns: u64,
}

/// Reusable per-query workspace: every buffer an end-to-end TEA / TEA+ /
/// Monte-Carlo query needs, allocated once and logically cleared in O(1)
/// between queries.
///
/// ```
/// use hk_graph::gen::holme_kim;
/// use hkpr_core::{tea_plus_in, HkprParams, QueryWorkspace};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(5);
/// let g = holme_kim(500, 4, 0.3, &mut rng).unwrap();
/// let params = HkprParams::builder(&g).delta(1e-3).build().unwrap();
/// let mut ws = QueryWorkspace::new();
/// // One workspace serves any number of queries, allocation-free after
/// // the first.
/// for seed in [0u32, 17, 401] {
///     let out = tea_plus_in(&g, &params, seed, &mut rng, &mut ws).unwrap();
///     assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct QueryWorkspace {
    /// Reserve vector `q_s`.
    pub(crate) reserve: EpochVec,
    /// Residue vectors `r^(0..K)`.
    pub(crate) residues: DenseResidues,
    /// Walk-endpoint counts.
    pub(crate) counts: EpochCounter,
    /// Per-hop push worklists (reused). Entries carry the node's degree —
    /// known for free at the enqueue site — so a pop costs one sequential
    /// load instead of an extra random read of the degree array.
    pub(crate) queues: Vec<Vec<(NodeId, u32)>>,
    /// Walk-start entries `(hop, node)` for the alias table.
    pub(crate) entries: Vec<(u32, NodeId)>,
    /// Walk-start weights, parallel to `entries`.
    pub(crate) weights: Vec<f64>,
    /// Batched walk engine scratch (start multiplicities, chunk bounds).
    pub(crate) walk_scratch: crate::walk::WalkScratch,
    /// Monotone per-hop max hints for the condition-(11) scheduler.
    pub(crate) hop_max_hint: Vec<f64>,
    /// Exact per-hop maxima of hops whose processing has finished.
    pub(crate) hop_max_frozen: Vec<f64>,
    /// Checkpoint of the resumable push ladder over the buffers above
    /// (see [`crate::push_plus::PushResumeState`]): plain scalars, valid
    /// only between `hk_push_plus_begin` and the next `begin`.
    pub(crate) push_resume: crate::push_plus::PushResumeState,
    /// Phase-time split of the last estimator run (telemetry only).
    pub(crate) phase_times: PhaseTimes,
    /// Cooperative cancellation flag for the query in flight, polled at
    /// hop boundaries (push kernels) and chunk boundaries (walk engine).
    cancel: Option<crate::cancel::CancelToken>,
    /// Walk-phase worker threads (1 = run chunks inline).
    threads: usize,
}

/// `Default` must agree with [`QueryWorkspace::new`]: in particular the
/// thread count starts at 1 (run walk chunks inline), not 0. The previous
/// derived impl left the field at 0 and relied on every reader clamping —
/// a `Debug`-visible inconsistency that this manual impl removes.
impl Default for QueryWorkspace {
    fn default() -> Self {
        QueryWorkspace {
            reserve: EpochVec::new(),
            residues: DenseResidues::new(),
            counts: EpochCounter::new(),
            queues: Vec::new(),
            entries: Vec::new(),
            weights: Vec::new(),
            walk_scratch: crate::walk::WalkScratch::default(),
            hop_max_hint: Vec::new(),
            hop_max_frozen: Vec::new(),
            push_resume: crate::push_plus::PushResumeState::default(),
            phase_times: PhaseTimes::default(),
            cancel: None,
            threads: 1,
        }
    }
}

impl QueryWorkspace {
    /// Workspace running the walk phase on the calling thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workspace fanning walk chunks over `threads` workers (clamped to at
    /// least 1). Results are bit-identical for any thread count: the chunk
    /// decomposition and per-chunk RNG streams depend only on the master
    /// seed, and endpoint *counts* merge exactly.
    pub fn with_threads(threads: usize) -> Self {
        let mut ws = Self::default();
        ws.set_threads(threads);
        ws
    }

    /// Change the walk-phase thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Walk-phase thread count.
    pub fn threads(&self) -> usize {
        debug_assert!(self.threads >= 1);
        self.threads
    }

    /// Walk-start entries `(hop, node)` left in the workspace by the last
    /// [`crate::tea_plus::tea_plus_prepare`] call — the shard coordinator
    /// ships these to every shard so each can rebuild the identical walk
    /// plan.
    pub fn walk_entries(&self) -> &[(u32, NodeId)] {
        &self.entries
    }

    /// Walk-start weights parallel to
    /// [`walk_entries`](Self::walk_entries).
    pub fn walk_weights(&self) -> &[f64] {
        &self.weights
    }

    /// Wall-clock phase split of the last TEA / TEA+ / Monte-Carlo run on
    /// this workspace. Zero for estimators that do not use the workspace
    /// (ClusterHKPR, HK-Relax, exact power iteration, the PPR baselines).
    pub fn last_phase_times(&self) -> PhaseTimes {
        self.phase_times
    }

    /// Record the phase split of the estimator run that just finished.
    pub(crate) fn set_phase_times(&mut self, push_ns: u64, walk_ns: u64) {
        self.phase_times = PhaseTimes { push_ns, walk_ns };
    }

    /// Install (or clear) the cooperative cancellation token the next
    /// queries on this workspace poll. Serving workers install the
    /// request's token before dispatching and clear it afterwards; a
    /// query whose token fires returns [`HkprError::Cancelled`]
    /// (estimator level) and leaves the workspace reusable. An installed
    /// but never-fired token has zero effect on results — the checks are
    /// pure control flow (see [`crate::cancel`]).
    ///
    /// [`HkprError::Cancelled`]: crate::HkprError::Cancelled
    pub fn set_cancel_token(&mut self, token: Option<crate::cancel::CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&crate::cancel::CancelToken> {
        self.cancel.as_ref()
    }

    /// Poll the installed token (false when none is installed).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.cancel {
            Some(token) => token.is_cancelled(),
            None => false,
        }
    }

    /// Typed-error form of [`is_cancelled`](Self::is_cancelled) for the
    /// estimator drivers' `?` chains.
    #[inline]
    pub fn check_cancelled(&self) -> Result<(), crate::HkprError> {
        if self.is_cancelled() {
            Err(crate::HkprError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Zero the recorded phase split. Serving loops call this before
    /// dispatching to an arbitrary estimator so a method that does not
    /// use the workspace (exact power iteration, HK-Relax, the PPR
    /// baselines) cannot report the previous query's timings.
    pub fn clear_phase_times(&mut self) {
        self.phase_times = PhaseTimes::default();
    }

    /// Read access to the reserve vector of the last push phase run on
    /// this workspace (equivalence tests and custom estimator assembly).
    pub fn reserve(&self) -> &EpochVec {
        &self.reserve
    }

    /// Read access to the residue table of the last push phase run on
    /// this workspace.
    pub fn residues(&self) -> &DenseResidues {
        &self.residues
    }

    /// Bytes held by every backing allocation of this workspace. A
    /// steady-state serving worker's footprint is `O(n)` dense slots plus
    /// the touched lists; serving layers use this (together with the
    /// result-side accounting in `HkprEstimate::memory_bytes`) to budget
    /// cache memory against worker memory.
    pub fn memory_bytes(&self) -> usize {
        self.reserve.memory_bytes()
            + self.residues.memory_bytes()
            + self.counts.memory_bytes()
            + self
                .queues
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<(NodeId, u32)>())
                .sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<(u32, NodeId)>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
            + self.walk_scratch.memory_bytes()
            + self.hop_max_hint.capacity() * std::mem::size_of::<f64>()
            + self.hop_max_frozen.capacity() * std::mem::size_of::<f64>()
    }

    /// Release every backing allocation, returning the workspace to its
    /// freshly-constructed footprint (thread count is preserved). An idle
    /// serving worker parked on a huge graph can call this to hand `O(n)`
    /// slot memory back to the allocator; the next query re-grows.
    pub fn reset(&mut self) {
        self.reserve.release();
        self.residues.release();
        self.counts.release();
        self.queues = Vec::new();
        self.entries = Vec::new();
        self.weights = Vec::new();
        self.walk_scratch.release();
        self.hop_max_hint = Vec::new();
        self.hop_max_frozen = Vec::new();
        self.push_resume = crate::push_plus::PushResumeState::default();
        self.phase_times = PhaseTimes::default();
        self.cancel = None;
    }

    /// Prepare for a query over an `n`-node graph: O(1) epoch bumps for
    /// the reserve and endpoint counters (residues are shaped by the push
    /// routines, which know their hop count).
    pub(crate) fn begin(&mut self, n: usize) {
        self.reserve.begin(n);
        self.counts.begin(n);
        self.entries.clear();
        self.weights.clear();
    }

    /// Assemble the final sorted sparse estimate from the reserve plus
    /// `count * mass` walk deposits. O(touched log touched). The returned
    /// vector is handed to the `HkprEstimate`, which owns its storage —
    /// this is the one intrinsic allocation of a query's output.
    pub(crate) fn assemble_estimate(&mut self, mass: f64) -> Vec<(NodeId, f64)> {
        // iter_nonzero's size hint is 0, so size the vec explicitly.
        let mut out = Vec::with_capacity(self.reserve.touched_len() + self.counts.iter().count());
        out.extend(self.reserve.iter_nonzero());
        out.extend(self.counts.iter().map(|(v, c)| (v, c as f64 * mass)));
        out.sort_unstable_by_key(|&(v, _)| v);
        out.dedup_by(|later, first| {
            if later.0 == first.0 {
                first.1 += later.1;
                true
            } else {
                false
            }
        });
        out
    }
}

thread_local! {
    /// Per-thread cached workspace backing the one-shot public APIs
    /// (`tea`, `tea_plus`, `monte_carlo` without an explicit workspace).
    /// First call on a thread pays the allocation; every later one-shot
    /// call reuses it, so casual callers get the serving-path speed.
    static THREAD_WORKSPACE: std::cell::RefCell<QueryWorkspace> =
        std::cell::RefCell::new(QueryWorkspace::new());
}

/// Run `f` with this thread's cached [`QueryWorkspace`].
///
/// Falls back to a fresh workspace if the cached one is already borrowed
/// (an estimator invoked from inside an estimator callback), so nesting
/// degrades to an allocation instead of a panic.
pub fn with_thread_workspace<T>(f: impl FnOnce(&mut QueryWorkspace) -> T) -> T {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut QueryWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_vec_clear_is_logical() {
        let mut v = EpochVec::new();
        v.begin(8);
        assert_eq!(v.add(3, 0.5), (0.0, 0.5));
        assert_eq!(v.add(3, 0.25), (0.5, 0.75));
        assert_eq!(v.get(3), 0.75);
        assert_eq!(v.touched(), &[3]);
        v.begin(8);
        assert_eq!(v.get(3), 0.0);
        assert!(v.touched().is_empty());
        // The stale slot revives cleanly.
        assert_eq!(v.add(3, 1.0), (0.0, 1.0));
    }

    #[test]
    fn epoch_vec_take_keeps_touched() {
        let mut v = EpochVec::new();
        v.begin(4);
        v.add(1, 0.5);
        assert_eq!(v.take(1), 0.5);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.take(1), 0.0);
        assert_eq!(v.touched(), &[1]);
        assert_eq!(v.iter_nonzero().count(), 0);
    }

    #[test]
    fn epoch_vec_grows_for_bigger_graphs() {
        let mut v = EpochVec::new();
        v.begin(2);
        v.add(1, 1.0);
        v.begin(10);
        assert_eq!(v.get(9), 0.0);
        v.add(9, 2.0);
        assert_eq!(v.get(9), 2.0);
    }

    #[test]
    fn epoch_counter_counts_and_merges() {
        let mut a = EpochCounter::new();
        let mut b = EpochCounter::new();
        a.begin(8);
        b.begin(8);
        a.inc(2, 3);
        b.inc(2, 1);
        b.inc(5, 7);
        a.merge_from(&b);
        assert_eq!(a.get(2), 4);
        assert_eq!(a.get(5), 7);
        assert_eq!(a.get(0), 0);
        a.begin(8);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn dense_residues_match_sparse_semantics() {
        let mut t = DenseResidues::new();
        t.begin(2, 16);
        let (old, new) = t.add(0, 5, 0.25);
        assert_eq!((old, new), (0.0, 0.25));
        t.add(0, 5, 0.5);
        assert_eq!(t.get(0, 5), 0.75);
        assert_eq!(t.take(0, 5), 0.75);
        assert_eq!(t.get(0, 5), 0.0);
        // Grows on demand.
        t.add(4, 9, 1.0);
        assert_eq!(t.num_hops(), 5);
        assert_eq!(t.get(4, 9), 1.0);
        assert!((t.hop_sum(4) - 1.0).abs() < 1e-15);
        assert!((t.total_sum() - 1.0).abs() < 1e-15);
        assert!((t.total_sum() - t.total_sum_exact()).abs() < 1e-12);
        assert_eq!(t.nnz(), 1);
        let es: Vec<_> = t.entries().collect();
        assert_eq!(es, vec![(4, 9, 1.0)]);
    }

    #[test]
    fn dense_residues_reset_between_queries() {
        let mut t = DenseResidues::new();
        t.begin(3, 8);
        t.add(1, 2, 0.5);
        t.add(2, 3, 0.25);
        t.begin(2, 8);
        assert_eq!(t.get(1, 2), 0.0);
        assert_eq!(t.total_sum(), 0.0);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.num_hops(), 2);
    }

    #[test]
    fn workspace_assembles_sorted_estimate() {
        let mut ws = QueryWorkspace::new();
        ws.begin(16);
        ws.reserve.add(7, 0.5);
        ws.reserve.add(2, 0.25);
        ws.counts.inc(7, 2);
        ws.counts.inc(11, 1);
        let entries = ws.assemble_estimate(0.1);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, 2);
        assert!((entries[1].1 - 0.7).abs() < 1e-15); // 0.5 + 2 * 0.1
        assert_eq!(entries[2], (11, 0.1));
    }

    #[test]
    fn thread_configuration_clamped() {
        let mut ws = QueryWorkspace::with_threads(0);
        assert_eq!(ws.threads(), 1);
        ws.set_threads(8);
        assert_eq!(ws.threads(), 8);
        // Default starts single-threaded, same as new().
        assert_eq!(QueryWorkspace::default().threads(), 1);
    }

    #[test]
    fn memory_accounting_grows_and_resets() {
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        ws.begin(4096);
        ws.reserve.add(17, 1.0);
        ws.counts.inc(40, 2);
        ws.residues.begin(3, 4096);
        ws.residues.add(1, 9, 0.5);
        let grown = ws.memory_bytes();
        assert!(
            grown >= fresh + 4096 * std::mem::size_of::<Slot<f64>>(),
            "grown {grown} vs fresh {fresh}"
        );
        ws.set_threads(3);
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
        assert_eq!(ws.threads(), 3, "reset preserves the thread count");
        // The workspace stays usable after a reset.
        ws.begin(16);
        ws.reserve.add(3, 0.5);
        assert_eq!(ws.reserve.get(3), 0.5);
    }

    #[test]
    fn workspace_accounts_walk_engine_buffers() {
        // The serve cache budgets worker memory via memory_bytes(); the
        // walk engine's plan buffers must be visible in it after a real
        // query, and reset() must hand everything back.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(50);
        let g = holme_kim(3_000, 5, 0.4, &mut rng).unwrap();
        let params = crate::HkprParams::builder(&g)
            .delta(1e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        let opts = crate::tea_plus::TeaPlusOptions {
            early_exit: false,
            ..Default::default()
        };
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        let out =
            crate::tea_plus::tea_plus_with_options_in(&g, &params, 0, opts, &mut rng, &mut ws)
                .unwrap();
        assert!(
            out.stats.random_walks > 0,
            "fixture must exercise the walk phase"
        );
        let walk_bytes = ws.walk_scratch.memory_bytes();
        assert!(walk_bytes > 0, "walk scratch must have grown");
        assert!(ws.memory_bytes() >= fresh + walk_bytes);
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
    }

    #[test]
    fn phase_times_recorded_per_run() {
        assert_eq!(
            QueryWorkspace::new().last_phase_times(),
            PhaseTimes::default()
        );
        let mut ws = QueryWorkspace::new();
        ws.set_phase_times(5, 7);
        assert_eq!(
            ws.last_phase_times(),
            PhaseTimes {
                push_ns: 5,
                walk_ns: 7
            }
        );
    }
}

//! Piecewise-constant functions of time ("staircase" functions).
//!
//! The memory-aware heuristics of the paper (Section 5.1) maintain, for each
//! memory `µ`, the profile `free_mem^{(µ)}(t)` of memory still available at
//! every instant of the partial schedule. The paper stores it as "a list of
//! couples `[(x_1, val_1), ..., (x_ℓ, val_ℓ)]`" — the representation
//! implemented here, together with the two queries the heuristics need:
//!
//! * update the profile on a half-open interval or a suffix (reserving or
//!   releasing a file), and
//! * find the earliest time `t ≥ t_min` such that the profile stays above a
//!   threshold **forever after** `t` (the `task_mem_EST` / `comm_mem_EST`
//!   computations).
//!
//! # Storage and complexity
//!
//! Breakpoints are stored in sorted order across a sequence of fixed-capacity
//! *chunks* (at most `C` = 64 breakpoints each), with a `first_x` index of
//! every chunk's first coordinate. Over the chunks sits one contiguous
//! tournament (segment) tree whose leaves hold each chunk's `(min, max)`:
//!
//! ```text
//!   tree[1] = (min, max) of the whole function
//!        ├── tree[2] ──┬── leaf 0: chunk 0   [(x, v) × ≤ C]
//!        │             └── leaf 1: chunk 1
//!        └── tree[3] ──┬── leaf 2: chunk 2
//!                      └── leaf 3: padding (+∞, −∞)
//! ```
//!
//! With `k` breakpoints (`k/C` chunks):
//!
//! | operation | cost |
//! |---|---|
//! | [`value_at`] | `O(log k)`: `partition_point` on `first_x`, then in the chunk |
//! | [`max_value`] | `O(1)`: the root |
//! | [`min_from`] | `O(C + log(k/C))`: the chunk's tail plus a tree range query |
//! | [`earliest_sustained_ge`] / [`earliest_sustained_le`] | `O(C + log(k/C))`: descend to the last violating chunk, then `rposition` in it |
//! | one mutation's values | `O(C + changed)`: insertion, float additions, merge scan |
//! | extrema repair | `O(touched·C + log(k/C))`, once per mutation or once per [`batch`] |
//! | chunk split / merge | `O(k/C)` leaf shift, rare |
//!
//! A mutation re-folds the extrema of each chunk whose values it touched and
//! updates the tree level by level above them, stopping at the first level
//! where no node changed. The scheduler's reserve/release pattern mutates
//! near the end of the horizon, so a repair touches a chunk or two and a
//! handful of tree nodes. Breakpoint insertion is `O(C)` — a full chunk
//! splits in two, sparse chunks re-merge — instead of the `O(k)` tail
//! memmove of a flat vector. A split or merge shifts the leaves to the right
//! of the change without re-folding them; the whole tree is laid out afresh
//! only when its leaf capacity must grow or shrink.
//!
//! Min and max are exact, and the queries' predicates are monotone in the
//! value, so the tree finds the same breakpoint a flat suffix-extrema scan
//! would: answers are bit-identical to the historical flat implementation
//! (kept in the tests as the oracle).
//!
//! # Batches: extrema may wait, values may not
//!
//! A scheduler commit issues several mutations in a row (about 5 on a
//! 1000-task DAG, about 36 on a 10⁵-task one), each changing one or two
//! breakpoints, and no query runs between them. Re-folding a whole chunk
//! (up to `C` points) and walking the tree after every one of them is a
//! large part of the cost. A [`batch`] keeps each mutation's *values*
//! eager — insertion, float additions and merge scan run in call order,
//! exactly as for a single call — and lets only the *extrema* wait: the
//! touched chunks are recorded as pending, and dropping the batch re-folds
//! them and refreshes the tree once. That is exact for three reasons:
//!
//! * the leaves and the tree are derived data, and `min`/`max` folds give
//!   the same result whenever they run;
//! * no mutation reads them: breakpoint search uses `first_x`, which stays
//!   exact, and the merge scan reads the points themselves; the structural
//!   steps that do read or shift leaves (chunk split, sparse merge, emptied
//!   chunk) settle the pending leaves first;
//! * the batch borrows the staircase mutably, so no query can run while
//!   leaves are pending.
//!
//! # Why deltas are applied eagerly (no per-chunk lazy offsets)
//!
//! An obvious further step would be to make [`add_from`] / [`add_range`]
//! `O(log k)` by storing a pending per-chunk offset and pushing it down on
//! access. That design is rejected here because it cannot preserve the
//! crate's bit-identity guarantee (schedules must be bit-identical across
//! refactors and thread counts):
//!
//! * accumulating offsets reorders float additions — `v + (d₁ + d₂)` is not
//!   `(v + d₁) + d₂` in IEEE 754 — so stored values would drift from the
//!   eager sequence, and
//! * segment merging uses [`approx_eq`], whose tolerance has a *relative*
//!   component: a uniform shift to large magnitudes genuinely changes which
//!   adjacent segments merge, so the merge pass must observe post-shift
//!   values across the whole changed region anyway. Since correctness forces
//!   that scan, laziness saves nothing and risks divergence.
//!
//! Deltas are therefore added eagerly, point by point, in the same order as
//! the historical flat implementation; the chunked layout only changes
//! *where* the points live, never the float operations performed on them.
//!
//! [`value_at`]: Staircase::value_at
//! [`max_value`]: Staircase::max_value
//! [`min_from`]: Staircase::min_from
//! [`earliest_sustained_ge`]: Staircase::earliest_sustained_ge
//! [`earliest_sustained_le`]: Staircase::earliest_sustained_le
//! [`add_from`]: Staircase::add_from
//! [`add_range`]: Staircase::add_range
//! [`batch`]: Staircase::batch

use crate::float::{approx_eq, approx_ge, EPSILON};

/// Maximum number of breakpoints per chunk; a full chunk splits in two.
const CHUNK_CAP: usize = 64;
/// Split point of a full chunk: the left half keeps this many points.
const CHUNK_MID: usize = CHUNK_CAP / 2;
/// Chunks that fall below this many points try to merge with a neighbour.
const CHUNK_MIN: usize = 16;
/// A sparse merge only happens if the combined chunk stays at or below this.
const MERGE_MAX: usize = CHUNK_CAP - CHUNK_MIN;

/// Neutral element for (min, max) extrema folds; also every padding leaf.
const NEUTRAL: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Combines two (min, max) extrema.
#[inline]
fn join(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0.min(b.0), a.1.max(b.1))
}

/// (min, max) of the values of one chunk (`NEUTRAL` when empty).
#[inline]
fn extrema(points: &[(f64, f64)]) -> (f64, f64) {
    points
        .iter()
        .fold(NEUTRAL, |(lo, hi), &(_, v)| (lo.min(v), hi.max(v)))
}

/// A tournament tree with `cap` leaves (a power of two) over `leaves`, one
/// per chunk: padding leaves are `NEUTRAL` and every internal node folds
/// its two children (see [`Staircase`]'s `tree` field).
fn tree_over(cap: usize, leaves: impl IntoIterator<Item = (f64, f64)>) -> Vec<(f64, f64)> {
    let mut tree = vec![NEUTRAL; 2 * cap];
    for (slot, leaf) in tree[cap..].iter_mut().zip(leaves) {
        *slot = leaf;
    }
    for i in (1..cap).rev() {
        tree[i] = join(tree[2 * i], tree[2 * i + 1]);
    }
    tree
}

/// A position in the two-level storage: breakpoint `idx` of chunk `chunk`.
///
/// Positions are kept *normalised*: `idx` is strictly inside its chunk,
/// except for the global end position `(last_chunk, last_len)`. Under that
/// invariant the derived lexicographic order matches global breakpoint order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Pos {
    chunk: usize,
    idx: usize,
}

/// Sentinel "infinitely far right" position (used as an open-ended bound).
const POS_INF: Pos = Pos {
    chunk: usize::MAX,
    idx: 0,
};

/// A piecewise-constant function `f : [0, +∞) → ℝ`.
///
/// Semantically a sorted list of breakpoints `(x_i, v_i)`, meaning
/// `f(t) = v_i` for `t ∈ [x_i, x_{i+1})` and `f(t) = v_ℓ` for `t ≥ x_ℓ`.
/// The first breakpoint is always at `x = 0`. Internally the list is split
/// across fixed-capacity chunks (see the module docs for the layout and the
/// complexity trade-offs).
#[derive(Debug, Clone)]
pub struct Staircase {
    /// The chunks, globally sorted: every `x` in `chunks[c]` is strictly
    /// less than every `x` in `chunks[c + 1]`. Never empty; no chunk is
    /// empty; each holds breakpoints `(x, v)` by strictly increasing `x`.
    chunks: Vec<Vec<(f64, f64)>>,
    /// `first_x[c]` = x-coordinate of the first breakpoint of chunk `c`.
    first_x: Vec<f64>,
    /// Tournament tree over the chunks, 1-based (`tree[0]` is unused):
    /// leaf `tree[cap + c]` is the (min, max) of chunk `c`'s values, leaves
    /// past the last chunk are `NEUTRAL`, and every internal node `i` is
    /// `join(tree[2i], tree[2i + 1])`.
    tree: Vec<(f64, f64)>,
    /// Leaf capacity of `tree`: a power of two with
    /// `chunks.len() ≤ cap < 4 · chunks.len()`.
    cap: usize,
    /// Total number of breakpoints.
    n: usize,
    /// Chunks `[lo, hi)` whose leaves (and the tree above them) are stale
    /// inside an open [`StaircaseBatch`]; `lo ≥ hi` when nothing is pending.
    pending: (usize, usize),
}

/// The empty pending range.
const SETTLED: (usize, usize) = (usize::MAX, 0);

/// Equality is a property of the function, i.e. of the breakpoints; the
/// extrema tree is derived data.
impl PartialEq for Staircase {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.breakpoints().eq(other.breakpoints())
    }
}

impl Staircase {
    /// Creates a function that is constant and equal to `value` everywhere.
    pub fn constant(value: f64) -> Self {
        let mut points = Vec::with_capacity(CHUNK_CAP);
        points.push((0.0, value));
        Staircase {
            chunks: vec![points],
            first_x: vec![0.0],
            tree: vec![NEUTRAL, (value, value)],
            cap: 1,
            n: 1,
            pending: SETTLED,
        }
    }

    /// Builds a staircase from breakpoints sorted by strictly increasing
    /// `x`, the first at `x = 0`. Adjacent approx-equal values are merged
    /// exactly as the incremental mutations would merge them, so bulk
    /// construction and an equivalent mutation sequence produce the same
    /// representation. Runs in `O(k)` — the bulk path for replay/validation
    /// code that would otherwise pay `O(k)` *per insertion*.
    ///
    /// # Panics
    ///
    /// Panics if the input is empty or the first breakpoint is not at
    /// `x = 0`; debug builds also check the ordering.
    pub fn from_breakpoints(points: impl IntoIterator<Item = (f64, f64)>) -> Self {
        // Fill chunks to less than capacity so later point insertions do
        // not split immediately.
        const FILL: usize = CHUNK_CAP - CHUNK_MIN;
        let mut chunks: Vec<Vec<(f64, f64)>> = Vec::new();
        let mut first_x = Vec::new();
        let mut n = 0;
        let mut last: Option<(f64, f64)> = None;
        for (x, v) in points {
            if let Some((px, pv)) = last {
                debug_assert!(px < x, "breakpoints must be strictly increasing");
                if approx_eq(pv, v) {
                    continue;
                }
            } else {
                assert_eq!(x, 0.0, "first breakpoint must be at x = 0");
            }
            last = Some((x, v));
            match chunks.last_mut() {
                Some(ch) if ch.len() < FILL => ch.push((x, v)),
                _ => {
                    let mut ch = Vec::with_capacity(CHUNK_CAP);
                    ch.push((x, v));
                    chunks.push(ch);
                    first_x.push(x);
                }
            }
            n += 1;
        }
        assert!(n > 0, "a staircase needs at least one breakpoint");
        let cap = chunks.len().next_power_of_two();
        let tree = tree_over(cap, chunks.iter().map(|ch| extrema(ch)));
        Staircase {
            chunks,
            first_x,
            tree,
            cap,
            n,
            pending: SETTLED,
        }
    }

    /// Number of breakpoints in the internal representation.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the function is represented by a single segment.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Iterates over the breakpoints `(x_i, v_i)` of the representation.
    pub fn breakpoints(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    // ---- position arithmetic ------------------------------------------

    #[inline]
    fn point(&self, p: Pos) -> (f64, f64) {
        self.chunks[p.chunk][p.idx]
    }

    /// Normalises an end-of-chunk position to the start of the next chunk
    /// (the global end stays at `(last, len)`).
    #[inline]
    fn normalize(&self, p: Pos) -> Pos {
        if p.idx == self.chunks[p.chunk].len() && p.chunk + 1 < self.chunks.len() {
            Pos {
                chunk: p.chunk + 1,
                idx: 0,
            }
        } else {
            p
        }
    }

    /// Global predecessor of a (normalised) position, saturating at the
    /// first breakpoint — the two-level equivalent of `saturating_sub(1)`.
    #[inline]
    fn pos_prev(&self, p: Pos) -> Pos {
        if p.idx > 0 {
            Pos {
                chunk: p.chunk,
                idx: p.idx - 1,
            }
        } else if p.chunk > 0 {
            let c = p.chunk - 1;
            Pos {
                chunk: c,
                idx: self.chunks[c].len() - 1,
            }
        } else {
            Pos { chunk: 0, idx: 0 }
        }
    }

    /// Two-level `partition_point` over the breakpoints: `pred` must be
    /// monotone in `x` (a prefix of the sorted breakpoints satisfies it).
    /// Returns the normalised position of the first breakpoint that does
    /// **not** satisfy `pred` (the global end position if all do).
    ///
    /// Because `pred` is genuinely monotone over the sorted `x`, the
    /// chunk-level then in-chunk searches find the same unique boundary a
    /// flat `partition_point` would — bit-identical, not just equivalent.
    ///
    /// Mutations cluster at the horizon, so the last chunk is tried before
    /// the chunk-level search; `pred` being monotone, the boundary is the
    /// same either way.
    #[inline]
    fn pp(&self, pred: impl Fn(f64) -> bool) -> Pos {
        let last = self.first_x.len() - 1;
        let c = if pred(self.first_x[last]) {
            last + 1
        } else {
            self.first_x[..last].partition_point(|&x| pred(x))
        };
        if c == 0 {
            return Pos { chunk: 0, idx: 0 };
        }
        let i = self.chunks[c - 1].partition_point(|&(x, _)| pred(x));
        self.normalize(Pos {
            chunk: c - 1,
            idx: i,
        })
    }

    /// Position of the segment containing `t`: the last breakpoint with
    /// `x ≤ t + EPSILON`, or the first breakpoint when `t` lies before it.
    #[inline]
    fn locate(&self, t: f64) -> Pos {
        self.pos_prev(self.pp(|x| x <= t + EPSILON))
    }

    // ---- tournament tree ----------------------------------------------

    /// Extrema of chunks `[c, len)`: a bottom-up range query over the
    /// leaves (padding leaves are neutral, so the range runs to `cap`).
    fn chunks_from(&self, c: usize) -> (f64, f64) {
        let (mut l, mut r) = (self.cap + c, 2 * self.cap);
        let mut acc = NEUTRAL;
        while l < r {
            if l & 1 == 1 {
                acc = join(acc, self.tree[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc = join(acc, self.tree[r]);
            }
            l /= 2;
            r /= 2;
        }
        acc
    }

    /// The last chunk whose extrema `fail`, found by descending from the
    /// root into the right child whenever it fails. `fail` must be monotone
    /// (a join fails iff one of its parts does), which holds for the
    /// threshold tests of the sustained queries.
    fn last_failing_chunk(&self, fail: impl Fn((f64, f64)) -> bool) -> Option<usize> {
        if !fail(self.tree[1]) {
            return None;
        }
        let mut i = 1;
        while i < self.cap {
            i = if fail(self.tree[2 * i + 1]) {
                2 * i + 1
            } else {
                2 * i
            };
        }
        Some(i - self.cap)
    }

    /// Re-folds the internal nodes above leaves `[lo, hi)` level by level,
    /// stopping at the first level where no node changed.
    fn refresh(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let (mut l, mut r) = (self.cap + lo, self.cap + hi - 1);
        while l > 1 {
            l /= 2;
            r /= 2;
            let mut changed = false;
            for i in l..=r {
                let new = join(self.tree[2 * i], self.tree[2 * i + 1]);
                if new != self.tree[i] {
                    self.tree[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Marks the leaves of chunks `[lo, hi)` stale, widening the pending
    /// range to cover them.
    #[inline]
    fn defer(&mut self, lo: usize, hi: usize) {
        self.pending = (self.pending.0.min(lo), self.pending.1.max(hi));
    }

    /// Re-folds the pending leaves and refreshes the tree above them once;
    /// a no-op when nothing is pending.
    fn settle(&mut self) {
        let (lo, hi) = std::mem::replace(&mut self.pending, SETTLED);
        if lo >= hi {
            return;
        }
        for c in lo..hi {
            self.tree[self.cap + c] = extrema(&self.chunks[c]);
        }
        self.refresh(lo, hi);
    }

    /// Lays the tree out afresh with `cap` leaves, copying (not re-folding)
    /// the current leaves. Only called when the capacity must change.
    fn relayout(&mut self, cap: usize) {
        let n = self.chunks.len();
        self.tree = tree_over(cap, self.tree[self.cap..self.cap + n].iter().copied());
        self.cap = cap;
    }

    /// Removes chunk `c`, shifting the leaves of the later chunks left by
    /// one; returns its points and leaf. The caller refreshes the internal
    /// nodes above the old leaf range `[c, old_len)`.
    fn remove_chunk(&mut self, c: usize) -> (Vec<(f64, f64)>, (f64, f64)) {
        debug_assert!(
            self.pending.0 >= self.pending.1,
            "leaves must settle before a structural change"
        );
        let n = self.chunks.len();
        let leaf = self.cap + c;
        let ext = self.tree[leaf];
        self.tree.copy_within(leaf + 1..self.cap + n, leaf);
        self.tree[self.cap + n - 1] = NEUTRAL;
        self.first_x.remove(c);
        (self.chunks.remove(c), ext)
    }

    // ---- queries ------------------------------------------------------

    /// Returns the value of the function at time `t`.
    ///
    /// Times before the first breakpoint evaluate to the first segment value.
    pub fn value_at(&self, t: f64) -> f64 {
        self.point(self.locate(t)).1
    }

    /// Returns the value of the last (rightmost) segment, i.e. `f(+∞)`.
    pub fn final_value(&self) -> f64 {
        let ch = self.chunks.last().expect("staircase always has a segment");
        ch.last().expect("chunks are never empty").1
    }

    /// Returns the maximum of the function over `[0, +∞)`.
    pub fn max_value(&self) -> f64 {
        self.tree[1].1
    }

    /// Returns the maximum of the function over `[t1, t2)`.
    ///
    /// Returns `-∞` if the interval is empty.
    pub fn max_over(&self, t1: f64, t2: f64) -> f64 {
        if t2 <= t1 + EPSILON {
            return f64::NEG_INFINITY;
        }
        // First segment whose end reaches past t1: segment ends are the
        // breakpoints shifted by one, so this is the predecessor of the
        // boundary among breakpoint starts …
        let lo = self.pos_prev(self.pp(|x| x <= t1 + EPSILON));
        // … up to the last segment starting before t2.
        let hi = self.pp(|x| x < t2 - EPSILON);
        let lo = lo.min(hi);
        let mut acc = f64::NEG_INFINITY;
        for c in lo.chunk..=hi.chunk.min(self.chunks.len() - 1) {
            let pts = &self.chunks[c];
            let s = if c == lo.chunk { lo.idx } else { 0 };
            let e = if c == hi.chunk { hi.idx } else { pts.len() };
            for &(_, v) in &pts[s..e] {
                acc = acc.max(v);
            }
        }
        acc
    }

    /// Returns the minimum of the function over `[t, +∞)`.
    pub fn min_from(&self, t: f64) -> f64 {
        // The segments intersecting [t, +∞) form a suffix: everything from
        // the segment containing (or reaching past) t onwards.
        let first = self.pos_prev(self.pp(|x| x <= t + EPSILON));
        let first = first.min(self.pp(|x| x < t - EPSILON));
        let local = self.chunks[first.chunk][first.idx..]
            .iter()
            .fold(f64::INFINITY, |lo, &(_, v)| lo.min(v));
        local.min(self.chunks_from(first.chunk + 1).0)
    }

    /// Finds the earliest time `t ≥ t_min` such that `f(t') ≥ threshold` for
    /// **every** `t' ≥ t`. Returns `None` if no such time exists (the last
    /// segment is below the threshold).
    ///
    /// This is the availability form of the `task_mem_EST` / `comm_mem_EST`
    /// query of the MemHEFT / MemMinMin heuristics. Runs in
    /// `O(C + log(k/C))`: the tree locates the last chunk holding a value
    /// below the threshold, and the earliest sustained time is the end of
    /// that chunk's last violating segment.
    pub fn earliest_sustained_ge(&self, t_min: f64, threshold: f64) -> Option<f64> {
        let violates = |v: f64| !approx_ge(v, threshold);
        if violates(self.final_value()) {
            return None;
        }
        Some(self.after_last_violation(t_min.max(0.0), |(lo, _)| violates(lo), violates))
    }

    /// Finds the earliest time `t ≥ t_min` such that `f(t') ≤ threshold` for
    /// **every** `t' ≥ t`. Returns `None` if no such time exists (the last
    /// segment is above the threshold).
    ///
    /// This is the mirror of [`Staircase::earliest_sustained_ge`], used when
    /// the staircase tracks memory *usage* rather than *availability*; it
    /// descends the tree on the chunk maxima the same way.
    pub fn earliest_sustained_le(&self, t_min: f64, threshold: f64) -> Option<f64> {
        let violates = |v: f64| v > threshold + EPSILON;
        if violates(self.final_value()) {
            return None;
        }
        Some(self.after_last_violation(t_min.max(0.0), |(_, hi)| violates(hi), violates))
    }

    /// Shared tail of the sustained queries: the end of the last segment
    /// whose value `violates`, clamped to `t_min` (`t_min` itself when no
    /// segment violates). The final segment must not violate.
    fn after_last_violation(
        &self,
        t_min: f64,
        chunk_violates: impl Fn((f64, f64)) -> bool,
        violates: impl Fn(f64) -> bool,
    ) -> f64 {
        let Some(c) = self.last_failing_chunk(chunk_violates) else {
            return t_min;
        };
        let i = self.chunks[c]
            .iter()
            .rposition(|&(_, v)| violates(v))
            .expect("a violating chunk holds a violating value");
        // The violation ends at the next breakpoint, which exists because
        // the final segment satisfies the threshold.
        let end = self
            .point(self.normalize(Pos {
                chunk: c,
                idx: i + 1,
            }))
            .0;
        if end <= t_min + EPSILON {
            t_min
        } else {
            t_min.max(end)
        }
    }

    // ---- mutations ----------------------------------------------------

    /// Opens a mutation batch: the leaves and tree of every chunk its
    /// mutations touch are repaired once, when the batch is dropped (see
    /// [`StaircaseBatch`]).
    pub fn batch(&mut self) -> StaircaseBatch<'_> {
        StaircaseBatch { stair: self }
    }

    /// Adds `delta` to the function on `[t, +∞)`.
    pub fn add_from(&mut self, t: f64, delta: f64) {
        self.batch().add_from(t, delta);
    }

    /// Adds `delta` to the function on the half-open interval `[t1, t2)`.
    ///
    /// Does nothing if the interval is empty.
    pub fn add_range(&mut self, t1: f64, t2: f64, delta: f64) {
        self.batch().add_range(t1, t2, delta);
    }

    /// [`Staircase::add_from`] with the extrema repair left pending.
    fn deferred_add_from(&mut self, t: f64, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let t = t.max(0.0);
        let pos = self.ensure_breakpoint(t);
        for p in &mut self.chunks[pos.chunk][pos.idx..] {
            p.1 += delta;
        }
        for c in pos.chunk + 1..self.chunks.len() {
            for p in &mut self.chunks[c] {
                p.1 += delta;
            }
        }
        self.repair(pos, POS_INF);
    }

    /// [`Staircase::add_range`] with the extrema repair left pending.
    fn deferred_add_range(&mut self, t1: f64, t2: f64, delta: f64) {
        if delta == 0.0 || t2 <= t1 + EPSILON {
            return;
        }
        let t1 = t1.max(0.0);
        self.ensure_breakpoint(t1);
        let i2 = self.ensure_breakpoint(t2);
        // Inserting the t2 breakpoint may have split t1's chunk, so the
        // first position is re-derived; `t2 > t1 + EPSILON` guarantees the
        // second insert cannot become the "last breakpoint ≤ t1 + ε".
        let i1 = self.locate(t1);
        debug_assert!(i1 < i2);
        if i1.chunk == i2.chunk {
            for p in &mut self.chunks[i1.chunk][i1.idx..i2.idx] {
                p.1 += delta;
            }
        } else {
            for p in &mut self.chunks[i1.chunk][i1.idx..] {
                p.1 += delta;
            }
            for c in i1.chunk + 1..i2.chunk {
                for p in &mut self.chunks[c] {
                    p.1 += delta;
                }
            }
            for p in &mut self.chunks[i2.chunk][..i2.idx] {
                p.1 += delta;
            }
        }
        self.repair(i1, i2);
    }

    /// Ensures a breakpoint exists exactly at `t` and returns its position.
    fn ensure_breakpoint(&mut self, t: f64) -> Pos {
        let pos = self.locate(t);
        let (x, v) = self.point(pos);
        if approx_eq(x, t) {
            return pos;
        }
        if x > t {
            // t is before the very first breakpoint (only possible for t < 0,
            // already clamped by callers); insert at front.
            return self.insert_point(0, 0, (t, v));
        }
        self.insert_point(pos.chunk, pos.idx + 1, (t, v))
    }

    /// Inserts a breakpoint at in-chunk index `i` of chunk `c` (`i` may be
    /// `len`, appending), splitting the chunk first when it is full. The
    /// new point repeats its predecessor's value, so no extrema change.
    fn insert_point(&mut self, c: usize, i: usize, pt: (f64, f64)) -> Pos {
        let (c, i) = if self.chunks[c].len() == CHUNK_CAP {
            self.split_chunk(c);
            if i <= CHUNK_MID {
                (c, i)
            } else {
                (c + 1, i - CHUNK_MID)
            }
        } else {
            (c, i)
        };
        self.chunks[c].insert(i, pt);
        if i == 0 {
            self.first_x[c] = pt.0;
        }
        self.n += 1;
        Pos { chunk: c, idx: i }
    }

    /// Splits a full chunk in two at [`CHUNK_MID`], keeping `first_x` and
    /// the tree immediately consistent: the pending leaves settle, both
    /// halves are re-folded and the leaves to their right shift by one (the
    /// tree grows first when full).
    fn split_chunk(&mut self, c: usize) {
        self.settle();
        let n = self.chunks.len();
        if n == self.cap {
            self.relayout(2 * self.cap);
        }
        let mut right = Vec::with_capacity(CHUNK_CAP);
        right.extend(self.chunks[c].drain(CHUNK_MID..));
        let leaf = self.cap + c;
        self.tree.copy_within(leaf + 1..self.cap + n, leaf + 2);
        self.tree[leaf] = extrema(&self.chunks[c]);
        self.tree[leaf + 1] = extrema(&right);
        self.first_x.insert(c + 1, right[0].0);
        self.chunks.insert(c + 1, right);
        self.refresh(c, n + 1);
    }

    /// Re-establishes the invariants after the values at positions
    /// `[dirty, changed_end)` changed (and breakpoints may have been
    /// inserted there): merges adjacent approx-equal segments — new merges
    /// can only appear at or after `dirty` — then re-folds the leaves of the
    /// touched chunks and updates the tree above them only while its nodes
    /// actually change. The scheduler's reserve/release pattern mutates
    /// near the end of the horizon, so the repaired region is typically a
    /// chunk or two.
    fn repair(&mut self, dirty: Pos, changed_end: Pos) {
        // --- merge pass over the modified region -----------------------
        // The anchor breakpoint at x = 0 is never removed, so scanning
        // starts at global index max(dirty, 1). Each point is compared to
        // the last *kept* value; once the scan is past `changed_end` and
        // the previous point survived with its original value, every
        // comparison that follows reproduces a pre-mutation adjacent pair,
        // so the scan can stop — identical decisions to a full-tail pass.
        let origin = Pos { chunk: 0, idx: 0 };
        let scan = if dirty == origin {
            self.normalize(Pos { chunk: 0, idx: 1 })
        } else {
            dirty
        };
        // Chunk holding the last value-modified point: its extrema need a
        // re-fold even if the merge scan stops early inside it.
        let value_hi_chunk = if changed_end == POS_INF {
            self.chunks.len() - 1
        } else {
            self.pos_prev(changed_end).chunk
        };
        let mut prev_val = self.point(self.pos_prev(scan)).1;
        let mut last_was_kept = true;
        let mut past_boundary = false;
        let mut last_touched_chunk = dirty.chunk;
        let mut any_emptied = false;
        let nchunks = self.chunks.len();
        'scan: for c in scan.chunk..nchunks {
            let from = if c == scan.chunk { scan.idx } else { 0 };
            let len_c = self.chunks[c].len();
            if from >= len_c {
                // Only possible for the scan chunk when it is the global
                // end position (nothing to the right of the mutation).
                continue;
            }
            if past_boundary && last_was_kept && from == 0 {
                break 'scan;
            }
            let mut kept = from;
            for i in from..len_c {
                if past_boundary && last_was_kept {
                    // Everything from here on is kept verbatim.
                    if kept < i {
                        let pts = &mut self.chunks[c];
                        pts.copy_within(i..len_c, kept);
                        pts.truncate(kept + (len_c - i));
                        self.n -= i - kept;
                        last_touched_chunk = c;
                    }
                    break 'scan;
                }
                let here = Pos { chunk: c, idx: i };
                if here >= changed_end {
                    past_boundary = true;
                }
                let (x, v) = self.chunks[c][i];
                if approx_eq(prev_val, v) {
                    last_was_kept = false;
                } else {
                    if kept != i {
                        self.chunks[c][kept] = (x, v);
                    }
                    kept += 1;
                    prev_val = v;
                    last_was_kept = true;
                }
            }
            if kept < len_c {
                self.chunks[c].truncate(kept);
                self.n -= len_c - kept;
            }
            last_touched_chunk = c;
            if kept == 0 {
                any_emptied = true;
            }
        }

        // --- derived data ----------------------------------------------
        // The next mutation's breakpoint search reads `first_x`, so it is
        // kept exact now; the touched leaves and the tree above them wait
        // for `settle` (the end of the batch).
        let mut hi = last_touched_chunk.max(value_hi_chunk);
        for c in dirty.chunk..=hi {
            if let Some(&(x, _)) = self.chunks[c].first() {
                self.first_x[c] = x;
            }
        }
        self.defer(dirty.chunk, hi + 1);
        let old_len = self.chunks.len();

        // --- structural maintenance (rare): drop empties, merge sparse --
        // Both shift the leaves right of the change, so they settle the
        // pending leaves first; chunk 0 keeps the anchor breakpoint, so it
        // is never emptied and `hi` never wraps.
        if any_emptied {
            self.settle();
            let mut c = dirty.chunk;
            while c <= hi {
                if self.chunks[c].is_empty() {
                    self.remove_chunk(c);
                    hi -= 1;
                } else {
                    c += 1;
                }
            }
        }
        let mut c = dirty.chunk;
        while c <= hi && c + 1 < self.chunks.len() {
            let len_c = self.chunks[c].len();
            if len_c < CHUNK_MIN && len_c + self.chunks[c + 1].len() <= MERGE_MAX {
                self.settle();
                let (right, ext) = self.remove_chunk(c + 1);
                self.chunks[c].extend(right);
                self.tree[self.cap + c] = join(self.tree[self.cap + c], ext);
                if c < hi {
                    hi -= 1;
                }
                // The merged chunk may still be sparse; retry it.
                continue;
            }
            c += 1;
        }

        let len = self.chunks.len();
        if len == old_len {
            return;
        }
        if 4 * len <= self.cap {
            self.relayout((2 * len).next_power_of_two());
        } else {
            self.refresh(dirty.chunk, old_len);
        }
    }

    /// Debug-only consistency check of every derived index against a
    /// from-scratch rebuild; used by the test suite.
    #[cfg(test)]
    fn check_invariants(&self) {
        let nchunks = self.chunks.len();
        assert!(nchunks > 0);
        assert_eq!(self.first_x.len(), nchunks);
        assert!(
            self.cap.is_power_of_two(),
            "cap {} not a power of two",
            self.cap
        );
        assert!(
            nchunks <= self.cap && self.cap < 4 * nchunks,
            "cap {} out of range for {nchunks} chunks",
            self.cap
        );
        assert_eq!(self.tree.len(), 2 * self.cap);
        assert!(
            self.pending.0 >= self.pending.1,
            "leaves {:?} still pending",
            self.pending
        );
        let mut count = 0;
        let mut prev_x = f64::NEG_INFINITY;
        for (c, ch) in self.chunks.iter().enumerate() {
            assert!(!ch.is_empty(), "empty chunk {c}");
            assert!(ch.len() <= CHUNK_CAP, "oversized chunk {c}");
            assert_eq!(self.first_x[c], ch[0].0, "first_x, chunk {c}");
            assert_eq!(self.tree[self.cap + c], extrema(ch), "leaf of chunk {c}");
            for &(x, _) in ch {
                assert!(x > prev_x, "breakpoints not strictly increasing");
                prev_x = x;
                count += 1;
            }
        }
        for c in nchunks..self.cap {
            assert_eq!(self.tree[self.cap + c], NEUTRAL, "padding leaf {c}");
        }
        for i in 1..self.cap {
            let want = join(self.tree[2 * i], self.tree[2 * i + 1]);
            assert_eq!(self.tree[i], want, "tree node {i}");
        }
        assert_eq!(self.n, count, "cached breakpoint count");
    }
}

/// A batch of mutations on one [`Staircase`], opened by
/// [`Staircase::batch`].
///
/// Each [`add_from`](StaircaseBatch::add_from) /
/// [`add_range`](StaircaseBatch::add_range) applies at once: breakpoint
/// insertion, the float additions and the merge scan run exactly as in the
/// single-call methods, in call order. Only the derived (min, max) leaves of
/// the touched chunks and the tree above them wait; dropping the batch
/// re-folds them and refreshes the tree once. A chunk split, sparse merge or
/// emptied chunk settles the pending leaves first. The batch borrows the
/// staircase mutably, so no query can run while leaves are pending.
#[must_use = "a batch does nothing unless mutations are applied through it"]
#[derive(Debug)]
pub struct StaircaseBatch<'a> {
    stair: &'a mut Staircase,
}

impl StaircaseBatch<'_> {
    /// Adds `delta` to the function on `[t, +∞)`.
    pub fn add_from(&mut self, t: f64, delta: f64) {
        self.stair.deferred_add_from(t, delta);
    }

    /// Adds `delta` to the function on the half-open interval `[t1, t2)`.
    ///
    /// Does nothing if the interval is empty.
    pub fn add_range(&mut self, t1: f64, t2: f64, delta: f64) {
        self.stair.deferred_add_range(t1, t2, delta);
    }
}

impl Drop for StaircaseBatch<'_> {
    fn drop(&mut self) {
        self.stair.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::approx_eq;

    #[test]
    fn constant_everywhere() {
        let s = Staircase::constant(10.0);
        assert_eq!(s.value_at(0.0), 10.0);
        assert_eq!(s.value_at(123.0), 10.0);
        assert_eq!(s.min_from(0.0), 10.0);
        assert_eq!(s.max_value(), 10.0);
        assert_eq!(s.final_value(), 10.0);
    }

    #[test]
    fn add_from_splits_segment() {
        let mut s = Staircase::constant(10.0);
        s.add_from(5.0, -3.0);
        assert_eq!(s.value_at(0.0), 10.0);
        assert_eq!(s.value_at(4.999), 10.0);
        assert_eq!(s.value_at(5.0), 7.0);
        assert_eq!(s.value_at(100.0), 7.0);
        assert_eq!(s.min_from(0.0), 7.0);
    }

    #[test]
    fn add_range_only_affects_interval() {
        let mut s = Staircase::constant(10.0);
        s.add_range(2.0, 6.0, -4.0);
        assert_eq!(s.value_at(1.0), 10.0);
        assert_eq!(s.value_at(2.0), 6.0);
        assert_eq!(s.value_at(5.9), 6.0);
        assert_eq!(s.value_at(6.0), 10.0);
        assert_eq!(s.final_value(), 10.0);
    }

    #[test]
    fn add_zero_is_noop() {
        let mut s = Staircase::constant(5.0);
        let before = s.clone();
        s.add_from(3.0, 0.0);
        s.add_range(1.0, 2.0, 0.0);
        assert_eq!(s, before);
    }

    #[test]
    fn empty_range_is_noop() {
        let mut s = Staircase::constant(5.0);
        let before = s.clone();
        s.add_range(4.0, 4.0, -2.0);
        s.add_range(5.0, 3.0, -2.0);
        assert_eq!(s, before);
    }

    #[test]
    fn overlapping_updates_accumulate() {
        let mut s = Staircase::constant(10.0);
        s.add_range(0.0, 10.0, -3.0);
        s.add_range(5.0, 15.0, -3.0);
        assert_eq!(s.value_at(2.0), 7.0);
        assert_eq!(s.value_at(7.0), 4.0);
        assert_eq!(s.value_at(12.0), 7.0);
        assert_eq!(s.value_at(20.0), 10.0);
        assert_eq!(s.min_from(0.0), 4.0);
    }

    #[test]
    fn release_cancels_reservation() {
        let mut s = Staircase::constant(8.0);
        s.add_from(3.0, -5.0);
        s.add_from(3.0, 5.0);
        assert_eq!(s.len(), 1, "normalization should merge equal segments");
        assert_eq!(s.value_at(4.0), 8.0);
    }

    #[test]
    fn min_from_covers_the_suffix() {
        let mut s = Staircase::constant(10.0);
        s.add_range(2.0, 4.0, -6.0); // dip to 4 on [2,4)
        s.add_from(8.0, -1.0); // 9 from 8 on
        assert_eq!(s.min_from(0.0), 4.0);
        assert_eq!(s.min_from(4.0), 9.0);
        assert_eq!(s.min_from(3.0), 4.0);
        assert_eq!(s.min_from(100.0), 9.0);
    }

    #[test]
    fn earliest_sustained_simple() {
        let s = Staircase::constant(10.0);
        assert_eq!(s.earliest_sustained_ge(0.0, 5.0), Some(0.0));
        assert_eq!(s.earliest_sustained_ge(7.0, 5.0), Some(7.0));
        assert_eq!(s.earliest_sustained_ge(0.0, 20.0), None);
    }

    #[test]
    fn earliest_sustained_waits_for_release() {
        let mut s = Staircase::constant(10.0);
        // 4 units busy until t=6.
        s.add_range(0.0, 6.0, -4.0);
        // Need 8 units forever: must wait until t=6.
        assert_eq!(s.earliest_sustained_ge(0.0, 8.0), Some(6.0));
        // Need 6 units: available right away.
        assert_eq!(s.earliest_sustained_ge(0.0, 6.0), Some(0.0));
        // t_min after the dip.
        assert_eq!(s.earliest_sustained_ge(7.0, 8.0), Some(7.0));
    }

    #[test]
    fn earliest_sustained_ignores_future_dips_only_if_threshold_met() {
        let mut s = Staircase::constant(10.0);
        s.add_range(5.0, 8.0, -7.0); // dip to 3 on [5,8)
                                     // Threshold 5 cannot be sustained from t=0; must wait until t=8.
        assert_eq!(s.earliest_sustained_ge(0.0, 5.0), Some(8.0));
        // Threshold 2 is fine from the start.
        assert_eq!(s.earliest_sustained_ge(0.0, 2.0), Some(0.0));
    }

    #[test]
    fn earliest_sustained_infeasible_final_segment() {
        let mut s = Staircase::constant(10.0);
        s.add_from(4.0, -9.0); // 1 unit forever after t=4
        assert_eq!(s.earliest_sustained_ge(0.0, 5.0), None);
    }

    #[test]
    fn max_value_and_max_over() {
        let mut s = Staircase::constant(0.0);
        s.add_range(2.0, 5.0, 7.0);
        s.add_from(10.0, 3.0);
        assert_eq!(s.max_value(), 7.0);
        assert_eq!(s.max_over(0.0, 2.0), 0.0);
        assert_eq!(s.max_over(1.0, 3.0), 7.0);
        assert_eq!(s.max_over(6.0, 20.0), 3.0);
        assert_eq!(s.max_over(4.0, 4.0), f64::NEG_INFINITY);
    }

    #[test]
    fn earliest_sustained_le_usage_profile() {
        // Usage profile: 8 units in use until t=6, then 2 units forever.
        let mut used = Staircase::constant(2.0);
        used.add_range(0.0, 6.0, 6.0);
        // Capacity 10, need 4 more => usage must stay <= 6: wait until t=6.
        assert_eq!(used.earliest_sustained_le(0.0, 6.0), Some(6.0));
        // Need only 2 more (threshold 8): fine immediately.
        assert_eq!(used.earliest_sustained_le(0.0, 8.0), Some(0.0));
        // Impossible threshold below the final value.
        assert_eq!(used.earliest_sustained_le(0.0, 1.0), None);
        // t_min beyond the violation.
        assert_eq!(used.earliest_sustained_le(7.0, 6.0), Some(7.0));
    }

    #[test]
    fn value_before_zero_clamps() {
        let s = Staircase::constant(3.0);
        assert_eq!(s.value_at(-1.0), 3.0);
    }

    #[test]
    fn normalization_keeps_function_identical() {
        let mut s = Staircase::constant(20.0);
        s.add_range(1.0, 3.0, -5.0);
        s.add_range(3.0, 6.0, -5.0);
        // Adjacent identical-value segments should have been merged.
        assert!(s.len() <= 3);
        assert!(approx_eq(s.value_at(2.0), 15.0));
        assert!(approx_eq(s.value_at(4.0), 15.0));
        assert!(approx_eq(s.value_at(6.0), 20.0));
    }

    // ---- edge cases around step boundaries and degenerate windows ----

    /// A staircase with steps at 2, 5 and 9: 1 on [0,2), 6 on [2,5),
    /// 3 on [5,9), 4 on [9,∞).
    fn stepped() -> Staircase {
        let mut s = Staircase::constant(1.0);
        s.add_range(2.0, 5.0, 5.0);
        s.add_range(5.0, 9.0, 2.0);
        s.add_from(9.0, 3.0);
        s
    }

    #[test]
    fn queries_exactly_on_step_boundaries() {
        let s = stepped();
        // value_at on every breakpoint takes the segment starting there.
        assert_eq!(s.value_at(2.0), 6.0);
        assert_eq!(s.value_at(5.0), 3.0);
        assert_eq!(s.value_at(9.0), 4.0);
        // A window [2, 5) sees only the 6-segment.
        assert_eq!(s.max_over(2.0, 5.0), 6.0);
        // A window ending exactly at a step start excludes that step.
        assert_eq!(s.max_over(0.0, 2.0), 1.0);
        // A window starting exactly at a step end excludes the step before.
        assert_eq!(s.max_over(5.0, 9.0), 3.0);
        // Windows spanning a boundary see both sides.
        assert_eq!(s.max_over(4.0, 6.0), 6.0);
        assert_eq!(s.max_over(8.0, 10.0), 4.0);
    }

    #[test]
    fn degenerate_windows_are_empty() {
        let s = stepped();
        for t in [0.0, 2.0, 5.0, 9.0, 100.0] {
            assert_eq!(s.max_over(t, t), f64::NEG_INFINITY);
        }
        // Reversed windows are empty too.
        assert_eq!(s.max_over(5.0, 2.0), f64::NEG_INFINITY);
    }

    #[test]
    fn queries_before_the_first_step() {
        let s = stepped();
        assert_eq!(s.value_at(-3.0), 1.0);
        assert_eq!(s.min_from(-3.0), 1.0);
        assert_eq!(s.max_over(-5.0, 1.0), 1.0);
        assert_eq!(s.earliest_sustained_ge(-2.0, 0.5), Some(0.0));
        assert_eq!(s.earliest_sustained_le(-2.0, 10.0), Some(0.0));
    }

    #[test]
    fn min_from_exactly_on_boundaries() {
        let s = stepped();
        // From a breakpoint: the segment starting there counts, the one
        // ending there does not.
        assert_eq!(s.min_from(2.0), 3.0); // min(6, 3, 4)
        assert_eq!(s.min_from(5.0), 3.0);
        assert_eq!(s.min_from(9.0), 4.0);
        // Strictly inside a segment, that segment still counts.
        assert_eq!(s.min_from(4.5), 3.0);
        assert_eq!(s.min_from(8.9), 3.0);
    }

    #[test]
    fn earliest_sustained_on_boundaries() {
        let s = stepped();
        // Threshold 4: violated by the 1- and 3-segments; the last violation
        // is [5, 9), so the earliest sustained time is exactly 9.
        assert_eq!(s.earliest_sustained_ge(0.0, 4.0), Some(9.0));
        // t_min exactly at the sustained point.
        assert_eq!(s.earliest_sustained_ge(9.0, 4.0), Some(9.0));
        // t_min past it.
        assert_eq!(s.earliest_sustained_ge(11.0, 4.0), Some(11.0));
        // Usage view: stay ≤ 3 fails on [2,5) and forever after 9 → None.
        assert_eq!(s.earliest_sustained_le(0.0, 3.0), None);
        // Stay ≤ 5: last violation is [2,5) → sustained from 5.
        assert_eq!(s.earliest_sustained_le(0.0, 5.0), Some(5.0));
        assert_eq!(s.earliest_sustained_le(5.0, 5.0), Some(5.0));
    }

    #[test]
    fn repair_keeps_index_in_sync() {
        // Deterministic mutation storm mixing early/late, positive/negative
        // updates (including ones that merge whole tails away); after every
        // mutation the incremental index must match a from-scratch rebuild.
        let mut s = Staircase::constant(10.0);
        let mut t = 1.0f64;
        for i in 0..400 {
            match i % 5 {
                0 => s.add_from(t, 2.0),
                1 => s.add_range(t * 0.5, t + 2.0, -1.5),
                2 => s.add_from(t * 0.25, -0.5),
                3 => s.add_from(t, -2.0), // cancels case 0 → tail merges
                _ => s.add_range(0.0, t, 1.0),
            }
            t += 0.7 + (i % 4) as f64 * 0.3;
            s.check_invariants();
            let points: Vec<(f64, f64)> = s.breakpoints().collect();
            let full_min = points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            let full_max = points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(s.min_from(0.0), full_min, "min index diverged at step {i}");
            assert_eq!(s.max_value(), full_max, "max index diverged at step {i}");
            // Spot-check a suffix query against the definition.
            let mid = points[points.len() / 2].0;
            let linear: f64 = points
                .iter()
                .enumerate()
                .filter(|&(j, &(x, _))| {
                    let end = points.get(j + 1).map(|&(nx, _)| nx);
                    x >= mid - EPSILON || end.map(|e| e > mid + EPSILON).unwrap_or(true)
                })
                .map(|(_, &(_, v))| v)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(s.min_from(mid), linear, "min_from diverged at step {i}");
        }
    }

    #[test]
    fn suffix_index_matches_linear_scan() {
        // Randomized-ish cross-check of the indexed queries against the
        // obvious linear-scan definitions, across many breakpoints.
        let mut s = Staircase::constant(50.0);
        let mut x = 0.5f64;
        for i in 0..60 {
            let delta = if i % 2 == 0 { -3.0 } else { 2.0 };
            s.add_range(x, x + 1.5, delta);
            x += 1.0 + (i % 3) as f64 * 0.5;
        }
        let points: Vec<(f64, f64)> = s.breakpoints().collect();
        let linear_min_from = |t: f64| {
            let mut min = f64::INFINITY;
            for (i, &(px, v)) in points.iter().enumerate() {
                let end = points.get(i + 1).map(|&(nx, _)| nx);
                let reaches = match end {
                    Some(e) => e > t + EPSILON,
                    None => true,
                };
                if px >= t - EPSILON || reaches {
                    min = min.min(v);
                }
            }
            min
        };
        for t in [-1.0, 0.0, 0.5, 3.25, 17.0, 40.0, 1000.0] {
            assert_eq!(s.min_from(t), linear_min_from(t), "min_from({t})");
        }
        for thr in [20.0, 35.0, 49.0, 50.0, 60.0] {
            for t_min in [0.0, 5.0, 33.0] {
                // The sustained point, if any, must satisfy the definition.
                if let Some(t) = s.earliest_sustained_ge(t_min, thr) {
                    assert!(t >= t_min);
                    assert!(linear_min_from(t) >= thr - 1e-9, "ge({t_min}, {thr})");
                    // And nothing strictly earlier (by more than one segment
                    // boundary) works: just before t there is a violation,
                    // unless t == t_min.
                    if t > t_min + EPSILON {
                        assert!(s.value_at(t - 1e-6) < thr, "not tight at {t}");
                    }
                } else {
                    assert!(s.final_value() < thr);
                }
            }
        }
    }

    // ---- chunked storage vs the historical flat implementation ----

    /// Verbatim re-implementation of the pre-chunking flat `Vec` storage,
    /// kept as the behavioural oracle: the chunked staircase must produce
    /// bit-identical breakpoints and query answers for any operation
    /// sequence.
    #[derive(Clone)]
    struct FlatOracle {
        points: Vec<(f64, f64)>,
        suffix: Vec<(f64, f64)>,
    }

    impl FlatOracle {
        fn constant(value: f64) -> Self {
            FlatOracle {
                points: vec![(0.0, value)],
                suffix: vec![(value, value)],
            }
        }

        fn seg_index(&self, t: f64) -> usize {
            self.points
                .partition_point(|&(x, _)| x <= t + EPSILON)
                .saturating_sub(1)
        }

        fn seg_end(&self, i: usize) -> f64 {
            self.points
                .get(i + 1)
                .map(|&(x, _)| x)
                .unwrap_or(f64::INFINITY)
        }

        fn value_at(&self, t: f64) -> f64 {
            self.points[self.seg_index(t)].1
        }

        fn final_value(&self) -> f64 {
            self.points.last().unwrap().1
        }

        fn window_range(&self, t1: f64, t2: f64) -> (usize, usize) {
            let lo = self.points[1..].partition_point(|&(x, _)| x <= t1 + EPSILON);
            let hi = self.points.partition_point(|&(x, _)| x < t2 - EPSILON);
            (lo, hi)
        }

        fn max_over(&self, t1: f64, t2: f64) -> f64 {
            if t2 <= t1 + EPSILON {
                return f64::NEG_INFINITY;
            }
            let (lo, hi) = self.window_range(t1, t2);
            self.points[lo.min(hi)..hi]
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max)
        }

        fn min_from(&self, t: f64) -> f64 {
            let shifted = &self.points[1..];
            let first = shifted.partition_point(|&(x, _)| x <= t + EPSILON);
            let first = first.min(self.points.partition_point(|&(x, _)| x < t - EPSILON));
            self.suffix[first].0
        }

        fn earliest_sustained_ge(&self, t_min: f64, threshold: f64) -> Option<f64> {
            let t_min = t_min.max(0.0);
            if !approx_ge(self.final_value(), threshold) {
                return None;
            }
            let first_ok = self
                .suffix
                .partition_point(|&(lo, _)| !approx_ge(lo, threshold));
            if first_ok == 0 {
                return Some(t_min);
            }
            let end = self.seg_end(first_ok - 1);
            if end <= t_min + EPSILON {
                Some(t_min)
            } else {
                Some(t_min.max(end))
            }
        }

        fn earliest_sustained_le(&self, t_min: f64, threshold: f64) -> Option<f64> {
            let t_min = t_min.max(0.0);
            if self.final_value() > threshold + EPSILON {
                return None;
            }
            let first_ok = self
                .suffix
                .partition_point(|&(_, hi)| hi > threshold + EPSILON);
            if first_ok == 0 {
                return Some(t_min);
            }
            let end = self.seg_end(first_ok - 1);
            if end <= t_min + EPSILON {
                Some(t_min)
            } else {
                Some(t_min.max(end))
            }
        }

        fn add_from(&mut self, t: f64, delta: f64) {
            if delta == 0.0 {
                return;
            }
            let t = t.max(0.0);
            let idx = self.ensure_breakpoint(t);
            for p in &mut self.points[idx..] {
                p.1 += delta;
            }
            self.repair(idx);
        }

        fn add_range(&mut self, t1: f64, t2: f64, delta: f64) {
            if delta == 0.0 || t2 <= t1 + EPSILON {
                return;
            }
            let t1 = t1.max(0.0);
            let i1 = self.ensure_breakpoint(t1);
            let i2 = self.ensure_breakpoint(t2);
            debug_assert!(i1 < i2);
            for p in &mut self.points[i1..i2] {
                p.1 += delta;
            }
            self.repair(i1);
        }

        fn ensure_breakpoint(&mut self, t: f64) -> usize {
            let pos = self.seg_index(t);
            if approx_eq(self.points[pos].0, t) {
                return pos;
            }
            if self.points[pos].0 > t {
                self.points.insert(0, (t, self.points[0].1));
                return 0;
            }
            let v = self.points[pos].1;
            self.points.insert(pos + 1, (t, v));
            pos + 1
        }

        fn repair(&mut self, dirty: usize) {
            let start = dirty.max(1);
            let mut kept = start;
            for i in start..self.points.len() {
                let (x, v) = self.points[i];
                if !approx_eq(self.points[kept - 1].1, v) {
                    self.points[kept] = (x, v);
                    kept += 1;
                }
            }
            self.points.truncate(kept);
            let n = self.points.len();
            self.suffix.resize(n, (0.0, 0.0));
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in (dirty.min(n)..n).rev() {
                let v = self.points[i].1;
                lo = lo.min(v);
                hi = hi.max(v);
                self.suffix[i] = (lo, hi);
            }
            for i in (0..dirty.min(n)).rev() {
                let v = self.points[i].1;
                let (next_lo, next_hi) = if i + 1 < n {
                    self.suffix[i + 1]
                } else {
                    (f64::INFINITY, f64::NEG_INFINITY)
                };
                let new = (v.min(next_lo), v.max(next_hi));
                if new == self.suffix[i] {
                    break;
                }
                self.suffix[i] = new;
            }
        }
    }

    /// Tiny deterministic PRNG (xorshift64*) for the oracle storms.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
    }

    /// Compares the chunked staircase against the flat oracle bit-for-bit:
    /// identical breakpoints and identical answers for every query family.
    fn assert_matches_oracle(s: &Staircase, o: &FlatOracle, step: usize) {
        s.check_invariants();
        let got: Vec<(f64, f64)> = s.breakpoints().collect();
        assert_eq!(
            got.len(),
            o.points.len(),
            "breakpoint count diverged at step {step}"
        );
        for (i, (g, w)) in got.iter().zip(o.points.iter()).enumerate() {
            assert!(
                g.0.to_bits() == w.0.to_bits() && g.1.to_bits() == w.1.to_bits(),
                "breakpoint {i} diverged at step {step}: {g:?} vs {w:?}"
            );
        }
        let horizon = got.last().unwrap().0 + 10.0;
        let mut probes = vec![-1.0, 0.0, horizon];
        for i in [0, got.len() / 3, got.len() / 2, got.len().saturating_sub(1)] {
            let x = got[i].0;
            probes.extend([x, x - 1e-6, x + 1e-6, x + 0.5]);
        }
        for &t in &probes {
            assert_eq!(
                s.value_at(t).to_bits(),
                o.value_at(t).to_bits(),
                "value_at({t}) diverged at step {step}"
            );
            assert_eq!(
                s.min_from(t).to_bits(),
                o.min_from(t).to_bits(),
                "min_from({t}) diverged at step {step}"
            );
        }
        for &t1 in &probes {
            let t2 = t1 + horizon / 3.0;
            assert_eq!(
                s.max_over(t1, t2).to_bits(),
                o.max_over(t1, t2).to_bits(),
                "max_over({t1},{t2}) diverged at step {step}"
            );
        }
        let lo = s.min_from(0.0);
        let hi = s.max_value();
        for thr in [lo - 1.0, lo, 0.5 * (lo + hi), hi, hi + 1.0] {
            for t_min in [0.0, horizon / 4.0, horizon] {
                assert_eq!(
                    s.earliest_sustained_ge(t_min, thr).map(f64::to_bits),
                    o.earliest_sustained_ge(t_min, thr).map(f64::to_bits),
                    "earliest_sustained_ge({t_min},{thr}) diverged at step {step}"
                );
                assert_eq!(
                    s.earliest_sustained_le(t_min, thr).map(f64::to_bits),
                    o.earliest_sustained_le(t_min, thr).map(f64::to_bits),
                    "earliest_sustained_le({t_min},{thr}) diverged at step {step}"
                );
            }
        }
    }

    /// Property-style storm: many randomized reserve/release mixes, each
    /// replayed against the flat oracle with bitwise comparison after every
    /// mutation. Grows staircases past several chunk splits and shrinks
    /// them back through merges.
    #[test]
    fn chunked_matches_flat_oracle_storm() {
        for seed in 1..=8u64 {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (seed << 17));
            let mut s = Staircase::constant(100.0);
            let mut o = FlatOracle::constant(100.0);
            // Phase 1: grow far past CHUNK_CAP so several splits happen.
            for step in 0..600 {
                let t1 = rng.f64_in(0.0, 500.0);
                let len = rng.f64_in(0.1, 40.0);
                let delta = rng.f64_in(-4.0, 4.0);
                match rng.next() % 4 {
                    0 => {
                        s.add_from(t1, delta);
                        o.add_from(t1, delta);
                    }
                    1 => {
                        s.add_range(t1, t1 + len, delta);
                        o.add_range(t1, t1 + len, delta);
                    }
                    2 => {
                        // Reserve/release pair at matching coordinates —
                        // the scheduler's dominant pattern.
                        s.add_range(t1, t1 + len, -delta.abs());
                        o.add_range(t1, t1 + len, -delta.abs());
                    }
                    _ => {
                        // Mutations at far-apart coordinates touch
                        // different chunks in one call.
                        s.add_range(t1 * 0.1, t1 + 400.0, delta);
                        o.add_range(t1 * 0.1, t1 + 400.0, delta);
                    }
                }
                if step % 7 == 0 {
                    assert_matches_oracle(&s, &o, step);
                }
            }
            assert!(
                s.len() > 3 * CHUNK_CAP,
                "storm must exercise multiple chunks (got {} points)",
                s.len()
            );
            assert_matches_oracle(&s, &o, 600);
            // Phase 2: level whole regions so tails merge away and sparse
            // chunks re-combine.
            for step in 0..60 {
                let t = rng.f64_in(0.0, 500.0);
                let v = s.value_at(t);
                s.add_from(t, 100.0 - v);
                o.add_from(t, 100.0 - v);
                assert_matches_oracle(&s, &o, 600 + step);
            }
            // Phase 3: short windows at the front of the horizon fill
            // chunk 0 until it splits, shifting every later leaf right.
            for step in 0..300 {
                let t1 = rng.f64_in(0.0, 10.0);
                let len = rng.f64_in(0.01, 0.5);
                let delta = rng.f64_in(-4.0, 4.0);
                s.add_range(t1, t1 + len, delta);
                o.add_range(t1, t1 + len, delta);
                if step % 5 == 0 {
                    assert_matches_oracle(&s, &o, 660 + step);
                }
            }
            let front = s.breakpoints().take_while(|&(x, _)| x < 10.5).count();
            assert!(
                front > 2 * CHUNK_CAP,
                "front phase must split chunk 0 (got {front} points)"
            );
            // Phase 4: level the front one breakpoint at a time, so chunk 0
            // drains and merges with its right neighbours, shifting every
            // later leaf left.
            let v0 = s.value_at(0.0);
            for step in 0.. {
                let Some((x, v)) = s.breakpoints().nth(1).filter(|&(x, _)| x < 10.5) else {
                    break;
                };
                s.add_from(x, v0 - v);
                o.add_from(x, v0 - v);
                assert_matches_oracle(&s, &o, 960 + step);
            }
        }
    }

    /// The storm's operations, applied to the chunked staircase through a
    /// batch and to the flat oracle one by one.
    #[derive(Clone, Copy)]
    enum Op {
        From(f64, f64),
        Range(f64, f64, f64),
    }

    /// Applies `ops` in batches of random size 1–40 and checks the chunked
    /// staircase against the flat oracle after every batch; returns the
    /// chunk counts seen after each batch.
    fn apply_in_batches(
        s: &mut Staircase,
        o: &mut FlatOracle,
        rng: &mut Rng,
        ops: &[Op],
    ) -> Vec<usize> {
        let mut counts = Vec::new();
        let mut rest = ops;
        while !rest.is_empty() {
            let k = (1 + rng.next() as usize % 40).min(rest.len());
            let (now, later) = rest.split_at(k);
            let mut batch = s.batch();
            for &op in now {
                match op {
                    Op::From(t, d) => {
                        batch.add_from(t, d);
                        o.add_from(t, d);
                    }
                    Op::Range(t1, t2, d) => {
                        batch.add_range(t1, t2, d);
                        o.add_range(t1, t2, d);
                    }
                }
            }
            drop(batch);
            assert_matches_oracle(s, o, ops.len() - later.len());
            counts.push(s.chunks.len());
            rest = later;
        }
        counts
    }

    /// Batched mutations are bit-identical to eager ones and to the flat
    /// oracle: the grow / level / front-split / front-drain phases of the
    /// storm above, applied in random batch sizes, so batches split chunks,
    /// merge sparse ones and empty others while leaves are pending.
    #[test]
    fn batched_mutations_match_flat_oracle() {
        for seed in 1..=6u64 {
            let mut rng = Rng(0xD1B5_4A32_D192_ED03 ^ (seed << 21));
            let mut s = Staircase::constant(100.0);
            let mut o = FlatOracle::constant(100.0);
            let mut eager = Staircase::constant(100.0);
            // Phase 1: grow through several chunk splits.
            let mut ops = Vec::new();
            for _ in 0..600 {
                let t1 = rng.f64_in(0.0, 500.0);
                let len = rng.f64_in(0.1, 40.0);
                let delta = rng.f64_in(-4.0, 4.0);
                ops.push(match rng.next() % 3 {
                    0 => Op::From(t1, delta),
                    1 => Op::Range(t1, t1 + len, -delta.abs()),
                    _ => Op::Range(t1 * 0.1, t1 + 400.0, delta),
                });
            }
            let grown = apply_in_batches(&mut s, &mut o, &mut rng, &ops);
            assert!(
                grown.windows(2).any(|w| w[1] > w[0]) && s.chunks.len() > 3,
                "growth must split chunks inside batches"
            );
            // The same operations applied eagerly give the same function.
            for &op in &ops {
                match op {
                    Op::From(t, d) => eager.add_from(t, d),
                    Op::Range(t1, t2, d) => eager.add_range(t1, t2, d),
                }
            }
            assert_eq!(s, eager, "batched and eager mutations diverged");
            // Phase 2: level whole regions, read off the oracle (a query on
            // `s` cannot run inside a batch), so tails merge away.
            let mut probe = o.clone();
            let mut level = Vec::new();
            for _ in 0..60 {
                let t = rng.f64_in(0.0, 500.0);
                let d = 100.0 - probe.value_at(t);
                level.push(Op::From(t, d));
                probe.add_from(t, d);
            }
            apply_in_batches(&mut s, &mut o, &mut rng, &level);
            // Phase 3: short windows at the front split chunk 0.
            let front: Vec<Op> = (0..300)
                .map(|_| {
                    let t1 = rng.f64_in(0.0, 10.0);
                    let len = rng.f64_in(0.01, 0.5);
                    Op::Range(t1, t1 + len, rng.f64_in(-4.0, 4.0))
                })
                .collect();
            let before = s.chunks.len();
            apply_in_batches(&mut s, &mut o, &mut rng, &front);
            assert!(s.chunks.len() > before, "front phase must split chunk 0");
            // Phase 4: undo the front windows newest first, so chunk 0's
            // region drains back through sparse merges and emptied chunks.
            let undo: Vec<Op> = front
                .iter()
                .rev()
                .map(|&op| match op {
                    Op::Range(t1, t2, d) => Op::Range(t1, t2, -d),
                    Op::From(t, d) => Op::From(t, -d),
                })
                .collect();
            let drained = apply_in_batches(&mut s, &mut o, &mut rng, &undo);
            assert!(
                drained.windows(2).any(|w| w[1] < w[0]),
                "draining must merge chunks inside batches"
            );
        }
    }

    /// A batch that levels a multi-chunk staircase back to a constant
    /// empties every chunk but the first while leaves are pending.
    #[test]
    fn batched_collapse_empties_chunks() {
        let mut rng = Rng(0x5851_F42D_4C95_7F2D);
        let mut s = Staircase::constant(5.0);
        let mut o = FlatOracle::constant(5.0);
        let steps: Vec<Op> = (0..4 * CHUNK_CAP)
            .map(|i| Op::From(1.0 + i as f64, if i % 2 == 0 { 2.0 } else { -2.0 }))
            .collect();
        apply_in_batches(&mut s, &mut o, &mut rng, &steps);
        assert!(s.chunks.len() > 3);
        let undo: Vec<Op> = steps
            .iter()
            .rev()
            .map(|&op| match op {
                Op::From(t, d) => Op::From(t, -d),
                Op::Range(t1, t2, d) => Op::Range(t1, t2, -d),
            })
            .collect();
        apply_in_batches(&mut s, &mut o, &mut rng, &undo);
        assert_eq!(s.len(), 1, "uniform staircase must merge to one segment");
        assert_eq!(s.chunks.len(), 1);
    }

    /// Exercises the exact split boundaries: inserting at the front, middle
    /// and back of a chunk that is exactly full, and the in-chunk index
    /// adjustment when the insertion lands in the right half.
    #[test]
    fn chunk_split_boundaries() {
        // Build exactly CHUNK_CAP breakpoints with a strictly alternating
        // value so no merges fire, then insert on both sides of the split.
        for &probe in &[0.5, CHUNK_MID as f64 + 0.5, CHUNK_CAP as f64 - 0.5] {
            let mut s = Staircase::constant(0.0);
            let mut o = FlatOracle::constant(0.0);
            for i in 1..CHUNK_CAP {
                let delta = if i % 2 == 0 { 1.0 } else { -1.0 };
                s.add_from(i as f64, delta);
                o.add_from(i as f64, delta);
            }
            assert_eq!(s.len(), CHUNK_CAP);
            s.add_from(probe, 10.0);
            o.add_from(probe, 10.0);
            assert_matches_oracle(&s, &o, 0);
        }
    }

    /// Levelling a long staircase back to a constant must collapse every
    /// chunk back into one segment (merge-on-sparse plus empty-chunk
    /// removal), leaving a consistent single-chunk representation.
    #[test]
    fn chunk_merge_collapses_to_constant() {
        let mut s = Staircase::constant(5.0);
        let mut o = FlatOracle::constant(5.0);
        for i in 0..(4 * CHUNK_CAP) {
            let delta = if i % 2 == 0 { 2.0 } else { -2.0 };
            s.add_from(1.0 + i as f64, delta);
            o.add_from(1.0 + i as f64, delta);
        }
        assert!(s.len() > 3 * CHUNK_CAP);
        // Undo every step in reverse order: each cancellation merges the
        // final two segments back together, draining whole chunks through
        // the sparse-merge and empty-chunk paths.
        for i in (0..(4 * CHUNK_CAP)).rev() {
            let delta = if i % 2 == 0 { -2.0 } else { 2.0 };
            s.add_from(1.0 + i as f64, delta);
            o.add_from(1.0 + i as f64, delta);
            if i % 16 == 0 {
                assert_matches_oracle(&s, &o, i);
            }
        }
        assert_matches_oracle(&s, &o, 0);
        assert_eq!(s.len(), 1, "uniform staircase must merge to one segment");
    }

    /// The relative component of `approx_eq` means a uniform shift to large
    /// magnitudes genuinely merges segments whose gap is below the *scaled*
    /// tolerance — the reason `add_from`/`add_range` apply deltas eagerly
    /// instead of keeping per-chunk lazy offsets (see the module docs).
    #[test]
    fn relative_epsilon_merges_after_uniform_shift() {
        let mut s = Staircase::constant(0.0);
        let mut o = FlatOracle::constant(0.0);
        // Two segments 2.0 apart: distinct at small magnitude.
        s.add_from(10.0, 2.0);
        o.add_from(10.0, 2.0);
        assert_eq!(s.len(), 2);
        // Shift everything to ~1e13: the gap of 2.0 is now inside the
        // relative tolerance (1e13 · 1e-9 = 1e4), so the segments merge.
        s.add_from(0.0, 1.0e13);
        o.add_from(0.0, 1.0e13);
        assert_matches_oracle(&s, &o, 0);
        assert_eq!(s.len(), 1, "relative tolerance must merge shifted segments");
    }
}

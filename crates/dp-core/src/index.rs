//! Per-partition spatial index for sub-quadratic local DP kernels.
//!
//! The blocked kernels in [`crate::distance`] evaluate every pair in a
//! partition (`O(n_p^2)`). This module builds a small spatial index over
//! the same flat row-major buffer and answers the queries local DP
//! actually needs, pruning whole regions by bounding-box distance:
//!
//! * [`SpatialIndex::range_count_d2`] — `rho` as a ball count at radius
//!   `d_c`, counting whole subtrees whose box is entirely inside the ball
//!   and skipping subtrees whose box cannot intersect it;
//! * [`SpatialIndex::for_each_within_d2`] — every point in the ball:
//!   cross-set counts ([`crate::block`]), the halo, and the serve-side
//!   exact recount;
//! * [`SpatialIndex::nearest_denser_d2`] — `delta` as a best-first
//!   nearest-neighbor search over a caller-supplied candidate filter,
//!   seeded by each point's predecessor in the descending-`rho` order (as
//!   [`crate::dp`]'s indexed branch does);
//! * [`SpatialIndex::max_distance`] — the absolute-peak `delta`
//!   (distance to the farthest point).
//!
//! Two representations back the same API: a kd-tree (any dimension) and a
//! uniform-grid fast path for `dim <= 3` when the data span makes cells
//! affordable. Selection is automatic at build time.
//!
//! ## Bit-identity contract
//!
//! Results are **bit-identical** to the blocked kernels, not merely close:
//!
//! * Box bounds accumulate per-dimension terms in the same order as
//!   [`squared_euclidean`], and every per-op rounding (subtract, square,
//!   add, sqrt) is monotone, so the computed `lb2 <= d2 <= ub2` holds for
//!   every point in a box *in floating point*, not just in the reals.
//!   Pruning on `lb2 >= dc2` (or counting a whole subtree on `ub2 < dc2`)
//!   therefore never flips a strict `d2 < dc2` test.
//! * Nearest searches compare on exactly the value the blocked code
//!   compares on (`d2.sqrt()` for the pipelines, raw `d2` for the serve
//!   probe) and break ties toward the smaller candidate id; regions are
//!   pruned only when their lower bound *strictly* exceeds the current
//!   best, so an equal-distance smaller-id candidate is never lost.
//! * The tree layout is a pure function of the input (median split on the
//!   widest box dimension with a total-order + index tie-break), so the
//!   work-stealing parallel build is bit-identical across thread counts,
//!   and every traversal visits candidates in a deterministic order.

use crate::distance::squared_euclidean;
use crate::point::PointId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Below this partition size, [`KernelStrategy::Auto`] keeps the blocked
/// kernels: the index build cost is not worth amortizing, and tiny
/// partitions are exactly where the blocked loops are fastest.
pub const AUTO_MIN_POINTS: usize = 256;

/// Which local-kernel implementation the pipelines use, and which branch
/// [`crate::dp::compute_exact`] and [`crate::decision::compute_halo`] take.
///
/// Carried on `PipelineConfig`; the `LSHDDP_KERNEL` environment variable
/// overrides it at run start (see [`KernelStrategy::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum KernelStrategy {
    /// Always the blocked `O(n_p^2)` pair loops.
    Blocked,
    /// Always the spatial-index kernels, regardless of partition size.
    Indexed,
    /// Indexed for partitions with at least [`AUTO_MIN_POINTS`] points,
    /// blocked below that.
    #[default]
    Auto,
}

impl KernelStrategy {
    /// Applies the `LSHDDP_KERNEL` environment override, if set to a
    /// recognized value (`blocked` | `indexed` | `auto`). Unrecognized
    /// values are ignored and `self` stands.
    pub fn resolve(self) -> Self {
        Self::resolved_with(self, std::env::var("LSHDDP_KERNEL").ok().as_deref())
    }

    fn resolved_with(self, var: Option<&str>) -> Self {
        match var.and_then(|s| s.parse().ok()) {
            Some(s) => s,
            None => self,
        }
    }

    /// Whether a partition of `n` points should take the indexed path.
    pub fn use_indexed(self, n: usize) -> bool {
        match self {
            KernelStrategy::Blocked => false,
            KernelStrategy::Indexed => true,
            KernelStrategy::Auto => n >= AUTO_MIN_POINTS,
        }
    }
}

impl std::str::FromStr for KernelStrategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "blocked" => Ok(KernelStrategy::Blocked),
            "indexed" => Ok(KernelStrategy::Indexed),
            "auto" => Ok(KernelStrategy::Auto),
            other => Err(format!(
                "unknown kernel strategy {other:?} (blocked|indexed|auto)"
            )),
        }
    }
}

impl std::fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelStrategy::Blocked => "blocked",
            KernelStrategy::Indexed => "indexed",
            KernelStrategy::Auto => "auto",
        })
    }
}

// ---------------------------------------------------------------------
// kd-tree
// ---------------------------------------------------------------------

/// Max points per kd leaf. Small enough to prune tightly, large enough
/// that leaf scans stay in the blocked kernels' sweet spot.
const LEAF: usize = 16;

/// Subtrees at least this large build their children via `rayon::join`.
const PAR_BUILD_MIN: usize = 4096;

/// Nodes in a subtree over `n` points under the fixed split rule.
fn node_count(n: usize) -> usize {
    if n <= LEAF {
        1
    } else {
        1 + node_count(n / 2) + node_count(n - n / 2)
    }
}

/// A kd-tree over point *indices* into the caller's flat buffer. The
/// layout (preorder, left child at `i + 1`) is a pure function of the
/// input, independent of thread count.
struct KdTree {
    /// Point indices; each node owns a contiguous `perm` range.
    perm: Vec<u32>,
    /// Per node: `dim` minima then `dim` maxima, `2 * dim` slots each.
    bounds: Vec<f64>,
    /// Per node: first index into `perm`.
    start: Vec<u32>,
    /// Per node: number of points.
    len: Vec<u32>,
    /// Per node: right-child node index; `0` marks a leaf (the root is
    /// node 0 and never anyone's child).
    right: Vec<u32>,
}

/// Disjoint per-subtree views of the kd arrays, so the two children of a
/// split can be built in parallel without sharing mutable state.
struct BuildSlices<'a> {
    bounds: &'a mut [f64],
    start: &'a mut [u32],
    len: &'a mut [u32],
    right: &'a mut [u32],
}

impl KdTree {
    fn build(flat: &[f64], dim: usize) -> Self {
        let n = flat.len() / dim;
        debug_assert!(n > 0, "cannot index an empty partition");
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let nodes = node_count(n);
        let mut bounds = vec![0.0f64; nodes * 2 * dim];
        let mut start = vec![0u32; nodes];
        let mut len = vec![0u32; nodes];
        let mut right = vec![0u32; nodes];
        build_rec(
            flat,
            dim,
            &mut perm,
            0,
            0,
            BuildSlices {
                bounds: &mut bounds,
                start: &mut start,
                len: &mut len,
                right: &mut right,
            },
        );
        KdTree {
            perm,
            bounds,
            start,
            len,
            right,
        }
    }
}

fn build_rec(flat: &[f64], dim: usize, perm: &mut [u32], perm_off: u32, node: u32, s: BuildSlices) {
    let n = perm.len();
    let (b, bounds_rest) = s.bounds.split_at_mut(2 * dim);
    let (st, start_rest) = s.start.split_at_mut(1);
    let (ln, len_rest) = s.len.split_at_mut(1);
    let (rt, right_rest) = s.right.split_at_mut(1);
    st[0] = perm_off;
    ln[0] = n as u32;

    // Exact per-dimension min/max — order-independent, so the parallel
    // build cannot perturb it.
    let p0 = &flat[perm[0] as usize * dim..][..dim];
    b[..dim].copy_from_slice(p0);
    b[dim..].copy_from_slice(p0);
    for &pi in &perm[1..] {
        let p = &flat[pi as usize * dim..][..dim];
        for (d, &x) in p.iter().enumerate() {
            if x < b[d] {
                b[d] = x;
            }
            if x > b[dim + d] {
                b[dim + d] = x;
            }
        }
    }

    if n <= LEAF {
        rt[0] = 0;
        return;
    }

    // Split on the widest extent; first such dimension wins.
    let mut split_dim = 0;
    let mut ext = b[dim] - b[0];
    for d in 1..dim {
        let e = b[dim + d] - b[d];
        if e > ext {
            ext = e;
            split_dim = d;
        }
    }
    let mid = n / 2;
    perm.select_nth_unstable_by(mid, |&a, &c| {
        flat[a as usize * dim + split_dim]
            .total_cmp(&flat[c as usize * dim + split_dim])
            .then(a.cmp(&c))
    });
    let (left_perm, right_perm) = perm.split_at_mut(mid);
    let left_nodes = node_count(mid);
    let right_node = node + 1 + left_nodes as u32;
    rt[0] = right_node;

    let (lb, rb) = bounds_rest.split_at_mut(left_nodes * 2 * dim);
    let (lst, rst) = start_rest.split_at_mut(left_nodes);
    let (lln, rln) = len_rest.split_at_mut(left_nodes);
    let (lrt, rrt) = right_rest.split_at_mut(left_nodes);
    let left = BuildSlices {
        bounds: lb,
        start: lst,
        len: lln,
        right: lrt,
    };
    let rchild = BuildSlices {
        bounds: rb,
        start: rst,
        len: rln,
        right: rrt,
    };
    if n >= PAR_BUILD_MIN {
        rayon::join(
            || build_rec(flat, dim, left_perm, perm_off, node + 1, left),
            || {
                build_rec(
                    flat,
                    dim,
                    right_perm,
                    perm_off + mid as u32,
                    right_node,
                    rchild,
                )
            },
        );
    } else {
        build_rec(flat, dim, left_perm, perm_off, node + 1, left);
        build_rec(
            flat,
            dim,
            right_perm,
            perm_off + mid as u32,
            right_node,
            rchild,
        );
    }
}

// ---------------------------------------------------------------------
// Uniform grid (dim <= 3)
// ---------------------------------------------------------------------

/// Per-dimension cell-count cap; beyond this the span/d_c ratio makes the
/// grid pointless and the kd-tree takes over.
const GRID_MAX_CELLS_PER_DIM: i64 = 1 << 20;

/// Cell width safety factor over `d_c`. With `w = 1.001 * d_c`, two points
/// within `d_c` of each other land in cells at most one apart per
/// dimension *in floating point*: their exact scaled coordinates differ by
/// under `1/1.001`, the few-ulp rounding of `(x - min) / w` cannot bridge
/// the remaining slack, and the floor of two values differing by less than
/// one differs by at most one.
const GRID_W_FACTOR: f64 = 1.001;

/// Conservative shrink on ring lower bounds, dominating the rounding of
/// the cell-coordinate computation.
const GRID_LB_SLACK: f64 = 0.999_999;

/// Queries whose cell lies farther than this (Chebyshev, in cells) from
/// the grid box skip shell enumeration for a linear scan of all entries.
/// Well below any saturation point of the `f64 -> i64` cell cast, and far
/// enough that such a query is out-of-distribution anyway.
const GRID_FAR_QUERY_CELLS: i64 = 1 << 40;

/// A uniform grid over up to 3 dimensions, CSR cell storage. Unused
/// dimensions are padded with a single cell so traversal is uniform.
struct Grid {
    w: f64,
    min: [f64; 3],
    cells: [i64; 3],
    /// CSR offsets over row-major cell ids, `total_cells + 1` entries.
    starts: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell.
    entries: Vec<u32>,
}

impl Grid {
    /// Builds the grid, or `None` when the data/d_c make it a bad fit
    /// (non-finite coords, degenerate `d_c`, or too many cells).
    ///
    /// A `d_c` whose square is below the normal range is degenerate: the
    /// shell lower bounds are real-valued distances, while the computed
    /// `d²` of points that far apart can underflow to 0, so a shell the
    /// bound prunes may hold an equal-distance smaller-id candidate. The
    /// kd-tree's bounds are computed like `d²` and underflow with it.
    fn try_build(flat: &[f64], dim: usize, dc: f64) -> Option<Self> {
        if dim > 3 || !(dc.is_finite() && dc * dc >= f64::MIN_POSITIVE) {
            return None;
        }
        let n = flat.len() / dim;
        debug_assert!(n > 0, "cannot index an empty partition");
        let w = dc * GRID_W_FACTOR;
        let mut min = [0.0f64; 3];
        let mut max = [0.0f64; 3];
        min[..dim].copy_from_slice(&flat[..dim]);
        max[..dim].copy_from_slice(&flat[..dim]);
        for p in flat.chunks_exact(dim) {
            for (d, &x) in p.iter().enumerate() {
                if !x.is_finite() {
                    return None;
                }
                if x < min[d] {
                    min[d] = x;
                }
                if x > max[d] {
                    max[d] = x;
                }
            }
        }
        // Cell counts from the same rounded expression as cell assignment,
        // so every point's computed cell is in range by construction.
        let mut cells = [1i64; 3];
        let mut total = 1f64;
        for d in 0..dim {
            // Compared before the cast: a span of 2⁶³ cells or more
            // (a tiny d_c) would saturate it and overflow the `+ 1`.
            let span = ((max[d] - min[d]) / w).floor();
            if span >= GRID_MAX_CELLS_PER_DIM as f64 {
                return None;
            }
            let c = span as i64 + 1;
            cells[d] = c;
            total *= c as f64;
        }
        if total > (4 * n + 1024) as f64 {
            return None; // sparse occupancy: kd prunes better
        }
        let total = total as usize;

        let mut starts = vec![0u32; total + 1];
        let grid = |p: &[f64]| -> usize {
            let mut id = 0usize;
            for (d, &x) in p.iter().enumerate() {
                let c = ((x - min[d]) / w).floor() as i64;
                debug_assert!((0..cells[d]).contains(&c));
                id = id * cells[d] as usize + c as usize;
            }
            for &c in &cells[p.len()..3] {
                id *= c as usize; // padded dims have one cell: no-op
            }
            id
        };
        for p in flat.chunks_exact(dim) {
            starts[grid(p) + 1] += 1;
        }
        for i in 1..=total {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![0u32; n];
        for (i, p) in flat.chunks_exact(dim).enumerate() {
            let cell = grid(p);
            entries[cursor[cell] as usize] = i as u32;
            cursor[cell] += 1;
        }
        Some(Grid {
            w,
            min,
            cells,
            starts,
            entries,
        })
    }

    /// The (possibly out-of-range) cell coordinates of an arbitrary query.
    fn cell_coords(&self, q: &[f64]) -> [i64; 3] {
        let mut c = [0i64; 3];
        for (d, &x) in q.iter().enumerate() {
            c[d] = ((x - self.min[d]) / self.w).floor() as i64;
        }
        c
    }

    fn cell_id(&self, c: [i64; 3]) -> usize {
        (((c[0] * self.cells[1]) + c[1]) * self.cells[2] + c[2]) as usize
    }

    fn cell_entries(&self, c: [i64; 3]) -> &[u32] {
        let id = self.cell_id(c);
        &self.entries[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Chebyshev cell-distance from `c` to the grid box (0 when inside).
    /// Saturating, so arbitrarily far (even cast-saturated) cells are safe.
    fn dist_to_box(&self, c: [i64; 3]) -> i64 {
        (0..3)
            .map(|d| {
                c[d].saturating_neg()
                    .max(c[d].saturating_sub(self.cells[d] - 1))
                    .max(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Visits every *in-grid* cell at Chebyshev cell-distance exactly `r`
    /// from `c`, in a fixed deterministic order. Per-dimension windows are
    /// clamped to the grid box up front, so a shell never enumerates cells
    /// outside the grid and only the shell's clamped faces are walked —
    /// O(visited cells) work, not O(r^2) box scans. Padded dimensions
    /// (`cells[d] == 1`, `c[d] == 0`) clamp to offset 0 automatically.
    /// All bound arithmetic saturates: a saturated bound lands on
    /// `i64::MIN`/`i64::MAX`, which no in-grid coordinate equals, so the
    /// clamps stay conservative for arbitrarily far query cells.
    fn for_shell(&self, c: [i64; 3], r: i64, mut visit: impl FnMut(&[u32])) {
        let mut lo = [0i64; 3];
        let mut hi = [0i64; 3];
        for d in 0..3 {
            lo[d] = c[d].saturating_sub(r).max(0);
            hi[d] = c[d].saturating_add(r).min(self.cells[d] - 1);
            if lo[d] > hi[d] {
                return; // the shell misses the grid entirely
            }
        }
        if r == 0 {
            visit(self.cell_entries(c)); // non-empty windows: c is in-grid
            return;
        }
        // The two in-window face coordinates of dim `d` (|x - c[d]| == r).
        let faces = move |d: usize| {
            [c[d].saturating_sub(r), c[d].saturating_add(r)]
                .into_iter()
                .filter(move |&x| lo[d] <= x && x <= hi[d])
        };
        // The in-window interior of dim `d` (|x - c[d]| < r).
        let interior = move |d: usize| {
            (
                lo[d].max(c[d].saturating_sub(r - 1)),
                hi[d].min(c[d].saturating_add(r - 1)),
            )
        };
        // Partition the shell by the first dimension at offset +-r:
        // |x0| == r, then |x0| < r && |x1| == r, then interior/interior
        // with |x2| == r. Each in-grid shell cell is visited exactly once.
        for x0 in faces(0) {
            for x1 in lo[1]..=hi[1] {
                for x2 in lo[2]..=hi[2] {
                    visit(self.cell_entries([x0, x1, x2]));
                }
            }
        }
        let (ilo0, ihi0) = interior(0);
        for x1 in faces(1) {
            for x0 in ilo0..=ihi0 {
                for x2 in lo[2]..=hi[2] {
                    visit(self.cell_entries([x0, x1, x2]));
                }
            }
        }
        let (ilo1, ihi1) = interior(1);
        for x2 in faces(2) {
            for x0 in ilo0..=ihi0 {
                for x1 in ilo1..=ihi1 {
                    visit(self.cell_entries([x0, x1, x2]));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SpatialIndex
// ---------------------------------------------------------------------

enum Rep {
    Kd(KdTree),
    Grid(Grid),
}

/// A per-partition spatial index over a flat row-major buffer, built once
/// and reused across the rho and delta passes.
pub struct SpatialIndex {
    dim: usize,
    flat: Vec<f64>,
    n: usize,
    rep: Rep,
}

impl SpatialIndex {
    /// Builds the index over `flat` (row-major, `dim` coordinates per
    /// point). `dc` informs the grid fast path's cell width; pass the same
    /// cutoff later used in `*_d2(q, dc * dc)` range queries.
    ///
    /// # Panics
    /// Panics if `flat` is empty or not a multiple of `dim`.
    pub fn build(flat: &[f64], dim: usize, dc: f64) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            !flat.is_empty() && flat.len().is_multiple_of(dim),
            "flat buffer must hold a positive number of {dim}-dim points"
        );
        let rep = match Grid::try_build(flat, dim, dc) {
            Some(g) => Rep::Grid(g),
            None => Rep::Kd(KdTree::build(flat, dim)),
        };
        SpatialIndex {
            dim,
            flat: flat.to_vec(),
            n: flat.len() / dim,
            rep,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — `build` rejects empty buffers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the grid fast path was selected.
    pub fn is_grid(&self) -> bool {
        matches!(self.rep, Rep::Grid(_))
    }

    #[inline]
    fn point(&self, i: u32) -> &[f64] {
        &self.flat[i as usize * self.dim..][..self.dim]
    }

    /// Squared box lower bound, accumulated per dimension in the same
    /// order as [`squared_euclidean`].
    #[inline]
    fn kd_lb2(kd: &KdTree, dim: usize, node: usize, q: &[f64]) -> f64 {
        let b = &kd.bounds[node * 2 * dim..][..2 * dim];
        let mut acc = 0.0;
        for (d, &x) in q.iter().enumerate() {
            let t = if x < b[d] {
                b[d] - x
            } else if x > b[dim + d] {
                x - b[dim + d]
            } else {
                0.0
            };
            acc += t * t;
        }
        acc
    }

    /// Squared box upper bound (distance to the farthest corner).
    #[inline]
    fn kd_ub2(kd: &KdTree, dim: usize, node: usize, q: &[f64]) -> f64 {
        let b = &kd.bounds[node * 2 * dim..][..2 * dim];
        let mut acc = 0.0;
        for (d, &x) in q.iter().enumerate() {
            let t = (x - b[d]).abs().max((b[dim + d] - x).abs());
            acc += t * t;
        }
        acc
    }

    /// Counts points with `d2(q, p) < dc2` (strict), including the query
    /// point itself when it is indexed. Returns `(count, distance evals)`.
    pub fn range_count_d2(&self, q: &[f64], dc2: f64) -> (u32, u64) {
        match &self.rep {
            Rep::Grid(g) => {
                debug_assert!(dc2 <= g.w * g.w, "grid built for a smaller radius");
                let c = g.cell_coords(q);
                let mut count = 0u32;
                let mut evals = 0u64;
                for r in 0..=1 {
                    g.for_shell(c, r, |cell| {
                        for &pi in cell {
                            let d2 = squared_euclidean(q, self.point(pi));
                            evals += 1;
                            if d2 < dc2 {
                                count += 1;
                            }
                        }
                    });
                }
                (count, evals)
            }
            Rep::Kd(kd) => {
                let mut count = 0u32;
                let mut evals = 0u64;
                let mut stack = vec![0usize];
                while let Some(node) = stack.pop() {
                    if Self::kd_lb2(kd, self.dim, node, q) >= dc2 {
                        continue; // every d2 in the box is >= lb2 >= dc2
                    }
                    if Self::kd_ub2(kd, self.dim, node, q) < dc2 {
                        count += kd.len[node]; // every d2 is <= ub2 < dc2
                        continue;
                    }
                    if kd.right[node] == 0 {
                        let s = kd.start[node] as usize;
                        for &pi in &kd.perm[s..s + kd.len[node] as usize] {
                            let d2 = squared_euclidean(q, self.point(pi));
                            evals += 1;
                            if d2 < dc2 {
                                count += 1;
                            }
                        }
                    } else {
                        stack.push(kd.right[node] as usize);
                        stack.push(node + 1);
                    }
                }
                (count, evals)
            }
        }
    }

    /// Visits `(point index, d2)` for every indexed point with
    /// `d2(q, p) < dc2` (strict), including the query itself when indexed.
    /// Returns the number of distance evaluations.
    pub fn for_each_within_d2(&self, q: &[f64], dc2: f64, mut visit: impl FnMut(u32, f64)) -> u64 {
        let mut evals = 0u64;
        let mut scan = |pts: &[u32]| {
            for &pi in pts {
                let d2 = squared_euclidean(q, self.point(pi));
                evals += 1;
                if d2 < dc2 {
                    visit(pi, d2);
                }
            }
        };
        match &self.rep {
            Rep::Grid(g) => {
                debug_assert!(dc2 <= g.w * g.w, "grid built for a smaller radius");
                let c = g.cell_coords(q);
                for r in 0..=1 {
                    g.for_shell(c, r, &mut scan);
                }
            }
            Rep::Kd(kd) => {
                let mut stack = vec![0usize];
                while let Some(node) = stack.pop() {
                    if Self::kd_lb2(kd, self.dim, node, q) >= dc2 {
                        continue;
                    }
                    if kd.right[node] == 0 {
                        let s = kd.start[node] as usize;
                        scan(&kd.perm[s..s + kd.len[node] as usize]);
                    } else {
                        stack.push(kd.right[node] as usize);
                        stack.push(node + 1);
                    }
                }
            }
        }
        evals
    }

    /// Best-first nearest-acceptable-point search in the *metric* domain
    /// (`d = d2.sqrt()`), matching the pipelines' delta kernels.
    ///
    /// `accept` maps an indexed point to `Some(candidate id)` when it may
    /// anchor the query (e.g. it is denser); `init` seeds `(distance,
    /// candidate id)` — pass `(f64::INFINITY, NO_UPSLOPE)` for an unseeded
    /// search. Candidates farther than `cap` are rejected outright.
    /// Tie-break: equal distance resolves to the smaller candidate id.
    /// Returns `((best distance, best id), distance evals)`.
    pub fn nearest_denser_d2(
        &self,
        q: &[f64],
        init: (f64, PointId),
        cap: f64,
        mut accept: impl FnMut(u32) -> Option<PointId>,
    ) -> ((f64, PointId), u64) {
        self.nearest_impl(q, init, cap, true, &mut accept)
    }

    /// Best-first nearest-acceptable-point search comparing raw squared
    /// distances (the serve probe's domain). Unseeded, uncapped.
    /// Returns `((best d2, best id), distance evals)`.
    pub fn nearest_by_d2(
        &self,
        q: &[f64],
        mut accept: impl FnMut(u32) -> Option<PointId>,
    ) -> ((f64, PointId), u64) {
        self.nearest_impl(
            q,
            (f64::INFINITY, crate::dp::NO_UPSLOPE),
            f64::INFINITY,
            false,
            &mut accept,
        )
    }

    fn nearest_impl(
        &self,
        q: &[f64],
        init: (f64, PointId),
        cap: f64,
        sqrt_domain: bool,
        accept: &mut dyn FnMut(u32) -> Option<PointId>,
    ) -> ((f64, PointId), u64) {
        let (mut best, mut best_id) = init;
        let mut evals = 0u64;
        let mut scan = |pts: &[u32], best: &mut f64, best_id: &mut PointId, evals: &mut u64| {
            for &pi in pts {
                if let Some(cand) = accept(pi) {
                    let d2 = squared_euclidean(q, self.point(pi));
                    *evals += 1;
                    let key = if sqrt_domain { d2.sqrt() } else { d2 };
                    if key <= cap && (key < *best || (key == *best && cand < *best_id)) {
                        *best = key;
                        *best_id = cand;
                    }
                }
            }
        };
        match &self.rep {
            Rep::Grid(g) => {
                let c = g.cell_coords(q);
                // First shell that can hold a grid cell. Starting there
                // skips the empty shells below it, so a query far outside
                // the grid costs O(grid diameter) shells, never O(distance).
                let r0 = g.dist_to_box(c);
                if r0 > GRID_FAR_QUERY_CELLS {
                    // So far out that cell arithmetic may have saturated
                    // (e.g. a cast-clamped coordinate): shell geometry is
                    // no longer trustworthy, and a linear scan costs no
                    // more than the blocked kernel for the same query.
                    scan(&g.entries, &mut best, &mut best_id, &mut evals);
                } else {
                    // Last shell holding any grid cell: the farthest corner.
                    let r_max = (0..self.dim)
                        .map(|d| c[d].max(g.cells[d] - 1 - c[d]))
                        .max()
                        .unwrap_or(0)
                        .max(r0);
                    for r in r0..=r_max {
                        if r >= 2 {
                            // Every point in shell r is at least (r-1)*w away
                            // (shrunk for rounding); equal bounds still scan so
                            // ties keep their smaller-id resolution.
                            let lb = (r - 1) as f64 * g.w * GRID_LB_SLACK;
                            let key_lb = if sqrt_domain { lb } else { lb * lb };
                            if key_lb > best.min(cap) {
                                break;
                            }
                        }
                        g.for_shell(c, r, |pts| scan(pts, &mut best, &mut best_id, &mut evals));
                    }
                }
            }
            Rep::Kd(kd) => {
                let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
                heap.push(Reverse((Self::kd_lb2(kd, self.dim, 0, q).to_bits(), 0)));
                while let Some(Reverse((lb_bits, node))) = heap.pop() {
                    let lb2 = f64::from_bits(lb_bits);
                    let key_lb = if sqrt_domain { lb2.sqrt() } else { lb2 };
                    // Best-first: every remaining region is at least this
                    // far. Strict >, so equal-distance smaller ids survive.
                    if key_lb > best.min(cap) {
                        break;
                    }
                    let node = node as usize;
                    if kd.right[node] == 0 {
                        let s = kd.start[node] as usize;
                        scan(
                            &kd.perm[s..s + kd.len[node] as usize],
                            &mut best,
                            &mut best_id,
                            &mut evals,
                        );
                    } else {
                        let l = node + 1;
                        let r = kd.right[node] as usize;
                        heap.push(Reverse((
                            Self::kd_lb2(kd, self.dim, l, q).to_bits(),
                            l as u32,
                        )));
                        heap.push(Reverse((
                            Self::kd_lb2(kd, self.dim, r, q).to_bits(),
                            r as u32,
                        )));
                    }
                }
            }
        }
        ((best, best_id), evals)
    }

    /// Distance from `q` to the farthest indexed point (0.0 for a
    /// single-point index queried with its own point) — the absolute
    /// peak's delta. Computed as `max(d2).sqrt()`, which equals the max of
    /// per-pair `d2.sqrt()` because sqrt is monotone and correctly
    /// rounded. Returns `(distance, distance evals)`.
    pub fn max_distance(&self, q: &[f64]) -> (f64, u64) {
        let mut best = 0.0f64;
        let mut evals = 0u64;
        match &self.rep {
            Rep::Grid(g) => {
                for &pi in &g.entries {
                    let d2 = squared_euclidean(q, self.point(pi));
                    evals += 1;
                    if d2 > best {
                        best = d2;
                    }
                }
            }
            Rep::Kd(kd) => {
                let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
                heap.push((Self::kd_ub2(kd, self.dim, 0, q).to_bits(), 0));
                while let Some((ub_bits, node)) = heap.pop() {
                    if f64::from_bits(ub_bits) <= best {
                        break; // nothing left can exceed the current max
                    }
                    let node = node as usize;
                    if kd.right[node] == 0 {
                        let s = kd.start[node] as usize;
                        for &pi in &kd.perm[s..s + kd.len[node] as usize] {
                            let d2 = squared_euclidean(q, self.point(pi));
                            evals += 1;
                            if d2 > best {
                                best = d2;
                            }
                        }
                    } else {
                        let l = node + 1;
                        let r = kd.right[node] as usize;
                        heap.push((Self::kd_ub2(kd, self.dim, l, q).to_bits(), l as u32));
                        heap.push((Self::kd_ub2(kd, self.dim, r, q).to_bits(), r as u32));
                    }
                }
            }
        }
        (best.sqrt(), evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::for_each_pair_d2;
    use crate::dp::{denser, NO_UPSLOPE};
    use proptest::prelude::*;

    /// Deterministic pseudo-random flat buffer: `n` points of `dim` dims
    /// in a few far-apart blobs, so pruning actually engages.
    fn blobs(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            let center = (i % 4) as f64 * 25.0;
            for d in 0..dim {
                let off = if d == 0 { center } else { 0.0 };
                flat.push(off + next() * 4.0 - 2.0);
            }
        }
        flat
    }

    fn brute_rho(flat: &[f64], dim: usize, dc2: f64) -> Vec<u32> {
        let n = flat.len() / dim;
        let mut rho = vec![0u32; n];
        for_each_pair_d2(flat, dim, |i, j, d2| {
            if d2 < dc2 {
                rho[i] += 1;
                rho[j] += 1;
            }
        });
        rho
    }

    #[test]
    fn kd_range_count_matches_blocked_pairs() {
        for dim in [1, 2, 4, 8] {
            let flat = blobs(300, dim, 42);
            let dc = 1.5;
            // dc chosen large enough relative to span that the grid path
            // is rejected for dim <= 3? Not necessarily — force kd.
            let idx = SpatialIndex {
                dim,
                flat: flat.clone(),
                n: 300,
                rep: Rep::Kd(KdTree::build(&flat, dim)),
            };
            let rho = brute_rho(&flat, dim, dc * dc);
            for i in 0..300u32 {
                let (count, _) = idx.range_count_d2(idx.point(i).to_vec().as_slice(), dc * dc);
                assert_eq!(count - 1, rho[i as usize], "dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn grid_is_selected_for_low_dim_and_matches() {
        for dim in [1, 2, 3] {
            let flat = blobs(400, dim, 7);
            let dc = 1.0;
            let idx = SpatialIndex::build(&flat, dim, dc);
            assert!(idx.is_grid(), "dim={dim} should take the grid path");
            let rho = brute_rho(&flat, dim, dc * dc);
            for i in 0..400u32 {
                let (count, _) = idx.range_count_d2(&flat[i as usize * dim..][..dim], dc * dc);
                assert_eq!(count - 1, rho[i as usize], "dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn huge_span_falls_back_to_kd() {
        // Span / d_c is enormous: the grid would need too many cells.
        let flat = vec![0.0, 1e9];
        let idx = SpatialIndex::build(&flat, 1, 1e-3);
        assert!(!idx.is_grid());
        assert_eq!(idx.range_count_d2(&[0.0], 1e-6).0, 1);
    }

    #[test]
    fn within_visits_match_and_count_evals() {
        let flat = blobs(250, 2, 99);
        let dc = 1.2;
        let idx = SpatialIndex::build(&flat, 2, dc);
        let dc2 = dc * dc;
        for i in (0..250u32).step_by(17) {
            let q = &flat[i as usize * 2..][..2];
            let mut seen: Vec<(u32, u64)> = Vec::new();
            let evals = idx.for_each_within_d2(q, dc2, |pi, d2| seen.push((pi, d2.to_bits())));
            assert!(evals >= seen.len() as u64);
            let mut brute: Vec<(u32, u64)> = (0..250u32)
                .filter_map(|j| {
                    let d2 = squared_euclidean(q, &flat[j as usize * 2..][..2]);
                    (d2 < dc2).then_some((j, d2.to_bits()))
                })
                .collect();
            seen.sort_unstable();
            brute.sort_unstable();
            assert_eq!(seen, brute, "i={i}");
        }
    }

    /// Brute-force nearest-denser with the pipelines' exact tie rules.
    fn brute_nearest(
        flat: &[f64],
        dim: usize,
        rho: &[u32],
        i: u32,
        init: (f64, PointId),
        cap: f64,
    ) -> (f64, PointId) {
        let (mut best, mut best_id) = init;
        let q = &flat[i as usize * dim..][..dim];
        for j in 0..(flat.len() / dim) as u32 {
            if j == i || !denser(rho[j as usize], j, rho[i as usize], i) {
                continue;
            }
            let d = squared_euclidean(q, &flat[j as usize * dim..][..dim]).sqrt();
            if d <= cap && (d < best || (d == best && j < best_id)) {
                best = d;
                best_id = j;
            }
        }
        (best, best_id)
    }

    #[test]
    fn nearest_denser_matches_brute_force_with_ties() {
        for dim in [1, 2, 5] {
            let flat = blobs(220, dim, 31);
            let dc = 1.3;
            let idx = SpatialIndex::build(&flat, dim, dc);
            let rho: Vec<u32> = brute_rho(&flat, dim, dc * dc);
            for i in 0..220u32 {
                let q = &flat[i as usize * dim..][..dim];
                let (got, _) =
                    idx.nearest_denser_d2(q, (f64::INFINITY, NO_UPSLOPE), f64::INFINITY, |pi| {
                        (pi != i && denser(rho[pi as usize], pi, rho[i as usize], i)).then_some(pi)
                    });
                let want = brute_nearest(
                    &flat,
                    dim,
                    &rho,
                    i,
                    (f64::INFINITY, NO_UPSLOPE),
                    f64::INFINITY,
                );
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "dim={dim} i={i}");
                assert_eq!(got.1, want.1, "dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn nearest_respects_cap_and_seed() {
        let flat = blobs(180, 2, 77);
        let dc = 1.0;
        let idx = SpatialIndex::build(&flat, 2, dc);
        let rho = brute_rho(&flat, 2, dc * dc);
        for i in (0..180u32).step_by(7) {
            let q = &flat[i as usize * 2..][..2];
            let seed_j = (i + 1) % 180;
            let seed_d = squared_euclidean(q, &flat[seed_j as usize * 2..][..2]).sqrt();
            for cap in [0.5, 2.0, f64::INFINITY] {
                let init = if seed_d <= cap {
                    (seed_d, seed_j)
                } else {
                    (f64::INFINITY, NO_UPSLOPE)
                };
                let (got, _) = idx.nearest_denser_d2(q, init, cap, |pi| {
                    (pi != i && denser(rho[pi as usize], pi, rho[i as usize], i)).then_some(pi)
                });
                let want = brute_nearest(&flat, 2, &rho, i, init, cap);
                assert_eq!(got, want, "i={i} cap={cap}");
            }
        }
    }

    /// Regression for the grid nearest-search availability hang: queries
    /// far outside the grid box (including coordinates that saturate the
    /// f64 -> i64 cell cast) must terminate promptly and still match the
    /// exhaustive scan bit-for-bit; NaN queries must terminate with "no
    /// candidate" instead of looping or panicking.
    #[test]
    fn grid_nearest_handles_far_and_nonfinite_queries() {
        let flat = blobs(400, 2, 7);
        let dc = 1.0;
        let idx = SpatialIndex::build(&flat, 2, dc);
        assert!(idx.is_grid());
        let brute = |q: &[f64]| {
            let mut best = (f64::INFINITY, NO_UPSLOPE);
            for j in 0..400u32 {
                let d2 = squared_euclidean(q, &flat[j as usize * 2..][..2]);
                if d2 < best.0 || (d2 == best.0 && j < best.1) {
                    best = (d2, j);
                }
            }
            best
        };
        for q in [
            [1e9, 1e9],      // bounded shell walk from the box distance
            [-1e9, 3.0],     // far in one dimension only
            [1e300, -1e300], // saturates the cell cast: linear fallback
            [f64::MAX, f64::MAX],
        ] {
            let ((d2, id), _) = idx.nearest_by_d2(&q, Some);
            let want = brute(&q);
            assert_eq!(d2.to_bits(), want.0.to_bits(), "q={q:?}");
            assert_eq!(id, want.1, "q={q:?}");
            assert_eq!(idx.range_count_d2(&q, dc * dc), (0, 0), "q={q:?}");
        }
        let ((d, id), _) = idx.nearest_by_d2(&[f64::NAN, 0.5], Some);
        assert!(d.is_infinite());
        assert_eq!(id, NO_UPSLOPE);
        assert_eq!(idx.range_count_d2(&[f64::NAN, 0.5], dc * dc).0, 0);
    }

    /// Shells from the box distance to the farthest corner visit every
    /// point exactly once, for query cells inside and outside the grid —
    /// the partition invariant the nearest search's enumeration relies on.
    #[test]
    fn for_shell_partitions_entries_by_chebyshev_distance() {
        let flat = blobs(300, 2, 21);
        let idx = SpatialIndex::build(&flat, 2, 1.0);
        let Rep::Grid(g) = &idx.rep else {
            panic!("expected the grid representation")
        };
        for c in [
            [3i64, 5, 0],
            [0, 0, 0],
            [-4, 2, 0],
            [7, -9, 0],
            [100, 1000, 0],
        ] {
            let r_max = (0..2)
                .map(|d| c[d].max(g.cells[d] - 1 - c[d]))
                .max()
                .unwrap()
                .max(g.dist_to_box(c));
            let mut visited = 0usize;
            // From 0, not dist_to_box: shells below the box distance must
            // visit nothing (their clamped windows are empty).
            for r in 0..=r_max {
                g.for_shell(c, r, |pts| visited += pts.len());
            }
            assert_eq!(visited, 300, "c={c:?}");
        }
        // Saturated cells never reach in-grid coordinates.
        assert!(g.dist_to_box([i64::MAX, i64::MIN, 0]) > GRID_FAR_QUERY_CELLS);
        for r in [0, 1, i64::MAX] {
            g.for_shell([i64::MAX, i64::MIN, 0], r, |_| {
                panic!("saturated cell visited the grid")
            });
        }
    }

    #[test]
    fn max_distance_matches_brute_force_bitwise() {
        for dim in [1, 2, 4] {
            let flat = blobs(200, dim, 13);
            let idx = SpatialIndex::build(&flat, dim, 0.8);
            for i in (0..200u32).step_by(11) {
                let q = &flat[i as usize * dim..][..dim];
                let (got, _) = idx.max_distance(q);
                let want = (0..200u32)
                    .map(|j| squared_euclidean(q, &flat[j as usize * dim..][..dim]))
                    .fold(0.0f64, f64::max)
                    .sqrt();
                assert_eq!(got.to_bits(), want.to_bits(), "dim={dim} i={i}");
            }
        }
    }

    #[test]
    fn single_point_index() {
        let flat = vec![1.0, 2.0];
        let idx = SpatialIndex::build(&flat, 2, 1.0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.range_count_d2(&[1.0, 2.0], 1.0), (1, 1));
        let ((d, u), _) = idx.nearest_denser_d2(
            &[1.0, 2.0],
            (f64::INFINITY, NO_UPSLOPE),
            f64::INFINITY,
            |_| None,
        );
        assert_eq!((d, u), (f64::INFINITY, NO_UPSLOPE));
        assert_eq!(idx.max_distance(&[1.0, 2.0]).0, 0.0);
    }

    #[test]
    fn strategy_parses_and_resolves() {
        assert_eq!("blocked".parse(), Ok(KernelStrategy::Blocked));
        assert_eq!("indexed".parse(), Ok(KernelStrategy::Indexed));
        assert_eq!("auto".parse(), Ok(KernelStrategy::Auto));
        assert!("fast".parse::<KernelStrategy>().is_err());
        let a = KernelStrategy::Auto;
        assert_eq!(a.resolved_with(Some("blocked")), KernelStrategy::Blocked);
        assert_eq!(a.resolved_with(Some("bogus")), KernelStrategy::Auto);
        assert_eq!(a.resolved_with(None), KernelStrategy::Auto);
        assert!(!KernelStrategy::Auto.use_indexed(AUTO_MIN_POINTS - 1));
        assert!(KernelStrategy::Auto.use_indexed(AUTO_MIN_POINTS));
        assert!(KernelStrategy::Indexed.use_indexed(2));
        assert!(!KernelStrategy::Blocked.use_indexed(1 << 20));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// rho counts and delta/upslope chains from the index match the
        /// blocked kernels bit-for-bit on arbitrary data.
        #[test]
        fn index_kernels_equal_blocked_kernels(
            dim in 1usize..4,
            n in 2usize..60,
            coords in proptest::collection::vec(-30.0f64..30.0, 240),
            dc in 0.4f64..8.0,
        ) {
            let flat = &coords[..n * dim];
            let dc2 = dc * dc;
            let idx = SpatialIndex::build(flat, dim, dc);
            let rho = brute_rho(flat, dim, dc2);
            for i in 0..n as u32 {
                let q = &flat[i as usize * dim..][..dim];
                let (count, _) = idx.range_count_d2(q, dc2);
                prop_assert_eq!(count.saturating_sub(1), rho[i as usize]);
                let (got, _) = idx.nearest_denser_d2(
                    q,
                    (f64::INFINITY, NO_UPSLOPE),
                    f64::INFINITY,
                    |pi| (pi != i && denser(rho[pi as usize], pi, rho[i as usize], i))
                        .then_some(pi),
                );
                let want = brute_nearest(flat, dim, &rho, i, (f64::INFINITY, NO_UPSLOPE), f64::INFINITY);
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                prop_assert_eq!(got.1, want.1);
            }
        }
    }
}

//! Partition-local DP kernels: the one layer that computes `rho` and
//! `delta` over a local point set — an LSH bucket chunk, a Basic-DDP
//! block and its partners, an EDDPC Voronoi cell.
//!
//! [`Block::new`] decides the kernel once, [`KernelStrategy::use_indexed`]
//! on the block's size, and every operation follows it: the pair loops of
//! [`crate::distance`] or a [`SpatialIndex`] built once over the block.
//! Both return the same bits and charge the [`DistanceTracker`] the
//! evaluations they perform. [`crate::dp`]'s indexed branch runs the same
//! per-point ball count and seeded search across the pool.

use crate::distance::{
    for_each_cross_d2, for_each_pair_d2, squared_euclidean, DistanceKind, DistanceTracker,
};
use crate::dp::NO_UPSLOPE;
use crate::index::{KernelStrategy, SpatialIndex};
use crate::point::PointId;
use std::cmp::Reverse;

/// A partial `delta` record: `(delta, upslope, maxd)`. `delta = +∞` with
/// `upslope = NO_UPSLOPE` when no denser point was found; `maxd` is then
/// the distance to the farthest point searched, which becomes the absolute
/// density peak's `delta`.
pub type DeltaPartial = (f64, PointId, f64);

/// A point's place in the canonical denser-than order: `(rho, id)`. A
/// point is denser than another iff its rank is larger, which is
/// [`crate::dp::denser`].
pub type Rank = (u32, PointId);

/// The ranks of points `ids` under the density table `rho` (by point id).
pub fn ranks(ids: impl IntoIterator<Item = PointId>, rho: &[u32]) -> Vec<Rank> {
    ids.into_iter().map(|id| (rho[id as usize], id)).collect()
}

/// Positions `0..n` sorted densest first.
pub(crate) fn densest_first(n: usize, rank: impl Fn(usize) -> Rank) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&p| Reverse(rank(p as usize)));
    order
}

const UNFOUND: DeltaPartial = (f64::INFINITY, NO_UPSLOPE, 0.0);

/// Offers candidate `id` at distance `d`: the smaller distance wins, ties
/// go to the smaller id.
fn offer(part: &mut DeltaPartial, d: f64, id: PointId) {
    if d < part.0 || (d == part.0 && id < part.1) {
        (part.0, part.1) = (d, id);
    }
}

/// The nearest point of `index` that `rank` places above `me`, searched
/// from `init` and no farther than `cap`.
fn nearest_above(
    index: &SpatialIndex,
    x: &[f64],
    rank: impl Fn(usize) -> Rank,
    me: Rank,
    init: (f64, PointId),
    cap: f64,
) -> ((f64, PointId), u64) {
    index.nearest_denser_d2(x, init, cap, |p| {
        let r = rank(p as usize);
        (r > me).then_some(r.1)
    })
}

/// A local point set over a flat row-major buffer, with its kernel
/// decided: the spatial index when [`KernelStrategy::use_indexed`] holds
/// for its size, the blocked pair loops otherwise.
pub struct Block<'a> {
    flat: &'a [f64],
    dim: usize,
    dc: f64,
    index: Option<SpatialIndex>,
    tracker: &'a DistanceTracker,
}

impl<'a> Block<'a> {
    /// A block over `flat` (`dim` coordinates per point) for cutoff `dc`,
    /// with the spatial index built here when `kernel` picks it for this
    /// many points. Its operations charge their evaluations to `tracker`.
    ///
    /// # Panics
    /// Panics if `dim` is zero or `flat` is not a multiple of `dim`.
    pub fn new(
        flat: &'a [f64],
        dim: usize,
        dc: f64,
        kernel: KernelStrategy,
        tracker: &'a DistanceTracker,
    ) -> Self {
        assert!(
            dim > 0 && flat.len().is_multiple_of(dim),
            "flat buffer must hold whole {dim}-dim points"
        );
        debug_assert_eq!(tracker.kind(), DistanceKind::Euclidean, "Euclidean kernels");
        let n = flat.len() / dim;
        let index = (n > 0 && kernel.use_indexed(n)).then(|| SpatialIndex::build(flat, dim, dc));
        Block {
            flat,
            dim,
            dc,
            index,
            tracker,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.flat.len() / self.dim
    }

    pub(crate) fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    fn point(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dim..][..self.dim]
    }

    fn index(&self) -> &SpatialIndex {
        self.index.as_ref().expect("an indexed block")
    }

    /// rho of every block point: the other block points strictly within
    /// `d_c`. The pair loop charges `n(n−1)/2` evaluations.
    pub fn rho(&self) -> Vec<u32> {
        let n = self.len();
        if self.is_indexed() {
            return self.count_each(0..n);
        }
        let dc2 = self.dc * self.dc;
        let mut rho = vec![0u32; n];
        for_each_pair_d2(self.flat, self.dim, |i, j, d2| {
            if d2 < dc2 {
                rho[i] += 1;
                rho[j] += 1;
            }
        });
        self.tracker.add((n * n.saturating_sub(1) / 2) as u64);
        rho
    }

    /// rho of the block points at positions `members` against every other
    /// block point. The blocked kernel charges `members × (n−1)`.
    pub fn rho_of(&self, members: &[usize]) -> Vec<u32> {
        if self.is_indexed() {
            return self.count_each(members.iter().copied());
        }
        let dc2 = self.dc * self.dc;
        let queries: Vec<f64> = members
            .iter()
            .flat_map(|&m| self.point(m))
            .copied()
            .collect();
        let mut rho = vec![0u32; members.len()];
        for_each_cross_d2(&queries, self.flat, self.dim, |q, j, d2| {
            if members[q] != j && d2 < dc2 {
                rho[q] += 1;
            }
        });
        self.tracker
            .add((members.len() * self.len().saturating_sub(1)) as u64);
        rho
    }

    fn count_each(&self, members: impl Iterator<Item = usize>) -> Vec<u32> {
        let (rho, evals): (Vec<u32>, Vec<u64>) = members.map(|i| self.rho_at(i)).unzip();
        self.tracker.add(evals.iter().sum());
        rho
    }

    /// One indexed ball count: rho of block point `i` and its evaluations.
    /// The count includes the point itself (d² = 0 < d_c²) unless d_c²
    /// underflows to 0, when the count and rho are both 0.
    pub(crate) fn rho_at(&self, i: usize) -> (u32, u64) {
        let (count, evals) = self
            .index()
            .range_count_d2(self.point(i), self.dc * self.dc);
        (count.saturating_sub(1), evals)
    }

    /// rho across the points `queries` (flat, same `dim`) and the block:
    /// each query's count of block points strictly within `d_c`, with each
    /// such pair also added to the block point's entry of `rho`. The
    /// blocked kernel charges `queries × n`.
    pub fn rho_from(&self, queries: &[f64], rho: &mut [u32]) -> Vec<u32> {
        let (dc2, nq) = (self.dc * self.dc, queries.len() / self.dim);
        let mut query_rho = vec![0u32; nq];
        let mut hit = |q: usize, i: usize| {
            rho[i] += 1;
            query_rho[q] += 1;
        };
        let evals = match &self.index {
            Some(index) => queries
                .chunks_exact(self.dim)
                .enumerate()
                .map(|(q, x)| index.for_each_within_d2(x, dc2, |i, _| hit(q, i as usize)))
                .sum(),
            None => {
                for_each_cross_d2(queries, self.flat, self.dim, |q, i, d2| {
                    if d2 < dc2 {
                        hit(q, i);
                    }
                });
                (nq * self.len()) as u64
            }
        };
        self.tracker.add(evals);
        query_rho
    }

    /// Each block point's nearest denser block point under `ranks` (one per
    /// point), with `(∞, NO_UPSLOPE)` for the densest. The pair loop
    /// charges `n(n−1)/2` and records every point's farthest distance in
    /// `maxd` as it goes. The index seeds each search with the point's
    /// predecessor in descending density, denser by construction, and
    /// leaves `maxd` at 0 unless `farthest` asks for the densest point's.
    pub fn nearest_denser(&self, ranks: &[Rank], farthest: bool) -> Vec<DeltaPartial> {
        let n = self.len();
        assert_eq!(ranks.len(), n, "one rank per block point");
        let mut parts = vec![UNFOUND; n];
        if self.is_indexed() {
            let order = densest_first(n, |p| ranks[p]);
            let mut evals = 0;
            for pos in 0..n {
                let (part, e) = self.nearest_denser_at(&order, pos, |p| ranks[p], farthest);
                parts[order[pos] as usize] = part;
                evals += e;
            }
            self.tracker.add(evals);
            return parts;
        }
        for_each_pair_d2(self.flat, self.dim, |i, j, d2| {
            let d = d2.sqrt();
            parts[i].2 = parts[i].2.max(d);
            parts[j].2 = parts[j].2.max(d);
            // Ids are distinct, so exactly one of the two is denser.
            let (sparser, denser) = if ranks[i] < ranks[j] { (i, j) } else { (j, i) };
            offer(&mut parts[sparser], d, ranks[denser].1);
        });
        self.tracker.add((n * n.saturating_sub(1) / 2) as u64);
        parts
    }

    /// One seeded indexed search, for the point at `order[pos]` where
    /// `order` lists positions densest first under `rank`: seeded with
    /// `order[pos − 1]` (one evaluation). The densest point searches
    /// nothing, and gets its farthest distance in `maxd` if `farthest`.
    pub(crate) fn nearest_denser_at(
        &self,
        order: &[u32],
        pos: usize,
        rank: impl Fn(usize) -> Rank,
        farthest: bool,
    ) -> (DeltaPartial, u64) {
        let (i, index) = (order[pos] as usize, self.index());
        let x = self.point(i);
        if pos == 0 {
            let (maxd, evals) = if farthest {
                index.max_distance(x)
            } else {
                (0.0, 0)
            };
            return ((f64::INFINITY, NO_UPSLOPE, maxd), evals);
        }
        let s = order[pos - 1] as usize;
        let seed = (squared_euclidean(x, self.point(s)).sqrt(), rank(s).1);
        let ((d, u), evals) = nearest_above(index, x, &rank, rank(i), seed, f64::INFINITY);
        ((d, u, 0.0), evals + 1)
    }

    /// Each query's nearest denser block point no farther than its cap:
    /// `queries` are flat points ranked by `query_ranks`, `ranks` ranks the
    /// block, and `caps` holds one bound per query. A query that finds none
    /// gets its farthest distance to the block in `maxd` (0 for an empty
    /// block). The pair loop charges `queries × n`.
    pub fn nearest_denser_capped(
        &self,
        ranks: &[Rank],
        queries: &[f64],
        query_ranks: &[Rank],
        caps: &[f64],
    ) -> Vec<DeltaPartial> {
        let nq = queries.len() / self.dim;
        assert_eq!(ranks.len(), self.len(), "one rank per block point");
        assert_eq!(query_ranks.len(), nq, "one rank per query");
        assert_eq!(caps.len(), nq, "one cap per query");
        let (parts, evals) = if self.is_indexed() {
            self.search_indexed(ranks, queries, query_ranks, |q| caps[q])
        } else {
            let mut parts = vec![UNFOUND; nq];
            for_each_cross_d2(queries, self.flat, self.dim, |q, i, d2| {
                let d = d2.sqrt();
                parts[q].2 = parts[q].2.max(d);
                if d <= caps[q] && ranks[i] > query_ranks[q] {
                    offer(&mut parts[q], d, ranks[i].1);
                }
            });
            (parts, (nq * self.len()) as u64)
        };
        self.tracker.add(evals);
        parts
    }

    /// Both directions across the block and `queries`, whose ids differ
    /// from the block's: returns each query's nearest denser block point,
    /// and improves each block point's partial in `own` (its
    /// [`Block::nearest_denser`] result) with the denser queries, its
    /// `maxd` covering both sets. The pair loop does both directions in one
    /// pass over the `queries × n` pairs it charges.
    pub fn nearest_denser_across(
        &self,
        ranks: &[Rank],
        own: &mut [DeltaPartial],
        queries: &[f64],
        query_ranks: &[Rank],
    ) -> Vec<DeltaPartial> {
        let nq = queries.len() / self.dim;
        assert_eq!(ranks.len(), self.len(), "one rank per block point");
        assert_eq!(own.len(), self.len(), "one partial per block point");
        assert_eq!(query_ranks.len(), nq, "one rank per query");
        let Some(index) = &self.index else {
            let mut parts = vec![UNFOUND; nq];
            for_each_cross_d2(queries, self.flat, self.dim, |q, i, d2| {
                let (d, qr, ir) = (d2.sqrt(), query_ranks[q], ranks[i]);
                parts[q].2 = parts[q].2.max(d);
                own[i].2 = own[i].2.max(d);
                if ir > qr {
                    offer(&mut parts[q], d, ir.1);
                } else {
                    offer(&mut own[i], d, qr.1);
                }
            });
            self.tracker.add((nq * self.len()) as u64);
            return parts;
        };
        let (parts, mut evals) =
            self.search_indexed(ranks, queries, query_ranks, |_| f64::INFINITY);
        let query_index = (nq > 0).then(|| SpatialIndex::build(queries, self.dim, self.dc));
        for (i, part) in own.iter_mut().enumerate() {
            let x = self.point(i);
            let (mut best, mut maxd) = ((part.0, part.1), 0.0f64);
            if let Some(qi) = &query_index {
                let (b, e) =
                    nearest_above(qi, x, |p| query_ranks[p], ranks[i], best, f64::INFINITY);
                (best, evals) = (b, evals + e);
            }
            if best.1 == NO_UPSLOPE {
                for idx in std::iter::once(index).chain(&query_index) {
                    let (m, e) = idx.max_distance(x);
                    (maxd, evals) = (maxd.max(m), evals + e);
                }
            }
            *part = (best.0, best.1, maxd);
        }
        self.tracker.add(evals);
        parts
    }

    /// The indexed query side of both cross searches: each query's nearest
    /// denser block point within `cap(q)` and, for a query left without
    /// one, its farthest distance to the block (`maxd` is only read from
    /// such partials). Returns the partials and their evaluations.
    fn search_indexed(
        &self,
        ranks: &[Rank],
        queries: &[f64],
        query_ranks: &[Rank],
        cap: impl Fn(usize) -> f64,
    ) -> (Vec<DeltaPartial>, u64) {
        let (index, mut evals) = (self.index(), 0);
        let unseeded = (f64::INFINITY, NO_UPSLOPE);
        let parts = queries
            .chunks_exact(self.dim)
            .zip(query_ranks)
            .enumerate()
            .map(|(q, (x, &me))| {
                let ((d, u), e) = nearest_above(index, x, |p| ranks[p], me, unseeded, cap(q));
                let (maxd, m) = if u == NO_UPSLOPE {
                    index.max_distance(x)
                } else {
                    (0.0, 0)
                };
                evals += e + m;
                (d, u, maxd)
            })
            .collect();
        (parts, evals)
    }
}

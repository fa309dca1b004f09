//! The hashing machinery: single functions, groups of `pi`, `M`-layout
//! multi-hashing, and the per-layout bucket tables built from it.

use crate::tuning::LshParams;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use rand_distr::StandardNormal;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A group signature: the `pi` hash values `[h_1(p), ..., h_pi(p)]` that
/// identify a point's partition within one layout (paper Definition 2).
pub type Signature = Vec<i64>;

/// One Euclidean p-stable hash function `h(p) = floor((a·p + b)/w)`
/// (paper Eq. 3, after Datar et al.).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshFunction {
    a: Vec<f64>,
    b: f64,
    w: f64,
}

impl LshFunction {
    /// Draws a fresh function for `dim`-dimensional points with slot width
    /// `w`, from `rng`: `a ~ N(0, I)`, `b ~ U[0, w)`.
    pub fn sample(dim: usize, w: f64, rng: &mut impl Rng) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            w.is_finite() && w > 0.0,
            "slot width must be positive, got {w}"
        );
        let a = (0..dim).map(|_| rng.sample(StandardNormal)).collect();
        let b = rng.random_range(0.0..w);
        LshFunction { a, b, w }
    }

    /// The slot width `w`.
    pub fn width(&self) -> f64 {
        self.w
    }

    /// Hashes one point.
    ///
    /// # Panics
    /// Debug-asserts the point's dimensionality matches.
    #[inline]
    pub fn hash(&self, p: &[f64]) -> i64 {
        debug_assert_eq!(p.len(), self.a.len(), "point dim mismatch");
        let dot: f64 = self.a.iter().zip(p.iter()).map(|(x, y)| x * y).sum();
        ((dot + self.b) / self.w).floor() as i64
    }

    /// The continuous projection `a·p + b` (pre-floor) — exposed for the
    /// Monte-Carlo validation of Lemma 1 in the test suite.
    #[inline]
    pub fn project(&self, p: &[f64]) -> f64 {
        let dot: f64 = self.a.iter().zip(p.iter()).map(|(x, y)| x * y).sum();
        dot + self.b
    }
}

/// A hash group `G = (h_1, ..., h_pi)`: points sharing all `pi` values are
/// in the same partition (paper Definition 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashGroup {
    funcs: Vec<LshFunction>,
}

impl HashGroup {
    /// Draws a group of `pi` independent functions.
    pub fn sample(dim: usize, pi: usize, w: f64, rng: &mut impl Rng) -> Self {
        assert!(pi > 0, "a hash group needs at least one function");
        HashGroup {
            funcs: (0..pi).map(|_| LshFunction::sample(dim, w, rng)).collect(),
        }
    }

    /// Number of hash functions (`pi`).
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the group is empty (never true for sampled groups).
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// The group signature `G(p)` identifying `p`'s partition.
    pub fn signature(&self, p: &[f64]) -> Signature {
        self.funcs.iter().map(|h| h.hash(p)).collect()
    }

    /// The individual functions.
    pub fn functions(&self) -> &[LshFunction] {
        &self.funcs
    }
}

/// `M` independent hash groups — the paper's `(G_1, ..., G_M)` producing
/// `M` partition layouts of the data set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLsh {
    groups: Vec<HashGroup>,
    dim: usize,
}

impl MultiLsh {
    /// Samples `params.m` groups of `params.pi` functions with width
    /// `params.w` for `dim`-dimensional points, deterministically from
    /// `seed`.
    pub fn new(dim: usize, params: &LshParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = (0..params.m)
            .map(|_| HashGroup::sample(dim, params.pi, params.w, &mut rng))
            .collect();
        MultiLsh { groups, dim }
    }

    /// Number of layouts (`M`).
    pub fn layouts(&self) -> usize {
        self.groups.len()
    }

    /// Point dimensionality this instance hashes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The signatures of `p` under every layout: `[G_1(p), ..., G_M(p)]`.
    pub fn signatures(&self, p: &[f64]) -> Vec<Signature> {
        self.groups.iter().map(|g| g.signature(p)).collect()
    }

    /// The signature of `p` under layout `m`.
    pub fn signature(&self, m: usize, p: &[f64]) -> Signature {
        self.groups[m].signature(p)
    }

    /// The individual groups.
    pub fn groups(&self) -> &[HashGroup] {
        &self.groups
    }
}

/// Builds one bucket table per layout: `tables[m]` maps each signature
/// under layout `m` to the ids (enumeration order, as `u32`) of the points
/// hashing to it.
///
/// This is the query-time half of the paper's partitioning, factored out
/// so consumers that already own the point storage (the serving layer's
/// `ClusterModel`, the ingest session) can rebuild the tables from a
/// [`MultiLsh`] without copying their points into a second container.
///
/// # Panics
/// Debug-asserts each point's dimensionality matches `multi`.
pub fn bucket_tables<'a, I>(multi: &MultiLsh, points: I) -> Vec<HashMap<Signature, Vec<u32>>>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut tables: Vec<HashMap<Signature, Vec<u32>>> =
        (0..multi.layouts()).map(|_| HashMap::new()).collect();
    for (i, p) in points.into_iter().enumerate() {
        debug_assert_eq!(p.len(), multi.dim(), "point dim mismatch");
        for (m, sig) in multi.signatures(p).into_iter().enumerate() {
            tables[m].entry(sig).or_default().push(i as u32);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(m: usize, pi: usize, w: f64) -> LshParams {
        LshParams { m, pi, w }
    }

    #[test]
    fn hash_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = LshFunction::sample(3, 2.0, &mut rng);
        let p = [0.5, -1.0, 2.0];
        assert_eq!(h.hash(&p), h.hash(&p));
    }

    #[test]
    fn identical_points_always_collide() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let h = LshFunction::sample(4, 1.0, &mut rng);
            let p = [0.1, 0.2, 0.3, 0.4];
            assert_eq!(h.hash(&p), h.hash(&p.clone()));
        }
    }

    #[test]
    fn nearby_points_collide_more_often_than_distant() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = 4.0;
        let origin = [0.0, 0.0];
        let near = [0.1, 0.0];
        let far = [40.0, 0.0];
        let trials = 2000;
        let mut near_hits = 0;
        let mut far_hits = 0;
        for _ in 0..trials {
            let h = LshFunction::sample(2, w, &mut rng);
            if h.hash(&origin) == h.hash(&near) {
                near_hits += 1;
            }
            if h.hash(&origin) == h.hash(&far) {
                far_hits += 1;
            }
        }
        assert!(
            near_hits > far_hits + trials / 4,
            "near {near_hits} vs far {far_hits} out of {trials}"
        );
    }

    #[test]
    fn group_signature_has_pi_entries() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = HashGroup::sample(2, 5, 1.0, &mut rng);
        assert_eq!(g.len(), 5);
        assert_eq!(g.signature(&[1.0, 2.0]).len(), 5);
    }

    #[test]
    fn larger_pi_splits_finer() {
        // With more functions per group, distinct points are less likely to
        // share a full signature.
        let mut rng = StdRng::seed_from_u64(5);
        let a = [0.0, 0.0];
        let b = [1.5, -0.5];
        let trials = 500;
        let count = |pi: usize, rng: &mut StdRng| {
            (0..trials)
                .filter(|_| {
                    let g = HashGroup::sample(2, pi, 4.0, rng);
                    g.signature(&a) == g.signature(&b)
                })
                .count()
        };
        let pi1 = count(1, &mut rng);
        let pi8 = count(8, &mut rng);
        assert!(
            pi8 < pi1,
            "pi=8 collisions {pi8} must be rarer than pi=1 {pi1}"
        );
    }

    #[test]
    fn multi_lsh_shape_and_determinism() {
        let ml = MultiLsh::new(3, &params(7, 2, 1.5), 99);
        assert_eq!(ml.layouts(), 7);
        assert_eq!(ml.dim(), 3);
        let p = [0.0, 1.0, -1.0];
        let sigs = ml.signatures(&p);
        assert_eq!(sigs.len(), 7);
        assert!(sigs.iter().all(|s| s.len() == 2));
        let ml2 = MultiLsh::new(3, &params(7, 2, 1.5), 99);
        assert_eq!(ml2.signatures(&p), sigs, "same seed, same layouts");
        let ml3 = MultiLsh::new(3, &params(7, 2, 1.5), 100);
        assert_ne!(
            ml3.signatures(&p),
            sigs,
            "different seed, different layouts"
        );
    }

    #[test]
    fn per_layout_signature_matches_batch() {
        let ml = MultiLsh::new(2, &params(4, 3, 1.0), 7);
        let p = [0.25, 0.75];
        let sigs = ml.signatures(&p);
        for (m, sig) in sigs.iter().enumerate() {
            assert_eq!(&ml.signature(m, &p), sig);
        }
    }

    #[test]
    #[should_panic(expected = "slot width must be positive")]
    fn rejects_zero_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = LshFunction::sample(2, 0.0, &mut rng);
    }

    #[test]
    fn projection_matches_hash_floor() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = LshFunction::sample(3, 2.5, &mut rng);
        let p = [0.3, 1.1, -0.7];
        assert_eq!(h.hash(&p), (h.project(&p) / h.width()).floor() as i64);
    }

    #[test]
    fn bucket_tables_group_identical_points_under_every_layout() {
        // A 10x10 grid, spacing 1.0.
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i / 10) as f64, (i % 10) as f64])
            .collect();
        let multi = MultiLsh::new(2, &params(12, 2, 4.0), 9);
        let tables = bucket_tables(&multi, pts.iter().map(Vec::as_slice));
        assert_eq!(tables.len(), 12);
        for (m, table) in tables.iter().enumerate() {
            // Every point appears exactly once per layout, in its own bucket.
            let total: usize = table.values().map(Vec::len).sum();
            assert_eq!(total, pts.len());
            for (i, p) in pts.iter().enumerate() {
                let sig = multi.signature(m, p);
                assert!(
                    table[&sig].contains(&(i as u32)),
                    "point {i} missing from its layout-{m} bucket"
                );
            }
        }
    }
}

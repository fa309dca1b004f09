//! Property-based tests of the core DP invariants and quality metrics.

use dp_core::block::{ranks, Block, DeltaPartial};
use dp_core::decision::compute_halo_with;
use dp_core::dp::{compute_exact_with, DpResult, NO_UPSLOPE};
use dp_core::index::AUTO_MIN_POINTS;
use dp_core::{compute_exact, decision, quality, Dataset, DistanceTracker, KernelStrategy};
use proptest::prelude::*;
use std::process::Command;

fn dataset_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (1usize..=3, 2usize..=50)
        .prop_flat_map(|(dim, n)| {
            (
                proptest::collection::vec(-100.0f64..100.0, dim * n),
                Just(dim),
                0.1f64..50.0,
            )
        })
        .prop_map(|(flat, dim, dc)| (Dataset::from_flat(dim, flat), dc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rho is bounded by N-1 and symmetric in the pair relation: the
    /// total neighbor count equals twice the number of close pairs.
    #[test]
    fn rho_counts_are_consistent((ds, dc) in dataset_strategy()) {
        let r = compute_exact(&ds, dc);
        let n = ds.len();
        let total: u64 = r.rho.iter().map(|&x| x as u64).sum();
        // Brute-force the pair count.
        let mut pairs = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                if dp_core::distance::euclidean(
                    ds.point(i as u32),
                    ds.point(j as u32),
                ) < dc
                {
                    pairs += 1;
                }
            }
        }
        // Floating borderline pairs must be judged by the same kernel, so
        // compare against the within() predicate instead when they differ.
        let mut pairs_within = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                if dp_core::DistanceKind::Euclidean.within(
                    ds.point(i as u32),
                    ds.point(j as u32),
                    dc,
                ) {
                    pairs_within += 1;
                }
            }
        }
        let _ = pairs;
        prop_assert_eq!(total, 2 * pairs_within);
        prop_assert!(r.rho.iter().all(|&x| (x as usize) < n));
    }

    /// Exactly one absolute peak exists; its delta is the max distance
    /// from it; every other point's upslope is strictly denser.
    #[test]
    fn single_absolute_peak((ds, dc) in dataset_strategy()) {
        let r = compute_exact(&ds, dc);
        let peaks: Vec<usize> = (0..r.len())
            .filter(|&i| r.upslope[i] == NO_UPSLOPE)
            .collect();
        prop_assert_eq!(peaks.len(), 1);
        let p = peaks[0] as u32;
        // The peak maximizes (rho, id) lexicographically.
        for i in 0..r.len() as u32 {
            if i != p {
                prop_assert!(dp_core::dp::denser(r.rho[p as usize], p, r.rho[i as usize], i));
            }
        }
    }

    /// delta_i is realized: d(i, upslope_i) == delta_i, and no denser
    /// point is closer.
    #[test]
    fn delta_is_realized_and_minimal((ds, dc) in dataset_strategy()) {
        let r = compute_exact(&ds, dc);
        for i in 0..r.len() as u32 {
            let u = r.upslope[i as usize];
            if u == NO_UPSLOPE {
                continue;
            }
            let d = dp_core::distance::euclidean(ds.point(i), ds.point(u));
            prop_assert!((d - r.delta[i as usize]).abs() < 1e-9);
            for j in 0..r.len() as u32 {
                if j == i {
                    continue;
                }
                if dp_core::dp::denser(r.rho[j as usize], j, r.rho[i as usize], i) {
                    let dj = dp_core::distance::euclidean(ds.point(i), ds.point(j));
                    prop_assert!(dj >= r.delta[i as usize] - 1e-9);
                }
            }
        }
    }

    /// Scaling all coordinates scales every delta by the same factor and
    /// leaves rho unchanged (with dc scaled too).
    #[test]
    fn dp_is_scale_equivariant((ds, dc) in dataset_strategy(), factor in 0.1f64..10.0) {
        let r1 = compute_exact(&ds, dc);
        let scaled = Dataset::from_flat(
            ds.dim(),
            ds.as_flat().iter().map(|x| x * factor).collect(),
        );
        let r2 = compute_exact(&scaled, dc * factor);
        prop_assert_eq!(&r1.rho, &r2.rho);
        for (a, b) in r1.delta.iter().zip(&r2.delta) {
            prop_assert!((a * factor - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    /// Quality metric ranges.
    #[test]
    fn metric_ranges(
        a in proptest::collection::vec(0u32..5, 2..60),
        seed in any::<u64>(),
    ) {
        // A pseudo-random second labeling of the same length.
        let b: Vec<u32> = a
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed >> (i % 48)) as u32 ^ i as u32) % 5)
            .collect();
        let ari = quality::adjusted_rand_index(&a, &b);
        prop_assert!((-1.0..=1.0 + 1e-12).contains(&ari));
        let nmi = quality::normalized_mutual_information(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&nmi));
        let p = quality::purity(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        let (pr, rc, f1) = quality::pairwise_f1(&a, &b);
        for v in [pr, rc, f1] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    /// tau metrics: identity gives 1; tau1 <= 1 always; tau2 can be
    /// negative only when estimates wildly overshoot.
    #[test]
    fn tau_metric_properties(rho in proptest::collection::vec(0u32..100, 1..50)) {
        prop_assert_eq!(quality::tau1(&rho, &rho), 1.0);
        prop_assert_eq!(quality::tau2(&rho, &rho), 1.0);
        // Underestimates keep tau2 in [0, 1].
        let under: Vec<u32> = rho.iter().map(|&x| x / 2).collect();
        let t2 = quality::tau2(&rho, &under);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&t2));
    }

    /// Normalization maps into the unit box and is idempotent.
    #[test]
    fn normalize_into_unit_box(flat in proptest::collection::vec(-1e6f64..1e6, 4..60)) {
        let dim = 2;
        let flat = &flat[..(flat.len() / dim) * dim];
        let mut ds = Dataset::from_flat(dim, flat.to_vec());
        ds.normalize_min_max();
        for (_, p) in ds.iter() {
            for &x in p {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&x));
            }
        }
        let once = ds.clone();
        ds.normalize_min_max();
        for (a, b) in once.as_flat().iter().zip(ds.as_flat()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// The Gaussian-kernel variant produces a valid rank permutation and
    /// the same absolute peak ordering semantics.
    #[test]
    fn kernel_rank_is_valid((ds, dc) in dataset_strategy()) {
        let k = dp_core::compute_gaussian(&ds, dc);
        let mut ranks = k.result.rho.clone();
        ranks.sort_unstable();
        let expected: Vec<u32> = (0..ds.len() as u32).collect();
        prop_assert_eq!(ranks, expected);
        let abs_peaks = k.result.upslope.iter().filter(|&&u| u == NO_UPSLOPE).count();
        prop_assert_eq!(abs_peaks, 1);
    }

    /// The indexed and row-scan branches agree bit for bit on arbitrary
    /// half-integer lattice data, where duplicates, equal-distance ties and
    /// pairs at exactly `d_c` are common.
    #[test]
    fn indexed_equals_blocked_on_lattice_data(
        dim in 1usize..=4,
        n in 2usize..=80,
        cells in proptest::collection::vec(-8i32..8, 320),
        dc in (0u32..2, 0.1f64..6.0, 1u32..12)
            .prop_map(|(lattice, x, k)| if lattice == 1 { k as f64 * 0.5 } else { x }),
    ) {
        let flat = cells[..n * dim].iter().map(|&c| c as f64 * 0.5).collect();
        assert_branches_agree(&Dataset::from_flat(dim, flat), dc);
    }

    /// select_top_k returns k distinct in-range ids (or all points when
    /// k >= N).
    #[test]
    fn top_k_shape((ds, dc) in dataset_strategy(), k in 1usize..10) {
        let r = compute_exact(&ds, dc);
        let peaks = decision::select_top_k(&r, k);
        prop_assert_eq!(peaks.len(), k.min(ds.len()));
        let set: std::collections::HashSet<_> = peaks.iter().collect();
        prop_assert_eq!(set.len(), peaks.len());
        prop_assert!(peaks.iter().all(|&p| (p as usize) < ds.len()));
    }
}

// ---- differential suite: indexed vs row-scan branches ------------------

/// Exact DP on one branch, with the distance evaluations it charged.
fn exact_on(ds: &Dataset, dc: f64, kernel: KernelStrategy) -> (DpResult, u64) {
    let t = DistanceTracker::new();
    let r = compute_exact_with(ds, dc, &t, kernel);
    (r, t.total())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|d| d.to_bits()).collect()
}

/// Asserts that `compute_exact`, `compute_halo` and the local kernel
/// layer agree bit for bit between the indexed and blocked branches (rho,
/// delta, upslope, halo flags, and every [`Block`] operation).
fn assert_branches_agree(ds: &Dataset, dc: f64) {
    let (blocked, _) = exact_on(ds, dc, KernelStrategy::Blocked);
    let (indexed, _) = exact_on(ds, dc, KernelStrategy::Indexed);
    assert_eq!(indexed.rho, blocked.rho, "rho");
    assert_eq!(bits(&indexed.delta), bits(&blocked.delta), "delta");
    assert_eq!(indexed.upslope, blocked.upslope, "upslope");
    let peaks = decision::select_top_k(&blocked, 3.min(ds.len()));
    let clustering = decision::assign(&blocked, &peaks);
    assert_eq!(
        compute_halo_with(ds, &blocked, &clustering, KernelStrategy::Indexed),
        compute_halo_with(ds, &blocked, &clustering, KernelStrategy::Blocked),
        "halo"
    );
    assert_block_ops_agree(ds, &blocked);
}

/// `(delta bits, upslope, maxd bits)`, with `maxd` kept only where it is
/// defined: for partials left without an upslope.
fn settled(parts: &[DeltaPartial]) -> Vec<(u64, u32, u64)> {
    let maxd = |u, m: f64| if u == NO_UPSLOPE { m.to_bits() } else { 0 };
    parts
        .iter()
        .map(|&(d, u, m)| (d.to_bits(), u, maxd(u, m)))
        .collect()
}

/// Every [`Block`] operation, indexed vs blocked: the first half of the
/// points form the block, the second half the queries, ranked by the exact
/// densities. Capped searches use each query's exact delta as its cap
/// (every third one uncapped), so candidates tie the cap.
fn assert_block_ops_agree(ds: &Dataset, exact: &DpResult) {
    let (dim, n, dc) = (ds.dim(), ds.len() as u32, exact.dc);
    let split = n.div_ceil(2);
    let (block_flat, query_flat) = ds.as_flat().split_at(split as usize * dim);
    let block_ranks = ranks(0..split, &exact.rho);
    let query_ranks = ranks(split..n, &exact.rho);
    let mut caps: Vec<f64> = (split..n).map(|q| exact.delta[q as usize]).collect();
    caps.iter_mut().step_by(3).for_each(|c| *c = f64::INFINITY);
    let members: Vec<usize> = (0..split as usize).step_by(2).collect();
    let run = |kernel| {
        let t = DistanceTracker::new();
        let block = Block::new(block_flat, dim, dc, kernel, &t);
        let mut rho = block.rho();
        let query_rho = block.rho_from(query_flat, &mut rho);
        let member_rho = block.rho_of(&members);
        let with_farthest = block.nearest_denser(&block_ranks, true);
        let mut parts = block.nearest_denser(&block_ranks, false);
        let query_parts =
            block.nearest_denser_across(&block_ranks, &mut parts, query_flat, &query_ranks);
        let capped = block.nearest_denser_capped(&block_ranks, query_flat, &query_ranks, &caps);
        (
            (rho, query_rho, member_rho),
            (settled(&with_farthest), settled(&parts)),
            (settled(&query_parts), settled(&capped)),
        )
    };
    assert_eq!(
        run(KernelStrategy::Indexed),
        run(KernelStrategy::Blocked),
        "block operations"
    );
}

/// A capped search into an empty block (an EDDPC cell whose pivot copies
/// another's owns no points) finds nothing and charges nothing.
#[test]
fn capped_search_into_an_empty_block_finds_nothing() {
    let queries = [0.0, 1.0, 2.0, 3.0];
    let query_ranks = ranks(0..2, &[1, 2]);
    for kernel in [KernelStrategy::Blocked, KernelStrategy::Indexed] {
        let t = DistanceTracker::new();
        let block = Block::new(&[], 2, 1.0, kernel, &t);
        let parts = block.nearest_denser_capped(&[], &queries, &query_ranks, &[f64::INFINITY; 2]);
        assert_eq!(parts, [(f64::INFINITY, NO_UPSLOPE, 0.0); 2], "{kernel:?}");
        assert_eq!(t.total(), 0, "{kernel:?}");
    }
}

/// `n` points in `dim` dimensions spread over four touching Gaussian-ish
/// blobs (xorshift noise), so clusters have borders and the index prunes.
fn blobs(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut ds = Dataset::new(dim);
    let mut p = vec![0.0; dim];
    for i in 0..n {
        for (d, x) in p.iter_mut().enumerate() {
            let center = if d < 2 {
                ((i >> d) & 1) as f64 * 6.0
            } else {
                0.0
            };
            *x = center + (next() + next() + next() - 1.5) * 2.0;
        }
        ds.push(&p);
    }
    ds
}

#[test]
fn branches_agree_on_clustered_data_in_grid_and_kd_dimensions() {
    let n = AUTO_MIN_POINTS + 44;
    for dim in [1, 2, 3, 4, 74] {
        let ds = blobs(n, dim, 11 + dim as u64);
        // A distance quantile, as the CLI picks d_c: some pair ties it.
        let dc = dp_core::cutoff::estimate_dc_exact(&ds, 0.03);
        let index = dp_core::SpatialIndex::build(ds.as_flat(), dim, dc);
        assert_eq!(index.is_grid(), dim <= 3, "dim {dim}: wrong index layout");
        assert_branches_agree(&ds, dc);
    }
}

#[test]
fn branches_agree_on_duplicates() {
    for dim in [2, 4] {
        // 100 distinct points, each three times: every point ties two
        // others at distance 0.
        let base = blobs(100, dim, 5);
        let mut ds = Dataset::new(dim);
        for _ in 0..3 {
            for (_, p) in base.iter() {
                ds.push(p);
            }
        }
        assert_branches_agree(&ds, 0.8);
    }
}

#[test]
fn branches_agree_on_all_identical_points() {
    for dim in [1, 4] {
        let ds = Dataset::from_flat(dim, vec![3.25; dim * AUTO_MIN_POINTS]);
        assert_branches_agree(&ds, 0.5);
        let (r, _) = exact_on(&ds, 0.5, KernelStrategy::Indexed);
        assert!(r.rho.iter().all(|&x| x as usize == AUTO_MIN_POINTS - 1));
        assert!(r.delta.iter().all(|&d| d == 0.0));
    }
}

#[test]
fn branches_agree_on_two_points() {
    for dim in [1, 2, 3, 4, 74] {
        let flat = (0..2 * dim).map(|x| x as f64 * 0.25).collect();
        let ds = Dataset::from_flat(dim, flat);
        for dc in [0.1, 1.0, 100.0] {
            assert_branches_agree(&ds, dc);
        }
    }
}

#[test]
fn branches_agree_at_extreme_magnitudes() {
    // Scaled blobs whose squared distances stay finite (1e150), overflow
    // to infinity (1e200) or underflow to zero (1e-200), with d_c at
    // the same scale; and a d_c whose square underflows to zero.
    let base = blobs(60, 3, 17);
    for scale in [1e150, 1e200, 1e-200] {
        let flat = base.as_flat().iter().map(|x| x * scale).collect();
        assert_branches_agree(&Dataset::from_flat(3, flat), scale);
    }
    assert_branches_agree(&base, 1e-170);
}

#[test]
fn branches_agree_on_collinear_points() {
    // Equal spacing along (1, 2, -1, 0.5): every neighboring pair is at
    // the same distance, so delta ties everywhere.
    let dir = [1.0, 2.0, -1.0, 0.5];
    for dim in [1, 3, 4] {
        let mut ds = Dataset::new(dim);
        for t in 0..300 {
            let p: Vec<f64> = dir[..dim].iter().map(|&v| v * t as f64).collect();
            ds.push(&p);
        }
        let step = dir[..dim].iter().map(|v| v * v).sum::<f64>().sqrt();
        for dc in [step, 2.5 * step] {
            assert_branches_agree(&ds, dc);
        }
    }
}

#[test]
fn branches_agree_on_lattices_with_equal_distance_ties() {
    // Integer lattices with d_c at a lattice distance: pairs tie d_c and
    // many denser points tie as nearest, so the id tie-breaks decide.
    for (dim, side) in [(1, 300), (2, 17), (3, 7), (4, 5)] {
        let mut ds = Dataset::new(dim);
        for k in 0..(side as usize).pow(dim as u32) {
            let p: Vec<f64> = (0..dim)
                .map(|d| ((k / (side as usize).pow(d as u32)) % side as usize) as f64)
                .collect();
            ds.push(&p);
        }
        for dc in [1.0, 2f64.sqrt(), 2.0] {
            assert_branches_agree(&ds, dc);
        }
    }
}

#[test]
fn auto_prunes_distance_evaluations_on_clustered_4d_data() {
    let n = 4 * AUTO_MIN_POINTS;
    let ds = blobs(n, 4, 3);
    let dc = 0.8;
    let (auto, evals) = exact_on(&ds, dc, KernelStrategy::Auto);
    let (indexed, _) = exact_on(&ds, dc, KernelStrategy::Indexed);
    assert_eq!(
        auto, indexed,
        "Auto takes the index at n >= AUTO_MIN_POINTS"
    );
    let all_pairs = 2 * n as u64 * (n as u64 - 1);
    assert!(
        evals < all_pairs,
        "{evals} evaluations, row scan needs {all_pairs}"
    );
    assert_branches_agree(&ds, dc);
}

// ---- the same bits at any pool size ------------------------------------

/// FNV-1a digest of both branches' rho, delta bits, upslope and halo
/// flags on clustered 2-D (grid) and 4-D (kd-tree) data.
fn exact_digest() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for dim in [2, 4] {
        let ds = blobs(600, dim, 9);
        for kernel in [KernelStrategy::Blocked, KernelStrategy::Indexed] {
            let (r, evals) = exact_on(&ds, 0.7, kernel);
            let peaks = decision::select_top_k(&r, 4);
            let halo = compute_halo_with(&ds, &r, &decision::assign(&r, &peaks), kernel);
            eat(evals);
            r.rho.iter().for_each(|&x| eat(x as u64));
            r.delta.iter().for_each(|d| eat(d.to_bits()));
            r.upslope.iter().for_each(|&u| eat(u as u64));
            halo.iter().for_each(|&f| eat(f as u64));
        }
    }
    h
}

#[test]
#[ignore = "helper: spawned as a subprocess with a pinned LSHDDP_THREADS"]
fn helper_print_exact_digest() {
    println!("EXACTDIGEST={:016x}", exact_digest());
}

/// The pool reads `LSHDDP_THREADS` once, so each pool size runs the
/// helper above in its own process of this test binary.
fn digest_with_threads(threads: &str) -> String {
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "helper_print_exact_digest",
            "--include-ignored",
            "--nocapture",
        ])
        .env("LSHDDP_THREADS", threads)
        .output()
        .expect("spawn helper");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "helper failed: {stdout}");
    stdout
        .split("EXACTDIGEST=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("helper printed a digest")
        .to_string()
}

#[test]
fn exact_and_halo_are_identical_across_thread_counts() {
    let here = format!("{:016x}", exact_digest());
    assert_eq!(digest_with_threads("1"), here);
    assert_eq!(digest_with_threads("4"), here);
}

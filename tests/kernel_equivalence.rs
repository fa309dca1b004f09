//! Kernel-strategy equivalence: every distributed pipeline must produce
//! identical `rho` and tie-break-identical (bitwise) `delta`/`upslope`
//! under [`KernelStrategy::Indexed`] as under [`KernelStrategy::Blocked`].
//!
//! This is the contract that makes the spatial-index kernels a pure
//! performance optimization: pruning changes *which distances are
//! evaluated*, never what comes out. The `distances` counters differ
//! between the kernels — shrinking them is the whole point — so each is
//! pinned on its own.

use dp_core::KernelStrategy;
use lsh_ddp::prelude::*;
use proptest::prelude::*;

fn pipe(kernel: KernelStrategy) -> PipelineConfig {
    PipelineConfig {
        kernel,
        ..PipelineConfig::default()
    }
}

/// Asserts the indexed run reproduces the blocked run bit for bit.
fn assert_results_match(blocked: &dp_core::DpResult, indexed: &dp_core::DpResult, tag: &str) {
    assert_eq!(blocked.rho, indexed.rho, "{tag}: rho");
    assert_eq!(blocked.upslope, indexed.upslope, "{tag}: upslope");
    assert_eq!(blocked.delta.len(), indexed.delta.len(), "{tag}: length");
    for (i, (a, b)) in blocked.delta.iter().zip(&indexed.delta).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{tag}: delta[{i}] differs in bits"
        );
    }
}

fn workload() -> Dataset {
    datasets::gaussian_mixture(2, 3, 60, 30.0, 1.0, 23).data
}

const DC: f64 = 1.2;

fn basic(ds: &Dataset, dc: f64, kernel: KernelStrategy) -> ddp::stats::RunReport {
    BasicDdp::new(BasicConfig {
        block_size: 24,
        pipeline: pipe(kernel),
    })
    .run(ds, dc)
}

fn lsh(ds: &Dataset, dc: f64, kernel: KernelStrategy) -> ddp::stats::RunReport {
    LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
        params: lsh::LshParams::for_accuracy(0.97, 6, 3, dc).expect("valid"),
        seed: 13,
        pipeline: pipe(kernel),
        partition_cap: None,
        rho_aggregation: Default::default(),
    })
    .run(ds, dc)
}

fn eddpc(ds: &Dataset, dc: f64, kernel: KernelStrategy) -> ddp::stats::RunReport {
    Eddpc::new(EddpcConfig {
        n_pivots: 10,
        seed: 4,
        pipeline: pipe(kernel),
    })
    .run(ds, dc)
}

#[test]
fn basic_ddp_indexed_matches_blocked() {
    assert_results_match(
        &basic(&workload(), DC, KernelStrategy::Blocked).result,
        &basic(&workload(), DC, KernelStrategy::Indexed).result,
        "basic",
    );
}

#[test]
fn lsh_ddp_indexed_matches_blocked() {
    assert_results_match(
        &lsh(&workload(), DC, KernelStrategy::Blocked).result,
        &lsh(&workload(), DC, KernelStrategy::Indexed).result,
        "lsh-ddp",
    );
}

#[test]
fn eddpc_indexed_matches_blocked() {
    assert_results_match(
        &eddpc(&workload(), DC, KernelStrategy::Blocked).result,
        &eddpc(&workload(), DC, KernelStrategy::Indexed).result,
        "eddpc",
    );
}

/// The per-job `distances` snapshots of every pipeline under each kernel,
/// pinned: a refactor of the local kernels must charge exactly what it
/// evaluates, job by job. EDDPC's blocked `delta-local` charges each of
/// its cell pairs once (2,020 pairs on this workload).
#[test]
fn distance_counts_are_pinned() {
    let per_job = |r: ddp::stats::RunReport| -> Vec<u64> {
        let last = r.jobs.last().and_then(|j| j.user.get("distances"));
        assert_eq!(last, Some(&r.distances), "the last snapshot is the total");
        r.jobs.iter().map(|j| j.user["distances"]).collect()
    };
    let (ds, blocked, indexed) = (workload(), KernelStrategy::Blocked, KernelStrategy::Indexed);
    assert_eq!(
        per_job(basic(&ds, DC, blocked)),
        [16110, 16110, 32220, 32220]
    );
    assert_eq!(per_job(basic(&ds, DC, indexed)), [5000, 5000, 15540, 15540]);
    assert_eq!(per_job(lsh(&ds, DC, blocked)), [20843, 20843, 41686, 41686]);
    assert_eq!(per_job(lsh(&ds, DC, indexed)), [32532, 32532, 49339, 49339]);
    assert_eq!(
        per_job(eddpc(&ds, DC, blocked)),
        [12112, 14132, 19296, 19296]
    );
    assert_eq!(
        per_job(eddpc(&ds, DC, indexed)),
        [8795, 10926, 16313, 16313]
    );
}

/// 200 copies of one point beside a 9×8 integer lattice. The lattice's
/// equal distances test tie-breaking across anchors, partners and the
/// `MinDelta` merge. Most sampled EDDPC pivots are copies of the duplicate,
/// and all but one such cell is left with no owners yet is visited in
/// round 2 by every cell's densest owner.
fn duplicates_beside_a_lattice() -> Dataset {
    let mut ds = Dataset::new(2);
    for _ in 0..200 {
        ds.push(&[0.5, 0.5]);
    }
    for x in 0..9 {
        for y in 0..8 {
            ds.push(&[x as f64, y as f64]);
        }
    }
    ds
}

#[test]
fn all_pipelines_agree_across_kernels_on_duplicates_and_lattice_ties() {
    let ds = duplicates_beside_a_lattice();
    let dc = 1.5;
    type Run = fn(&Dataset, f64, KernelStrategy) -> ddp::stats::RunReport;
    for (tag, run) in [("basic", basic as Run), ("lsh-ddp", lsh), ("eddpc", eddpc)] {
        let blocked = run(&ds, dc, KernelStrategy::Blocked).result;
        assert_results_match(&blocked, &run(&ds, dc, KernelStrategy::Indexed).result, tag);
        if tag != "lsh-ddp" {
            assert_results_match(
                &compute_exact(&ds, dc),
                &blocked,
                &format!("{tag} vs exact"),
            );
        }
    }
}

#[test]
fn reference_paths_honor_the_kernel_strategy_too() {
    // The retained JobBuilder reference paths resolve the same knob, so
    // the plan-equivalence suite stays meaningful under either strategy.
    let ds = workload();
    let dc = 1.2;
    let basic = BasicDdp::new(BasicConfig {
        block_size: 24,
        pipeline: pipe(KernelStrategy::Indexed),
    });
    assert_results_match(
        &basic.run(&ds, dc).result,
        &basic.run_reference(&ds, dc).result,
        "basic plan-vs-reference under indexed",
    );
    let eddpc = Eddpc::new(EddpcConfig {
        n_pivots: 10,
        seed: 4,
        pipeline: pipe(KernelStrategy::Indexed),
    });
    assert_results_match(
        &eddpc.run(&ds, dc).result,
        &eddpc.run_reference(&ds, dc).result,
        "eddpc plan-vs-reference under indexed",
    );
}

/// Strategy: a small random dataset (4–40 points, 1–3 dims) in a bounded
/// box, plus a valid dc. Mirrors the plan-equivalence suite so both the
/// grid fast path (low dim, moderate dc) and the kd-tree get exercised.
fn dataset_strategy() -> impl Strategy<Value = (Dataset, f64)> {
    (1usize..=3, 4usize..=40)
        .prop_flat_map(|(dim, n)| {
            (
                proptest::collection::vec(-30.0f64..30.0, dim * n),
                Just(dim),
                0.5f64..10.0,
            )
        })
        .prop_map(|(flat, dim, dc)| (Dataset::from_flat(dim, flat), dc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Indexed/blocked equivalence for every pipeline on arbitrary small
    /// datasets — duplicates, collinear points, ties and all.
    #[test]
    fn all_pipelines_indexed_matches_blocked_on_random_data((ds, dc) in dataset_strategy()) {
        let basic = |kernel| {
            BasicDdp::new(BasicConfig { block_size: 7, pipeline: pipe(kernel) }).run(&ds, dc)
        };
        let b = basic(KernelStrategy::Blocked).result;
        let i = basic(KernelStrategy::Indexed).result;
        prop_assert_eq!(&b.rho, &i.rho);
        prop_assert_eq!(&b.upslope, &i.upslope);
        for (a, c) in b.delta.iter().zip(&i.delta) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }

        let lsh = |kernel| {
            LshDdp::new(ddp::lsh_ddp::LshDdpConfig {
                params: lsh::LshParams::for_accuracy(0.9, 4, 2, dc).unwrap(),
                seed: 7,
                pipeline: pipe(kernel),
                partition_cap: None,
                rho_aggregation: Default::default(),
            })
            .run(&ds, dc)
        };
        let b = lsh(KernelStrategy::Blocked).result;
        let i = lsh(KernelStrategy::Indexed).result;
        prop_assert_eq!(&b.rho, &i.rho);
        prop_assert_eq!(&b.upslope, &i.upslope);
        for (a, c) in b.delta.iter().zip(&i.delta) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }

        let eddpc = |kernel| {
            Eddpc::new(EddpcConfig { n_pivots: 5, seed: 4, pipeline: pipe(kernel) }).run(&ds, dc)
        };
        let b = eddpc(KernelStrategy::Blocked).result;
        let i = eddpc(KernelStrategy::Indexed).result;
        prop_assert_eq!(&b.rho, &i.rho);
        prop_assert_eq!(&b.upslope, &i.upslope);
        for (a, c) in b.delta.iter().zip(&i.delta) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }
}

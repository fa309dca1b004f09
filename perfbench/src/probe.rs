//! Kernel probe: the LSH-DDP partition-local kernels timed from outside.
//!
//! The normalized points are hashed with `lsh::MultiLsh` at the LSH-DDP
//! parameters and grouped by the first layout's signature. On every
//! partition the probe runs both local-DP kernels the reducers choose
//! between — the spatial index (`SpatialIndex::build`, `range_count_d2`
//! for rho, `nearest_denser_d2` for delta) and the blocked pair loops
//! (`for_each_pair_d2`, one pass for rho and one for delta) — and checks
//! they agree bit for bit.

use crate::report::{Metrics, Tally};
use crate::trace::Tracer;
use crate::{ACCURACY, LSH_M, LSH_PI};
use ddp::lsh_ddp::LshDdp;
use dp_core::{denser, for_each_pair_d2, Dataset, PointId, SpatialIndex, NO_UPSLOPE};
use lsh::{MultiLsh, Signature};
use std::collections::HashMap;

/// Local rho and `(delta, upslope)` of every point of one partition.
type Local = (Vec<u32>, Vec<(f64, PointId)>);

/// Distance evaluations of each kernel, summed over partitions.
#[derive(Default)]
struct Evals {
    indexed: u64,
    blocked: u64,
}

pub fn run(ds: &Dataset, dc: f64, seed: u64, tr: &Tracer, tally: &mut Tally, layer: &mut Metrics) {
    let params = match LshDdp::with_accuracy(ACCURACY, LSH_M, LSH_PI, dc, seed) {
        Ok(d) => d.config().params,
        Err(e) => return tally.check(false, || format!("probe: LSH parameters: {e}")),
    };
    let dim = ds.dim();
    let multi = MultiLsh::new(dim, &params, seed);
    let sigs: Vec<Vec<Signature>> = tr.span("lsh.hash", || {
        ds.iter().map(|(_, p)| multi.signatures(p)).collect()
    });
    layer.put("lsh.hash_s", tr.total_s("lsh.hash"), "s");

    let mut groups: HashMap<&Signature, Vec<PointId>> = HashMap::new();
    for (id, s) in sigs.iter().enumerate() {
        groups.entry(&s[0]).or_default().push(id as PointId);
    }
    let mut partitions: Vec<Vec<PointId>> = groups.into_values().collect();
    partitions.sort_unstable();

    let mut evals = Evals::default();
    let mut mismatched = 0;
    for ids in &partitions {
        let flat: Vec<f64> = ids
            .iter()
            .flat_map(|&i| ds.point(i).iter().copied())
            .collect();
        let indexed = indexed(&flat, dim, dc, ids, tr, &mut evals);
        let blocked = blocked(&flat, dim, dc, ids, tr, &mut evals);
        if indexed != blocked {
            mismatched += 1;
        }
    }
    tally.check(mismatched == 0, || {
        format!("probe: indexed and blocked kernels disagree on {mismatched} partitions")
    });

    let max_pts = partitions.iter().map(Vec::len).max().unwrap_or(0);
    layer.put("dp-core.probe.partitions", partitions.len() as f64, "count");
    layer.put("dp-core.probe.max_partition_pts", max_pts as f64, "count");
    for (metric, span) in [
        ("index_build_s", "dp-core.index_build"),
        ("range_count_s", "dp-core.range_count"),
        ("nearest_denser_s", "dp-core.nearest_denser"),
        ("blocked_s", "dp-core.blocked"),
    ] {
        layer.put(format!("dp-core.probe.{metric}"), tr.total_s(span), "s");
    }
    layer.put("dp-core.probe.indexed_evals", evals.indexed as f64, "count");
    layer.put("dp-core.probe.blocked_evals", evals.blocked as f64, "count");
    // Share of the blocked kernels' distance evaluations the index skips.
    let prune = 1.0 - evals.indexed as f64 / evals.blocked.max(1) as f64;
    layer.put("dp-core.probe.prune_ratio", prune, "ratio");
    layer.put(
        "dp-core.probe.blocked_pairs_per_s",
        evals.blocked as f64 / tr.total_s("dp-core.blocked"),
        "1/s",
    );
}

/// rho by ball counts, delta by best-first search seeded with the next
/// denser point in descending density order — as the LSH-DDP reducers do.
fn indexed(
    flat: &[f64],
    dim: usize,
    dc: f64,
    ids: &[PointId],
    tr: &Tracer,
    evals: &mut Evals,
) -> Local {
    let index = tr.span("dp-core.index_build", || SpatialIndex::build(flat, dim, dc));
    let point = |i: usize| &flat[i * dim..(i + 1) * dim];
    let mut count_evals = 0u64;
    let rho: Vec<u32> = tr.span("dp-core.range_count", || {
        (0..ids.len())
            .map(|i| {
                let (count, e) = index.range_count_d2(point(i), dc * dc);
                count_evals += e;
                count.saturating_sub(1)
            })
            .collect()
    });
    let mut delta = vec![(f64::INFINITY, NO_UPSLOPE); ids.len()];
    let mut search_evals = 0u64;
    tr.span("dp-core.nearest_denser", || {
        let is_denser = |a: usize, b: usize| denser(rho[a], ids[a], rho[b], ids[b]);
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_by(|&a, &b| {
            if is_denser(a, b) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
        for pos in 1..order.len() {
            let (i, prev) = (order[pos], order[pos - 1]);
            let q = point(i);
            let seed_d = dp_core::distance::squared_euclidean(q, point(prev)).sqrt();
            let (best, e) = index.nearest_denser_d2(q, (seed_d, ids[prev]), f64::INFINITY, |j| {
                is_denser(j as usize, i).then_some(ids[j as usize])
            });
            search_evals += e + 1;
            delta[i] = best;
        }
    });
    evals.indexed += count_evals + search_evals;
    (rho, delta)
}

fn blocked(
    flat: &[f64],
    dim: usize,
    dc: f64,
    ids: &[PointId],
    tr: &Tracer,
    evals: &mut Evals,
) -> Local {
    let n = ids.len();
    tr.span("dp-core.blocked", || {
        let mut rho = vec![0u32; n];
        for_each_pair_d2(flat, dim, |i, j, d2| {
            if d2 < dc * dc {
                rho[i] += 1;
                rho[j] += 1;
            }
        });
        let mut delta = vec![(f64::INFINITY, NO_UPSLOPE); n];
        for_each_pair_d2(flat, dim, |i, j, d2| {
            let d = d2.sqrt();
            let i_denser = denser(rho[i], ids[i], rho[j], ids[j]);
            let (slot, cand) = if i_denser { (j, ids[i]) } else { (i, ids[j]) };
            let b = &mut delta[slot];
            if d < b.0 || (d == b.0 && cand < b.1) {
                *b = (d, cand);
            }
        });
        evals.blocked += (n * n.saturating_sub(1)) as u64;
        (rho, delta)
    })
}

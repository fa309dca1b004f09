//! The extensions beyond the paper's core: Gaussian-kernel densities,
//! the spatial-index exact path, and cluster halos.
//!
//! ```sh
//! cargo run --release --example extensions
//! ```

use lsh_ddp::prelude::*;

fn main() {
    // A workload with deep upslope chains: two graded rings (density
    // concentrated toward one side of each ring) plus a compact blob.
    let mut ds = Dataset::new(2);
    let mut truth = Vec::new();
    for (ci, r) in [2.0f64, 7.0].iter().enumerate() {
        for k in 0..180 {
            let u = k as f64 / 180.0;
            let t = u * u * std::f64::consts::TAU;
            ds.push(&[r * t.cos(), r * t.sin()]);
            truth.push(ci as u32);
        }
    }
    for k in 0..120 {
        let t = k as f64 * 0.7;
        let rr = 0.05 * (k as f64).sqrt();
        ds.push(&[15.0 + rr * t.cos(), 15.0 + rr * t.sin()]);
        truth.push(2);
    }
    let dc = 0.9;
    println!("workload: two graded rings + a blob, {} points\n", ds.len());

    // --- 1. Cutoff kernel vs Gaussian kernel on ring-shaped clusters ---
    let cutoff = compute_exact(&ds, dc);
    let cutoff_out = CentralizedStep::new(PeakSelection::TopK(3)).run(&cutoff);
    let kernel = dp_core::compute_gaussian(&ds, dc);
    let kernel_out = CentralizedStep::new(PeakSelection::TopK(3)).run(&kernel.result);
    let ari = dp_core::quality::adjusted_rand_index;
    println!(
        "cutoff kernel (Eq. 1)   ARI vs truth: {:.3}",
        ari(cutoff_out.clustering.labels(), &truth)
    );
    println!(
        "gaussian kernel (§VII)  ARI vs truth: {:.3}   (continuous densities break the\n\
         integer ties that scramble chains on near-uniform manifolds)",
        ari(kernel_out.clustering.labels(), &truth)
    );

    // --- 2. Exact DP on the spatial index (§II-A) ----------------------
    let exact_on = |kernel| {
        let t = DistanceTracker::new();
        let r = dp_core::dp::compute_exact_with(&ds, dc, &t, kernel);
        (r, t.total())
    };
    let (rows, rows_dists) = exact_on(dp_core::KernelStrategy::Blocked);
    let (indexed, indexed_dists) = exact_on(dp_core::KernelStrategy::Indexed);
    assert_eq!(indexed, rows, "the indexed path is bit-identical");
    assert_eq!(indexed.rho, cutoff.rho);
    println!(
        "\nspatial index: {rows_dists} -> {indexed_dists} distance evaluations ({:.1}x fewer)",
        rows_dists as f64 / indexed_dists as f64
    );

    // --- 3. Halo detection --------------------------------------------
    let halo = dp_core::compute_halo(&ds, &kernel.result, &kernel_out.clustering);
    println!(
        "halo points (boundary/noise, original DP paper's core/halo split): {}/{}",
        halo.iter().filter(|&&h| h).count(),
        ds.len()
    );
}

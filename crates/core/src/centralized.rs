//! The centralized final step (paper §III-A Step 3): decision graph, peak
//! selection, and cluster assignment.
//!
//! The `(rho, delta)` sets are tiny compared to the input (the paper notes
//! a billion points fit in ~12 GB), so — exactly like the paper — peak
//! selection and assignment run on the "master" in a single thread, over
//! the result assembled from the distributed jobs.

use dp_core::decision::{Clustering, DecisionGraph};
use dp_core::{decision, DpResult, PointId};
use serde::{Deserialize, Serialize};

/// How density peaks are chosen from the decision graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PeakSelection {
    /// The interactive rectangle: all points with `rho > rho_min` and
    /// `delta > delta_min`. This is the paper's preferred mode — the user
    /// inspects the decision graph and draws the thresholds.
    Threshold {
        /// Minimum density (exclusive).
        rho_min: u32,
        /// Minimum separation (exclusive).
        delta_min: f64,
    },
    /// Automatic: the `k` points with the largest `gamma = rho * delta`.
    TopK(usize),
    /// Oracle-k rectangle: the `k` largest-`delta` points among those
    /// whose density exceeds the `rho_quantile` of all densities.
    ///
    /// This emulates what the paper's interactive user actually does on a
    /// decision graph: isolated outliers also show large `delta` but sit
    /// at the *bottom* of the `rho` axis, so the user's rectangle demands
    /// both coordinates. Preferable to [`PeakSelection::TopK`] when
    /// cluster densities vary widely (the `rho·delta` product then favors
    /// secondary fluctuations inside dense clusters over the true peaks
    /// of sparse ones).
    DeltaOutliers {
        /// Number of peaks to select.
        k: usize,
        /// Density floor as a quantile of all `rho` values (e.g. `0.5`).
        rho_quantile: f64,
    },
    /// Fully automatic: thresholds from
    /// [`DecisionGraph::suggest_thresholds`].
    Auto,
}

/// Result of the centralized step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CentralizedOutput {
    /// The decision graph handed to the user (deltas rectified).
    pub graph: DecisionGraph,
    /// The selected density peaks (cluster centers), ascending by id.
    pub peaks: Vec<PointId>,
    /// The final hard clustering.
    pub clustering: Clustering,
}

/// The peak selection chose no point, so there is nothing to assign to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoPeaks;

impl std::fmt::Display for NoPeaks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("peak selection produced no density peaks")
    }
}

impl std::error::Error for NoPeaks {}

/// Runs the centralized step over a distributed `(rho, delta, upslope)`
/// result.
#[derive(Debug, Clone)]
pub struct CentralizedStep {
    selection: PeakSelection,
}

impl CentralizedStep {
    /// A step with the given selection policy.
    pub fn new(selection: PeakSelection) -> Self {
        CentralizedStep { selection }
    }

    /// Selects peaks and assigns every point to a cluster.
    ///
    /// # Panics
    /// Panics if the selection yields no peaks (nothing to assign to) —
    /// re-run with looser thresholds. [`Self::try_run`] returns that case
    /// as an error instead.
    pub fn run(&self, result: &DpResult) -> CentralizedOutput {
        self.try_run(result)
            .unwrap_or_else(|e| panic!("{e}; loosen the thresholds"))
    }

    /// Selects peaks and assigns every point to a cluster, or returns
    /// [`NoPeaks`] when the selection is empty — as it is when every
    /// density is 0 and the selection needs a positive one.
    pub fn try_run(&self, result: &DpResult) -> Result<CentralizedOutput, NoPeaks> {
        let graph = DecisionGraph::from_result(result);
        let peaks = match &self.selection {
            PeakSelection::Threshold { rho_min, delta_min } => {
                decision::select_by_threshold(result, *rho_min, *delta_min)
            }
            PeakSelection::TopK(k) => decision::select_top_k(result, *k),
            PeakSelection::DeltaOutliers { k, rho_quantile } => {
                assert!(
                    (0.0..1.0).contains(rho_quantile),
                    "rho_quantile must be in [0,1)"
                );
                let mut rhos: Vec<u32> = result.rho.clone();
                rhos.sort_unstable();
                let floor = rhos[((rhos.len() - 1) as f64 * rho_quantile) as usize];
                let mut ids: Vec<_> = graph
                    .points()
                    .iter()
                    .filter(|p| p.rho >= floor.max(1))
                    .collect();
                ids.sort_by(|a, b| {
                    b.delta
                        .partial_cmp(&a.delta)
                        .expect("finite")
                        .then(a.id.cmp(&b.id))
                });
                let mut peaks: Vec<PointId> = ids.iter().take(*k).map(|p| p.id).collect();
                peaks.sort_unstable();
                peaks
            }
            PeakSelection::Auto => {
                let (rho_min, delta_min) = graph.suggest_thresholds();
                decision::select_by_threshold(result, rho_min, delta_min)
            }
        };
        if peaks.is_empty() {
            return Err(NoPeaks);
        }
        let clustering = decision::assign(result, &peaks);
        Ok(CentralizedOutput {
            graph,
            peaks,
            clustering,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{compute_exact, Dataset};

    fn blobs() -> Dataset {
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[i as f64 * 0.1]);
        }
        for i in 0..10 {
            ds.push(&[50.0 + i as f64 * 0.1]);
        }
        ds
    }

    #[test]
    fn top_k_selection_and_assignment() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let out = CentralizedStep::new(PeakSelection::TopK(2)).run(&r);
        assert_eq!(out.peaks.len(), 2);
        assert_eq!(out.clustering.n_clusters(), 2);
        assert_eq!(out.graph.len(), 20);
        assert_eq!(out.clustering.label(0), out.clustering.label(9));
        assert_ne!(out.clustering.label(0), out.clustering.label(10));
    }

    #[test]
    fn auto_selection_finds_two_blobs() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let out = CentralizedStep::new(PeakSelection::Auto).run(&r);
        assert_eq!(
            out.peaks.len(),
            2,
            "largest delta gap separates the two centers"
        );
    }

    #[test]
    fn threshold_selection() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let out = CentralizedStep::new(PeakSelection::Threshold {
            rho_min: 0,
            delta_min: 5.0,
        })
        .run(&r);
        assert_eq!(out.peaks.len(), 2);
    }

    #[test]
    fn all_zero_densities_are_an_error_not_a_panic() {
        let ds = blobs();
        let r = compute_exact(&ds, 1e-20);
        assert!(r.rho.iter().all(|&x| x == 0));
        let step = CentralizedStep::new(PeakSelection::DeltaOutliers {
            k: 2,
            rho_quantile: 0.25,
        });
        assert_eq!(step.try_run(&r).err(), Some(NoPeaks));
    }

    #[test]
    #[should_panic(expected = "no density peaks")]
    fn impossible_threshold_panics() {
        let ds = blobs();
        let r = compute_exact(&ds, 0.35);
        let _ = CentralizedStep::new(PeakSelection::Threshold {
            rho_min: u32::MAX - 1,
            delta_min: f64::MAX,
        })
        .run(&r);
    }
}

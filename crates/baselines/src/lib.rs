//! # baselines — the clustering algorithms DP is compared against
//!
//! The paper's evaluation needs four previous-generation algorithms:
//!
//! * [`kmeans`] — centroid-based; both a sequential Lloyd's loop and a
//!   **MapReduce K-means** whose per-iteration job metrics back the
//!   Figure 11 comparison (K-means iteration time vs. LSH-DDP total);
//! * [`dbscan`] — density-based with `eps`/`min_pts`, the Figure 8 /
//!   Table III comparator configured with `eps = d_c`;
//! * [`em`] — distribution-based: EM for Gaussian mixtures with diagonal
//!   covariance;
//! * [`hierarchical`] — connectivity-based: agglomerative clustering with
//!   single/complete/average linkage via Lance–Williams updates.
//!
//! All fits are deterministic given their seeds.

pub mod dbscan;
pub mod em;
pub mod hierarchical;
pub mod kmeans;

pub use dbscan::{Dbscan, DbscanResult};
pub use em::{EmGmm, EmResult};
pub use hierarchical::{Hierarchical, Linkage};
pub use kmeans::{KMeans, KMeansResult, MapReduceKMeans};

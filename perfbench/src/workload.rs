//! The workloads and their seeded inputs.
//!
//! Why each workload was chosen, and which layer it stresses, is in
//! `perfbench/README.md`. Every workload writes the same three files:
//! the whole data set for the `lshddp cluster` processes, and a seeded
//! 90/10 split of it into the lifecycle's fit set and query set.

use crate::trace::Tracer;
use datasets::PaperDataset;
use dp_core::Dataset;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};

/// Share of the points held out of the fit and served as queries.
const QUERY_SHARE: f64 = 0.1;

pub struct Workload {
    pub dataset: PaperDataset,
    pub scale: f64,
}

/// Looks a workload up by name; `tiny` shrinks it for the smoke test.
pub fn find(name: &str, tiny: bool) -> Result<Workload, String> {
    let (dataset, scale) = match name {
        // 3dspatial analog: 10,872 x 4 at 0.025.
        "spatial-4d" => (PaperDataset::Spatial3d, 0.025),
        // kdd analog: 4,373 x 74 at 0.03.
        "kdd-74d" => (PaperDataset::Kdd, 0.03),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let scale = if tiny { scale / 10.0 } else { scale };
    Ok(Workload { dataset, scale })
}

/// The input files of one repetition.
pub struct Inputs {
    pub points: PathBuf,
    pub fit: PathBuf,
    pub queries: PathBuf,
}

impl Inputs {
    pub fn in_dir(dir: &Path) -> Self {
        Inputs {
            points: dir.join("points.csv"),
            fit: dir.join("fit.csv"),
            queries: dir.join("queries.csv"),
        }
    }
}

/// Generates the workload's points from `seed`, splits them by a seeded
/// shuffle, and writes the three input files into `dir`.
pub fn setup(w: &Workload, seed: u64, dir: &Path, tr: &Tracer) -> Result<Inputs, String> {
    let ld = tr.span("datasets.generate", || w.dataset.generate(w.scale, seed));
    let ds = ld.data;
    let mut order: Vec<u32> = (0..ds.len() as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5350_4c49_5400_0000);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let n_queries = ((ds.len() as f64 * QUERY_SHARE) as usize).max(1);
    let (queries, fit) = order.split_at(n_queries);

    let inputs = Inputs::in_dir(dir);
    let write = |path: &Path, part: &Dataset| {
        tr.span("datasets.write_csv", || {
            datasets::io::write_csv(path, part, None)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(&inputs.points, &ds)?;
    write(&inputs.fit, &ds.subset(fit))?;
    write(&inputs.queries, &ds.subset(queries))?;
    Ok(inputs)
}

//! The traced mirror of one `lshddp cluster --algorithm <a> --normalize
//! --k 15 --seed <seed>` process per algorithm: the same library calls
//! the CLI makes, in process, each wrapped in a span.

use crate::report::{Metrics, Tally};
use crate::trace::Tracer;
use crate::{jobs_wall_s, selection, ACCURACY, DC_PERCENTILE, DC_SAMPLES, LSH_M, LSH_PI};
use ddp::prelude::*;
use ddp::stats::RunReport;
use dp_core::{Dataset, DistanceTracker, DpResult};
use mapreduce::{ClusterSpec, JobMetrics};
use std::path::Path;

/// The algorithms, in the order the timed run starts their processes.
pub const ALGORITHMS: [&str; 4] = ["lsh", "basic", "eddpc", "exact"];

/// What the traced run keeps from the four runs.
pub struct Runs {
    /// The normalized points and their cutoff.
    pub ds: Dataset,
    pub dc: f64,
    pub exact: DpResult,
    pub lsh: DpResult,
}

/// Runs the four algorithms over `points`, checks `basic` and `eddpc`
/// labels equal `exact`'s, and records the per-layer metrics of each.
pub fn run(
    points: &Path,
    out_dir: &Path,
    seed: u64,
    tr: &Tracer,
    tally: &mut Tally,
    layer: &mut Metrics,
) -> Result<Runs, String> {
    let mut labels: Vec<Vec<u32>> = Vec::new();
    let mut results: Vec<DpResult> = Vec::new();
    let mut last = None;
    for a in ALGORITHMS {
        let (ds, dc, result, report) = tr.op(&format!("cluster.{a}"), || {
            run_one(a, points, out_dir, seed, tr, &mut labels, layer)
        })?;
        if let Some(report) = report {
            record_pipeline(a, &report, ds.dim(), layer);
        }
        results.push(result);
        last = Some((ds, dc));
    }
    let exact_labels = &labels[3];
    for (a, l) in ALGORITHMS.iter().zip(&labels).skip(1).take(2) {
        tally.check(l == exact_labels, || {
            let diff = l.iter().zip(exact_labels).filter(|(x, y)| x != y).count();
            format!("traced {a}: {diff} labels differ from exact")
        });
    }
    let (ds, dc) = last.expect("four runs");
    let exact = results.pop().expect("exact ran last");
    let lsh = results.swap_remove(0);
    Ok(Runs { ds, dc, exact, lsh })
}

/// Adjusted Rand index of the `lsh.labels` against the `exact.labels`
/// in `dir`, as the `lshddp cluster` processes wrote them (one label a
/// line).
pub fn lsh_ari(dir: &Path) -> Result<f64, String> {
    let read = |a: &str| -> Result<Vec<u32>, String> {
        let path = dir.join(format!("{a}.labels"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        text.split_whitespace()
            .map(|l| {
                l.parse()
                    .map_err(|_| format!("{}: bad label {l:?}", path.display()))
            })
            .collect()
    };
    let (lsh, exact) = (read("lsh")?, read("exact")?);
    if lsh.len() != exact.len() {
        return Err(format!(
            "{} lsh labels, {} exact labels",
            lsh.len(),
            exact.len()
        ));
    }
    Ok(dp_core::quality::adjusted_rand_index(&lsh, &exact))
}

type RunOut = (Dataset, f64, DpResult, Option<RunReport>);

fn run_one(
    a: &str,
    points: &Path,
    out_dir: &Path,
    seed: u64,
    tr: &Tracer,
    labels: &mut Vec<Vec<u32>>,
    layer: &mut Metrics,
) -> Result<RunOut, String> {
    let mut ds = tr
        .span("datasets.read_csv", || {
            datasets::io::read_csv(points, false)
        })
        .map_err(|e| format!("reading points: {e}"))?
        .data;
    tr.span("dp-core.normalize", || ds.normalize_min_max());
    let dc = tr.span("dp-core.dc_estimate", || {
        dp_core::cutoff::estimate_dc_sampled(&ds, DC_PERCENTILE, DC_SAMPLES, seed)
    });
    let run_span = format!("ddp.{a}.run");
    let report = match a {
        "exact" => None,
        "basic" => Some(tr.span(&run_span, || {
            BasicDdp::new(BasicConfig::default()).run(&ds, dc)
        })),
        "eddpc" => Some(tr.span(&run_span, || {
            Eddpc::new(EddpcConfig::for_size(ds.len(), seed)).run(&ds, dc)
        })),
        _ => {
            let ddp = LshDdp::with_accuracy(ACCURACY, LSH_M, LSH_PI, dc, seed)
                .map_err(|e| format!("LSH parameters: {e}"))?;
            Some(tr.span(&run_span, || ddp.run(&ds, dc)))
        }
    };
    let result = match &report {
        Some(r) => {
            tr.attribute(&run_span, "mapreduce", jobs_wall_s(&r.jobs));
            r.result.clone()
        }
        None => {
            let tracker = DistanceTracker::new();
            let r = tr.span("dp-core.exact", || {
                dp_core::dp::compute_exact_tracked(&ds, dc, &tracker)
            });
            layer.put("dp-core.exact_dists", tracker.total() as f64, "count");
            r
        }
    };
    let outcome = tr.span(&format!("ddp.{a}.centralized"), || {
        CentralizedStep::new(selection()).run(&result)
    });
    let text: String = outcome
        .clustering
        .labels()
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    let path = out_dir.join(format!("traced-{a}.labels"));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    labels.push(outcome.clustering.labels().to_vec());
    Ok((ds, dc, result, report))
}

/// `mapreduce.<a>.*` from the engine's per-stage `JobMetrics`, the cost
/// model's prediction, and `ddp.<a>.*` from the run report.
fn record_pipeline(a: &str, r: &RunReport, dim: usize, layer: &mut Metrics) {
    let sum_s = |f: fn(&JobMetrics) -> f64| r.jobs.iter().map(f).sum::<f64>();
    let p = format!("mapreduce.{a}");
    layer.put(
        format!("{p}.map_s"),
        sum_s(|j| j.map_time.as_secs_f64()),
        "s",
    );
    layer.put(
        format!("{p}.shuffle_s"),
        sum_s(|j| j.shuffle_time.as_secs_f64()),
        "s",
    );
    layer.put(
        format!("{p}.reduce_s"),
        sum_s(|j| j.reduce_time.as_secs_f64()),
        "s",
    );
    layer.put(
        format!("{p}.reduce_task_max_s"),
        sum_s(|j| j.reduce_task_times.max_ns as f64 / 1e9),
        "s",
    );
    layer.put(format!("{p}.shuffle_bytes"), r.shuffle_bytes() as f64, "B");
    layer.put(
        format!("{p}.shuffle_records"),
        r.shuffle_records() as f64,
        "count",
    );
    // Largest reduce task's records over the mean task's, worst stage.
    let skew = r
        .jobs
        .iter()
        .filter(|j| j.shuffle_records > 0 && j.reduce_task_times.tasks > 0)
        .map(|j| {
            let mean = j.shuffle_records as f64 / j.reduce_task_times.tasks as f64;
            j.max_reduce_task_records as f64 / mean
        })
        .fold(0.0, f64::max);
    layer.put(format!("{p}.reduce_skew"), skew, "ratio");
    let dims_factor = (dim as f64 / 4.0).max(1.0);
    layer.put(
        format!("{p}.predicted_s"),
        r.simulate(&ClusterSpec::local_cluster(), dims_factor),
        "s",
    );
    let d = format!("ddp.{a}");
    layer.put(format!("{d}.run_s"), r.wall.as_secs_f64(), "s");
    layer.put(format!("{d}.dists"), r.distances as f64, "count");
}

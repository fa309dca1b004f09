//! `perfbench` — the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` drives it; each subcommand prints one JSON line:
//!
//! ```text
//! perfbench setup     --workload <w> --seed <n> --dir <d> [--tiny]
//! perfbench ari       --dir <d>
//! perfbench lifecycle --seed <n> --dir <d>
//! perfbench trace     --workload <w> --seed <n> --dir <d> [--tiny]
//! ```
//!
//! * `setup` generates one repetition's inputs into `<d>` and reports
//!   `setup_s`;
//! * `ari` reports `lsh_ari` from the `lsh.labels` and `exact.labels`
//!   the `lshddp cluster` processes wrote into `<d>`;
//! * `lifecycle` runs fit, serve, ingest and compact over the inputs,
//!   checks their outputs and reports `fit_s` and `compact_s`;
//! * `trace` runs set-up, the four clustering algorithms and the
//!   lifecycle in process, after a warm-up pass once untraced and once
//!   with a span around every call into a layer, then the kernel probe
//!   and the output checks, and reports the per-layer metrics, the self
//!   time of each layer and the tracing overhead. Spans go to
//!   `<d>/spans.jsonl`.

mod cluster;
mod lifecycle;
mod probe;
mod report;
mod trace;
mod workload;

use ddp::prelude::{CentralizedStep, PeakSelection};
use dp_core::{Clustering, Dataset, DpResult};
use mapreduce::JobMetrics;
use report::{Metrics, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The settings every clustering and fit uses: those of
/// `lshddp cluster --normalize --k 15 --seed <n>` with default flags.
pub const ACCURACY: f64 = 0.99;
pub const LSH_M: usize = 10;
pub const LSH_PI: usize = 3;
pub const DC_PERCENTILE: f64 = 0.02;
pub const DC_SAMPLES: usize = 100_000;

pub fn selection() -> PeakSelection {
    PeakSelection::DeltaOutliers {
        k: 15,
        rho_quantile: 0.25,
    }
}

/// Wall time the engine measured across a pipeline's stages.
pub fn jobs_wall_s(jobs: &[JobMetrics]) -> f64 {
    jobs.iter().map(|j| j.wall_time.as_secs_f64()).sum()
}

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing subcommand")?;
    let mut a = Args {
        cmd,
        workload: String::new(),
        seed: 0,
        dir: PathBuf::new(),
        tiny: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: cannot parse {v:?}"))?;
            }
            "--dir" => a.dir = PathBuf::from(value()?),
            "--tiny" => a.tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.dir.as_os_str().is_empty() {
        return Err("--dir is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(a: &Args) -> Result<String, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut layer = Metrics::default();
    match a.cmd.as_str() {
        "setup" => {
            let w = workload::find(&a.workload, a.tiny)?;
            let t = Instant::now();
            workload::setup(&w, a.seed, &a.dir, &Tracer::new(false))?;
            m.put("setup_s", t.elapsed().as_secs_f64(), "s");
            Ok(m.to_json(&tally))
        }
        "ari" => {
            m.put("lsh_ari", cluster::lsh_ari(&a.dir)?, "ratio");
            Ok(m.to_json(&tally))
        }
        "lifecycle" => {
            let inputs = workload::Inputs::in_dir(&a.dir);
            let tr = Tracer::new(false);
            lifecycle::run(&inputs, &a.dir, a.seed, &tr, &mut tally, &mut m, &mut layer);
            Ok(m.to_json(&tally))
        }
        "trace" => {
            let w = workload::find(&a.workload, a.tiny)?;
            traced(&w, a, &mut tally, &mut layer)?;
            Ok(layer.to_json(&tally))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The timed run's steps in process: set-up, the four clustering
/// algorithms and the lifecycle, in `dir`.
fn steps(
    w: &workload::Workload,
    seed: u64,
    dir: &Path,
    tr: &Tracer,
    tally: &mut Tally,
    layer: &mut Metrics,
) -> Result<(cluster::Runs, Option<lifecycle::Lifecycle>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let inputs = tr.op("setup", || workload::setup(w, seed, dir, tr))?;
    let runs = cluster::run(&inputs.points, dir, seed, tr, tally, layer)?;
    let life = lifecycle::run(
        &inputs,
        dir,
        seed,
        tr,
        tally,
        &mut Metrics::default(),
        layer,
    );
    Ok((runs, life))
}

/// One traced repetition: the steps with the tracer off and then on,
/// after a warm-up pass that pays the process's one-time costs, then
/// the analyses only the traced run makes. Self times cover the traced
/// steps alone, not the analyses.
fn traced(
    w: &workload::Workload,
    a: &Args,
    tally: &mut Tally,
    layer: &mut Metrics,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let untraced = |dir: &str, tally: &mut Tally| -> Result<f64, String> {
        let t = Instant::now();
        steps(
            w,
            a.seed,
            &a.dir.join(dir),
            &off,
            tally,
            &mut Metrics::default(),
        )?;
        Ok(t.elapsed().as_secs_f64())
    };
    untraced("warmup", tally)?;
    let untraced_s = untraced("untraced", tally)?;
    let tr = Tracer::new(true);
    let t = Instant::now();
    let (runs, life) = steps(w, a.seed, &a.dir.join("traced"), &tr, tally, layer)?;
    let traced_s = t.elapsed().as_secs_f64();
    layer.put("trace.traced_wall_s", traced_s, "s");
    layer.put("trace.untraced_wall_s", untraced_s, "s");
    layer.put("trace.overhead_ratio", traced_s / untraced_s, "ratio");
    let timed_ops = tr.ops();

    for (metric, span) in [
        ("datasets.read_csv_s", "datasets.read_csv"),
        ("datasets.generate_s", "datasets.generate"),
        ("dp-core.dc_estimate_s", "dp-core.dc_estimate"),
        ("dp-core.exact_s", "dp-core.exact"),
        ("serve.model_save_s", "serve.model_save"),
        ("serve.model_load_s", "serve.model_load"),
        ("serve.assign_batch_s", "serve.assign_batch"),
        ("ingest.apply_s", "ingest.apply"),
        ("ingest.replay_s", "ingest.replay"),
        ("ingest.compact_s", "ingest.compact"),
    ] {
        layer.put(metric, tr.total_s(span), "s");
    }
    for alg in ["lsh", "basic", "eddpc"] {
        let secs = tr.op_total_s(&format!("cluster.{alg}"), &format!("ddp.{alg}.centralized"));
        layer.put(format!("ddp.{alg}.centralized_s"), secs, "s");
    }

    if let Some(life) = &life {
        // The halo runs inside `ClusterModel::from_run`, in the fit and
        // in the compaction, where the harness cannot wrap it. Running
        // it again on the same inputs times it and checks the models.
        let halo_s = tr.op("halo_check", || check_halos(life, &tr, tally));
        layer.put("dp-core.halo_s", halo_s.0 + halo_s.1, "s");
        tr.attribute("serve.from_run", "dp-core", halo_s.0);
        tr.attribute("ingest.compact", "dp-core", halo_s.1);
        lifecycle::check_compaction(life, &tr, tally);
    }
    tr.op("probe", || {
        probe::run(&runs.ds, runs.dc, a.seed, &tr, tally, layer)
    });
    let (exact, lsh) = (&runs.exact, &runs.lsh);
    layer.put(
        "lsh.tau1",
        dp_core::quality::tau1(&exact.rho, &lsh.rho),
        "ratio",
    );
    let same = exact
        .upslope
        .iter()
        .zip(&lsh.upslope)
        .filter(|(x, y)| x == y)
        .count();
    layer.put(
        "lsh.upslope_match",
        same as f64 / exact.len() as f64,
        "ratio",
    );

    let self_times = tr.self_times(timed_ops);
    for l in LAYERS {
        let secs = self_times.get(l).copied().unwrap_or(0.0);
        layer.put(format!("{l}.self_s"), secs, "s");
    }
    let spans = a.dir.join("spans.jsonl");
    tr.write_json(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))
}

/// Layers the harness calls directly in the timed steps, and its own
/// `bench` layer. `lsh` runs only inside the pipelines' map tasks, so it
/// has no self time of its own there.
const LAYERS: [&str; 7] = [
    "datasets",
    "dp-core",
    "mapreduce",
    "ddp",
    "serve",
    "ingest",
    "bench",
];

/// Recomputes the fit's and the compaction's halo flags, checks them
/// against both models, and returns the seconds each took.
fn check_halos(life: &lifecycle::Lifecycle, tr: &Tracer, tally: &mut Tally) -> (f64, f64) {
    let mut halo = |ds: &Dataset,
                    result: &DpResult,
                    clustering: &Clustering,
                    model: &serve::ClusterModel,
                    what: &str| {
        let t = Instant::now();
        let flags = tr.span("dp-core.halo", || {
            dp_core::compute_halo(ds, result, clustering)
        });
        let secs = t.elapsed().as_secs_f64();
        tally.check(flags == model.halos(), || {
            format!("halo flags differ from the {what} model's")
        });
        secs
    };
    let fit = halo(
        &life.fit_ds,
        &life.fit_result,
        &life.fit_clustering,
        &life.model,
        "fitted",
    );
    let compacted = CentralizedStep::new(selection()).run(&life.compacted_result);
    let compact = halo(
        &life.live,
        &life.compacted_result,
        &compacted.clustering,
        &life.compacted,
        "compacted",
    );
    (fit, compact)
}

//! The model lifecycle: fit a `ClusterModel`, serve the held-out queries,
//! ingest WAL-backed insert/delete batches, and compact under a memory
//! budget — the calls a service built on the library makes.
//!
//! Queries are the held-out 10% of the same un-normalized points the
//! model is fit on, so they sit in the model's coordinate space and
//! in-distribution. Each is distinct and the response cache is off, so
//! every answer is computed.

use crate::report::{Metrics, Tally};
use crate::trace::Tracer;
use crate::workload::Inputs;
use crate::{jobs_wall_s, selection, ACCURACY, DC_PERCENTILE, DC_SAMPLES, LSH_M, LSH_PI};
use ddp::lsh_ddp::{LshDdp, LshDdpConfig};
use ddp::prelude::{CentralizedStep, PipelineConfig};
use dp_core::{Clustering, Dataset, DpResult};
use ingest::{DeltaOp, IngestConfig, IngestSession};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serve::{Assignment, ClusterModel, Exactness, QueryEngine, Server, ServerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Closed-loop clients, one per core of the reference machine.
const CLIENTS: usize = 2;
/// Server worker threads.
const SERVER_THREADS: usize = 2;
/// Fewest queries one repetition submits: the query set is replayed in
/// passes until this many are sent. At least 1,000 puts 10 latencies
/// beyond p99; more spreads the loop over time, which steadies p99
/// against short stalls of the machine.
const MIN_QUERIES: usize = 3_000;
/// Requests that wait longer than this in the server queue are shed and
/// count as failed.
const DEADLINE: Duration = Duration::from_secs(1);
/// The ingest sequence: batches of inserts (held-out points) and deletes
/// (seeded non-peak base points), each logged and fsynced before it is
/// acknowledged.
const BATCHES: usize = 48;
const INSERTS_PER_BATCH: usize = 8;
const DELETES_PER_BATCH: usize = 4;
/// Compaction's memory budget, in copies of the live point records. The
/// first LSH-DDP stage shuffles one copy per layout (`LSH_M` = 10), so
/// a budget of two copies sits below the unbudgeted peak and the
/// refit spills.
const BUDGET_COPIES: u64 = 2;

/// What the traced run inspects after a lifecycle.
pub struct Lifecycle {
    pub fit_ds: Dataset,
    pub fit_result: DpResult,
    pub fit_clustering: Clustering,
    pub model: ClusterModel,
    /// Live points right before compaction, the refit's result and the
    /// compacted model.
    pub live: Dataset,
    pub compacted_result: DpResult,
    pub compacted: ClusterModel,
}

/// Runs fit, serve, ingest and compact over the files in `inputs`,
/// recording the end-to-end metrics into `m` and per-layer ones into
/// `layer`. `None` when a step failed in a way later steps depend on.
pub fn run(
    inputs: &Inputs,
    dir: &Path,
    seed: u64,
    tr: &Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
    layer: &mut Metrics,
) -> Option<Lifecycle> {
    let model_path = dir.join("model.bin");
    let model_path = model_path.to_str().expect("utf-8 work dir");

    // Fit: CSV to a saved model.
    let t = Instant::now();
    let fit = tr.op("fit", || -> Result<_, String> {
        let ds = tr
            .span("datasets.read_csv", || {
                datasets::io::read_csv(&inputs.fit, false)
            })
            .map_err(|e| format!("reading fit set: {e}"))?
            .data;
        let dc = tr.span("dp-core.dc_estimate", || {
            dp_core::cutoff::estimate_dc_sampled(&ds, DC_PERCENTILE, DC_SAMPLES, seed)
        });
        let ddp = LshDdp::with_accuracy(ACCURACY, LSH_M, LSH_PI, dc, seed)
            .map_err(|e| format!("LSH parameters: {e}"))?;
        let params = ddp.config().params;
        let report = tr.span("ddp.lsh.run", || ddp.run(&ds, dc));
        tr.attribute("ddp.lsh.run", "mapreduce", jobs_wall_s(&report.jobs));
        let outcome = tr.span("ddp.lsh.centralized", || {
            CentralizedStep::new(selection()).run(&report.result)
        });
        let model = tr.span("serve.from_run", || {
            ClusterModel::from_run(&ds, &report, &outcome, &params, seed)
        });
        tr.span("serve.model_save", || model.save(model_path))
            .map_err(|e| format!("saving model: {e}"))?;
        Ok((ds, report.result, outcome.clustering, model))
    });
    let fit_s = t.elapsed().as_secs_f64();
    let (fit_ds, fit_result, fit_clustering, model) = match fit {
        Ok(f) => f,
        Err(e) => {
            tally.check(false, || format!("fit: {e}"));
            return None;
        }
    };
    tally.check(true, String::new);
    m.put("fit_s", fit_s, "s");
    layer.put(
        "serve.model_bytes",
        std::fs::metadata(model_path).map_or(0.0, |md| md.len() as f64),
        "B",
    );

    let queries = match datasets::io::read_csv(&inputs.queries, false) {
        Ok(ld) => ld.data.as_flat().to_vec(),
        Err(e) => {
            tally.check(false, || format!("reading queries: {e}"));
            return None;
        }
    };
    serve_queries(&model, model_path, &queries, tr, tally, layer);

    // Ingest: one WAL-backed session applies the whole batch sequence.
    let wal = dir.join("ingest.wal");
    let _ = std::fs::remove_file(&wal);
    let config = IngestConfig {
        pipeline: PipelineConfig::default(),
        selection: selection(),
    };
    let batches = ingest_batches(&model, &queries, seed);
    let mut session = match tr.span("ingest.open", || {
        IngestSession::with_wal(&model, config.clone(), &wal)
    }) {
        Ok((s, _)) => s,
        Err(e) => {
            tally.check(false, || format!("opening ingest session: {e}"));
            return None;
        }
    };
    tr.op("ingest", || {
        for (i, ops) in batches.iter().enumerate() {
            let r = tr.span("ingest.apply", || session.apply(ops.clone()));
            if let Err(e) = r {
                tally.fail(format!("ingest batch {i}: {e}"));
            }
            tally.attempted += 1;
        }
    });
    drop(session);
    layer.put(
        "ingest.wal_bytes",
        std::fs::metadata(&wal).map_or(0.0, |md| md.len() as f64),
        "B",
    );

    // Compact: reopen from the WAL, refit under a budget, save, retire.
    let dim = model.dim() as u64;
    let budget = BUDGET_COPIES * model.len() as u64 * (8 + 8 * dim);
    let config = IngestConfig {
        pipeline: PipelineConfig {
            mem_budget: Some(budget),
            ..PipelineConfig::default()
        },
        selection: selection(),
    };
    let compact_path = dir.join("compacted.bin");
    let compact_path = compact_path.to_str().expect("utf-8 work dir");
    let t = Instant::now();
    let compacted = tr.op("compact", || -> Result<_, String> {
        let (mut session, replayed) = tr
            .span("ingest.replay", || {
                IngestSession::with_wal(&model, config, &wal)
            })
            .map_err(|e| format!("reopening from the WAL: {e}"))?;
        if replayed != batches.len() {
            return Err(format!("replayed {replayed} of {} batches", batches.len()));
        }
        let live = session.live_dataset();
        let compaction = tr.span("ingest.compact", || session.compact());
        tr.attribute(
            "ingest.compact",
            "mapreduce",
            jobs_wall_s(&compaction.report.jobs),
        );
        tr.span("serve.model_save", || compaction.model.save(compact_path))
            .map_err(|e| format!("saving compacted model: {e}"))?;
        tr.span("ingest.retire_wal", || session.retire_wal())
            .map_err(|e| format!("retiring the WAL: {e}"))?;
        Ok((live, compaction))
    });
    let compact_s = t.elapsed().as_secs_f64();
    let (live, compaction) = match compacted {
        Ok(c) => c,
        Err(e) => {
            tally.check(false, || format!("compact: {e}"));
            return None;
        }
    };
    tally.check(true, String::new);
    m.put("compact_s", compact_s, "s");
    layer.put(
        "mapreduce.compact.spill_bytes",
        compaction.report.spill_bytes() as f64,
        "B",
    );
    layer.put(
        "mapreduce.compact.stall_s",
        compaction.report.backpressure_stall_ns() as f64 / 1e9,
        "s",
    );
    Some(Lifecycle {
        fit_ds,
        fit_result,
        fit_clustering,
        model,
        live,
        compacted_result: compaction.report.result,
        compacted: compaction.model,
    })
}

/// Loads the saved model back, then drives every query through a
/// `serve::Server` from closed-loop clients and checks each answer
/// against `QueryEngine::assign_batch` on the same model.
fn serve_queries(
    model: &ClusterModel,
    model_path: &str,
    queries: &[f64],
    tr: &Tracer,
    tally: &mut Tally,
    layer: &mut Metrics,
) {
    tr.op("serve", || {
        let loaded = tr.span("serve.model_load", || ClusterModel::load(model_path));
        let loaded_equal = matches!(&loaded, Ok(l) if l == model);
        tally.check(loaded_equal, || {
            "saved model does not load back equal".into()
        });
        let engine = tr.span("serve.engine_build", || {
            QueryEngine::with_exactness(model.clone(), Exactness::Hybrid)
        });
        let expected = tr.span("serve.assign_batch", || engine.assign_batch(queries));
        let fallbacks = expected.iter().filter(|a| a.fallback).count();
        layer.put(
            "serve.fallback_ratio",
            fallbacks as f64 / expected.len().max(1) as f64,
            "ratio",
        );

        let server = Server::start(
            engine,
            ServerConfig {
                threads: SERVER_THREADS,
                cache_capacity: 0,
                deadline: Some(DEADLINE),
                ..ServerConfig::default()
            },
        );
        let (latencies, bad, wall) = tr.span("serve.closed_loop", || {
            closed_loop(&server, queries, model.dim(), &expected)
        });
        server.shutdown();

        tally.attempted += latencies.len() as u64;
        for b in bad {
            tally.check(false, || b);
        }
        // Throughput and client p99 of this loop, like the fsync-bound
        // ingest, swing with the machine's scheduling and disk noise by
        // more than any usable bound, so they are reported, not gated.
        layer.put("serve.qps", latencies.len() as f64 / wall, "1/s");
        layer.put("serve.p99_us", percentile(latencies, 0.99) / 1e3, "us");
    });
}

/// `CLIENTS` threads, each submitting its share of the query passes one
/// at a time. Returns the latencies (ns) of correct answers, one message
/// per failed query, and the loop's wall time in seconds.
fn closed_loop(
    server: &Server,
    queries: &[f64],
    dim: usize,
    expected: &[Assignment],
) -> (Vec<u64>, Vec<String>, f64) {
    let n = expected.len();
    let total = n * MIN_QUERIES.div_ceil(n);
    let t = Instant::now();
    let per_client: Vec<(Vec<u64>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(total / CLIENTS + 1);
                    let mut bad = Vec::new();
                    for k in (c..total).step_by(CLIENTS) {
                        let i = k % n;
                        let q = &queries[i * dim..(i + 1) * dim];
                        let sent = Instant::now();
                        match client.assign(q) {
                            Ok(a) if a == expected[i] => lat.push(sent.elapsed().as_nanos() as u64),
                            Ok(a) => bad.push(format!(
                                "query {i}: server answered {a:?}, engine {:?}",
                                expected[i]
                            )),
                            Err(e) => bad.push(format!("query {i}: {e}")),
                        }
                    }
                    (lat, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let (mut lat, mut bad) = (Vec::new(), Vec::new());
    for (l, b) in per_client {
        lat.extend(l);
        bad.extend(b);
    }
    (lat, bad, wall)
}

/// Nearest-rank percentile; NaN for no samples.
fn percentile(mut v: Vec<u64>, p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The fixed ingest sequence: each batch inserts the next held-out
/// points and deletes distinct seeded base points that are not peaks, so
/// no batch can empty a cluster.
fn ingest_batches(model: &ClusterModel, queries: &[f64], seed: u64) -> Vec<Vec<DeltaOp>> {
    let dim = model.dim();
    let nq = queries.len() / dim;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x494e_4745_5354_0000);
    let mut deletable: Vec<u64> = (0..model.len() as u32)
        .filter(|id| !model.peaks().contains(id))
        .map(u64::from)
        .collect();
    let mut next_query = 0;
    (0..BATCHES)
        .map(|_| {
            let mut ops = Vec::with_capacity(INSERTS_PER_BATCH + DELETES_PER_BATCH);
            for _ in 0..INSERTS_PER_BATCH {
                let i = next_query % nq;
                next_query += 1;
                ops.push(DeltaOp::Insert(queries[i * dim..(i + 1) * dim].to_vec()));
            }
            for _ in 0..DELETES_PER_BATCH.min(deletable.len()) {
                let j = rng.random_range(0..deletable.len());
                ops.push(DeltaOp::Delete(deletable.swap_remove(j)));
            }
            ops
        })
        .collect()
}

/// Refits from scratch over the live points compaction saw and checks
/// the compacted model equals it.
pub fn check_compaction(life: &Lifecycle, tr: &Tracer, tally: &mut Tally) {
    let model = &life.model;
    let fresh = tr.op("refit_check", || {
        let ddp = LshDdp::new(LshDdpConfig {
            params: *model.params(),
            seed: model.seed(),
            pipeline: PipelineConfig::default(),
            rho_aggregation: Default::default(),
            partition_cap: None,
        });
        let report = tr.span("ddp.lsh.run", || ddp.run(&life.live, model.dc()));
        tr.attribute("ddp.lsh.run", "mapreduce", jobs_wall_s(&report.jobs));
        let outcome = tr.span("ddp.lsh.centralized", || {
            CentralizedStep::new(selection()).run(&report.result)
        });
        tr.span("serve.from_run", || {
            ClusterModel::from_run(&life.live, &report, &outcome, model.params(), model.seed())
                .with_version(life.compacted.version())
        })
    });
    tally.check(fresh == life.compacted, || {
        "compacted model differs from a fresh fit over the same live points".into()
    });
}

//! The traced run: the library calls each `dbs` command makes, in the
//! same order, made in-process with an enabled `Recorder` and timed one by
//! one (wall time and process CPU time), at one thread and at all cores.
//!
//! The only call `dbs` does not make is a merge-loop-only
//! `partitioned_cluster_obs` on `cluster_4d`'s sample, which splits
//! `sample_fed_cluster_obs` into its merge loop and its map-back.

use std::num::NonZeroUsize;
use std::path::Path;
use std::time::Instant;

use dbs_cluster::{
    partitioned_cluster_obs, sample_fed_cluster_obs, sample_target_size, HierarchicalConfig, NOISE,
};
use dbs_core::io::read_text;
use dbs_core::obs::{Counter, Recorder};
use dbs_core::rng::{seeded, sub_seed};
use dbs_core::shard::{write_shards_with, DEFAULT_SHARD_POINTS};
use dbs_core::{par, BoundingBox, Dataset, MinMaxScaler, PointSource, ShardedSource};
use dbs_density::{DensitySketch, EstimatorKind, EstimatorSpec, SketchConfig};
use dbs_outlier::{approx_outliers_obs, ApproxConfig, DbOutlierParams};
use dbs_sampling::{density_biased_sample_obs, one_pass_biased_sample_obs, BiasedConfig};
use rand::Rng;

use crate::checks::{self, Checks, ClusterResult, Ledger, StreamResult};
use crate::workload::{self, Kind, Workload};
use crate::{stats, sys, Metric, Outcome};

/// The timed layers, as reported (each as `_s`, `_1t_s` and `_cpu_s`).
/// A layer a workload does not call reports the cost of its empty span.
const LAYERS: [&str; 9] = [
    "core.io.read_text",
    "core.shard.write",
    "core.normalize.fit",
    "density.fit",
    "density.sketch.ingest",
    "sampling.sample",
    "cluster.merge",
    "cluster.map_back",
    "outlier.detect",
];

/// Spans of the calls a `dbs` query makes (not the set-up, and not the
/// extra merge-loop-only call): their sum is the traced query time.
const QUERY_SPANS: [&str; 8] = [
    "core.shard.open",
    "core.normalize.fit",
    "density.fit",
    "density.sketch.ingest",
    "sampling.sample",
    "cluster.sample_fed",
    "outlier.detect",
    "core.shard.select",
];

/// Recorder counters reported per layer, by metric name.
const COUNTERS: [(&str, Counter); 21] = [
    ("core.shard.chunk_reads", Counter::ShardChunkReads),
    ("core.shard.bytes_mapped", Counter::ShardBytesMapped),
    ("core.scan.dataset_passes", Counter::DatasetPasses),
    ("density.agrid_cell_touches", Counter::AgridCellTouches),
    ("density.kde_kernel_evals", Counter::KdeKernelEvals),
    ("density.batch_tiles", Counter::BatchTiles),
    (
        "density.grid_candidate_visits",
        Counter::GridCandidateVisits,
    ),
    ("density.sketch_updates", Counter::SketchUpdates),
    ("density.ball.mc_samples", Counter::BallSamples),
    ("sampling.clip_events", Counter::SamplerClipEvents),
    (
        "sampling.reservoir_replacements",
        Counter::ReservoirReplacements,
    ),
    ("cluster.heap_pops", Counter::HeapPops),
    ("cluster.heap_stale_pops", Counter::HeapStalePops),
    ("cluster.merges", Counter::ClusterMerges),
    ("cluster.candidate_hits", Counter::CandidateHits),
    ("cluster.candidate_rebuilds", Counter::CandidateRebuilds),
    ("cluster.partition_pre_merges", Counter::PartitionPreMerges),
    ("cluster.map_back_dist_evals", Counter::MapBackDistEvals),
    ("spatial.rep_index_queries", Counter::RepIndexQueries),
    ("outlier.verify_dist_evals", Counter::VerifyDistanceEvals),
    ("outlier.prefilter_skips", Counter::PrefilterSkips),
];

/// Wall and CPU seconds per named span.
#[derive(Default)]
struct Spans(Vec<(&'static str, f64, f64)>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (wall, cpu) = (Instant::now(), sys::process_cpu());
        let out = f();
        let cpu = (sys::process_cpu() - cpu).as_secs_f64();
        self.0.push((name, wall.elapsed().as_secs_f64(), cpu));
        out
    }

    fn get(&self, name: &str) -> Option<(f64, f64)> {
        self.0.iter().find(|s| s.0 == name).map(|s| (s.1, s.2))
    }
}

/// One traced pipeline execution.
struct Traced {
    spans: Spans,
    counters: Vec<u64>,
    n: usize,
    sample_size: usize,
    found: usize,
}

impl Traced {
    /// Wall and CPU seconds of a reported layer.
    fn layer(&self, name: &str) -> (f64, f64) {
        self.spans.get(name).expect("every layer has a span")
    }

    fn query_wall(&self) -> f64 {
        QUERY_SPANS
            .iter()
            .filter_map(|s| self.spans.get(s))
            .map(|(w, _)| w)
            .sum()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the workload's import and query through the library, checking the
/// outputs into `c` as the end-to-end run checks the command's.
fn pipeline(
    w: &Workload,
    text: &Path,
    shards: &Path,
    threads: NonZeroUsize,
    c: &mut Checks,
) -> Result<Traced, String> {
    let rec = Recorder::enabled();
    let mut t = Spans::default();
    let unit = BoundingBox::unit(w.input.dim);

    // `dbs convert`: parse the text, write the shards.
    let data = t
        .time("core.io.read_text", || read_text(text))
        .map_err(err)?;
    let _ = std::fs::remove_dir_all(shards);
    std::fs::create_dir_all(shards).map_err(err)?;
    t.time("core.shard.write", || {
        write_shards_with(shards, &data, 0, DEFAULT_SHARD_POINTS)
    })
    .map_err(err)?;
    drop(data);
    crate::flush(shards).map_err(err)?;

    // The query: open, fit the scaler, then the workload's layers.
    let src = t
        .time("core.shard.open", || ShardedSource::open(shards))
        .map_err(err)?;
    let scaler = t
        .time("core.normalize.fit", || {
            MinMaxScaler::fit_source(&src, threads)
        })
        .map_err(err)?;
    let scaled = scaler.scaled(&src).map_err(err)?;
    let (mut sample_size, mut found) = (0, 0);
    match w.kind {
        Kind::Cluster4d => {
            let est = t
                .time("density.fit", || {
                    let spec = EstimatorSpec::parse("agrid:8")?;
                    spec.with_seed(0).with_domain(unit).fit(&scaled)
                })
                .map_err(err)?;
            let target = sample_target_size(scaled.len(), workload::SAMPLE_FRAC).map_err(err)?;
            let cfg = BiasedConfig::new(target, 1.0)
                .with_seed(0)
                .with_parallelism(threads);
            let (s, _) = t
                .time("sampling.sample", || {
                    density_biased_sample_obs(&scaled, &*est, &cfg, &rec)
                })
                .map_err(err)?;
            sample_size = s.len();
            let hc = HierarchicalConfig::paper_defaults(10).with_parallelism(threads);
            t.time("cluster.merge", || {
                partitioned_cluster_obs(s.points(), &hc, &Recorder::disabled())
            })
            .map_err(err)?;
            let clustering = t
                .time("cluster.sample_fed", || {
                    sample_fed_cluster_obs(&scaled, s.points(), &hc, &rec)
                })
                .map_err(err)?;
            let result = ClusterResult {
                n: clustering.assignments.len(),
                noise: clustering
                    .assignments
                    .iter()
                    .filter(|&&a| a == NOISE)
                    .count(),
                clusters: clustering
                    .clusters
                    .iter()
                    .map(|cl| {
                        let mut mean = cl.mean.clone();
                        scaler.inverse_point(&mut mean);
                        (cl.members.len(), mean)
                    })
                    .collect(),
            };
            checks::check_clusters(&w.input, &result, c);
            let (merge, fed) = (t.get("cluster.merge"), t.get("cluster.sample_fed"));
            let (merge, fed) = (merge.expect("timed"), fed.expect("timed"));
            t.0.push(("cluster.map_back", fed.0 - merge.0, fed.1 - merge.1));
        }
        Kind::Outliers3d => {
            let est = t
                .time("density.fit", || {
                    EstimatorSpec::kde(1000)
                        .with_seed(0)
                        .with_domain(unit)
                        .fit(&scaled)
                })
                .map_err(err)?;
            let params =
                DbOutlierParams::new(workload::RADIUS, workload::NEIGHBOURS).map_err(err)?;
            let mut cfg = ApproxConfig::new(params);
            cfg.seed = 0;
            cfg.parallelism = threads;
            let report = t
                .time("outlier.detect", || {
                    approx_outliers_obs(&scaled, &*est, &cfg, &rec)
                })
                .map_err(err)?;
            t.time("core.shard.select", || src.select(&report.outliers, &rec))
                .map_err(err)?;
            found = report.outliers.len();
            w.check_outliers(&report.outliers, c);
        }
        Kind::Stream16d => {
            let EstimatorKind::Sketch { grids, slots } =
                EstimatorSpec::parse("sketch").map_err(err)?.kind
            else {
                unreachable!("the sketch spec parses to a sketch");
            };
            let sketch_cfg = SketchConfig {
                grids,
                slots,
                resolution: None,
                domain: Some(unit),
                seed: 0,
            };
            let (sketch, reservoir) = t.time("density.sketch.ingest", || {
                ingest(&scaled, &sketch_cfg, workload::STREAM_RESERVOIR, &rec)
            })?;
            let cfg = BiasedConfig::new(workload::STREAM_SIZE, 1.0)
                .with_seed(0)
                .with_parallelism(threads);
            let (s, _) = t
                .time("sampling.sample", || {
                    one_pass_biased_sample_obs(&scaled, &sketch, &cfg, &rec)
                })
                .map_err(err)?;
            sample_size = s.len();
            let (sample, reservoir) = t
                .time("core.shard.select", || {
                    Ok::<_, dbs_core::Error>((
                        src.select(s.source_indices(), &rec)?,
                        src.select(&reservoir, &rec)?,
                    ))
                })
                .map_err(err)?;
            let rows = |d: &Dataset| d.iter().map(|p| p.to_vec()).collect();
            let result = StreamResult {
                sample: rows(&sample),
                reservoir: rows(&reservoir),
            };
            w.check_stream(&result, c);
        }
    }
    for name in LAYERS {
        if t.get(name).is_none() {
            t.time(name, || ());
        }
    }
    Ok(Traced {
        spans: t,
        counters: Counter::ALL.iter().map(|&k| rec.counter(k)).collect(),
        n: scaled.len(),
        sample_size,
        found,
    })
}

/// The fused ingest pass of `dbs stream`: one serial scan updating the
/// sketch and an Algorithm R reservoir on the seed's sub-stream 1.
/// Returns the sketch and the reservoir's row indices, ascending.
fn ingest<S: PointSource + ?Sized>(
    src: &S,
    cfg: &SketchConfig,
    size: usize,
    rec: &Recorder,
) -> Result<(DensitySketch, Vec<usize>), String> {
    let mut sketch = DensitySketch::new(src.dim(), cfg).map_err(err)?;
    let mut rng = seeded(sub_seed(cfg.seed, 1));
    let mut reservoir: Vec<usize> = Vec::with_capacity(size);
    let mut bad = None;
    rec.add(Counter::DatasetPasses, 1);
    src.scan(&mut |i, p| {
        if bad.is_some() {
            return;
        }
        if let Err(e) = sketch.update(p) {
            bad = Some(e);
            return;
        }
        if i < size {
            reservoir.push(i);
        } else {
            let slot = rng.gen_range(0..=i);
            if slot < size {
                reservoir[slot] = i;
                rec.add(Counter::ReservoirReplacements, 1);
            }
        }
    })
    .map_err(err)?;
    if let Some(e) = bad {
        return Err(err(e));
    }
    rec.add(Counter::SketchUpdates, sketch.points_ingested());
    reservoir.sort_unstable();
    Ok((sketch, reservoir))
}

/// Rounds of (traced pipeline at one thread, at all cores, untraced query
/// at the default thread count) until `seconds` have passed. Every
/// counter must repeat exactly across thread counts and rounds.
pub fn run(w: &Workload, dbs: &Path, dir: &Path, seconds: f64) -> Result<Outcome, String> {
    let text = dir.join("input.txt");
    let shards = dir.join("shards");
    let out = dir.join("out");
    let all = par::available_parallelism();
    let one = NonZeroUsize::MIN;
    let mut ledger = Ledger::default();
    let mut reference: Option<Vec<u64>> = None;
    let (mut traced_1t, mut traced_all, mut query) = (vec![], vec![], vec![]);
    let start = Instant::now();
    loop {
        let round = Instant::now();
        for threads in [one, all] {
            let mut c = Checks::default();
            match pipeline(w, &text, &shards, threads, &mut c) {
                Ok(t) => {
                    let want = reference.get_or_insert_with(|| t.counters.clone());
                    let diff: Vec<&str> = Counter::ALL
                        .iter()
                        .zip(want.iter().zip(&t.counters))
                        .filter(|(_, (a, b))| a != b)
                        .map(|(k, _)| k.name())
                        .collect();
                    c.expect(diff.is_empty(), "trace.counter_invariance", || {
                        format!("counters {diff:?} differ at {threads} threads")
                    });
                    if threads == one {
                        traced_1t.push(t);
                    } else {
                        traced_all.push(t);
                    }
                }
                Err(e) => c.expect(false, "trace.library_error", || e),
            }
            ledger.record(&format!("traced pipeline at {threads} threads"), c);
        }
        let (run, c) = crate::query(w, dbs, dir, &shards, &out, None)?;
        ledger.record("query", c);
        query.push(run.wall_s);
        if query.len() >= crate::MIN_ROUNDS
            && start.elapsed() + round.elapsed() > crate::secs(seconds)
        {
            break;
        }
    }
    if traced_1t.is_empty() || traced_all.is_empty() {
        return Err("no traced pipeline ran to its end".into());
    }
    Ok(Outcome {
        ledger,
        metrics: layer_metrics(&traced_1t, &traced_all, &query),
    })
}

fn layer_metrics(one: &[Traced], all: &[Traced], query: &[f64]) -> Vec<Metric> {
    let med = |ts: &[Traced], f: &dyn Fn(&Traced) -> f64| {
        stats::median(&ts.iter().map(f).collect::<Vec<_>>())
    };
    let mut m: Vec<Metric> = Vec::new();
    for name in LAYERS {
        m.push((format!("{name}_s"), med(all, &|t| t.layer(name).0), "s"));
        m.push((format!("{name}_1t_s"), med(one, &|t| t.layer(name).0), "s"));
        m.push((format!("{name}_cpu_s"), med(all, &|t| t.layer(name).1), "s"));
    }
    let last = all.last().expect("at least one traced run");
    let count = |k: Counter| last.counters[k as usize] as f64;
    for (name, k) in COUNTERS {
        let unit = if k == Counter::ShardBytesMapped {
            "bytes"
        } else {
            "count"
        };
        m.push((name.into(), count(k), unit));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pops = count(Counter::HeapPops);
    let (hits, rebuilds) = (
        count(Counter::CandidateHits),
        count(Counter::CandidateRebuilds),
    );
    let candidates = count(Counter::OutlierCandidates);
    m.extend([
        (
            "sampling.sample_size".into(),
            last.sample_size as f64,
            "count",
        ),
        (
            "cluster.stale_pop_ratio".into(),
            ratio(count(Counter::HeapStalePops), pops),
            "ratio",
        ),
        (
            "cluster.candidate_hit_ratio".into(),
            ratio(hits, hits + rebuilds),
            "ratio",
        ),
        ("outlier.candidates".into(), candidates, "count"),
        ("outlier.found".into(), last.found as f64, "count"),
        (
            "outlier.candidate_precision".into(),
            ratio(last.found as f64, candidates),
            "ratio",
        ),
        (
            "outlier.prefilter_skip_ratio".into(),
            ratio(count(Counter::PrefilterSkips), last.n as f64),
            "ratio",
        ),
    ]);
    let traced = med(all, &|t| t.query_wall());
    let e2e = stats::median(query);
    m.extend([
        ("trace.query_s".into(), traced, "s"),
        ("trace.e2e_wall_s".into(), e2e, "s"),
        ("trace.overhead_ratio".into(), traced / e2e, "ratio"),
    ]);
    m
}

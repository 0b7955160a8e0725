//! Output checks, computed from the generator's ground truth and the
//! benchmark's own brute force, never from a stored copy of an earlier
//! output; and the ledger that counts operations attempted and failed.

use std::collections::BTreeSet;

use crate::gen::{from_micro, Input, Label};

/// One failed check of an operation.
#[derive(Debug)]
pub struct Failure {
    pub check: &'static str,
    pub detail: String,
}

/// Collects the failed checks of one operation.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<Failure>);

impl Checks {
    pub fn expect(&mut self, ok: bool, check: &'static str, detail: impl FnOnce() -> String) {
        if !ok {
            self.0.push(Failure {
                check,
                detail: detail(),
            });
        }
    }
}

/// The check that fails on every `stream_16d` run while
/// `DensitySketch::summary_normalizer` sums one sketch row where the draw
/// uses the mean over all rows: the sample misses its requested size by
/// far more than the 10 % `dbs stream` promises.
pub const KNOWN_FAULT: &str = "stream.sample_size";

/// Operations attempted and failed. An operation fails when any of its
/// checks fails; a failure other than [`KNOWN_FAULT`] also makes the run
/// incorrect.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    unexpected: u64,
    reported: BTreeSet<&'static str>,
}

impl Ledger {
    pub fn record(&mut self, op: &str, checks: Checks) {
        self.attempted += 1;
        if checks.0.is_empty() {
            return;
        }
        self.failed += 1;
        for f in checks.0 {
            if f.check != KNOWN_FAULT {
                self.unexpected += 1;
            }
            if self.reported.insert(f.check) {
                eprintln!("perfbench: {op}: check {} failed: {}", f.check, f.detail);
            }
        }
    }

    /// Whether every failed operation failed only on [`KNOWN_FAULT`].
    pub fn correct(&self) -> bool {
        self.unexpected == 0
    }
}

/// A clustering as `dbs cluster` reports it.
#[derive(Debug)]
pub struct ClusterResult {
    pub n: usize,
    pub noise: usize,
    /// (size, mean in original coordinates) per cluster.
    pub clusters: Vec<(usize, Vec<f64>)>,
}

/// `cluster_4d`: exactly one reported mean in each true region (the
/// paper's "cluster found"), no other cluster, and sizes plus noise
/// covering every point.
pub fn check_clusters(input: &Input, r: &ClusterResult, c: &mut Checks) {
    let regions = input.regions();
    c.expect(r.clusters.len() == regions.len(), "cluster.count", || {
        format!("{} clusters, expected {}", r.clusters.len(), regions.len())
    });
    for (k, region) in regions.iter().enumerate() {
        let hits = r
            .clusters
            .iter()
            .filter(|(_, mean)| region.contains(mean))
            .count();
        c.expect(hits == 1, "cluster.regions", || {
            format!("region {k} holds {hits} reported means")
        });
    }
    let covered: usize = r.clusters.iter().map(|(size, _)| size).sum::<usize>() + r.noise;
    c.expect(
        r.n == input.n && covered == input.n,
        "cluster.sizes",
        || {
            format!(
                "reported n {}, sizes + noise {covered}, generated {}",
                r.n, input.n
            )
        },
    );
}

/// Ground truth for `outliers_3d`: every point in min-max-scaled
/// coordinates, for a brute-force neighbour count.
pub struct OutlierTruth {
    scaled: Vec<Vec<f64>>,
}

impl OutlierTruth {
    pub fn new(input: &Input) -> OutlierTruth {
        let points: Vec<Vec<f64>> = (0..input.n).map(|i| input.point(i).0).collect();
        let mut lo = vec![f64::INFINITY; input.dim];
        let mut hi = vec![f64::NEG_INFINITY; input.dim];
        for p in &points {
            for j in 0..input.dim {
                lo[j] = lo[j].min(p[j]);
                hi[j] = hi[j].max(p[j]);
            }
        }
        let scaled = points
            .iter()
            .map(|p| {
                (0..input.dim)
                    .map(|j| (p[j] - lo[j]) / (hi[j] - lo[j]))
                    .collect()
            })
            .collect();
        OutlierTruth { scaled }
    }

    /// Points other than `i` within `radius` of point `i`.
    fn neighbours(&self, i: usize, radius: f64) -> usize {
        let p = &self.scaled[i];
        let r2 = radius * radius;
        self.scaled
            .iter()
            .enumerate()
            .filter(|&(j, q)| {
                j != i && p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() <= r2
            })
            .count()
    }
}

/// `outliers_3d`: every planted outlier reported, and every reported
/// point a true DB(p, radius) outlier by brute force.
pub fn check_outliers(
    input: &Input,
    truth: &OutlierTruth,
    reported: &[usize],
    radius: f64,
    p: usize,
    c: &mut Checks,
) {
    let missing: Vec<usize> = input
        .planted_indices()
        .filter(|i| !reported.contains(i))
        .collect();
    c.expect(missing.is_empty(), "outliers.planted", || {
        format!("planted outliers {missing:?} not reported")
    });
    for &i in reported {
        if i >= input.n {
            c.expect(false, "outliers.index", || {
                format!("index {i} out of range")
            });
            continue;
        }
        let k = truth.neighbours(i, radius);
        c.expect(k <= p, "outliers.db_property", || {
            format!("reported point {i} has {k} neighbours within {radius}")
        });
    }
}

/// Every input row by the hash of its micro-unit coordinates, so an
/// output row can be traced back to the input row it copies.
pub struct RowIndex {
    by_hash: Vec<(u64, u32)>,
}

impl RowIndex {
    pub fn new() -> RowIndex {
        RowIndex {
            by_hash: Vec::new(),
        }
    }

    pub fn push(&mut self, i: usize, q: &[i64]) {
        let i = u32::try_from(i).expect("inputs stay below 2^32 rows");
        self.by_hash.push((hash_row(q), i));
    }

    pub fn finish(&mut self) {
        self.by_hash.sort_unstable();
    }

    /// The input row whose coordinates are exactly `p`, with its label.
    pub fn find(&self, input: &Input, p: &[f64]) -> Option<(usize, Label)> {
        if p.len() != input.dim {
            return None;
        }
        let mut q = Vec::with_capacity(p.len());
        for &x in p {
            let v = (x * 1e6).round();
            if !v.is_finite() || from_micro(v as i64).to_bits() != x.to_bits() {
                return None;
            }
            q.push(v as i64);
        }
        let h = hash_row(&q);
        let start = self.by_hash.partition_point(|&(k, _)| k < h);
        let mut row = vec![0i64; input.dim];
        for &(k, i) in &self.by_hash[start..] {
            if k != h {
                break;
            }
            let label = input.row(i as usize, &mut row);
            if row == q {
                return Some((i as usize, label));
            }
        }
        None
    }
}

fn hash_row(q: &[i64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &v in q {
        h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// What `dbs stream` wrote: the biased sample and the uniform reservoir,
/// in original coordinates.
pub struct StreamResult {
    pub sample: Vec<Vec<f64>>,
    pub reservoir: Vec<Vec<f64>>,
}

/// `stream_16d`: both outputs are distinct input rows, matched exactly;
/// the reservoir has exactly the requested size; at a = 1 the sample
/// holds a smaller share of noise than the input; and the sample is
/// within 10 % of the requested size.
pub fn check_stream(
    input: &Input,
    index: &RowIndex,
    input_noise: usize,
    r: &StreamResult,
    (size, reservoir): (usize, usize),
    c: &mut Checks,
) {
    let trace = |rows: &[Vec<f64>]| -> Option<Vec<(usize, Label)>> {
        rows.iter().map(|p| index.find(input, p)).collect()
    };
    let distinct = |rows: &[(usize, Label)]| {
        rows.iter().map(|&(i, _)| i).collect::<BTreeSet<_>>().len() == rows.len()
    };

    c.expect(
        r.reservoir.len() == reservoir,
        "stream.reservoir_size",
        || {
            format!(
                "{} reservoir rows, requested {reservoir}",
                r.reservoir.len()
            )
        },
    );
    match trace(&r.reservoir) {
        Some(rows) => c.expect(distinct(&rows), "stream.reservoir_rows", || {
            "reservoir repeats an input row".into()
        }),
        None => c.expect(false, "stream.reservoir_rows", || {
            "reservoir holds a row that is not an input row".into()
        }),
    }
    match trace(&r.sample) {
        Some(rows) => {
            c.expect(distinct(&rows), "stream.sample_rows", || {
                "sample repeats an input row".into()
            });
            let noise = rows.iter().filter(|&&(_, l)| l == Label::Noise).count();
            let share = noise as f64 / rows.len().max(1) as f64;
            let base = input_noise as f64 / input.n as f64;
            c.expect(share < base, "stream.noise_share", || {
                format!("sample noise share {share:.4}, input {base:.4}")
            });
        }
        None => c.expect(false, "stream.sample_rows", || {
            "sample holds a row that is not an input row".into()
        }),
    }
    let off = r.sample.len().abs_diff(size) as f64 / size as f64;
    c.expect(off <= 0.10, KNOWN_FAULT, || {
        format!("{} sampled, requested {size}", r.sample.len())
    });
}

//! The three workloads: their inputs, the `dbs` command each runs, and
//! how each command's output is read back and checked.

use std::path::Path;

use crate::checks::{self, Checks, ClusterResult, OutlierTruth, RowIndex, StreamResult};
use crate::gen::{Input, Label};
use crate::proc::Run;

/// DB(p, k) radius of `outliers_3d`, in min-max-scaled units.
pub const RADIUS: f64 = 0.1;
/// DB(p, k) neighbour bound p: the `dbs outliers` default.
pub const NEIGHBOURS: usize = 3;
/// Sample fraction of `cluster_4d`.
pub const SAMPLE_FRAC: f64 = 0.01;
/// Biased sample size requested by `stream_16d`.
pub const STREAM_SIZE: usize = 10_000;
/// Uniform reservoir size requested by `stream_16d`.
pub const STREAM_RESERVOIR: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sample-fed CURE over 500k 4-d points: agrid fit, two-pass biased
    /// draw, merge loop on the ~5k sample, 500k-point map-back.
    Cluster4d,
    /// DB(p, k) outliers over 10k 3-d points: KDE fit and Monte-Carlo
    /// ball integrals per point.
    Outliers3d,
    /// `dbs stream` over 1.5M 16-d points: serial sketch ingest, reservoir
    /// and the one-pass biased draw.
    Stream16d,
}

/// Ground truth a workload's checks need beyond the generator itself.
enum Truth {
    None,
    Outliers(OutlierTruth),
    Stream { index: RowIndex, noise: usize },
}

pub struct Workload {
    pub kind: Kind,
    pub input: Input,
    truth: Truth,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let (kind, input) = match name {
            "cluster_4d" => (Kind::Cluster4d, Input::cluster_4d(seed)),
            "outliers_3d" => (Kind::Outliers3d, Input::outliers_3d(seed, 2.0 * RADIUS)),
            "stream_16d" => (Kind::Stream16d, Input::stream_16d(seed)),
            _ => return None,
        };
        Some(Workload {
            kind,
            input,
            truth: Truth::None,
        })
    }

    /// Writes the input text file and builds the ground truth the checks
    /// need.
    pub fn generate(&mut self, path: &Path) -> std::io::Result<()> {
        match self.kind {
            Kind::Cluster4d => self.input.write_text(path, |_, _, _| {}),
            Kind::Outliers3d => {
                self.input.write_text(path, |_, _, _| {})?;
                self.truth = Truth::Outliers(OutlierTruth::new(&self.input));
                Ok(())
            }
            Kind::Stream16d => {
                let mut index = RowIndex::new();
                let mut noise = 0;
                self.input.write_text(path, |i, q, label| {
                    index.push(i, q);
                    noise += usize::from(label == Label::Noise);
                })?;
                index.finish();
                self.truth = Truth::Stream { index, noise };
                Ok(())
            }
        }
    }

    /// How many times one round converts the input. `outliers_3d`'s
    /// convert takes milliseconds, so it is repeated for a steadier median.
    pub fn setup_reps(&self) -> usize {
        match self.kind {
            Kind::Cluster4d | Kind::Stream16d => 1,
            Kind::Outliers3d => 9,
        }
    }

    /// The `dbs` query over `shards`, writing any output files to `out`.
    pub fn command(&self, shards: &Path, out: &Path, threads: Option<usize>) -> Vec<String> {
        let mut args: Vec<String> = match self.kind {
            Kind::Cluster4d => vec![
                "cluster".into(),
                path(shards),
                "--sample-frac".into(),
                SAMPLE_FRAC.to_string(),
                "--estimator".into(),
                "agrid:8".into(),
            ],
            Kind::Outliers3d => vec![
                "outliers".into(),
                path(shards),
                "--radius".into(),
                RADIUS.to_string(),
            ],
            Kind::Stream16d => vec![
                "stream".into(),
                path(shards),
                "--size".into(),
                STREAM_SIZE.to_string(),
                "--reservoir".into(),
                STREAM_RESERVOIR.to_string(),
                "--output".into(),
                path(&out.join("sample.txt")),
                "--reservoir-out".into(),
                path(&out.join("reservoir.txt")),
            ],
        };
        if let Some(t) = threads {
            args.extend(["--threads".into(), t.to_string()]);
        }
        args
    }

    /// Checks one finished query: its exit status, its report, and
    /// whatever output files it wrote to `out`.
    pub fn check_run(&self, run: &Run, out: &Path, c: &mut Checks) {
        c.expect(run.ok(), "exit_status", || {
            format!("{:?}: {}", run.code, run.stderr.trim())
        });
        if !run.ok() {
            return;
        }
        match self.kind {
            Kind::Cluster4d => match parse_clusters(&run.stdout) {
                Some(r) => checks::check_clusters(&self.input, &r, c),
                None => c.expect(false, "cluster.report", || run.stdout.clone()),
            },
            Kind::Outliers3d => match parse_outliers(&run.stdout) {
                Some(found) => {
                    for (i, p) in &found {
                        let ok = *i < self.input.n && {
                            let (want, _) = self.input.point(*i);
                            want.iter()
                                .zip(p)
                                .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(1.0))
                        };
                        c.expect(ok, "outliers.coords", || {
                            format!("#{i} printed as {p:?}, not its input row")
                        });
                    }
                    let indices: Vec<usize> = found.iter().map(|(i, _)| *i).collect();
                    self.check_outliers(&indices, c);
                }
                None => c.expect(false, "outliers.report", || run.stdout.clone()),
            },
            Kind::Stream16d => {
                let read = |name: &str| read_rows(&out.join(name));
                match (read("sample.txt"), read("reservoir.txt")) {
                    (Some(sample), Some(reservoir)) => {
                        let reported = parse_stream_size(&run.stdout);
                        c.expect(reported == Some(sample.len()), "stream.report", || {
                            format!("reported {reported:?}, wrote {} rows", sample.len())
                        });
                        self.check_stream(&StreamResult { sample, reservoir }, c);
                    }
                    _ => c.expect(false, "stream.files", || "unreadable output file".into()),
                }
            }
        }
    }

    /// `outliers_3d`'s checks on the reported outlier indices.
    pub fn check_outliers(&self, found: &[usize], c: &mut Checks) {
        let Truth::Outliers(truth) = &self.truth else {
            panic!("outlier truth is built by generate() for outliers_3d");
        };
        checks::check_outliers(&self.input, truth, found, RADIUS, NEIGHBOURS, c);
    }

    /// `stream_16d`'s checks on the sample and reservoir rows.
    pub fn check_stream(&self, r: &StreamResult, c: &mut Checks) {
        let Truth::Stream { index, noise } = &self.truth else {
            panic!("stream truth is built by generate() for stream_16d");
        };
        let sizes = (STREAM_SIZE, STREAM_RESERVOIR);
        checks::check_stream(&self.input, index, *noise, r, sizes, c);
    }
}

fn path(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn parse_list(s: &str) -> Option<Vec<f64>> {
    let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
    inner.split(", ").map(|x| x.parse().ok()).collect()
}

/// Reads `dbs cluster --sample-frac` output:
/// `clustered N points from a T-point sample into K clusters (M points
/// marked noise)` then `  cluster i: S points, mean [..]` per cluster.
fn parse_clusters(stdout: &str) -> Option<ClusterResult> {
    let mut lines = stdout.lines();
    let head: Vec<&str> = lines.next()?.split_whitespace().collect();
    let n = head.get(1)?.parse().ok()?;
    let noise = head
        .iter()
        .find_map(|t| t.strip_prefix('('))?
        .parse()
        .ok()?;
    let mut clusters = Vec::new();
    for line in lines {
        let (_, rest) = line.trim().strip_prefix("cluster ")?.split_once(": ")?;
        let (size, mean) = rest.split_once(" points, mean ")?;
        clusters.push((size.parse().ok()?, parse_list(mean)?));
    }
    Some(ClusterResult { n, noise, clusters })
}

/// Reads `dbs outliers` output: a header, then `  #i: [..]` per outlier.
fn parse_outliers(stdout: &str) -> Option<Vec<(usize, Vec<f64>)>> {
    let mut lines = stdout.lines();
    let head = lines.next()?;
    let count: usize = head
        .split_once("outliers: ")?
        .1
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    let found: Vec<(usize, Vec<f64>)> = lines
        .map(|l| {
            let (i, p) = l.trim().strip_prefix('#')?.split_once(": ")?;
            Some((i.parse().ok()?, parse_list(p)?))
        })
        .collect::<Option<_>>()?;
    (found.len() == count).then_some(found)
}

/// The sample size `dbs stream` reports (`sampled S of N points ...`).
fn parse_stream_size(stdout: &str) -> Option<usize> {
    let line = stdout.lines().find(|l| l.starts_with("sampled "))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn read_rows(path: &Path) -> Option<Vec<Vec<f64>>> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .map(|l| l.split_whitespace().map(|x| x.parse().ok()).collect())
        .collect()
}

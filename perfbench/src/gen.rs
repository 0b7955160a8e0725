//! Seeded input generators that carry their own ground truth.
//!
//! Each workload has a fixed layout (cluster boxes, mixture components,
//! planted outliers), drawn once from a constant so that every seed runs
//! the same geometry and timings stay comparable across seeds; `--seed`
//! only changes which points are drawn from it. Every row is a pure
//! function of `(seed, row index)`, so a check can regenerate any row
//! instead of keeping the input in memory.
//!
//! Coordinates are written with six decimals and held as integer
//! micro-units `q`: `q as f64 / 1e6` is exactly the value a correctly
//! rounded parser reads back from the text, so rows can be matched
//! bit-for-bit after a round trip through `dbs`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// SplitMix64: small, fast and good enough for synthetic data.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// What generated a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Drawn from a cluster (box or mixture component).
    Cluster,
    /// Uniform background noise.
    Noise,
    /// A planted outlier.
    Planted,
}

/// An axis-aligned box `[lo, hi]`.
#[derive(Debug, Clone)]
pub struct Region {
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
}

impl Region {
    pub fn contains(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&x, (&lo, &hi))| lo <= x && x <= hi)
    }

    fn dist_sq(&self, p: &[f64]) -> f64 {
        p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&x, (&lo, &hi))| {
                let d = (lo - x).max(x - hi).max(0.0);
                d * d
            })
            .sum()
    }

    /// Whether some axis separates the two boxes by at least `gap`.
    fn separated(&self, other: &Region, gap: f64) -> bool {
        (0..self.lo.len())
            .any(|j| other.lo[j] - self.hi[j] >= gap || self.lo[j] - other.hi[j] >= gap)
    }
}

/// Component of a diagonal Gaussian mixture.
#[derive(Debug, Clone)]
pub struct Gaussian {
    pub mean: Vec<f64>,
    pub sigma: f64,
}

/// The fixed layout a workload draws its points from.
#[derive(Debug, Clone)]
pub enum Layout {
    /// Uniform boxes of equal weight plus a share of uniform noise in the
    /// unit cube (the paper's §4.1 generator).
    Boxes {
        regions: Vec<Region>,
        noise: f64,
        /// Rows `n - planted.len() ..` are these fixed points.
        planted: Vec<Vec<f64>>,
    },
    /// Isotropic Gaussians of equal weight, clamped to the unit cube, plus
    /// uniform noise.
    Mixture {
        components: Vec<Gaussian>,
        noise: f64,
    },
}

/// A generated input: layout, size and seed.
#[derive(Debug, Clone)]
pub struct Input {
    pub dim: usize,
    pub n: usize,
    pub seed: u64,
    pub layout: Layout,
}

/// Seed of every fixed layout (not the workload seed).
const LAYOUT_SEED: u64 = 0x0DB5_1A70_2001;

impl Input {
    /// 500k 4-d points: 10 equal boxes (sides 0.25–0.4, pairwise separated
    /// by ≥ 0.15 on some axis, well above the ~0.06 spacing of a 1 %
    /// sample inside a box) and 5 % uniform noise.
    pub fn cluster_4d(seed: u64) -> Input {
        let regions = place_boxes(4, 10, (0.25, 0.4), 0.15, (0.0, 1.0));
        Input {
            dim: 4,
            n: 500_000,
            seed,
            layout: Layout::Boxes {
                regions,
                noise: 0.05,
                planted: Vec::new(),
            },
        }
    }

    /// 10k 3-d points in 8 boxes plus 10 planted outliers, each more than
    /// `isolation` from every box and from every other planted point.
    pub fn outliers_3d(seed: u64, isolation: f64) -> Input {
        let regions = place_boxes(3, 8, (0.08, 0.16), 0.05, (0.1, 0.9));
        let mut rng = SplitMix::new(LAYOUT_SEED ^ 0x0071);
        let mut planted: Vec<Vec<f64>> = Vec::new();
        while planted.len() < 10 {
            let p: Vec<f64> = (0..3).map(|_| quantize(rng.unit())).collect();
            let far_from_boxes = regions
                .iter()
                .all(|r| r.dist_sq(&p) > isolation * isolation);
            let far_from_planted = planted.iter().all(|o| {
                let d2: f64 = o.iter().zip(&p).map(|(a, b)| (a - b) * (a - b)).sum();
                d2 > isolation * isolation
            });
            if far_from_boxes && far_from_planted {
                planted.push(p);
            }
        }
        Input {
            dim: 3,
            n: 10_010,
            seed,
            layout: Layout::Boxes {
                regions,
                noise: 0.0,
                planted,
            },
        }
    }

    /// 1.5M 16-d points: a diagonal mixture (10 isotropic Gaussians, sigma
    /// 0.02, centred at `(c + 0.5) / 10` on every axis, clamped to the
    /// unit cube) plus 5 % uniform noise.
    pub fn stream_16d(seed: u64) -> Input {
        let components = (0..10)
            .map(|c| Gaussian {
                mean: vec![(c as f64 + 0.5) / 10.0; 16],
                sigma: 0.02,
            })
            .collect();
        Input {
            dim: 16,
            n: 1_500_000,
            seed,
            layout: Layout::Mixture {
                components,
                noise: 0.05,
            },
        }
    }

    /// Writes row `i` as micro-units into `q` and returns its label.
    pub fn row(&self, i: usize, q: &mut [i64]) -> Label {
        let mut rng = SplitMix::new(self.seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ i as u64);
        rng.next_u64();
        match &self.layout {
            Layout::Boxes {
                regions,
                noise,
                planted,
            } => {
                let first_planted = self.n - planted.len();
                if i >= first_planted {
                    for (qj, &x) in q.iter_mut().zip(&planted[i - first_planted]) {
                        *qj = to_micro(x);
                    }
                    return Label::Planted;
                }
                if rng.unit() < *noise {
                    for qj in q.iter_mut() {
                        *qj = to_micro(rng.unit());
                    }
                    return Label::Noise;
                }
                let c = (rng.unit() * regions.len() as f64) as usize;
                let r = &regions[c];
                for (j, qj) in q.iter_mut().enumerate() {
                    *qj = to_micro(rng.range(r.lo[j], r.hi[j]));
                }
                Label::Cluster
            }
            Layout::Mixture { components, noise } => {
                if rng.unit() < *noise {
                    for qj in q.iter_mut() {
                        *qj = to_micro(rng.unit());
                    }
                    return Label::Noise;
                }
                let c = (rng.unit() * components.len() as f64) as usize;
                let g = &components[c];
                for (j, qj) in q.iter_mut().enumerate() {
                    let x = g.mean[j] + g.sigma * rng.normal();
                    *qj = to_micro(x.clamp(0.0, 1.0));
                }
                Label::Cluster
            }
        }
    }

    /// Row `i` as the `f64` values `dbs` reads from the text file.
    pub fn point(&self, i: usize) -> (Vec<f64>, Label) {
        let mut q = vec![0i64; self.dim];
        let label = self.row(i, &mut q);
        (q.iter().map(|&v| from_micro(v)).collect(), label)
    }

    /// The cluster boxes (empty for a mixture).
    pub fn regions(&self) -> &[Region] {
        match &self.layout {
            Layout::Boxes { regions, .. } => regions,
            Layout::Mixture { .. } => &[],
        }
    }

    /// Indices of the planted outliers.
    pub fn planted_indices(&self) -> std::ops::Range<usize> {
        match &self.layout {
            Layout::Boxes { planted, .. } => self.n - planted.len()..self.n,
            Layout::Mixture { .. } => self.n..self.n,
        }
    }

    /// Writes the input as text, one point per line, handing each row to
    /// `visit` on the way.
    pub fn write_text(
        &self,
        path: &Path,
        mut visit: impl FnMut(usize, &[i64], Label),
    ) -> std::io::Result<()> {
        let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
        let mut q = vec![0i64; self.dim];
        let mut line = String::with_capacity(16 * self.dim);
        for i in 0..self.n {
            let label = self.row(i, &mut q);
            visit(i, &q, label);
            line.clear();
            for (j, &v) in q.iter().enumerate() {
                if j > 0 {
                    line.push(' ');
                }
                push_micro(&mut line, v);
            }
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        w.flush()
    }
}

/// Places `count` boxes with per-axis sides in `sides`, inside
/// `[within.0, within.1]^dim`, pairwise separated by `gap` on some axis.
fn place_boxes(
    dim: usize,
    count: usize,
    sides: (f64, f64),
    gap: f64,
    within: (f64, f64),
) -> Vec<Region> {
    let mut rng = SplitMix::new(LAYOUT_SEED ^ dim as u64);
    let mut out: Vec<Region> = Vec::with_capacity(count);
    while out.len() < count {
        let mut lo = Vec::with_capacity(dim);
        let mut hi = Vec::with_capacity(dim);
        for _ in 0..dim {
            let side = rng.range(sides.0, sides.1);
            let start = rng.range(within.0, within.1 - side);
            lo.push(quantize(start));
            hi.push(quantize(start + side));
        }
        let r = Region { lo, hi };
        if out.iter().all(|o| o.separated(&r, gap)) {
            out.push(r);
        }
    }
    out
}

fn to_micro(x: f64) -> i64 {
    (x * 1e6).round() as i64
}

/// The exact value a correctly rounded parser reads for `q` micro-units
/// written with six decimals.
pub fn from_micro(q: i64) -> f64 {
    q as f64 / 1e6
}

fn quantize(x: f64) -> f64 {
    from_micro(to_micro(x))
}

/// Appends `q` micro-units as a six-decimal number.
fn push_micro(s: &mut String, q: i64) {
    use std::fmt::Write as _;
    let sign = if q < 0 { "-" } else { "" };
    let a = q.unsigned_abs();
    write!(s, "{sign}{}.{:06}", a / 1_000_000, a % 1_000_000).expect("writing to a String");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_units_round_trip_through_text() {
        for q in [-1_234_567i64, -1, 0, 7, 999_999, 1_000_000, 12_345_678] {
            let mut s = String::new();
            push_micro(&mut s, q);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), from_micro(q).to_bits());
        }
    }

    #[test]
    fn planted_outliers_are_isolated() {
        let input = Input::outliers_3d(1, 0.2);
        for i in input.planted_indices() {
            let (p, label) = input.point(i);
            assert_eq!(label, Label::Planted);
            assert!(input.regions().iter().all(|r| r.dist_sq(&p) > 0.04));
        }
    }
}

//! End-to-end and per-layer benchmark of the `dbs` pipeline.
//!
//! ```text
//! perfbench --dbs PATH --work DIR --workload NAME --seed N --seconds S
//!           --trace 0|1 [--repeat K]
//! ```
//!
//! `--trace 0` runs the workload as a user would: it writes the seeded
//! input as text, imports it with `dbs convert` (timed as set-up) and runs
//! the workload's `dbs` query on the shards at the default thread count
//! and at `--threads 1`, checking every output. `--trace 1` makes the same
//! library calls in-process with an enabled `Recorder`, timing each layer.
//! Either prints one JSON line last: `correct`, `attempted`, `failed` and
//! the metrics. `--repeat K` runs seeds N..N+K and then prints each
//! metric's median, quartiles and spread.
//!
//! The process exits non-zero only on a harness error; a failed output
//! check is counted in `failed` and never aborts the run.

mod checks;
mod gen;
mod proc;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use checks::{Checks, Ledger};
use workload::Workload;

/// Rounds every run makes, however short `--seconds`: enough for a median
/// that one scheduler stall cannot set.
const MIN_ROUNDS: usize = 3;

struct Args {
    dbs: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// One run's outcome.
pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an option, got {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad --{k} {v}"));
    let args = Args {
        dbs: take("dbs")?.into(),
        work: take("work")?.into(),
        workload: take("workload")?,
        seed: num("seed", take("seed")?)?,
        seconds: num("seconds", take("seconds")?)? as f64,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            v => return Err(format!("bad --trace {v}")),
        },
        repeat: match kv.remove("repeat") {
            Some(v) => num("repeat", v)? as usize,
            None => 1,
        },
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    if Workload::new(&args.workload, 0).is_none() {
        return Err(format!(
            "unknown workload {}; expected cluster_4d, outliers_3d or stream_16d",
            args.workload
        ));
    }
    if !args.dbs.is_file() {
        return Err(format!("no dbs binary at {}", args.dbs.display()));
    }
    Ok(args)
}

/// Removes its directory when dropped, so no run leaves inputs behind.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_once(args: &Args, seed: u64) -> Result<Outcome, String> {
    let mut w = Workload::new(&args.workload, seed).expect("validated in parse_args");
    let dir = WorkDir(
        args.work
            .join(format!("{}-{seed}-{}", args.workload, std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let text = dir.0.join("input.txt");
    w.generate(&text)
        .and_then(|()| flush(&text))
        .map_err(|e| format!("writing {}: {e}", text.display()))?;
    if args.trace {
        trace::run(&w, &args.dbs, &dir.0, args.seconds)
    } else {
        run_e2e(&w, &args.dbs, &dir.0, args.seconds)
    }
}

/// Converts the input into `shards`, checking what `dbs convert` reports.
pub fn convert(
    w: &Workload,
    dbs: &Path,
    dir: &Path,
    shards: &Path,
) -> Result<(proc::Run, Checks), String> {
    let _ = std::fs::remove_dir_all(shards);
    let args = [
        "convert".to_string(),
        dir.join("input.txt").to_string_lossy().into_owned(),
        "--output".to_string(),
        shards.to_string_lossy().into_owned(),
    ];
    let run = proc::run(dbs, &args, dir).map_err(|e| format!("running dbs convert: {e}"))?;
    flush(shards).map_err(|e| format!("flushing {}: {e}", shards.display()))?;
    let mut c = Checks::default();
    c.expect(run.ok(), "exit_status", || {
        format!("{:?}: {}", run.code, run.stderr.trim())
    });
    let want = format!("wrote {} points ({}d)", w.input.n, w.input.dim);
    c.expect(run.stdout.starts_with(&want), "convert.report", || {
        format!("reported {:?}, expected {want:?}", run.stdout.trim())
    });
    Ok((run, c))
}

/// Writes the files under `path` through to disk, so that their
/// write-back does not overlap the next timed step.
pub fn flush(path: &Path) -> std::io::Result<()> {
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            flush(&entry?.path())?;
        }
        Ok(())
    } else if path.exists() {
        std::fs::File::open(path)?.sync_all()
    } else {
        Ok(())
    }
}

/// Runs the workload's query once, checking its output.
pub fn query(
    w: &Workload,
    dbs: &Path,
    dir: &Path,
    shards: &Path,
    out: &Path,
    threads: Option<usize>,
) -> Result<(proc::Run, Checks), String> {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let run = proc::run(dbs, &w.command(shards, out, threads), dir)
        .map_err(|e| format!("running dbs: {e}"))?;
    let mut c = Checks::default();
    w.check_run(&run, out, &mut c);
    Ok((run, c))
}

/// Whether two query runs printed and wrote the same bytes (apart from
/// the names of their output directories).
fn same_output(a: &proc::Run, a_out: &Path, b: &proc::Run, b_out: &Path) -> bool {
    let report = |r: &proc::Run, out: &Path| r.stdout.replace(&*out.to_string_lossy(), "OUT");
    let files = |d: &Path| -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(d)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| (e.file_name(), std::fs::read(e.path()).unwrap_or_default()))
            .collect();
        v.sort();
        v
    };
    report(a, a_out) == report(b, b_out) && files(a_out) == files(b_out)
}

/// The end-to-end run: rounds of (convert × setup_reps, query at the
/// default thread count, query at one thread) until `seconds` have
/// passed, after one untimed convert and scan that fill the page cache.
fn run_e2e(w: &Workload, dbs: &Path, dir: &Path, seconds: f64) -> Result<Outcome, String> {
    let shards = dir.join("shards");
    let (out_all, out_1t) = (dir.join("out_all"), dir.join("out_1t"));
    let mut ledger = Ledger::default();

    convert(w, dbs, dir, &shards)?;
    let info = ["info".to_string(), shards.to_string_lossy().into_owned()];
    proc::run(dbs, &info, dir).map_err(|e| format!("running dbs info: {e}"))?;

    let (mut setup, mut wall, mut wall_1t, mut rss) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    loop {
        let round = Instant::now();
        for _ in 0..w.setup_reps() {
            let (run, c) = convert(w, dbs, dir, &shards)?;
            setup.push(run.wall_s);
            ledger.record("convert", c);
        }
        let (a, c) = query(w, dbs, dir, &shards, &out_all, None)?;
        wall.push(a.wall_s);
        rss.push(a.peak_rss_mb);
        ledger.record("query", c);
        let (b, mut c) = query(w, dbs, dir, &shards, &out_1t, Some(1))?;
        wall_1t.push(b.wall_s);
        c.expect(
            same_output(&a, &out_all, &b, &out_1t),
            "determinism.threads",
            || "output at --threads 1 differs from the default".into(),
        );
        ledger.record("query --threads 1", c);
        eprintln!(
            "perfbench: round {}: setup {:.3} s, wall {:.3} s, wall_1t {:.3} s, rss {:.1} MiB",
            wall.len(),
            setup[setup.len() - 1],
            a.wall_s,
            b.wall_s,
            a.peak_rss_mb
        );
        if wall.len() >= MIN_ROUNDS && start.elapsed() + round.elapsed() > secs(seconds) {
            break;
        }
    }
    let metrics = vec![
        ("setup_s".into(), stats::median(&setup), "s"),
        ("wall_s".into(), stats::median(&wall), "s"),
        ("wall_1t_s".into(), stats::median(&wall_1t), "s"),
        ("peak_rss_mb".into(), stats::median(&rss), "MiB"),
    ];
    Ok(Outcome { ledger, metrics })
}

pub fn secs(s: f64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(s)
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.ledger.correct(),
        o.ledger.attempted,
        o.ledger.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut runs: Vec<Outcome> = Vec::new();
    for k in 0..args.repeat as u64 {
        match run_once(&args, args.seed + k) {
            Ok(o) => {
                println!("{}", json(&o));
                runs.push(o);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.repeat > 1 {
        println!(
            "metric median q1 q3 spread (seeds {}..{})",
            args.seed,
            args.seed + args.repeat as u64 - 1
        );
        for (i, (name, _, unit)) in runs[0].metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|o| o.metrics[i].1).collect();
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            println!("{name} {med} {q1} {q3} {:.4} {unit}", (q3 - q1) / med);
        }
        let failed: Vec<String> = runs
            .iter()
            .map(|o| format!("{}/{}", o.ledger.failed, o.ledger.attempted))
            .collect();
        println!("failed/attempted {}", failed.join(" "));
    }
}

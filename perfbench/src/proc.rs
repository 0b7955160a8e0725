//! Runs the `dbs` binary as a user would and measures that one process.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::sys;

/// One finished `dbs` invocation.
pub struct Run {
    /// Exit code (`None` when a signal ended the process).
    pub code: Option<i32>,
    pub wall_s: f64,
    /// Peak resident set of the `dbs` process alone, in MiB.
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub stderr: String,
}

impl Run {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Runs `dbs args...` to completion with its output captured in files
/// under `scratch`, timing it from spawn to reap.
pub fn run(dbs: &Path, args: &[String], scratch: &Path) -> std::io::Result<Run> {
    let out_path = scratch.join("stdout.txt");
    let err_path = scratch.join("stderr.txt");
    let mut cmd = Command::new(dbs);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let reaped = sys::reap(&child)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Run {
        code: reaped.code,
        wall_s,
        peak_rss_mb: reaped.max_rss_kib as f64 / 1024.0,
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}

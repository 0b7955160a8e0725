//! The two system calls std does not expose: `wait4`, which returns the
//! resource usage of one reaped child (its own peak RSS, not the
//! cumulative `RUSAGE_CHILDREN`), and the process CPU-time clock.

use std::io;
use std::os::raw::{c_int, c_long};
use std::process::Child;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads child resource usage through Linux's wait4");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// How a child ended and what it used.
pub struct Reaped {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set of the child alone, in KiB.
    pub max_rss_kib: u64,
}

/// Waits for `child` to end and reaps it with `wait4`. The `Child` must
/// not be waited on again afterwards.
pub fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = c_int::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects; `pid` names our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Reaped {
        code,
        max_rss_kib: usage.ru_maxrss.max(0) as u64,
    })
}

/// CPU time this process has used so far, over all its threads: the
/// clock `getrusage(RUSAGE_SELF)` sums, read at nanosecond rather than
/// microsecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec; the clock id is valid on
    // Linux, so the call cannot fail.
    let r = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        r, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

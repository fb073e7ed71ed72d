//! Run one child process and measure it: wall time from spawn to exit and
//! the child's own peak resident set size.
//!
//! The peak comes from `wait4`'s resource usage. Linux folds the peak of
//! the address space a process had *before* `exec` into that figure, and a
//! spawned child starts in its parent's address space, so the spawning
//! process must itself stay small: this one does nothing but spawn and
//! wait, which keeps the floor it adds at a few MB.

use std::fs::File;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the `struct rusage` layout below is that of 64-bit Linux");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child run measured.
pub struct ChildRun {
    pub wall: Duration,
    pub max_rss_kib: u64,
    /// Exit code, or `128 + signal` when a signal ended it.
    pub exit: i32,
}

/// Run `argv` with its standard output and error written to the given
/// files, and wait for it to end.
pub fn run_child(argv: &[String], stdout: &Path, stderr: &Path) -> Result<ChildRun, String> {
    let (program, args) = argv.split_first().ok_or("no command to run")?;
    let open = |path: &Path| File::create(path).map_err(|e| format!("{}: {e}", path.display()));
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdout(open(stdout)?)
        .stderr(open(stderr)?)
        .spawn()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (the `Child` handle never
    // waits on it), and both out-pointers refer to live, writable locals
    // whose layouts match the C `int` and 64-bit Linux `struct rusage`.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    if reaped != pid {
        return Err(format!(
            "wait4 on {pid} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(ChildRun {
        wall,
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        exit,
    })
}

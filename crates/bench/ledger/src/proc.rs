//! Driving the shipped `predsim` binary as a black box: building it from
//! source, timing CLI invocations (with each child's peak RSS), and
//! running `predsim serve` for the load phases.

use crate::http::Conn;
use std::io::{self, BufRead, BufReader, Read};
use std::os::raw::{c_int, c_long};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root (this package sits in `crates/bench/ledger`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(3)
        .expect("the ledger package sits inside the repository")
        .to_path_buf()
}

/// The cargo target directory the running executable was built into
/// (the parent of its `release` or `debug` profile directory).
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))?;
    exe.ancestors()
        .find(|dir| {
            matches!(
                dir.file_name().and_then(|n| n.to_str()),
                Some("release" | "debug")
            )
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// Build the `predsim` binary in release mode (a no-op when it is fresh)
/// and return its path. It is built as a dependency of this package,
/// into the ledger's own target directory: from the same sources and
/// with the same release profile as `cargo build --release` at the
/// repository root, while reusing every library the ledger was built
/// with instead of compiling them a second time.
pub fn build_predsim() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target = target_dir()?;
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--package",
            "predsim",
            "--bin",
            "predsim",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building predsim failed ({status})"));
    }
    Ok(target.join("release").join("predsim"))
}

/// A finished CLI invocation.
#[derive(Debug)]
pub struct Finished {
    /// Spawn to reap.
    pub wall: Duration,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Exit status 0.
    pub ok: bool,
    /// The child's peak resident set, KiB.
    pub maxrss_kib: u64,
}

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Reap child `pid`, returning its raw wait status and peak RSS (KiB).
/// The caller must own `pid` and not have reaped it yet.
fn reap(pid: u32) -> io::Result<(c_int, u64)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals whose
        // layouts match the C `int` and 64-bit Linux `struct rusage`
        // that wait4 fills; `pid` is a child of this process that
        // nothing else waits for.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Run `cmd` to completion with stdout captured and stderr discarded,
/// timing it from spawn to reap.
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    if let Err(e) = read {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    // Reaped here, not through `child.wait()`: wait4 also reports the
    // child's resource usage. `Child` does not wait on drop.
    let (status, maxrss_kib) = reap(child.id())?;
    let wall = start.elapsed();
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Finished {
        wall,
        stdout,
        ok: exited_zero,
        maxrss_kib,
    })
}

/// A running `predsim serve` on an ephemeral localhost port. Dropping it
/// kills the process; [`Server::stop`] drains it gracefully.
pub struct Server {
    child: Child,
    /// Held open so the server's later log lines never hit a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl Server {
    /// Spawn `predsim serve --workers 2` in `dir` and wait for its first
    /// `200` on `/healthz`. Returns the server and the set-up time (spawn
    /// to that first `200`).
    pub fn start(predsim: &Path, dir: &Path) -> io::Result<(Server, Duration)> {
        let start = Instant::now();
        let mut child = Command::new(predsim)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .current_dir(dir)
            .env("HOME", dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Owned by `server` from here on, so an early return kills it.
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .rsplit_once("http://")
            .map(|(_, addr)| addr.to_string())
            .ok_or_else(|| io::Error::other(format!("unexpected serve banner {line:?}")))?;
        let deadline = start + Duration::from_secs(10);
        loop {
            let healthy = Conn::connect(&server.addr)
                .and_then(|mut c| c.call("GET", "/healthz", ""))
                .is_ok_and(|(status, _)| status == 200);
            if healthy {
                return Ok((server, start.elapsed()));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's peak resident set so far (`VmHWM`), KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Request a graceful drain and wait (up to 30 s) for a clean exit.
    pub fn stop(mut self) -> io::Result<()> {
        Conn::connect(&self.addr)?.call("POST", "/admin/drain", "")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not drain within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

//! The program under test as child processes: `topk serve` spawned,
//! probed, killed and reaped, and one-shot `topk count|rank` runs.
//! Every child is owned by a guard that kills and waits on drop, so no
//! run leaves a process behind, whatever way it ends.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::spec::{SHARDS, SLO_P99_MS};
use crate::wire::{is_ok, Conn};

/// A server that has not answered `ping` by now never will.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// How a server is started; `spawn` may be called again after a kill to
/// restart on the same journal.
pub struct ServerSpec {
    pub topk: PathBuf,
    pub max_df: u32,
    pub journal: Option<PathBuf>,
    pub restore: Option<PathBuf>,
    /// The server's stderr (its log) is appended here.
    pub log: PathBuf,
}

pub struct Server {
    child: Child,
    pub addr: String,
}

impl ServerSpec {
    /// Start the server and wait until it answers `ping`; returns the
    /// warm connection the ping went over and the time from process
    /// spawn to that answer.
    pub fn spawn(&self) -> Result<(Server, Conn, Duration), String> {
        for _ in 0..8 {
            // Ask the kernel for a free loopback port, then hand it to
            // the child; a rare race for it shows as the child exiting.
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free loopback port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let log = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.log)
                .map_err(|e| format!("cannot open {}: {e}", self.log.display()))?;
            let mut cmd = Command::new(&self.topk);
            cmd.arg("serve")
                .args(["--addr", &addr])
                .args(["--shards", &SHARDS.to_string()])
                .args(["--max-df", &self.max_df.to_string()])
                .args(["--slo-p99-ms", &SLO_P99_MS.to_string()]);
            if let Some(j) = &self.journal {
                cmd.arg("--journal").arg(j);
            }
            if let Some(s) = &self.restore {
                cmd.arg("--restore").arg(s);
            }
            let t0 = Instant::now();
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", self.topk.display()))?;
            let mut server = Server { child, addr };
            match server.wait_ready(t0) {
                Ok(conn) => return Ok((server, conn, t0.elapsed())),
                Err(Exited) => continue,
            }
        }
        Err(format!(
            "topk serve exited before listening, 8 times; see {}",
            self.log.display()
        ))
    }
}

struct Exited;

impl Server {
    fn wait_ready(&mut self, t0: Instant) -> Result<Conn, Exited> {
        loop {
            if let Ok(mut conn) = Conn::connect(&self.addr) {
                if conn.call("{\"cmd\":\"ping\"}\n").is_ok_and(is_ok) {
                    return Ok(conn);
                }
            }
            if !matches!(self.child.try_wait(), Ok(None)) || t0.elapsed() > READY_TIMEOUT {
                return Err(Exited);
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set of the server so far, from the kernel.
    pub fn vm_hwm_bytes(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// `kill -9`, then reap: what dropping a server does.
    pub fn kill9(self) {}

    /// Ask for a clean stop over `conn` and wait for the process to end;
    /// a server that does not stop is killed and reported.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let asked = conn.call("{\"cmd\":\"shutdown\"}\n").is_ok_and(is_ok);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if asked && status.success() {
                    Ok(())
                } else {
                    Err(format!("server stopped with {status} (asked: {asked})"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not stop within 30 s of `shutdown`".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct CliRun {
    pub stdout: String,
    pub stderr: String,
    /// Process start to exit.
    pub secs: f64,
}

/// Run `topk <args>` to completion.
pub fn run_cli(topk: &Path, args: &[String]) -> Result<CliRun, String> {
    let t0 = Instant::now();
    let out = Command::new(topk)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", topk.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    let run = CliRun {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        secs,
    };
    if out.status.success() {
        Ok(run)
    } else {
        Err(format!(
            "topk {} failed with {}: {}",
            args.join(" "),
            out.status,
            run.stderr.trim()
        ))
    }
}

/// Pin this process, and with it every thread and child it starts from
/// now on, to the last CPU. The server, both client threads and the CLI
/// then share one CPU, and what is timed is their CPU work and not where
/// the scheduler happened to put them: unpinned on this 2-vCPU sandbox
/// the same cache-hit read took 30 µs or 50 µs, and the same `topk
/// count` 0.16 s or 0.30 s, by placement alone. Returns the CPU, or why
/// the process stays unpinned (the run goes on, only noisier).
pub fn pin_to_last_cpu() -> Result<usize, String> {
    // The last CPU this process may use at all, which need not be
    // `nproc - 1` when the sandbox itself is confined to a subset.
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let cpu: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next())
        .and_then(|last| last.parse().ok())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let out = Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if out.status.success() {
        Ok(cpu)
    } else {
        Err(format!(
            "taskset failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// CPU time this thread has used, from the kernel's per-thread
/// accounting (clock ticks of 10 ms).
pub fn thread_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

//! Wall-clock benchmark of the CuART stack.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload session-lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload end to end and prints the end-to-end
//! metrics; `--trace 1` runs the stacked per-layer passes and prints the
//! per-layer metrics (see `wallbench/README.md`). The last stdout line is
//! one JSON object; a wrong answer exits non-zero.

mod affinity;
mod client;
mod conn;
mod data;
mod e2e;
mod layers;
mod replay;

use client::Shape;
use std::process::{Command, ExitCode};

/// One workload: the request stream of its one closed-loop client. One
/// client, not two, so every scheduler batch of a served workload is
/// exactly one request: two requests would share a batch or not depending
/// on the host's speed.
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Keys per batch of the traced run's direct-session pass on served
    /// workloads: the scheduler's observed mean batch fill, so the pass
    /// times the batches the served path runs. session-lookup's batches
    /// are its own requests.
    pub fill: usize,
    /// Served over TCP (`NetServer` + `Scheduler`) rather than calling
    /// the session in process.
    pub serve: bool,
    /// Unmeasured calls per client before the window.
    pub warm_calls: usize,
    /// Update and insert calls per client after the window.
    pub tail_calls: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "session-lookup",
        shape: Shape {
            keys: 4096,
            sort: false,
        },
        fill: 4096,
        serve: false,
        warm_calls: 8,
        tail_calls: 4,
    },
    Workload {
        name: "serve-lookup",
        shape: Shape {
            keys: 256,
            sort: false,
        },
        fill: 256,
        serve: true,
        warm_calls: 50,
        tail_calls: 32,
    },
];

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A metric as printed: name, value, unit.
#[derive(Clone, Copy)]
pub struct Metric(pub &'static str, pub f64, pub &'static str);

/// The result line.
pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Output {
    fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.metrics.len());
        for Metric(name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Nearest-rank percentile of `v` (`q` in 0..=100).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// nproc, CPU model, rustc version and commit, as one JSON object.
fn fingerprint() -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git repository names its commit.
    let commit = if std::path::Path::new(".git").exists() {
        run("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    };
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        esc(&cpu),
        esc(&run("rustc", &["--version"])),
        esc(&commit)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::run(&args)
    } else {
        e2e::run(&args)
    };
    match result.and_then(|out| out.to_json()) {
        Ok(line) => {
            println!("fingerprint {}", fingerprint());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {}: {e}", args.workload.name);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}

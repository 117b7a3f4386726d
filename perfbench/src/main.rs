//! perfbench — the measuring process behind `perfbench/run.py`.
//!
//! `perfbench measure --workload W --seed N [--metrics] [--reference]`
//! sets one workload up, runs its measured phase once and prints one JSON
//! line: set-up seconds, measured wall seconds, operations, peak RSS, the
//! output checks and a bitwise digest of the simulated outputs.
//!
//! `perfbench layers --workload W --seed N --spans FILE` is the
//! traced run: it times calls into each crate's public functions around
//! the workload (see `layers.rs`), writes the spans to FILE and prints the
//! per-layer metrics as one JSON line.
//!
//! Each invocation is one fresh process on purpose: on-line SMPI users run
//! one simulation per process, and in-process repeats drift (README.md).

mod inputs;
mod json;
mod layers;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use json::Obj;
use spans::Spans;
use workloads::{Outcome, WORKLOADS};

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    metrics: bool,
    reference: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (measure | layers)")?;
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: 1,
        metrics: false,
        reference: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--metrics" => a.metrics = true,
            "--reference" => a.reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch directory for files the benchmark writes (captured traces):
/// `perfbench-out/` under the build directory, inside the checkout.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let dir = PathBuf::from(base).join("perfbench-out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

fn measure(a: &Args) -> Obj {
    let t_setup = Instant::now();
    let (setup_s, out): (f64, Outcome) = if a.workload == "dt-sweep" {
        match workloads::prepare_dt(&mut Spans::new(), &scratch_dir(), a.seed) {
            Ok(dt) => {
                let setup_s = t_setup.elapsed().as_secs_f64();
                let out = workloads::run_dt(&dt, a.reference);
                std::fs::remove_file(&dt.capture_path).ok();
                (setup_s, out)
            }
            Err(e) => {
                eprintln!("perfbench: dt-sweep set-up failed: {e}");
                let out = Outcome {
                    attempted: 1,
                    failed: 1,
                    checks: vec![("setup_completed", false)],
                    ..Outcome::default()
                };
                (t_setup.elapsed().as_secs_f64(), out)
            }
        }
    } else {
        let w = workloads::prepare_online(&a.workload, a.seed);
        let setup_s = t_setup.elapsed().as_secs_f64();
        (setup_s, w.run(&w.world.clone().metrics(a.metrics)).0)
    };
    let mut o = Obj::new();
    o.num("setup_s", setup_s)
        .num("wall_s", out.wall_s)
        .uint("ops", out.ops)
        .uint("attempted", out.attempted)
        .uint("failed", out.failed)
        .num("peak_rss_mb", peak_rss_mb())
        .str("digest", &out.digest);
    let mut checks = Obj::new();
    for (name, ok) in &out.checks {
        checks.bool(name, *ok);
    }
    o.obj("checks", checks);
    if let Some(p) = &out.profile {
        o.uint("simcalls", p.simcalls)
            .num("profile_wall_s", p.wall_seconds);
        let mut phases = Obj::new();
        for (name, secs) in &p.phases {
            phases.num(name, *secs);
        }
        o.obj("phases", phases);
    }
    o
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.mode.as_str() {
        "measure" => measure(&args),
        "layers" => layers::run(&args.workload, args.seed, args.spans.as_deref()),
        other => {
            eprintln!("perfbench: unknown mode {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", out.finish());
}

//! `mfc-perfbench` — the repository benchmark recorded in
//! `BENCHMARK.json`.
//!
//! ```text
//! mfc-perfbench --workload droplet3d|ranks2_ckpt_fault|ensemble_open
//!               --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! The seed generates the inputs (case files, fault plan, job stream);
//! the program receives only those files and frames. With `--trace 0`
//! the run measures the end-to-end metrics with tracing off; with
//! `--trace 1` it attaches the existing tracer, reconciles trace and
//! ledger exactly, and reports the per-layer metrics. Every output is
//! checked against a reference computed outside the timed windows. The
//! report goes to stdout; its last line is the JSON result, and the
//! exit code is non-zero when any check failed.

mod calib;
mod checks;
mod droplet;
mod ensemble;
mod gen;
mod layers;
mod ranks2;
mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mfc_cli::CaseFile;
use mfc_core::{CaseBuilder, SolverConfig};
use serde_json::{json, Map, Value};

use stats::Metrics;

/// End-to-end metrics (tracing off) and their units, reported by every
/// workload; `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("grind_ns", "ns"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run) and their units, reported by every
/// workload; a layer a workload does not exercise reports a zero count
/// or share (see [`idle_layers`]).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("kernel.weno.ns_cell_step", "ns"),
    ("kernel.riemann.ns_cell_step", "ns"),
    ("kernel.flux_div.ns_cell_step", "ns"),
    ("kernel.cons2prim.ns_cell_step", "ns"),
    ("kernel.sweep_gather.ns_cell_step", "ns"),
    ("kernel.health.ns_cell_step", "ns"),
    ("kernel.dt.ns_cell_step", "ns"),
    ("kernel.bc.ns_cell_step", "ns"),
    ("kernel.weno.gflops", "GFLOP/s"),
    ("kernel.weno.gbs_computed", "GB/s"),
    ("kernel.weno.frac_ceiling", "frac"),
    ("kernel.riemann.gflops", "GFLOP/s"),
    ("kernel.riemann.gbs_computed", "GB/s"),
    ("kernel.riemann.frac_ceiling", "frac"),
    ("kernel.flops_per_cell_step", "FLOP"),
    ("kernel.bytes_per_cell_step", "B"),
    ("kernel.launches_per_step", "count"),
    ("acc.lane_tail_frac", "frac"),
    ("comm.msgs_per_step", "count"),
    ("comm.bytes_per_step", "B"),
    ("comm.frac", "frac"),
    ("ckpt.bytes_per_wave", "B"),
    ("cli.parse_ms", "ms"),
    ("cli.dry_run_ms", "ms"),
    ("solver.new_ms", "ms"),
    ("sched.queue_depth.max", "count"),
    ("sched.resizes_per_job", "count"),
    ("host.triad_gbs", "GB/s"),
    ("host.triad_l2_gbs", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    ("trace.overhead_frac", "frac"),
];

/// Report zero for per-layer counts and shares of layers the workload
/// never enters (no ranks, no checkpoints, no scheduler).
pub fn idle_layers(m: &mut Metrics, names: &[&str]) {
    for name in names {
        let (_, unit) = PER_LAYER
            .iter()
            .find(|(n, _)| n == name)
            .expect("idle layer metric is a per-layer metric");
        m.put(*name, 0.0, unit, 1);
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

/// What a workload run returns: every metric it measured (the report
/// prints all of them; the JSON carries the `BENCHMARK.json` set) and
/// its operation counts.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Worker threads the workloads size themselves to: the host's cores.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (VmHWM) of `pid` (this process when `None`), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A case read from disk through the CLI's public front door, with the
/// time each set-up stage took.
pub struct Loaded {
    pub file: CaseFile,
    pub case: CaseBuilder,
    pub cfg: SolverConfig,
    /// Read + JSON parse.
    pub parse: Duration,
    /// `mfc_cli::dry_run` (schema lowering, bounds, decomposition, plan).
    pub dry_run: Duration,
}

pub fn load_case(path: &Path) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let file = CaseFile::from_path(path)?;
    let parse = t0.elapsed();
    let t1 = Instant::now();
    mfc_cli::dry_run(&file).map_err(|e| e.to_string())?;
    let case = file.to_case()?;
    let cfg = file.numerics.to_solver_config()?;
    Ok(Loaded {
        file,
        case,
        cfg,
        parse,
        dry_run: t1.elapsed(),
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: mfc-perfbench --workload droplet3d|ranks2_ckpt_fault|ensemble_open \
         --seed N --seconds S --trace 0|1 [--serve-bin PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = PathBuf::from(".bench_build/release/mfc-serve");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(v),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            serve_bin,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "droplet3d" => droplet::run(&args, &work),
        "ranks2_ckpt_fault" => ranks2::run(&args, &work),
        "ensemble_open" => ensemble::run(&args, &work),
        _ => Err(format!("unknown workload '{}'", args.workload)),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in &out.metrics.0 {
        println!(
            "{:<34} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<34} {:>16.6} {:<8} n={}",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
        out.attempted
    );
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Map::new();
    for (name, unit) in wanted {
        match out.metrics.get(name) {
            Some(m) if m.value.is_finite() && m.unit == *unit => {
                let mut entry = Map::new();
                entry.insert("value", json!(m.value));
                entry.insert("unit", json!(m.unit));
                json.insert(*name, Value::Object(entry));
            }
            other => {
                eprintln!("error: metric {name} [{unit}] missing, not finite or in another unit: {other:?}");
                std::process::exit(1);
            }
        }
    }
    let correct = out.failed == 0;
    let mut line = Map::new();
    line.insert("correct", json!(correct));
    line.insert("attempted", json!(out.attempted));
    line.insert("failed", json!(out.failed));
    line.insert("metrics", Value::Object(json));
    println!("{}", Value::Object(line));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric tables above must agree.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = v[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(
            workloads,
            ["droplet3d", "ranks2_ckpt_fault", "ensemble_open"]
        );
    }
}

//! `ranks2_ckpt_fault`: the droplet physics on two simulated ranks of one
//! worker each, a checkpoint wave every few steps, and one seeded
//! transient death of rank 1 that forces detect → rollback (checkpoint
//! read) → replay. The only workload with halo exchange, checkpoint I/O
//! and recovery; its gang layer is idle.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mfc_acc::{Ledger, ResilienceEventKind};
use mfc_core::par::{run_distributed_resilient, GlobalField, ResilienceOpts};
use mfc_core::restart::{load_checkpoint, wave_path};
use mfc_core::{HealthConfig, Solver};
use mfc_mpsim::{FaultCtx, FaultPlan, Staging};
use mfc_trace::{Category, Tracer};
use serde_json::Value;

use crate::checks::{same_bits, snapshot};
use crate::stats::{median, Metrics};
use crate::{calib, gen, idle_layers, layers, load_case, ms, peak_rss_mb, Args, Loaded, Outcome};

pub const N: usize = 32;
pub const STEPS: usize = 24;
pub const EVERY: u64 = 4;
const RANKS: usize = 2;
const SETUP_REPS: usize = 5;
/// Timeline of the benchmark's own spans (the ranks use 0 and 1).
const BENCH_TIMELINE: usize = 1000;

struct Solve {
    tts: f64,
    run_wall: f64,
    /// Steps executed, replayed ones included.
    executed: u64,
    gf: GlobalField,
    events: Arc<Ledger>,
}

fn opts(
    l: &Loaded,
    ckpt_dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<ResilienceOpts, String> {
    let path = l
        .file
        .run
        .faults
        .as_ref()
        .ok_or("case names no fault plan")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let plan = FaultPlan::from_json(&text)?;
    Ok(ResilienceOpts {
        checkpoint_every: l.file.run.checkpoint_every,
        ckpt_dir: ckpt_dir.to_path_buf(),
        faults: Some(Arc::new(FaultCtx::new(plan, l.file.run.ranks))),
        events: Some(Arc::new(Ledger::default())),
        recovery: None,
        health: HealthConfig::default(),
        trace: tracer.cloned(),
        exchange: l.file.numerics.exchange(),
        failure_policy: l.file.run.failure_policy,
        spares: 0,
        ckpt_keep: l.file.run.ckpt_keep,
    })
}

fn solve(case_path: &Path, ckpt_dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Solve, String> {
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let h = tracer.map(|t| t.handle(BENCH_TIMELINE));
    let span = |name: &'static str| h.as_ref().map(|h| h.span(name, Category::Phase));
    let t0 = Instant::now();
    let (l, o) = {
        let _s = span("bench.load_case");
        let l = load_case(case_path)?;
        let o = opts(&l, ckpt_dir, tracer)?;
        (l, o)
    };
    let t_run = Instant::now();
    let (gf, _) = {
        let _s = span("bench.resilient_run");
        run_distributed_resilient(
            &l.case,
            l.cfg,
            l.file.run.ranks,
            l.file.run.steps,
            Staging::DeviceDirect,
            &o,
        )
        .map_err(|e| format!("resilient run failed: {e}"))?
    };
    let run_wall = t_run.elapsed().as_secs_f64();
    let tts = t0.elapsed().as_secs_f64();
    let events = o.events.expect("events ledger attached");
    // Replayed steps: from the wave rolled back to up to the fault.
    let fault = events
        .events_of(ResilienceEventKind::FaultDetected)
        .first()
        .map(|e| e.step);
    let restored = events
        .events_of(ResilienceEventKind::Rollback)
        .last()
        .map(|e| e.step);
    let replayed = match (fault, restored) {
        (Some(f), Some(r)) => f.saturating_sub(r),
        _ => 0,
    };
    Ok(Solve {
        tts,
        run_wall,
        executed: l.file.run.steps as u64 + replayed,
        gf,
        events,
    })
}

/// Wall of every event of `kind`, ms.
fn walls(events: &Ledger, kind: ResilienceEventKind) -> Vec<f64> {
    events.events_of(kind).iter().map(|e| ms(e.wall)).collect()
}

/// detect + rollback + replay of one solve, s.
fn recovery_s(events: &Ledger) -> f64 {
    [
        ResilienceEventKind::FaultDetected,
        ResilienceEventKind::Rollback,
        ResilienceEventKind::Replay,
    ]
    .iter()
    .map(|k| walls(events, *k).iter().sum::<f64>())
    .sum::<f64>()
        / 1e3
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let case_path = work.join("ranks2_ckpt_fault.json");
    let plan_path = work.join("fault_plan.json");
    let ckpt_dir: PathBuf = work.join("ckpt");
    let (cf, plan) = gen::ranks2_inputs(args.seed, N, STEPS, EVERY, &plan_path, &work.join("out"));
    gen::write_json(&case_path, &cf)?;
    gen::write_json(&plan_path, &plan)?;
    let loaded = load_case(&case_path)?;
    let cells = (N * N * N) as f64;
    let neq = loaded.case.eq().neq() as f64;
    let stages = loaded.cfg.scheme.stages() as f64;

    // Reference outside every timed window: the fault-free single-rank
    // run of the same case.
    let reference = {
        let mut s = Solver::new(&loaded.case, loaded.cfg, mfc_acc::Context::serial());
        s.run_steps(STEPS)
            .map_err(|e| format!("reference run failed: {e}"))?;
        snapshot(&s)
    };
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |s: &Solve| {
        attempted += 1;
        let recovered = !s.events.events_of(ResilienceEventKind::Rollback).is_empty();
        if !recovered || !same_bits(&s.gf.data, &reference) {
            eprintln!("ranks2_ckpt_fault: recovered state differs from the fault-free reference (rollback seen: {recovered})");
            failed += 1;
        }
    };

    // Set-up: read, parse and validate the case and plan, then bring up
    // the two-rank world with its solver blocks (a zero-step run).
    let mut setup = Vec::new();
    let mut world_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let t0 = Instant::now();
        let l = load_case(&case_path)?;
        let o = opts(&l, &ckpt_dir, None)?;
        let t1 = Instant::now();
        run_distributed_resilient(&l.case, l.cfg, RANKS, 0, Staging::DeviceDirect, &o)
            .map_err(|e| format!("zero-step run failed: {e}"))?;
        world_ms.push(ms(t1.elapsed()));
        setup.push(t0.elapsed().as_secs_f64());
    }

    let grind = |s: &Solve| s.run_wall * 1e9 / (cells * neq * STEPS as f64 * stages);
    if !args.trace {
        let (mut tts, mut g, mut rec, mut wave_ms, mut step_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // No per-step clock is visible from outside the resilient driver
        // with tracing off, so the step latency is each solve's wall over
        // the steps it executed (replayed ones included).
        let window = Instant::now();
        while tts.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
            let s = solve(&case_path, &ckpt_dir, None)?;
            check(&s);
            tts.push(s.tts);
            g.push(grind(&s));
            rec.push(recovery_s(&s.events));
            wave_ms.extend(walls(&s.events, ResilienceEventKind::Checkpoint));
            step_ms.push(s.run_wall * 1e3 / s.executed as f64);
        }
        m.median("setup_s", &setup, "s");
        m.median("time_to_solution_s", &tts, "s");
        m.median("grind_ns", &g, "ns");
        m.p50_p90("latency_ms", &step_ms, "ms");
        m.put("peak_rss_mb", peak_rss_mb(None)?, "MB", 1);
        m.median("recovery_s", &rec, "s");
        m.p50_p90("ckpt.write_ms", &wave_ms, "ms");
        return Ok(Outcome {
            metrics: m,
            attempted,
            failed,
        });
    }

    let ceil = calib::calibrate(RANKS, &mut m);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut parse, mut dry) = (Vec::new(), Vec::new());
    let (mut detect, mut rollback, mut replay, mut wave_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let window = Instant::now();
    while traced.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
        let s = solve(&case_path, &ckpt_dir, None)?;
        check(&s);
        plain.push(s.run_wall);
        let tracer = Arc::new(Tracer::new());
        let s = solve(&case_path, &ckpt_dir, Some(&tracer))?;
        check(&s);
        traced.push(s.run_wall);
        let l = load_case(&case_path)?;
        parse.push(ms(l.parse));
        dry.push(ms(l.dry_run));
        detect.extend(walls(&s.events, ResilienceEventKind::FaultDetected));
        rollback.extend(walls(&s.events, ResilienceEventKind::Rollback));
        replay.extend(walls(&s.events, ResilienceEventKind::Replay));
        wave_ms.extend(walls(&s.events, ResilienceEventKind::Checkpoint));
        last = Some((s, tracer));
    }
    let (s, tracer) = last.expect("at least one traced solve");
    let parsed = layers::reconcile(&tracer.snapshot())?;
    m.put(
        "trace.reconciled_ranks",
        parsed.ledgers.len() as f64,
        "count",
        1,
    );
    let rows: Vec<_> = parsed.ledgers.values().flatten().cloned().collect();
    let steps = s.executed as f64;
    layers::kernel_metrics(&rows, cells * steps, steps, &ceil, &mut m);

    // Halo exchange, from the ranks' leaf comm events.
    let (mut msgs, mut bytes, mut tails) = (0u64, 0u64, Vec::new());
    let mut wait_ms = Vec::new();
    for (rank, events) in &parsed.ranks {
        if *rank as usize == BENCH_TIMELINE {
            continue;
        }
        let mut wait_us = 0.0;
        for e in events {
            match (e.ph, e.cat.as_str(), e.name.as_str()) {
                ('X', "comm", "send") => {
                    msgs += 1;
                    bytes += e.args.get("bytes").and_then(Value::as_u64).unwrap_or(0);
                }
                ('X', "comm", _) => wait_us += e.dur_us,
                ('C', _, "lane_tail_fraction") => {
                    if let Some(v) = e.args.get("lane_tail_fraction").and_then(Value::as_f64) {
                        tails.push(v);
                    }
                }
                _ => {}
            }
        }
        wait_ms.push(wait_us / 1e3 / steps);
    }
    m.put("acc.lane_tail_frac", median(&tails), "frac", tails.len());
    m.put("comm.msgs_per_step", msgs as f64 / steps, "count", 1);
    m.put("comm.bytes_per_step", bytes as f64 / steps, "B", 1);
    m.put(
        "comm.wait_ms_per_step",
        crate::stats::max(&wait_ms),
        "ms",
        wait_ms.len(),
    );
    let comm_frac = mfc_trace::splits(&parsed)
        .iter()
        .filter(|sp| sp.rank as usize != BENCH_TIMELINE)
        .map(|sp| sp.comm_fraction())
        .fold(0.0, f64::max);
    m.put("comm.frac", comm_frac, "frac", RANKS);

    // Checkpoint I/O: the last committed wave's files, re-read through
    // the public restart API after the run.
    let last_wave = s
        .events
        .events_of(ResilienceEventKind::Checkpoint)
        .last()
        .map(|e| e.wave)
        .ok_or("no checkpoint wave committed")?;
    let files: Vec<PathBuf> = (0..RANKS)
        .map(|r| wave_path(&ckpt_dir, r, last_wave))
        .collect();
    let wave_bytes: u64 = files
        .iter()
        .map(|f| std::fs::metadata(f).map(|md| md.len()))
        .sum::<Result<u64, _>>()
        .map_err(|e| format!("stat checkpoint wave: {e}"))?;
    let mut read_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for f in &files {
            load_checkpoint(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        }
        read_ms.push(ms(t0.elapsed()));
    }
    let write_p50 = median(&wave_ms);
    m.put("ckpt.bytes_per_wave", wave_bytes as f64, "B", 1);
    m.median("ckpt.write_ms.p50", &wave_ms, "ms");
    m.put(
        "ckpt.write_gbs",
        wave_bytes as f64 / (write_p50 * 1e-3) / 1e9,
        "GB/s",
        wave_ms.len(),
    );
    m.median("ckpt.read_ms", &read_ms, "ms");
    m.median("recovery.detect_ms", &detect, "ms");
    m.median("recovery.rollback_ms", &rollback, "ms");
    m.median("recovery.replay_ms", &replay, "ms");
    m.median("cli.parse_ms", &parse, "ms");
    m.median("cli.dry_run_ms", &dry, "ms");
    // The distributed driver builds the per-rank solver blocks itself;
    // its zero-step run is this path's solver construction.
    m.median("solver.new_ms", &world_ms, "ms");
    idle_layers(&mut m, &["sched.queue_depth.max", "sched.resizes_per_job"]);
    m.put(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
        "frac",
        traced.len(),
    );
    layers::self_time_metrics(&parsed, &mut m);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

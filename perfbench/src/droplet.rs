//! `droplet3d`: one rank, host-core gangs, fused engine, a 32³ two-phase
//! cavity. Kernels and gangs do almost all the work — no comm, no I/O,
//! no scheduler — so this is the paper's grind-time case.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfc_acc::Context;
use mfc_core::Solver;
use mfc_trace::{Category, Tracer};

use crate::checks::{same_bits, snapshot};
use crate::stats::{median, Metrics};
use crate::{
    calib, gen, host_cores, idle_layers, layers, load_case, ms, peak_rss_mb, Args, Outcome,
};

/// Cells per axis: 32³ · 7 equations · ~9 arrays is a ~10 MB working set,
/// above L2 and below the LLC.
pub const N: usize = 32;
/// Steps per solve. A run repeats the solve until `--seconds` is spent,
/// so the step-time p90 has well over ten samples beyond it.
pub const STEPS: usize = 30;
const SETUP_REPS: usize = 5;

/// One solve: set-up through the CLI front door, `STEPS` timed steps,
/// and the final interior state.
struct Solve {
    setup: Duration,
    parse: Duration,
    dry_run: Duration,
    solver_new: Duration,
    step_ms: Vec<f64>,
    stepping: Duration,
    state: Vec<f64>,
    solver: Solver,
}

fn solve(case_path: &Path, workers: usize, tracer: Option<&Arc<Tracer>>) -> Result<Solve, String> {
    let h = tracer.map(|t| t.handle(0));
    let span = |name: &'static str| h.as_ref().map(|h| h.span(name, Category::Phase));
    let t0 = Instant::now();
    let l = {
        let _s = span("bench.load_case");
        load_case(case_path)?
    };
    let t_new = Instant::now();
    let mut ctx = Context::with_workers(workers).with_vector_width(l.cfg.vector_width);
    if let Some(h) = &h {
        ctx.set_tracer(Arc::clone(h));
    }
    let mut solver = {
        let _s = span("bench.solver_new");
        Solver::new(&l.case, l.cfg, ctx)
    };
    let solver_new = t_new.elapsed();
    let setup = t0.elapsed();
    let mut step_ms = Vec::with_capacity(l.file.run.steps);
    let t_steps = Instant::now();
    for _ in 0..l.file.run.steps {
        let _s = span("bench.step");
        let ts = Instant::now();
        solver
            .step()
            .map_err(|e| format!("droplet3d step failed: {e}"))?;
        step_ms.push(ms(ts.elapsed()));
    }
    let stepping = t_steps.elapsed();
    let state = snapshot(&solver);
    Ok(Solve {
        setup,
        parse: l.parse,
        dry_run: l.dry_run,
        solver_new,
        step_ms,
        stepping,
        state,
        solver,
    })
}

fn kernel_wall(s: &Solver) -> f64 {
    s.context().ledger().total_wall().as_secs_f64()
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let workers = host_cores();
    let case_path = work.join("droplet3d.json");
    let cf = gen::droplet_case(args.seed, N, STEPS, workers, &work.join("out"));
    gen::write_json(&case_path, &cf)?;
    let loaded = load_case(&case_path)?;
    let cells = (N * N * N) as f64;
    let neq = loaded.case.eq().neq() as f64;
    let work_units = cells * neq * (STEPS * loaded.cfg.scheme.stages()) as f64;

    // Reference outside every timed window: the same case at 1 worker.
    let reference = solve(&case_path, 1, None)?;
    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |s: &Solve| {
        attempted += 1;
        if !same_bits(&s.state, &reference.state) {
            eprintln!("droplet3d: final state differs from the 1-worker reference");
            failed += 1;
        }
    };

    if !args.trace {
        let mut setup = Vec::new();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let l = load_case(&case_path)?;
            let ctx = Context::with_workers(workers).with_vector_width(l.cfg.vector_width);
            drop(std::hint::black_box(Solver::new(&l.case, l.cfg, ctx)));
            setup.push(t0.elapsed().as_secs_f64());
        }
        let (mut tts, mut grind, mut step_ms) = (Vec::new(), Vec::new(), Vec::new());
        let window = Instant::now();
        while tts.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
            let t0 = Instant::now();
            let s = solve(&case_path, workers, None)?;
            tts.push(t0.elapsed().as_secs_f64());
            check(&s);
            setup.push(s.setup.as_secs_f64());
            grind.push(s.stepping.as_nanos() as f64 / work_units);
            step_ms.extend_from_slice(&s.step_ms);
        }
        m.median("setup_s", &setup, "s");
        m.median("time_to_solution_s", &tts, "s");
        m.median("grind_ns", &grind, "ns");
        m.p50_p90("latency_ms", &step_ms, "ms");
        m.p50_p90("step_ms", &step_ms, "ms");
        m.put("peak_rss_mb", peak_rss_mb(None)?, "MB", 1);
        return Ok(Outcome {
            metrics: m,
            attempted,
            failed,
        });
    }

    // Traced run: calibration, then untraced/traced solves in pairs.
    let ceil = calib::calibrate(workers, &mut m);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut parse, mut dry, mut new) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_traced = None;
    let mut wall_n = Vec::new();
    let window = Instant::now();
    while traced.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
        let s = solve(&case_path, workers, None)?;
        check(&s);
        plain.push(s.stepping.as_secs_f64());
        wall_n.push(kernel_wall(&s.solver));
        let tracer = Arc::new(Tracer::new());
        let s = solve(&case_path, workers, Some(&tracer))?;
        check(&s);
        traced.push(s.stepping.as_secs_f64());
        for (v, d) in [
            (&mut parse, s.parse),
            (&mut dry, s.dry_run),
            (&mut new, s.solver_new),
        ] {
            v.push(ms(d));
        }
        last_traced = Some((s, tracer));
    }
    let (s, tracer) = last_traced.expect("at least one traced solve");
    s.solver.context().flush_ledger_to_trace();
    let parsed = layers::reconcile(&tracer.snapshot())?;
    m.put(
        "trace.reconciled_ranks",
        parsed.ledgers.len() as f64,
        "count",
        1,
    );
    let rows = layers::ledger_rows(s.solver.context().ledger());
    layers::kernel_metrics(&rows, cells * STEPS as f64, STEPS as f64, &ceil, &mut m);
    m.put(
        "acc.lane_tail_frac",
        s.solver.context().lane_efficiency().0,
        "frac",
        1,
    );
    // Gang efficiency: kernel wall at 1 worker over workers × kernel wall
    // at `workers` gangs, same seed, untraced ledgers.
    m.put(
        "acc.gang_efficiency",
        kernel_wall(&reference.solver) / (workers as f64 * median(&wall_n)),
        "frac",
        wall_n.len(),
    );
    m.median("cli.parse_ms", &parse, "ms");
    m.median("cli.dry_run_ms", &dry, "ms");
    m.median("solver.new_ms", &new, "ms");
    // One rank, no checkpoints, no scheduler: those layers are idle.
    idle_layers(
        &mut m,
        &[
            "comm.msgs_per_step",
            "comm.bytes_per_step",
            "comm.frac",
            "ckpt.bytes_per_wave",
            "sched.queue_depth.max",
            "sched.resizes_per_job",
        ],
    );
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

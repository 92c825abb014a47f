//! `ensemble_open`: an `mfc-serve --listen` daemon with a budget of the
//! host's cores, fed by one client connection with an open loop of small
//! 1-D/2-D jobs: a batch of every template, due every
//! `gen::BATCH_PERIOD_S` whether or not earlier jobs are done. Per-job
//! work is small, so parse, admission, solver set-up, queueing, the
//! protocol and `final.ckpt` writes are a large share of each job's
//! time, and each batch queues for the workers and regrows the pool as
//! it drains.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfc_acc::Context;
use mfc_core::restart::save_checkpoint;
use mfc_core::Solver;
use mfc_sched::{JobRecord, JobSpec, JobState, MetricsSnapshot, Request};
use mfc_trace::chrome;
use serde_json::Value;

use crate::checks::job_output_ok;
use crate::gen::{self, Arrival, Template};
use crate::stats::{max, median, quantile, Metrics};
use crate::{calib, host_cores, idle_layers, layers, load_case, ms, peak_rss_mb, Args, Outcome};

/// Admission-queue capacity: larger than any backlog the offered load
/// builds, so no submission is refused for backpressure.
const QUEUE_CAP: usize = 1024;
/// Cold daemon starts timed for `setup_s`.
const SETUP_STARTS: usize = 21;
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Template reference, computed in-process before the daemon starts:
/// the standalone `final.ckpt` bytes and what each stage cost.
struct Reference {
    ckpt: Vec<u8>,
    wall_ms: f64,
    parse_ms: f64,
    dry_run_ms: f64,
    new_ms: f64,
    write_ms: f64,
}

/// Run a template as a job thread runs it (`Solver::new` at the case's
/// worker count, the step loop, `save_checkpoint`) and keep the bytes.
fn reference(t: &Template, dir: &Path) -> Result<Reference, String> {
    let t0 = Instant::now();
    let l = load_case(&t.path)?;
    let t_new = Instant::now();
    let ctx = Context::with_workers(l.cfg.workers).with_vector_width(l.cfg.vector_width);
    let mut solver = Solver::new(&l.case, l.cfg, ctx);
    let new_ms = ms(t_new.elapsed());
    let t_end = l.file.run.t_end.unwrap_or(f64::INFINITY);
    while solver.time() < t_end && solver.steps() < l.file.run.steps as u64 {
        solver
            .step()
            .map_err(|e| format!("template {} failed: {e}", t.case.name))?;
    }
    let path = dir.join(format!("{}.ckpt", t.case.name));
    let t_write = Instant::now();
    save_checkpoint(&path, solver.state(), solver.time(), solver.steps())
        .map_err(|e| format!("reference checkpoint: {e}"))?;
    let write_ms = ms(t_write.elapsed());
    let wall_ms = ms(t0.elapsed());
    let ckpt = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(Reference {
        ckpt,
        wall_ms,
        parse_ms: ms(l.parse),
        dry_run_ms: ms(l.dry_run),
        new_ms,
        write_ms,
    })
}

/// A running daemon: the child, its address, and the thread draining
/// its stdout after the `listening on` line.
struct Daemon {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<()>>,
    ledger: PathBuf,
}

impl Daemon {
    /// Spawn and wait for `listening on ADDR`.
    fn spawn(
        bin: &Path,
        budget: usize,
        dir: &Path,
        trace: Option<&Path>,
    ) -> Result<Daemon, String> {
        let ledger = dir.join("ledger.jsonl");
        let mut cmd = Command::new(bin);
        // glibc gives a thread that allocates while the others hold
        // their malloc arenas a new one, so the daemon's peak RSS
        // depended on how job threads happened to overlap: 15-23 MB over
        // ten runs in two clusters, and still in two clusters with two
        // arenas. With one arena it repeats to ~0.5 MB, still moves
        // with what the program allocates, and the timings are unchanged.
        cmd.env("MALLOC_ARENA_MAX", "1")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--budget")
            .arg(budget.to_string())
            .arg("--queue-cap")
            .arg(QUEUE_CAP.to_string())
            .arg("--out-dir")
            .arg(dir)
            .arg("--ledger")
            .arg(&ledger)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("mfc-serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        let stdout = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(out.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Daemon {
            child,
            addr,
            stdout: Some(stdout),
            ledger,
        })
    }

    /// Wait for exit (killing it after the timeout) and read its ledger.
    fn finish(mut self) -> Result<Vec<JobRecord>, String> {
        let t0 = Instant::now();
        let status = loop {
            if let Some(s) = self.child.try_wait().map_err(|e| e.to_string())? {
                break s;
            }
            if t0.elapsed() > EXIT_TIMEOUT {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("mfc-serve did not exit after drain".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        if !status.success() {
            return Err(format!("mfc-serve exited with {status}"));
        }
        let text = std::fs::read_to_string(&self.ledger)
            .map_err(|e| format!("read {}: {e}", self.ledger.display()))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str::<JobRecord>(l).map_err(|e| format!("ledger row: {e}")))
            .collect()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path before `finish`: never leave a
        // daemon behind.
        if self.stdout.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line-delimited JSON connection to the daemon.
struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { w, r })
    }

    fn send(&mut self, req: &Request) -> Result<String, String> {
        let mut line = req.to_line();
        line.push('\n');
        self.w
            .write_all(line.as_bytes())
            .map_err(|e| format!("send {line:?}: {e}"))?;
        let mut reply = String::new();
        self.r
            .read_line(&mut reply)
            .map_err(|e| format!("receive reply to {line:?}: {e}"))?;
        Ok(reply)
    }

    fn call(&mut self, req: &Request) -> Result<Value, String> {
        let reply = self.send(req)?;
        serde_json::from_str(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
    }

    /// `drain` or `shutdown`: the daemon may exit before its reply
    /// reaches the socket, so end-of-stream also counts as accepted; its
    /// exit status and ledger are checked afterwards.
    fn stop(mut self, req: &Request) -> Result<(), String> {
        let reply = self.send(req)?;
        if reply.trim().is_empty() {
            return Ok(());
        }
        let v: Value =
            serde_json::from_str(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("daemon refused {}: {reply}", req.to_line())),
        }
    }
}

/// What the client saw of one submission.
struct Sent {
    arrival: Arrival,
    id: Option<u64>,
    /// due → sent, ms: how late the generator ran.
    late_ms: f64,
    rtt_ms: f64,
}

/// One open-loop session against a fresh daemon.
struct Session {
    sent: Vec<Sent>,
    records: Vec<JobRecord>,
    rss_mb: f64,
}

fn session(
    args: &Args,
    budget: usize,
    templates: &[Template],
    arrivals: &[Arrival],
    dir: &Path,
    trace: Option<&Path>,
) -> Result<Session, String> {
    let daemon = Daemon::spawn(&args.serve_bin, budget, dir, trace)?;
    let mut client = Client::connect(&daemon.addr)?;
    // Open loop: the writer sends each submit at its due time whether or
    // not earlier replies have arrived; a reader thread timestamps the
    // replies, which come back in request order on the one connection.
    let start = Instant::now() + Duration::from_millis(20);
    let mut sends: Vec<Instant> = Vec::with_capacity(arrivals.len());
    let replies: Result<Vec<(Instant, String)>, String> = std::thread::scope(|sc| {
        let Client { w, r } = &mut client;
        let reader = sc.spawn(move || {
            (0..arrivals.len())
                .map(|_| {
                    let mut line = String::new();
                    match r.read_line(&mut line) {
                        Ok(n) if n > 0 => Ok((Instant::now(), line)),
                        Ok(_) => Err("daemon closed the connection mid-stream".to_string()),
                        Err(e) => Err(format!("receive submit reply: {e}")),
                    }
                })
                .collect()
        });
        for a in arrivals {
            let due = start + Duration::from_secs_f64(a.due_s);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let mut line = Request::Submit(JobSpec::new(&templates[a.template].path)).to_line();
            line.push('\n');
            sends.push(Instant::now());
            if let Err(e) = w.write_all(line.as_bytes()) {
                // Unblock the reader before reporting.
                let _ = w.shutdown(std::net::Shutdown::Both);
                let _ = reader.join();
                return Err(format!("send submit: {e}"));
            }
        }
        reader.join().expect("reply reader thread panicked")
    });
    let mut sent = Vec::with_capacity(arrivals.len());
    for ((a, t_send), (t_reply, reply)) in arrivals.iter().zip(&sends).zip(replies?) {
        let due = start + Duration::from_secs_f64(a.due_s);
        let v: Value =
            serde_json::from_str(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))?;
        let id = v.get("id").and_then(Value::as_u64);
        if id.is_none() {
            eprintln!("ensemble_open: submission refused: {reply}");
        }
        sent.push(Sent {
            arrival: *a,
            id,
            late_ms: ms(t_send.saturating_duration_since(due)),
            rtt_ms: ms(t_reply.saturating_duration_since(*t_send)),
        });
    }
    // Wait until the system is empty, read the daemon's peak RSS while it
    // is still alive, then drain it.
    let accepted = sent.iter().filter(|s| s.id.is_some()).count() as u64;
    loop {
        let v = client.call(&Request::Metrics)?;
        let snap: MetricsSnapshot =
            serde_json::from_value(&v["metrics"]).map_err(|e| format!("bad metrics reply: {e}"))?;
        let terminal = snap.done + snap.failed + snap.cancelled + snap.timed_out;
        if snap.queued == 0 && snap.running == 0 && terminal >= accepted {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let rss_mb = peak_rss_mb(Some(daemon.child.id()))?;
    client.stop(&Request::Drain)?;
    let records = daemon.finish()?;
    Ok(Session {
        sent,
        records,
        rss_mb,
    })
}

/// Per-session results after the output checks.
struct Judged {
    turnaround_ms: Vec<f64>,
    /// Per batch, the p50 and p90 of its jobs' turnarounds.
    batch_p50_ms: Vec<f64>,
    batch_p90_ms: Vec<f64>,
    makespan_s: f64,
    grind_ns: f64,
    done: usize,
    attempted: u64,
    failed: u64,
}

fn judge(s: &Session, templates: &[Template], refs: &[Reference]) -> Judged {
    let mut j = Judged {
        turnaround_ms: Vec::new(),
        batch_p50_ms: Vec::new(),
        batch_p90_ms: Vec::new(),
        makespan_s: 0.0,
        grind_ns: f64::NAN,
        done: 0,
        attempted: s.sent.len() as u64,
        failed: 0,
    };
    // Per batch: turnarounds, worker seconds and work of its Done jobs.
    let mut batches: Vec<(Vec<f64>, f64, f64)> = Vec::new();
    let first_due = s.sent.first().map_or(0.0, |x| x.arrival.due_s);
    for x in &s.sent {
        let rec = x.id.and_then(|id| s.records.iter().find(|r| r.id == id));
        if !job_output_ok(rec, &refs[x.arrival.template].ckpt) {
            eprintln!(
                "ensemble_open: job {:?} ({}) did not finish with the standalone final.ckpt",
                x.id, templates[x.arrival.template].case.name
            );
            j.failed += 1;
            continue;
        }
        let r = rec.expect("checked above");
        // Due → terminal: the generator's lateness plus the daemon's own
        // admission → terminal clock. The inbound frame's transit and
        // admission check (well under 1 ms) are not seen; the reply's
        // transit is excluded on purpose, since the job already runs.
        let t = x.late_ms + r.wall_ms;
        j.turnaround_ms.push(t);
        let b = x.arrival.batch;
        if batches.len() <= b {
            batches.resize(b + 1, (Vec::new(), 0.0, 0.0));
        }
        batches[b].0.push(t);
        batches[b].1 += r.worker_seconds;
        batches[b].2 += templates[x.arrival.template].work;
        j.makespan_s = j.makespan_s.max(x.arrival.due_s - first_due + t / 1e3);
        j.done += 1;
    }
    let mut grind = Vec::new();
    for (t, worker_s, work) in batches.iter().filter(|b| !b.0.is_empty()) {
        j.batch_p50_ms.push(quantile(t, 0.5));
        j.batch_p90_ms.push(quantile(t, 0.9));
        grind.push(worker_s * 1e9 / work);
    }
    j.grind_ns = median(&grind);
    j
}

/// Report-only scheduler, protocol and generator numbers of a session.
fn report_common(m: &mut Metrics, j: &Judged, s: &Session) {
    let rtt: Vec<f64> = s.sent.iter().map(|x| x.rtt_ms).collect();
    let late: Vec<f64> = s.sent.iter().map(|x| x.late_ms).collect();
    let wait: Vec<f64> = s.records.iter().map(|r| r.wait_ms).collect();
    let service: Vec<f64> = s.records.iter().map(|r| r.cpu_ms).collect();
    m.put("jobs_per_s", j.done as f64 / j.makespan_s, "1/s", j.done);
    m.p50_p90("turnaround_ms", &j.turnaround_ms, "ms");
    m.p50_p90("proto.submit_rtt_ms", &rtt, "ms");
    m.put("gen.late_ms.max", max(&late), "ms", late.len());
    m.p50_p90("sched.wait_ms", &wait, "ms");
    m.median("sched.service_ms.p50", &service, "ms");
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let budget = host_cores();
    let case_dir = work.join("cases");
    let ref_dir = work.join("ref");
    for d in [&case_dir, &ref_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    // The traced run pairs an untraced and a traced session, each over
    // half the window, so it takes no longer than an untraced run.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (templates, arrivals) =
        gen::ensemble_inputs(args.seed, window, &case_dir, &work.join("ref_out"));
    for t in &templates {
        gen::write_json(&t.path, &t.case)?;
    }
    let refs: Vec<Reference> = templates
        .iter()
        .map(|t| reference(t, &ref_dir))
        .collect::<Result<_, _>>()?;

    // Set-up: a cold daemon start, timed end to end: spawn, `listening`,
    // one single-step job per template through admission, `Solver::new`
    // and the `final.ckpt` write, then drain until the exiting daemon
    // closes the connection. The frames go out in one write and no reply
    // is awaited, so reply latency does not enter. A bare spawn →
    // listening (~1.5 ms) doubles whenever another process holds a core,
    // which no median over one run's spawns smooths out.
    let mut setup = Vec::new();
    for k in 0..SETUP_STARTS {
        let t0 = Instant::now();
        let d = Daemon::spawn(
            &args.serve_bin,
            budget,
            &work.join(format!("cold{k}")),
            None,
        )?;
        let mut c = Client::connect(&d.addr)?;
        let mut frames = String::new();
        for t in &templates {
            let mut spec = JobSpec::new(&t.path);
            spec.max_steps = Some(1);
            frames += &Request::Submit(spec).to_line();
            frames.push('\n');
        }
        frames += &Request::Drain.to_line();
        frames.push('\n');
        c.w.write_all(frames.as_bytes())
            .map_err(|e| format!("send cold-start frames: {e}"))?;
        let mut replies = Vec::new();
        c.r.read_to_end(&mut replies)
            .map_err(|e| format!("receive cold-start replies: {e}"))?;
        setup.push(t0.elapsed().as_secs_f64());
        let records = d.finish()?;
        if records.len() != templates.len() || records.iter().any(|r| r.state != JobState::Done) {
            return Err(format!(
                "cold start did not complete every template: {records:?}"
            ));
        }
    }

    let mut m = Metrics::default();
    let serve_dir = work.join("serve");
    let s = session(args, budget, &templates, &arrivals, &serve_dir, None)?;
    let j = judge(&s, &templates, &refs);

    if !args.trace {
        m.median("setup_s", &setup, "s");
        m.put("time_to_solution_s", j.makespan_s, "s", 1);
        m.put("grind_ns", j.grind_ns, "ns", j.batch_p90_ms.len());
        // Co-tenant bursts slow a whole batch at a time, about one in four
        // on the host the benchmark was defined on. A pooled p90 sits on
        // the edge of those batches and jumps with their count; the
        // median over batches of each batch's own p50 and p90 does not.
        m.median("latency_ms.p50", &j.batch_p50_ms, "ms");
        m.median("latency_ms.p90", &j.batch_p90_ms, "ms");
        m.put("peak_rss_mb", s.rss_mb, "MB", 1);
        report_common(&mut m, &j, &s);
        return Ok(Outcome {
            metrics: m,
            attempted: j.attempted,
            failed: j.failed,
        });
    }

    // Traced session on the same inputs; the untraced one above is its
    // pair for the overhead.
    let ceil = calib::calibrate(budget, &mut m);
    let trace_path = work.join("serve_trace.json");
    let ts = session(
        args,
        budget,
        &templates,
        &arrivals,
        &work.join("serve_traced"),
        Some(&trace_path),
    )?;
    let tj = judge(&ts, &templates, &refs);
    let text = std::fs::read_to_string(&trace_path).map_err(|e| format!("read trace: {e}"))?;
    let parsed = chrome::parse_str(&text)?;
    layers::check_reconciled(&parsed)?;
    m.put(
        "trace.reconciled_ranks",
        parsed.ledgers.len() as f64,
        "count",
        1,
    );
    let rows: Vec<_> = parsed.ledgers.values().flatten().cloned().collect();
    let (mut cell_steps, mut steps) = (0.0, 0.0);
    for r in ts.records.iter().filter(|r| r.state == JobState::Done) {
        let t = templates
            .iter()
            .find(|t| t.path == r.case)
            .ok_or("ledger row names an unknown case")?;
        cell_steps += t.case.cells.iter().product::<usize>() as f64 * r.steps as f64;
        steps += r.steps as f64;
    }
    layers::kernel_metrics(&rows, cell_steps, steps, &ceil, &mut m);
    let mut tails = Vec::new();
    let mut depth: f64 = 0.0;
    for events in parsed.ranks.values() {
        for e in events.iter().filter(|e| e.ph == 'C') {
            let v = e.args.get(&e.name).and_then(Value::as_f64).unwrap_or(0.0);
            match e.name.as_str() {
                "lane_tail_fraction" => tails.push(v),
                "queue_depth" => depth = depth.max(v),
                _ => {}
            }
        }
    }
    m.put("acc.lane_tail_frac", median(&tails), "frac", tails.len());
    // One process, no ranks: the halo-exchange layer is idle.
    idle_layers(
        &mut m,
        &["comm.msgs_per_step", "comm.bytes_per_step", "comm.frac"],
    );
    // Each job's final.ckpt is its one checkpoint wave.
    let ckpt: Vec<f64> = arrivals
        .iter()
        .map(|a| refs[a.template].ckpt.len() as f64)
        .collect();
    m.median("ckpt.bytes_per_wave", &ckpt, "B");
    let col = |f: fn(&Reference) -> f64| refs.iter().map(f).collect::<Vec<f64>>();
    m.median("ckpt.write_ms.p50", &col(|r| r.write_ms), "ms");
    m.median("cli.parse_ms", &col(|r| r.parse_ms), "ms");
    m.median("cli.dry_run_ms", &col(|r| r.dry_run_ms), "ms");
    m.median("solver.new_ms", &col(|r| r.new_ms), "ms");
    m.put("sched.queue_depth.max", depth, "count", 1);
    let resizes: Vec<f64> = ts.records.iter().map(|r| r.resizes as f64).collect();
    m.put(
        "sched.resizes_per_job",
        resizes.iter().sum::<f64>() / resizes.len().max(1) as f64,
        "count",
        resizes.len(),
    );
    // Scheduler overhead: service time minus the template's standalone
    // wall measured at set-up.
    let overhead: Vec<f64> = ts
        .records
        .iter()
        .filter_map(|r| {
            let i = templates.iter().position(|t| t.path == r.case)?;
            Some(r.cpu_ms - refs[i].wall_ms)
        })
        .collect();
    m.median("sched.overhead_ms.p50", &overhead, "ms");
    m.put(
        "trace.overhead_frac",
        tj.grind_ns / j.grind_ns - 1.0,
        "frac",
        tj.done,
    );
    report_common(&mut m, &tj, &ts);
    layers::self_time_metrics(&parsed, &mut m);
    Ok(Outcome {
        metrics: m,
        attempted: j.attempted + tj.attempted,
        failed: j.failed + tj.failed,
    })
}

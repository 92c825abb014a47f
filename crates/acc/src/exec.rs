//! Kernel execution — the `!$acc parallel loop` substitute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mfc_trace::{Category, LedgerRow, SpanGuard, TraceHandle};

use crate::config::LaunchConfig;
use crate::cost::KernelCost;
use crate::ledger::Ledger;
use crate::pool::GangPool;
use crate::vector::{validate_width, Lane, LaneGangBody, LaneKernel, LaneMaxKernel, DEFAULT_WIDTH};
use crate::with_lane_width;

/// Below this many work items a parallel launch falls back to the serial
/// loop: the fork/join overhead of waking the gang pool would dominate.
pub const PAR_MIN_ITEMS: usize = 1024;

/// An execution context: one "device" plus its profiling ledger.
///
/// With more than one worker thread, the parallel entry points
/// ([`Context::launch_par`], [`Context::launch_chunks`],
/// [`Context::launch_max`]) split the collapsed iteration space into
/// contiguous blocks, one per worker (gangs ≙ blocks, vector lanes ≙ the
/// iterations inside a block), and run them on a persistent gang pool
/// shared by every clone of the context; with a single worker every loop
/// runs serially — the paper's "compiled without OpenACC" CPU path.
#[derive(Clone)]
pub struct Context {
    ledger: Arc<Ledger>,
    workers: usize,
    /// Resident gangs: `workers − 1` parked helper threads (spawned on
    /// first use, joined when the last clone drops).
    pool: Arc<GangPool>,
    /// Lane width of the vector entry points ([`Context::launch_vec`] and
    /// friends); validated power of two ≤ `vector::MAX_WIDTH`. Results
    /// are bitwise identical at every width by the [`Lane`] contract.
    vector_width: usize,
    /// Full lane packets / scalar-tail elements executed so far, shared
    /// across clones like the ledger (the remainder-fraction counter the
    /// perfmodel's effective-width term consumes).
    lane_packets: Arc<AtomicU64>,
    lane_tail: Arc<AtomicU64>,
    /// Measured-profile recording endpoint; `None` (the default) keeps
    /// every launch on an untraced fast path — one branch per launch.
    tracer: Option<Arc<TraceHandle>>,
}

impl Context {
    /// A context using every available worker thread.
    pub fn new() -> Self {
        Context::with_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A strictly serial context (reference results, bitwise determinism).
    pub fn serial() -> Self {
        Context::with_workers(1)
    }

    /// A context with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Context {
            ledger: Arc::new(Ledger::new()),
            workers: workers.max(1),
            pool: Arc::new(GangPool::new()),
            vector_width: DEFAULT_WIDTH,
            lane_packets: Arc::new(AtomicU64::new(0)),
            lane_tail: Arc::new(AtomicU64::new(0)),
            tracer: None,
        }
    }

    /// Builder form: set the lane width of the vector entry points.
    ///
    /// # Panics
    /// On an invalid width (not a power of two, or > `MAX_WIDTH`); callers
    /// taking user input validate with [`crate::vector::validate_width`]
    /// first and surface a typed configuration error instead.
    pub fn with_vector_width(mut self, width: usize) -> Self {
        self.set_vector_width(width);
        self
    }

    /// Set the lane width (same validation as [`Context::with_vector_width`]).
    pub fn set_vector_width(&mut self, width: usize) {
        if let Err(e) = validate_width(width) {
            panic!("{e}");
        }
        self.vector_width = width;
    }

    /// Lane width of the vector entry points.
    pub fn vector_width(&self) -> usize {
        self.vector_width
    }

    /// The profiling ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Share the ledger (e.g. across solver sub-components).
    pub fn ledger_arc(&self) -> Arc<Ledger> {
        Arc::clone(&self.ledger)
    }

    /// Number of worker threads the context schedules onto.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Elastically change the worker count (clamped to ≥ 1).
    ///
    /// Gang partitioning is a pure function of the count and results are
    /// bitwise identical at every count, so a scheduler may resize a live
    /// context between launches (e.g. at solver step boundaries) without
    /// perturbing numerics. Growing the count grows the gang pool at the
    /// next parallel launch. Re-emits the `threads` counter when a tracer
    /// is attached so the timeline records the resize.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers == self.workers {
            return;
        }
        self.workers = workers;
        if let Some(t) = &self.tracer {
            t.counter("threads", self.workers as f64);
        }
    }

    /// Attach a per-rank trace handle: every subsequent launch also emits
    /// a kernel event carrying the ledger's per-launch byte/FLOP products.
    /// A `threads` counter is emitted immediately so `mfc-trace-report`
    /// shows how many workers the context actually schedules onto.
    pub fn set_tracer(&mut self, handle: Arc<TraceHandle>) {
        handle.counter("threads", self.workers as f64);
        handle.counter("vector_width", self.vector_width as f64);
        self.tracer = Some(handle);
    }

    /// Builder form of [`Context::set_tracer`].
    pub fn with_tracer(mut self, handle: Arc<TraceHandle>) -> Self {
        self.set_tracer(handle);
        self
    }

    /// The attached trace handle, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<TraceHandle>> {
        self.tracer.as_ref()
    }

    /// Open a phase span on the attached trace (no-op when untraced).
    pub fn span(&self, name: &'static str, cat: Category) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name, cat))
    }

    /// Record a point-in-time marker on the attached trace.
    pub fn trace_instant(&self, name: &'static str, cat: Category) {
        if let Some(t) = &self.tracer {
            t.instant(name, cat);
        }
    }

    /// Sample a scalar counter on the attached trace.
    pub fn trace_counter(&self, name: &'static str, value: f64) {
        if let Some(t) = &self.tracer {
            t.counter(name, value);
        }
    }

    /// Attach this context's ledger snapshot to the trace so exporters can
    /// cross-check traced aggregates against the analytic totals. Call at
    /// the end of a traced run.
    /// Account lane tiling of a vector-executed launch: `full_packets`
    /// whole packets plus `tail_elems` scalar-remainder elements. The
    /// vector entry points do this themselves; bodies that tile inside a
    /// gang scope (the fused pencil engine, the health scan) report here.
    pub fn note_lane_tiling(&self, full_packets: u64, tail_elems: u64) {
        self.lane_packets.fetch_add(full_packets, Ordering::Relaxed);
        self.lane_tail.fetch_add(tail_elems, Ordering::Relaxed);
    }

    /// Cumulative `(full_packets, tail_elems)` over all vector launches.
    pub fn lane_stats(&self) -> (u64, u64) {
        (
            self.lane_packets.load(Ordering::Relaxed),
            self.lane_tail.load(Ordering::Relaxed),
        )
    }

    /// Fraction of vector-launch elements that fell into scalar remainder
    /// tails (0 when no vector launch ran), and the effective lane width
    /// `W·full_packets/(full_packets + tail_elems)` the perfmodel uses.
    pub fn lane_efficiency(&self) -> (f64, f64) {
        let (packets, tail) = self.lane_stats();
        let elems = self.vector_width as u64 * packets + tail;
        if elems == 0 {
            return (0.0, self.vector_width as f64);
        }
        let tail_fraction = tail as f64 / elems as f64;
        let effective = self.vector_width as f64 * packets as f64 / (packets + tail) as f64;
        (tail_fraction, effective)
    }

    pub fn flush_ledger_to_trace(&self) {
        if let Some(t) = &self.tracer {
            let (packets, tail) = self.lane_stats();
            if packets + tail > 0 {
                let (tail_fraction, _) = self.lane_efficiency();
                t.counter("lane_tail_fraction", tail_fraction);
            }
            let rows = self
                .ledger
                .kernel_stats()
                .into_iter()
                .map(|s| LedgerRow {
                    label: s.label,
                    launches: s.launches,
                    items: s.items,
                    flops: s.flops,
                    bytes_read: s.bytes_read,
                    bytes_written: s.bytes_written,
                    wall_ns: s.wall.as_nanos() as u64,
                })
                .collect();
            t.attach_ledger(rows);
        }
    }

    /// Ledger bookkeeping shared by every launch entry point, plus the
    /// traced kernel event when a handle is attached. The float products
    /// passed to the trace are exactly the terms `record_launch`
    /// accumulates, so per-label sums of the event stream reconcile with
    /// the ledger bitwise.
    fn record(&self, cfg: &LaunchConfig, cost: KernelCost, items: u64, gangs: usize, t0: Instant) {
        self.record_external_gangs(cfg.label, cost, items, gangs as u32, t0, t0.elapsed());
    }

    /// [`Context::record`] for the vector entry points: the traced event
    /// additionally carries the configured lane width.
    fn record_vec(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        items: u64,
        gangs: usize,
        t0: Instant,
    ) {
        self.record_external_vec(
            cfg.label,
            cost,
            items,
            gangs as u32,
            self.vector_width as u32,
            t0,
            t0.elapsed(),
        );
    }

    /// Record a launch whose body ran outside the launch entry points
    /// (e.g. the BLAS-style reshape transposes, which call a library
    /// routine rather than a kernel body). Feeds the ledger and the
    /// attached trace exactly like [`Context::launch`] does, so traced
    /// aggregates still reconcile bitwise.
    pub fn record_external(&self, label: &'static str, cost: KernelCost, items: u64, t0: Instant) {
        self.record_external_timed(label, cost, items, t0, t0.elapsed());
    }

    /// Variant of [`Context::record_external`] taking an explicit
    /// duration, for stage timings accumulated across inner batches (the
    /// fused sweep records each stage once per axis with its summed
    /// time). `start` places the event on the timeline.
    pub fn record_external_timed(
        &self,
        label: &'static str,
        cost: KernelCost,
        items: u64,
        start: Instant,
        wall: Duration,
    ) {
        self.record_external_gangs(label, cost, items, 1, start, wall);
    }

    /// Variant of [`Context::record_external_timed`] that annotates the
    /// traced kernel event with the gang count the launch actually used.
    /// The ledger row is unchanged — ONE row per launch regardless of how
    /// many gangs ran it — so ledger/trace reconciliation survives
    /// threaded execution untouched.
    pub fn record_external_gangs(
        &self,
        label: &'static str,
        cost: KernelCost,
        items: u64,
        gangs: u32,
        start: Instant,
        wall: Duration,
    ) {
        self.record_external_vec(label, cost, items, gangs, 1, start, wall);
    }

    /// Variant of [`Context::record_external_gangs`] that also annotates
    /// the traced kernel event with the lane width the launch executed at.
    /// Like `gangs`, `lanes` is an annotation only: FLOP/byte counts are
    /// per-element, so ledger/trace reconciliation stays exact at every
    /// width.
    #[allow(clippy::too_many_arguments)]
    pub fn record_external_vec(
        &self,
        label: &'static str,
        cost: KernelCost,
        items: u64,
        gangs: u32,
        lanes: u32,
        start: Instant,
        wall: Duration,
    ) {
        self.ledger.record_launch(label, cost, items, wall);
        if let Some(t) = &self.tracer {
            t.kernel_vec(
                label,
                items,
                gangs,
                lanes,
                cost.flops_per_item * items as f64,
                cost.bytes_read_per_item * items as f64,
                cost.bytes_written_per_item * items as f64,
                start,
                wall,
            );
        }
    }

    /// Partition `0..n` into up to `workers` contiguous gang blocks (the
    /// fixed gang→index mapping every parallel entry point uses): `n %
    /// gangs` leading blocks carry one extra item, so the decomposition is
    /// a pure function of `(n, workers)` — never of scheduling.
    pub fn gang_blocks(&self, n: usize) -> Vec<(usize, usize)> {
        let gangs = self.workers.min(n.max(1));
        (0..gangs)
            .map(|g| {
                let r = gang_range(n, gangs, g);
                (r.start, r.end)
            })
            .collect()
    }

    /// Launch a kernel over a collapsed iteration space of `n` items,
    /// running the body **sequentially on the calling thread** in index
    /// order, regardless of the worker count.
    ///
    /// This is the entry point for bodies that mutate captured state
    /// (`FnMut`), which cannot be split across threads. Use
    /// [`Context::launch_par`] for shared-read bodies (`Fn + Sync`) that
    /// should scale with `workers()`, or [`Context::launch_chunks`] when
    /// the output decomposes into disjoint slices.
    pub fn launch<F>(&self, cfg: &LaunchConfig, cost: KernelCost, n: usize, mut body: F)
    where
        F: FnMut(usize),
    {
        let t0 = Instant::now();
        for i in 0..n {
            body(i);
        }
        self.record(cfg, cost, n as u64, 1, t0);
    }

    /// Launch a side-effect kernel over `n` items, splitting the
    /// iteration space across the context's workers.
    ///
    /// The body observes iteration indices in an unspecified order (as on
    /// a device); it must not rely on sequencing between iterations, and
    /// any writes it performs must target disjoint locations per index
    /// (interior mutability is the body's responsibility). Small spaces
    /// and single-worker contexts run the serial in-order loop.
    pub fn launch_par<F>(&self, cfg: &LaunchConfig, cost: KernelCost, n: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let t0 = Instant::now();
        let (_, gangs) = self.gang_scope(n, n as u64, |_, range| range.for_each(&body));
        self.record(cfg, cost, n as u64, gangs, t0);
    }

    /// Launch a kernel whose output decomposes into disjoint `chunk_len`
    /// slices of `out` — the shape of every sweep kernel in the solver
    /// (one contiguous coalesced line per (j,k,field) tuple).
    ///
    /// The body receives `(chunk_index, chunk)` and may only write its own
    /// chunk, which is what makes the parallel execution race-free by
    /// construction. Iteration count recorded in the ledger is the number
    /// of chunks.
    pub fn launch_chunks<T, F>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        out: &mut [T],
        chunk_len: usize,
        body: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk length must be positive");
        assert_eq!(
            out.len() % chunk_len,
            0,
            "output length {} is not a multiple of chunk length {}",
            out.len(),
            chunk_len
        );
        let n = out.len() / chunk_len;
        let t0 = Instant::now();
        // One contiguous run of whole chunks per gang.
        let gangs = self.gang_count(n, out.len() as u64);
        let mut parts = Vec::with_capacity(gangs);
        let mut rest = out;
        for g in 0..gangs {
            let (mine, tail) = rest.split_at_mut(gang_range(n, gangs, g).len() * chunk_len);
            parts.push(mine);
            rest = tail;
        }
        self.fork(n, gangs, &mut parts, |_, range, mine| {
            for (off, c) in mine.chunks_exact_mut(chunk_len).enumerate() {
                body(range.start + off, c);
            }
        });
        self.record(cfg, cost, n as u64, gangs, t0);
    }

    /// Launch a reduction kernel returning the maximum of the body over the
    /// iteration space (used for the CFL time-step bound).
    ///
    /// Each gang reduces its contiguous block and the per-gang maxima fold
    /// in gang order; since `max` is associative and commutative this is
    /// bitwise-identical to the serial fold for any worker count.
    pub fn launch_max<F>(&self, cfg: &LaunchConfig, cost: KernelCost, n: usize, body: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        let t0 = Instant::now();
        let (partials, gangs) = self.gang_scope(n, n as u64, |_, range| {
            range.map(&body).fold(f64::NEG_INFINITY, f64::max)
        });
        self.record(cfg, cost, n as u64, gangs, t0);
        partials.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Launch a lane-vectorized kernel over a `rows × row_len` space —
    /// the `vector` half of `gang vector`: gangs split the rows across
    /// workers, and within each row the columns are tiled into full
    /// packets of [`Context::vector_width`] lanes plus a scalar remainder
    /// tail. Packets never cross a row boundary, so per-row unit-stride
    /// data (a WENO line, a face sweep line) supports in-bounds lane
    /// loads relative to the packet column.
    ///
    /// The kernel body is written once against [`Lane`] and monomorphized
    /// here per width; by the `Lane` contract the results are bitwise
    /// identical at every width and worker count. The traced event is
    /// annotated with the lane width (`lanes`); the ledger row is
    /// unchanged, so reconciliation stays exact.
    pub fn launch_vec<K: LaneKernel>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        rows: usize,
        row_len: usize,
        kernel: &K,
    ) {
        let t0 = Instant::now();
        let w = self.vector_width;
        let gangs = with_lane_width!(w, L => self.gang_scope(rows, (rows * row_len) as u64, |_, range| {
            for row in range {
                vec_row::<L, K>(kernel, row, row_len);
            }
        }).1);
        self.note_lane_tiling((rows * (row_len / w)) as u64, (rows * (row_len % w)) as u64);
        self.record_vec(cfg, cost, (rows * row_len) as u64, gangs, t0);
    }

    /// Lane-vectorized max reduction over a `rows × row_len` space (the
    /// CFL bound). Each packet's lanes are extracted and folded in
    /// ascending lane order, so the fold visits items in exactly the
    /// serial order within each gang; per-gang maxima fold in gang order
    /// as in [`Context::launch_max`]. Bitwise identical to the scalar
    /// reduction at every width and worker count.
    pub fn launch_max_vec<K: LaneMaxKernel>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        rows: usize,
        row_len: usize,
        kernel: &K,
    ) -> f64 {
        let t0 = Instant::now();
        let w = self.vector_width;
        let (partials, gangs) = with_lane_width!(w, L => self.gang_scope(rows, (rows * row_len) as u64, |_, range| {
            range.fold(f64::NEG_INFINITY, |m, row| max_vec_row::<L, K>(kernel, row, row_len, m))
        }));
        self.note_lane_tiling((rows * (row_len / w)) as u64, (rows * (row_len % w)) as u64);
        self.record_vec(cfg, cost, (rows * row_len) as u64, gangs, t0);
        partials.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Lane-dispatching form of [`Context::gang_scope_with`]: the body is
    /// written once against [`Lane`] (a [`LaneGangBody`]) and runs at the
    /// context's vector width, handling its own packet/tail tiling inside
    /// each gang range (the fused pencil engine's shape). Recording is the
    /// caller's job, as with `gang_scope_with`.
    pub fn gang_vec_scope<S, R, B>(
        &self,
        n: usize,
        work_items: u64,
        state: &mut [S],
        body: &B,
    ) -> (Vec<R>, usize)
    where
        S: Send,
        R: Send,
        B: LaneGangBody<S, R>,
    {
        with_lane_width!(self.vector_width, L => self.gang_scope_with(
            n,
            work_items,
            state,
            |g, range, st| body.run::<L>(g, range, st),
        ))
    }

    /// Split `0..n` into gang blocks and run `body(gang, lo..hi, state)`
    /// once per gang on the context's persistent gang pool, with per-gang
    /// mutable `state` (the per-worker scratch blocks of the fused sweep)
    /// and per-gang return values collected **in gang order**. Runs
    /// serially — same mapping, one gang — when the context has one
    /// worker, `n < 2`, or `work_items < PAR_MIN_ITEMS` (callers pass the
    /// true collapsed item count, which may exceed `n` units by a large
    /// per-unit factor).
    ///
    /// Returns `(per-gang results, gang count)`. Because the gang→range
    /// mapping is the fixed [`Context::gang_blocks`] partition and results
    /// are folded by the caller in gang order, any reduction over the
    /// returned vector is bitwise-independent of scheduling.
    ///
    /// `state` must hold at least `workers` elements; gang `g` gets
    /// exclusive use of `state[g]`.
    pub fn gang_scope_with<S, R, F>(
        &self,
        n: usize,
        work_items: u64,
        state: &mut [S],
        body: F,
    ) -> (Vec<R>, usize)
    where
        S: Send,
        R: Send,
        F: Fn(usize, std::ops::Range<usize>, &mut S) -> R + Sync,
    {
        let gangs = self.gang_count(n, work_items);
        (self.fork(n, gangs, state, body), gangs)
    }

    /// Stateless form of [`Context::gang_scope_with`].
    pub fn gang_scope<R, F>(&self, n: usize, work_items: u64, body: F) -> (Vec<R>, usize)
    where
        R: Send,
        F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
    {
        let mut state = vec![(); self.workers];
        self.gang_scope_with(n, work_items, &mut state, |g, range, _| body(g, range))
    }

    /// Launch a gang-decomposed kernel over `n` units, recording ONE
    /// ledger row (items = `n`) with the gang count annotated on the
    /// traced event. Per-gang results come back in gang order for
    /// deterministic folding by the caller.
    pub fn launch_gangs<R, F>(
        &self,
        cfg: &LaunchConfig,
        cost: KernelCost,
        n: usize,
        body: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
    {
        let t0 = Instant::now();
        let (results, gangs) = self.gang_scope(n, n as u64, body);
        self.record(cfg, cost, n as u64, gangs, t0);
        results
    }

    /// Gangs a launch over `n` units carrying `work_items` collapsed items
    /// runs with: one below the [`PAR_MIN_ITEMS`] grain or on a serial
    /// context, else one per worker (at most one per unit).
    fn gang_count(&self, n: usize, work_items: u64) -> usize {
        if self.workers > 1 && n > 1 && work_items >= PAR_MIN_ITEMS as u64 {
            self.workers.min(n)
        } else {
            1
        }
    }

    /// Run `body(g, gang_range(n, gangs, g), &mut state[g])` for every
    /// gang on the pool and return the results in gang order. Every
    /// parallel entry point forks here.
    fn fork<S, R, F>(&self, n: usize, gangs: usize, state: &mut [S], body: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(usize, std::ops::Range<usize>, &mut S) -> R + Sync,
    {
        assert!(
            state.len() >= gangs.max(1),
            "{} state blocks for {} gangs",
            state.len(),
            gangs
        );
        if gangs == 1 {
            return vec![body(0, 0..n, &mut state[0])];
        }
        // One lock per gang, each taken once by its own gang: hands every
        // gang exclusive use of its state and result slot.
        let slots: Vec<Mutex<(&mut S, Option<R>)>> = state[..gangs]
            .iter_mut()
            .map(|st| Mutex::new((st, None)))
            .collect();
        self.pool.run(gangs, &|g| {
            let mut slot = slots[g].lock().expect("a gang slot is locked once");
            let (st, out) = &mut *slot;
            *out = Some(body(g, gang_range(n, gangs, g), st));
        });
        slots
            .into_iter()
            .map(|m| {
                let (_, out) = m.into_inner().expect("gangs completed without panicking");
                out.expect("every gang ran")
            })
            .collect()
    }
}

/// Block `g` of the fixed partition of `0..n` into `gangs` contiguous
/// blocks: the `n % gangs` leading blocks carry one extra item.
fn gang_range(n: usize, gangs: usize, g: usize) -> std::ops::Range<usize> {
    let (base, extra) = (n / gangs, n % gangs);
    let lo = g * base + g.min(extra);
    lo..lo + base + usize::from(g < extra)
}

/// One row of a vector launch: full packets, then the scalar tail as
/// 1-wide (`f64`) packets. Item order within the row is strictly
/// ascending, so serial execution order is preserved exactly.
#[inline]
fn vec_row<L: Lane, K: LaneKernel>(kernel: &K, row: usize, row_len: usize) {
    let mut col = 0;
    while col + L::WIDTH <= row_len {
        kernel.packet::<L>(row, col);
        col += L::WIDTH;
    }
    while col < row_len {
        kernel.packet::<f64>(row, col);
        col += 1;
    }
}

/// One row of a vector max-reduction: lanes of each packet fold into the
/// accumulator in ascending lane order (= serial item order).
#[inline]
fn max_vec_row<L: Lane, K: LaneMaxKernel>(
    kernel: &K,
    row: usize,
    row_len: usize,
    mut acc: f64,
) -> f64 {
    let mut col = 0;
    while col + L::WIDTH <= row_len {
        let v = kernel.packet::<L>(row, col);
        for i in 0..L::WIDTH {
            acc = acc.max(v.lane(i));
        }
        col += L::WIDTH;
    }
    while col < row_len {
        acc = acc.max(kernel.packet::<f64>(row, col).lane(0));
        col += 1;
    }
    acc
}

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelClass;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cost() -> KernelCost {
        KernelCost::new(KernelClass::Other, 1.0, 8.0, 8.0)
    }

    #[test]
    fn launch_visits_every_index_once() {
        let ctx = Context::serial();
        let mut seen = vec![0u32; 100];
        ctx.launch(&LaunchConfig::tuned("t"), cost(), 100, |i| seen[i] += 1);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn launch_records_ledger_entry() {
        let ctx = Context::serial();
        ctx.launch(&LaunchConfig::tuned("kern"), cost(), 42, |_| {});
        let s = ctx.ledger().kernel("kern").unwrap();
        assert_eq!(s.items, 42);
        assert_eq!(s.launches, 1);
    }

    #[test]
    fn launch_par_visits_every_index_once() {
        // Above the grain threshold so a multi-worker context really forks.
        let n = 4 * PAR_MIN_ITEMS;
        let ctx = Context::with_workers(4);
        let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        ctx.launch_par(&LaunchConfig::tuned("p"), cost(), n, |i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(ctx.ledger().kernel("p").unwrap().items, n as u64);
    }

    #[test]
    fn launch_chunks_gives_disjoint_chunks() {
        let ctx = Context::new();
        let mut out = vec![0.0f64; 64];
        ctx.launch_chunks(&LaunchConfig::tuned("c"), cost(), &mut out, 8, |i, c| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = (i * 8 + j) as f64;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
        assert_eq!(ctx.ledger().kernel("c").unwrap().items, 8);
    }

    #[test]
    fn launch_chunks_parallel_matches_serial() {
        let chunk = 16;
        let n = 8 * PAR_MIN_ITEMS;
        let fill = |i: usize, c: &mut [f64]| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = ((i * 31 + j * 7) % 1013) as f64 * 0.5;
            }
        };
        let mut serial = vec![0.0f64; n];
        Context::serial().launch_chunks(
            &LaunchConfig::tuned("c"),
            cost(),
            &mut serial,
            chunk,
            fill,
        );
        let mut par = vec![0.0f64; n];
        Context::with_workers(5).launch_chunks(
            &LaunchConfig::tuned("c"),
            cost(),
            &mut par,
            chunk,
            fill,
        );
        assert_eq!(serial, par);
    }

    #[test]
    #[should_panic]
    fn launch_chunks_rejects_non_multiple() {
        let ctx = Context::serial();
        let mut out = vec![0.0f64; 10];
        ctx.launch_chunks(&LaunchConfig::tuned("c"), cost(), &mut out, 3, |_, _| {});
    }

    #[test]
    fn launch_max_reduces_correctly() {
        let ctx = Context::new();
        let m = ctx.launch_max(&LaunchConfig::tuned("m"), cost(), 1000, |i| {
            -((i as f64) - 500.5).abs()
        });
        assert_eq!(m, -0.5);
    }

    #[test]
    fn launch_max_parallel_is_bitwise_deterministic() {
        let n = 8 * PAR_MIN_ITEMS;
        let body = |i: usize| ((i as f64) * 0.7315).sin() * 1.0e-3 + (i % 97) as f64;
        let serial = Context::serial().launch_max(&LaunchConfig::tuned("m"), cost(), n, body);
        for workers in [2, 3, 8] {
            let par = Context::with_workers(workers).launch_max(
                &LaunchConfig::tuned("m"),
                cost(),
                n,
                body,
            );
            assert_eq!(serial.to_bits(), par.to_bits(), "workers = {workers}");
        }
    }

    #[test]
    fn traced_launches_reconcile_with_ledger_exactly() {
        let tracer = mfc_trace::Tracer::new();
        let mut ctx = Context::serial();
        ctx.set_tracer(tracer.handle(0));
        // Awkward item counts so the per-launch float products do not sum
        // exactly unless the trace carries the ledger's own terms.
        for items in [100usize, 37, 1013] {
            ctx.launch(&LaunchConfig::tuned("k"), cost(), items, |_| {});
        }
        ctx.launch_max(&LaunchConfig::tuned("m"), cost(), 513, |i| i as f64);
        ctx.flush_ledger_to_trace();
        let json = mfc_trace::chrome::export_to_string(&tracer.snapshot());
        let parsed = mfc_trace::chrome::parse_str(&json).unwrap();
        assert!(mfc_trace::reconcile_trace(&parsed).is_ok());
    }

    #[test]
    fn untraced_context_emits_nothing() {
        let ctx = Context::serial();
        assert!(ctx.tracer().is_none());
        assert!(ctx.span("step", Category::Phase).is_none());
        ctx.trace_instant("x", Category::Phase);
        ctx.trace_counter("dt", 1.0);
        ctx.flush_ledger_to_trace();
    }

    #[test]
    fn launch_max_empty_space_is_neg_infinity() {
        let ctx = Context::serial();
        let m = ctx.launch_max(&LaunchConfig::tuned("m0"), cost(), 0, |_| 1.0);
        assert_eq!(m, f64::NEG_INFINITY);
    }

    #[test]
    fn gang_blocks_cover_space_with_remainders() {
        // n % threads != 0: leading blocks absorb the remainder, coverage
        // is exact and contiguous, and the partition depends only on
        // (n, workers).
        for workers in 1..=9 {
            let ctx = Context::with_workers(workers);
            for n in [1usize, 2, 7, 8, 9, 100, 1023, 1024, 1025] {
                let blocks = ctx.gang_blocks(n);
                assert!(blocks.len() <= workers);
                assert_eq!(blocks.len(), workers.min(n.max(1)));
                let mut next = 0;
                for &(lo, hi) in &blocks {
                    assert_eq!(lo, next, "gap at n={n} workers={workers}");
                    assert!(hi > lo || n == 0);
                    next = hi;
                }
                assert_eq!(next, n, "coverage at n={n} workers={workers}");
                // Balanced: block lengths differ by at most one item.
                let lens: Vec<usize> = blocks.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "imbalance at n={n} workers={workers}");
            }
        }
    }

    /// Count distinct OS threads a launch body ran on.
    fn distinct_threads(f: impl FnOnce(&(dyn Fn() + Sync))) -> usize {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        f(&|| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        ids.len()
    }

    #[test]
    fn par_min_items_boundary_switches_paths() {
        let ctx = Context::with_workers(4);
        // One item below the threshold: serial path, calling thread only.
        let below = distinct_threads(|mark| {
            ctx.launch_par(&LaunchConfig::tuned("b"), cost(), PAR_MIN_ITEMS - 1, |_| {
                mark()
            });
        });
        assert_eq!(below, 1, "below-threshold launch must stay serial");
        // At the threshold: forked path, more than one worker observed.
        let at = distinct_threads(|mark| {
            ctx.launch_par(&LaunchConfig::tuned("a"), cost(), PAR_MIN_ITEMS, |_| mark());
        });
        assert!(at > 1, "threshold launch must fork (saw {at} threads)");
        // A single-worker context never forks, whatever the size.
        let serial = distinct_threads(|mark| {
            Context::serial().launch_par(
                &LaunchConfig::tuned("s"),
                cost(),
                4 * PAR_MIN_ITEMS,
                |_| mark(),
            );
        });
        assert_eq!(serial, 1, "serial context must not fork");
    }

    #[test]
    fn gang_panic_reaches_the_caller_and_the_pool_keeps_working() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let ctx = Context::with_workers(3);
        let n = 3 * PAR_MIN_ITEMS;
        // A panic on the calling thread's gang, then on a helper's.
        for bad in [0, n - 1] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ctx.launch_par(&LaunchConfig::tuned("boom"), cost(), n, |i| {
                    assert_ne!(i, bad, "gang body panic");
                });
            }));
            assert!(caught.is_err(), "panic at item {bad} was swallowed");
            let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            ctx.launch_par(&LaunchConfig::tuned("after"), cost(), n, |i| {
                seen[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn nested_launch_runs_inline_and_matches_serial() {
        let n = 2 * PAR_MIN_ITEMS;
        let body = |i: usize| ((i as f64) * 0.377).cos() * 7.0 + (i % 29) as f64;
        let want = Context::serial().launch_max(&LaunchConfig::tuned("m"), cost(), n, body);
        let ctx = Context::with_workers(4);
        let inner = ctx.launch_gangs(&LaunchConfig::tuned("outer"), cost(), n, |_, _| {
            let me = std::thread::current().id();
            let threads = AtomicU32::new(0);
            let m = ctx.launch_max(&LaunchConfig::tuned("m"), cost(), n, |i| {
                if std::thread::current().id() != me {
                    threads.fetch_add(1, Ordering::Relaxed);
                }
                body(i)
            });
            (m.to_bits(), threads.into_inner())
        });
        assert_eq!(inner.len(), 4);
        for (bits, foreign) in inner {
            assert_eq!(bits, want.to_bits());
            assert_eq!(foreign, 0, "a nested launch left its calling thread");
        }
    }

    #[test]
    fn concurrent_clones_both_get_correct_results() {
        use std::sync::Barrier;
        let chunk = 16;
        let n = 4 * PAR_MIN_ITEMS;
        let fill = |salt: usize| {
            move |i: usize, c: &mut [f64]| {
                for (j, v) in c.iter_mut().enumerate() {
                    *v = ((i * 31 + j * 7 + salt) % 1013) as f64 * 0.5;
                }
            }
        };
        let serial = |salt: usize| {
            let mut out = vec![0.0f64; n];
            Context::serial().launch_chunks(
                &LaunchConfig::tuned("c"),
                cost(),
                &mut out,
                chunk,
                fill(salt),
            );
            out
        };
        let ctx = Context::with_workers(2);
        let b = ctx.clone();
        let (inside, done) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let tb = {
            let (inside, done) = (Arc::clone(&inside), Arc::clone(&done));
            std::thread::spawn(move || {
                inside.wait();
                let mut out = vec![0.0f64; n];
                b.launch_chunks(&LaunchConfig::tuned("c"), cost(), &mut out, chunk, fill(2));
                done.wait();
                out
            })
        };
        // This thread holds the pool: its gang 0 waits until the other
        // clone has finished a whole launch, which therefore overlapped
        // this fork.
        let mut got_a = vec![0.0f64; n];
        let f = fill(1);
        ctx.launch_chunks(
            &LaunchConfig::tuned("c"),
            cost(),
            &mut got_a,
            chunk,
            |i, c| {
                if i == 0 {
                    inside.wait();
                    done.wait();
                }
                f(i, c);
            },
        );
        let got_b = tb.join().unwrap();
        assert_eq!(got_a, serial(1));
        assert_eq!(got_b, serial(2));
        assert_eq!(ctx.ledger().kernel("c").unwrap().launches, 2);
    }

    #[test]
    fn gang_scope_results_come_back_in_gang_order() {
        let ctx = Context::with_workers(4);
        let n = 4 * PAR_MIN_ITEMS + 7;
        let (results, gangs) = ctx.gang_scope(n, n as u64, |g, range| (g, range.start, range.end));
        assert_eq!(gangs, 4);
        assert_eq!(results.len(), 4);
        let mut next = 0;
        for (i, &(g, lo, hi)) in results.iter().enumerate() {
            assert_eq!(g, i);
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, n);
        // Small spaces collapse to one gang covering everything.
        let (results, gangs) = ctx.gang_scope(5, 5, |g, range| (g, range.start, range.end));
        assert_eq!(gangs, 1);
        assert_eq!(results, vec![(0, 0, 5)]);
    }

    #[test]
    fn gang_scope_with_gives_each_gang_its_own_state() {
        let ctx = Context::with_workers(3);
        let n = 3 * PAR_MIN_ITEMS;
        let mut scratch = vec![0u64; ctx.workers()];
        let (sums, gangs) = ctx.gang_scope_with(n, n as u64, &mut scratch, |_, range, st| {
            for i in range {
                *st += i as u64;
            }
            *st
        });
        assert_eq!(gangs, 3);
        let total: u64 = sums.iter().sum();
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
        assert_eq!(scratch, sums);
    }

    #[test]
    fn launch_gangs_records_one_ledger_row() {
        let ctx = Context::with_workers(4);
        let n = 2 * PAR_MIN_ITEMS;
        let parts = ctx.launch_gangs(&LaunchConfig::tuned("g"), cost(), n, |_, range| range.len());
        assert_eq!(parts.iter().sum::<usize>(), n);
        let s = ctx.ledger().kernel("g").unwrap();
        assert_eq!(s.launches, 1, "one row per launch, not per gang");
        assert_eq!(s.items, n as u64);
    }

    #[test]
    fn traced_parallel_launches_reconcile_and_annotate_gangs() {
        let tracer = mfc_trace::Tracer::new();
        let mut ctx = Context::with_workers(4);
        ctx.set_tracer(tracer.handle(0));
        let n = 4 * PAR_MIN_ITEMS;
        ctx.launch_par(&LaunchConfig::tuned("pk"), cost(), n, |_| {});
        ctx.launch_gangs(&LaunchConfig::tuned("gk"), cost(), n, |_, _| ());
        ctx.flush_ledger_to_trace();
        let json = mfc_trace::chrome::export_to_string(&tracer.snapshot());
        let parsed = mfc_trace::chrome::parse_str(&json).unwrap();
        assert!(mfc_trace::reconcile_trace(&parsed).is_ok());
        // The kernel events carry the gang count and the threads counter
        // reports the context width.
        assert!(json.contains("\"gangs\":4"));
        assert!(json.contains("\"threads\""));
    }

    use crate::shared::ParSlice;
    use crate::vector::{Lane, LaneKernel, LaneMaxKernel};

    /// A stencil-shaped lane kernel: out[row][col] from in[row][col..+3].
    struct Stencil<'a> {
        src: &'a [f64],
        out: ParSlice<'a>,
        row_len: usize,
    }

    impl LaneKernel for Stencil<'_> {
        fn packet<L: Lane>(&self, row: usize, col: usize) {
            let base = row * (self.row_len + 2) + col;
            let a = L::load(&self.src[base..]);
            let b = L::load(&self.src[base + 1..]);
            let c = L::load(&self.src[base + 2..]);
            let v = (a + c) * L::splat(0.25) + b * L::splat(0.5) + a * b * c;
            self.out.set_lanes(row * self.row_len + col, v);
        }
    }

    #[test]
    fn launch_vec_is_bitwise_identical_across_widths_and_workers() {
        // Row length chosen to leave a scalar tail at every width > 1.
        let (rows, row_len) = (37, 101);
        let src: Vec<f64> = (0..rows * (row_len + 2))
            .map(|i| ((i as f64) * 0.7311).sin() * 3.0 + (i % 13) as f64)
            .collect();
        let run = |width: usize, workers: usize| {
            let ctx = Context::with_workers(workers).with_vector_width(width);
            let mut out = vec![0.0f64; rows * row_len];
            let k = Stencil {
                src: &src,
                out: ParSlice::new(&mut out),
                row_len,
            };
            ctx.launch_vec(&LaunchConfig::tuned("stencil"), cost(), rows, row_len, &k);
            (out, ctx.lane_stats())
        };
        let (reference, _) = run(1, 1);
        for width in [2, 4, 8] {
            for workers in [1, 4] {
                let (got, (packets, tail)) = run(width, workers);
                for (a, b) in reference.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "w={width} workers={workers}");
                }
                assert_eq!(packets as usize, rows * (row_len / width));
                assert_eq!(tail as usize, rows * (row_len % width));
            }
        }
    }

    struct MaxBody;
    impl LaneMaxKernel for MaxBody {
        fn packet<L: Lane>(&self, row: usize, col: usize) -> L {
            L::from_lanes(|i| {
                let item = (row * 131 + col + i) as f64;
                (item * 0.519).sin() * 100.0 + (item % 89.0)
            })
        }
    }

    #[test]
    fn launch_max_vec_matches_scalar_fold_bitwise() {
        let (rows, row_len) = (64, 131);
        let reference = Context::with_workers(1)
            .with_vector_width(1)
            .launch_max_vec(&LaunchConfig::tuned("mv"), cost(), rows, row_len, &MaxBody);
        for width in [2, 4, 8] {
            for workers in [1, 4] {
                let got = Context::with_workers(workers)
                    .with_vector_width(width)
                    .launch_max_vec(&LaunchConfig::tuned("mv"), cost(), rows, row_len, &MaxBody);
                assert_eq!(reference.to_bits(), got.to_bits(), "w={width}");
            }
        }
    }

    #[test]
    fn traced_vector_launch_annotates_lanes_and_reconciles() {
        let tracer = mfc_trace::Tracer::new();
        let mut ctx = Context::with_workers(4).with_vector_width(4);
        ctx.set_tracer(tracer.handle(0));
        let (rows, row_len) = (64, 33);
        let src = vec![1.0f64; rows * (row_len + 2)];
        let mut out = vec![0.0f64; rows * row_len];
        let k = Stencil {
            src: &src,
            out: ParSlice::new(&mut out),
            row_len,
        };
        ctx.launch_vec(&LaunchConfig::tuned("vk"), cost(), rows, row_len, &k);
        ctx.flush_ledger_to_trace();
        let json = mfc_trace::chrome::export_to_string(&tracer.snapshot());
        let parsed = mfc_trace::chrome::parse_str(&json).unwrap();
        assert!(mfc_trace::reconcile_trace(&parsed).is_ok());
        assert!(json.contains("\"lanes\":4"), "lanes annotation missing");
        assert!(json.contains("\"vector_width\""), "width counter missing");
        assert!(
            json.contains("\"lane_tail_fraction\""),
            "tail counter missing"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_vector_width_is_rejected() {
        let _ = Context::serial().with_vector_width(3);
    }

    #[test]
    fn gang_vec_scope_runs_every_unit_once_at_any_width() {
        struct Body;
        impl crate::vector::LaneGangBody<u64, u64> for Body {
            fn run<L: Lane>(&self, _g: usize, range: std::ops::Range<usize>, st: &mut u64) -> u64 {
                for u in range {
                    *st += u as u64 + L::WIDTH as u64 - L::WIDTH as u64;
                }
                *st
            }
        }
        for width in [1, 2, 4, 8] {
            let ctx = Context::with_workers(3).with_vector_width(width);
            let n = 3 * PAR_MIN_ITEMS;
            let mut scratch = vec![0u64; ctx.workers()];
            let (sums, gangs) = ctx.gang_vec_scope(n, n as u64, &mut scratch, &Body);
            assert_eq!(gangs, 3);
            assert_eq!(sums.iter().sum::<u64>(), (n as u64 - 1) * n as u64 / 2);
        }
    }
}

//! Per-layer numbers derived from the program's public observability
//! surfaces: the `mfc-acc` kernel ledger and `mfc-trace` streams.

use std::collections::BTreeMap;

use mfc_trace::chrome::{self, ParsedTrace};
use mfc_trace::{aggregate, LedgerRow, RankTrace};

use crate::calib::Ceilings;
use crate::stats::Metrics;

/// The `mfc-core` kernel layers, keyed by launch label. Both engines'
/// labels map here (`f_*` fused stages, `s_*` staged/shared kernels).
pub const KERNELS: [&str; 8] = [
    "weno",
    "riemann",
    "flux_div",
    "cons2prim",
    "sweep_gather",
    "health",
    "dt",
    "bc",
];

pub fn category(label: &str) -> &'static str {
    let has = |k: &str| label.contains(k);
    if has("weno") {
        "weno"
    } else if has("riemann") {
        "riemann"
    } else if has("divergence") || has("alpha_source") {
        "flux_div"
    } else if has("convert_to") {
        "cons2prim"
    } else if has("gather") {
        "sweep_gather"
    } else if has("health") {
        "health"
    } else if has("compute_dt") {
        "dt"
    } else if has("populate_buffers") {
        "bc"
    } else {
        "other"
    }
}

/// Totals of one kernel category.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTotals {
    pub launches: u64,
    pub flops: f64,
    pub bytes: f64,
    pub wall_ns: f64,
}

/// Sum ledger rows per category (every rank's rows may be passed).
pub fn by_category<'a>(
    rows: impl IntoIterator<Item = &'a LedgerRow>,
) -> BTreeMap<&'static str, KernelTotals> {
    let mut out: BTreeMap<&'static str, KernelTotals> = BTreeMap::new();
    for r in rows {
        let t = out.entry(category(&r.label)).or_default();
        t.launches += r.launches;
        t.flops += r.flops;
        t.bytes += r.bytes_read + r.bytes_written;
        t.wall_ns += r.wall_ns as f64;
    }
    out
}

/// Ledger rows of a live context, in the trace's row form.
pub fn ledger_rows(ledger: &mfc_acc::Ledger) -> Vec<LedgerRow> {
    ledger
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
        .collect()
}

/// `kernel.*` metrics over `cell_steps` = Σ cells·steps of the work the
/// rows account for, and `steps` = Σ steps.
pub fn kernel_metrics(
    rows: &[LedgerRow],
    cell_steps: f64,
    steps: f64,
    ceil: &Ceilings,
    m: &mut Metrics,
) {
    let cats = by_category(rows);
    let get = |k: &str| cats.get(k).copied().unwrap_or_default();
    for k in KERNELS {
        m.put(
            format!("kernel.{k}.ns_cell_step"),
            get(k).wall_ns / cell_steps,
            "ns",
            1,
        );
    }
    m.put(
        "kernel.other.ns_cell_step",
        get("other").wall_ns / cell_steps,
        "ns",
        1,
    );
    for k in ["weno", "riemann"] {
        let t = get(k);
        let secs = t.wall_ns * 1e-9;
        let gflops = t.flops / secs / 1e9;
        m.put(format!("kernel.{k}.gflops"), gflops, "GFLOP/s", 1);
        m.put(
            format!("kernel.{k}.gbs_computed"),
            t.bytes / secs / 1e9,
            "GB/s",
            1,
        );
        m.put(
            format!("kernel.{k}.frac_ceiling"),
            gflops / ceil.roof_gflops(t.flops / t.bytes),
            "frac",
            1,
        );
    }
    let total = cats
        .values()
        .fold(KernelTotals::default(), |a, t| KernelTotals {
            launches: a.launches + t.launches,
            flops: a.flops + t.flops,
            bytes: a.bytes + t.bytes,
            wall_ns: a.wall_ns + t.wall_ns,
        });
    m.put(
        "kernel.flops_per_cell_step",
        total.flops / cell_steps,
        "FLOP",
        1,
    );
    m.put(
        "kernel.bytes_per_cell_step",
        total.bytes / cell_steps,
        "B",
        1,
    );
    m.put(
        "kernel.launches_per_step",
        total.launches as f64 / steps,
        "count",
        1,
    );
}

/// Export the streams to chrome-trace JSON, parse them back, and check
/// that every rank's traced kernel totals reconcile bitwise with its
/// embedded ledger (what `mfc-trace-report --reconcile` checks).
pub fn reconcile(traces: &[RankTrace]) -> Result<ParsedTrace, String> {
    let parsed = chrome::parse_str(&chrome::export_to_string(traces))?;
    check_reconciled(&parsed)?;
    Ok(parsed)
}

pub fn check_reconciled(parsed: &ParsedTrace) -> Result<(), String> {
    if parsed.ledgers.is_empty() {
        return Err("trace carries no ledger to reconcile".into());
    }
    aggregate::reconcile_trace(parsed).map_err(|errs| errs.join("; "))
}

/// Self time per span or leaf name over every timeline: a span's
/// duration minus what its direct children cover. Leaves are kernel,
/// comm and io complete events (keyed `kernel:<category>`,
/// `comm:<op>`, `io:<name>`); spans are keyed by name.
pub fn self_times(parsed: &ParsedTrace) -> BTreeMap<String, (u64, f64)> {
    let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for events in parsed.ranks.values() {
        // Open spans: (name, start µs, time covered by children µs).
        let mut stack: Vec<(String, f64, f64)> = Vec::new();
        for e in events {
            match e.ph {
                'B' => stack.push((e.name.clone(), e.ts_us, 0.0)),
                'E' => {
                    let Some((name, start, covered)) = stack.pop() else {
                        continue;
                    };
                    let dur = e.ts_us - start;
                    let entry = out.entry(name).or_default();
                    entry.0 += 1;
                    entry.1 += (dur - covered).max(0.0);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                'X' => {
                    let key = match e.cat.as_str() {
                        "kernel" => format!("kernel:{}", category(&e.name)),
                        other => format!("{other}:{}", e.name),
                    };
                    let entry = out.entry(key).or_default();
                    entry.0 += 1;
                    entry.1 += e.dur_us;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += e.dur_us;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Record the self-time table as report-only `self_ms.<name>` metrics.
pub fn self_time_metrics(parsed: &ParsedTrace, m: &mut Metrics) {
    for (name, (count, us)) in self_times(parsed) {
        m.put(format!("self_ms.{name}"), us / 1e3, "ms", count as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_map_to_layers() {
        for (label, cat) in [
            ("f_weno_reconstruct", "weno"),
            ("s_weno_reconstruct", "weno"),
            ("f_riemann_solve", "riemann"),
            ("f_flux_divergence", "flux_div"),
            ("s_alpha_source", "flux_div"),
            ("s_convert_to_primitive", "cons2prim"),
            ("s_convert_to_conservative", "cons2prim"),
            ("f_sweep_gather", "sweep_gather"),
            ("s_health_scan", "health"),
            ("s_compute_dt", "dt"),
            ("s_populate_buffers", "bc"),
            ("s_fused_sweep", "other"),
        ] {
            assert_eq!(category(label), cat, "{label}");
        }
    }
}

//! Seeded input generation. The seed only perturbs physics within
//! admissible ranges (positions, radii, velocities, pressure ratios),
//! the fault's wave interval and the arrival schedule; problem sizes,
//! step counts and the job mix are fixed per workload so that two seeds
//! cost the same amount of work.

use std::path::{Path, PathBuf};

use mfc_cli::{BcConfig, CaseFile, IoConfig, NumericsConfig, OutputConfig, RunConfig};
use mfc_core::bc::BcKind;
use mfc_core::case::{Patch, PatchState, Region};
use mfc_core::fluid::Fluid;
use mfc_core::rhs::RhsMode;
use mfc_mpsim::{FaultPlan, RankDeath};

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Near-pure volume fraction of the majority fluid in a two-fluid patch.
const PURE: f64 = 1.0 - 1e-6;

fn case_file(
    name: &str,
    fluids: Vec<Fluid>,
    ndim: usize,
    cells: [usize; 3],
    bc: BcKind,
    patches: Vec<Patch>,
    out: &Path,
) -> CaseFile {
    CaseFile {
        name: name.to_string(),
        fluids,
        ndim,
        cells,
        lo: [0.0; 3],
        hi: [1.0; 3],
        bc: BcConfig::Uniform(bc),
        patches,
        smear_cells: 1.0,
        numerics: NumericsConfig::default(),
        run: RunConfig::default(),
        output: OutputConfig {
            dir: out.to_path_buf(),
            vtk: false,
        },
        io: IoConfig::default(),
        probes: Vec::new(),
    }
}

/// The 3-D two-phase problem of `presets::two_phase_benchmark` (an air
/// cavity in water, unit box, uniform advection) with the cavity centre,
/// radius and advection velocity drawn from the seed. The boundaries are
/// outflow rather than periodic so that the split two-rank run still
/// fills physical ghost cells (a periodic split exchanges every face).
fn droplet_physics(rng: &mut Rng, n: usize) -> (Vec<Patch>, [usize; 3]) {
    let vel = [
        rng.range(0.75, 1.25),
        rng.range(0.375, 0.625),
        rng.range(0.1875, 0.3125),
    ];
    let center = [
        rng.range(0.4, 0.6),
        rng.range(0.4, 0.6),
        rng.range(0.4, 0.6),
    ];
    let radius = rng.range(0.15, 0.25);
    let patches = vec![
        Patch {
            region: Region::All,
            state: PatchState::two_fluid(1.0 - PURE, [1.2, 1000.0], vel, 1.0e5),
        },
        Patch {
            region: Region::Sphere { center, radius },
            state: PatchState::two_fluid(PURE, [1.2, 1000.0], vel, 1.0e5),
        },
    ];
    (patches, [n, n, n])
}

/// `droplet3d`: one rank, `workers` gangs, fused engine.
pub fn droplet_case(seed: u64, n: usize, steps: usize, workers: usize, out: &Path) -> CaseFile {
    let mut rng = Rng::new(seed, 1);
    let (patches, cells) = droplet_physics(&mut rng, n);
    let numerics = NumericsConfig {
        mode: RhsMode::Fused,
        workers,
        ..NumericsConfig::default()
    };
    let run = RunConfig {
        steps,
        ranks: 1,
        ..RunConfig::default()
    };
    CaseFile {
        numerics,
        run,
        ..case_file(
            "droplet3d",
            vec![Fluid::air(), Fluid::water()],
            3,
            cells,
            BcKind::Transmissive,
            patches,
            out,
        )
    }
}

/// `ranks2_ckpt_fault`: the droplet physics on two simulated ranks of
/// one worker each, checkpointing every `every` steps, plus a fault plan
/// with one transient death of rank 1. The death always lands `every-1`
/// steps past a committed wave, so every seed replays the same number of
/// steps; the seed picks which wave interval it hits.
pub fn ranks2_inputs(
    seed: u64,
    n: usize,
    steps: usize,
    every: u64,
    plan_path: &Path,
    out: &Path,
) -> (CaseFile, FaultPlan) {
    let mut rng = Rng::new(seed, 2);
    let (patches, cells) = droplet_physics(&mut rng, n);
    let waves = steps as u64 / every;
    // Keep the fault mid-run: neither the first nor the last interval.
    let first = 1u64;
    let last = waves.saturating_sub(2).max(first);
    let k = first + rng.below((last - first + 1) as usize) as u64;
    let death_step = k * every + every - 1;
    let plan = FaultPlan {
        deaths: vec![RankDeath {
            rank: 1,
            step: death_step,
            permanent: false,
        }],
        ..FaultPlan::default()
    };
    let numerics = NumericsConfig {
        mode: RhsMode::Fused,
        workers: 1,
        ..NumericsConfig::default()
    };
    let run = RunConfig {
        steps,
        ranks: 2,
        checkpoint_every: every,
        faults: Some(plan_path.to_path_buf()),
        ..RunConfig::default()
    };
    let cf = CaseFile {
        numerics,
        run,
        ..case_file(
            "ranks2_ckpt_fault",
            vec![Fluid::air(), Fluid::water()],
            3,
            cells,
            BcKind::Transmissive,
            patches,
            out,
        )
    };
    (cf, plan)
}

/// Fixed job shapes of `ensemble_open`: (ndim, cells, steps). Sizes span
/// 256–4096 cells and 30–60 steps; every seed uses each shape equally
/// often, so the offered work is the same for every seed. The count is
/// odd so that the median job falls inside one shape's cluster of
/// turnarounds rather than on the gap between two, where it would jump.
/// Steps sit at the top of the small-job range so that the fsynced
/// `final.ckpt` write is a smaller share of each turnaround.
pub const TEMPLATE_SHAPES: [(usize, [usize; 3], usize); 7] = [
    (1, [256, 1, 1], 60),
    (1, [1024, 1, 1], 60),
    (1, [2048, 1, 1], 60),
    (1, [4096, 1, 1], 40),
    (2, [16, 16, 1], 60),
    (2, [32, 32, 1], 60),
    (2, [64, 64, 1], 30),
];

/// One ensemble job template: its case file on disk and its work size.
#[derive(Debug, Clone)]
pub struct Template {
    pub case: CaseFile,
    pub path: PathBuf,
    /// cells · equations · RHS evaluations of one run.
    pub work: f64,
}

/// One open-loop arrival: its batch, when it is due (seconds after the
/// stream starts) and which template it submits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub batch: usize,
    pub due_s: f64,
    pub template: usize,
}

/// 1-D: a two-gas shock tube (air driving a heavier gas) with the seed
/// choosing the interface position and the pressure and density ratios.
/// 2-D: an air bubble advected through water in a periodic box with a
/// seeded centre, radius and velocity.
fn template_case(rng: &mut Rng, idx: usize, out: &Path) -> CaseFile {
    let (ndim, cells, steps) = TEMPLATE_SHAPES[idx];
    // One worker, as a standalone `mfc-run` of the template runs it; in
    // the daemon the pool sets each running job's share.
    let numerics = NumericsConfig {
        mode: RhsMode::Fused,
        workers: 1,
        ..NumericsConfig::default()
    };
    let run = RunConfig {
        steps,
        ranks: 1,
        ..RunConfig::default()
    };
    let name = format!("t{idx}_{ndim}d_{}", cells[0] * cells[1]);
    if ndim == 1 {
        let heavy = Fluid::new(1.67, 0.0);
        let bound = rng.range(0.35, 0.65);
        let p_ratio = rng.range(2.0, 10.0);
        let rho_ratio = rng.range(2.0, 8.0);
        let patches = vec![
            Patch {
                region: Region::All,
                state: PatchState::two_fluid(1.0 - PURE, [1.0, 1.0], [0.0; 3], 1.0e5),
            },
            Patch {
                region: Region::HalfSpace { axis: 0, bound },
                state: PatchState::two_fluid(PURE, [rho_ratio, 1.0], [0.0; 3], p_ratio * 1.0e5),
            },
        ];
        CaseFile {
            numerics,
            run,
            ..case_file(
                &name,
                vec![Fluid::air(), heavy],
                1,
                cells,
                BcKind::Transmissive,
                patches,
                out,
            )
        }
    } else {
        let vel = [rng.range(0.5, 1.5), rng.range(-0.5, 0.5), 0.0];
        let center = [rng.range(0.35, 0.65), rng.range(0.35, 0.65), 0.0];
        let radius = rng.range(0.1, 0.25);
        let patches = vec![
            Patch {
                region: Region::All,
                state: PatchState::two_fluid(1.0 - PURE, [1.2, 1000.0], vel, 1.0e5),
            },
            Patch {
                region: Region::Sphere { center, radius },
                state: PatchState::two_fluid(PURE, [1.2, 1000.0], vel, 1.0e5),
            },
        ];
        CaseFile {
            numerics,
            run,
            ..case_file(
                &name,
                vec![Fluid::air(), Fluid::water()],
                2,
                cells,
                BcKind::Periodic,
                patches,
                out,
            )
        }
    }
}

/// Seconds between the starts of consecutive `ensemble_open` batches.
/// One batch (every template once) drains in about 0.35 s on the two
/// workers of the host the benchmark was defined on, and the next one is
/// due at least 0.65 s later, so batches queue behind each other only
/// while a co-tenant slows the host by more than ~1.8x.
pub const BATCH_PERIOD_S: f64 = 0.75;
/// Latest due time of a batch within its period, seconds.
const BATCH_JITTER_S: f64 = 0.1;

/// `ensemble_open` inputs: one template per shape (physics from the
/// seed) and one batch of arrivals per `BATCH_PERIOD_S` in `window_s`.
/// A batch submits every template once, shortest job first, all due at
/// the same seeded instant in the first `BATCH_JITTER_S` of its period.
pub fn ensemble_inputs(
    seed: u64,
    window_s: f64,
    case_dir: &Path,
    out: &Path,
) -> (Vec<Template>, Vec<Arrival>) {
    let mut rng = Rng::new(seed, 3);
    let templates: Vec<Template> = (0..TEMPLATE_SHAPES.len())
        .map(|i| {
            let case = template_case(&mut rng, i, &out.join(format!("t{i}")));
            let neq = case.to_case().expect("generated case is valid").eq().neq();
            let stages = case
                .numerics
                .scheme()
                .expect("generated scheme is valid")
                .stages();
            let cells: usize = case.cells.iter().product();
            Template {
                path: case_dir.join(format!("{}.json", case.name)),
                work: (cells * neq * case.run.steps * stages) as f64,
                case,
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..templates.len()).collect();
    order.sort_by(|&a, &b| templates[a].work.total_cmp(&templates[b].work));
    let batches = ((window_s / BATCH_PERIOD_S).floor() as usize).max(1);
    let arrivals = (0..batches)
        .flat_map(|batch| {
            let due_s = batch as f64 * BATCH_PERIOD_S + rng.range(0.0, BATCH_JITTER_S);
            order.iter().map(move |&template| Arrival {
                batch,
                due_s,
                template,
            })
        })
        .collect();
    (templates, arrivals)
}

/// Write a case file (or fault plan) as pretty JSON.
pub fn write_json<T: serde::Serialize>(path: &Path, v: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }

    #[test]
    fn same_seed_same_inputs_and_different_seeds_differ() {
        let out = Path::new("out");
        let plan = Path::new("plan.json");
        for seed in [0u64, 1, 7, 12345] {
            assert_eq!(
                bytes(&droplet_case(seed, 32, 30, 2, out)),
                bytes(&droplet_case(seed, 32, 30, 2, out))
            );
            let a = ranks2_inputs(seed, 32, 24, 4, plan, out);
            let b = ranks2_inputs(seed, 32, 24, 4, plan, out);
            assert_eq!(bytes(&a.0), bytes(&b.0));
            assert_eq!(bytes(&a.1), bytes(&b.1));
            let (ta, aa) = ensemble_inputs(seed, 10.0, out, out);
            let (tb, ab) = ensemble_inputs(seed, 10.0, out, out);
            assert_eq!(aa, ab);
            for (x, y) in ta.iter().zip(&tb) {
                assert_eq!(bytes(&x.case), bytes(&y.case));
            }
        }
        assert_ne!(
            bytes(&droplet_case(1, 32, 30, 2, out)),
            bytes(&droplet_case(2, 32, 30, 2, out))
        );
        let plans: std::collections::BTreeSet<u64> = (0..16)
            .map(|s| ranks2_inputs(s, 32, 24, 4, plan, out).1.deaths[0].step)
            .collect();
        assert!(plans.len() > 1, "the seed must move the fault: {plans:?}");
        let (t1, a1) = ensemble_inputs(1, 10.0, out, out);
        let (t2, a2) = ensemble_inputs(2, 10.0, out, out);
        assert_ne!(a1, a2);
        assert_ne!(bytes(&t1[0].case), bytes(&t2[0].case));
    }

    #[test]
    fn every_generated_case_passes_dry_run() {
        let dir = std::env::temp_dir().join(format!("perfbench_gen_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan_path = dir.join("plan.json");
        for seed in 0..8u64 {
            mfc_cli::dry_run(&droplet_case(seed, 32, 30, 2, &dir)).unwrap();
            let (cf, plan) = ranks2_inputs(seed, 32, 24, 4, &plan_path, &dir);
            write_json(&plan_path, &plan).unwrap();
            let report = mfc_cli::dry_run(&cf).unwrap();
            assert_eq!(report.ranks, 2);
            let death = plan.deaths[0].step;
            assert!(death > 4 && death < 24 && death % 4 == 3, "{death}");
            let (templates, arrivals) = ensemble_inputs(seed, 10.0, &dir, &dir);
            for t in &templates {
                mfc_cli::dry_run(&t.case).unwrap();
            }
            // Whole batches: every shape once per batch, shortest first.
            let batches = (10.0 / BATCH_PERIOD_S).floor() as usize;
            assert_eq!(arrivals.len(), batches * TEMPLATE_SHAPES.len());
            for (k, batch) in arrivals.chunks(TEMPLATE_SHAPES.len()).enumerate() {
                assert!(batch
                    .iter()
                    .all(|a| a.batch == k && a.due_s == batch[0].due_s));
                assert!(batch
                    .windows(2)
                    .all(|w| templates[w[0].template].work <= templates[w[1].template].work));
                let mut seen: Vec<usize> = batch.iter().map(|a| a.template).collect();
                seen.sort();
                assert_eq!(seen, (0..TEMPLATE_SHAPES.len()).collect::<Vec<_>>());
            }
            assert!(arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(arrivals.iter().all(|a| (0.0..10.0).contains(&a.due_s)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Output checks. Each returns whether the program's output matches its
//! reference exactly; a mismatch fails the operation and the command.

use mfc_core::Solver;
use mfc_sched::{JobRecord, JobState};

/// Interior state of a serial solver in `GlobalField` order (equation,
/// then cell), the layout `run_distributed_resilient` gathers into.
pub fn snapshot(solver: &Solver) -> Vec<f64> {
    let dom = *solver.domain();
    let q = solver.state();
    let mut data = Vec::with_capacity(dom.interior_cells() * dom.eq.neq());
    for e in 0..dom.eq.neq() {
        for (i, j, k) in dom.interior() {
            data.push(q.get(i, j, k, e));
        }
    }
    data
}

/// Bitwise equality of two states (NaN payloads and signed zeros count).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A submitted job passed when the daemon's ledger has it Done and its
/// `final.ckpt` is byte-equal to the standalone run of its template.
pub fn job_output_ok(rec: Option<&JobRecord>, reference: &[u8]) -> bool {
    rec.is_some_and(|r| {
        r.state == JobState::Done
            && r.output
                .as_ref()
                .is_some_and(|p| std::fs::read(p).is_ok_and(|b| b == reference))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_check_fires_on_one_flipped_bit() {
        let good: Vec<f64> = (0..64).map(|i| i as f64 * 0.37).collect();
        assert!(same_bits(&good, &good.clone()));
        let mut bad = good.clone();
        bad[17] = f64::from_bits(bad[17].to_bits() ^ 1);
        assert!(!same_bits(&good, &bad));
        assert!(!same_bits(&good, &good[..63]));
        let mut neg_zero = vec![0.0; 4];
        neg_zero[2] = -0.0;
        assert!(!same_bits(&[0.0; 4], &neg_zero));
    }

    #[test]
    fn job_check_fires_on_a_corrupted_checkpoint() {
        let dir = std::env::temp_dir().join(format!("perfbench_job_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = vec![7u8; 256];
        let path = dir.join("final.ckpt");
        std::fs::write(&path, &good).unwrap();
        let mut rec = JobRecord {
            id: 0,
            job: "t0".into(),
            case: "t0.json".into(),
            priority: 0,
            state: JobState::Done,
            steps: 10,
            sim_time: 0.0,
            wall_ms: 1.0,
            wait_ms: 0.0,
            cpu_ms: 1.0,
            worker_seconds: 0.001,
            final_share: 1,
            resizes: 0,
            reason: None,
            output: Some(path.clone()),
        };
        assert!(job_output_ok(Some(&rec), &good));
        let mut bad = good.clone();
        bad[200] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        assert!(!job_output_ok(Some(&rec), &good));
        std::fs::write(&path, &good[..255]).unwrap();
        assert!(!job_output_ok(Some(&rec), &good));
        std::fs::write(&path, &good).unwrap();
        rec.state = JobState::Failed;
        assert!(!job_output_ok(Some(&rec), &good));
        rec.state = JobState::Done;
        rec.output = None;
        assert!(!job_output_ok(Some(&rec), &good));
        assert!(!job_output_ok(None, &good));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_check_fires_on_a_corrupted_solver_state() {
        use mfc_acc::Context;
        use mfc_core::case::presets;
        use mfc_core::SolverConfig;
        let case = presets::two_phase_benchmark(2, [12, 12, 1]);
        let mut a = Solver::new(&case, SolverConfig::default(), Context::serial());
        let mut b = Solver::new(&case, SolverConfig::default(), Context::with_workers(2));
        a.run_steps(2).unwrap();
        b.run_steps(2).unwrap();
        let (sa, sb) = (snapshot(&a), snapshot(&b));
        assert!(same_bits(&sa, &sb), "worker count must not change bits");
        let dom = *b.domain();
        let (i, j, k) = dom.interior().nth(5).unwrap();
        let v = b.state().get(i, j, k, 0);
        b.state_mut().set(i, j, k, 0, v * (1.0 + f64::EPSILON));
        assert!(!same_bits(&sa, &snapshot(&b)));
    }
}

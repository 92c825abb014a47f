//! Gang-pool lifetime: helpers exit when the last context clone drops.
//! Kept alone in its own test binary so the process's thread count is not
//! disturbed by concurrently running tests. Linux only: it counts
//! threads through procfs.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig, PAR_MIN_ITEMS};

/// Live threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Thread count once it settles at `want`, or after one second: a joined
/// thread can stay listed in procfs for a moment after it has exited.
fn threads_settled(want: usize) -> usize {
    let start = Instant::now();
    loop {
        let n = threads();
        if n == want || start.elapsed() > Duration::from_secs(1) {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn dropped_contexts_leave_no_helper_threads() {
    let cost = KernelCost::new(KernelClass::Other, 1.0, 8.0, 8.0);
    let before = threads();
    for round in 0..1000 {
        let ctx = Context::with_workers(4);
        let clone = ctx.clone();
        ctx.launch_par(&LaunchConfig::tuned("p"), cost, PAR_MIN_ITEMS, |_| {});
        drop(ctx);
        if round == 0 {
            // The surviving clone still owns the three spawned helpers.
            assert_eq!(threads(), before + 3);
        }
        drop(clone);
        assert_eq!(
            threads_settled(before),
            before,
            "helpers outlived context {round}"
        );
    }
}

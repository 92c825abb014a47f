//! Strong-stability-preserving Runge–Kutta time integration.

use mfc_acc::{Context, KernelClass, KernelCost, LaunchConfig};
use serde::{Deserialize, Serialize};

use crate::state::StateField;

/// Time integration scheme (MFC's `time_stepper` 1/2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeScheme {
    /// Forward Euler.
    Rk1,
    /// SSP-RK2 (Heun).
    Rk2,
    /// SSP-RK3 (Shu–Osher) — MFC's default with WENO5.
    Rk3,
}

impl TimeScheme {
    pub fn stages(self) -> usize {
        match self {
            TimeScheme::Rk1 => 1,
            TimeScheme::Rk2 => 2,
            TimeScheme::Rk3 => 3,
        }
    }

    /// Formal order of accuracy.
    pub fn order(self) -> usize {
        self.stages()
    }
}

/// Scratch states for multi-stage schemes.
pub struct RkWorkspace {
    /// Copy of `q^n` kept across stages.
    pub q0: StateField,
    /// Stage RHS.
    pub rhs: StateField,
}

impl RkWorkspace {
    pub fn new(template: &StateField) -> Self {
        RkWorkspace {
            q0: template.clone(),
            rhs: StateField::zeros(*template.domain()),
        }
    }
}

/// Advance `q` by one step of `scheme` with step `dt`.
///
/// `eval_rhs(q, rhs)` must fill ghost cells of `q` (BCs/halo) and then the
/// interior of `rhs`; it is called once per stage.  The convex SSP
/// combinations act on the full ghost-inclusive arrays, which is harmless
/// because ghosts are refilled before each use. Multi-stage schemes first
/// save `q^n` into `ws.q0` (one `s_rk_save` launch).
pub fn rk_step(
    ctx: &Context,
    scheme: TimeScheme,
    dt: f64,
    q: &mut StateField,
    ws: &mut RkWorkspace,
    eval_rhs: impl FnMut(&mut StateField, &mut StateField),
) {
    if scheme != TimeScheme::Rk1 {
        rk_save(ctx, q, &mut ws.q0);
    }
    rk_stages(ctx, scheme, dt, q, &ws.q0, &mut ws.rhs, eval_rhs);
}

/// The stages of [`rk_step`] with the step-start state supplied by the
/// caller: `q0` must hold `q^n` (equal to `q` on entry; Rk1 never reads
/// it). Each stage is one RHS evaluation plus one fused `s_rk_update`
/// launch computing `t = q + dt·rhs` and, after the first stage,
/// `q = a·q0 + b·t` — per element the same operations in the same order
/// as an axpy followed by a linear combination, so bitwise identical to
/// that sequence at every worker count.
pub(crate) fn rk_stages(
    ctx: &Context,
    scheme: TimeScheme,
    dt: f64,
    q: &mut StateField,
    q0: &StateField,
    rhs: &mut StateField,
    mut eval_rhs: impl FnMut(&mut StateField, &mut StateField),
) {
    let mixes: &[Option<(f64, f64)>] = match scheme {
        TimeScheme::Rk1 => &[None],
        // q^{n+1} = 1/2 q0 + 1/2 (q1 + dt L(q1))
        TimeScheme::Rk2 => &[None, Some((0.5, 0.5))],
        // Shu–Osher: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1)),
        // q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
        TimeScheme::Rk3 => &[None, Some((0.75, 0.25)), Some((1.0 / 3.0, 2.0 / 3.0))],
    };
    for &mix in mixes {
        eval_rhs(q, rhs);
        rk_update(ctx, dt, q, q0, rhs, mix);
    }
}

/// `q0 = q` as one gang-parallel launch (`s_rk_save`), one x-y plane per
/// item.
pub(crate) fn rk_save(ctx: &Context, q: &StateField, q0: &mut StateField) {
    let plane = plane_len(q);
    let src = q.as_slice();
    assert_eq!(src.len(), q0.as_slice().len());
    let bytes = 8.0 * plane as f64;
    let cost = KernelCost::new(KernelClass::Update, 0.0, bytes, bytes);
    let cfg = LaunchConfig::tuned("s_rk_save");
    ctx.launch_chunks(&cfg, cost, q0.as_mut_slice(), plane, |c, out| {
        out.copy_from_slice(&src[c * plane..(c + 1) * plane]);
    });
}

/// One fused stage update (`s_rk_update`): `t = q + dt·rhs`, then
/// `q = a·q0 + b·t` when `mix = Some((a, b))`, else `q = t`.
fn rk_update(
    ctx: &Context,
    dt: f64,
    q: &mut StateField,
    q0: &StateField,
    rhs: &StateField,
    mix: Option<(f64, f64)>,
) {
    let plane = plane_len(q);
    let (q0, rhs) = (q0.as_slice(), rhs.as_slice());
    assert_eq!(q.as_slice().len(), rhs.len());
    assert_eq!(q.as_slice().len(), q0.len());
    let (flops, read) = if mix.is_some() {
        (5.0, 24.0)
    } else {
        (2.0, 16.0)
    };
    let p = plane as f64;
    let cost = KernelCost::new(KernelClass::Update, flops * p, read * p, 8.0 * p);
    let cfg = LaunchConfig::tuned("s_rk_update");
    ctx.launch_chunks(&cfg, cost, q.as_mut_slice(), plane, |c, out| {
        let span = c * plane..(c + 1) * plane;
        let r = &rhs[span.clone()];
        match mix {
            None => {
                for (o, &v) in out.iter_mut().zip(r) {
                    *o += dt * v;
                }
            }
            Some((a, b)) => {
                for ((o, &v), &x) in out.iter_mut().zip(r).zip(&q0[span]) {
                    let t = *o + dt * v;
                    *o = a * x + b * t;
                }
            }
        }
    });
}

/// Elements of one x-y plane of `q` — the item of the RK launches, large
/// enough that per-item overhead vanishes next to the streaming work.
fn plane_len(q: &StateField) -> usize {
    let d3 = q.domain().dims3();
    d3.n1 * d3.n2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;

    fn scalar_field(v: f64) -> StateField {
        let dom = Domain::new([1, 1, 1], 1, EqIdx::new(1, 1));
        let mut s = StateField::zeros(dom);
        s.set(1, 0, 0, 0, v);
        s
    }

    /// Integrate dy/dt = lambda y and check the convergence order against
    /// the exact exponential.
    fn decay_error(scheme: TimeScheme, dt: f64) -> f64 {
        let lambda = -1.0;
        let mut q = scalar_field(1.0);
        let mut ws = RkWorkspace::new(&q);
        let steps = (1.0 / dt).round() as usize;
        for _ in 0..steps {
            rk_step(&Context::serial(), scheme, dt, &mut q, &mut ws, |q, rhs| {
                let v = q.get(1, 0, 0, 0);
                rhs.fill(0.0);
                rhs.set(1, 0, 0, 0, lambda * v);
            });
        }
        (q.get(1, 0, 0, 0) - (-1.0f64).exp()).abs()
    }

    #[test]
    fn rk_schemes_converge_at_design_order() {
        for (scheme, min_rate) in [
            (TimeScheme::Rk1, 0.9),
            (TimeScheme::Rk2, 1.9),
            (TimeScheme::Rk3, 2.9),
        ] {
            let e1 = decay_error(scheme, 0.05);
            let e2 = decay_error(scheme, 0.025);
            let rate = (e1 / e2).log2();
            assert!(
                rate > min_rate,
                "{scheme:?}: rate {rate} (e1={e1:.2e}, e2={e2:.2e})"
            );
        }
    }

    #[test]
    fn rhs_called_once_per_stage() {
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = scalar_field(1.0);
            let mut ws = RkWorkspace::new(&q);
            let mut calls = 0;
            rk_step(
                &Context::serial(),
                scheme,
                0.01,
                &mut q,
                &mut ws,
                |_, rhs| {
                    calls += 1;
                    rhs.fill(0.0);
                },
            );
            assert_eq!(calls, scheme.stages());
        }
    }

    #[test]
    fn zero_rhs_preserves_state_exactly() {
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut q = scalar_field(3.25);
            let mut ws = RkWorkspace::new(&q);
            rk_step(
                &Context::serial(),
                scheme,
                0.1,
                &mut q,
                &mut ws,
                |_, rhs| rhs.fill(0.0),
            );
            assert_eq!(q.get(1, 0, 0, 0), 3.25, "{scheme:?}");
        }
    }

    /// The pre-fusion stepper — a `q0` clone, an axpy per stage, and a
    /// linear combination through a fresh temporary — kept as the
    /// reference the fused launches must reproduce bit for bit.
    fn reference_step(
        scheme: TimeScheme,
        dt: f64,
        q: &mut StateField,
        rhs: &mut StateField,
        mut eval_rhs: impl FnMut(&mut StateField, &mut StateField),
    ) {
        fn axpy(q: &mut StateField, s: f64, x: &StateField) {
            for (o, &v) in q.as_mut_slice().iter_mut().zip(x.as_slice()) {
                *o += s * v;
            }
        }
        fn lincomb(q: &mut StateField, a: f64, x: &StateField, b: f64, y: &StateField) {
            let out = q.as_mut_slice().iter_mut();
            for ((o, &xv), &yv) in out.zip(x.as_slice()).zip(y.as_slice()) {
                *o = a * xv + b * yv;
            }
        }
        let q0 = q.clone();
        eval_rhs(q, rhs);
        axpy(q, dt, rhs);
        let mixes: &[(f64, f64)] = match scheme {
            TimeScheme::Rk1 => &[],
            TimeScheme::Rk2 => &[(0.5, 0.5)],
            TimeScheme::Rk3 => &[(0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)],
        };
        for &(a, b) in mixes {
            eval_rhs(q, rhs);
            axpy(q, dt, rhs);
            let tmp = q.clone();
            lincomb(q, a, &q0, b, &tmp);
        }
    }

    #[test]
    fn fused_stages_match_the_axpy_lincomb_sequence_bitwise() {
        // 22 x 22 ghost-inclusive cells x 6 equations: large enough that
        // multi-worker contexts really fork the stage launches.
        let dom = Domain::new([16, 16, 1], 3, EqIdx::new(2, 2));
        let mut init = StateField::zeros(dom);
        for (i, v) in init.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f64) * 0.6180339).sin() * 3.0 + (i % 11) as f64 * 0.125;
        }
        // A nonlinear, non-local RHS so every stage sees different data.
        let eval = |q: &mut StateField, rhs: &mut StateField| {
            let src = q.as_slice();
            let n = src.len();
            for (i, r) in rhs.as_mut_slice().iter_mut().enumerate() {
                *r = (src[i] * 1.3).sin() - 0.7 * src[(i + 37) % n] * src[i].abs().sqrt();
            }
        };
        for scheme in [TimeScheme::Rk1, TimeScheme::Rk2, TimeScheme::Rk3] {
            let mut want = init.clone();
            let mut rhs = StateField::zeros(dom);
            for _ in 0..3 {
                reference_step(scheme, 0.037, &mut want, &mut rhs, eval);
            }
            for workers in [1, 2, 3] {
                let ctx = Context::with_workers(workers);
                let mut q = init.clone();
                let mut ws = RkWorkspace::new(&q);
                for _ in 0..3 {
                    rk_step(&ctx, scheme, 0.037, &mut q, &mut ws, eval);
                }
                let same = want
                    .as_slice()
                    .iter()
                    .zip(q.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{scheme:?} at {workers} workers");
                let updates = ctx.ledger().kernel("s_rk_update").unwrap();
                assert_eq!(updates.launches as usize, 3 * scheme.stages());
            }
        }
    }
}

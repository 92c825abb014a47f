//! Physical boundary conditions: ghost-cell population.
//!
//! Applied axis-by-axis over the full (ghost-inclusive) transverse extent,
//! so edge/corner ghost regions are filled consistently by the sequence of
//! sweeps — the same strategy as MFC's `s_populate_variables_buffers`.

use std::time::Instant;

use mfc_acc::{Context, KernelClass, KernelCost, ParSlice};
use serde::{Deserialize, Serialize};

use crate::state::StateField;

/// Boundary condition applied at one face of the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BcKind {
    /// Wrap around to the opposite side.
    Periodic,
    /// Slip wall: mirror the state, negate the normal velocity/momentum.
    Reflective,
    /// No-slip wall: mirror the state, negate every velocity/momentum
    /// component (viscous walls).
    NoSlip,
    /// Zero-gradient outflow (copy the nearest interior cell).
    Transmissive,
}

/// Boundary conditions for every face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BcSpec {
    pub lo: [BcKind; 3],
    pub hi: [BcKind; 3],
}

impl BcSpec {
    pub fn all(kind: BcKind) -> Self {
        BcSpec {
            lo: [kind; 3],
            hi: [kind; 3],
        }
    }

    pub fn periodic() -> Self {
        Self::all(BcKind::Periodic)
    }

    pub fn reflective() -> Self {
        Self::all(BcKind::Reflective)
    }

    pub fn transmissive() -> Self {
        Self::all(BcKind::Transmissive)
    }

    /// Set both faces of one axis.
    pub fn with_axis(mut self, axis: usize, kind: BcKind) -> Self {
        self.lo[axis] = kind;
        self.hi[axis] = kind;
        self
    }

    /// Whether both faces of `axis` are periodic (then the distributed
    /// topology wraps too).
    pub fn axis_periodic(&self, axis: usize) -> bool {
        self.lo[axis] == BcKind::Periodic && self.hi[axis] == BcKind::Periodic
    }
}

/// Fill every ghost layer of `field` (works on conservative or primitive
/// data: the reflective sign flip targets the `mom(axis)` slot, which holds
/// momentum resp. velocity — both flip).
///
/// `skip` marks axes whose ghosts are owned by the halo exchange (interior
/// block faces of a distributed run); `skip = [(false,false); 3]` applies
/// physical BCs everywhere.
pub fn apply_bcs(ctx: &Context, field: &mut StateField, bc: &BcSpec, skip: [(bool, bool); 3]) {
    let dom = *field.domain();
    let ng = dom.ng;
    let neq = dom.eq.neq();
    let d4 = dom.dims4();
    let cost = KernelCost::new(KernelClass::Other, 1.0, 8.0 * neq as f64, 8.0 * neq as f64);
    let data = ParSlice::new(field.as_mut_slice());

    for (axis, &(skip_lo, skip_hi)) in skip.iter().enumerate().take(dom.eq.ndim()) {
        let n = dom.n[axis];
        // Transverse extents (full, ghost-inclusive, so corners fill).
        let t1 = if axis == 0 { dom.ext(1) } else { dom.ext(0) };
        let t2 = if axis == 2 { dom.ext(1) } else { dom.ext(2) };
        let plane = t1 * t2;

        for (side, is_hi) in [(0usize, false), (1usize, true)] {
            if (side == 0 && skip_lo) || (side == 1 && skip_hi) {
                continue;
            }
            let kind = if is_hi { bc.hi[axis] } else { bc.lo[axis] };
            // Flat index of (along `axis`, transverse a = 0, b, e), and the
            // memory stride of the inner transverse index `a`.
            let at = |along: usize, b: usize, e: usize| match axis {
                0 => d4.idx(along, 0, b, e),
                1 => d4.idx(0, along, b, e),
                _ => d4.idx(0, b, along, e),
            };
            let stride = if axis == 0 { d4.n1 } else { 1 };
            // Gangs split the outer transverse index `b`. Every line along
            // `axis` is read and written by one gang only, ghost layers in
            // ascending order, so each line sees the serial sequence of
            // reads and writes even where a source is itself a ghost.
            let t0 = Instant::now();
            let (_, gangs) = ctx.gang_scope(t2, (plane * ng) as u64, |_, slabs| {
                for b in slabs {
                    for g in 0..ng {
                        // (ghost index, source index) along `axis`. flip:
                        // 0 = none, 1 = normal momentum, 2 = all momenta.
                        let (gi, si, flip) = match (kind, is_hi) {
                            (BcKind::Periodic, false) => (ng - 1 - g, ng + n - 1 - g, 0u8),
                            (BcKind::Periodic, true) => (ng + n + g, ng + g, 0),
                            (BcKind::Reflective, false) => (ng - 1 - g, ng + g, 1),
                            (BcKind::Reflective, true) => (ng + n + g, ng + n - 1 - g, 1),
                            (BcKind::NoSlip, false) => (ng - 1 - g, ng + g, 2),
                            (BcKind::NoSlip, true) => (ng + n + g, ng + n - 1 - g, 2),
                            (BcKind::Transmissive, false) => (ng - 1 - g, ng, 0),
                            (BcKind::Transmissive, true) => (ng + n + g, ng + n - 1, 0),
                        };
                        for e in 0..neq {
                            let is_momentum = (0..dom.eq.ndim()).any(|d| e == dom.eq.mom(d));
                            let negate =
                                (flip == 1 && e == dom.eq.mom(axis)) || (flip == 2 && is_momentum);
                            let (src, dst) = (at(si, b, e), at(gi, b, e));
                            for a in (0..t1).map(|a| a * stride) {
                                let v = data.get(src + a);
                                data.set(dst + a, if negate { -v } else { v });
                            }
                        }
                    }
                }
            });
            ctx.record_external_gangs(
                "s_populate_buffers",
                cost,
                (plane * ng) as u64,
                gangs as u32,
                t0,
                t0.elapsed(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::eqidx::EqIdx;

    fn field_1d(n: usize, ng: usize) -> StateField {
        let eq = EqIdx::new(1, 1);
        let dom = Domain::new([n, 1, 1], ng, eq);
        let mut s = StateField::zeros(dom);
        for i in 0..n {
            for e in 0..eq.neq() {
                s.set(ng + i, 0, 0, e, (10 * (i + 1) + e) as f64);
            }
        }
        s
    }

    #[test]
    fn periodic_wraps() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        apply_bcs(&ctx, &mut s, &BcSpec::periodic(), [(false, false); 3]);
        // lo ghosts = last interior cells
        assert_eq!(s.get(1, 0, 0, 0), s.get(5, 0, 0, 0)); // ghost ng-1 = interior n-1
        assert_eq!(s.get(0, 0, 0, 0), s.get(4, 0, 0, 0));
        // hi ghosts = first interior cells
        assert_eq!(s.get(6, 0, 0, 0), s.get(2, 0, 0, 0));
        assert_eq!(s.get(7, 0, 0, 0), s.get(3, 0, 0, 0));
    }

    #[test]
    fn reflective_mirrors_and_flips_momentum() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        let eq = EqIdx::new(1, 1);
        apply_bcs(&ctx, &mut s, &BcSpec::reflective(), [(false, false); 3]);
        // ghost ng-1 mirrors interior 0
        assert_eq!(s.get(1, 0, 0, 0), s.get(2, 0, 0, 0));
        assert_eq!(s.get(1, 0, 0, eq.mom(0)), -s.get(2, 0, 0, eq.mom(0)));
        assert_eq!(s.get(1, 0, 0, eq.energy()), s.get(2, 0, 0, eq.energy()));
        // ghost 0 mirrors interior 1
        assert_eq!(s.get(0, 0, 0, 0), s.get(3, 0, 0, 0));
        // hi side
        assert_eq!(s.get(6, 0, 0, 0), s.get(5, 0, 0, 0));
        assert_eq!(s.get(7, 0, 0, eq.mom(0)), -s.get(4, 0, 0, eq.mom(0)));
    }

    #[test]
    fn noslip_flips_every_velocity_component() {
        let ctx = Context::serial();
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([3, 3, 1], 2, eq);
        let mut s = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            s.set(i, j, k, 0, 1.0);
            s.set(i, j, k, eq.mom(0), 5.0);
            s.set(i, j, k, eq.mom(1), -2.0);
            s.set(i, j, k, eq.energy(), 9.0);
        }
        apply_bcs(
            &ctx,
            &mut s,
            &BcSpec::all(BcKind::NoSlip),
            [(false, false); 3],
        );
        // x-lo ghost mirrors interior 0 with BOTH velocities negated.
        assert_eq!(s.get(1, 2, 0, eq.mom(0)), -5.0);
        assert_eq!(s.get(1, 2, 0, eq.mom(1)), 2.0);
        assert_eq!(s.get(1, 2, 0, eq.energy()), 9.0);
        // Wall-tangential velocity also flips (unlike Reflective).
        let mut r = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            r.set(i, j, k, eq.mom(1), -2.0);
            r.set(i, j, k, 0, 1.0);
            r.set(i, j, k, eq.energy(), 9.0);
        }
        apply_bcs(&ctx, &mut r, &BcSpec::reflective(), [(false, false); 3]);
        assert_eq!(r.get(1, 2, 0, eq.mom(1)), -2.0); // tangential kept
    }

    #[test]
    fn transmissive_copies_edge_cell() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        apply_bcs(&ctx, &mut s, &BcSpec::transmissive(), [(false, false); 3]);
        for g in 0..2 {
            assert_eq!(s.get(g, 0, 0, 0), s.get(2, 0, 0, 0));
            assert_eq!(s.get(6 + g, 0, 0, 0), s.get(5, 0, 0, 0));
        }
    }

    #[test]
    fn skip_leaves_ghosts_untouched() {
        let ctx = Context::serial();
        let mut s = field_1d(4, 2);
        apply_bcs(
            &ctx,
            &mut s,
            &BcSpec::periodic(),
            [(true, false), (false, false), (false, false)],
        );
        assert_eq!(s.get(0, 0, 0, 0), 0.0); // lo skipped
        assert_ne!(s.get(6, 0, 0, 0), 0.0); // hi filled
    }

    #[test]
    fn corners_filled_in_2d() {
        let ctx = Context::serial();
        let eq = EqIdx::new(1, 2);
        let dom = Domain::new([3, 3, 1], 2, eq);
        let mut s = StateField::zeros(dom);
        for (i, j, k) in dom.interior() {
            s.set(i, j, k, 0, 7.0);
        }
        apply_bcs(&ctx, &mut s, &BcSpec::periodic(), [(false, false); 3]);
        // A corner ghost cell must carry interior data after both sweeps.
        assert_eq!(s.get(0, 0, 0, 0), 7.0);
        assert_eq!(s.get(6, 6, 0, 0), 7.0);
    }
}

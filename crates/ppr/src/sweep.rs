//! The Gauss–Seidel pass shared by the scalar push loops.
//!
//! A pass visits nodes in a given order and pushes every node whose
//! |residual| exceeds ε: its residual `r` is zeroed, `α·r` moves to its
//! estimate, and `(1−α)·r` is scattered along its kernel row. The forward
//! and reverse pushes sweep node order, along forward and reverse rows
//! ([`crate::ForwardPush::push_until_converged`],
//! [`crate::ReversePush::push_until_converged`]). A CHECK stage whose
//! transaction has touched every node sweeps its undo log
//! ([`crate::PushWorkspace::push_stage`]).
//!
//! The scatter indexes the residuals without bounds checks. That rests on
//! one invariant: **every kernel row entry is below `num_nodes`**.
//! [`crate::TransitionCsr`]'s constructors all end in one counting sort
//! that panics on a larger id, [`crate::TransitionCsr::patched_rows`]
//! checks the rows its caller supplies, and [`CsrRows`] is sealed, so no
//! other type supplies rows. [`Sweep::new`] asserts that the push state
//! holds one entry per kernel node.

use crate::config::PprConfig;
use crate::kernel::CsrRows;
use emigre_hin::NodeId;

/// One push state borrowed for sweeping over one kernel: estimates and
/// residuals with one entry per kernel node, and the running push count
/// and drained mass.
pub(crate) struct Sweep<'a, K> {
    kernel: &'a K,
    alpha: f64,
    estimates: &'a mut [f64],
    residuals: &'a mut [f64],
    /// Push operations, carried on from the value [`Sweep::new`] was given.
    pub(crate) pushes: usize,
    /// |residual| mass retired, carried on from the value [`Sweep::new`]
    /// was given, so sums accumulate in push order as one running total.
    pub(crate) drained: f64,
}

impl<'a, K: CsrRows> Sweep<'a, K> {
    /// Panics unless `estimates` and `residuals` each hold exactly one
    /// entry per node of `kernel`: the unchecked scatter relies on it.
    pub(crate) fn new(
        kernel: &'a K,
        cfg: &PprConfig,
        estimates: &'a mut [f64],
        residuals: &'a mut [f64],
        pushes: usize,
        drained: f64,
    ) -> Self {
        let n = kernel.num_nodes();
        assert!(
            estimates.len() == n && residuals.len() == n,
            "push state holds {} estimates and {} residuals for a {n}-node kernel",
            estimates.len(),
            residuals.len()
        );
        Sweep {
            kernel,
            alpha: cfg.alpha,
            estimates,
            residuals,
            pushes,
            drained,
        }
    }

    /// One pass along forward rows over the nodes of `order`; true if it
    /// pushed.
    pub(crate) fn forward(&mut self, eps: f64, order: impl IntoIterator<Item = u32>) -> bool {
        self.pass(eps, order, K::forward_row)
    }

    /// One pass along reverse rows over the nodes of `order`; true if it
    /// pushed.
    pub(crate) fn reverse(&mut self, eps: f64, order: impl IntoIterator<Item = u32>) -> bool {
        self.pass(eps, order, K::reverse_row)
    }

    /// Pushes every node of `order` above `eps`, in order, along the rows
    /// `row` reads off the kernel. Fields are read into locals first, so
    /// the loop keeps them in registers.
    #[inline(always)]
    fn pass(
        &mut self,
        eps: f64,
        order: impl IntoIterator<Item = u32>,
        row: impl Fn(&'a K, NodeId) -> (&'a [u32], &'a [f64]),
    ) -> bool {
        let (kernel, alpha) = (self.kernel, self.alpha);
        let residuals = &mut *self.residuals;
        // Sliced to the residuals' length, so one bounds check per visit
        // covers both arrays.
        let estimates = &mut self.estimates[..residuals.len()];
        let (mut pushes, mut drained) = (self.pushes, self.drained);
        let pushes_before = pushes;
        for u in order {
            let ui = u as usize;
            let r = residuals[ui];
            if r.abs() <= eps {
                continue;
            }
            residuals[ui] = 0.0;
            estimates[ui] += alpha * r;
            pushes += 1;
            drained += r.abs();
            let spread = (1.0 - alpha) * r;
            let (dsts, probs) = row(kernel, NodeId(u));
            for (&v, &p) in dsts.iter().zip(probs) {
                let vi = v as usize;
                debug_assert!(vi < residuals.len(), "row entry {v} past the kernel");
                // SAFETY: every kernel row entry is below `num_nodes` (see
                // the module doc), and `new` asserted that `residuals`
                // holds `num_nodes` entries.
                unsafe { *residuals.get_unchecked_mut(vi) += spread * p };
            }
        }
        (self.pushes, self.drained) = (pushes, drained);
        pushes != pushes_before
    }
}

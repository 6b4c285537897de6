//! Delay-compensation arithmetic (Eq. 13 and Eq. 15) and the strategy
//! selector compared in Fig. 8 and Tables II–III.

/// How the server treats a stale update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StalenessStrategy {
    /// Hard synchronization: wait for everyone; nothing is ever stale.
    Hard,
    /// Apply stale updates as if they were fresh ("use" in Fig. 8).
    Use,
    /// Discard stale updates ("throw" in Fig. 8).
    Throw,
    /// Second-order Taylor compensation with strength `lambda` (the
    /// paper's method; Alg. 1 lines 27–28).
    DelayCompensated {
        /// Compensation strength λ.
        lambda: f32,
    },
}

impl StalenessStrategy {
    /// The paper's method at its default strength.
    pub fn delay_compensated() -> Self {
        StalenessStrategy::DelayCompensated { lambda: 0.5 }
    }

    /// Display label matching the figure legends.
    pub fn name(self) -> &'static str {
        match self {
            StalenessStrategy::Hard => "hard-sync",
            StalenessStrategy::Use => "use",
            StalenessStrategy::Throw => "throw",
            StalenessStrategy::DelayCompensated { .. } => "delay-compensated",
        }
    }
}

impl std::fmt::Display for StalenessStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Eq. (13): repairs a stale weight gradient in place,
/// `h ← h + λ · h ⊙ h ⊙ (w_fresh − w_stale)`, where `h` was computed at the
/// stale weights and `w_fresh` are the server's current weights for the
/// same sub-model slots. The `h ⊙ h` term is the Fisher-information
/// approximation of the Hessian diagonal inherited from DC-ASGD.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn compensate_gradient(
    stale_grad: &mut [f32],
    fresh_weights: &[f32],
    stale_weights: &[f32],
    lambda: f32,
) {
    assert_eq!(stale_grad.len(), fresh_weights.len(), "length mismatch");
    assert_eq!(stale_grad.len(), stale_weights.len(), "length mismatch");
    // the compensation squares the gradient, so a NaN/Inf smuggled past
    // the validation gate would amplify, not wash out — catch the
    // contract violation at the boundary in debug builds
    debug_assert!(
        lambda.is_finite(),
        "delay-compensation strength must be finite, got {lambda}"
    );
    debug_assert!(
        stale_grad.iter().all(|g| g.is_finite()),
        "stale gradient contains non-finite values; the validation gate \
         must reject such updates before compensation"
    );
    debug_assert!(
        fresh_weights.iter().all(|w| w.is_finite()) && stale_weights.iter().all(|w| w.is_finite()),
        "compensation weights contain non-finite values"
    );
    for ((g, wf), ws) in stale_grad.iter_mut().zip(fresh_weights).zip(stale_weights) {
        *g += lambda * *g * *g * (wf - ws);
    }
}

/// Eq. (15): repairs a stale architecture log-probability gradient in
/// place, `∇log p ← ∇log p + λ · ∇log p ⊙ ∇log p ⊙ (α_fresh − α_stale)`.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn compensate_alpha_gradient(
    stale_log_grad: &mut [f32],
    fresh_alpha: &[f32],
    stale_alpha: &[f32],
    lambda: f32,
) {
    // identical arithmetic; kept as a separate named function because the
    // two compensations act on different objects in Algorithm 1 (lines 27
    // and 28) and are toggled independently in the ablations
    compensate_gradient(stale_log_grad, fresh_alpha, stale_alpha, lambda);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_matches_eq13() {
        let mut g = vec![2.0, -1.0];
        compensate_gradient(&mut g, &[1.0, 1.0], &[0.5, 2.0], 0.5);
        // g0: 2 + 0.5*4*(0.5) = 3; g1: -1 + 0.5*1*(-1) = -1.5
        assert_eq!(g, vec![3.0, -1.5]);
    }

    #[test]
    fn lambda_zero_is_identity() {
        let mut g = vec![1.0, 2.0, 3.0];
        let orig = g.clone();
        compensate_gradient(&mut g, &[9.0, 9.0, 9.0], &[0.0, 0.0, 0.0], 0.0);
        assert_eq!(g, orig);
    }

    #[test]
    fn no_staleness_is_identity() {
        let w = vec![0.3, -0.7];
        let mut g = vec![1.0, -2.0];
        let orig = g.clone();
        compensate_gradient(&mut g, &w, &w, 0.7);
        assert_eq!(g, orig);
    }

    #[test]
    fn exact_on_matched_quadratic() {
        // f(w) = w²/2, h(w) = w, true Hessian = 1. At w_stale = 1 the
        // Fisher approximation h² = 1 matches exactly, so λ = 1
        // reconstructs the fresh gradient h(w_fresh) = w_fresh.
        let w_stale = 1.0f32;
        let w_fresh = 1.8f32;
        let mut g = vec![w_stale];
        compensate_gradient(&mut g, &[w_fresh], &[w_stale], 1.0);
        assert!((g[0] - w_fresh).abs() < 1e-6);
    }

    #[test]
    fn compensation_reduces_gradient_error_for_logistic_loss() {
        // Binary logistic loss f(w) = ln(1 + e^w) (label 0, unit input):
        // h(w) = σ(w). For small weight drift, the compensated stale
        // gradient should be closer to the fresh gradient than the raw
        // stale gradient.
        let sigma = |w: f32| 1.0 / (1.0 + (-w).exp());
        let w_stale = 0.4f32;
        let w_fresh = 0.9f32;
        let fresh = sigma(w_fresh);
        let raw = sigma(w_stale);
        let mut comp = vec![raw];
        compensate_gradient(&mut comp, &[w_fresh], &[w_stale], 0.5);
        assert!(
            (comp[0] - fresh).abs() < (raw - fresh).abs(),
            "compensated {} vs raw {} (target {})",
            comp[0],
            raw,
            fresh
        );
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(StalenessStrategy::Use.to_string(), "use");
        assert_eq!(
            StalenessStrategy::delay_compensated().to_string(),
            "delay-compensated"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_checked() {
        let mut g = vec![1.0];
        compensate_gradient(&mut g, &[1.0, 2.0], &[1.0], 0.5);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite"))]
    fn nonfinite_gradient_is_caught_in_debug_builds() {
        // the validation gate upstream must reject these; if one slips
        // through, debug builds fail loudly instead of squaring a NaN
        let mut g = vec![f32::NAN];
        compensate_gradient(&mut g, &[1.0], &[0.5], 0.5);
        // release builds skip the debug_assert; the NaN just propagates,
        // which is why the server-side gate is mandatory
        #[cfg(not(debug_assertions))]
        assert!(g[0].is_nan());
    }
}

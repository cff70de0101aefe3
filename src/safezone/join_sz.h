// Safe function for the join query over two Fast-AGMS sketches (paper
// §5.1.1; the per-row formulas, omitted in the paper, are derived here —
// see DESIGN.md §3).
//
// The state vector is the concatenation S = (S1, S2); the monitored
// condition is
//     T_lo ≤ Q2(S) = median_i S1[i]·S2[i] ≤ T_hi.
// With the rotation u = s1 + s2, v = s1 - s2 the row product becomes
// s1·s2 = (‖u‖² - ‖v‖²)/4, so both side conditions take the canonical
// hyperbolic form ‖p‖² - ‖q‖² ≤ c (upper: p=u, q=v, c=4T_hi; lower:
// p=v, q=u, c=-4T_lo). Per row we use:
//
//  * c ≥ 0 ("tangent" form): f = ‖p‖ - (c + s0·(q̂·q))/r0 with
//    s0 = ‖Q_ref‖, r0 = √(c+s0²), q̂ = Q_ref/‖Q_ref‖. The linear term is
//    the tangent to the convex curve r(s) = √(c+s²) at s0, which lies
//    below the curve, so f ≤ 0 ⇒ ‖p‖² ≤ c + (q̂·q)² ≤ c + ‖q‖². Convex
//    (norm minus affine).
//  * c < 0 ("sqrt" form): f = √(|c| + ‖p‖²) - q̂·q; f ≤ 0 ⇒
//    ‖q‖ ≥ q̂·q ≥ √(|c|+‖p‖²). Convex (√(|c|+‖·‖²) is convex, minus
//    affine).
//
// Both forms contain the reference (f(0) < 0 iff the row condition holds
// strictly at E) and are 2-Lipschitz in the drift (the u/v rotation
// contributes √2 and the two terms another √2), so rows are scaled by 1/2
// to be nonexpansive. Rows compose per side with the weighted median
// composition, sides combine by pointwise max.

#ifndef FGM_SAFEZONE_JOIN_SZ_H_
#define FGM_SAFEZONE_JOIN_SZ_H_

#include <memory>
#include <vector>

#include "safezone/median_compose.h"
#include "safezone/safe_function.h"
#include "sketch/fast_agms.h"
#include "util/real_vector.h"

namespace fgm {

class JoinSafeFunction : public SafeFunction {
 public:
  /// `reference` is the concatenated estimate (E1, E2) of dimension
  /// 2·projection.dimension(). Requires odd depth and
  /// T_lo < Q2(E) < T_hi.
  JoinSafeFunction(std::shared_ptr<const AgmsProjection> projection,
                   RealVector reference, double t_lo, double t_hi);

  size_t dimension() const override { return reference_.dim(); }
  double Eval(const RealVector& x) const override;
  double AtZero() const override { return at_zero_; }
  std::unique_ptr<DriftEvaluator> MakeEvaluator() const override;

  double t_lo() const { return t_lo_; }
  double t_hi() const { return t_hi_; }
  const RealVector& reference() const { return reference_; }
  const AgmsProjection& projection() const { return *projection_; }

 private:
  friend class JoinEvaluator;

  // One per-row constraint ‖p‖² - ‖q‖² ≤ c in either form, p/q ∈ {u, v}.
  struct RowForm {
    int row = 0;
    bool p_is_u = true;   // p = u (upper side); p = v (lower side)
    bool tangent = true;  // tangent form (c ≥ 0) vs sqrt form (c < 0)
    double c = 0.0;
    double r0 = 0.0;       // tangent: √(c + ‖Q_ref‖²)
    double p_ref_sq = 0.0;  // ‖P_ref‖²
    double q_ref = 0.0;     // ‖Q_ref‖
  };

  /// λ·(f/2)(x/λ) for a row form, from the drift primitives of the row:
  /// qdu = ‖du‖², udu = U·du, qdv = ‖dv‖², vdv = V·dv.
  double RowValue(const RowForm& form, double qdu, double udu, double qdv,
                  double vdv, double lambda) const;

  double ComposeSides(const std::vector<double>& upper_values,
                      const std::vector<double>& lower_values) const;

  /// Builds a row form for condition ‖p‖² - ‖q‖² ≤ c; returns false when
  /// the reference does not satisfy it strictly (row excluded).
  static bool MakeRowForm(int row, bool p_is_u, double c, double p_ref_sq,
                          double q_ref_sq, RowForm* out);

  std::shared_ptr<const AgmsProjection> projection_;
  RealVector reference_;
  double t_lo_;
  double t_hi_;

  RealVector u_ref_;  // E1 + E2 (dimension projection.dimension())
  RealVector v_ref_;  // E1 - E2

  std::vector<RowForm> upper_forms_;
  std::vector<RowForm> lower_forms_;
  MedianComposition upper_;
  MedianComposition lower_;
  double at_zero_ = 0.0;

  // Eval's scratch, reused across calls (the library is single-threaded):
  // per-row primitives and per-form row values.
  mutable std::vector<double> eval_qdu_;
  mutable std::vector<double> eval_udu_;
  mutable std::vector<double> eval_qdv_;
  mutable std::vector<double> eval_vdv_;
  mutable std::vector<double> eval_upper_;
  mutable std::vector<double> eval_lower_;
};

}  // namespace fgm

#endif  // FGM_SAFEZONE_JOIN_SZ_H_

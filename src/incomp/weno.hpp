// Fifth-order WENO reconstruction (Jiang & Shu 1996), the advection
// discretization the paper's Bubble workload truncates (§4.2: "advection
// terms are discretized using a fifth-order WENO scheme").
//
// weno5(...) returns the upwind-biased approximation of the derivative
// using five point values of one-sided differences; templated on the scalar
// so truncation applies to every operation inside the smoothness indicators
// and nonlinear weights.
#pragma once

#include "trunc/real.hpp"

namespace raptor::incomp {

/// WENO5 combination of five consecutive one-sided differences
/// v1..v5 = (q_{i-1}-q_{i-2})/h ... ordered in the upwind direction.
template <class S>
S weno5(const S& v1, const S& v2, const S& v3, const S& v4, const S& v5) {
  const S c13(13.0 / 12.0), quarter(0.25);
  const S s1 = c13 * (v1 - S(2.0) * v2 + v3) * (v1 - S(2.0) * v2 + v3) +
               quarter * (v1 - S(4.0) * v2 + S(3.0) * v3) * (v1 - S(4.0) * v2 + S(3.0) * v3);
  const S s2 = c13 * (v2 - S(2.0) * v3 + v4) * (v2 - S(2.0) * v3 + v4) +
               quarter * (v2 - v4) * (v2 - v4);
  const S s3 = c13 * (v3 - S(2.0) * v4 + v5) * (v3 - S(2.0) * v4 + v5) +
               quarter * (S(3.0) * v3 - S(4.0) * v4 + v5) * (S(3.0) * v3 - S(4.0) * v4 + v5);
  const S eps(1e-6);
  const S a1 = S(0.1) / ((eps + s1) * (eps + s1));
  const S a2 = S(0.6) / ((eps + s2) * (eps + s2));
  const S a3 = S(0.3) / ((eps + s3) * (eps + s3));
  const S inv = S(1.0) / (a1 + a2 + a3);
  const S w1 = a1 * inv, w2 = a2 * inv, w3 = a3 * inv;
  const S q1 = v1 * S(1.0 / 3.0) - v2 * S(7.0 / 6.0) + v3 * S(11.0 / 6.0);
  const S q2 = -v2 * S(1.0 / 6.0) + v3 * S(5.0 / 6.0) + v4 * S(1.0 / 3.0);
  const S q3 = v3 * S(1.0 / 3.0) + v4 * S(5.0 / 6.0) - v5 * S(1.0 / 6.0);
  return w1 * q1 + w2 * q2 + w3 * q3;
}

/// Upwinded WENO5 derivative of a field q at a cell (needs offsets -3..3):
/// vel >= 0 uses the left-biased stencil, else the right-biased one.
/// `get(k)` fetches q at offset k from the cell; h is the grid spacing.
/// Written once for every lane type: the upwind choice selects operands
/// (select, real.hpp) rather than branching, so for batch::Vec, with `vel`
/// and every get(k) a Vec and the choice a Mask, each lane issues the same
/// ops the scalar call does for it.
template <class S, class Get, class Vel>
S weno5_derivative(const Get& get, const Vel& vel, double h) {
  const auto up = vel >= 0.0;
  const S ih(1.0 / h);
  const S q[7] = {get(-3), get(-2), get(-1), get(0), get(1), get(2), get(3)};  // offsets -3..3
  // The k-th (from 0) of the upwind-ordered differences v1..v5:
  // q(k-2) - q(k-3) left-biased, mirrored to q(3-k) - q(2-k) right-biased.
  const auto diff = [&](int k) {
    return (select(up, q[k + 1], q[6 - k]) - select(up, q[k], q[5 - k])) * ih;
  };
  const S v1 = diff(0), v2 = diff(1), v3 = diff(2), v4 = diff(3), v5 = diff(4);
  return weno5(v1, v2, v3, v4, v5);
}

}  // namespace raptor::incomp

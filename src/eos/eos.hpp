// Equation-of-state interfaces: ideal gamma-law (Sedov/Sod) and the
// tabulated Helmholtz-like EOS (Cellular, helmholtz.hpp).
#pragma once

#include <cmath>

#include "trunc/real.hpp"

namespace raptor::eos {

/// Ideal gamma-law gas: p = (gamma - 1) rho e.
struct GammaLaw {
  double gamma = 1.4;

  template <class S>
  [[nodiscard]] S pressure(const S& rho, const S& eint) const {
    return S(gamma - 1.0) * rho * eint;
  }
  template <class S>
  [[nodiscard]] S sound_speed(const S& rho, const S& p) const {
    using std::sqrt;
    return sqrt(S(gamma) * p / rho);
  }
  template <class S>
  [[nodiscard]] S eint_from_pressure(const S& rho, const S& p) const {
    return p / (S(gamma - 1.0) * rho);
  }
};

/// Result of a table inversion (Newton-Raphson, helmholtz.hpp).
template <class S>
struct EosResult {
  S temp{0.0};
  S pres{0.0};
  native_t<S, int> iterations = 0;  ///< per lane for batch::Vec
  native_t<S, bool> converged = false;
};

/// Aggregate Newton-Raphson statistics across EOS calls — the §6.1
/// observable: under truncation the iteration stops converging.
struct EosStats {
  u64 calls = 0;
  u64 failures = 0;
  u64 total_iterations = 0;
  int max_iterations_seen = 0;

  [[nodiscard]] double failure_rate() const {
    return calls == 0 ? 0.0 : static_cast<double>(failures) / static_cast<double>(calls);
  }
  [[nodiscard]] double mean_iterations() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_iterations) / static_cast<double>(calls);
  }
  void merge(const EosStats& o) {
    calls += o.calls;
    failures += o.failures;
    total_iterations += o.total_iterations;
    max_iterations_seen = std::max(max_iterations_seen, o.max_iterations_seen);
  }
};

}  // namespace raptor::eos

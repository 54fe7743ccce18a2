// Simplified carbon-burning module (the Cellular workload's "Burn" unit,
// paper §4.2): a single-rate C12+C12 reaction with a strongly
// temperature-sensitive (stiff) rate, integrated with sub-cycled
// semi-implicit backward-Euler Newton steps per cell.
//
// The paper notes the Burn ODEs are "particularly stiff and sensitive to
// numerical perturbation" — which is why the EOS, not Burn, is the module
// truncated in the §6.1 experiment. Burn here always runs at the scalar
// type's ambient precision under the "burn" region label.
//
// burn_rate and burn_cell are written once for double, Real and batch::Vec
// (DESIGN.md §8); the Cellular mini-app runs the Vec instantiation over all
// cells at once in op-mode.
#pragma once

#include <algorithm>
#include <cmath>
#include <tuple>

#include "trunc/real.hpp"

namespace raptor::burn {

struct BurnParams {
  double rate_coeff = 3.0e13;   ///< rate prefactor (tuned for detonation at T9 ~ 2-4)
  double t9_activation = 20.0;  ///< exponential sensitivity scale (T9^(-1/3) law)
  double q_release = 4.0e17;    ///< specific energy release, erg/g
  double x_floor = 1e-12;
  int max_substeps = 64;
  double max_dx_per_substep = 0.05;
};

/// Burn rate dX/dt = -X^2 rho A exp(-B / T9^(1/3)); screened C12+C12 shape.
template <class S>
[[nodiscard]] S burn_rate(const BurnParams& bp, const S& x, const S& rho, const S& temp) {
  using std::exp;
  using std::cbrt;
  const S t9 = temp * S(1e-9);
  return branch(
      t9 <= 0.05, [](auto) { return S(0.0); },  // frozen below ~5e7 K
      [&](auto pick) {
        const S xs = pick(x);
        const S arg = S(-bp.t9_activation) / cbrt(pick(t9));
        return S(-bp.rate_coeff) * xs * xs * pick(rho) * S(1e-12) * exp(arg);
      });
}

template <class S>
struct BurnResult {
  S x_new{0.0};
  S energy_released{0.0};
  native_t<S, int> substeps = 0;  ///< per lane for batch::Vec
};

/// Per-lane state of burn_cell's sub-cycling loop: the cell, its energy
/// release so far, and native bookkeeping (members() lets branch and
/// repeat_while narrow it to lanes).
template <class S>
struct BurnState {
  S x, rho, temp, energy;
  S t_done, substeps;
};
template <class S>
auto members(BurnState<S>& s) {
  return std::tie(s.x, s.rho, s.temp, s.energy, s.t_done, s.substeps);
}
template <class S>
auto members(const BurnState<S>& s) {
  return std::tie(s.x, s.rho, s.temp, s.energy, s.t_done, s.substeps);
}

/// Per-lane state of one substep's backward-Euler Newton solve.
template <class S>
struct BurnNewton {
  S x1, x, h, rho, temp;
  S iterations, converged;
};
template <class S>
auto members(BurnNewton<S>& s) {
  return std::tie(s.x1, s.x, s.h, s.rho, s.temp, s.iterations, s.converged);
}
template <class S>
auto members(const BurnNewton<S>& s) {
  return std::tie(s.x1, s.x, s.h, s.rho, s.temp, s.iterations, s.converged);
}

/// Advance the mass fraction X over dt with adaptive sub-cycling; each
/// substep solves backward Euler with a few Newton iterations (the rate is
/// stiff in X through the X^2 factor and in T through the exponential).
/// Written once for double, Real and batch::Vec: the step size, clock and
/// counts are native lane values and both loops are repeat_whiles, so the
/// Vec instantiation retires each cell from a loop as the scalar loop would
/// and gives every cell the results, substep count and counter totals of
/// burn_cell<Real> on it.
template <class S>
BurnResult<S> burn_cell(const BurnParams& bp, const S& x0, const S& rho, const S& temp,
                        double dt) {
  const auto newton_step = [&](BurnNewton<S> s) {
    s.iterations = native([](double it) { return it + 1.0; }, s.iterations);
    const S f = burn_rate(bp, s.x1, s.rho, s.temp);
    // df/dx = 2 f / x (f ~ x^2)
    const S dfdx = branch(
        s.x1 > bp.x_floor, [&](auto pick) { return S(2.0) * pick(f) / pick(s.x1); },
        [](auto) { return S(0.0); });
    const S g = s.x1 - s.x - s.h * f;
    const S dg = S(1.0) - s.h * dfdx;
    const S dx = g / dg;
    const S x1 = s.x1 - dx;
    s.x1 = select(x1 < 0.0, S(bp.x_floor), x1);
    s.converged = native(
        [](double d, double x) {
          return std::fabs(d) < 1e-12 * std::max(1.0, std::fabs(x)) ? 1.0 : 0.0;
        },
        dx, s.x1);
    return s;
  };
  const auto substep = [&](BurnState<S> s) {
    s.substeps = native([](double n) { return n + 1.0; }, s.substeps);
    const S h = native(
        [&](double rate, double t_done) {
          const double rate_now = std::fabs(rate);
          double step = dt - t_done;
          if (rate_now > 0.0) step = std::min(step, bp.max_dx_per_substep / rate_now);
          return step;
        },
        burn_rate(bp, s.x, s.rho, s.temp), s.t_done);
    // Backward Euler: solve x1 - x - h f(x1) = 0 for x1 (f < 0, consuming).
    const S zero = native([](double) { return 0.0; }, h);  // a native count per lane
    const BurnNewton<S> solved = repeat_while(
        BurnNewton<S>{s.x, s.x, h, s.rho, s.temp, zero, zero},
        [](const BurnNewton<S>& n) {
          return native([](double it, double conv) { return it < 8 && conv == 0.0; },
                        n.iterations, n.converged);
        },
        newton_step);
    s.energy = s.energy + S(bp.q_release) * (s.x - solved.x1);
    s.x = solved.x1;
    s.t_done = native([](double t, double step) { return t + step; }, s.t_done, h);
    return s;
  };
  const S zero = native([](double) { return 0.0; }, x0);  // a native clock per lane
  // Sub-cycle until the step is covered, the substep budget is spent, or
  // (after a substep) the fuel is exhausted.
  const BurnState<S> done = repeat_while(
      BurnState<S>{x0, rho, temp, S(0.0), zero, zero},
      [&](const BurnState<S>& s) {
        return native(
            [&](double t_done, double n, double x) {
              return t_done < dt && n < bp.max_substeps && (n == 0.0 || !(x <= bp.x_floor));
            },
            s.t_done, s.substeps, s.x);
      },
      substep);
  BurnResult<S> out;
  out.x_new = done.x;
  out.energy_released = done.energy;
  out.substeps = native_cast<int>(done.substeps);
  return out;
}

}  // namespace raptor::burn

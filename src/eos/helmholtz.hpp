// Tabulated stellar EOS in the style of Flash-X's Helmholtz EOS (paper
// §4.2/§6.1): thermodynamic quantities are stored on a (log rho, log T)
// grid and bilinearly interpolated; the hydro-facing inversion — given
// (rho, e) find T — runs Newton-Raphson on the interpolated table.
//
// The underlying physics model is an analytic stand-in with the same
// structure as a carbon-plasma Helmholtz table (see DESIGN.md §1):
//   e(rho, T) = cv_ion T  +  a T^4 / rho  +  K rho^(2/3)
//   p(rho, T) = rho R T / mu  +  a T^4 / 3  +  (2/3) K rho^(5/3)
// (ideal ions + radiation + zero-temperature electron degeneracy).
//
// Everything the solver touches is templated on the scalar S, so truncating
// the "eos" region truncates exactly the table interpolation and the Newton
// update — reproducing the paper's §6.1 experiment where the inversion
// stops converging below ~42 mantissa bits regardless of tolerance and
// iteration budget (Hypothesis 2 falsified).
//
// The inversion is written once for double, Real and batch::Vec (DESIGN.md
// §8): table cells are native lookups (native()), the Newton loop is a
// repeat_while whose Vec form retires each lane as it converges, and the
// clamps are select()s. invert_energy<Vec> over many cells therefore gives
// every cell the results, iteration count, EosStats contribution and
// counter totals of invert_energy<Real> on it.
#pragma once

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "eos/eos.hpp"
#include "support/common.hpp"
#include "trunc/real.hpp"

namespace raptor::eos {

/// Per-lane state of the Newton inversion: the inputs it reads, the
/// iterate, and native counts (members() lets branch and repeat_while
/// narrow it to lanes).
template <class S>
struct NewtonState {
  S rho, e_target, temp;
  S iterations, converged;
};
template <class S>
auto members(NewtonState<S>& s) {
  return std::tie(s.rho, s.e_target, s.temp, s.iterations, s.converged);
}
template <class S>
auto members(const NewtonState<S>& s) {
  return std::tie(s.rho, s.e_target, s.temp, s.iterations, s.converged);
}

class HelmholtzTable {
 public:
  struct Config {
    int n_rho = 81;
    int n_temp = 101;
    double log_rho_lo = 2.0;   ///< 1e2 g/cm^3
    double log_rho_hi = 9.0;   ///< 1e9 g/cm^3
    double log_temp_lo = 7.0;  ///< 1e7 K
    double log_temp_hi = 10.0; ///< 1e10 K
  };

  HelmholtzTable() : HelmholtzTable(Config{}) {}
  explicit HelmholtzTable(const Config& cfg);

  // -- Analytic ground truth (table construction; test oracle) -----------
  static double e_analytic(double rho, double temp);
  static double p_analytic(double rho, double temp);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] double temp_lo() const { return std::pow(10.0, cfg_.log_temp_lo); }
  [[nodiscard]] double temp_hi() const { return std::pow(10.0, cfg_.log_temp_hi); }

  // -- Interpolation (templated: truncation applies to this arithmetic) --

  template <class S>
  [[nodiscard]] S e_interp(const S& rho, const S& temp) const {
    return interp(e_, rho, temp);
  }
  template <class S>
  [[nodiscard]] S p_interp(const S& rho, const S& temp) const {
    return interp(p_, rho, temp);
  }
  /// de/dT *consistent with the bilinear e-interpolant* (its exact partial
  /// derivative) — what Newton must use so the iteration terminates on the
  /// piecewise-linear table rather than oscillating across cell kinks.
  template <class S>
  [[nodiscard]] S dedT_consistent(const S& rho, const S& temp) const {
    using std::log10;
    const Cell<S> c = locate(e_, log10(rho), log10(temp));
    const S one(1.0);
    const S de_dlt = ((one - c.fx) * (c.v01 - c.v00) + c.fx * (c.v11 - c.v10)) * S(1.0 / dlt_);
    // d(log10 T)/dT = 1 / (T ln 10)
    return de_dlt / (temp * S(2.302585092994046));
  }

  /// Effective Gamma1 for wave speeds: 1 + p / (rho e), evaluated from the
  /// table (a standard closure when the full derivative set is unavailable).
  template <class S>
  [[nodiscard]] S gamma_eff(const S& rho, const S& p, const S& e) const {
    return S(1.0) + p / (rho * e);
  }

  // -- Newton-Raphson inversion (the §6.1 experiment target) -------------

  /// Given (rho, e) find T such that e_interp(rho, T) = e. `stats` (if
  /// non-null) accumulates convergence bookkeeping, lane by lane.
  template <class S>
  EosResult<S> invert_energy(const S& rho, const S& e_target, const S& temp_guess, double rtol,
                             int max_iter, EosStats* stats = nullptr) const {
    // Clamp the running iterate into the table (a selection, never counted).
    const double t_lo = temp_lo() * 1.0000001, t_hi = temp_hi() * 0.9999999;
    const auto clamp = [&](const S& t) {
      const S above = select(t < t_lo, S(t_lo), t);
      return select(above > t_hi, S(t_hi), above);
    };
    // Convergence is judged on the *energy residual* (as in Flash-X's
    // eos_helm): truncated arithmetic cannot fake convergence by rounding
    // the Newton update to zero while the residual sits at the quantization
    // floor. The derivative is the exact derivative of the interpolant, so
    // the iteration terminates on the piecewise-linear table instead of
    // oscillating across cell kinks.
    const S zero = native([](double) { return 0.0; }, rho);  // a native count per lane
    const NewtonState<S> done = repeat_while(
        NewtonState<S>{rho, e_target, clamp(temp_guess), zero, zero},
        [&](const NewtonState<S>& s) {
          return native([&](double it, double conv) { return it < max_iter && conv == 0.0; },
                        s.iterations, s.converged);
        },
        [&](NewtonState<S> s) {
          s.iterations = native([](double it) { return it + 1.0; }, s.iterations);
          const S resid = e_interp(s.rho, s.temp) - s.e_target;
          s.converged = native(
              [&](double r, double e) { return std::fabs(r) < rtol * std::fabs(e) ? 1.0 : 0.0; },
              resid, s.e_target);
          s.temp = branch(
              s.converged > 0.0, [&](auto pick) { return pick(s.temp); },
              [&](auto pick) {
                const S t = pick(s.temp);
                return clamp(t - pick(resid) / dedT_consistent(pick(s.rho), t));
              });
          return s;
        });
    EosResult<S> out;
    out.temp = done.temp;
    out.pres = p_interp(rho, done.temp);
    out.iterations = native_cast<int>(done.iterations);
    out.converged = native_cast<bool>(done.converged);
    if (stats != nullptr) {
      native(
          [stats](double it, double conv) {
            ++stats->calls;
            if (conv == 0.0) ++stats->failures;
            stats->total_iterations += static_cast<u64>(it);
            stats->max_iterations_seen =
                std::max(stats->max_iterations_seen, static_cast<int>(it));
          },
          done.iterations, done.converged);
    }
    return out;
  }

 private:
  /// The table cell holding (log rho, log T): the fractional offsets into
  /// it, in the instrumented scalar so truncation applies to the blending
  /// arithmetic, and its four corners of `tab`. The index search is native
  /// mesh bookkeeping (like AMR), so the cell's row and column and the
  /// corner values are native lane values.
  template <class S>
  struct Cell {
    S fx, fy, v00, v10, v01, v11;
  };
  template <class S>
  [[nodiscard]] Cell<S> locate(const std::vector<double>& tab, const S& lr, const S& lt) const {
    const S i = native(
        [&](double l) {
          return 1.0 *
                 std::clamp(static_cast<int>((l - cfg_.log_rho_lo) / dlr_), 0, cfg_.n_rho - 2);
        },
        lr);
    const S j = native(
        [&](double l) {
          return 1.0 *
                 std::clamp(static_cast<int>((l - cfg_.log_temp_lo) / dlt_), 0, cfg_.n_temp - 2);
        },
        lt);
    const auto corner = [&](int di, int dj) {
      return native(
          [&](double ci, double cj) {
            return tab[idx(static_cast<int>(ci) + di, static_cast<int>(cj) + dj)];
          },
          i, j);
    };
    return {(lr - native([&](double ci) { return cfg_.log_rho_lo + ci * dlr_; }, i)) *
                S(1.0 / dlr_),
            (lt - native([&](double cj) { return cfg_.log_temp_lo + cj * dlt_; }, j)) *
                S(1.0 / dlt_),
            corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)};
  }

  template <class S>
  [[nodiscard]] S interp(const std::vector<double>& tab, const S& rho, const S& temp) const {
    using std::log10;
    const Cell<S> c = locate(tab, log10(rho), log10(temp));
    const S one(1.0);
    return (one - c.fx) * ((one - c.fy) * c.v00 + c.fy * c.v01) +
           c.fx * ((one - c.fy) * c.v10 + c.fy * c.v11);
  }

  [[nodiscard]] std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(j) * cfg_.n_rho + i;
  }

  Config cfg_;
  double dlr_ = 0.0, dlt_ = 0.0;
  std::vector<double> e_, p_;
};

}  // namespace raptor::eos

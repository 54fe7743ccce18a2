// Cellular detonation mini-app (paper §4.2, Timmes et al. 2000 substitute):
// a 1D carbon-fuel column with the tabulated Helmholtz-like EOS and the
// Burn module. The domain is initialized with cold fuel plus a hot spark;
// the burn releases energy, an over-driven detonation forms and propagates
// along x.
//
// Module scoping mirrors the paper's §6.1 experiment: the EOS calls run
// under the "eos" region and an optional TruncScope, while hydro and burn
// stay at ambient precision — "we intend to explore the possibility of
// using lower precision in a solver other than hydro in a multiphysics
// scenario".
//
// Each stage of a step is written once, on a scalar type: cell by cell on S,
// or (CellularConfig::batch, op-mode, S = Real) as the stage's batch::Vec
// instantiation over every cell or face at once.
#pragma once

#include <algorithm>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "burn/burn.hpp"
#include "eos/helmholtz.hpp"
#include "runtime/config.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::burn {

/// Conserved flux through one face.
template <class T>
struct FaceFlux {
  T rho, mom, ener;
};
template <class T>
auto members(FaceFlux<T>& f) {
  return std::tie(f.rho, f.mom, f.ener);
}
template <class T>
auto members(const FaceFlux<T>& f) {
  return std::tie(f.rho, f.mom, f.ener);
}

/// HLL flux between a left (l) and a right (r) cell of density, momentum,
/// pressure, total energy density and effective Gamma. Faces whose Davis
/// wave speeds are both of one sign take that side's physical flux; the
/// subsonic rest take the HLL combination (written once for double, Real
/// and batch::Vec; the two wave-speed tests are branch()es).
template <class T>
FaceFlux<T> hll_face(const T& rl, const T& rr, const T& ml, const T& mr, const T& pl, const T& pr,
                     const T& el, const T& er, const T& gl, const T& gr) {
  using std::sqrt;
  using std::fmin;
  using std::fmax;
  const T ul = ml / rl, ur = mr / rr;
  const T cl = sqrt(fmax(gl, T(1.05)) * pl / rl);
  const T cr = sqrt(fmax(gr, T(1.05)) * pr / rr);
  const T sl = fmin(ul - cl, ur - cr);
  const T sr = fmax(ul + cl, ur + cr);
  const T fl_rho = rl * ul, fr_rho = rr * ur;
  const T fl_mom = rl * ul * ul + pl, fr_mom = rr * ur * ur + pr;
  const T fl_ener = ul * (el + pl), fr_ener = ur * (er + pr);
  return branch(
      sl >= 0.0,
      [&](auto pick) { return FaceFlux<T>{pick(fl_rho), pick(fl_mom), pick(fl_ener)}; },
      [&](auto pick) {
        return branch(
            pick(sr) <= 0.0,
            [&](auto inner) {
              return FaceFlux<T>{inner(pick(fr_rho)), inner(pick(fr_mom)), inner(pick(fr_ener))};
            },
            [&](auto inner) {
              const auto at = [&](const T& v) { return inner(pick(v)); };
              const T a = at(sl), b = at(sr);
              const T inv = T(1.0) / (b - a);
              return FaceFlux<T>{
                  (b * at(fl_rho) - a * at(fr_rho) + a * b * (at(rr) - at(rl))) * inv,
                  (b * at(fl_mom) - a * at(fr_mom) + a * b * (at(rr) * at(ur) - at(rl) * at(ul))) *
                      inv,
                  (b * at(fl_ener) - a * at(fr_ener) + a * b * (at(er) - at(el))) * inv};
            });
      });
}

struct CellularConfig {
  int n = 256;
  double length = 2.56e7;    ///< cm
  double rho0 = 1.0e7;       ///< g/cm^3 fuel density
  double temp0 = 2.0e8;      ///< K ambient
  double temp_spark = 4.0e9; ///< K spark
  double spark_frac = 0.06;  ///< spark width fraction of the domain
  double cfl = 0.4;
  double eos_rtol = 1e-12;
  int eos_max_iter = 20;
  /// Truncation applied to the EOS module only (the §6.1 experiment).
  std::optional<rt::TruncationSpec> eos_trunc;
  /// Run each stage — the EOS sweep, the HLL fluxes, the conserved update
  /// and the burn network — as its kernel's batch::Vec instantiation over
  /// all cells or faces at once (DESIGN.md §8) when running op-mode with
  /// S = Real: bit-identical results, stats and counters, one batch call
  /// per operator. The double baseline and mem-mode always run the stages
  /// cell by cell on S.
  bool batch = true;
};

template <class S>
class CellularSim {
 public:
  explicit CellularSim(CellularConfig cfg) : cfg_(std::move(cfg)), table_() {
    const int n = cfg_.n;
    rho_.assign(n, S(cfg_.rho0));
    mom_.assign(n, S(0.0));
    ener_.assign(n, S(0.0));
    xfrac_.assign(n, S(1.0));
    temp_.assign(n, S(cfg_.temp0));
    dx_ = cfg_.length / n;
    for (int i = 0; i < n; ++i) {
      const double x = (i + 0.5) / n;
      const double t = x < cfg_.spark_frac ? cfg_.temp_spark : cfg_.temp0;
      temp_[i] = S(t);
      const double e = eos::HelmholtzTable::e_analytic(cfg_.rho0, t);
      ener_[i] = S(cfg_.rho0 * e);  // total energy density (v = 0)
    }
  }

  [[nodiscard]] const eos::EosStats& eos_stats() const { return eos_stats_; }
  void reset_eos_stats() { eos_stats_ = eos::EosStats{}; }
  [[nodiscard]] const CellularConfig& config() const { return cfg_; }
  [[nodiscard]] int cells() const { return cfg_.n; }
  [[nodiscard]] double temperature(int i) const { return to_double(temp_[i]); }
  [[nodiscard]] double mass_fraction(int i) const { return to_double(xfrac_[i]); }
  [[nodiscard]] double density(int i) const { return to_double(rho_[i]); }
  [[nodiscard]] double total_energy_released() const { return energy_released_; }

  /// Detonation front: rightmost cell with significant fuel consumption.
  [[nodiscard]] double front_position() const {
    for (int i = cfg_.n - 1; i >= 0; --i) {
      if (to_double(xfrac_[i]) < 0.9) return (i + 0.5) * dx_;
    }
    return 0.0;
  }

  /// One CFL-limited step; returns dt. The EOS inversion supplies pressure
  /// and temperature per cell; Burn then releases energy.
  double step() {
    const int n = cfg_.n;
    // 1. EOS sweep: invert (rho, e_int) -> T, p under the eos scope.
    std::vector<S> pres(n), gam(n);
    {
      std::optional<TruncScope> scope;
      if (cfg_.eos_trunc) scope.emplace(*cfg_.eos_trunc, true);
      Region region("eos");
      for_each(n, [&](const auto& at) {
        using T = typename std::decay_t<decltype(at)>::value_type;
        const T rho = at.get(rho_);
        const T vel = at.get(mom_) / rho;
        const T eint = at.get(ener_) / rho - T(0.5) * vel * vel;
        const auto res = table_.invert_energy(rho, eint, at.get(temp_), cfg_.eos_rtol,
                                              cfg_.eos_max_iter, &eos_stats_);
        at.put(temp_, res.temp);
        at.put(pres, res.pres);
        at.put(gam, table_.gamma_eff(rho, res.pres, eint));
      });
    }

    // 2. CFL dt (native bookkeeping).
    double dt = 1e30;
    for (int i = 0; i < n; ++i) {
      const double r = to_double(rho_[i]);
      const double u = to_double(mom_[i]) / r;
      const double g = std::clamp(to_double(gam[i]), 1.05, 2.5);
      const double c = std::sqrt(g * to_double(pres[i]) / r);
      dt = std::min(dt, dx_ / (std::fabs(u) + c));
    }
    dt *= cfg_.cfl;

    // 3. Hydro update (HLL, first order, outflow boundaries), "hydro" region.
    {
      Region region("hydro");
      // Face f lies between cells f - 1 and f, clamped at the walls.
      std::vector<S> f_rho(n + 1), f_mom(n + 1), f_ener(n + 1);
      for_each(n + 1, [&](const auto& at) {
        const auto f = hll_face(at.get(rho_, -1), at.get(rho_), at.get(mom_, -1), at.get(mom_),
                                at.get(pres, -1), at.get(pres), at.get(ener_, -1), at.get(ener_),
                                at.get(gam, -1), at.get(gam));
        at.put(f_rho, f.rho);
        at.put(f_mom, f.mom);
        at.put(f_ener, f.ener);
      });
      for_each(n, [&](const auto& at) {
        using T = typename std::decay_t<decltype(at)>::value_type;
        const T dtdx(dt / dx_);
        at.put(rho_, at.get(rho_) + dtdx * (at.get(f_rho) - at.get(f_rho, 1)));
        at.put(mom_, at.get(mom_) + dtdx * (at.get(f_mom) - at.get(f_mom, 1)));
        at.put(ener_, at.get(ener_) + dtdx * (at.get(f_ener) - at.get(f_ener, 1)));
      });
    }

    // 4. Burn source, "burn" region. The release is summed in cell order.
    {
      Region region("burn");
      for_each(n, [&](const auto& at) {
        const auto rho = at.get(rho_);
        const auto res = burn_cell(bp_, at.get(xfrac_), rho, at.get(temp_), dt);
        at.put(xfrac_, res.x_new);
        at.put(ener_, at.get(ener_) + rho * res.energy_released);
        native([&](double deposit) { energy_released_ += deposit * dx_; },
               rho * res.energy_released);
      });
    }
    return dt;
  }

 private:
  /// A stage's operands at one cell or face k, in the instrumented scalar.
  struct At {
    using value_type = S;
    int k;
    /// field[k + off], clamped into the field.
    [[nodiscard]] S get(const std::vector<S>& field, int off = 0) const {
      return field[std::clamp(k + off, 0, static_cast<int>(field.size()) - 1)];
    }
    void put(std::vector<S>& field, S value) const { field[k] = std::move(value); }
  };

  /// The same operands at every cell or face k in [0, n), one lane each
  /// (S = Real, op-mode: lanes carry raw payloads).
  struct Span {
    using value_type = batch::Vec;
    int n;
    [[nodiscard]] batch::Vec get(const std::vector<S>& field, int off = 0) const {
      const int last = static_cast<int>(field.size()) - 1;
      return batch::Vec::gather(static_cast<std::size_t>(n), [&](std::size_t k) {
        return field[std::clamp(static_cast<int>(k) + off, 0, last)].raw();
      });
    }
    void put(std::vector<S>& field, const batch::Vec& value) const {
      for (int k = 0; k < n; ++k) field[k] = Real::adopt_raw(value[k]);
    }
  };

  /// Runs stage(at) over the cells or faces [0, n): with cfg.batch in
  /// op-mode on S = Real once, as the batch::Vec instantiation over all of
  /// them; otherwise once per index on S. No index of a stage reads what
  /// another writes, so both give the same per-index results and counts.
  template <class Stage>
  void for_each(int n, const Stage& stage) {
    if constexpr (std::is_same_v<S, Real>) {
      if (cfg_.batch && rt::Runtime::instance().mode() == rt::Mode::Op) {
        stage(Span{n});
        return;
      }
    }
    for (int k = 0; k < n; ++k) stage(At{k});
  }

  CellularConfig cfg_;
  eos::HelmholtzTable table_;
  BurnParams bp_;
  eos::EosStats eos_stats_;
  std::vector<S> rho_, mom_, ener_, xfrac_, temp_;
  double dx_ = 0.0;
  double energy_released_ = 0.0;
};

}  // namespace raptor::burn

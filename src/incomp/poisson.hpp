// Variable-coefficient pressure Poisson solver: div(beta grad p) = rhs on a
// cell-centered grid with homogeneous Neumann walls, solved by red-black
// SOR. This substitutes for Flash-X's Hypre solve (see DESIGN.md §1).
//
// The solver is templated on the scalar S like the other substrates:
//   * S = double — the untruncated external-library stand-in the bubble
//     projection uses (the paper's pass ignores pre-compiled libraries);
//   * S = Real  — the sweep arithmetic (matvec, Gauss-Seidel update) runs
//     instrumented under the "poisson" region, so the solver can be
//     profiled, truncated per-region, and searched (DESIGN.md §10). The
//     face coefficients, convergence control and Neumann null-space pinning
//     stay native bookkeeping, mirroring how AMR/EOS treat mesh metadata.
//
// The SOR cell update is written once (sor_update) for double, Real and
// batch::Vec. With S = Real in op-mode the red-black sweep runs its Vec
// instantiation (DESIGN.md §8): cells of one color never read each other,
// so each thread gathers its share of a color's cells into one span, one
// lane per cell — bit-identical results and counter totals to the
// cell-by-cell loop.
//
// Convergence control: the (expensive) residual is recomputed every 10
// sweeps, but a cheap per-sweep update norm triggers an early residual
// check as soon as the iteration is plausibly converged — convergence on a
// non-multiple-of-10 sweep is detected immediately, and the reported
// residual always corresponds to the returned p (it is recomputed at every
// exit point, never stale).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <vector>

#include "support/common.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::incomp {

template <class S>
struct SorUpdate {
  S p;    ///< the cell's new value
  S upd;  ///< the relaxed update added to it
};

/// One SOR update of a cell with value pc: the Gauss-Seidel value from its
/// left, right, bottom and top neighbours (pl..pt, each times its face
/// coefficient bl..bt), relaxed by omega.
template <class S>
SorUpdate<S> sor_update(const S& bl, const S& pl, const S& br, const S& pr, const S& bb,
                        const S& pb, const S& bt, const S& pt, const S& rhs, const S& diag,
                        const S& omega, const S& pc) {
  const S nb = bl * pl + br * pr + bb * pb + bt * pt;
  const S gs = (nb - rhs) / diag;
  const S upd = omega * (gs - pc);
  return {pc + upd, upd};
}

struct PoissonResult {
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
};

template <class S = double>
class PoissonSolver {
 public:
  PoissonSolver(int nx, int ny, double hx, double hy)
      : nx_(nx), ny_(ny), hx2_(1.0 / (hx * hx)), hy2_(1.0 / (hy * hy)) {}

  /// Run the instrumented sweep as sor_update's batch::Vec instantiation
  /// (op-mode with S = Real only; bit-identical to the cell-by-cell loop).
  void set_batch(bool on) { batch_ = on; }

  /// Solve div(beta grad p) = rhs. beta_x: (nx+1) x ny face coefficients,
  /// beta_y: nx x (ny+1). p holds the initial guess on entry, the solution
  /// on exit. rhs is compatible (mean-zero) up to solver tolerance for
  /// all-Neumann problems; the mean of p is pinned to zero.
  PoissonResult solve(std::vector<S>& p, const std::vector<double>& rhs,
                      const std::vector<double>& beta_x, const std::vector<double>& beta_y,
                      double tol = 1e-8, int max_iter = 2000, double omega = 1.7) const {
    RAPTOR_REQUIRE(p.size() == static_cast<std::size_t>(nx_) * ny_, "poisson: bad p size");
    PoissonResult out;

    double rhs_norm = 0.0;
    for (const double r : rhs) rhs_norm = std::max(rhs_norm, std::fabs(r));
    if (rhs_norm < 1e-300) rhs_norm = 1.0;

    // Largest diagonal, scaling the cheap update norm to residual units.
    double diag_max = 0.0;
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) diag_max = std::max(diag_max, diag_at(beta_x, beta_y, i, j));
    }
    if (diag_max <= 0.0) diag_max = 1.0;

    bool use_batch = false;
    if constexpr (std::is_same_v<S, Real>) {
      use_batch = batch_ && rt::Runtime::instance().mode() == rt::Mode::Op;
    }

    // A failed early check suppresses further early checks until the next
    // regular cadence point, so a stalled (e.g. heavily truncated) solve
    // does not pay a residual evaluation per sweep.
    bool early_check_armed = true;
    for (int it = 1; it <= max_iter; ++it) {
      out.iterations = it;
      double max_update = 0.0;
      for (int color = 0; color < 2; ++color) {
#pragma omp parallel reduction(max : max_update)
        {
          // Region entry per executing thread: worker threads must carry the
          // label too, or per-region profiles/overrides would miss them.
          Region region("poisson");
          if (use_batch) {
            if constexpr (std::is_same_v<S, Real>) {
              std::vector<Cell> share;
#pragma omp for schedule(static) nowait
              for (int j = 0; j < ny_; ++j) {
                for (int i = (j + color) & 1; i < nx_; i += 2) {
                  if (diag_at(beta_x, beta_y, i, j) > 0.0) share.push_back({i, j});
                }
              }
              if (!share.empty()) {
                max_update =
                    std::max(max_update, sweep_span(p, rhs, beta_x, beta_y, share, omega));
              }
            }
          } else {
#pragma omp for schedule(static)
            for (int j = 0; j < ny_; ++j) {
              for (int i = (j + color) & 1; i < nx_; i += 2) {
                const double diag = diag_at(beta_x, beta_y, i, j);
                if (diag <= 0.0) continue;
                // Neumann walls: the face coefficient is zero there, so the
                // clamped neighbour reads contribute exactly nothing while
                // every cell executes the same operation sequence.
                const auto [ble, bri, bbo, bto] = faces(beta_x, beta_y, i, j);
                const SorUpdate<S> u =
                    sor_update(S(ble), p_c(p, i - 1, j), S(bri), p_c(p, i + 1, j), S(bbo),
                               p_c(p, i, j - 1), S(bto), p_c(p, i, j + 1), S(rhs[idx(i, j)]),
                               S(diag), S(omega), p[idx(i, j)]);
                p[idx(i, j)] = u.p;
                max_update = std::max(max_update, std::fabs(to_double(u.upd)));
              }
            }
          }
        }
      }
      // Convergence control (native): the residual is recomputed on the
      // usual every-10 cadence, at the iteration budget, and as soon as the
      // scaled update norm suggests convergence — so detection is prompt on
      // any iteration and the reported residual is never stale.
      const bool cadence = it % 10 == 0 || it == max_iter;
      const bool plausibly_converged =
          early_check_armed && max_update * diag_max < tol * rhs_norm;
      if (cadence) early_check_armed = true;
      if (cadence || plausibly_converged) {
        const double res = residual_norm(p, rhs, beta_x, beta_y);
        out.residual = res;
        if (res < tol * rhs_norm) {
          out.converged = true;
          break;
        }
        if (plausibly_converged && !cadence) early_check_armed = false;
      }
    }
    // Pin the Neumann null space (native bookkeeping).
    double mean = 0.0;
    for (const S& v : p) mean += to_double(v);
    mean /= static_cast<double>(p.size());
    for (S& v : p) v = S(to_double(v) - mean);
    return out;
  }

  [[nodiscard]] double residual_norm(const std::vector<S>& p, const std::vector<double>& rhs,
                                     const std::vector<double>& beta_x,
                                     const std::vector<double>& beta_y) const {
    double worst = 0.0;
#pragma omp parallel for schedule(static) reduction(max : worst)
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const auto [ble, bri, bbo, bto] = faces(beta_x, beta_y, i, j);
        const double pc = to_double(p[idx(i, j)]);
        const double lap =
            (i > 0 ? ble * (to_double(p[idx(i - 1, j)]) - pc) : 0.0) +
            (i < nx_ - 1 ? bri * (to_double(p[idx(i + 1, j)]) - pc) : 0.0) +
            (j > 0 ? bbo * (to_double(p[idx(i, j - 1)]) - pc) : 0.0) +
            (j < ny_ - 1 ? bto * (to_double(p[idx(i, j + 1)]) - pc) : 0.0);
        worst = std::max(worst, std::fabs(lap - rhs[idx(i, j)]));
      }
    }
    return worst;
  }

 private:
  [[nodiscard]] std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(j) * nx_ + i;
  }
  [[nodiscard]] double bx(const std::vector<double>& beta_x, int i, int j) const {
    return beta_x[static_cast<std::size_t>(j) * (nx_ + 1) + i];
  }
  [[nodiscard]] double by(const std::vector<double>& beta_y, int i, int j) const {
    return beta_y[static_cast<std::size_t>(j) * nx_ + i];
  }
  /// Face coefficients of cell (i, j) over h^2 — left, right, bottom,
  /// top — zero on a Neumann wall.
  [[nodiscard]] std::array<double, 4> faces(const std::vector<double>& beta_x,
                                            const std::vector<double>& beta_y, int i,
                                            int j) const {
    return {i > 0 ? bx(beta_x, i, j) * hx2_ : 0.0, i < nx_ - 1 ? bx(beta_x, i + 1, j) * hx2_ : 0.0,
            j > 0 ? by(beta_y, i, j) * hy2_ : 0.0, j < ny_ - 1 ? by(beta_y, i, j + 1) * hy2_ : 0.0};
  }
  [[nodiscard]] double diag_at(const std::vector<double>& beta_x,
                               const std::vector<double>& beta_y, int i, int j) const {
    const auto [ble, bri, bbo, bto] = faces(beta_x, beta_y, i, j);
    return ble + bri + bbo + bto;
  }
  /// Clamped cell read; out-of-domain neighbours pair with a zero face
  /// coefficient so their value never contributes.
  [[nodiscard]] const S& p_c(const std::vector<S>& p, int i, int j) const {
    i = std::clamp(i, 0, nx_ - 1);
    j = std::clamp(j, 0, ny_ - 1);
    return p[idx(i, j)];
  }

  struct Cell {
    int i, j;
  };

  /// sor_update's batch::Vec instantiation over `cells` (one color, so no
  /// cell reads another), one lane per cell (S = Real, op-mode: lanes carry
  /// raw payloads). Returns the cells' max |update| (native).
  double sweep_span(std::vector<S>& p, const std::vector<double>& rhs,
                    const std::vector<double>& beta_x, const std::vector<double>& beta_y,
                    const std::vector<Cell>& cells, double omega) const
    requires std::is_same_v<S, Real>
  {
    using batch::Vec;
    const auto lanes = [&](const auto& fn) {
      return Vec::gather(cells.size(), [&](std::size_t k) { return fn(cells[k].i, cells[k].j); });
    };
    const auto face = [&](int side) {
      return lanes([&](int i, int j) { return faces(beta_x, beta_y, i, j)[side]; });
    };
    const auto at = [&](int di, int dj) {
      return lanes([&](int i, int j) { return p_c(p, i + di, j + dj).raw(); });
    };
    const SorUpdate<Vec> u = sor_update<Vec>(
        face(0), at(-1, 0), face(1), at(1, 0), face(2), at(0, -1), face(3), at(0, 1),
        lanes([&](int i, int j) { return rhs[idx(i, j)]; }),
        lanes([&](int i, int j) { return diag_at(beta_x, beta_y, i, j); }), Vec(omega), at(0, 0));
    double max_update = 0.0;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      p[idx(cells[k].i, cells[k].j)] = Real::adopt_raw(u.p[k]);
      max_update = std::max(max_update, std::fabs(u.upd[k]));
    }
    return max_update;
  }

  int nx_, ny_;
  double hx2_, hy2_;
  bool batch_ = true;
};

}  // namespace raptor::incomp

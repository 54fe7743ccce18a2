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
// Stencil plan: each solve first lists every colour's active (diag > 0)
// cells in row-major order, each with its own index, its four clamped
// neighbour indices (a cell on a wall reads itself there, against a zero
// face coefficient), its four face coefficients, its rhs and its diagonal.
// Every sweep then runs from the plan, so the coefficients are computed once
// per solve instead of twice per cell and sweep.
//
// The SOR cell update is written once (sor_update) for double, Real and
// batch::Vec. The double and Real loops call it per plan cell. With S = Real
// in op-mode the batch path runs its Vec instantiation as one span per
// colour: cells of one colour never read each other, so all of a colour's
// cells are one span, one lane per cell, whose coefficient, rhs and diagonal
// lanes are gathered once per solve — bit-identical results and counter
// totals to the cell-by-cell loop.
//
// Thread model: the whole solve runs on the calling thread, inside one
// "poisson" region. Measured against a 4-thread OpenMP team per colour and
// sweep (ns per cell update of a 300-sweep solve; 4-core AVX-512 Xeon,
// gcc 12.2): with passive waits, the policy ctest and perfbench set, the
// team loses up to 64x128 cells (5.7 against 2.9 here) and wins from about
// 32K cells (128x256: 2.1 against 3.3); with libgomp's default spinning
// waits it loses at 32x64 (5.6 against 3.2) and wins from about 8K cells
// (64x128: 1.9 against 2.9). The search's bubble solves 20x40 cells; the
// largest grid any workload, test or bench solves is 64x128.
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
#include <limits>
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
    Region region("poisson");
    const Plan plan = make_plan(p.size(), rhs, beta_x, beta_y);
    PoissonResult out;

    double rhs_norm = 0.0;
    for (const double r : rhs) rhs_norm = std::max(rhs_norm, std::fabs(r));
    if (rhs_norm < 1e-300) rhs_norm = 1.0;
    // Largest diagonal, scaling the cheap update norm to residual units.
    const double diag_max = plan.diag_max > 0.0 ? plan.diag_max : 1.0;

    std::vector<SpanLanes> spans;
    if constexpr (std::is_same_v<S, Real>) {
      if (batch_ && rt::Runtime::instance().mode() == rt::Mode::Op) {
        for (const auto& cells : plan.colours) spans.push_back(span_lanes(cells));
      }
    }
    const auto sweep = [&](int colour) {
      if constexpr (std::is_same_v<S, Real>) {
        if (!spans.empty()) return sweep_span(p, plan.colours[colour], spans[colour], omega);
      }
      return sweep_cells(p, plan.colours[colour], omega);
    };

    // A failed early check suppresses further early checks until the next
    // regular cadence point, so a stalled (e.g. heavily truncated) solve
    // does not pay a residual evaluation per sweep.
    bool early_check_armed = true;
    for (int it = 1; it <= max_iter; ++it) {
      out.iterations = it;
      const double red = sweep(0);
      const double max_update = std::max(red, sweep(1));
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
    require_sizes(p.size(), rhs, beta_x, beta_y);
    double worst = 0.0;
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
  /// One active cell of the stencil plan: its index c, its clamped left,
  /// right, bottom and top neighbours, and its coefficients.
  struct PlanCell {
    u32 c, l, r, b, t;
    double bl, br, bb, bt, rhs, diag;
  };
  struct Plan {
    std::array<std::vector<PlanCell>, 2> colours;  ///< (i + j) even, odd; row-major
    double diag_max = 0.0;                         ///< over every cell, 0 if none is positive
  };
  /// A colour's lanes that stay fixed over a solve (the batch path).
  struct SpanLanes {
    batch::Vec bl, br, bb, bt, rhs, diag;
  };

  [[nodiscard]] std::size_t cells() const { return static_cast<std::size_t>(nx_) * ny_; }
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

  /// p, rhs and the face coefficients are read at computed indices, so a
  /// size that does not match the grid is fatal.
  void require_sizes(std::size_t p_size, const std::vector<double>& rhs,
                     const std::vector<double>& beta_x, const std::vector<double>& beta_y) const {
    RAPTOR_REQUIRE(p_size == cells(), "poisson: bad p size");
    RAPTOR_REQUIRE(rhs.size() == cells(), "poisson: bad rhs size");
    RAPTOR_REQUIRE(beta_x.size() == static_cast<std::size_t>(nx_ + 1) * ny_,
                   "poisson: bad beta_x size");
    RAPTOR_REQUIRE(beta_y.size() == static_cast<std::size_t>(nx_) * (ny_ + 1),
                   "poisson: bad beta_y size");
  }

  [[nodiscard]] Plan make_plan(std::size_t p_size, const std::vector<double>& rhs,
                               const std::vector<double>& beta_x,
                               const std::vector<double>& beta_y) const {
    require_sizes(p_size, rhs, beta_x, beta_y);
    RAPTOR_REQUIRE(cells() <= std::numeric_limits<u32>::max(), "poisson: grid too large");
    const auto at = [&](int i, int j) {
      return static_cast<u32>(idx(std::clamp(i, 0, nx_ - 1), std::clamp(j, 0, ny_ - 1)));
    };
    Plan plan;
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const auto [bl, br, bb, bt] = faces(beta_x, beta_y, i, j);
        const double diag = bl + br + bb + bt;
        plan.diag_max = std::max(plan.diag_max, diag);
        if (!(diag > 0.0)) continue;
        plan.colours[(i + j) & 1].push_back({at(i, j), at(i - 1, j), at(i + 1, j), at(i, j - 1),
                                             at(i, j + 1), bl, br, bb, bt, rhs[idx(i, j)], diag});
      }
    }
    return plan;
  }

  /// sor_update per cell of one colour. Returns the cells' max |update|
  /// (native).
  static double sweep_cells(std::vector<S>& p, const std::vector<PlanCell>& cells, double omega) {
    double max_update = 0.0;
    for (const PlanCell& c : cells) {
      const SorUpdate<S> u = sor_update(S(c.bl), p[c.l], S(c.br), p[c.r], S(c.bb), p[c.b],
                                        S(c.bt), p[c.t], S(c.rhs), S(c.diag), S(omega), p[c.c]);
      p[c.c] = u.p;
      max_update = std::max(max_update, std::fabs(to_double(u.upd)));
    }
    return max_update;
  }

  static SpanLanes span_lanes(const std::vector<PlanCell>& cells) {
    const auto lanes = [&](double PlanCell::*field) {
      return batch::Vec::gather(cells.size(), [&](std::size_t k) { return cells[k].*field; });
    };
    return {lanes(&PlanCell::bl),  lanes(&PlanCell::br),  lanes(&PlanCell::bb),
            lanes(&PlanCell::bt),  lanes(&PlanCell::rhs), lanes(&PlanCell::diag)};
  }

  /// sor_update's batch::Vec instantiation over one colour's cells, one
  /// lane per cell (S = Real, op-mode: lanes carry raw payloads). Returns
  /// the cells' max |update| (native).
  static double sweep_span(std::vector<S>& p, const std::vector<PlanCell>& cells,
                           const SpanLanes& k, double omega)
    requires std::is_same_v<S, Real>
  {
    if (cells.empty()) return 0.0;
    using batch::Vec;
    const auto at = [&](u32 PlanCell::*cell) {
      return Vec::gather(cells.size(), [&](std::size_t n) { return p[cells[n].*cell].raw(); });
    };
    const SorUpdate<Vec> u =
        sor_update<Vec>(k.bl, at(&PlanCell::l), k.br, at(&PlanCell::r), k.bb, at(&PlanCell::b),
                        k.bt, at(&PlanCell::t), k.rhs, k.diag, Vec(omega), at(&PlanCell::c));
    double max_update = 0.0;
    for (std::size_t n = 0; n < cells.size(); ++n) {
      p[cells[n].c] = Real::adopt_raw(u.p[n]);
      max_update = std::max(max_update, std::fabs(u.upd[n]));
    }
    return max_update;
  }

  int nx_, ny_;
  double hx2_, hy2_;
  bool batch_ = true;
};

}  // namespace raptor::incomp

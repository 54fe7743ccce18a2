// Compressible Euler solver on the block-AMR grid, structured like the
// Spark solver the paper debugs in §6.3: three pluggable, separately
// labelled stages —
//   "hydro/recon"   reconstruction (first-order or PLM/minmod),
//   "hydro/riemann" approximate Riemann solver (Rusanov/HLL/HLLC),
//   "hydro/update"  conservative flux-difference update —
// advanced with dimensional splitting (x sweep, then y sweep, with guard
// refills between). Region labels let mem-mode group deviation flags per
// stage and let Table-2-style experiments exclude a stage from truncation.
//
// Every stage kernel — load_prim, plm_face, the Riemann solvers and
// flux_update — is written once and instantiated on double (native), Real
// (per-op dispatch) and batch::Vec. With HydroConfig::batch in op-mode the
// solver runs the Vec instantiations over all rows of a block at once (one
// lane per pencil cell, face or interior cell), so each operator is one
// batch call over the whole block with the same per-element ops and counts
// as the row loop.
//
// Truncation scoping: when `trunc` is configured, every block's kernels run
// under TruncScope(trunc, trunc_enabled(level)) — the per-AMR-level dynamic
// cutoff of the paper's M-l experiments. CFL control and the AMR machinery
// always run in native double (paper §6.1: the AMR algorithm itself is not
// truncated, it only reacts to truncated data).
#pragma once

#include <functional>
#include <optional>
#include <type_traits>

#include "amr/grid.hpp"
#include "hydro/riemann.hpp"
#include "runtime/config.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::hydro {

/// Conserved variable indices on the grid.
enum Var : int { DENS = 0, MOMX = 1, MOMY = 2, ENER = 3 };
constexpr int kNumVars = 4;

enum class ReconKind { FirstOrder, PLM };

struct HydroConfig {
  double gamma = 1.4;
  double cfl = 0.4;
  ReconKind recon = ReconKind::PLM;
  RiemannKind riemann = RiemannKind::HLLC;
  double dens_floor = 1e-10;
  double pres_floor = 1e-14;
  /// Constant vertical acceleration applied as an operator-split source
  /// term after the sweeps (Rayleigh–Taylor); 0 disables the stage.
  double gravity = 0.0;
  /// Truncation spec applied around block kernels (absent: run natively).
  std::optional<rt::TruncationSpec> trunc;
  /// Per-level gate for the spec (the M-l cutoff); default: all levels.
  std::function<bool(int level)> trunc_enabled;
  /// Run every stage of a block (primitive recovery, reconstruction,
  /// Riemann solve, update) through the array batch dispatch (DESIGN.md §8)
  /// when running op-mode with T = Real. Bit-identical results and
  /// counters; only the dispatch overhead changes. The double baseline and
  /// mem-mode always take the scalar row loop.
  bool batch = true;
};

/// Primitive recovery with the density and pressure floors: the work of
/// the bare "hydro" region. `xdir` orders the velocities into the sweep
/// frame (un normal, ut transverse).
template <class T>
PrimState<T> load_prim(const T& dens, const T& momx, const T& momy, const T& ener, bool xdir,
                       const HydroConfig& cfg) {
  using std::fmax;
  const T rho = fmax(dens, T(cfg.dens_floor));
  const T u = momx / rho;
  const T v = momy / rho;
  const T p =
      fmax(T(cfg.gamma - 1.0) * (ener - T(0.5) * rho * (u * u + v * v)), T(cfg.pres_floor));
  PrimState<T> out;
  out.rho = rho;
  out.un = xdir ? u : v;
  out.ut = xdir ? v : u;
  out.p = p;
  return out;
}

/// Conservative flux-difference update of one cell variable.
template <class T>
T flux_update(const T& u, const T& dtdx, const T& fm, const T& fp) {
  return u + dtdx * (fm - fp);
}

// ---------------------------------------------------------------------------
// Pencil reconstruction (free functions shared by the solver and bench/)
// ---------------------------------------------------------------------------

template <class T>
T plm_minmod(const T& a, const T& b) {
  if (to_double(a) * to_double(b) <= 0.0) return T(0.0);
  return std::fabs(to_double(a)) < std::fabs(to_double(b)) ? a : b;
}

/// plm_minmod lane by lane: a selection, never counted (the sign test is
/// the same native product as the scalar form's).
inline batch::Vec plm_minmod(const batch::Vec& a, const batch::Vec& b) {
  return batch::Vec::gather(a.size(), [&](std::size_t i) {
    if (a[i] * b[i] <= 0.0) return 0.0;
    return std::fabs(a[i]) < std::fabs(b[i]) ? a[i] : b[i];
  });
}

/// Minmod-limited (PLM) interface states of a face from the two cells on
/// each side of it (cll, cl | cr, crr), with the density/pressure floors.
template <class T>
void plm_face(const PrimState<T>& cll, const PrimState<T>& cl, const PrimState<T>& cr,
              const PrimState<T>& crr, PrimState<T>& wl, PrimState<T>& wr, double dens_floor,
              double pres_floor) {
  const auto limited = [&](auto member) {
    const T dl_m = cl.*member - cll.*member;
    const T dl_p = cr.*member - cl.*member;
    const T dr_m = dl_p;
    const T dr_p = crr.*member - cr.*member;
    return std::pair<T, T>{plm_minmod(dl_m, dl_p), plm_minmod(dr_m, dr_p)};
  };
  const auto [srho_l, srho_r] = limited(&PrimState<T>::rho);
  const auto [sun_l, sun_r] = limited(&PrimState<T>::un);
  const auto [sut_l, sut_r] = limited(&PrimState<T>::ut);
  const auto [sp_l, sp_r] = limited(&PrimState<T>::p);
  wl.rho = cl.rho + T(0.5) * srho_l;
  wl.un = cl.un + T(0.5) * sun_l;
  wl.ut = cl.ut + T(0.5) * sut_l;
  wl.p = cl.p + T(0.5) * sp_l;
  wr.rho = cr.rho - T(0.5) * srho_r;
  wr.un = cr.un - T(0.5) * sun_r;
  wr.ut = cr.ut - T(0.5) * sut_r;
  wr.p = cr.p - T(0.5) * sp_r;
  using std::fmax;
  wl.rho = fmax(wl.rho, T(dens_floor));
  wr.rho = fmax(wr.rho, T(dens_floor));
  wl.p = fmax(wl.p, T(pres_floor));
  wr.p = fmax(wr.p, T(pres_floor));
}

/// Scalar pencil reconstruction: interface f sits between cells (f-1) and f
/// (cell index c maps to w[c+ng]). First-order: piecewise constant; PLM:
/// minmod-limited linear.
template <class T>
void plm_pencil(const std::vector<PrimState<T>>& w, std::vector<PrimState<T>>& wl,
                std::vector<PrimState<T>>& wr, int n_interior, int ng, ReconKind recon,
                double dens_floor, double pres_floor) {
  for (int f = 0; f <= n_interior; ++f) {
    if (recon == ReconKind::FirstOrder) {
      wl[f] = w[f - 1 + ng];
      wr[f] = w[f + ng];
      continue;
    }
    plm_face(w[f - 2 + ng], w[f - 1 + ng], w[f + ng], w[f + 1 + ng], wl[f], wr[f], dens_floor,
             pres_floor);
  }
}

template <class T>
class HydroSolver {
 public:
  explicit HydroSolver(HydroConfig cfg) : cfg_(std::move(cfg)) {
    if (!cfg_.trunc_enabled) cfg_.trunc_enabled = [](int) { return true; };
  }

  [[nodiscard]] const HydroConfig& config() const { return cfg_; }

  /// CFL-limited global time step (native double arithmetic).
  [[nodiscard]] double compute_dt(const amr::AmrGrid<T>& g) const {
    double dt = 1e300;
#pragma omp parallel for schedule(dynamic) reduction(min : dt)
    for (int n = 0; n < g.num_leaves(); ++n) {
      const auto& b = g.leaf(n);
      const double hx = g.dx(b.level), hy = g.dy(b.level);
      for (int j = 0; j < g.config().nyb; ++j) {
        for (int i = 0; i < g.config().nxb; ++i) {
          const double rho = std::max(to_double(g.at(b, DENS, i, j)), cfg_.dens_floor);
          const double mx = to_double(g.at(b, MOMX, i, j));
          const double my = to_double(g.at(b, MOMY, i, j));
          const double en = to_double(g.at(b, ENER, i, j));
          const double u = mx / rho, v = my / rho;
          const double p =
              std::max((cfg_.gamma - 1.0) * (en - 0.5 * rho * (u * u + v * v)), cfg_.pres_floor);
          const double c = std::sqrt(cfg_.gamma * p / rho);
          dt = std::min(dt, hx / (std::fabs(u) + c));
          dt = std::min(dt, hy / (std::fabs(v) + c));
        }
      }
    }
    return cfg_.cfl * dt;
  }

  /// One dimensionally split step: x sweep then y sweep, then the gravity
  /// source (when configured).
  void step(amr::AmrGrid<T>& g, double dt) {
    g.fill_guards();
    sweep(g, dt, /*xdir=*/true);
    g.fill_guards();
    sweep(g, dt, /*xdir=*/false);
    if (cfg_.gravity != 0.0) apply_gravity(g, dt);
  }

 private:
  /// Operator-split gravity source on the y-momentum and energy:
  ///   momy += rho * g * dt,
  ///   ener += g * dt * 0.5 * (momy_old + momy_new)   (time-centered work),
  /// per block under the same truncation scoping as the sweeps, labelled
  /// "hydro/gravity" so search/trace treat it as its own solver stage.
  void apply_gravity(amr::AmrGrid<T>& g, double dt) {
    const double gdt_raw = cfg_.gravity * dt;
#pragma omp parallel for schedule(dynamic)
    for (int n = 0; n < g.num_leaves(); ++n) {
      auto& b = g.leaf(n);
      std::optional<TruncScope> scope;
      if (cfg_.trunc) scope.emplace(*cfg_.trunc, cfg_.trunc_enabled(b.level));
      Region hydro_region("hydro");
      Region r("hydro/gravity");
      const T gdt = T(gdt_raw);
      const T half = T(0.5);
      for (int j = 0; j < g.config().nyb; ++j) {
        for (int i = 0; i < g.config().nxb; ++i) {
          const T my = g.at(b, MOMY, i, j);
          const T my_new = my + gdt * g.at(b, DENS, i, j);
          g.at(b, ENER, i, j) = g.at(b, ENER, i, j) + gdt * (half * (my + my_new));
          g.at(b, MOMY, i, j) = my_new;
        }
      }
      rt::Runtime::instance().count_mem(static_cast<u64>(g.config().nxb) * g.config().nyb * 3 *
                                        2 * sizeof(double));
    }
  }
  void sweep(amr::AmrGrid<T>& g, double dt, bool xdir) {
    const int n_interior = xdir ? g.config().nxb : g.config().nyb;
    const int n_rows = xdir ? g.config().nyb : g.config().nxb;
    const int ng = g.config().ng;

    // Batched dispatch applies to the instrumented op-mode run only; the
    // double baseline and mem-mode take the row loop (DESIGN.md §8).
    bool use_batch = false;
    if constexpr (std::is_same_v<T, Real>) {
      use_batch = cfg_.batch && rt::Runtime::instance().mode() == rt::Mode::Op;
    }

#pragma omp parallel
    {
      // Row-sized work buffers, one set per thread.
      std::vector<PrimState<T>> w(n_interior + 2 * ng);
      std::vector<PrimState<T>> wl(n_interior + 1), wr(n_interior + 1);
      std::vector<Flux<T>> fx(n_interior + 1);

#pragma omp for schedule(dynamic)
      for (int n = 0; n < g.num_leaves(); ++n) {
        auto& b = g.leaf(n);
        const double h = xdir ? g.dx(b.level) : g.dy(b.level);
        const T dtdx = T(dt / h);

        // Scoped truncation with the per-level gate; region labelling makes
        // this whole solver one "hydro" module with three sub-stages.
        std::optional<TruncScope> scope;
        if (cfg_.trunc) scope.emplace(*cfg_.trunc, cfg_.trunc_enabled(b.level));
        Region hydro_region("hydro");
        if constexpr (std::is_same_v<T, Real>) {
          if (use_batch) {
            sweep_block_batch(g, b, xdir, dtdx.raw());
            continue;
          }
        }

        for (int row = 0; row < n_rows; ++row) {
          const auto cell = [&](int var, int k) -> T& {
            return xdir ? g.at(b, var, k, row) : g.at(b, var, row, k);
          };
          // Load primitives along the pencil (includes guards).
          for (int k = -ng; k < n_interior + ng; ++k) {
            w[k + ng] = load_prim(cell(DENS, k), cell(MOMX, k), cell(MOMY, k), cell(ENER, k),
                                  xdir, cfg_);
          }
          {
            Region r("hydro/recon");
            plm_pencil(w, wl, wr, n_interior, ng, cfg_.recon, cfg_.dens_floor, cfg_.pres_floor);
          }
          {
            Region r("hydro/riemann");
            for (int f = 0; f <= n_interior; ++f) {
              fx[f] = riemann_flux(cfg_.riemann, wl[f], wr[f], cfg_.gamma);
            }
          }
          {
            Region r("hydro/update");
            // Flux components are in the sweep frame [rho, mom_n, mom_t, E].
            const int vars[4] = {DENS, xdir ? MOMX : MOMY, xdir ? MOMY : MOMX, ENER};
            for (int k = 0; k < n_interior; ++k) {
              for (int v = 0; v < 4; ++v) {
                cell(vars[v], k) = flux_update(cell(vars[v], k), dtdx, fx[k].f[v], fx[k + 1].f[v]);
              }
            }
          }
          rt::Runtime::instance().count_mem(static_cast<u64>(n_interior) * kNumVars * 2 *
                                            sizeof(double));
        }
      }
    }
  }

  /// One block's sweep on the batch path: each stage runs its kernel's
  /// batch::Vec instantiation once over every row of the block — one lane
  /// per pencil cell (primitive recovery), per face (reconstruction and
  /// Riemann solve) or per interior cell (update). Rows never share cells,
  /// so finishing each stage for all rows before the next one starts gives
  /// the row loop's per-element ops, results and counts.
  void sweep_block_batch(amr::AmrGrid<T>& g, typename amr::AmrGrid<T>::Block& b, bool xdir,
                         double dtdx) {
    using batch::Vec;
    const int n_interior = xdir ? g.config().nxb : g.config().nyb;
    const int n_rows = xdir ? g.config().nyb : g.config().nxb;
    const int ng = g.config().ng;
    const std::size_t cells = static_cast<std::size_t>(n_interior) + 2 * ng;  // per row
    const std::size_t faces = static_cast<std::size_t>(n_interior) + 1;       // per row
    const std::size_t nint = static_cast<std::size_t>(n_interior);
    const std::size_t rows = static_cast<std::size_t>(n_rows);
    const auto cell = [&](int var, std::size_t row, int k) -> T& {
      const int r = static_cast<int>(row);
      return xdir ? g.at(b, var, k, r) : g.at(b, var, r, k);
    };
    const auto pencils = [&](int var) {
      return Vec::gather(rows * cells, [&](std::size_t c) {
        return cell(var, c / cells, static_cast<int>(c % cells) - ng).raw();
      });
    };
    const PrimState<Vec> w =
        load_prim(pencils(DENS), pencils(MOMX), pencils(MOMY), pencils(ENER), xdir, cfg_);
    // The cells at offset `off` from every face (face f of a row sits
    // between its cells f-1 and f).
    const auto at_faces = [&](int off) {
      PrimState<Vec> s;
      batch::zip_members(s, w, [&](Vec& out, const Vec& m) {
        out = Vec::gather(rows * faces, [&](std::size_t c) {
          return m[(c / faces) * cells + c % faces + static_cast<std::size_t>(ng + off)];
        });
      });
      return s;
    };

    PrimState<Vec> wl, wr;
    {
      Region r("hydro/recon");
      if (cfg_.recon == ReconKind::PLM) {
        plm_face(at_faces(-2), at_faces(-1), at_faces(0), at_faces(1), wl, wr, cfg_.dens_floor,
                 cfg_.pres_floor);
      } else {
        wl = at_faces(-1);
        wr = at_faces(0);
      }
    }
    Flux<Vec> fx;
    {
      Region r("hydro/riemann");
      fx = riemann_flux(cfg_.riemann, wl, wr, cfg_.gamma);
    }
    {
      Region r("hydro/update");
      const int vars[4] = {DENS, xdir ? MOMX : MOMY, xdir ? MOMY : MOMX, ENER};
      for (int v = 0; v < 4; ++v) {
        const auto flux_at = [&](std::size_t off) {
          return Vec::gather(rows * nint, [&](std::size_t c) {
            return fx.f[v][(c / nint) * faces + c % nint + off];
          });
        };
        const Vec u = Vec::gather(rows * nint, [&](std::size_t c) {
          return cell(vars[v], c / nint, static_cast<int>(c % nint)).raw();
        });
        const Vec out = flux_update(u, Vec(dtdx), flux_at(0), flux_at(1));
        for (std::size_t c = 0; c < rows * nint; ++c) {
          cell(vars[v], c / nint, static_cast<int>(c % nint)) = Real::adopt_raw(out[c]);
        }
      }
    }
    rt::Runtime::instance().count_mem(static_cast<u64>(rows * nint) * kNumVars * 2 *
                                      sizeof(double));
  }

  HydroConfig cfg_;
};

}  // namespace raptor::hydro

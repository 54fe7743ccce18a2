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
// solver runs the Vec instantiations over all rows of all the leaf blocks a
// thread owns under one truncation gate (one lane per pencil cell, face or
// interior cell, at most kMaxSpanBlocks blocks per span), so each operator
// is one batch call over those blocks with the same per-element ops and
// counts as the row loop.
//
// Truncation scoping: when `trunc` is configured, every block's kernels run
// under TruncScope(trunc, trunc_enabled(level)) — the per-AMR-level dynamic
// cutoff of the paper's M-l experiments; the batch path groups a thread's
// blocks by that gate, so one span never mixes truncated and native work.
// CFL control and the AMR machinery always run in native double (paper
// §6.1: the AMR algorithm itself is not truncated, it only reacts to
// truncated data).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
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
  /// Run every stage of a sweep (primitive recovery, reconstruction,
  /// Riemann solve, update) through the array batch dispatch (DESIGN.md §8)
  /// when running op-mode with T = Real, over spans of up to
  /// kMaxSpanBlocks leaf blocks. Bit-identical results and counters; only
  /// the dispatch overhead changes. The double baseline and mem-mode always
  /// take the scalar row loop.
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
/// the same native product as the scalar form's). Both operands hold lanes
/// (they are differences of Vecs). Every lane is 0.0 or a copy of an
/// operand lane, so the result keeps a tag the operands share.
inline batch::Vec plm_minmod(const batch::Vec& a, const batch::Vec& b) {
  const double* pa = a.data();
  const double* pb = b.data();
  batch::Vec r = batch::Vec::gather(a.size(), [&](std::size_t i) {
    if (pa[i] * pb[i] <= 0.0) return 0.0;
    return std::fabs(pa[i]) < std::fabs(pb[i]) ? pa[i] : pb[i];
  });
  if (a.exact() == b.exact()) r.set_exact(a.exact());
  return r;
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
    // Batched dispatch applies to the instrumented op-mode run only; the
    // double baseline and mem-mode take the row loop (DESIGN.md §8).
    if constexpr (std::is_same_v<T, Real>) {
      if (cfg_.batch && rt::Runtime::instance().mode() == rt::Mode::Op) {
        sweep_batch(g, dt, xdir);
        return;
      }
    }
    const int n_interior = xdir ? g.config().nxb : g.config().nyb;
    const int n_rows = xdir ? g.config().nyb : g.config().nxb;
    const int ng = g.config().ng;

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

  /// Most blocks one batch span covers. By ~2000 lanes (28 blocks of 8x8
  /// cells, the top row of BENCH_simd.json's Vec ladder) a Vec operator
  /// costs what its SIMD kernel costs, so longer spans gain nothing, while a
  /// Riemann solve keeps a few dozen Vecs live: at 32 blocks (2304 faces,
  /// 18 KB a Vec) they stay in L2, whereas one span over all 196 leaves of
  /// a level-6 Sedov grid ran ~25% slower than spans of 16-64 blocks.
  static constexpr std::size_t kMaxSpanBlocks = 32;

  /// The batch path of one sweep. Each thread takes a contiguous share of
  /// the leaves, splits it by truncation gate, and runs each group through
  /// sweep_blocks, kMaxSpanBlocks blocks at a time.
  void sweep_batch(amr::AmrGrid<T>& g, double dt, bool xdir) {
#pragma omp parallel
    {
      std::vector<int> by_gate[2];
#pragma omp for schedule(static) nowait
      for (int n = 0; n < g.num_leaves(); ++n) {
        by_gate[cfg_.trunc_enabled(g.leaf(n).level) ? 1 : 0].push_back(n);
      }
      for (const bool gate : {true, false}) {
        const std::span<const int> group = by_gate[gate ? 1 : 0];
        for (std::size_t i = 0; i < group.size(); i += kMaxSpanBlocks) {
          sweep_blocks(g, group.subspan(i, std::min(kMaxSpanBlocks, group.size() - i)), dt, xdir,
                       gate);
        }
      }
    }
  }

  /// One sweep over `leaves`, all under truncation gate `gate`: each stage
  /// runs its kernel's batch::Vec instantiation once over every row of every
  /// block — one lane per pencil cell (primitive recovery), per face
  /// (reconstruction and Riemann solve) or per interior cell (update, with
  /// each lane's dt/dx taken from its block's level). Blocks and rows never
  /// share cells, so finishing each stage for all of them before the next
  /// one starts gives the row loop's per-element ops, results and counts.
  void sweep_blocks(amr::AmrGrid<T>& g, std::span<const int> leaves, double dt, bool xdir,
                    bool gate) {
    using batch::Vec;
    std::optional<TruncScope> scope;
    if (cfg_.trunc) scope.emplace(*cfg_.trunc, gate);
    Region hydro_region("hydro");

    const std::size_t nint = xdir ? g.config().nxb : g.config().nyb;  // per pencil
    const std::size_t rows = xdir ? g.config().nyb : g.config().nxb;  // per block
    const std::size_t ng = g.config().ng;
    const std::size_t cells = nint + 2 * ng;  // per pencil, guards included
    const std::size_t faces = nint + 1;       // per pencil
    const std::size_t pencils = leaves.size() * rows;
    // Cell kk of a pencil (kk = k + ng, guards included) of variable var in
    // row `row` of a block sits at data[var_base * var + row_base(row) +
    // kk * step]. Pencil cells carry no exactness tag: the guard cells come
    // from untruncated mesh ops.
    const std::size_t sx = static_cast<std::size_t>(g.stride_x());
    const std::size_t var_base = sx * static_cast<std::size_t>(g.stride_y());
    const std::size_t step = xdir ? 1 : sx;
    const auto row_base = [&](std::size_t row) { return xdir ? (row + ng) * sx : row + ng; };
    // Cells [first, first + count) of every pencil, pencil after pencil.
    const auto pencil_cells = [&](int var, std::size_t first, std::size_t count) {
      Vec out(pencils * count);
      double* o = out.data();
      for (const int n : leaves) {
        const Real* d = g.leaf(n).data.data() + var_base * static_cast<std::size_t>(var);
        for (std::size_t row = 0; row < rows; ++row) {
          const Real* c = d + row_base(row) + first * step;
          for (std::size_t k = 0; k < count; ++k) *o++ = c[k * step].raw();
        }
      }
      return out;
    };

    const PrimState<Vec> w =
        load_prim(pencil_cells(DENS, 0, cells), pencil_cells(MOMX, 0, cells),
                  pencil_cells(MOMY, 0, cells), pencil_cells(ENER, 0, cells), xdir, cfg_);
    // The cells at offset `off` from every face (face f of a pencil sits
    // between its cells f-1 and f), copies that keep their source's tag.
    const auto at_faces = [&](int off) {
      PrimState<Vec> s;
      batch::zip_members(s, w, [&](Vec& out, const Vec& m) {
        out = Vec(pencils * faces);
        const double* src = m.data() + static_cast<std::ptrdiff_t>(ng) + off;
        for (std::size_t p = 0; p < pencils; ++p) {
          std::copy_n(src + p * cells, faces, out.data() + p * faces);
        }
        out.set_exact(m.exact());
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
      Vec dtdx(pencils * nint);
      double* o = dtdx.data();
      for (const int n : leaves) {
        const int level = g.leaf(n).level;
        o = std::fill_n(o, rows * nint, dt / (xdir ? g.dx(level) : g.dy(level)));
      }
      const int vars[4] = {DENS, xdir ? MOMX : MOMY, xdir ? MOMY : MOMX, ENER};
      for (int v = 0; v < 4; ++v) {
        // The flux through the face at offset `off` from every interior cell.
        const auto flux_at = [&](std::size_t off) {
          const Vec& f = fx.f[v];
          Vec out(pencils * nint);
          for (std::size_t p = 0; p < pencils; ++p) {
            std::copy_n(f.data() + p * faces + off, nint, out.data() + p * nint);
          }
          out.set_exact(f.exact());
          return out;
        };
        const Vec out =
            flux_update(pencil_cells(vars[v], ng, nint), dtdx, flux_at(0), flux_at(1));
        const double* src = out.data();
        for (const int n : leaves) {
          Real* d = g.leaf(n).data.data() + var_base * static_cast<std::size_t>(vars[v]);
          for (std::size_t row = 0; row < rows; ++row) {
            Real* c = d + row_base(row) + ng * step;
            for (std::size_t k = 0; k < nint; ++k) c[k * step] = Real::adopt_raw(*src++);
          }
        }
      }
    }
    rt::Runtime::instance().count_mem(static_cast<u64>(pencils * nint) * kNumVars * 2 *
                                      sizeof(double));
  }

  HydroConfig cfg_;
};

}  // namespace raptor::hydro

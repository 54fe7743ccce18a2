// Rising-bubble multiphase solver (the paper's Bubble workload, §4.2/§6.2):
// one-fluid incompressible Navier-Stokes on a MAC staggered grid with a
// level-set interface, fractional-step projection, WENO5 level-set
// advection, second-order central diffusion and CSF surface tension.
//
// Truncation scoping mirrors the paper's experiment exactly:
//   * "incomp/advect" (WENO5 level-set transport + momentum advection) and
//     "incomp/diffuse" (viscous terms) are the truncated modules;
//   * buoyancy, surface tension, and the pressure projection run natively —
//     the projection substitutes for Flash-X's Hypre solve, an external
//     library the RAPTOR pass does not instrument;
//   * a *virtual refinement level* field derived from the distance to the
//     interface (the same criterion Flash-X's AMR refines on) drives the
//     per-cell M-l truncation cutoffs of Fig. 1: "Trunc. Everywhere" is
//     cutoff_l = 0; "Trunc. Cutoff M-1" disables truncation on the finest
//     virtual level (the interface band), and so on.
//
// Nondimensional parameters (paper §4.2): density ratio rho' (water/air),
// viscosity ratio mu', Reynolds Re (water), Froude Fr, Weber We. phi > 0 is
// the air phase.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "incomp/levelset.hpp"
#include "incomp/poisson.hpp"
#include "incomp/weno.hpp"
#include "runtime/config.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::incomp {

// ---------------------------------------------------------------------------
// Stage kernels, written once for double, Real and batch::Vec
// ---------------------------------------------------------------------------

/// First-order upwind advection of a face velocity q by the velocity
/// (ax, ay): q - dt (ax dq/dx + ay dq/dy), each one-sided difference taken
/// on the side its component comes from (xm/xp, ym/yp: q's neighbours in
/// x and y). Shared by the u faces (ax = q) and the v faces (ay = q).
template <class S>
S advect_face(const S& q, const S& xm, const S& xp, const S& ym, const S& yp, const S& ax,
              const S& ay, double dt, double hx, double hy) {
  const auto upx = ax >= 0.0;
  const auto upy = ay >= 0.0;
  const S dqdx = (select(upx, q, xp) - select(upx, xm, q)) * S(1.0 / hx);
  const S dqdy = (select(upy, q, yp) - select(upy, ym, q)) * S(1.0 / hy);
  return q - S(dt) * (ax * dqdx + ay * dqdy);
}

/// Explicit viscous update of a face velocity: acc + dt nu * lap(q), with
/// the five-point Laplacian of q from its neighbours. Shared by the u and v
/// faces.
template <class S>
S diffuse_face(const S& acc, const S& q, const S& xm, const S& xp, const S& ym, const S& yp,
               const S& dt_nu, double hx, double hy) {
  const S lap = (xp - S(2.0) * q + xm) * S(1.0 / (hx * hx)) +
                (yp - S(2.0) * q + ym) * S(1.0 / (hy * hy));
  return acc + dt_nu * lap;
}

struct BubbleConfig {
  int nx = 64, ny = 128;
  double lx = 1.0, ly = 2.0;
  double re = 500.0;        ///< Reynolds number (water phase)
  double fr = 1.0;          ///< Froude number
  double we = 125.0;        ///< Weber number
  double rho_ratio = 100.0; ///< water/air density ratio (paper: 1000)
  double mu_ratio = 100.0;  ///< water/air viscosity ratio
  double bubble_r = 0.15;
  double cx = 0.5, cy = 0.5;
  double cfl = 0.25;
  int reinit_interval = 10;
  int reinit_iters = 5;
  double poisson_tol = 1e-7;
  int poisson_max_iter = 600;
  /// Virtual AMR depth and the |phi| band width per level.
  int max_vlevel = 3;
  double level_width = 0.08;
  /// Truncation of the advect/diffuse modules; cutoff_l = l of "M-l".
  std::optional<rt::TruncationSpec> trunc;
  int cutoff_l = 0;
  /// Run every truncated stage (level-set and momentum advection, viscous
  /// terms) through the array batch dispatch (DESIGN.md §8) when running
  /// op-mode with S = Real: each thread gathers its share of the cells or
  /// faces, per truncation gate, into spans of at most kMaxSpanLanes lanes
  /// and runs the stage kernel's batch::Vec instantiation over each, with
  /// the scope pushed once per span — bit-identical results and counters,
  /// one batch call per operator. The double baseline and mem-mode always
  /// take the per-point loop.
  bool batch = true;
};

template <class S>
class BubbleSim {
 public:
  explicit BubbleSim(BubbleConfig cfg)
      : cfg_(std::move(cfg)),
        hx_(cfg_.lx / cfg_.nx),
        hy_(cfg_.ly / cfg_.ny),
        solver_(cfg_.nx, cfg_.ny, hx_, hy_) {
    u_.assign(static_cast<std::size_t>(cfg_.nx + 1) * cfg_.ny, S(0.0));
    v_.assign(static_cast<std::size_t>(cfg_.nx) * (cfg_.ny + 1), S(0.0));
    phi_.assign(static_cast<std::size_t>(cfg_.nx) * cfg_.ny, S(0.0));
    p_.assign(static_cast<std::size_t>(cfg_.nx) * cfg_.ny, 0.0);
    vlevel_.assign(phi_.size(), cfg_.max_vlevel);
    for (int j = 0; j < cfg_.ny; ++j) {
      for (int i = 0; i < cfg_.nx; ++i) {
        const double x = (i + 0.5) * hx_, y = (j + 0.5) * hy_;
        const double r = std::sqrt((x - cfg_.cx) * (x - cfg_.cx) + (y - cfg_.cy) * (y - cfg_.cy));
        phi_[pidx(i, j)] = S(cfg_.bubble_r - r);
      }
    }
    update_vlevels();
  }

  [[nodiscard]] const BubbleConfig& config() const { return cfg_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] double last_divergence() const { return last_div_; }
  [[nodiscard]] int max_vlevel_present() const { return cfg_.max_vlevel; }

  /// Level-set snapshot (native doubles) for diagnostics and comparison.
  [[nodiscard]] ScalarField phi_field() const {
    ScalarField f;
    f.nx = cfg_.nx;
    f.ny = cfg_.ny;
    f.hx = hx_;
    f.hy = hy_;
    f.v.resize(phi_.size());
    for (std::size_t k = 0; k < phi_.size(); ++k) f.v[k] = to_double(phi_[k]);
    return f;
  }

  [[nodiscard]] InterfaceMetrics metrics() const {
    return interface_metrics(phi_field(), smoothing_eps());
  }

  /// One projection step; returns dt.
  double step() {
    const double dt = compute_dt();
    advect_phi(dt);
    if (cfg_.reinit_interval > 0 && steps_ % cfg_.reinit_interval == 0) {
      ScalarField f = phi_field();
      reinitialize(f, cfg_.reinit_iters);
      for (std::size_t k = 0; k < phi_.size(); ++k) phi_[k] = S(f.v[k]);
    }
    update_vlevels();
    predictor(dt);
    project(dt);
    time_ += dt;
    ++steps_;
    return dt;
  }

  // Exposed for tests.
  [[nodiscard]] double density_at(int i, int j) const {
    return rho_of(to_double(phi_[pidx(i, j)]));
  }
  [[nodiscard]] int vlevel_at(int i, int j) const { return vlevel_[pidx(i, j)]; }
  [[nodiscard]] bool cell_truncated(int i, int j) const {
    return vlevel_[pidx(i, j)] <= cfg_.max_vlevel - cfg_.cutoff_l;
  }
  [[nodiscard]] double velocity_u(int i, int j) const { return to_double(u_[uidx(i, j)]); }
  [[nodiscard]] double velocity_v(int i, int j) const { return to_double(v_[vidx(i, j)]); }

 private:
  [[nodiscard]] std::size_t pidx(int i, int j) const {
    return static_cast<std::size_t>(j) * cfg_.nx + i;
  }
  [[nodiscard]] std::size_t uidx(int i, int j) const {
    return static_cast<std::size_t>(j) * (cfg_.nx + 1) + i;
  }
  [[nodiscard]] std::size_t vidx(int i, int j) const {
    return static_cast<std::size_t>(j) * cfg_.nx + i;
  }
  [[nodiscard]] double smoothing_eps() const { return 1.5 * std::min(hx_, hy_); }

  [[nodiscard]] double rho_of(double phi) const {
    const double h = heaviside(phi, smoothing_eps());
    return (1.0 - h) + h / cfg_.rho_ratio;  // water = 1, air = 1/ratio
  }
  [[nodiscard]] double mu_of(double phi) const {
    const double h = heaviside(phi, smoothing_eps());
    const double mu_w = 1.0 / cfg_.re;
    return (1.0 - h) * mu_w + h * mu_w / cfg_.mu_ratio;
  }

  /// A field on one of the staggered grids (row length w, h rows); reads
  /// clamp to its edges.
  struct Field {
    const std::vector<S>& v;
    int w, h;
    [[nodiscard]] const S& at(int i, int j) const {
      return v[static_cast<std::size_t>(std::clamp(j, 0, h - 1)) * w + std::clamp(i, 0, w - 1)];
    }
  };
  [[nodiscard]] Field u_field(const std::vector<S>& u) const { return {u, cfg_.nx + 1, cfg_.ny}; }
  [[nodiscard]] Field v_field(const std::vector<S>& v) const { return {v, cfg_.nx, cfg_.ny + 1}; }

  /// A cell or face (i, j) a stage runs over.
  struct Point {
    int i, j;
  };

  /// A stage kernel's operands at one point, in the instrumented scalar.
  struct PointAt {
    using value_type = S;
    int i, j;
    [[nodiscard]] S get(const Field& f, int di, int dj) const { return f.at(i + di, j + dj); }
    /// A per-point native value fn(i, j) as an operand.
    template <class Fn>
    [[nodiscard]] S native(const Fn& fn) const {
      return S(fn(i, j));
    }
    void put(std::vector<S>& dst, int w, S value) const {
      dst[static_cast<std::size_t>(j) * w + i] = std::move(value);
    }
  };

  /// The same operands over a span of points, one lane each (S = Real,
  /// op-mode: lanes carry raw payloads).
  struct SpanAt {
    using value_type = batch::Vec;
    std::span<const Point> pts;
    [[nodiscard]] batch::Vec get(const Field& f, int di, int dj) const {
      return batch::Vec::gather(pts.size(), [&](std::size_t k) {
        return f.at(pts[k].i + di, pts[k].j + dj).raw();
      });
    }
    template <class Fn>
    [[nodiscard]] batch::Vec native(const Fn& fn) const {
      return batch::Vec::gather(pts.size(), [&](std::size_t k) { return fn(pts[k].i, pts[k].j); });
    }
    void put(std::vector<S>& dst, int w, const batch::Vec& value) const {
      for (std::size_t k = 0; k < pts.size(); ++k) {
        dst[static_cast<std::size_t>(pts[k].j) * w + pts[k].i] = Real::adopt_raw(value[k]);
      }
    }
  };

  void update_vlevels() {
    for (int j = 0; j < cfg_.ny; ++j) {
      for (int i = 0; i < cfg_.nx; ++i) {
        const double d = std::fabs(to_double(phi_[pidx(i, j)]));
        const int drop = static_cast<int>(d / cfg_.level_width);
        vlevel_[pidx(i, j)] = std::clamp(cfg_.max_vlevel - drop, 1, cfg_.max_vlevel);
      }
    }
  }

  /// True when this cell's virtual level is truncated under the M-l cutoff.
  [[nodiscard]] bool gate(int i, int j) const {
    return vlevel_[pidx(i, j)] <= cfg_.max_vlevel - cfg_.cutoff_l;
  }

  [[nodiscard]] double compute_dt() const {
    double umax = 1e-9;
    for (const auto& x : u_) umax = std::max(umax, std::fabs(to_double(x)));
    for (const auto& x : v_) umax = std::max(umax, std::fabs(to_double(x)));
    const double h = std::min(hx_, hy_);
    const double g = 1.0 / (cfg_.fr * cfg_.fr);
    const double sigma = 1.0 / cfg_.we;
    const double rho_min = 1.0 / cfg_.rho_ratio;
    // Largest kinematic viscosity across the phases limits the explicit
    // diffusion step.
    const double nu_max =
        std::max(1.0 / cfg_.re, (1.0 / cfg_.re / cfg_.mu_ratio) / rho_min);
    double dt = cfg_.cfl * h / umax;
    dt = std::min(dt, 0.5 * std::sqrt(h / g));
    dt = std::min(dt, 0.5 * std::sqrt((1.0 + rho_min) * h * h * h / (4.0 * M_PI * sigma)));
    dt = std::min(dt, 0.2 * h * h / nu_max);
    return dt;
  }

  /// Most points one batch span holds. On the 64x128 bubble, caps from 256
  /// to 8192 ran within noise of each other; 1024 keeps the WENO kernel's
  /// few dozen live Vecs (8 KB each) in L2 (DESIGN.md §8).
  static constexpr std::size_t kMaxSpanLanes = 1024;

  /// Runs `stage` over the points [i0, i1) x [j0, j1) in region `label`,
  /// each under TruncScope(trunc, gate(i, j)) when cfg.trunc is set.
  /// stage(at) evaluates a kernel on the operands `at` reads and stores the
  /// result through it. In op-mode with S = Real and cfg.batch, each thread
  /// takes a static contiguous share of the points, groups it by gate and
  /// runs stage's batch::Vec instantiation over spans of up to
  /// kMaxSpanLanes points, pushing the scope once per span; otherwise the
  /// stage runs point by point on S. Points never read what another point
  /// of the stage writes, so both give the same per-point ops, results and
  /// counts. `mem_bytes` per point go to count_mem outside the scopes.
  template <class Gate, class Stage>
  void for_each_point(const char* label, int i0, int i1, int j0, int j1, const Gate& gate,
                      const Stage& stage, u64 mem_bytes = 0) {
    // Region entry happens inside the parallel block: every executing
    // thread must carry the label, or per-region profiles, overrides, and
    // exclusions would only see the master thread's share.
    if constexpr (std::is_same_v<S, Real>) {
      if (cfg_.batch && rt::Runtime::instance().mode() == rt::Mode::Op) {
        const int w = i1 - i0, n = w * (j1 - j0);
#pragma omp parallel
        {
          Region region(label);
          std::vector<Point> share[2];  // by gate: [0] native or untruncated, [1] truncated
#pragma omp for schedule(static) nowait
          for (int p = 0; p < n; ++p) {
            const int i = i0 + p % w, j = j0 + p / w;
            share[cfg_.trunc && gate(i, j) ? 1 : 0].push_back({i, j});
          }
          for (const int g : {1, 0}) {
            const std::span<const Point> pts = share[g];
            for (std::size_t k = 0; k < pts.size(); k += kMaxSpanLanes) {
              std::optional<TruncScope> sc;
              if (cfg_.trunc) sc.emplace(*cfg_.trunc, g == 1);
              stage(SpanAt{pts.subspan(k, std::min(kMaxSpanLanes, pts.size() - k))});
            }
          }
          if (mem_bytes != 0) {
            rt::Runtime::instance().count_mem((share[0].size() + share[1].size()) * mem_bytes);
          }
        }
        return;
      }
    }
#pragma omp parallel
    {
      Region region(label);
#pragma omp for schedule(dynamic)
      for (int j = j0; j < j1; ++j) {
        for (int i = i0; i < i1; ++i) {
          std::optional<TruncScope> sc;
          if (cfg_.trunc) sc.emplace(*cfg_.trunc, gate(i, j));
          stage(PointAt{i, j});
        }
        if (mem_bytes != 0) rt::Runtime::instance().count_mem((i1 - i0) * mem_bytes);
      }
    }
  }

  /// WENO5 level-set transport by the cell-centred velocity.
  void advect_phi(double dt) {
    const Field u = u_field(u_), v = v_field(v_), phi{phi_, cfg_.nx, cfg_.ny};
    std::vector<S> next(phi_.size());
    for_each_point(
        "incomp/advect", 0, cfg_.nx, 0, cfg_.ny, [&](int i, int j) { return gate(i, j); },
        [&](const auto& at) {
          using T = typename std::decay_t<decltype(at)>::value_type;
          const T uc = (at.get(u, 0, 0) + at.get(u, 1, 0)) * T(0.5);
          const T vc = (at.get(v, 0, 0) + at.get(v, 0, 1)) * T(0.5);
          const T dphidx = weno5_derivative<T>([&](int k) { return at.get(phi, k, 0); }, uc, hx_);
          const T dphidy = weno5_derivative<T>([&](int k) { return at.get(phi, 0, k); }, vc, hy_);
          at.put(next, cfg_.nx, at.get(phi, 0, 0) - T(dt) * (uc * dphidx + vc * dphidy));
        },
        16 * sizeof(double));
    phi_ = std::move(next);
  }

  void predictor(double dt) {
    const double g = 1.0 / (cfg_.fr * cfg_.fr);
    const double sigma = 1.0 / cfg_.we;
    const int nx = cfg_.nx, ny = cfg_.ny;
    const ScalarField phid = phi_field();
    std::vector<S> us = u_, vs = v_;
    const Field u = u_field(u_), v = v_field(v_), u_acc = u_field(us), v_acc = v_field(vs);
    // dt * nu at a face, nu the kinematic viscosity of its phase mix.
    const auto face_dt_nu = [&](double phi_face) {
      const double nu = mu_of(phi_face) / rho_of(phi_face);
      return dt * nu;
    };

    // u faces (interior: no penetration at the side walls).
    const auto u_gate = [&](int i, int j) { return gate(i - 1, j) && gate(i, j); };
    for_each_point("incomp/advect", 1, nx, 0, ny, u_gate, [&](const auto& at) {
      using T = typename std::decay_t<decltype(at)>::value_type;
      const T q = at.get(u, 0, 0);
      const T vbar = (at.get(v, -1, 0) + at.get(v, 0, 0) + at.get(v, -1, 1) + at.get(v, 0, 1)) *
                     T(0.25);
      at.put(us, nx + 1,
             advect_face(q, at.get(u, -1, 0), at.get(u, 1, 0), at.get(u, 0, -1), at.get(u, 0, 1),
                         q, vbar, dt, hx_, hy_));
    });
    for_each_point("incomp/diffuse", 1, nx, 0, ny, u_gate, [&](const auto& at) {
      const auto dt_nu = at.native(
          [&](int i, int j) { return face_dt_nu(0.5 * (phid.at(i - 1, j) + phid.at(i, j))); });
      at.put(us, nx + 1,
             diffuse_face(at.get(u_acc, 0, 0), at.get(u, 0, 0), at.get(u, -1, 0),
                          at.get(u, 1, 0), at.get(u, 0, -1), at.get(u, 0, 1), dt_nu, hx_, hy_));
    });
    // Surface tension x-component (native force, added outside truncation).
    for (int j = 0; j < ny; ++j) {
      for (int i = 1; i < nx; ++i) {
        const double phi_face = 0.5 * (phid.at(i - 1, j) + phid.at(i, j));
        const double rho_f = rho_of(phi_face);
        const double kap = 0.5 * (curvature(phid, i - 1, j) + curvature(phid, i, j));
        const double dh =
            (heaviside(phid.at(i, j), smoothing_eps()) -
             heaviside(phid.at(i - 1, j), smoothing_eps())) /
            hx_;
        us[uidx(i, j)] = us[uidx(i, j)] + S(dt * sigma * kap * dh / rho_f);
      }
    }

    // v faces (interior: no penetration at top/bottom walls).
    const auto v_gate = [&](int i, int j) { return gate(i, j - 1) && gate(i, j); };
    for_each_point("incomp/advect", 0, nx, 1, ny, v_gate, [&](const auto& at) {
      using T = typename std::decay_t<decltype(at)>::value_type;
      const T q = at.get(v, 0, 0);
      const T ubar = (at.get(u, 0, -1) + at.get(u, 1, -1) + at.get(u, 0, 0) + at.get(u, 1, 0)) *
                     T(0.25);
      at.put(vs, nx,
             advect_face(q, at.get(v, -1, 0), at.get(v, 1, 0), at.get(v, 0, -1), at.get(v, 0, 1),
                         ubar, q, dt, hx_, hy_));
    });
    for_each_point("incomp/diffuse", 0, nx, 1, ny, v_gate, [&](const auto& at) {
      const auto dt_nu = at.native(
          [&](int i, int j) { return face_dt_nu(0.5 * (phid.at(i, j - 1) + phid.at(i, j))); });
      at.put(vs, nx,
             diffuse_face(at.get(v_acc, 0, 0), at.get(v, 0, 0), at.get(v, -1, 0),
                          at.get(v, 1, 0), at.get(v, 0, -1), at.get(v, 0, 1), dt_nu, hx_, hy_));
    });
    // Buoyancy + surface tension y-component (native forces).
    for (int j = 1; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double phi_face = 0.5 * (phid.at(i, j - 1) + phid.at(i, j));
        const double rho_f = rho_of(phi_face);
        // Gravity with the hydrostatic water column subtracted: quiescent
        // water feels no net force, the light phase rises.
        const double buoy = -g * (rho_f - 1.0) / rho_f;
        const double kap = 0.5 * (curvature(phid, i, j - 1) + curvature(phid, i, j));
        const double dh =
            (heaviside(phid.at(i, j), smoothing_eps()) -
             heaviside(phid.at(i, j - 1), smoothing_eps())) /
            hy_;
        vs[vidx(i, j)] = vs[vidx(i, j)] + S(dt * (buoy + sigma * kap * dh / rho_f));
      }
    }

    u_ = std::move(us);
    v_ = std::move(vs);
    enforce_walls();
  }

  void enforce_walls() {
    for (int j = 0; j < cfg_.ny; ++j) {
      u_[uidx(0, j)] = S(0.0);
      u_[uidx(cfg_.nx, j)] = S(0.0);
    }
    for (int i = 0; i < cfg_.nx; ++i) {
      v_[vidx(i, 0)] = S(0.0);
      v_[vidx(i, cfg_.ny)] = S(0.0);
    }
  }

  void project(double dt) {
    // External (Hypre-like) solve: native double throughout.
    const ScalarField phid = phi_field();
    const int nx = cfg_.nx, ny = cfg_.ny;
    std::vector<double> beta_x(static_cast<std::size_t>(nx + 1) * ny, 0.0);
    std::vector<double> beta_y(static_cast<std::size_t>(nx) * (ny + 1), 0.0);
    for (int j = 0; j < ny; ++j) {
      for (int i = 1; i < nx; ++i) {
        beta_x[static_cast<std::size_t>(j) * (nx + 1) + i] =
            1.0 / rho_of(0.5 * (phid.at(i - 1, j) + phid.at(i, j)));
      }
    }
    for (int j = 1; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        beta_y[static_cast<std::size_t>(j) * nx + i] =
            1.0 / rho_of(0.5 * (phid.at(i, j - 1) + phid.at(i, j)));
      }
    }
    std::vector<double> rhs(static_cast<std::size_t>(nx) * ny, 0.0);
    double mean = 0.0;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double div = (to_double(u_[uidx(i + 1, j)]) - to_double(u_[uidx(i, j)])) / hx_ +
                           (to_double(v_[vidx(i, j + 1)]) - to_double(v_[vidx(i, j)])) / hy_;
        rhs[pidx(i, j)] = div / dt;
        mean += rhs[pidx(i, j)];
      }
    }
    mean /= static_cast<double>(rhs.size());
    for (double& r : rhs) r -= mean;  // enforce all-Neumann compatibility

    solver_.solve(p_, rhs, beta_x, beta_y, cfg_.poisson_tol, cfg_.poisson_max_iter);

    for (int j = 0; j < ny; ++j) {
      for (int i = 1; i < nx; ++i) {
        const double bx = beta_x[static_cast<std::size_t>(j) * (nx + 1) + i];
        const double gp = (p_[pidx(i, j)] - p_[pidx(i - 1, j)]) / hx_;
        u_[uidx(i, j)] = S(to_double(u_[uidx(i, j)]) - dt * bx * gp);
      }
    }
    for (int j = 1; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double by = beta_y[static_cast<std::size_t>(j) * nx + i];
        const double gp = (p_[pidx(i, j)] - p_[pidx(i, j - 1)]) / hy_;
        v_[vidx(i, j)] = S(to_double(v_[vidx(i, j)]) - dt * by * gp);
      }
    }
    enforce_walls();

    double worst = 0.0;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double div = (to_double(u_[uidx(i + 1, j)]) - to_double(u_[uidx(i, j)])) / hx_ +
                           (to_double(v_[vidx(i, j + 1)]) - to_double(v_[vidx(i, j)])) / hy_;
        worst = std::max(worst, std::fabs(div));
      }
    }
    last_div_ = worst;
  }

  BubbleConfig cfg_;
  double hx_, hy_;
  PoissonSolver<double> solver_;
  std::vector<S> u_, v_, phi_;
  std::vector<double> p_;
  std::vector<int> vlevel_;
  double time_ = 0.0;
  double last_div_ = 0.0;
  int steps_ = 0;
};

}  // namespace raptor::incomp

// Block-structured adaptive mesh refinement (AMR), Flash-X/PARAMESH style.
//
// The physical 2D domain is divided into fixed-size blocks organized in a
// quadtree: every block holds nxb x nyb interior cells plus ng guard layers;
// blocks one level up are twice the size in each dimension (paper §4.1,
// Fig. 6). Only leaf blocks carry solution data. The mesh keeps 2:1 level
// balance between adjacent leaves (faces and corners).
//
// Refinement is driven by the Löhner second-derivative estimator, as in
// Flash-X. The estimator always evaluates in native double precision — per
// the paper (§6.1) "it is not the algorithm itself which is working with
// truncated precision"; it merely *reacts* to truncated solution data. That
// reaction is what reproduces the paper's observation that aggressive
// truncation perturbs block counts (Figs. 7a/7b, small mantissas).
//
// The grid is templated on the scalar type T: double gives the
// uninstrumented native substrate, raptor::Real the RAPTOR-profiled one.
//
// Guard fills run from a per-mesh plan (DESIGN.md §15): when the leaf set
// changes, the grid lists every face guard cell of every level once, as a
// copy, prolongation or restriction target held by leaf index and element
// offset, so a fill does no neighbour search and a copied or moved grid
// fills its own blocks.
#pragma once

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "support/common.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"

namespace raptor::amr {

enum class BC { Outflow, Reflect, Periodic };
enum class Side : int { XLo = 0, XHi = 1, YLo = 2, YHi = 3 };

/// Mesh shape, boundaries and refinement criteria. The mesh transfers
/// have no knobs: op-mode runs them as batch::Vec spans, the double
/// substrate and mem-mode natively (DESIGN.md §15).
struct GridConfig {
  int nxb = 8;  ///< interior cells per block, x (even: 2:1 cell alignment)
  int nyb = 8;  ///< interior cells per block, y (even)
  int ng = 2;   ///< guard layers
  int nbx = 1;  ///< root blocks, x
  int nby = 1;  ///< root blocks, y
  int max_level = 4;
  int nvar = 4;
  double xmin = 0.0, xmax = 1.0;
  double ymin = 0.0, ymax = 1.0;
  std::array<BC, 4> bc{BC::Outflow, BC::Outflow, BC::Outflow, BC::Outflow};
  /// Löhner thresholds (Flash-X defaults).
  double refine_thresh = 0.8;
  double derefine_thresh = 0.2;
  /// Variables the estimator inspects.
  std::vector<int> refine_vars{0};
  /// Variables odd under x- / y-reflection (momenta) for Reflect BCs.
  std::vector<int> x_odd_vars{};
  std::vector<int> y_odd_vars{};
  /// Estimator noise filter (Flash-X amr_error_eps analogue).
  double loehner_eps = 0.01;
};

template <class T>
class AmrGrid {
 public:
  struct Block {
    int level = 1;
    int ix = 0, iy = 0;  ///< block coordinates within its level
    std::vector<T> data; ///< [var][j+ng][i+ng], strides from the grid config
  };

  explicit AmrGrid(GridConfig cfg) : cfg_(std::move(cfg)) {
    RAPTOR_REQUIRE(cfg_.ng >= 1 && cfg_.nxb >= 2 * cfg_.ng && cfg_.nyb >= 2 * cfg_.ng,
                   "block too small for guard count");
    // Restriction and the regrid merge average aligned 2x2 cell pairs.
    RAPTOR_REQUIRE(cfg_.nxb % 2 == 0 && cfg_.nyb % 2 == 0, "block sizes must be even");
    RAPTOR_REQUIRE(cfg_.max_level >= 1 && cfg_.max_level <= 12, "bad max_level");
    // The guard-fill plan holds element offsets as u32.
    RAPTOR_REQUIRE(block_elems() <= std::numeric_limits<u32>::max(), "block too large");
    for (int iy = 0; iy < cfg_.nby; ++iy) {
      for (int ix = 0; ix < cfg_.nbx; ++ix) {
        Block b;
        b.level = 1;
        b.ix = ix;
        b.iy = iy;
        b.data.assign(block_elems(), T(0.0));
        leaves_.push_back(std::move(b));
      }
    }
    // Per-level region labels, built once so the hot loops can enter a
    // Region from a cached const char* (DESIGN.md §15 label grammar).
    labels_.reserve(static_cast<std::size_t>(cfg_.max_level));
    for (int l = 1; l <= cfg_.max_level; ++l) {
      const std::string base = "amr/L" + std::to_string(l) + "/";
      labels_.push_back({base + "guard", base + "prolong", base + "restrict"});
    }
    rebuild_map();
  }

  // -- Geometry -----------------------------------------------------------

  [[nodiscard]] const GridConfig& config() const { return cfg_; }
  /// Adjust refinement thresholds at runtime (experiment drivers).
  void set_thresholds(double refine, double derefine) {
    cfg_.refine_thresh = refine;
    cfg_.derefine_thresh = derefine;
  }
  [[nodiscard]] int stride_x() const { return cfg_.nxb + 2 * cfg_.ng; }
  [[nodiscard]] int stride_y() const { return cfg_.nyb + 2 * cfg_.ng; }
  [[nodiscard]] std::size_t block_elems() const {
    return static_cast<std::size_t>(cfg_.nvar) * stride_x() * stride_y();
  }
  [[nodiscard]] int blocks_x(int level) const { return cfg_.nbx << (level - 1); }
  [[nodiscard]] int blocks_y(int level) const { return cfg_.nby << (level - 1); }
  [[nodiscard]] double dx(int level) const {
    return (cfg_.xmax - cfg_.xmin) / (static_cast<double>(blocks_x(level)) * cfg_.nxb);
  }
  [[nodiscard]] double dy(int level) const {
    return (cfg_.ymax - cfg_.ymin) / (static_cast<double>(blocks_y(level)) * cfg_.nyb);
  }
  [[nodiscard]] double cell_x(const Block& b, int i) const {
    return cfg_.xmin + (static_cast<double>(b.ix) * cfg_.nxb + i + 0.5) * dx(b.level);
  }
  [[nodiscard]] double cell_y(const Block& b, int j) const {
    return cfg_.ymin + (static_cast<double>(b.iy) * cfg_.nyb + j + 0.5) * dy(b.level);
  }

  // -- Access ----------------------------------------------------------------

  [[nodiscard]] int num_leaves() const { return static_cast<int>(leaves_.size()); }
  [[nodiscard]] Block& leaf(int n) { return leaves_[n]; }
  [[nodiscard]] const Block& leaf(int n) const { return leaves_[n]; }

  /// Cell accessor; i in [-ng, nxb+ng), j in [-ng, nyb+ng).
  [[nodiscard]] T& at(Block& b, int var, int i, int j) const { return b.data[index(var, i, j)]; }
  [[nodiscard]] const T& at(const Block& b, int var, int i, int j) const {
    return at(const_cast<Block&>(b), var, i, j);
  }

  [[nodiscard]] int max_level_present() const {
    int m = 1;
    for (const auto& b : leaves_) m = std::max(m, b.level);
    return m;
  }

  [[nodiscard]] u64 total_cells() const {
    return static_cast<u64>(leaves_.size()) * cfg_.nxb * cfg_.nyb;
  }

  // -- Region labels ----------------------------------------------------------
  //
  // Every mesh phase runs under a per-refinement-level region label so
  // profiles, traces, exclusions and per-region format overrides resolve
  // per level (the per-level precision axis, DESIGN.md §15):
  //   amr/L<k>/guard     guard fill of a level-k block (copies + cross-level
  //                      prolongation/restriction into its guard layers),
  //   amr/L<k>/prolong   regrid split creating level-k children,
  //   amr/L<k>/restrict  regrid merge producing a level-k parent.
  // Exposed so workloads and tests can name the searchable regions.

  [[nodiscard]] const char* guard_label(int level) const { return labels_[level - 1][0].c_str(); }
  [[nodiscard]] const char* prolong_label(int level) const {
    return labels_[level - 1][1].c_str();
  }
  [[nodiscard]] const char* restrict_label(int level) const {
    return labels_[level - 1][2].c_str();
  }

  // -- Initialization -------------------------------------------------------

  /// Set every interior cell from f(x, y, vars). Does not regrid.
  void init(const std::function<void(double, double, std::span<T>)>& f) {
    std::vector<T> vars(cfg_.nvar);
    for (auto& b : leaves_) {
      for (int j = 0; j < cfg_.nyb; ++j) {
        for (int i = 0; i < cfg_.nxb; ++i) {
          f(cell_x(b, i), cell_y(b, j), std::span<T>(vars));
          for (int v = 0; v < cfg_.nvar; ++v) at(b, v, i, j) = vars[v];
        }
      }
    }
  }

  /// Standard Flash-X style IC build: initialize, regrid, re-initialize the
  /// new leaves, until the hierarchy stops changing (sharp ICs refine all
  /// the way to max_level).
  void build_with_ic(const std::function<void(double, double, std::span<T>)>& f) {
    for (int pass = 0; pass < cfg_.max_level + 2; ++pass) {
      init(f);
      fill_guards();
      if (regrid() == 0) break;
    }
    init(f);
    fill_guards();
  }

  // -- Guard fill -------------------------------------------------------------

  /// Fill all guard layers of all leaves from the guard-fill plan:
  /// same-level copies, restriction from finer neighbors, slope-limited
  /// prolongation from coarser neighbors, and physical boundaries. Face
  /// guards only (the dimensional split solvers and the estimator never
  /// read corner guards). Each thread of the team runs its contiguous share
  /// of every level's three lists as one copy and two transfer spans.
  void fill_guards();

  // -- Refinement -------------------------------------------------------------

  /// Löhner error estimate of one block (max over cells, dims and
  /// refine_vars). Reads one guard layer; call fill_guards() first.
  /// Stencils crossing a physical (non-periodic) boundary are skipped:
  /// zero-gradient guards would otherwise fake curvature at every wall and
  /// trigger spurious refinement there.
  [[nodiscard]] double loehner_error(const Block& b) const {
    const bool skip_xlo = b.ix == 0 && cfg_.bc[0] != BC::Periodic;
    const bool skip_xhi = b.ix == blocks_x(b.level) - 1 && cfg_.bc[1] != BC::Periodic;
    const bool skip_ylo = b.iy == 0 && cfg_.bc[2] != BC::Periodic;
    const bool skip_yhi = b.iy == blocks_y(b.level) - 1 && cfg_.bc[3] != BC::Periodic;
    double emax = 0.0;
    for (const int v : cfg_.refine_vars) {
      for (int j = 0; j < cfg_.nyb; ++j) {
        for (int i = 0; i < cfg_.nxb; ++i) {
          const bool x_ok = !((skip_xlo && i == 0) || (skip_xhi && i == cfg_.nxb - 1));
          const bool y_ok = !((skip_ylo && j == 0) || (skip_yhi && j == cfg_.nyb - 1));
          emax = std::max(emax, loehner_cell(b, v, i, j, x_ok, y_ok));
        }
      }
    }
    return emax;
  }

  /// One regrid cycle: estimate, flag, enforce 2:1, split/merge.
  /// Returns the number of leaves created plus destroyed.
  int regrid();

  // -- Reductions ---------------------------------------------------------------

  /// Volume-weighted sum of |var| over the domain.
  [[nodiscard]] double l1(int var) const {
    double acc = 0.0;
    for (const auto& b : leaves_) {
      const double w = dx(b.level) * dy(b.level);
      for (int j = 0; j < cfg_.nyb; ++j) {
        for (int i = 0; i < cfg_.nxb; ++i) {
          acc += w * std::fabs(to_double(at(b, var, i, j)));
        }
      }
    }
    return acc;
  }

  /// Volume-weighted integral of var (conservation checks).
  [[nodiscard]] double integral(int var) const {
    double acc = 0.0;
    for (const auto& b : leaves_) {
      const double w = dx(b.level) * dy(b.level);
      for (int j = 0; j < cfg_.nyb; ++j) {
        for (int i = 0; i < cfg_.nxb; ++i) {
          acc += w * to_double(at(b, var, i, j));
        }
      }
    }
    return acc;
  }

  /// Sample var at a physical point (value of the covering leaf cell).
  [[nodiscard]] double sample(int var, double x, double y) const;

  /// Check the 2:1 balance invariant (tests).
  [[nodiscard]] bool balanced() const;

 private:
  [[nodiscard]] static u64 key_of(int level, int ix, int iy) {
    return (static_cast<u64>(level) << 48) | (static_cast<u64>(iy) << 24) |
           static_cast<u64>(ix);
  }

  /// Element offset of cell (var, i, j) in a block's data.
  [[nodiscard]] std::size_t index(int var, int i, int j) const {
    RAPTOR_ASSERT(var >= 0 && var < cfg_.nvar);
    RAPTOR_ASSERT(i >= -cfg_.ng && i < cfg_.nxb + cfg_.ng);
    RAPTOR_ASSERT(j >= -cfg_.ng && j < cfg_.nyb + cfg_.ng);
    return (static_cast<std::size_t>(var) * stride_y() + (j + cfg_.ng)) * stride_x() +
           (i + cfg_.ng);
  }

  /// Index the leaves and rebuild the guard-fill plan: runs whenever the
  /// leaf set changes, and only then.
  void rebuild_map() {
    map_.clear();
    map_.reserve(leaves_.size() * 2);
    for (std::size_t n = 0; n < leaves_.size(); ++n) {
      map_[key_of(leaves_[n].level, leaves_[n].ix, leaves_[n].iy)] = static_cast<int>(n);
    }
    rebuild_plan();
  }

  [[nodiscard]] int find_leaf(int level, int ix, int iy) const {
    const auto it = map_.find(key_of(level, ix, iy));
    return it == map_.end() ? -1 : it->second;
  }

  [[nodiscard]] double loehner_cell(const Block& b, int v, int i, int j, bool x_ok = true,
                                    bool y_ok = true) const {
    const double eps = cfg_.loehner_eps;
    const auto u = [&](int ii, int jj) { return to_double(at(b, v, ii, jj)); };
    double emax = 0.0;
    if (x_ok) {
      const double um = u(i - 1, j), uc = u(i, j), up = u(i + 1, j);
      const double num = std::fabs(up - 2 * uc + um);
      const double den = std::fabs(up - uc) + std::fabs(uc - um) +
                         eps * (std::fabs(up) + 2 * std::fabs(uc) + std::fabs(um));
      if (den > 0) emax = std::max(emax, num / den);
    }
    if (y_ok) {
      const double um = u(i, j - 1), uc = u(i, j), up = u(i, j + 1);
      const double num = std::fabs(up - 2 * uc + um);
      const double den = std::fabs(up - uc) + std::fabs(uc - um) +
                         eps * (std::fabs(up) + 2 * std::fabs(uc) + std::fabs(um));
      if (den > 0) emax = std::max(emax, num / den);
    }
    return emax;
  }

  // -- Mesh transfers (grid_impl.hpp, DESIGN.md §15) ---------------------
  //
  // A transfer is a walk over its n targets: one destination cell each, the
  // K cells its stencil reads (all in one block) and P native parameters of
  // its formula. walk(emit) calls emit(target) once per target. Each
  // formula is one template on the scalar type (detail::Restriction,
  // detail::Prolongation). The double substrate and mem-mode run its double
  // instantiation on each target as the walk reaches it; op-mode (T = Real)
  // gives each target one lane of a batch::Vec per operand and runs its Vec
  // instantiation once.

  /// What a target reads: the element offsets of its K stencil cells in
  /// one block's data, and the P native parameters of its formula. A copy
  /// reads one cell; its parameter is the sign it is copied with. Every
  /// parameter (a sign, a +-1/4 offset, a limiter code) is exact in float,
  /// which keeps the plan small.
  template <int K, int P>
  struct Stencil {
    std::array<u32, K> at;
    std::array<float, P> param;
  };
  /// A target as a walk emits it: the destination cell and the data of the
  /// block its stencil reads.
  template <int K, int P>
  struct Target {
    T* dst;
    const T* src;
    Stencil<K, P> st;
  };

  /// Run `formula` over the n targets `walk` emits.
  template <int K, int P, class Walk, class F>
  static void transfer(std::size_t n, const Walk& walk, const F& formula);
  /// Copy each of the n targets' source cell into it: T copies (a mem-mode
  /// copy shares its source's shadow entry), plain values where the sign
  /// flips, and in op-mode one quantize-on-move over all of them.
  template <class Walk>
  static void copy(std::size_t n, const Walk& walk);
  /// The prolongation stencil of fine position (fx, fy), in fine cells, of
  /// variable v in a coarse block. With `clamp` it stays in the coarse
  /// interior and keeps the one-sided difference at its edges; otherwise it
  /// reads the coarse block's guards and always limits with minmod.
  [[nodiscard]] Stencil<5, 4> prolong_stencil(int v, int fx, int fy, bool clamp) const;
  /// The restriction stencil of the 2x2 fine cells from (fi, fj) up.
  [[nodiscard]] Stencil<4, 0> restrict_stencil(int v, int fi, int fj) const;

  // -- Guard-fill plan ------------------------------------------------------
  //
  // Every face guard cell of every leaf is one target of one list of its
  // level: a copy (same-level neighbour, or the block itself across a
  // physical boundary), a prolongation from a coarser neighbour or a
  // restriction from finer ones. Targets name blocks by leaf index, so the
  // plan holds for any grid with the same leaves in the same order: copies
  // and moves of the grid, and the grid after a regrid that changes nothing.

  /// A Target held by leaf index and element offset instead of pointers.
  template <int K, int P>
  struct PlanTarget {
    u32 dst_leaf, dst, src_leaf;
    Stencil<K, P> st;
  };
  struct LevelPlan {
    std::vector<PlanTarget<1, 1>> copies;
    std::vector<PlanTarget<5, 4>> prolongs;
    std::vector<PlanTarget<4, 0>> restricts;
  };

  /// Classify every leaf side, then write each level's lists at their exact
  /// size (their capacity is kept across rebuilds).
  void rebuild_plan();

  GridConfig cfg_;
  std::vector<Block> leaves_;
  std::unordered_map<u64, int> map_;
  /// The guard-fill plan, index level - 1.
  std::vector<LevelPlan> plan_;
  /// Cached per-level labels {guard, prolong, restrict}, index level - 1.
  std::vector<std::array<std::string, 3>> labels_;
};

}  // namespace raptor::amr

#include "amr/grid_impl.hpp"  // IWYU pragma: keep

// Out-of-line template implementations for AmrGrid (included by grid.hpp).
//
// The mesh formulas, restriction and slope-limited prolongation, are each
// written once below, templated on the scalar type. Every transfer (guard
// copies, guard prolongation and restriction, regrid merge and split)
// walks its targets once through copy() or transfer(), which run the
// formula natively on double (the native substrate and mem-mode) or as one
// batch::Vec instantiation (op-mode, DESIGN.md §15).
//
// The guard fill walks the plan rebuild_plan() writes when the leaf set
// changes: per level and thread, one copy, one prolongation and one
// restriction call. A regrid collects its merge and split targets afresh
// and runs one restriction and one prolongation call per level.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <tuple>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "amr/grid.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::amr {

namespace detail {
inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::fabs(a) < std::fabs(b) ? a : b;
}

/// Which one-sided difference the prolongation limiter keeps (a native
/// parameter of the formula). A clamped stencil reads the centre cell in
/// place of a missing neighbour, so the difference on that side is
/// computed (and counted) but never kept.
inline constexpr float kSlopeMinmod = 0.0F, kSlopeLo = 1.0F, kSlopeHi = 2.0F;

inline double select_slope(double code, double dm, double dp) {
  if (code == kSlopeLo) return dm;
  if (code == kSlopeHi) return dp;
  return minmod(dm, dp);
}

/// Conservative 2x2 restriction of fine cells f<i><j>: 3 Adds and 1 Mul.
struct Restriction {
  template <class S>
  S operator()(const S& f00, const S& f10, const S& f01, const S& f11) const {
    return S(0.25) * ((f00 + f10) + (f01 + f11));
  }
};

/// Slope-limited prolongation of coarse cell uc to the fine cell at offset
/// (offx, offy), in coarse cells: 4 Subs, 2 Muls and 2 Adds. The limiter's
/// choice (codes cx, cy) is an uncounted selection.
struct Prolongation {
  template <class S>
  S operator()(const S& uc, const S& xlo, const S& xhi, const S& ylo, const S& yhi,
               const S& offx, const S& offy, const S& cx, const S& cy) const {
    const S sx = native(select_slope, cx, uc - xlo, xhi - uc);
    const S sy = native(select_slope, cy, uc - ylo, yhi - uc);
    return (uc + offx * sx) + offy * sy;
  }
};
}  // namespace detail

template <class T>
template <int K, int P, class Walk, class F>
void AmrGrid<T>::transfer(std::size_t n, const Walk& walk, const F& formula) {
  using Tgt = Target<K, P>;
  if (n == 0) return;
  if constexpr (std::is_same_v<T, Real>) {
    if (rt::Runtime::instance().mode() == rt::Mode::Op) {
      // One lane per target: the walk writes every operand's lane and the
      // destination of target k as it reaches it (destinations in pooled
      // lane storage, like the Vecs').
      std::array<batch::Vec, K + P> x;
      std::array<double*, K + P> lanes{};
      for (int o = 0; o < K + P; ++o) {
        x[o] = batch::Vec(n);
        lanes[o] = x[o].data();
      }
      batch::detail::Lanes<T*> dst(n);
      std::size_t k = 0;
      walk([&](const Tgt& t) {
        RAPTOR_ASSERT(k < n);
        for (int o = 0; o < K; ++o) lanes[o][k] = t.src[t.st.at[o]].raw();
        for (int p = 0; p < P; ++p) lanes[K + p][k] = t.st.param[p];
        dst[k++] = t.dst;
      });
      RAPTOR_REQUIRE(k == n, "mesh transfer: target count mismatch");
      const batch::Vec out = std::apply(formula, x);
      for (k = 0; k < n; ++k) *dst[k] = Real::adopt_raw(out[k]);
      return;
    }
  }
  walk([&](const Tgt& t) {
    std::array<double, K + P> x{};
    for (int o = 0; o < K; ++o) x[o] = to_double(t.src[t.st.at[o]]);
    for (int p = 0; p < P; ++p) x[K + p] = t.st.param[p];
    *t.dst = T(std::apply(formula, x));
  });
}

template <class T>
template <class Walk>
void AmrGrid<T>::copy(std::size_t n, const Walk& walk) {
  using Tgt = Target<1, 1>;
  if (n == 0) return;
  if constexpr (std::is_same_v<T, Real>) {
    if (rt::Runtime::instance().mode() == rt::Mode::Op) {
      // Quantize-on-move (the array `_raptor_pre_c`, not a counted op). The
      // sign flips the raw payload first: rounding is symmetric.
      batch::Vec x(n);
      double* lanes = x.data();
      batch::detail::Lanes<T*> dst(n);
      std::size_t k = 0;
      walk([&](const Tgt& t) {
        RAPTOR_ASSERT(k < n);
        const double raw = t.src[t.st.at[0]].raw();
        lanes[k] = t.st.param[0] < 0 ? -raw : raw;
        dst[k++] = t.dst;
      });
      RAPTOR_REQUIRE(k == n, "mesh transfer: target count mismatch");
      rt::Runtime::instance().trunc_array(lanes, lanes, n);
      for (k = 0; k < n; ++k) *dst[k] = Real::adopt_raw(lanes[k]);
      return;
    }
  }
  walk([](const Tgt& t) {
    const T& src = t.src[t.st.at[0]];
    *t.dst = t.st.param[0] < 0 ? T(-to_double(src)) : src;
  });
}

template <class T>
auto AmrGrid<T>::prolong_stencil(int v, int fx, int fy, bool clamp) const -> Stencil<5, 4> {
  const int ci = fx >> 1, cj = fy >> 1, nxb = cfg_.nxb, nyb = cfg_.nyb;
  // The limiter code of coarse index c in a direction of n cells: a clamped
  // stencil reads the centre in place of a missing neighbour.
  const auto code = [&](int c, int n) {
    if (!clamp || (c > 0 && c < n - 1)) return detail::kSlopeMinmod;
    return c > 0 ? detail::kSlopeLo : detail::kSlopeHi;
  };
  const auto c = static_cast<u32>(index(v, ci, cj));
  const auto sx = static_cast<u32>(stride_x());
  return {{c, clamp && ci == 0 ? c : c - 1, clamp && ci == nxb - 1 ? c : c + 1,
           clamp && cj == 0 ? c : c - sx, clamp && cj == nyb - 1 ? c : c + sx},
          {(fx & 1) ? 0.25F : -0.25F, (fy & 1) ? 0.25F : -0.25F, code(ci, nxb), code(cj, nyb)}};
}

template <class T>
auto AmrGrid<T>::restrict_stencil(int v, int fi, int fj) const -> Stencil<4, 0> {
  const auto f00 = static_cast<u32>(index(v, fi, fj));
  const auto sx = static_cast<u32>(stride_x());
  return {{f00, f00 + 1, f00 + sx, f00 + sx + 1}, {}};
}

template <class T>
void AmrGrid<T>::fill_guards() {
  // A guard cell is read from its source once and written once.
  constexpr u64 kBytesPerGuard = 2 * sizeof(double);
#pragma omp parallel
  {
#ifdef _OPENMP
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const auto nt = static_cast<std::size_t>(omp_get_num_threads());
#else
    const std::size_t t = 0, nt = 1;
#endif
    // This thread's contiguous share of a plan list.
    const auto share = [&](const auto& list) {
      const std::size_t n = list.size(), b = n * t / nt;
      return std::span(list).subspan(b, n * (t + 1) / nt - b);
    };
    // The walk over plan entries, resolved against this grid's leaves.
    const auto walk = [this](auto entries) {
      return [this, entries](const auto& emit) {
        for (const auto& pt : entries) {
          emit({leaves_[pt.dst_leaf].data.data() + pt.dst, leaves_[pt.src_leaf].data.data(),
                pt.st});
        }
      };
    };
    for (std::size_t l = 0; l < plan_.size(); ++l) {
      const auto copies = share(plan_[l].copies);
      const auto prolongs = share(plan_[l].prolongs);
      const auto restricts = share(plan_[l].restricts);
      const std::size_t cells = copies.size() + prolongs.size() + restricts.size();
      if (cells == 0) continue;
      // The label is entered on every thread with a share, as in the bubble
      // and Poisson solvers: exclusions, overrides, profiles and traces all
      // see amr/L<k>/guard on the thread doing the work, where k is the
      // destination blocks' level.
      Region region(guard_label(static_cast<int>(l) + 1));
      copy(copies.size(), walk(copies));
      transfer<5, 4>(prolongs.size(), walk(prolongs), detail::Prolongation{});
      transfer<4, 0>(restricts.size(), walk(restricts), detail::Restriction{});
      rt::Runtime::instance().count_mem(cells * kBytesPerGuard);
    }
  }
}

template <class T>
void AmrGrid<T>::rebuild_plan() {
  const int ng = cfg_.ng, nxb = cfg_.nxb, nyb = cfg_.nyb;
  enum class Source { Physical, Same, Coarser, Finer };
  // One leaf side: its guard cells [i0, i1) x [j0, j1), the shift (di, dj)
  // from a guard cell to the same cell in the neighbour's frame, the
  // neighbour's coordinates (nix, niy), periodic wrap applied, the leaves
  // its values come from (the leaf itself across a physical boundary, the
  // same-level or coarser neighbour, or the two finer children along the
  // side) and its first entry in its level's list.
  struct SideLink {
    Source from;
    int src[2];
    int i0, i1, j0, j1, di, dj, nix, niy;
    std::size_t first;
  };
  std::vector<SideLink> links(4 * leaves_.size());
  std::vector<std::array<std::size_t, 3>> sizes(static_cast<std::size_t>(cfg_.max_level));

  // Pass 1: every lookup of the fill, once per mesh, in leaf order.
  for (std::size_t n = 0; n < leaves_.size(); ++n) {
    const Block& b = leaves_[n];
    for (int side = 0; side < 4; ++side) {
      const auto sd = static_cast<Side>(side);
      SideLink& s = links[4 * n + side];
      s = {Source::Physical, {static_cast<int>(n), -1}, 0, nxb, 0, nyb, 0, 0, b.ix, b.iy, 0};
      switch (sd) {
        case Side::XLo: s.i0 = -ng; s.i1 = 0; s.di = nxb; --s.nix; break;
        case Side::XHi: s.i0 = nxb; s.i1 = nxb + ng; s.di = -nxb; ++s.nix; break;
        case Side::YLo: s.j0 = -ng; s.j1 = 0; s.dj = nyb; --s.niy; break;
        case Side::YHi: s.j0 = nyb; s.j1 = nyb + ng; s.dj = -nyb; ++s.niy; break;
      }
      const int bx = blocks_x(b.level), by = blocks_y(b.level);
      const bool physical = (s.nix < 0 || s.nix >= bx || s.niy < 0 || s.niy >= by) &&
                            cfg_.bc[side] != BC::Periodic;
      if (!physical) {
        // Periodic wrap (a no-op inside the domain).
        s.nix = (s.nix + bx) % bx;
        s.niy = (s.niy + by) % by;
        if (const int nb = find_leaf(b.level, s.nix, s.niy); nb >= 0) {
          s.from = Source::Same;
          s.src[0] = nb;
        } else if (const int cb = find_leaf(b.level - 1, s.nix >> 1, s.niy >> 1); cb >= 0) {
          s.from = Source::Coarser;
          s.src[0] = cb;
        } else {
          // The two children along the side: fixed in the side's normal
          // direction, both halves along it.
          s.from = Source::Finer;
          for (int k = 0; k < 2; ++k) {
            const int cx = sd == Side::XLo ? 1 : sd == Side::XHi ? 0 : k;
            const int cy = sd == Side::YLo ? 1 : sd == Side::YHi ? 0 : k;
            s.src[k] = find_leaf(b.level + 1, 2 * s.nix + cx, 2 * s.niy + cy);
            RAPTOR_REQUIRE(s.src[k] >= 0, "guard fill plan: 2:1 balance violated");
          }
        }
      }
      const int kind = s.from == Source::Coarser ? 1 : s.from == Source::Finer ? 2 : 0;
      std::size_t& size = sizes[b.level - 1][kind];
      s.first = size;
      size += static_cast<std::size_t>(cfg_.nvar) * (s.i1 - s.i0) * (s.j1 - s.j0);
    }
  }

  plan_.resize(sizes.size());
  for (std::size_t l = 0; l < sizes.size(); ++l) {
    plan_[l].copies.resize(sizes[l][0]);
    plan_[l].prolongs.resize(sizes[l][1]);
    plan_[l].restricts.resize(sizes[l][2]);
  }

  // Pass 2: write each side's targets, variable-major, from its first entry.
  const auto sx = static_cast<u32>(stride_x());
  const int num = num_leaves();
#pragma omp parallel for schedule(static)
  for (int n = 0; n < num; ++n) {
    const auto leaf = static_cast<u32>(n);
    LevelPlan& lp = plan_[leaves_[n].level - 1];
    for (int side = 0; side < 4; ++side) {
      const SideLink& s = links[4 * n + side];
      const bool xdir = side < 2;  // Side::XLo or Side::XHi
      const auto src = static_cast<u32>(s.src[0]);
      // Writes fn(v, i, j, dst) for every guard cell (v, i, j) of the side,
      // dst its element offset, into `list` from the side's first entry.
      const auto each_guard = [&](auto& list, const auto& fn) {
        auto* out = list.data() + s.first;
        for (int v = 0; v < cfg_.nvar; ++v) {
          for (int j = s.j0; j < s.j1; ++j) {
            const auto row = static_cast<u32>(index(v, 0, j));
            for (int i = s.i0; i < s.i1; ++i) *out++ = fn(v, i, j, row + i);
          }
        }
      };
      switch (s.from) {
        case Source::Physical: {
          // Outflow copies the edge cell; Reflect mirrors about the wall
          // and flips the sign of the odd variables.
          const bool reflect = cfg_.bc[side] == BC::Reflect;
          const auto& odd = xdir ? cfg_.x_odd_vars : cfg_.y_odd_vars;
          const auto mirror = [&](int k, int m) {
            if (!reflect) return std::clamp(k, 0, m - 1);
            return k < 0 ? -k - 1 : 2 * m - k - 1;
          };
          each_guard(lp.copies, [&](int v, int i, int j, u32 dst) {
            const bool flip = reflect && std::find(odd.begin(), odd.end(), v) != odd.end();
            const std::size_t from =
                xdir ? index(v, mirror(i, nxb), j) : index(v, i, mirror(j, nyb));
            return PlanTarget<1, 1>{leaf, dst, leaf,
                                    {{static_cast<u32>(from)}, {flip ? -1.0F : 1.0F}}};
          });
          break;
        }
        case Source::Same: {
          const u32 shift = s.di + s.dj * sx;
          each_guard(lp.copies, [&](int, int, int, u32 dst) {
            return PlanTarget<1, 1>{leaf, dst, src, {{dst + shift}, {1.0F}}};
          });
          break;
        }
        case Source::Coarser:
          // Slope-limited prolongation from the coarse interior (its guards
          // may not be valid during a fill).
          each_guard(lp.prolongs, [&](int v, int i, int j, u32 dst) {
            return PlanTarget<5, 4>{leaf, dst, src,
                                    prolong_stencil(v, (s.nix & 1) * nxb + i + s.di,
                                                    (s.niy & 1) * nyb + j + s.dj, /*clamp=*/true)};
          });
          break;
        case Source::Finer:
          // Conservative restriction of the 2x2 fine cells under the guard
          // cell, from the child along the side that holds them.
          each_guard(lp.restricts, [&](int v, int i, int j, u32 dst) {
            const int fli = 2 * (i + s.di), flj = 2 * (j + s.dj);
            const int cx = fli >= nxb ? 1 : 0, cy = flj >= nyb ? 1 : 0;
            return PlanTarget<4, 0>{leaf, dst, static_cast<u32>(s.src[xdir ? cy : cx]),
                                    restrict_stencil(v, fli - cx * nxb, flj - cy * nyb)};
          });
          break;
      }
    }
  }
}

template <class T>
int AmrGrid<T>::regrid() {
  fill_guards();
  const int n = num_leaves();

  // The estimator below and the flag/balance fixpoint run in native double
  // by design (paper §6.1: the AMR algorithm itself is never truncated; it
  // only *reacts* to truncated solution data). Only the data transfers of
  // step 4 — merge restriction and split prolongation — are instrumented,
  // under amr/L<k>/restrict / amr/L<k>/prolong region labels.

  // 1. Desired level per leaf from the Löhner estimator.
  std::vector<int> desired(n);
#pragma omp parallel for schedule(dynamic)
  for (int i = 0; i < n; ++i) {
    const Block& b = leaves_[i];
    const double err = loehner_error(b);
    int d = b.level;
    if (err > cfg_.refine_thresh) {
      d = std::min(b.level + 1, cfg_.max_level);
    } else if (err < cfg_.derefine_thresh) {
      d = std::max(b.level - 1, 1);
    }
    desired[i] = d;
  }

  // 2. Collect adjacency edges (faces + corners, across levels).
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n) * 8);
  for (int i = 0; i < n; ++i) {
    const Block& b = leaves_[i];
    const int bx = blocks_x(b.level), by = blocks_y(b.level);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dxn = -1; dxn <= 1; ++dxn) {
        if (dxn == 0 && dy == 0) continue;
        int nix = b.ix + dxn, niy = b.iy + dy;
        if (nix < 0 || nix >= bx) {
          if (cfg_.bc[nix < 0 ? 0 : 1] != BC::Periodic) continue;
          nix = (nix + bx) % bx;
        }
        if (niy < 0 || niy >= by) {
          if (cfg_.bc[niy < 0 ? 2 : 3] != BC::Periodic) continue;
          niy = (niy + by) % by;
        }
        if (const int s = find_leaf(b.level, nix, niy); s >= 0) {
          if (i < s) edges.emplace_back(i, s);
          continue;
        }
        if (const int c = find_leaf(b.level - 1, nix >> 1, niy >> 1); c >= 0) {
          edges.emplace_back(std::min(i, c), std::max(i, c));
          continue;
        }
        // Finer: given prior balance the neighbor's children exist at
        // level+1. Only the children that actually touch this block
        // constrain it: for a face, the two children on the shared face;
        // for a corner, the single child at the shared corner. (Connecting
        // all four would over-propagate refinement diagonally.)
        const int cx_lo = dxn == -1 ? 1 : 0;
        const int cx_hi = dxn == 1 ? 0 : 1;
        const int cy_lo = dy == -1 ? 1 : 0;
        const int cy_hi = dy == 1 ? 0 : 1;
        for (int cy = cy_lo; cy <= cy_hi; ++cy) {
          for (int cx = cx_lo; cx <= cx_hi; ++cx) {
            if (const int f = find_leaf(b.level + 1, 2 * nix + cx, 2 * niy + cy); f >= 0) {
              edges.emplace_back(std::min(i, f), std::max(i, f));
            }
          }
        }
      }
    }
  }

  // 3. Make desired levels both 2:1-consistent and *realizable*: a leaf can
  //    only coarsen if its whole sibling quartet coarsens, so an infeasible
  //    merge wish must be demoted back to the current level — which can in
  //    turn invalidate neighbouring merges. Iterate to a joint fixpoint
  //    (desires only ever increase, so this terminates).
  bool adjusted = true;
  while (adjusted) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [a, c] : edges) {
        if (desired[a] > desired[c] + 1) {
          desired[c] = desired[a] - 1;
          changed = true;
        }
        if (desired[c] > desired[a] + 1) {
          desired[a] = desired[c] - 1;
          changed = true;
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      desired[i] = std::clamp(desired[i], std::max(leaves_[i].level - 1, 1),
                              std::min(leaves_[i].level + 1, cfg_.max_level));
    }
    adjusted = false;
    for (int i = 0; i < n; ++i) {
      const Block& b = leaves_[i];
      if (desired[i] >= b.level) continue;
      const int pix = b.ix >> 1, piy = b.iy >> 1;
      bool feasible = true;
      for (int cy = 0; cy <= 1 && feasible; ++cy) {
        for (int cx = 0; cx <= 1 && feasible; ++cx) {
          const int s = find_leaf(b.level, 2 * pix + cx, 2 * piy + cy);
          feasible = s >= 0 && desired[s] < leaves_[s].level;
        }
      }
      if (!feasible) {
        desired[i] = b.level;
        adjusted = true;
      }
    }
  }

  // 4. Apply: merge sibling quartets flagged for derefinement, split leaves
  //    flagged for refinement, keep the rest. The new leaves are laid out
  //    first, merged parents ahead of the kept and split leaves in leaf
  //    order; then the merges producing level-k parents run as one
  //    restriction span under amr/L<k>/restrict and the splits creating
  //    level-k children as one prolongation span under amr/L<k>/prolong. A
  //    merged parent and a split child each take one value per variable and
  //    interior cell.
  const std::size_t block_cells = static_cast<std::size_t>(cfg_.nvar) * cfg_.nxb * cfg_.nyb;
  struct Merge {
    int parent;      ///< in out
    int kids[2][2];  ///< in leaves_, [cy][cx]
  };
  struct Split {
    int parent;  ///< in leaves_
    int kids;    ///< the first of its four children in out, cy-major
  };
  std::vector<Block> out;
  out.reserve(leaves_.size());
  std::vector<bool> consumed(n, false);
  // By the level of the blocks they write, index level - 1.
  std::vector<std::vector<Merge>> merges(static_cast<std::size_t>(cfg_.max_level));
  std::vector<std::vector<Split>> splits(static_cast<std::size_t>(cfg_.max_level));
  int changes = 0;
  const auto new_block = [&](int level, int ix, int iy) {
    Block nb;
    nb.level = level;
    nb.ix = ix;
    nb.iy = iy;
    nb.data.assign(block_elems(), T(0.0));
    out.push_back(std::move(nb));
  };

  for (int i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    const Block& b = leaves_[i];
    if (desired[i] >= b.level) continue;
    // Candidate merge: locate all four siblings.
    const int pix = b.ix >> 1, piy = b.iy >> 1;
    Merge m{static_cast<int>(out.size()), {}};
    bool ok = true;
    for (int cy = 0; cy <= 1 && ok; ++cy) {
      for (int cx = 0; cx <= 1 && ok; ++cx) {
        const int s = find_leaf(b.level, 2 * pix + cx, 2 * piy + cy);
        ok = s >= 0 && !consumed[s] && desired[s] < leaves_[s].level;
        m.kids[cy][cx] = s;
      }
    }
    if (!ok) continue;
    for (const auto& row : m.kids) {
      for (const int s : row) consumed[s] = true;
    }
    merges[b.level - 2].push_back(m);
    new_block(b.level - 1, pix, piy);
    ++changes;
  }

  for (int i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    Block& b = leaves_[i];
    if (desired[i] <= b.level) {
      out.push_back(std::move(b));
      continue;
    }
    splits[b.level].push_back({i, static_cast<int>(out.size())});
    for (int cy = 0; cy <= 1; ++cy) {
      for (int cx = 0; cx <= 1; ++cx) new_block(b.level + 1, 2 * b.ix + cx, 2 * b.iy + cy);
    }
    ++changes;
  }

  const int nxb = cfg_.nxb, nyb = cfg_.nyb, hx = nxb / 2, hy = nyb / 2;
  for (int l = 1; l <= cfg_.max_level; ++l) {
    if (const auto& level_merges = merges[l - 1]; !level_merges.empty()) {
      Region region(restrict_label(l));
      transfer<4, 0>(
          level_merges.size() * block_cells,
          [&](const auto& emit) {
            for (const Merge& m : level_merges) {
              Block& parent = out[m.parent];
              for (int cy = 0; cy <= 1; ++cy) {
                for (int cx = 0; cx <= 1; ++cx) {
                  const T* ch = leaves_[m.kids[cy][cx]].data.data();
                  for (int v = 0; v < cfg_.nvar; ++v) {
                    for (int j = 0; j < nyb; j += 2) {
                      for (int ii = 0; ii < nxb; ii += 2) {
                        emit({&at(parent, v, cx * hx + ii / 2, cy * hy + j / 2), ch,
                              restrict_stencil(v, ii, j)});
                      }
                    }
                  }
                }
              }
            }
          },
          detail::Restriction{});
    }
    // Split prolongation reads the parent's guards (regrid filled them
    // above), so its stencil always has both neighbours and the limiter is
    // always the two-sided minmod.
    if (const auto& level_splits = splits[l - 1]; !level_splits.empty()) {
      Region region(prolong_label(l));
      transfer<5, 4>(
          4 * level_splits.size() * block_cells,
          [&](const auto& emit) {
            for (const Split& s : level_splits) {
              const Block& b = leaves_[s.parent];
              for (int cy = 0; cy <= 1; ++cy) {
                for (int cx = 0; cx <= 1; ++cx) {
                  Block& ch = out[s.kids + 2 * cy + cx];
                  for (int v = 0; v < cfg_.nvar; ++v) {
                    for (int j = 0; j < nyb; ++j) {
                      for (int ii = 0; ii < nxb; ++ii) {
                        emit({&at(ch, v, ii, j), b.data.data(),
                              prolong_stencil(v, cx * nxb + ii, cy * nyb + j, /*clamp=*/false)});
                      }
                    }
                  }
                }
              }
            }
          },
          detail::Prolongation{});
    }
  }

  // Kept blocks were moved into `out` regardless of whether anything
  // changed, so the swap is unconditional. When nothing changed, `out`
  // holds the same blocks in the same order, and the plan still holds.
  leaves_ = std::move(out);
  if (changes > 0) rebuild_map();
  return changes;
}

template <class T>
double AmrGrid<T>::sample(int var, double x, double y) const {
  x = std::clamp(x, cfg_.xmin + 1e-12, cfg_.xmax - 1e-12);
  y = std::clamp(y, cfg_.ymin + 1e-12, cfg_.ymax - 1e-12);
  for (int l = cfg_.max_level; l >= 1; --l) {
    const double hx = dx(l), hy = dy(l);
    const int gx = static_cast<int>((x - cfg_.xmin) / hx);
    const int gy = static_cast<int>((y - cfg_.ymin) / hy);
    const int bxc = gx / cfg_.nxb, byc = gy / cfg_.nyb;
    const int n = find_leaf(l, bxc, byc);
    if (n < 0) continue;
    const Block& b = leaves_[n];
    return to_double(at(b, var, gx - bxc * cfg_.nxb, gy - byc * cfg_.nyb));
  }
  RAPTOR_REQUIRE(false, "sample: no covering leaf (corrupt hierarchy)");
  return 0.0;
}

template <class T>
bool AmrGrid<T>::balanced() const {
  // Probe points just across every face/corner of every leaf at the leaf's
  // own cell granularity; the covering leaf's level must differ by <= 1.
  const double eps_x = dx(cfg_.max_level) * 0.25;
  const double eps_y = dy(cfg_.max_level) * 0.25;
  const double wx = cfg_.xmax - cfg_.xmin;
  const double wy = cfg_.ymax - cfg_.ymin;
  const auto level_at = [this](double x, double y) -> int {
    for (int l = cfg_.max_level; l >= 1; --l) {
      const int gx = static_cast<int>((x - cfg_.xmin) / dx(l));
      const int gy = static_cast<int>((y - cfg_.ymin) / dy(l));
      if (find_leaf(l, gx / cfg_.nxb, gy / cfg_.nyb) >= 0) return l;
    }
    return -1;
  };
  for (const auto& b : leaves_) {
    const double hx = dx(b.level), hy = dy(b.level);
    const double x0 = cfg_.xmin + b.ix * cfg_.nxb * hx;
    const double y0 = cfg_.ymin + b.iy * cfg_.nyb * hy;
    const double x1 = x0 + cfg_.nxb * hx;
    const double y1 = y0 + cfg_.nyb * hy;
    std::vector<std::pair<double, double>> probes;
    for (int k = 0; k < cfg_.nxb; ++k) {
      const double x = x0 + (k + 0.5) * hx;
      probes.emplace_back(x, y0 - eps_y);
      probes.emplace_back(x, y1 + eps_y);
    }
    for (int k = 0; k < cfg_.nyb; ++k) {
      const double y = y0 + (k + 0.5) * hy;
      probes.emplace_back(x0 - eps_x, y);
      probes.emplace_back(x1 + eps_x, y);
    }
    probes.emplace_back(x0 - eps_x, y0 - eps_y);
    probes.emplace_back(x1 + eps_x, y0 - eps_y);
    probes.emplace_back(x0 - eps_x, y1 + eps_y);
    probes.emplace_back(x1 + eps_x, y1 + eps_y);
    for (auto [px, py] : probes) {
      if (px < cfg_.xmin) {
        if (cfg_.bc[0] != BC::Periodic) continue;
        px += wx;
      }
      if (px > cfg_.xmax) {
        if (cfg_.bc[1] != BC::Periodic) continue;
        px -= wx;
      }
      if (py < cfg_.ymin) {
        if (cfg_.bc[2] != BC::Periodic) continue;
        py += wy;
      }
      if (py > cfg_.ymax) {
        if (cfg_.bc[3] != BC::Periodic) continue;
        py -= wy;
      }
      const int l = level_at(px, py);
      if (l < 0 || std::abs(l - b.level) > 1) return false;
    }
  }
  return true;
}

}  // namespace raptor::amr

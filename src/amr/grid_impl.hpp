// Out-of-line template implementations for AmrGrid (included by grid.hpp).
//
// The mesh formulas, restriction and slope-limited prolongation, are each
// written once below, templated on the scalar type. Every transfer (guard
// copies, guard prolongation and restriction, regrid merge and split)
// walks its targets once through copy() or transfer(), which run the
// formula natively on double (the native substrate and mem-mode) or as one
// batch::Vec instantiation (op-mode, DESIGN.md §15).
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>

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
inline constexpr double kSlopeMinmod = 0.0, kSlopeLo = 1.0, kSlopeHi = 2.0;

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
        for (int o = 0; o < K; ++o) lanes[o][k] = t.src[o]->raw();
        for (int p = 0; p < P; ++p) lanes[K + p][k] = t.param[p];
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
    for (int o = 0; o < K; ++o) x[o] = to_double(*t.src[o]);
    for (int p = 0; p < P; ++p) x[K + p] = t.param[p];
    *t.dst = T(std::apply(formula, x));
  });
}

template <class T>
template <class Walk>
void AmrGrid<T>::copy(std::size_t n, const Walk& walk) {
  if constexpr (std::is_same_v<T, Real>) {
    if (rt::Runtime::instance().mode() == rt::Mode::Op) {
      // Quantize-on-move (the array `_raptor_pre_c`, not a counted op). The
      // sign flips the raw payload first: rounding is symmetric.
      batch::Vec x(n);
      double* lanes = x.data();
      batch::detail::Lanes<T*> dst(n);
      std::size_t k = 0;
      walk([&](const CopyTarget& t) {
        RAPTOR_ASSERT(k < n);
        const double raw = t.src[0]->raw();
        lanes[k] = t.param[0] < 0 ? -raw : raw;
        dst[k++] = t.dst;
      });
      RAPTOR_REQUIRE(k == n, "mesh transfer: target count mismatch");
      rt::Runtime::instance().trunc_array(lanes, lanes, n);
      for (k = 0; k < n; ++k) *dst[k] = Real::adopt_raw(lanes[k]);
      return;
    }
  }
  walk([](const CopyTarget& t) {
    *t.dst = t.param[0] < 0 ? T(-to_double(*t.src[0])) : *t.src[0];
  });
}

template <class T>
auto AmrGrid<T>::prolong_target(T& dst, const Block& cb, int v, int fx, int fy, bool clamp) const
    -> ProlongTarget {
  const int ci = fx >> 1, cj = fy >> 1;
  // The neighbours of coarse index c in a direction of n cells, and the
  // limiter code that goes with them.
  const auto lo = [&](int c) { return clamp ? std::max(c - 1, 0) : c - 1; };
  const auto hi = [&](int c, int n) { return clamp ? std::min(c + 1, n - 1) : c + 1; };
  const auto code = [&](int c, int n) -> double {
    if (!clamp || (c > 0 && c < n - 1)) return detail::kSlopeMinmod;
    return c > 0 ? detail::kSlopeLo : detail::kSlopeHi;
  };
  const auto u = [&](int i, int j) { return &at(cb, v, i, j); };
  const int nxb = cfg_.nxb, nyb = cfg_.nyb;
  return {&dst,
          {u(ci, cj), u(lo(ci), cj), u(hi(ci, nxb), cj), u(ci, lo(cj)), u(ci, hi(cj, nyb))},
          {(fx & 1) ? 0.25 : -0.25, (fy & 1) ? 0.25 : -0.25, code(ci, nxb), code(cj, nyb)}};
}

template <class T>
void AmrGrid<T>::fill_side(Block& b, Side side) {
  const int ng = cfg_.ng, nxb = cfg_.nxb, nyb = cfg_.nyb;
  // The side's guard cells [i0, i1) x [j0, j1), the neighbour block's
  // coordinates and the shift (di, dj) from a guard cell to the same cell
  // in the neighbour's frame.
  int i0 = 0, i1 = nxb, j0 = 0, j1 = nyb, di = 0, dj = 0;
  int nix = b.ix, niy = b.iy;
  switch (side) {
    case Side::XLo: i0 = -ng; i1 = 0; di = nxb; --nix; break;
    case Side::XHi: i0 = nxb; i1 = nxb + ng; di = -nxb; ++nix; break;
    case Side::YLo: j0 = -ng; j1 = 0; dj = nyb; --niy; break;
    case Side::YHi: j0 = nyb; j1 = nyb + ng; dj = -nyb; ++niy; break;
  }
  const std::size_t count = static_cast<std::size_t>(cfg_.nvar) * (i1 - i0) * (j1 - j0);
  const auto each_guard = [&](const auto& fn) {
    for (int v = 0; v < cfg_.nvar; ++v) {
      for (int j = j0; j < j1; ++j) {
        for (int i = i0; i < i1; ++i) fn(v, i, j);
      }
    }
  };

  const int bx = blocks_x(b.level), by = blocks_y(b.level);
  if (nix < 0 || nix >= bx || niy < 0 || niy >= by) {
    const BC bc = cfg_.bc[static_cast<int>(side)];
    if (bc != BC::Periodic) {
      // Physical boundary: Outflow copies the edge cell; Reflect mirrors
      // about the wall and flips the sign of the odd variables.
      const bool xdir = side == Side::XLo || side == Side::XHi;
      const bool reflect = bc == BC::Reflect;
      const auto& odd = xdir ? cfg_.x_odd_vars : cfg_.y_odd_vars;
      const auto mirror = [&](int k, int n) {
        if (!reflect) return std::clamp(k, 0, n - 1);
        return k < 0 ? -k - 1 : 2 * n - k - 1;
      };
      copy(count, [&](const auto& emit) {
        each_guard([&](int v, int i, int j) {
          const bool flip = reflect && std::find(odd.begin(), odd.end(), v) != odd.end();
          const T& src = at(b, v, xdir ? mirror(i, nxb) : i, xdir ? j : mirror(j, nyb));
          emit({&at(b, v, i, j), {&src}, {flip ? -1.0 : 1.0}});
        });
      });
      return;
    }
    nix = (nix + bx) % bx;
    niy = (niy + by) % by;
  }

  // Same-level neighbour: copies of its interior cells.
  if (const int nb = find_leaf(b.level, nix, niy); nb >= 0) {
    const Block& src = leaves_[nb];
    copy(count, [&](const auto& emit) {
      each_guard([&](int v, int i, int j) {
        emit({&at(b, v, i, j), {&at(src, v, i + di, j + dj)}, {1.0}});
      });
    });
    return;
  }

  // Coarser neighbour: slope-limited prolongation from its interior (its
  // guards may not be valid during this pass).
  if (const int cb = find_leaf(b.level - 1, nix >> 1, niy >> 1); cb >= 0) {
    const Block& src = leaves_[cb];
    transfer<5, 4>(
        count,
        [&](const auto& emit) {
          each_guard([&](int v, int i, int j) {
            emit(prolong_target(at(b, v, i, j), src, v, (nix & 1) * nxb + i + di,
                                (niy & 1) * nyb + j + dj, /*clamp=*/true));
          });
        },
        detail::Prolongation{});
    return;
  }

  // Finer neighbours: conservative restriction of the 2x2 fine cells under
  // each guard cell, from the two children along this side.
  const Block* kids[2][2] = {};
  const auto kid = [&](int cx, int cy) -> const Block& {
    const Block*& k = kids[cy][cx];
    if (k == nullptr) {
      const int child = find_leaf(b.level + 1, 2 * nix + cx, 2 * niy + cy);
      RAPTOR_REQUIRE(child >= 0, "guard fill: 2:1 balance violated");
      k = &leaves_[child];
    }
    return *k;
  };
  transfer<4, 0>(
      count,
      [&](const auto& emit) {
        each_guard([&](int v, int i, int j) {
          const int fli = 2 * (i + di), flj = 2 * (j + dj);
          const int cx = fli >= nxb ? 1 : 0, cy = flj >= nyb ? 1 : 0;
          const Block& fb = kid(cx, cy);
          const int fi = fli - cx * nxb, fj = flj - cy * nyb;
          emit({&at(b, v, i, j),
                {&at(fb, v, fi, fj), &at(fb, v, fi + 1, fj), &at(fb, v, fi, fj + 1),
                 &at(fb, v, fi + 1, fj + 1)},
                {}});
        });
      },
      detail::Restriction{});
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
  //    flagged for refinement, keep the rest. A merged parent and a split
  //    child each take one value per variable and interior cell.
  const std::size_t block_cells = static_cast<std::size_t>(cfg_.nvar) * cfg_.nxb * cfg_.nyb;
  std::vector<Block> out;
  out.reserve(leaves_.size());
  std::vector<bool> consumed(n, false);
  int changes = 0;

  for (int i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    const Block& b = leaves_[i];
    if (desired[i] >= b.level) continue;
    // Candidate merge: locate all four siblings.
    const int pix = b.ix >> 1, piy = b.iy >> 1;
    int sib[2][2];
    bool ok = true;
    for (int cy = 0; cy <= 1 && ok; ++cy) {
      for (int cx = 0; cx <= 1 && ok; ++cx) {
        const int s = find_leaf(b.level, 2 * pix + cx, 2 * piy + cy);
        ok = s >= 0 && !consumed[s] && desired[s] < leaves_[s].level;
        sib[cy][cx] = s;
      }
    }
    if (!ok) continue;
    Block parent;
    parent.level = b.level - 1;
    parent.ix = pix;
    parent.iy = piy;
    parent.data.assign(block_elems(), T(0.0));
    Region region(restrict_label(parent.level));
    const int hx = cfg_.nxb / 2, hy = cfg_.nyb / 2;
    transfer<4, 0>(
        block_cells,
        [&](const auto& emit) {
          for (int cy = 0; cy <= 1; ++cy) {
            for (int cx = 0; cx <= 1; ++cx) {
              const Block& ch = leaves_[sib[cy][cx]];
              for (int v = 0; v < cfg_.nvar; ++v) {
                for (int j = 0; j < cfg_.nyb; j += 2) {
                  for (int ii = 0; ii < cfg_.nxb; ii += 2) {
                    emit({&at(parent, v, cx * hx + ii / 2, cy * hy + j / 2),
                          {&at(ch, v, ii, j), &at(ch, v, ii + 1, j), &at(ch, v, ii, j + 1),
                           &at(ch, v, ii + 1, j + 1)},
                          {}});
                  }
                }
              }
            }
          }
        },
        detail::Restriction{});
    for (const auto& row : sib) {
      for (const int s : row) consumed[s] = true;
    }
    out.push_back(std::move(parent));
    ++changes;
  }

  for (int i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    Block& b = leaves_[i];
    if (desired[i] <= b.level) {
      out.push_back(std::move(b));
      continue;
    }
    // Split into four children with slope-limited prolongation (guards of b
    // are valid: regrid filled them above, so the stencil always has both
    // neighbors and the limiter is always the two-sided minmod).
    Region region(prolong_label(b.level + 1));
    for (int cy = 0; cy <= 1; ++cy) {
      for (int cx = 0; cx <= 1; ++cx) {
        Block ch;
        ch.level = b.level + 1;
        ch.ix = 2 * b.ix + cx;
        ch.iy = 2 * b.iy + cy;
        ch.data.assign(block_elems(), T(0.0));
        transfer<5, 4>(
            block_cells,
            [&](const auto& emit) {
              for (int v = 0; v < cfg_.nvar; ++v) {
                for (int j = 0; j < cfg_.nyb; ++j) {
                  for (int ii = 0; ii < cfg_.nxb; ++ii) {
                    emit(prolong_target(at(ch, v, ii, j), b, v, cx * cfg_.nxb + ii,
                                        cy * cfg_.nyb + j, /*clamp=*/false));
                  }
                }
              }
            },
            detail::Prolongation{});
        out.push_back(std::move(ch));
      }
    }
    ++changes;
  }

  // Kept blocks were moved into `out` regardless of whether anything
  // changed, so the swap is unconditional.
  leaves_ = std::move(out);
  rebuild_map();
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

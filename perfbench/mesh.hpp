// Mesh helpers shared by the two AMR hydro workloads: the fixed schedule
// (fixed dt, regrid every 4 steps) and a bitwise checksum of the mesh.
#pragma once

#include <functional>

#include "amr/grid.hpp"
#include "bench.hpp"
#include "hydro/euler.hpp"

namespace perfbench {

struct Schedule {
  int level = 3;
  int steps = 12;
  double dt = 0.0;
};

constexpr int kRegridEvery = 4;

/// Advance `steps` fixed-dt steps with a regrid every kRegridEvery steps,
/// under benchmark spans; `after_step(st)` runs after each step.
template <class T>
void advance(raptor::amr::AmrGrid<T>& grid, raptor::hydro::HydroSolver<T>& solver,
             const Schedule& s, const std::function<void(int)>& after_step = {}) {
  for (int st = 0; st < s.steps; ++st) {
    if (st > 0 && st % kRegridEvery == 0) {
      Span span("amr.regrid");
      grid.regrid();
    }
    {
      Span span("hydro.step");
      solver.step(grid, s.dt);
    }
    if (after_step) after_step(st);
  }
}

/// Checksum of a mesh: every leaf's position and raw cell payload.
template <class T>
u64 grid_checksum(const raptor::amr::AmrGrid<T>& g) {
  u64 h = 1469598103934665603ULL;
  std::vector<double> buf;
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    buf.assign({static_cast<double>(b.level), static_cast<double>(b.ix),
                static_cast<double>(b.iy)});
    for (const T& v : b.data) buf.push_back(raptor::to_double(v));
    h = fnv_doubles(buf.data(), buf.size(), h);
  }
  return h;
}

}  // namespace perfbench

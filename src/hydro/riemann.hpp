// Approximate Riemann solvers for the 2D compressible Euler equations
// (gamma-law gas): Rusanov (local Lax-Friedrichs), HLL and HLLC (Toro).
//
// All kernels are written once, templated on the scalar type T:
//   * T = double: the uninstrumented native baseline;
//   * T = raptor::Real: every operation routes through the RAPTOR runtime;
//   * T = batch::Vec: one lane per face, every operation one batch call over
//     all faces of a block (HydroSolver's batch path, DESIGN.md §8).
// The wave-speed tests branch through branch() (trunc/real.hpp,
// trunc/span_ops.hpp): a plain if for double and Real, and for Vec a lane
// partition whose arms run and count only their own faces — so the batched
// solve issues exactly the ops of the per-face loop. The "hydro/riemann"
// region label is applied by the caller (euler.hpp), so mem-mode flags and
// Table-2 exclusions see these kernels as one module.
#pragma once

#include <cmath>
#include <tuple>

#include "trunc/real.hpp"

namespace raptor::hydro {

enum class RiemannKind { Rusanov, HLL, HLLC };

/// Primitive state in the sweep frame: un = normal velocity, ut =
/// transverse velocity.
template <class T>
struct PrimState {
  T rho, un, ut, p;
};

/// Conserved flux in the sweep frame: [rho, rho*un, rho*ut, E].
template <class T>
struct Flux {
  T f[4];
};

// Member views through which batch::branch narrows and merges the
// aggregates lane by lane.
template <class T>
auto members(PrimState<T>& w) {
  return std::tie(w.rho, w.un, w.ut, w.p);
}
template <class T>
auto members(const PrimState<T>& w) {
  return std::tie(w.rho, w.un, w.ut, w.p);
}
template <class T>
auto members(Flux<T>& x) {
  return std::tie(x.f[0], x.f[1], x.f[2], x.f[3]);
}
template <class T>
auto members(const Flux<T>& x) {
  return std::tie(x.f[0], x.f[1], x.f[2], x.f[3]);
}

template <class T>
T sound_speed(const PrimState<T>& w, double gamma) {
  using std::sqrt;
  return sqrt(T(gamma) * w.p / w.rho);
}

template <class T>
T total_energy(const PrimState<T>& w, double gamma) {
  return w.p / T(gamma - 1.0) + T(0.5) * w.rho * (w.un * w.un + w.ut * w.ut);
}

/// Physical flux F(W) in the normal direction.
template <class T>
Flux<T> physical_flux(const PrimState<T>& w, double gamma) {
  const T e = total_energy(w, gamma);
  Flux<T> f;
  f.f[0] = w.rho * w.un;
  f.f[1] = w.rho * w.un * w.un + w.p;
  f.f[2] = w.rho * w.un * w.ut;
  f.f[3] = w.un * (e + w.p);
  return f;
}

template <class T>
Flux<T> rusanov_flux(const PrimState<T>& wl, const PrimState<T>& wr, double gamma) {
  using std::fabs;
  using std::fmax;
  const Flux<T> fl = physical_flux(wl, gamma);
  const Flux<T> fr = physical_flux(wr, gamma);
  const T cl = sound_speed(wl, gamma);
  const T cr = sound_speed(wr, gamma);
  const T smax = fmax(fabs(wl.un) + cl, fabs(wr.un) + cr);
  const T ul[4] = {wl.rho, wl.rho * wl.un, wl.rho * wl.ut, total_energy(wl, gamma)};
  const T ur[4] = {wr.rho, wr.rho * wr.un, wr.rho * wr.ut, total_energy(wr, gamma)};
  Flux<T> out;
  for (int k = 0; k < 4; ++k) {
    out.f[k] = T(0.5) * (fl.f[k] + fr.f[k]) - T(0.5) * smax * (ur[k] - ul[k]);
  }
  return out;
}

namespace detail {
/// Davis wave-speed estimates.
template <class T>
void wave_speeds(const PrimState<T>& wl, const PrimState<T>& wr, double gamma, T& sl, T& sr) {
  using std::fmin;
  using std::fmax;
  const T cl = sound_speed(wl, gamma);
  const T cr = sound_speed(wr, gamma);
  sl = fmin(wl.un - cl, wr.un - cr);
  sr = fmax(wl.un + cl, wr.un + cr);
}

/// The upwind choice HLL and HLLC share: faces with sl >= 0 take fl, faces
/// with sr <= 0 take fr, and the subsonic rest take fan(pick), where pick
/// narrows a value to those faces.
template <class T, class Fan>
Flux<T> upwind(const T& sl, const T& sr, const Flux<T>& fl, const Flux<T>& fr, Fan&& fan) {
  return branch(
      sl >= T(0.0), [&](auto pick) { return pick(fl); },
      [&](auto pick) {
        return branch(
            pick(sr) <= T(0.0), [&](auto inner) { return inner(pick(fr)); },
            [&](auto inner) {
              return fan([&](const auto& x) { return inner(pick(x)); });
            });
      });
}

/// HLLC flux of the star region on the side of state w with wave speed s.
template <class T>
Flux<T> hllc_star(const PrimState<T>& w, const T& s, const Flux<T>& f, const T& sstar,
                  double gamma) {
  const T e = total_energy(w, gamma);
  const T coef = w.rho * (s - w.un) / (s - sstar);
  T ustar[4];
  ustar[0] = coef;
  ustar[1] = coef * sstar;
  ustar[2] = coef * w.ut;
  ustar[3] = coef * (e / w.rho + (sstar - w.un) * (sstar + w.p / (w.rho * (s - w.un))));
  const T u[4] = {w.rho, w.rho * w.un, w.rho * w.ut, e};
  Flux<T> out;
  for (int k = 0; k < 4; ++k) out.f[k] = f.f[k] + s * (ustar[k] - u[k]);
  return out;
}
}  // namespace detail

template <class T>
Flux<T> hll_flux(const PrimState<T>& wl, const PrimState<T>& wr, double gamma) {
  T sl, sr;
  detail::wave_speeds(wl, wr, gamma, sl, sr);
  const Flux<T> fl = physical_flux(wl, gamma);
  const Flux<T> fr = physical_flux(wr, gamma);
  return detail::upwind(sl, sr, fl, fr, [&](auto pick) {
    const PrimState<T> l = pick(wl), r = pick(wr);
    const T a = pick(sl), b = pick(sr);
    const Flux<T> fa = pick(fl), fb = pick(fr);
    const T ul[4] = {l.rho, l.rho * l.un, l.rho * l.ut, total_energy(l, gamma)};
    const T ur[4] = {r.rho, r.rho * r.un, r.rho * r.ut, total_energy(r, gamma)};
    Flux<T> out;
    const T inv = T(1.0) / (b - a);
    for (int k = 0; k < 4; ++k) {
      out.f[k] = (b * fa.f[k] - a * fb.f[k] + a * b * (ur[k] - ul[k])) * inv;
    }
    return out;
  });
}

template <class T>
Flux<T> hllc_flux(const PrimState<T>& wl, const PrimState<T>& wr, double gamma) {
  T sl, sr;
  detail::wave_speeds(wl, wr, gamma, sl, sr);
  const Flux<T> fl = physical_flux(wl, gamma);
  const Flux<T> fr = physical_flux(wr, gamma);
  return detail::upwind(sl, sr, fl, fr, [&](auto pick) {
    const PrimState<T> l = pick(wl), r = pick(wr);
    const T a = pick(sl), b = pick(sr);
    const T ml = l.rho * (a - l.un);  // rho_L (S_L - u_L)
    const T mr = r.rho * (b - r.un);
    const T sstar = (r.p - l.p + l.un * ml - r.un * mr) / (ml - mr);
    return branch(
        sstar >= T(0.0),
        [&](auto side) {
          return detail::hllc_star(side(l), side(a), side(pick(fl)), side(sstar), gamma);
        },
        [&](auto side) {
          return detail::hllc_star(side(r), side(b), side(pick(fr)), side(sstar), gamma);
        });
  });
}

template <class T>
Flux<T> riemann_flux(RiemannKind kind, const PrimState<T>& wl, const PrimState<T>& wr,
                     double gamma) {
  switch (kind) {
    case RiemannKind::Rusanov: return rusanov_flux(wl, wr, gamma);
    case RiemannKind::HLL: return hll_flux(wl, wr, gamma);
    case RiemannKind::HLLC: return hllc_flux(wl, wr, gamma);
  }
  return rusanov_flux(wl, wr, gamma);
}

}  // namespace raptor::hydro

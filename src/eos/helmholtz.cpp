#include "eos/helmholtz.hpp"

namespace raptor::eos {

namespace {
// Carbon plasma constants (cgs): ideal-ion cv, radiation constant, and a
// zero-temperature electron-degeneracy coefficient.
constexpr double kRGas = 8.31446e7;    // erg / g / K per unit mu
constexpr double kMu = 12.0;           // carbon
constexpr double kCvIon = 1.5 * kRGas / kMu;
constexpr double kARad = 7.5657e-15;   // erg / cm^3 / K^4
constexpr double kKDeg = 9.91e12;      // erg cm^2 / g^(5/3)  (degeneracy scale)
}  // namespace

double HelmholtzTable::e_analytic(double rho, double temp) {
  return kCvIon * temp + kARad * temp * temp * temp * temp / rho +
         kKDeg * std::pow(rho, 2.0 / 3.0);
}

double HelmholtzTable::p_analytic(double rho, double temp) {
  return rho * kRGas * temp / kMu + kARad * temp * temp * temp * temp / 3.0 +
         (2.0 / 3.0) * kKDeg * std::pow(rho, 5.0 / 3.0);
}

HelmholtzTable::HelmholtzTable(const Config& cfg) : cfg_(cfg) {
  RAPTOR_REQUIRE(cfg_.n_rho >= 2 && cfg_.n_temp >= 2, "helmholtz: table too small");
  dlr_ = (cfg_.log_rho_hi - cfg_.log_rho_lo) / (cfg_.n_rho - 1);
  dlt_ = (cfg_.log_temp_hi - cfg_.log_temp_lo) / (cfg_.n_temp - 1);
  const std::size_t n = static_cast<std::size_t>(cfg_.n_rho) * cfg_.n_temp;
  e_.resize(n);
  p_.resize(n);
  for (int j = 0; j < cfg_.n_temp; ++j) {
    const double temp = std::pow(10.0, cfg_.log_temp_lo + j * dlt_);
    for (int i = 0; i < cfg_.n_rho; ++i) {
      const double rho = std::pow(10.0, cfg_.log_rho_lo + i * dlr_);
      e_[idx(i, j)] = e_analytic(rho, temp);
      p_[idx(i, j)] = p_analytic(rho, temp);
    }
  }
}

}  // namespace raptor::eos

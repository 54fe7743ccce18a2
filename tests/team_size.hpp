// Sets the OpenMP team size for a scope: the batch-path parity suites run
// their solvers on a team whose static share of the work is uneven.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace raptor::testing_support {

/// Sets the OpenMP team size for its lifetime (no-op without OpenMP).
class TeamSize {
 public:
  explicit TeamSize([[maybe_unused]] int threads) {
#ifdef _OPENMP
    saved_ = omp_get_max_threads();
    if (threads > 0) omp_set_num_threads(threads);
#endif
  }
  ~TeamSize() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  TeamSize(const TeamSize&) = delete;
  TeamSize& operator=(const TeamSize&) = delete;

 private:
  int saved_ = 1;
};

}  // namespace raptor::testing_support

// Scope guards shared by the test suites. Each pins one process-wide
// runtime switch for the duration of a test and restores the previous
// value on scope exit, assertion failures included.
#pragma once

#include "autodiff/precision.hpp"
#include "tensor/simd.hpp"

namespace qpinn {

/// Pins the plan precision (fp64 by default). The bit-identity tests
/// assert the fp64-mode contract (replay == eager bit for bit), which
/// QPINN_PRECISION=mixed intentionally trades for speed; restoring the
/// previous mode lets a mixed run still exercise mixed replay in the rest
/// of the suite.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(autodiff::Precision pin = autodiff::Precision::kFp64)
      : saved_(autodiff::precision_mode()) {
    autodiff::set_precision_mode(pin);
  }
  ~PrecisionGuard() { autodiff::set_precision_mode(saved_); }

 private:
  autodiff::Precision saved_;
};

/// Restores the active SIMD variant.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::force_isa(saved_); }

 private:
  simd::Isa saved_;
};

}  // namespace qpinn

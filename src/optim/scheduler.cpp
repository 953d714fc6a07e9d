#include "optim/scheduler.hpp"

#include <cmath>

#include "util/error.hpp"

namespace qpinn::optim {

ExponentialDecay::ExponentialDecay(double factor, std::int64_t every)
    : factor_(factor), every_(every) {
  QPINN_CHECK(factor > 0.0 && factor <= 1.0, "decay factor must be in (0, 1]");
  QPINN_CHECK(every >= 1, "decay interval must be >= 1");
}

double ExponentialDecay::lr_at(std::int64_t epoch, double base_lr) const {
  const std::int64_t steps = epoch / every_;
  return base_lr * std::pow(factor_, static_cast<double>(steps));
}

}  // namespace qpinn::optim

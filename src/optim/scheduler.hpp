// Learning-rate schedules.
#pragma once

#include <cstdint>

namespace qpinn::optim {

/// Maps (epoch, base_lr) -> lr. Stateless; the trainer queries per epoch.
class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  virtual double lr_at(std::int64_t epoch, double base_lr) const = 0;
};

/// Constant learning rate.
class ConstantLr : public LrSchedule {
 public:
  double lr_at(std::int64_t, double base_lr) const override { return base_lr; }
};

/// lr = base * factor^(epoch / every) — the "decay by 0.85 every 2000
/// epochs" style schedule standard in PINN work.
class ExponentialDecay : public LrSchedule {
 public:
  ExponentialDecay(double factor, std::int64_t every);
  double lr_at(std::int64_t epoch, double base_lr) const override;

 private:
  double factor_;
  std::int64_t every_;
};

}  // namespace qpinn::optim

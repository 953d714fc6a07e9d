// Minimal leveled logger.
//
// A single global logger writes to stderr; severity is filtered by a global
// level which tests and benchmarks may lower to keep output quiet.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace qpinn::log {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum severity that will be emitted.
void set_level(Level level);

/// Returns the current global severity threshold.
Level level();

/// Parses "debug" / "info" / "warn" / "error" / "off" (case-insensitive).
Level parse_level(const std::string& name);

namespace detail {
void emit(Level level, const std::string& message);

/// One log line. The level is checked once, at construction: a filtered
/// line builds no stream and formats none of its `<<` operands.
class LineLogger {
 public:
  explicit LineLogger(Level level) : level_(level) {
    if (static_cast<int>(level) >= static_cast<int>(log::level())) {
      stream_.emplace();
    }
  }
  LineLogger(const LineLogger&) = delete;
  LineLogger& operator=(const LineLogger&) = delete;
  ~LineLogger() {
    if (stream_) emit(level_, stream_->str());
  }

  template <typename T>
  LineLogger& operator<<(const T& value) {
    if (stream_) *stream_ << value;
    return *this;
  }

 private:
  Level level_;
  std::optional<std::ostringstream> stream_;
};
}  // namespace detail

inline detail::LineLogger debug() { return detail::LineLogger(Level::kDebug); }
inline detail::LineLogger info() { return detail::LineLogger(Level::kInfo); }
inline detail::LineLogger warn() { return detail::LineLogger(Level::kWarn); }
inline detail::LineLogger error() { return detail::LineLogger(Level::kError); }

}  // namespace qpinn::log

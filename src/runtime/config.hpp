// Truncation configuration: which operand widths get executed in which
// target format. The textual form matches the paper's compiler flag
// --raptor-truncate-all=64_to_5_14;32_to_3_8 (Section 3.2).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "softfloat/format.hpp"

namespace raptor::rt {

/// Per-width truncation targets. A width with no entry passes through at
/// native precision.
struct TruncationSpec {
  std::optional<sf::Format> for64;
  std::optional<sf::Format> for32;
  std::optional<sf::Format> for16;

  [[nodiscard]] bool empty() const { return !for64 && !for32 && !for16; }

  [[nodiscard]] const std::optional<sf::Format>& for_width(int width) const {
    switch (width) {
      case 64: return for64;
      case 32: return for32;
      default: return for16;
    }
  }

  /// Truncate `width`-bit operations (64, 32 or 16) to `fmt`. The one
  /// mapping from operand width to format: throws ConfigError on any other
  /// width or a format outside the engine envelope.
  TruncationSpec& set(int width, sf::Format fmt);

  /// Parse "64_to_5_14;32_to_3_8". Throws std::invalid_argument on errors
  /// (bad width, format outside the engine envelope, malformed syntax).
  static TruncationSpec parse(std::string_view text);

  /// Convenience: truncate 64-bit operations to (exp, man).
  static TruncationSpec trunc64(int to_exp, int to_man);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const TruncationSpec&, const TruncationSpec&) = default;
};

class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

}  // namespace raptor::rt

#include "runtime/config.hpp"

#include <charconv>
#include <vector>

namespace raptor::rt {

namespace {

int parse_int(std::string_view s, std::string_view what) {
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ConfigError("truncation spec: bad " + std::string(what) + " '" + std::string(s) + "'");
  }
  return v;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(sep);
    if (pos == std::string_view::npos) {
      if (!s.empty()) out.push_back(s);
      return out;
    }
    if (pos > 0) out.push_back(s.substr(0, pos));
    s.remove_prefix(pos + 1);
  }
}

}  // namespace

TruncationSpec TruncationSpec::parse(std::string_view text) {
  TruncationSpec spec;
  for (const auto clause : split(text, ';')) {
    // Grammar: <width> "_to_" <exp> "_" <man>
    const auto to_pos = clause.find("_to_");
    if (to_pos == std::string_view::npos) {
      throw ConfigError("truncation spec: missing '_to_' in '" + std::string(clause) + "'");
    }
    const int width = parse_int(clause.substr(0, to_pos), "width");
    const auto rhs = clause.substr(to_pos + 4);
    const auto us = rhs.find('_');
    if (us == std::string_view::npos) {
      throw ConfigError("truncation spec: expected '<exp>_<man>' in '" + std::string(clause) + "'");
    }
    spec.set(width, sf::Format{parse_int(rhs.substr(0, us), "exponent"),
                               parse_int(rhs.substr(us + 1), "mantissa")});
  }
  return spec;
}

TruncationSpec& TruncationSpec::set(int width, sf::Format fmt) {
  std::optional<sf::Format>* slot = width == 64   ? &for64
                                    : width == 32 ? &for32
                                    : width == 16 ? &for16
                                                  : nullptr;
  if (slot == nullptr) {
    throw ConfigError("truncation spec: unsupported source width " + std::to_string(width) +
                      " (must be 16, 32 or 64)");
  }
  if (!fmt.valid()) {
    throw ConfigError("truncation spec: format " + fmt.to_string() +
                      " outside the supported envelope (exp 2..18, man 1..61)");
  }
  *slot = fmt;
  return *this;
}

TruncationSpec TruncationSpec::trunc64(int to_exp, int to_man) {
  return TruncationSpec().set(64, sf::Format{to_exp, to_man});
}

std::string TruncationSpec::to_string() const {
  std::string out;
  const auto append = [&out](int width, const std::optional<sf::Format>& f) {
    if (!f) return;
    if (!out.empty()) out += ';';
    out += std::to_string(width) + "_to_" + std::to_string(f->exp_bits) + "_" +
           std::to_string(f->man_bits);
  };
  append(64, for64);
  append(32, for32);
  append(16, for16);
  return out;
}

}  // namespace raptor::rt

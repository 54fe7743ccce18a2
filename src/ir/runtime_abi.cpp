#include "ir/runtime_abi.hpp"

#include <charconv>

namespace raptor::ir {

namespace {

constexpr std::string_view kCloneMarker = "_trunc_f64_to_";

}  // namespace

const Shim& shim_for(Opcode op) {
  for (const Shim& s : kShims) {
    if (s.op == op) return s;
  }
  RAPTOR_REQUIRE(false, "not an FP op");
  return kShims[0];
}

const Shim* find_shim(std::string_view name) {
  for (const Shim& s : kShims) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string clone_name(std::string_view base, int to_exp, int to_man) {
  std::string out = "_";
  out += base;
  out += kCloneMarker;
  out += std::to_string(to_exp);
  out += '_';
  out += std::to_string(to_man);
  return out;
}

std::optional<CloneName> parse_clone_name(std::string_view name) {
  if (name.size() < 2 || name.front() != '_') return std::nullopt;
  const auto pos = name.find(kCloneMarker);
  if (pos == std::string_view::npos || pos < 2) return std::nullopt;
  CloneName cn;
  cn.base = std::string(name.substr(1, pos - 1));
  std::string_view rest = name.substr(pos + kCloneMarker.size());
  const auto sep = rest.find('_');
  if (sep == std::string_view::npos) return std::nullopt;
  const std::string_view e_str = rest.substr(0, sep);
  const std::string_view m_str = rest.substr(sep + 1);
  const auto to_int = [](std::string_view s, int& v) {
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    return ec == std::errc{} && p == s.data() + s.size();
  };
  if (!to_int(e_str, cn.to_exp) || !to_int(m_str, cn.to_man)) return std::nullopt;
  return cn;
}

}  // namespace raptor::ir

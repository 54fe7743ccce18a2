#include "support/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#include <cstdio>

namespace raptor {

int cli_main(int (*fn)(int, char**), int argc, char** argv) {
  try {
    return fn(argc, argv);
  } catch (const CliError& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "program", e.what());
    return 2;
  }
}

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      options_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else {
      // Bare --flag. (--key value is intentionally unsupported: it is
      // ambiguous with a following positional argument.)
      options_[std::string(arg)] = std::string("1");
    }
  }
}

bool Cli::has(const std::string& key) const { return options_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& def) const {
  auto it = options_.find(key);
  return it == options_.end() ? def : it->second;
}

namespace {

// Strict numeric parsing: atoi/atof silently turn "--max-iter=abc" into 0,
// which poisons whole parameter sweeps. Reject empty values, trailing
// garbage, and out-of-range numbers with an error naming the flag.
[[noreturn]] void bad_value(const std::string& key, const std::string& value, const char* kind) {
  throw CliError("--" + key + "=" + value + ": expected " + kind);
}

}  // namespace

int Cli::get_int(const std::string& key, int def) const {
  auto it = options_.find(key);
  if (it == options_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE ||
      n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max()) {
    bad_value(key, v, "an integer");
  }
  return static_cast<int>(n);
}

int Cli::get_port(const std::string& key) const {
  const int port = get_int(key, 0);
  if (port < 0 || port > 65535) bad_value(key, get(key, ""), "a port in 0..65535");
  return port == 1 ? 0 : port;  // bare "--key" parses as "1"
}

double Cli::get_double(const std::string& key, double def) const {
  auto it = options_.find(key);
  if (it == options_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v.c_str(), &end);
  // ERANGE covers both overflow and gradual underflow; only overflow is an
  // error — a subnormal like 1e-320 is a representable, intended value.
  const bool overflow = errno == ERANGE && (d == HUGE_VAL || d == -HUGE_VAL);
  if (v.empty() || end != v.c_str() + v.size() || overflow) {
    bad_value(key, v, "a number");
  }
  return d;
}

}  // namespace raptor

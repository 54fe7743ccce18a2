// Minimal command-line parsing for examples and bench harnesses:
// --key=value and --flag forms plus positional arguments.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace raptor {

/// Malformed option value ("--max-iter=abc"). User input, so it throws
/// rather than aborting; main() catches it and prints the message.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// main() wrapper for the example/bench programs: runs `fn` and turns a
/// CliError into a one-line stderr message + exit code 2 instead of an
/// uncaught-exception abort.
int cli_main(int (*fn)(int, char**), int argc, char** argv);

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& def) const;
  [[nodiscard]] int get_int(const std::string& key, int def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  /// TCP port of a `--key[=PORT]` option: bare `--key` (parsed as "1") and
  /// `--key=0` mean an ephemeral port (0); a value that is not an integer in
  /// 0..65535 throws CliError naming the flag.
  [[nodiscard]] int get_port(const std::string& key) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace raptor

// Minimal command-line argument parser for the examples, tools and benches.
//
// Supports `--name value`, `--name=value` and boolean `--flag` forms plus
// positional arguments; unknown options raise an error listing valid names.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ldla {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register options before parse(). `help` appears in usage().
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parse argv; throws ldla::Error on unknown options or missing values.
  /// Returns false (after printing usage) when --help was requested.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string str(const std::string& name) const;
  /// Non-negative integer value; throws ldla::Error on anything else.
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage() const;

 private:
  struct Spec {
    std::string help;
    std::string value;  // current (default or parsed) value; empty for flags
    bool is_flag = false;
    bool set = false;
  };
  const Spec& lookup(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace ldla

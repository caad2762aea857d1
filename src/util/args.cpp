#include "util/args.hpp"

#include <cstdio>
#include <sstream>

#include "util/contract.hpp"

namespace ldla {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  LDLA_EXPECT(!specs_.contains(name), "duplicate option");
  specs_[name] = Spec{help, "", /*is_flag=*/true, false};
  order_.push_back(name);
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  LDLA_EXPECT(!specs_.contains(name), "duplicate option");
  specs_[name] = Spec{help, default_value, /*is_flag=*/false, false};
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw Error("unknown option --" + name + "\n" + usage());
    }
    Spec& spec = it->second;
    spec.set = true;
    if (spec.is_flag) {
      if (has_inline) throw Error("flag --" + name + " takes no value");
      continue;
    }
    if (has_inline) {
      spec.value = std::move(inline_value);
    } else {
      if (i + 1 >= argc) throw Error("option --" + name + " needs a value");
      spec.value = argv[++i];
    }
  }
  return true;
}

const ArgParser::Spec& ArgParser::lookup(const std::string& name) const {
  auto it = specs_.find(name);
  LDLA_EXPECT(it != specs_.end(), "option was never registered");
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  const Spec& s = lookup(name);
  LDLA_EXPECT(s.is_flag, "not a flag");
  return s.set;
}

std::string ArgParser::str(const std::string& name) const {
  const Spec& s = lookup(name);
  LDLA_EXPECT(!s.is_flag, "flags carry no value");
  return s.value;
}

std::int64_t ArgParser::integer(const std::string& name) const {
  const std::string v = str(name);
  std::int64_t out = 0;
  try {
    std::size_t pos = 0;
    out = std::stoll(v, &pos);
    if (pos != v.size()) throw Error("");
  } catch (...) {
    throw Error("option --" + name + " expects an integer, got '" + v + "'");
  }
  // Every caller stores the value in an unsigned count, where -1 would
  // silently become SIZE_MAX.
  if (out < 0) {
    throw Error("option --" + name + " expects a non-negative integer, got '" +
                v + "'");
  }
  return out;
}

double ArgParser::real(const std::string& name) const {
  const std::string v = str(name);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw Error("");
    return out;
  } catch (...) {
    throw Error("option --" + name + " expects a number, got '" + v + "'");
  }
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& s = specs_.at(name);
    out << "  --" << name;
    if (!s.is_flag) out << " <value>";
    out << "\n      " << s.help;
    if (!s.is_flag && !s.value.empty()) out << " (default: " << s.value << ")";
    out << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace ldla

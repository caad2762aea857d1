// ldla_e2ebench: the compiled half of the end-to-end benchmark (run.py is
// the other half and the entry point).
//
//   ldla_e2ebench gen --workload W --seed N --dir D
//       write W's seeded input files into D, fsynced
//   ldla_e2ebench run --workload W --seed N --dir D --seconds S --trace 0|1
//                     [--spans-out FILE] [--corrupt-output]
//       measure W on the inputs in D; the last stdout line is the result
//
// Exit codes: 0 done (the result line says whether outputs were correct),
// 1 error, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fputs(
      "usage: ldla_e2ebench gen --workload W --seed N --dir D\n"
      "       ldla_e2ebench run --workload W --seed N --dir D --seconds S "
      "--trace 0|1 [--spans-out FILE] [--corrupt-output]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string verb = argv[1];
  e2e::RunOptions o;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-output") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--dir") {
      o.dir = v;
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o.seconds > 0)) return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      o.trace = v == "1";
    } else {
      return usage();
    }
  }
  if (!e2e::known_workload(o.workload) || o.dir.empty() || !have_seed) {
    return usage();
  }
  try {
    if (verb == "gen") {
      e2e::generate(o.workload, o.seed, o.dir);
      return 0;
    }
    if (verb == "run") return e2e::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldla_e2ebench: %s\n", e.what());
    return 1;
  }
  return usage();
}

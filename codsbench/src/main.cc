// cods_bench: runs one workload of the CODS benchmark and prints its
// result as one JSON object on the last line of stdout.
//
//   cods_bench --workload evolve|mixed --seed N --seconds S
//              --trace 0|1 --dir SCRATCH [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// replay and prints the per-layer metrics (spans go to --spans). A wrong
// answer prints no result and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cods_bench: %s\nusage: cods_bench --workload "
               "evolve|mixed --seed N --seconds S --trace 0|1 "
               "--dir SCRATCH [--spans FILE]\n",
               why);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  codsbench::RunConfig cfg;
  cfg.workload.clear();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--dir") {
      cfg.dir = v;
    } else if (flag == "--spans") {
      cfg.spans_path = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.workload != "evolve" && cfg.workload != "mixed") {
    return Usage("--workload must be evolve or mixed");
  }
  if (cfg.dir.empty() || !(cfg.seconds > 0)) {
    return Usage("--dir and a positive --seconds are required");
  }

  const codsbench::Outcome out = codsbench::RunWorkload(cfg);
  if (!out.correct) {
    // A wrong answer fails the run; its timings are not a sample.
    std::fprintf(stderr, "WRONG: %s\n", out.first_error.c_str());
    return 1;
  }
  std::string json = "{\"correct\": true";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const codsbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// hmr_perfbench: runs one trial of one benchmark workload and prints
// its raw samples as one JSON line.  perfbench/run.py drives it; run
// directly for debugging:
//   hmr_perfbench --workload finegrain_tasks --seed 3 --trace 0

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hmr_perfbench: %s\nusage: hmr_perfbench --workload "
               "<finegrain_tasks|des_matmul> "
               "--seed <n> --trace <0|1> [--trial <k>] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
  using namespace hmr::bench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trial") {
      o.trial = std::atoi(v);
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  Spans spans(o.trace);
  Trial t;
  if (o.workload == "finegrain_tasks") {
    t = run_finegrain(o, spans);
  } else if (o.workload == "des_matmul") {
    t = run_des(o, spans);
  } else {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (o.trace) spans.write_json(artifact_stem(o) + ".spans.json");
  std::printf("%s\n", render_trial(o, t).c_str());
  return 0;
}

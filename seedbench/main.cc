// seedbench: the SEED benchmark driver binary. run.py builds and invokes
// it; it can also be run directly:
//
//   seedbench --workload query_mix|checkin_cycle|edit_persist
//             --seed N --seconds S --trace 0|1
//             [--items N] [--max-ops N] [--setup-reps N]
//             [--writers N] [--readers N]
//             [--work-dir DIR] [--spans PATH]
//
// It prints a human-readable report and, as its last line,
// "SEEDBENCH_RESULT {json}" with every metric it measured.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "seedbench: %s\nusage: seedbench --workload W --seed N "
               "--seconds S --trace 0|1 [--items N] [--max-ops N] "
               "[--setup-reps N] [--writers N] [--readers N] "
               "[--work-dir DIR] [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  seedbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = value == "1";
      } else if (flag == "--items") {
        opts.items = std::stol(value);
      } else if (flag == "--max-ops") {
        opts.max_ops = std::stol(value);
      } else if (flag == "--writers") {
        opts.writers = std::stoi(value);
      } else if (flag == "--readers") {
        opts.readers = std::stoi(value);
      } else if (flag == "--setup-reps") {
        opts.setup_reps = std::stoi(value);
      } else if (flag == "--work-dir") {
        opts.work_dir = value;
      } else if (flag == "--spans") {
        opts.spans_path = value;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (opts.seconds <= 0 && opts.max_ops <= 0) Usage("nothing to measure");

  seedbench::Report report;
  if (opts.workload == "query_mix") {
    seedbench::RunQueryMix(opts, &report);
  } else if (opts.workload == "checkin_cycle") {
    seedbench::RunCheckinCycle(opts, &report);
  } else if (opts.workload == "edit_persist") {
    std::error_code ec;
    std::filesystem::create_directories(opts.work_dir, ec);
    seedbench::RunEditPersist(opts, &report);
  } else {
    Usage("unknown workload");
  }
  if (opts.trace && !opts.spans_path.empty() &&
      !seedbench::Tracer::Get().WriteJsonLines(opts.spans_path)) {
    report.Fail("could not write spans to " + opts.spans_path);
  }
  report.Print(opts);
  return report.correct() ? 0 : 1;
}

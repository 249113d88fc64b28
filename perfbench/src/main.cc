// perfbench — the repository benchmark. Runs one workload (its three
// stages serve_tcp, train_fit and pipeline_swap in turn) and prints, as
// the last line of stdout, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A provenance line precedes it. See README.md.
//
//   perfbench --workload f64|f32 --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--source-rev REV]

#include <sys/prctl.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload f64|f32 "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--source-rev REV]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.work_dir = ".bench_build/work";
  std::string source_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-rev") {
      source_rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  if (args.workload == "f64") {
    args.precision = logirec::eval::ScorePrecision::kF64;
  } else if (args.workload == "f32") {
    args.precision = logirec::eval::ScorePrecision::kF32;
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  // The open-loop generator sleeps until each request is due; keep the
  // kernel from stretching those sleeps.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  std::printf("%s\n", perfbench::ProvenanceJson(args.workload, args.seed,
                                                source_rev)
                          .c_str());
  perfbench::Report report;
  const int64_t t0 = perfbench::NowNs();
  const long long steal0 = perfbench::HostStealTicks();
  const struct {
    const char* name;
    void (*run)(const perfbench::RunArgs&, perfbench::Report*);
    double share;
  } stages[] = {
      {"serve_tcp", perfbench::RunServeTcp, perfbench::kServeShare},
      {"train_fit", perfbench::RunTrainFit, perfbench::kFitShare},
      {"pipeline_swap", perfbench::RunPipelineSwap, perfbench::kWindowShare}};
  for (const auto& stage : stages) {
    perfbench::RunArgs stage_args = args;
    stage_args.seconds = args.seconds * stage.share;
    const int64_t s0 = perfbench::NowNs();
    stage.run(stage_args, &report);
    std::fprintf(stderr, "perfbench: stage %s took %.1f s\n", stage.name,
                 (perfbench::NowNs() - s0) * 1e-9);
  }
  if (args.trace) {
    report.Add("host.steal_share",
               perfbench::StealShare(t0, steal0, perfbench::NowNs(),
                                     perfbench::HostStealTicks()),
               "ratio");
  } else {
    report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  }
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "eval/compact.h"
#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< in a stage: its size (see kServeShare)
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
  /// Serving precision of every served generation (the workload's axis);
  /// training is f64 throughout.
  logirec::eval::ScorePrecision precision =
      logirec::eval::ScorePrecision::kF64;
};

// Every workload runs the three stages below one after another, each
// sized by --seconds, so that every run measures every layer. Each
// stage adds its end-to-end metrics (trace off) or its per-layer metrics
// (trace on) to `report` and fails it when a correctness gate does not
// hold. See README.md for the definitions.
void RunServeTcp(const RunArgs& args, Report* report);
void RunTrainFit(const RunArgs& args, Report* report);
void RunPipelineSwap(const RunArgs& args, Report* report);

/// The stages' sizes as multiples of --seconds, in the order they run:
/// serve_tcp's ladder runs for that many seconds, train_fit trains that
/// many epochs (about 0.5 s each) and pipeline_swap evaluates that many
/// windows (about 1 s each). At --seconds 32: 12 s, 20 epochs, 6 windows.
constexpr double kServeShare = 0.375;
constexpr double kFitShare = 0.625;
constexpr double kWindowShare = 0.1875;

/// Every workload runs on the CD preset generated with its own default
/// seed (as `logirec generate --dataset=cd` does), at the workload's
/// scale. --seed drives everything else: training seeds, request
/// schedules and user sequences. A fixed catalog keeps the quality
/// metrics comparable across seeds.
constexpr uint64_t kDatasetSeed = 22;

/// Threads the open-loop generator, the event loop and the model-server
/// workers may keep busy together: nproc, with at least one worker.
inline int ServeWorkers() { return Nproc() > 2 ? Nproc() - 2 : 1; }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

#ifndef PERFBENCH_WINDOW_LOOP_H_
#define PERFBENCH_WINDOW_LOOP_H_

// The continuous-learning loop composed from the pipeline's public parts
// and driven over the wire, step for step as pipeline::PipelineDriver
// runs it in process:
//
//   bootstrap: ingest the leading windows, FitFull, serve generation 1;
//   per window: rank the window's ground-truth users over TCP (the
//   forward-looking NDCG@20), WindowIngestor::Ingest, WarmStartTrainer::
//   Resume (which writes the next snapshot), `!reload <snapshot>`.
//
// The unit tests check that this loop reproduces PipelineDriver::Run's
// per-window NDCG@20 and train sizes exactly.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "harness.h"
#include "loadgen.h"
#include "pipeline/interaction_log.h"
#include "pipeline/warm_start.h"
#include "pipeline/window_ingestor.h"
#include "retrieval/retriever.h"
#include "serve_stack.h"

namespace perfbench {

/// Collects EpochStats from core::Trainer (TrainConfig::observer), with
/// the host steal share since the previous epoch ended (or since Reset).
class EpochLog : public logirec::core::TrainObserver {
 public:
  EpochLog() { Reset(); }
  void Reset() {
    epochs.clear();
    steal.clear();
    last_ns_ = NowNs();
    last_ticks_ = HostStealTicks();
  }
  void OnEpochEnd(const logirec::core::EpochStats& stats) override {
    const int64_t now = NowNs();
    const long long ticks = HostStealTicks();
    epochs.push_back(stats);
    steal.push_back(StealShare(last_ns_, last_ticks_, now, ticks));
    last_ns_ = now;
    last_ticks_ = ticks;
  }
  /// CleanMedian of one EpochStats field over the epochs.
  double CleanMedianOf(double logirec::core::EpochStats::*field,
                       long* dropped = nullptr) const {
    std::vector<double> values;
    for (const auto& stats : epochs) values.push_back(stats.*field);
    return CleanMedian(values, steal, dropped);
  }

  std::vector<logirec::core::EpochStats> epochs;
  std::vector<double> steal;

 private:
  int64_t last_ns_ = 0;
  long long last_ticks_ = 0;
};

struct WindowLoopOptions {
  int num_windows = 6;
  int bootstrap_windows = 2;
  int eval_k = 20;
  std::string snapshot_dir;  ///< must exist
  logirec::pipeline::WarmStartOptions trainer;
  logirec::core::TrainConfig config;  ///< observer is set by the loop
  /// Threads of the bootstrap FitFull, which runs before any read load
  /// (0 = config.num_threads). Results do not depend on thread counts.
  int bootstrap_threads = 0;
  /// Retrieval of every generation, the first one and each `!reload`.
  logirec::retrieval::RetrievalOptions retrieval;
  ServeStackOptions serve;
};

/// One evaluated window.
struct WindowRecord {
  int window = 0;
  uint64_t served_gen = 0;   ///< generation that answered the window
  uint64_t new_gen = 0;      ///< generation `!reload` published
  long eval_users = 0;
  long eval_failures = 0;
  double ndcg = 0.0;         ///< mean NDCG@eval_k over eval_users
  long train_size = 0;       ///< train-fold size after the ingest
  long appended = 0;
  double ingest_s = 0.0;
  double warm_train_s = 0.0;
  double write_s = 0.0;
  double reload_s = 0.0;     ///< `!reload` sent -> `ok reloaded` read
  double fresh_s = 0.0;      ///< Ingest start -> `ok reloaded` read
  double snapshot_mb = 0.0;
  double snapshot_read_ms = 0.0;  ///< load_ms from `!stats`
  double steal = 0.0;        ///< host steal share over the freshness span
  int64_t reloaded_ns = 0;   ///< when the `ok reloaded` reply was read
};

class WindowLoop {
 public:
  WindowLoop(const logirec::data::Dataset& dataset,
             const WindowLoopOptions& options);
  ~WindowLoop();

  /// Ingests the bootstrap windows.
  logirec::Status IngestBootstrap();
  /// Trains generation 1 with FitFull and serves it on a loopback port.
  logirec::Status TrainAndServe();
  /// Runs every remaining window. Stops at the first failed step.
  logirec::Status RunWindows();
  /// Stops the serving stack. Other clients must have closed first.
  void Stop();

  int port() const { return stack_ ? stack_->port() : 0; }
  ServeStack& stack() { return *stack_; }
  const std::vector<WindowRecord>& windows() const { return windows_; }
  /// The bootstrap FitFull's epochs.
  const EpochLog& bootstrap_epochs() const { return bootstrap_epochs_; }
  double mean_ndcg() const;
  /// Problems the over-the-wire checks found (wrong generation, a reload
  /// that did not answer `ok reloaded`, failed ground-truth ranks).
  const std::vector<std::string>& errors() const { return errors_; }
  std::string snapshot_path(uint64_t generation) const;

 private:
  logirec::Status RunWindow(int w);

  const logirec::data::Dataset& dataset_;
  WindowLoopOptions options_;
  logirec::pipeline::InteractionLog log_;
  logirec::pipeline::WindowIngestor ingestor_;
  logirec::pipeline::WarmStartTrainer trainer_;
  std::unique_ptr<ServeStack> stack_;
  SyncClient control_;
  uint64_t current_gen_ = 1;
  std::string prev_snapshot_;
  EpochLog bootstrap_epochs_;
  std::vector<WindowRecord> windows_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WINDOW_LOOP_H_

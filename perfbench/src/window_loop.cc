#include "window_loop.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include "baselines/model_zoo.h"
#include "eval/metrics.h"
#include "harness.h"
#include "pipeline/pipeline.h"
#include "serve/servable.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace perfbench {

using logirec::Status;
namespace core = logirec::core;
namespace pipeline = logirec::pipeline;
namespace serve = logirec::serve;

namespace {

constexpr size_t kControlWindow = 64;


double FileMb(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

/// load_ms=<x> from a `!stats` reply; -1 when absent.
double StatsLoadMs(const std::string& line) {
  const size_t at = line.find(" load_ms=");
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + 9, nullptr);
}

}  // namespace

WindowLoop::WindowLoop(const logirec::data::Dataset& dataset,
                       const WindowLoopOptions& options)
    : dataset_(dataset),
      options_(options),
      log_(dataset, options.num_windows),
      ingestor_(log_.MakeBaseDataset(),
                pipeline::MakeIngestorOptions(options.trainer.model,
                                              options.config)),
      trainer_(options.trainer, options.config) {}

WindowLoop::~WindowLoop() { Stop(); }

std::string WindowLoop::snapshot_path(uint64_t generation) const {
  return logirec::StrFormat("%s/gen%03llu.snap", options_.snapshot_dir.c_str(),
                            static_cast<unsigned long long>(generation));
}

Status WindowLoop::IngestBootstrap() {
  if (options_.bootstrap_windows < 1 ||
      options_.bootstrap_windows >= options_.num_windows) {
    return Status::InvalidArgument("bootstrap_windows out of range");
  }
  for (int w = 0; w < options_.bootstrap_windows; ++w) {
    auto stats = ingestor_.Ingest(log_.window(w));
    if (!stats.ok()) return stats.status();
  }
  return Status::OK();
}

Status WindowLoop::TrainAndServe() {
  prev_snapshot_ = snapshot_path(1);
  bootstrap_epochs_.Reset();
  core::TrainConfig config = options_.config;
  config.observer = &bootstrap_epochs_;
  if (options_.bootstrap_threads > 0) {
    config.num_threads = options_.bootstrap_threads;
  }
  pipeline::WarmStartTrainer bootstrap(options_.trainer, config);
  auto round =
      bootstrap.FitFull(ingestor_.dataset(), ingestor_.split(), prev_snapshot_);
  if (!round.ok()) return round.status();

  auto first = serve::ServableModel::FromSnapshot(
      prev_snapshot_, logirec::baselines::MakeModel, &ingestor_.split(), 1,
      options_.retrieval);
  if (!first.ok()) return first.status();
  ServeStackOptions serve_options = options_.serve;
  serve_options.retrieval = options_.retrieval;
  stack_ = std::make_unique<ServeStack>(serve_options, &ingestor_.split());
  LOGIREC_RETURN_IF_ERROR(stack_->Start(*first));
  current_gen_ = 1;
  return control_.Connect(stack_->port());
}

Status WindowLoop::RunWindows() {
  for (int w = options_.bootstrap_windows; w < options_.num_windows; ++w) {
    LOGIREC_RETURN_IF_ERROR(RunWindow(w));
  }
  return Status::OK();
}

Status WindowLoop::RunWindow(int w) {
  WindowRecord record;
  record.window = w;
  record.served_gen = current_gen_;
  const int k = options_.eval_k;

  // Ground truth: the window's items each user has not interacted with
  // yet (already-seen pairs are masked by serving), as PipelineDriver
  // builds it.
  std::vector<std::vector<int>> truth(dataset_.num_users);
  for (const logirec::data::Interaction& x : log_.window(w)) {
    if (ingestor_.sampler()->IsPositive(x.user, x.item)) continue;
    std::vector<int>& row = truth[x.user];
    if (std::find(row.begin(), row.end(), x.item) == row.end()) {
      row.push_back(x.item);
    }
  }

  // Forward-looking evaluation over the wire, before the ingest.
  std::vector<int> users;
  std::vector<std::string> lines;
  for (int u = 0; u < dataset_.num_users; ++u) {
    if (truth[u].empty()) continue;
    users.push_back(u);
    lines.push_back(logirec::StrFormat("%d %d", u, k));
  }
  // A well-behaved client: at most kControlWindow requests in flight, so
  // the evaluation never overruns the server's admission queue.
  std::vector<std::string> replies;
  for (size_t at = 0; at < lines.size(); at += kControlWindow) {
    const size_t end = std::min(lines.size(), at + kControlWindow);
    auto got = control_.Exchange(
        std::vector<std::string>(lines.begin() + at, lines.begin() + end));
    if (!got.ok()) return got.status();
    replies.insert(replies.end(), got->begin(), got->end());
  }
  for (size_t i = 0; i < users.size(); ++i) {
    ++record.eval_users;
    const Reply reply = ParseReply(replies[i]);
    if (IsFailedRank(reply) || reply.user != users[i]) {
      ++record.eval_failures;
      errors_.push_back("window " + std::to_string(w) +
                        ": ground-truth rank failed: " + replies[i]);
      continue;
    }
    if (reply.gen != current_gen_) {
      errors_.push_back(logirec::StrFormat(
          "window %d: rank answered by gen=%llu, expected gen=%llu", w,
          static_cast<unsigned long long>(reply.gen),
          static_cast<unsigned long long>(current_gen_)));
    }
    record.ndcg += logirec::eval::NdcgAtK(reply.items, truth[users[i]], k);
  }
  if (record.eval_users > 0) {
    record.ndcg /= static_cast<double>(record.eval_users);
  }

  // Ingest -> warm resume (writes the snapshot) -> !reload.
  const int64_t fresh_start = NowNs();
  const long long steal_start = HostStealTicks();
  logirec::Timer ingest_timer;
  auto ingested = ingestor_.Ingest(log_.window(w));
  if (!ingested.ok()) return ingested.status();
  record.ingest_s = ingest_timer.ElapsedSeconds();
  record.appended = ingested->appended;
  record.train_size = ingestor_.split().TrainSize();

  const uint64_t next_gen = current_gen_ + 1;
  const std::string next_snapshot = snapshot_path(next_gen);
  core::TrainResources resources = ingestor_.Resources();
  auto round = trainer_.Resume(prev_snapshot_, ingestor_.dataset(),
                               ingestor_.split(), &resources, next_snapshot);
  if (!round.ok()) return round.status();
  record.warm_train_s = round->train_seconds;
  record.write_s = round->snapshot_seconds;
  record.snapshot_mb = FileMb(next_snapshot);

  logirec::Timer reload_timer;
  auto reloaded = control_.Exchange({"!reload " + next_snapshot});
  if (!reloaded.ok()) return reloaded.status();
  record.reloaded_ns = NowNs();
  record.reload_s = reload_timer.ElapsedSeconds();
  record.fresh_s = (record.reloaded_ns - fresh_start) * 1e-9;
  record.steal = StealShare(fresh_start, steal_start, record.reloaded_ns,
                            HostStealTicks());
  const std::string& answer = (*reloaded)[0];
  const Reply reply = ParseReply(answer);
  if (answer.rfind("ok reloaded", 0) != 0 || reply.gen != next_gen) {
    errors_.push_back("window " + std::to_string(w) +
                      ": !reload answered '" + answer + "', expected gen=" +
                      std::to_string(next_gen));
    return Status::Internal("reload failed: " + answer);
  }
  record.new_gen = reply.gen;
  current_gen_ = next_gen;
  prev_snapshot_ = next_snapshot;

  auto stats = control_.Exchange({"!stats"});
  if (!stats.ok()) return stats.status();
  record.snapshot_read_ms = StatsLoadMs((*stats)[0]);
  windows_.push_back(std::move(record));
  return Status::OK();
}

void WindowLoop::Stop() {
  control_.Close();
  if (stack_ != nullptr) stack_->Stop();
}

double WindowLoop::mean_ndcg() const {
  if (windows_.empty()) return 0.0;
  double sum = 0.0;
  for (const WindowRecord& record : windows_) sum += record.ndcg;
  return sum / static_cast<double>(windows_.size());
}

}  // namespace perfbench

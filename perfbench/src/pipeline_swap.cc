// pipeline_swap stage: the continuous-learning loop over InteractionLog
// windows with open-loop reads at one fixed modest rate running
// throughout, and every new generation published with `!reload` over the
// wire, built in the workload's serving precision.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/model_zoo.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "harness.h"
#include "loadgen.h"
#include "retrieval/retriever.h"
#include "util/string_util.h"
#include "window_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = logirec::core;
namespace data = logirec::data;

// --- the workload definition -------------------------------------------
constexpr double kScale = 2.0;         // CD preset: 1120 users, 1040 items
constexpr int kBootstrapEpochs = 10;
constexpr int kFineTuneEpochs = 2;
constexpr double kReadQps = 400.0;
constexpr int kReadK = 10;
constexpr double kFailMs = 1e4;
constexpr int kSetupReps = 3;
constexpr size_t kChunk = 1000;  // reads per latency chunk (see harness.h)

/// Training threads: what the generator, the event loop and the single
/// serving worker leave of nproc.
int TrainThreads() { return std::max(1, Nproc() - 3); }

WindowLoopOptions LoopOptions(const RunArgs& args, int windows) {
  WindowLoopOptions options;
  // The bootstrap holds the first half of the log; each evaluated window
  // adds 1/(2 * windows) of it.
  options.num_windows = 2 * windows;
  options.bootstrap_windows = windows;
  options.eval_k = 20;
  options.snapshot_dir = args.work_dir;
  options.trainer.model = "LogiRec++";
  options.trainer.fine_tune_epochs = kFineTuneEpochs;
  options.config.epochs = kBootstrapEpochs;
  options.config.seed = args.seed;
  options.config.num_threads = TrainThreads();
  options.bootstrap_threads = Nproc();  // no reads run during the bootstrap
  options.retrieval.kind = logirec::retrieval::RetrievalKind::kIvf;
  options.retrieval.precision = args.precision;
  options.retrieval.ivf.num_threads = TrainThreads();
  options.serve.workers = 1;
  return options;
}

}  // namespace

void RunPipelineSwap(const RunArgs& args, Report* report) {
  // One evaluated window per requested second.
  const int windows = std::max(2, static_cast<int>(args.seconds + 0.5));

  // --- set-up: dataset, window slicing, ingestor, bootstrap ingest ------
  std::vector<double> setup_s;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<WindowLoop> loop;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    loop.reset();
    const int64_t t0 = NowNs();
    dataset = std::make_unique<data::Dataset>(
        data::GenerateSynthetic(data::CdLikeConfig(kScale, kDatasetSeed)));
    loop = std::make_unique<WindowLoop>(*dataset, LoopOptions(args, windows));
    const logirec::Status ingested = loop->IngestBootstrap();
    if (!ingested.ok()) {
      report->Fail("set-up: " + ingested.ToString());
      return;
    }
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }

  // --- bootstrap FitFull, no concurrent reads ----------------------------
  const logirec::Status served = loop->TrainAndServe();
  if (!served.ok()) {
    report->Fail("bootstrap: " + served.ToString());
    return;
  }

  // --- reads throughout the window loop ----------------------------------
  LoadClient reader;
  StealClock clock;
  reader.set_steal_clock(&clock);
  if (!reader.Connect(loop->port(), 1).ok()) {
    report->Fail("reader could not connect");
    loop->Stop();
    return;
  }
  const uint64_t read_seed = args.seed * 1000003ULL + 7;
  // A schedule long enough for any run; the stop flag ends it.
  const std::vector<int64_t> due =
      PoissonSchedule(read_seed, kReadQps, 60.0 + 10.0 * args.seconds);
  std::vector<int> users(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    users[i] = UniformAt(read_seed, 1, i, dataset->num_users);
  }
  std::atomic<bool> stop{false};
  PhaseResult reads;
  std::thread generator([&] {
    reads = reader.Run(due, users, kReadK, [](size_t) { return false; },
                       10000.0, &stop);
  });
  const logirec::Status ran = loop->RunWindows();
  stop.store(true);
  generator.join();
  reader.Close();
  if (!ran.ok()) report->Fail("window loop: " + ran.ToString());
  if (!loop->errors().empty()) {
    report->Fail(logirec::StrFormat("%zu over-the-wire check(s) failed; first: %s",
                                    loop->errors().size(),
                                    loop->errors()[0].c_str()));
  }

  // --- gates on the reads ---------------------------------------------
  long missing = 0, stale = 0;
  const auto& records = loop->windows();
  for (const Sent& s : reads.sent) {
    if (s.send_ns == 0) continue;  // never sent (stopped first)
    if (s.recv_ns == 0) ++missing;
    if (s.failed) continue;
    // A read sent after `ok reloaded gen=G` was read must be served by G
    // or later.
    for (const WindowRecord& record : records) {
      if (s.send_ns > record.reloaded_ns && s.gen < record.new_gen) {
        ++stale;
        break;
      }
    }
  }
  if (missing > 0 || reads.order_violations > 0 || stale > 0) {
    report->Fail(logirec::StrFormat(
        "reads: %ld missing, %ld out of order, %ld served by a replaced "
        "generation",
        missing, reads.order_violations, stale));
  }
  // Only the requests actually sent count.
  while (!reads.sent.empty() && reads.sent.back().send_ns == 0) {
    reads.sent.pop_back();
  }
  const long sent = static_cast<long>(reads.sent.size());
  const long failed = reads.failures();
  if (TailPercentileFor(sent) < 99.0) {
    report->Fail(logirec::StrFormat("only %ld reads: too few for a p99", sent));
  }
  if (static_cast<int>(records.size()) != windows) {
    report->Fail("not every window completed");
  }
  long eval_failures = 0;
  for (const WindowRecord& record : records) eval_failures += record.eval_failures;
  report->Count(sent + static_cast<long>(records.size()), failed + eval_failures);

  // Medians over windows and epochs leave out the ones the host stole
  // CPU time from (harness.h).
  std::vector<double> window_steal;
  for (const WindowRecord& record : records) window_steal.push_back(record.steal);
  long dropped_windows = 0, dropped_epochs = 0, dropped_chunks = 0;
  auto median_of = [&](double WindowRecord::*field) {
    std::vector<double> values;
    for (const WindowRecord& record : records) values.push_back(record.*field);
    return CleanMedian(values, window_steal, &dropped_windows);
  };
  const double fresh_s = median_of(&WindowRecord::fresh_s);
  const double epoch_s = loop->bootstrap_epochs().CleanMedianOf(
      &core::EpochStats::seconds, &dropped_epochs);
  const double p50 = reads.CleanChunkLatency(kChunk, 50.0, kFailMs, clock);
  const double p99 =
      reads.CleanChunkLatency(kChunk, 99.0, kFailMs, clock, &dropped_chunks);
  const double steal_share =
      reads.sent.empty()
          ? 0.0
          : clock.Share(reads.sent.front().due_ns, reads.sent.back().due_ns);
  std::printf("{\"samples\": {\"reads\": %ld, \"windows\": %zu, "
              "\"bootstrap_epochs\": %zu, \"setup_reps\": %d}, "
              "\"host_steal_share\": %.4f, \"dropped\": {\"read_chunks\": "
              "%ld, \"windows\": %ld, \"epochs\": %ld}}\n",
              sent, records.size(), loop->bootstrap_epochs().epochs.size(),
              kSetupReps, steal_share, dropped_chunks, dropped_windows,
              dropped_epochs);

  if (!args.trace) {
    report->Accumulate("setup_s", Median(setup_s), "s");
    report->Add("window_ndcg20", loop->mean_ndcg(), "ratio");
    loop->Stop();
    return;
  }

  // --- per-layer: the retrieval layer, replayed on the last generation --
  // The model is restored from the last snapshot; the index is built over
  // it exactly as `!reload` builds it, then queried with the read users.
  const WindowLoopOptions options = LoopOptions(args, windows);
  auto restored = core::ModelSnapshot::Read(
      loop->snapshot_path(records.empty() ? 1 : records.back().new_gen),
      logirec::baselines::MakeModel);
  double build_s = 0.0, retrieve_us = 0.0, resident_mb = 0.0;
  if (!restored.ok()) {
    report->Fail("restore: " + restored.status().ToString());
  } else {
    const int64_t t0 = NowNs();
    auto index = logirec::retrieval::BuildRetriever(**restored, options.retrieval);
    build_s = (NowNs() - t0) * 1e-9;
    if (!index.ok()) report->Fail("index build: " + index.status().ToString());
    const auto generation = loop->stack().server().Current();
    resident_mb = generation->ResidentScoringBytes() / (1024.0 * 1024.0);
    logirec::eval::RetrieveScratch scratch;
    std::vector<int> out;
    const size_t n = std::min<size_t>(reads.sent.size(), 2000);
    const int64_t r0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      generation->RetrieveRanked(reads.sent[i].user, kReadK, &scratch, &out);
    }
    retrieve_us = n > 0 ? (NowNs() - r0) * 1e-3 / n : 0.0;
  }

  std::vector<double> coverage;
  long appended = 0;
  for (const WindowRecord& record : records) {
    appended += record.appended;
    coverage.push_back((record.ingest_s + record.warm_train_s +
                        record.write_s + record.reload_s) /
                       record.fresh_s);
  }
  std::vector<double> lateness = reads.LatenessMs();
  // Freshness, the read latency and the bootstrap epoch do not repeat
  // across runs on a shared host (README.md), so they are per-layer.
  report->Add("window_fresh_s", fresh_s, "s");
  report->Add("pipeline.read_p50_ms", p50, "ms");
  report->Add("pipeline.read_p99_ms", p99, "ms");
  report->Add("pipeline.bootstrap_epoch_s", epoch_s, "s");
  report->Add("pipeline.ingest_s", median_of(&WindowRecord::ingest_s), "s");
  report->Add("pipeline.warm_train_s", median_of(&WindowRecord::warm_train_s),
              "s");
  report->Add("snapshot.write_s", median_of(&WindowRecord::write_s), "s");
  report->Add("snapshot.mb", median_of(&WindowRecord::snapshot_mb), "MB");
  report->Add("snapshot.read_ms", median_of(&WindowRecord::snapshot_read_ms),
              "ms");
  report->Add("pipeline.reload_s", median_of(&WindowRecord::reload_s), "s");
  report->Add("pipeline.appended", static_cast<double>(appended), "count");
  report->Add("retrieval.build_s", build_s, "s");
  report->Add("retrieval.retrieve_us", retrieve_us, "us");
  report->Add("retrieval.resident_mb", resident_mb, "MB");
  report->Add("pipeline.read_late_p99_ms", Percentile(lateness, 99.0), "ms");
  report->Add("pipeline.reads", static_cast<double>(sent), "count");
  report->Add("pipeline.read_fail_frac",
              static_cast<double>(failed) / std::max(1L, sent), "ratio");
  report->Add("pipeline.dropped_units",
              static_cast<double>(dropped_chunks + dropped_windows +
                                  dropped_epochs),
              "count");
  // Share of each window's freshness time (Ingest start -> `ok reloaded`)
  // covered by ingest, warm training, snapshot write and the reload round
  // trip; the rest is Resume restoring the previous snapshot.
  report->Add("trace.coverage_window", Median(coverage), "ratio");
  loop->Stop();
}

}  // namespace perfbench

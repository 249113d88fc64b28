// Tests of the benchmark's own machinery: the percentile rule, the
// open-loop schedule, the reply parser, the result line, the oracle
// check, and the over-the-wire window loop against
// pipeline::PipelineDriver.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "harness.h"
#include "loadgen.h"
#include "pipeline/pipeline.h"
#include "serve_stack.h"
#include "window_loop.h"

namespace perfbench {
namespace {

namespace core = logirec::core;
namespace data = logirec::data;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "perfbench_" + name + "_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(0), 50.0);
  EXPECT_EQ(TailPercentileFor(99), 50.0);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(999), 90.0);
  EXPECT_EQ(TailPercentileFor(1000), 99.0);
  EXPECT_EQ(TailPercentileFor(9999), 99.0);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
  EXPECT_EQ(TailPercentileFor(100000), 99.99);
  EXPECT_EQ(TailPercentileFor(10000000), 99.99);
}

TEST(PercentileRule, NearestRankAndChunkedMedian) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 50.0), 50.0);
  EXPECT_EQ(Percentile(values, 99.0), 99.0);
  EXPECT_EQ(Percentile(values, 100.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
  // Three chunks of 100; one stalled chunk cannot move the median p99.
  std::vector<double> ordered;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 100; ++i) ordered.push_back(c == 1 ? 1000.0 : i);
  }
  EXPECT_EQ(ChunkPercentiles(ordered, 100, 99.0),
            (std::vector<double>{99.0, 1000.0, 99.0}));
  EXPECT_EQ(Median(ChunkPercentiles(ordered, 100, 99.0)), 99.0);
  // A short tail joins the last chunk; fewer samples than one chunk fall
  // back to the plain percentile.
  EXPECT_EQ(ChunkPercentiles(values, 1000, 99.0), std::vector<double>{99.0});
  EXPECT_EQ(ChunkPercentiles(values, 40, 50.0),
            (std::vector<double>{20.0, 70.0}));
}

TEST(HostSteal, CleanMedianLeavesOutStolenUnits) {
  const std::vector<double> values = {1.0, 1.1, 9.0, 1.2, 8.0};
  const std::vector<double> steal = {0.0, 0.001, 0.2, 0.0, 0.03};
  long dropped = -1;
  EXPECT_EQ(CleanMedian(values, steal, &dropped), 1.1);
  EXPECT_EQ(dropped, 2);
  // Fewer than half clean: the half with the least steal.
  EXPECT_EQ(CleanMedian(values, {0.1, 0.2, 0.3, 0.0, 0.4}, &dropped), 1.1);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(CleanMedian(values, {}, &dropped), 1.2);
  EXPECT_EQ(dropped, 0);
  // One second on every CPU, all of it stolen, is a share of 1.
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  EXPECT_DOUBLE_EQ(StealShare(0, 0, 1'000'000'000,
                              static_cast<long long>(hz * Nproc())),
                   1.0);
  EXPECT_GE(HostStealTicks(), 0);
}

TEST(PoissonSchedule, PureFunctionOfTheSeed) {
  const auto a = PoissonSchedule(7, 2000.0, 2.0);
  const auto b = PoissonSchedule(7, 2000.0, 2.0);
  const auto c = PoissonSchedule(8, 2000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2'000'000'000);
  // ~4000 arrivals; a Poisson count is within 5% of its mean here.
  EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 200.0);
  // Different rates in one run draw different streams.
  const auto d = PoissonSchedule(7, 4000.0, 1.0);
  EXPECT_NE(std::vector<int64_t>(a.begin(), a.begin() + 100),
            std::vector<int64_t>(d.begin(), d.begin() + 100));
  EXPECT_EQ(UniformAt(3, 1, 42, 1000), UniformAt(3, 1, 42, 1000));
}

TEST(ReplyParser, BusyAndErrorCountAsFailures) {
  EXPECT_TRUE(IsFailedRank(ParseReply("!busy")));
  EXPECT_EQ(ParseReply("!busy").kind, Reply::Kind::kBusy);
  const Reply error = ParseReply("error InvalidArgument: user 9 out of range");
  EXPECT_EQ(error.kind, Reply::Kind::kError);
  EXPECT_TRUE(IsFailedRank(error));
  EXPECT_TRUE(IsFailedRank(ParseReply("")));
  EXPECT_TRUE(IsFailedRank(ParseReply("ok user=3 gen=2 items=5,x")));
  // A reload acknowledgement is not a ranking.
  const Reply reload = ParseReply("ok reloaded gen=4 model=LogiRec++");
  EXPECT_EQ(reload.kind, Reply::Kind::kOk);
  EXPECT_EQ(reload.gen, 4u);
  EXPECT_TRUE(IsFailedRank(reload));

  const Reply ok = ParseReply("ok user=3 gen=2 items=5,16,7");
  EXPECT_FALSE(IsFailedRank(ok));
  EXPECT_EQ(ok.user, 3);
  EXPECT_EQ(ok.gen, 2u);
  EXPECT_EQ(ok.items, (std::vector<int>{5, 16, 7}));
  EXPECT_TRUE(ParseReply("ok user=3 gen=2 items=5,16,7", false).items.empty());
}

TEST(Report, AccumulateSumsAMetricAcrossStages) {
  Report report;
  report.Accumulate("setup_s", 1.5, "s");
  report.Add("rank_p50_ms", 0.25, "ms");
  report.Accumulate("setup_s", 0.5, "s");
  report.Count(3, 1);
  const std::string json = report.ResultJson();
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 2, \"unit\": \"s\"}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("setup_s"), json.rfind("setup_s")) << json;
  EXPECT_NE(json.find("\"attempted\": 3, \"failed\": 1"), std::string::npos)
      << json;
}

/// A tiny trained LogiRec++ served over loopback TCP.
class ServedTiny : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::GenerateSynthetic(data::CdLikeConfig(0.3, 5));
    split_ = data::TemporalSplit(dataset_);
    core::TrainConfig config;
    config.epochs = 2;
    config.num_threads = 2;
    auto model = logirec::baselines::MakeModel("LogiRec++", config);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE((*model)->Fit(dataset_, split_).ok());
    path_ = FreshDir("oracle") + "/tiny.snap";
    core::SnapshotHeader header;
    header.dim = config.dim;
    header.layers = config.layers;
    header.num_users = dataset_.num_users;
    header.num_items = dataset_.num_items;
    ASSERT_TRUE(core::ModelSnapshot::Write(**model, header, path_).ok());
    auto servable = logirec::serve::ServableModel::FromSnapshot(
        path_, logirec::baselines::MakeModel, &split_, 1);
    ASSERT_TRUE(servable.ok());
    ServeStackOptions options;
    options.workers = 2;
    stack_ = std::make_unique<ServeStack>(options, &split_);
    ASSERT_TRUE(stack_->Start(*servable).ok());
  }
  void TearDown() override {
    if (stack_) stack_->Stop();
    ::unlink(path_.c_str());
  }

  data::Dataset dataset_;
  data::Split split_;
  std::string path_;
  std::unique_ptr<ServeStack> stack_;
};

TEST_F(ServedTiny, OracleAcceptsServedRankingAndRejectsPerturbed) {
  SyncClient client;
  ASSERT_TRUE(client.Connect(stack_->port()).ok());
  auto replies = client.Exchange({"3 10", "17 10"});
  client.Close();
  ASSERT_TRUE(replies.ok());
  for (const std::string& line : *replies) {
    const Reply reply = ParseReply(line);
    ASSERT_FALSE(IsFailedRank(reply)) << line;
    std::vector<int> oracle;
    ASSERT_TRUE(stack_->server().Rank(reply.user, 10, &oracle).ok());
    EXPECT_TRUE(MatchesOracle(reply.items, oracle));

    std::vector<int> swapped = reply.items;
    std::swap(swapped[0], swapped[1]);
    EXPECT_FALSE(MatchesOracle(swapped, oracle));
    std::vector<int> truncated(reply.items.begin(), reply.items.end() - 1);
    EXPECT_FALSE(MatchesOracle(truncated, oracle));
    std::vector<int> replaced = reply.items;
    replaced.back() = -1;
    EXPECT_FALSE(MatchesOracle(replaced, oracle));
  }
}

TEST_F(ServedTiny, OpenLoopRepliesArriveInOrder) {
  LoadClient client;
  ASSERT_TRUE(client.Connect(stack_->port(), 3).ok());
  const auto due = PoissonSchedule(11, 2000.0, 0.25);
  std::vector<int> users;
  for (size_t i = 0; i < due.size(); ++i) {
    users.push_back(UniformAt(11, 1, i, dataset_.num_users));
  }
  const PhaseResult phase =
      client.Run(due, users, 10, [](size_t) { return true; }, 5000.0);
  client.Close();
  EXPECT_EQ(phase.order_violations, 0);
  EXPECT_EQ(phase.failures(), 0);
  ASSERT_EQ(phase.sent.size(), due.size());
  for (const Sent& s : phase.sent) {
    EXPECT_GE(s.send_ns, s.due_ns);
    EXPECT_GT(s.recv_ns, s.send_ns);
    EXPECT_EQ(s.items.size(), 10u);
  }
}

/// PipelineDriver options describing the same run as `options`.
logirec::pipeline::PipelineOptions DriverOptions(
    const WindowLoopOptions& options) {
  logirec::pipeline::PipelineOptions driver;
  driver.num_windows = options.num_windows;
  driver.bootstrap_windows = options.bootstrap_windows;
  driver.full_retrain = false;
  driver.eval_k = options.eval_k;
  driver.snapshot_dir = options.snapshot_dir;
  driver.trainer = options.trainer;
  driver.retrieval = options.retrieval;
  driver.server.num_threads = options.serve.workers;
  driver.server.max_queue = options.serve.max_queue;
  return driver;
}

TEST(WindowLoop, ReproducesPipelineDriverPerWindow) {
  const data::Dataset dataset =
      data::GenerateSynthetic(data::CdLikeConfig(0.4, 9));
  WindowLoopOptions options;
  options.num_windows = 5;
  options.bootstrap_windows = 2;
  options.eval_k = 20;
  options.trainer.model = "LogiRec++";
  options.trainer.fine_tune_epochs = 1;
  options.config.epochs = 3;
  options.config.seed = 9;
  options.config.num_threads = 2;
  options.bootstrap_threads = 3;
  options.retrieval.kind = logirec::retrieval::RetrievalKind::kIvf;
  options.serve.workers = 1;

  options.snapshot_dir = FreshDir("loop");
  WindowLoop loop(dataset, options);
  ASSERT_TRUE(loop.IngestBootstrap().ok());
  ASSERT_TRUE(loop.TrainAndServe().ok());
  ASSERT_TRUE(loop.RunWindows().ok());
  loop.Stop();
  EXPECT_TRUE(loop.errors().empty());

  WindowLoopOptions driver_options = options;
  driver_options.snapshot_dir = FreshDir("driver");
  logirec::pipeline::PipelineDriver driver(DriverOptions(driver_options),
                                           options.config);
  auto report = driver.Run(dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(loop.windows().size(), report->windows.size());
  ASSERT_EQ(loop.windows().size(), 3u);
  for (size_t i = 0; i < report->windows.size(); ++i) {
    const WindowRecord& ours = loop.windows()[i];
    const auto& theirs = report->windows[i];
    EXPECT_EQ(ours.window, theirs.window);
    EXPECT_EQ(ours.served_gen, theirs.generation);
    EXPECT_EQ(ours.eval_users, theirs.eval_users);
    EXPECT_EQ(ours.ndcg, theirs.ndcg) << "window " << ours.window;
    EXPECT_EQ(ours.train_size, theirs.train_size);
    EXPECT_EQ(ours.appended, theirs.ingest.appended);
    EXPECT_EQ(ours.new_gen, ours.served_gen + 1);
  }
  EXPECT_EQ(loop.mean_ndcg(), report->mean_ndcg);
}

}  // namespace
}  // namespace perfbench

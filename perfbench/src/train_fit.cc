// train_fit stage: fixed-epoch LogiRec++ Fit in kDeterministic mode at
// nproc threads, no early stopping, test-fold NDCG@20 once at the end.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/model_zoo.h"
#include "core/hgcn.h"
#include "core/logic_engine.h"
#include "core/logirec_model.h"
#include "core/negative_sampler.h"
#include "core/train_util.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "graph/bipartite_graph.h"
#include "graph/propagation.h"
#include "harness.h"
#include "pipeline/pipeline.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "window_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = logirec::core;
namespace data = logirec::data;
using logirec::math::Matrix;

// --- the workload definition -------------------------------------------
/// CD preset: 1680 users, 1560 items. Twenty epochs here (about 0.5 s
/// each on 4 cores) give a test NDCG@20 that repeats across seeds within
/// about 2%; twelve epochs on CD x5 cost more and spread 5%.
constexpr double kScale = 3.0;
/// The thread-count gate runs on a smaller catalog of the same preset:
/// the same code at a fraction of the cost.
constexpr double kGateScale = 2.0;
constexpr int kSetupReps = 3;
constexpr int kReplays = 31;    // calls per layer replay; median reported

core::TrainConfig FitConfig(uint64_t seed, int epochs, int threads) {
  core::TrainConfig config;  // LogiRec++ defaults: d=32, L=3, batch 256
  config.epochs = epochs;
  config.seed = seed;
  config.num_threads = threads;
  config.parallel_mode = core::ParallelMode::kDeterministic;
  config.early_stopping_patience = 0;
  return config;
}

struct Fitted {
  std::unique_ptr<core::Recommender> model;
  EpochLog log;
};

logirec::Result<std::unique_ptr<Fitted>> FitOnce(const data::Dataset& dataset,
                                                 const data::Split& split,
                                                 core::TrainConfig config) {
  auto fitted = std::make_unique<Fitted>();
  config.observer = &fitted->log;
  auto model = logirec::baselines::MakeModel("LogiRec++", config);
  if (!model.ok()) return model.status();
  LOGIREC_RETURN_IF_ERROR((*model)->Fit(dataset, split));
  fitted->model = std::move(*model);
  return fitted;
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    const auto x = a.Row(r);
    const auto y = b.Row(r);
    if (!std::equal(x.begin(), x.end(), y.begin())) return false;
  }
  return true;
}

/// Median wall time of `reps` calls of `call(r)`, in ms.
template <typename Call>
double MedianCallMs(int reps, Call call) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    call(r);
    ms.push_back((NowNs() - t0) * 1e-6);
  }
  return Median(ms);
}


}  // namespace

void RunTrainFit(const RunArgs& args, Report* report) {
  const int threads = Nproc();
  const int epochs = std::max(2, static_cast<int>(args.seconds + 0.5));

  // --- set-up: dataset, split, and Fit's own set-up (a 0-epoch Fit:
  // graph, relations, mining state, initial propagation) -----------------
  std::vector<double> setup_s;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<data::Split> split;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    dataset = std::make_unique<data::Dataset>(
        data::GenerateSynthetic(data::CdLikeConfig(kScale, kDatasetSeed)));
    split = std::make_unique<data::Split>(data::TemporalSplit(*dataset));
    auto zero = FitOnce(*dataset, *split, FitConfig(args.seed, 0, threads));
    if (!zero.ok()) {
      report->Fail("set-up: " + zero.status().ToString());
      return;
    }
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }

  // --- gate: one epoch at 1 thread and at nproc threads, bit-identical --
  const data::Dataset gate_data =
      data::GenerateSynthetic(data::CdLikeConfig(kGateScale, kDatasetSeed));
  const data::Split gate_split = data::TemporalSplit(gate_data);
  auto one = FitOnce(gate_data, gate_split, FitConfig(args.seed, 1, 1));
  auto many = FitOnce(gate_data, gate_split, FitConfig(args.seed, 1, threads));
  if (!one.ok() || !many.ok()) {
    report->Fail("gate fit failed");
    return;
  }
  {
    const auto& a = dynamic_cast<const core::LogiRecModel&>(*(*one)->model);
    const auto& b = dynamic_cast<const core::LogiRecModel&>(*(*many)->model);
    if (!SameMatrix(a.final_user(), b.final_user()) ||
        !SameMatrix(a.final_item(), b.final_item())) {
      report->Fail(logirec::StrFormat(
          "scores after one epoch differ between 1 and %d threads", threads));
    }
  }

  // --- the measured Fit ---------------------------------------------------
  auto fitted = FitOnce(*dataset, *split, FitConfig(args.seed, epochs, threads));
  if (!fitted.ok()) {
    report->Fail("fit: " + fitted.status().ToString());
    return;
  }
  const Fitted& fit = **fitted;
  if (static_cast<int>(fit.log.epochs.size()) != epochs) {
    report->Fail("the fit stopped before its fixed epoch budget");
  }
  logirec::eval::Evaluator evaluator(split.get(), dataset->num_items, {20});
  const double ndcg = evaluator.Evaluate(*fit.model).Get("NDCG@20") / 100.0;
  if (!(ndcg > 0.0 && ndcg < 1.0)) {
    report->Fail(logirec::StrFormat("NDCG@20 = %g is not a valid score", ndcg));
  }
  report->Count(epochs, 0);
  long dropped_epochs = 0;
  const double epoch_s =
      fit.log.CleanMedianOf(&core::EpochStats::seconds, &dropped_epochs);
  const double steal_share = Mean(fit.log.steal);
  std::printf("{\"samples\": {\"epochs\": %d, \"setup_reps\": %d}, "
              "\"host_steal_share\": %.4f, \"dropped\": {\"epochs\": %ld}}\n",
              epochs, kSetupReps, steal_share, dropped_epochs);

  if (!args.trace) {
    report->Accumulate("setup_s", Median(setup_s), "s");
    report->Add("fit_ndcg20", ndcg, "ratio");
    return;
  }

  // --- per-layer replays, at the training thread count -----------------
  // The parallel speedup: one epoch at 1 thread against the median epoch
  // at nproc threads.
  auto serial = FitOnce(*dataset, *split, FitConfig(args.seed, 1, 1));
  if (!serial.ok()) {
    report->Fail("serial fit: " + serial.status().ToString());
    return;
  }
  const double speedup = (*serial)->log.epochs[0].seconds / epoch_s;

  const auto& model = dynamic_cast<const core::LogiRecModel&>(*fit.model);
  const core::TrainConfig config = FitConfig(args.seed, epochs, threads);
  const long samples = fit.log.epochs.back().samples;
  const int calls = static_cast<int>(
      core::BatchRanges(static_cast<int>(samples), config.batch_size).size());

  // Graph propagation over the training graph, Lorentz-width rows.
  logirec::graph::BipartiteGraph graph(dataset->num_users, dataset->num_items,
                                       split->train);
  logirec::graph::GcnPropagator propagator(
      &graph, config.layers, logirec::graph::Norm::kReceiver, threads);
  logirec::Rng rng(args.seed);
  Matrix zu(dataset->num_users, config.dim + 1);
  Matrix zv(dataset->num_items, config.dim + 1);
  zu.FillGaussian(&rng, 0.05);
  zv.FillGaussian(&rng, 0.05);
  Matrix su, sv;
  propagator.Forward(zu, zv, &su, &sv);  // warm the persistent scratch
  const double forward_ms = MedianCallMs(
      kReplays, [&](int) { propagator.Forward(zu, zv, &su, &sv); });
  Matrix gu(dataset->num_users, config.dim + 1);
  Matrix gv(dataset->num_items, config.dim + 1);
  const double backward_ms = MedianCallMs(
      kReplays, [&](int) { propagator.Backward(su, sv, &gu, &gv); });

  // The whole hyperbolic block (log map, propagation, exp map) the model
  // runs per batch, on valid Lorentz points: the trained final tables.
  core::HyperbolicGcn hgcn(&graph, config.layers,
                           logirec::graph::Norm::kReceiver, threads);
  Matrix hu, hv;
  hgcn.Forward(model.final_user(), model.final_item(), &hu, &hv);
  const double hgcn_forward_ms = MedianCallMs(kReplays, [&](int) {
    hgcn.Forward(model.final_user(), model.final_item(), &hu, &hv);
  });
  Matrix hgu(dataset->num_users, config.dim + 1);
  Matrix hgv(dataset->num_items, config.dim + 1);
  const double hgcn_backward_ms = MedianCallMs(
      kReplays, [&](int) { hgcn.Backward(zu, zv, &hgu, &hgv); });

  // Logic relations over the trained item/tag tables, the engine the
  // pipeline configures for this model and config.
  const data::LogicalRelations relations = dataset->ExtractRelations();
  core::LogicEngine engine(
      relations,
      logirec::pipeline::MakeIngestorOptions("LogiRec++", config).logic);
  Matrix grad_items(model.item_poincare().rows(), model.item_poincare().cols());
  Matrix grad_tags(model.tag_centers().rows(), model.tag_centers().cols());
  const double logic_call_ms = MedianCallMs(kReplays, [&](int r) {
    engine.MarkTagsDirty();  // training moves the tag centers every step
    engine.LossesAndGrads(model.item_poincare(), model.tag_centers(),
                          config.lambda, core::ParallelMode::kDeterministic,
                          threads, 0, r, &grad_items, &grad_tags);
  });

  // The epoch's negative pre-draw, one counter stream per shard.
  core::NegativeSampler sampler(dataset->num_items, split->train);
  const auto pairs = core::TrainPairs(split->train);
  const auto shards =
      core::BatchRanges(static_cast<int>(pairs.size()), config.batch_size);
  const int draws = config.negatives_per_positive;
  std::vector<int> negatives(pairs.size() * draws);
  const double negatives_ms = MedianCallMs(kReplays, [&](int r) {
    logirec::ParallelFor(0, static_cast<int>(shards.size()), [&](int s) {
      logirec::Rng shard_rng(logirec::Rng::MixSeed(config.seed, r, s));
      for (int i = shards[s].first; i < shards[s].second; ++i) {
        for (int k = 0; k < draws; ++k) {
          negatives[static_cast<size_t>(i) * draws + k] =
              sampler.Sample(pairs[i].first, &shard_rng);
        }
      }
    }, threads);
  });

  const double logic_s = fit.log.CleanMedianOf(&core::EpochStats::logic_seconds);
  const double mining_s =
      fit.log.CleanMedianOf(&core::EpochStats::mining_seconds);
  const double hgcn_s = (hgcn_forward_ms + hgcn_backward_ms) * calls * 1e-3;
  const double covered = logic_s + mining_s + hgcn_s + negatives_ms * 1e-3;

  // The epoch time does not repeat across runs on a shared host
  // (README.md), so it is a per-layer metric.
  report->Add("train_epoch_s", epoch_s, "s");
  report->Add("train.logic_s", logic_s, "s");
  report->Add("train.mining_s", mining_s, "s");
  report->Add("train.samples", static_cast<double>(samples), "count");
  report->Add("graph.forward_ms", forward_ms * calls, "ms");
  report->Add("graph.backward_ms", backward_ms * calls, "ms");
  report->Add("core.hgcn_forward_ms", hgcn_forward_ms * calls, "ms");
  report->Add("core.hgcn_backward_ms", hgcn_backward_ms * calls, "ms");
  report->Add("core.negatives_ms", negatives_ms, "ms");
  report->Add("core.logic_call_ms", logic_call_ms, "ms");
  report->Add("core.relations_per_call",
              static_cast<double>(engine.relations_per_call()), "count");
  report->Add("train.rest_s", epoch_s - covered, "s");
  report->Add("train.parallel_speedup", speedup, "ratio");
  // Share of the median epoch the separately measured layers cover:
  // logic and mining (EpochStats), the hyperbolic GCN block (which holds
  // the propagation) and the negative pre-draw (replays). The rest is the
  // item lift, pair gradients, the ordered fold and the optimizer step.
  report->Add("fit.dropped_epochs", static_cast<double>(dropped_epochs),
              "count");
  report->Add("trace.coverage_epoch", epoch_s > 0 ? covered / epoch_s : 0.0, "ratio");
}

}  // namespace perfbench

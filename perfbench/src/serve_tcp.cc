// serve_tcp stage: open-loop Poisson rank requests over loopback TCP
// against one LogiRec++ generation served with an exact scan (in the
// workload's precision) and seen-item masking. Rates are absolute and
// fixed here, never derived from a run's own capacity.

#include <algorithm>
#include <iterator>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "core/snapshot.h"
#include "data/synthetic.h"
#include "eval/compact.h"
#include "eval/metrics.h"
#include "harness.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "serve_stack.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using logirec::Status;
namespace core = logirec::core;
namespace data = logirec::data;
namespace serve = logirec::serve;

// --- the workload definition -------------------------------------------
/// CD preset: 8960 users, 8320 items. Here the f64 capacity lies well
/// between the 16000/s and 32000/s rungs and the f32 one between 32000/s
/// and 64000/s, so no rung sits at the edge; at x12 the f64 32000/s rung
/// passed in some runs and failed in others.
constexpr double kScale = 16.0;
constexpr int kServeEpochs = 1;       // the served generation's training
constexpr int kServeBatch = 8192;
constexpr int kTopK = 10;
constexpr int kMaxQueue = 1 << 16;    // deep enough that no rung sheds
constexpr double kBaseQps = 4000.0;
constexpr double kHighQps = 8000.0;
/// The goodput ladder (requests/s), ascending, doubling; base and high
/// are rungs. Each rung runs for an equal share of the run, the base rung
/// for two.
constexpr double kLadderQps[] = {2000.0, 4000.0, 8000.0, 16000.0, 32000.0,
                                 64000.0};
/// The latency limit of a rung. Above the 1-10 ms p99s of a calm host,
/// so that a few percent of stolen CPU does not fail every rung, and far
/// below the 80+ ms of a rung the server cannot keep up with.
constexpr double kP99LimitMs = 25.0;
constexpr double kFailMs = 1e4;       // a failed request's latency
constexpr double kDrainMs = 10000.0;
constexpr int kSetupReps = 3;
constexpr int kRounds = 3;            // passes up the ladder per run
constexpr double kWarmupSeconds = 0.5;
/// Every base-rate phase follows an unrecorded lead-in at the base rate,
/// so that it starts in steady state and not in the previous rung's.
constexpr double kLeadInSeconds = 0.25;
constexpr uint64_t kOracleStride = 16;  // ~1 in 16 base requests checked
/// Latency percentiles are taken per chunk of this many consecutive
/// requests (enough for a p99 by the percentile rule) and the median over
/// chunks is reported.
constexpr size_t kChunk = 1000;

struct Served {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<data::Split> split;
  std::unique_ptr<ServeStack> stack;
  std::unique_ptr<LoadClient> client;
};

/// Set-up: dataset, split, the served generation (train, snapshot,
/// restore in the workload's precision), the serving stack and the client
/// connections.
logirec::Result<Served> SetUp(const RunArgs& args) {
  Served s;
  s.dataset = std::make_unique<data::Dataset>(
      data::GenerateSynthetic(data::CdLikeConfig(kScale, kDatasetSeed)));
  s.split = std::make_unique<data::Split>(data::TemporalSplit(*s.dataset));
  core::TrainConfig config;
  config.epochs = kServeEpochs;
  config.batch_size = kServeBatch;
  config.num_threads = Nproc();
  config.seed = args.seed;
  auto model = logirec::baselines::MakeModel("LogiRec++", config);
  if (!model.ok()) return model.status();
  LOGIREC_RETURN_IF_ERROR((*model)->Fit(*s.dataset, *s.split));
  const std::string path = args.work_dir + "/serve_tcp.snap";
  core::SnapshotHeader header;
  header.dim = config.dim;
  header.layers = config.layers;
  header.num_users = s.dataset->num_users;
  header.num_items = s.dataset->num_items;
  LOGIREC_RETURN_IF_ERROR(core::ModelSnapshot::Write(**model, header, path));
  ServeStackOptions options;
  options.workers = ServeWorkers();
  options.max_queue = kMaxQueue;
  options.default_k = kTopK;
  options.retrieval.precision = args.precision;
  auto servable = serve::ServableModel::FromSnapshot(
      path, logirec::baselines::MakeModel, s.split.get(), 1,
      options.retrieval);
  if (!servable.ok()) return servable.status();
  s.stack = std::make_unique<ServeStack>(options, s.split.get());
  LOGIREC_RETURN_IF_ERROR(s.stack->Start(*servable));
  s.client = std::make_unique<LoadClient>();
  LOGIREC_RETURN_IF_ERROR(
      s.client->Connect(s.stack->port(), std::min(4, Nproc())));
  return s;
}

void TearDown(Served* s) {
  if (s->client) s->client->Close();
  if (s->stack) s->stack->Stop();
}

/// One open-loop phase at `rate` for `seconds`; users drawn uniformly.
PhaseResult RunPhase(LoadClient* client, uint64_t seed, uint64_t phase,
                     double rate, double seconds, int num_users,
                     bool sample_oracle) {
  const uint64_t phase_seed = seed * 1000003ULL + phase;
  const std::vector<int64_t> due = PoissonSchedule(phase_seed, rate, seconds);
  std::vector<int> users(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    users[i] = UniformAt(phase_seed, 1, i, num_users);
  }
  return client->Run(
      due, users, kTopK,
      [&](size_t i) {
        return sample_oracle &&
               UniformAt(phase_seed, 2, i, kOracleStride) == 0;
      },
      kDrainMs);
}

struct Rung {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ok_per_s = 0.0;  ///< ok replies per second of the rung's phases
  int backlog_rounds = 0;
  bool pass = false;
};

/// Pools a rung's requests over all rounds, in order.
PhaseResult Pool(const std::vector<PhaseResult>& rounds) {
  PhaseResult all;
  for (const PhaseResult& phase : rounds) {
    all.sent.insert(all.sent.end(), phase.sent.begin(), phase.sent.end());
  }
  return all;
}

/// A backlog that grows: more replies owed when the schedule ended than
/// the rate clears within the latency limit.
bool BacklogGrew(const PhaseResult& phase, double rate) {
  return static_cast<double>(phase.outstanding_at_end) >
         std::max(16.0, rate * kP99LimitMs * 1e-3);
}

/// A rung meets the limit when its pooled p99 is within it and its
/// backlog did not grow in a majority of rounds. A round that skipped the
/// rung (a lower rung's backlog grew) counts as grown.
Rung Judge(const std::vector<PhaseResult>& rounds, int skipped, double rate,
           const StealClock& clock) {
  Rung rung;
  long ok = 0;
  double span_s = 0.0;
  for (const PhaseResult& phase : rounds) {
    // Each phase spans its first due time to its last reply read.
    int64_t last_ns = 0;
    for (const Sent& s : phase.sent) last_ns = std::max(last_ns, s.recv_ns);
    if (!phase.sent.empty() && last_ns > phase.sent.front().due_ns) {
      span_s += (last_ns - phase.sent.front().due_ns) * 1e-9;
    }
    ok += phase.ok();
    if (BacklogGrew(phase, rate)) ++rung.backlog_rounds;
  }
  rung.backlog_rounds += skipped;
  rung.ok_per_s = span_s > 0.0 ? ok / span_s : 0.0;
  const PhaseResult all = Pool(rounds);
  rung.p50_ms = all.CleanChunkLatency(kChunk, 50.0, kFailMs, clock);
  rung.p99_ms = all.CleanChunkLatency(kChunk, 99.0, kFailMs, clock);
  rung.pass = !rounds.empty() && rung.p99_ms <= kP99LimitMs &&
              2 * rung.backlog_rounds < kRounds;
  return rung;
}

/// Every reply arrived and in order; returns a problem or "".
std::string CheckDelivery(const PhaseResult& phase, const char* name) {
  long missing = 0;
  for (const Sent& s : phase.sent) missing += s.recv_ns == 0 ? 1 : 0;
  if (missing > 0 || phase.order_violations > 0) {
    return logirec::StrFormat("%s: %ld replies missing, %ld out of order",
                              name, missing, phase.order_violations);
  }
  return "";
}

}  // namespace

void RunServeTcp(const RunArgs& args, Report* report) {
  // --- set-up, several times; the last one serves -----------------------
  std::vector<double> setup_s;
  Served served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    TearDown(&served);
    served = Served();
    const int64_t t0 = NowNs();
    auto made = SetUp(args);
    if (!made.ok()) {
      report->Fail("set-up: " + made.status().ToString());
      return;
    }
    served = std::move(*made);
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }
  ServeStack& stack = *served.stack;
  LoadClient& client = *served.client;
  const int num_users = served.dataset->num_users;
  const int num_items = served.dataset->num_items;
  const double S = args.seconds;

  // --- the measured phases: kRounds passes up the ladder ---------------
  // Interleaving the rungs over the run exposes every rung to the same mix
  // of host conditions; a rung's percentiles pool its chunks from all
  // rounds.
  StealClock clock;
  client.set_steal_clock(&clock);
  RunPhase(&client, args.seed, 0, kBaseQps, kWarmupSeconds, num_users, false);
  const std::vector<double> ladder(std::begin(kLadderQps),
                                   std::end(kLadderQps));
  const size_t base_rung =
      std::find(ladder.begin(), ladder.end(), kBaseQps) - ladder.begin();
  const size_t high_rung =
      std::find(ladder.begin(), ladder.end(), kHighQps) - ladder.begin();
  // The base rung gets two slots per round. Within a round the climb
  // stops at the first rung whose backlog grew: the rungs above it would
  // only queue more.
  const double slot_s =
      (S - kRounds * kLeadInSeconds) / (kRounds * (ladder.size() + 1));
  std::vector<std::vector<PhaseResult>> rungs(ladder.size());
  std::vector<int> skipped(ladder.size(), 0);
  serve::ServerStats first_base;  // histogram after warm-up + first base
  double server_sum_ms = 0.0;     // base rungs: latency sum, count, batches
  long server_count = 0, server_batches = 0;
  SessionTrace base_trace;
  for (int round = 0; round < kRounds; ++round) {
    bool saturated = false;
    for (size_t i = 0; i < ladder.size(); ++i) {
      const bool is_base = i == base_rung;
      if (saturated && !is_base) {
        ++skipped[i];
        continue;
      }
      if (is_base) {
        RunPhase(&client, args.seed, 50 + 100 * round, kBaseQps,
                 kLeadInSeconds, num_users, false);
      }
      const serve::ServerStats before = stack.server().Stats();
      stack.set_tracing(args.trace && is_base);
      rungs[i].push_back(RunPhase(&client, args.seed,
                                  1 + i + 100 * round, ladder[i],
                                  is_base ? 2 * slot_s : slot_s, num_users,
                                  is_base));
      stack.set_tracing(false);
      if (BacklogGrew(rungs[i].back(), ladder[i])) saturated = true;
      if (!is_base) continue;
      const serve::ServerStats after = stack.server().Stats();
      if (round == 0) first_base = after;
      server_sum_ms += after.mean_ms * after.latency_count -
                       before.mean_ms * before.latency_count;
      server_count += after.latency_count - before.latency_count;
      server_batches += after.batches_dispatched - before.batches_dispatched;
      SessionTrace trace = stack.TakeTrace();
      base_trace.handle_us.insert(base_trace.handle_us.end(),
                                  trace.handle_us.begin(),
                                  trace.handle_us.end());
      base_trace.residence_us.insert(base_trace.residence_us.end(),
                                     trace.residence_us.begin(),
                                     trace.residence_us.end());
      base_trace.flushes += trace.flushes;
      base_trace.replies += trace.replies;
    }
  }
  PhaseResult untraced_repeat;
  if (args.trace) {
    untraced_repeat = RunPhase(&client, args.seed, 1, kBaseQps, 2 * slot_s,
                               num_users, false);
  }
  const PhaseResult base = Pool(rungs[base_rung]);
  const PhaseResult high = Pool(rungs[high_rung]);

  // --- correctness gates ----------------------------------------------
  long attempted = 0, failed = 0;
  for (const auto& rounds : rungs) {
    for (const PhaseResult& phase : rounds) {
      attempted += static_cast<long>(phase.sent.size());
      failed += phase.failures();
      const std::string problem = CheckDelivery(phase, "ladder");
      if (!problem.empty()) report->Fail(problem);
    }
  }
  report->Count(attempted, failed);
  if (TailPercentileFor(kChunk) < 99.0 || base.sent.size() < 3 * kChunk) {
    report->Fail("base rung too short for a p99");
  }
  // The oracle: in f64, ModelServer::Rank (exact scores, the synchronous
  // path); in a compact precision, whose rankings are not the f64 ones,
  // the generation's own single-threaded RetrieveRanked.
  const bool exact_oracle = args.precision == logirec::eval::ScorePrecision::kF64;
  const auto served_gen = stack.server().Current();
  logirec::eval::RetrieveScratch oracle_scratch;
  long checked = 0, mismatched = 0;
  std::vector<int> oracle;
  for (const Sent& s : base.sent) {
    if (s.failed || s.items.empty()) continue;
    ++checked;
    Status ranked = Status::OK();
    if (exact_oracle) {
      ranked = stack.server().Rank(s.user, kTopK, &oracle);
    } else {
      served_gen->RetrieveRanked(s.user, kTopK, &oracle_scratch, &oracle);
    }
    if (!ranked.ok() || !MatchesOracle(s.items, oracle) || s.gen != 1) {
      ++mismatched;
    }
  }
  if (checked < 10 || mismatched > 0) {
    report->Fail(logirec::StrFormat(
        "oracle: %ld of %ld sampled replies differ from %s", mismatched,
        checked,
        exact_oracle ? "ModelServer::Rank" : "ServableModel::RetrieveRanked"));
  }

  // --- ladder: the highest rate that meets the limit ---------------------
  // goodput_qps is the ok replies per second that rung delivered.
  double goodput = 0.0;
  for (size_t i = 0; i < ladder.size(); ++i) {
    const Rung rung = Judge(rungs[i], skipped[i], ladder[i], clock);
    std::fprintf(stderr,
                 "perfbench: rung %.0f/s: p50=%.3fms p99=%.3fms backlog "
                 "rounds=%d (skipped %d) %s\n",
                 ladder[i], rung.p50_ms, rung.p99_ms, rung.backlog_rounds,
                 skipped[i], rung.pass ? "pass" : "FAIL");
    if (rung.pass) goodput = rung.ok_per_s;
  }
  long dropped_chunks = 0;
  const double base_p99 =
      base.CleanChunkLatency(kChunk, 99.0, kFailMs, clock, &dropped_chunks);
  const double steal_share =
      clock.Share(rungs[0][0].sent.front().due_ns, NowNs());
  const double fail_frac =
      static_cast<double>(base.failures()) / std::max<size_t>(1, base.sent.size());
  std::printf("{\"samples\": {\"rank_base\": %zu, \"rank_high\": %zu, "
              "\"rounds\": %d, \"setup_reps\": %d}, \"host_steal_share\": "
              "%.4f, \"dropped\": {\"base_chunks\": %ld}}\n",
              base.sent.size(), high.sent.size(), kRounds, kSetupReps,
              steal_share, dropped_chunks);

  if (!args.trace) {
    report->Accumulate("setup_s", Median(setup_s), "s");
    report->Add("goodput_qps", goodput, "1/s");
    report->Add("rank_ok_frac", 1.0 - fail_frac, "ratio");
    TearDown(&served);
    return;
  }

  // --- per-layer (traced run) -------------------------------------------
  const std::vector<double> e2e_us = base.SendToReplyUs();
  const double e2e_mean_us = Mean(e2e_us);
  const double residence_mean_us = Mean(base_trace.residence_us);
  const double wire_us = e2e_mean_us - residence_mean_us;
  const double handle_us = Mean(base_trace.handle_us);
  const double server_mean_us =
      server_count > 0 ? server_sum_ms * 1e3 / server_count : 0.0;

  // Single-thread replay of the base phase's user sequence through the
  // scoring layers the workers run: the scan (f64: ScoreItemsInto,
  // kRanking; compact: RankingQuery, NarrowQuery and a CompactCatalog
  // built as the generation builds its own), then MaskSeen + TopKInto.
  const auto generation = stack.server().Current();
  const core::Recommender& model = generation->scorer();
  const auto spec = model.RankingSurrogate();
  logirec::eval::CompactCatalog compact;
  if (!exact_oracle) {
    const Status built = compact.Build(spec, args.precision);
    if (!built.ok()) report->Fail("compact catalog: " + built.ToString());
  }
  logirec::math::Vec scores(num_items), query;
  logirec::math::VecF scores_f(num_items), query_f;
  std::vector<int> topk_scratch, ranked;
  std::vector<double> scan_us, topk_us;
  std::vector<std::string> request_lines;
  std::vector<std::vector<int>> rankings;
  const size_t replay_n = std::min<size_t>(base.sent.size(), 3000);
  for (size_t i = 0; i < replay_n; ++i) {
    const int user = base.sent[i].user;
    int64_t t0, t1;
    if (exact_oracle) {
      t0 = NowNs();
      model.ScoreItemsInto(user, logirec::math::Span(scores),
                           logirec::eval::ScoreMode::kRanking);
      t1 = NowNs();
      generation->MaskSeen(user, logirec::math::Span(scores));
      logirec::eval::TopKInto(
          logirec::math::ConstSpan(scores.data(), scores.size()), kTopK,
          &topk_scratch, &ranked);
    } else {
      t0 = NowNs();
      logirec::eval::CompactCatalog::NarrowQuery(
          model.RankingQuery(user, &query), &query_f);
      compact.ScoreInto(
          logirec::math::ConstSpanF(query_f.data(), query_f.size()),
          logirec::math::SpanF(scores_f));
      t1 = NowNs();
      generation->MaskSeen(user, logirec::math::SpanF(scores_f));
      logirec::eval::TopKInto(
          logirec::math::ConstSpanF(scores_f.data(), scores_f.size()), kTopK,
          &topk_scratch, &ranked);
    }
    const int64_t t2 = NowNs();
    scan_us.push_back((t1 - t0) * 1e-3);
    topk_us.push_back((t2 - t1) * 1e-3);
    request_lines.push_back(logirec::StrFormat("%d %d", user, kTopK));
    rankings.push_back(ranked);
  }
  // Protocol replay: parse every request line, format every ranking.
  const int64_t p0 = NowNs();
  long parsed_ok = 0;
  for (const std::string& line : request_lines) {
    parsed_ok += serve::ParseRequestLine(line).ok() ? 1 : 0;
  }
  const int64_t p1 = NowNs();
  size_t formatted_bytes = 0;
  for (size_t i = 0; i < rankings.size(); ++i) {
    formatted_bytes +=
        serve::FormatRanking(base.sent[i].user, 1, rankings[i]).size();
  }
  const int64_t p2 = NowNs();
  if (parsed_ok != static_cast<long>(request_lines.size()) ||
      formatted_bytes == 0) {
    report->Fail("protocol replay rejected a request line");
  }
  const double n_replay = std::max<size_t>(1, replay_n);
  // Bytes a rank streams: the scanned catalog plus one score per item.
  const double view_bytes =
      exact_oracle
          ? (spec.items != nullptr
                 ? static_cast<double>(spec.items->ResidentBytes()) +
                       static_cast<double>(num_items) * sizeof(double)
                 : 0.0)
          : static_cast<double>(compact.ResidentBytes()) +
                static_cast<double>(num_items) * sizeof(float);

  const double scan_mean = Mean(scan_us), topk_mean = Mean(topk_us);
  const double untraced_e2e = Mean(untraced_repeat.SendToReplyUs());
  const std::vector<double> lateness = base.LatenessMs();

  report->Count(static_cast<long>(untraced_repeat.sent.size()),
                untraced_repeat.failures());
  // The latencies do not repeat across runs on a shared host (README.md),
  // so they are per-layer metrics.
  report->Add("rank_p50_ms",
              base.CleanChunkLatency(kChunk, 50.0, kFailMs, clock), "ms");
  report->Add("rank_p99_ms", base_p99, "ms");
  report->Add("rank_p99_ms_high",
              high.CleanChunkLatency(kChunk, 99.0, kFailMs, clock), "ms");
  report->Add("net.wire_us", wire_us, "us");
  report->Add("net.replies_per_flush",
              base_trace.flushes > 0
                  ? static_cast<double>(base_trace.replies) / base_trace.flushes
                  : 0.0,
              "count");
  report->Add("session.handle_us", handle_us, "us");
  report->Add("session.residence_us_p50",
              Percentile(base_trace.residence_us, 50.0), "us");
  report->Add("session.residence_us_p99",
              Percentile(base_trace.residence_us, 99.0), "us");
  report->Add("protocol.parse_us", (p1 - p0) * 1e-3 / n_replay, "us");
  report->Add("protocol.format_us", (p2 - p1) * 1e-3 / n_replay, "us");
  report->Add("server.latency_p50_ms", first_base.p50_ms, "ms");
  report->Add("server.latency_p99_ms", first_base.p99_ms, "ms");
  report->Add("server.batch_size_mean",
              server_batches > 0
                  ? static_cast<double>(server_count) / server_batches
                  : 0.0,
              "count");
  const serve::ServerStats end = stack.server().Stats();
  report->Add("server.max_queue_depth", end.max_queue_depth, "count");
  report->Add("server.shed", end.requests_shed, "count");
  report->Add("server.failed", end.requests_failed, "count");
  report->Add("score.rank_us", scan_mean + topk_mean, "us");
  report->Add("score.scan_us", scan_mean, "us");
  report->Add("score.topk_us", topk_mean, "us");
  report->Add("score.items_per_rank", num_items, "count");
  report->Add("score.bytes_per_rank", view_bytes, "bytes");
  report->Add("loadgen.late_p99_ms", Percentile(lateness, 99.0), "ms");
  report->Add("loadgen.sent", attempted, "count");
  report->Add("loadgen.ok", attempted - failed, "count");
  report->Add("loadgen.failed", failed, "count");
  report->Add("rank_fail_frac", fail_frac, "ratio");
  report->Add("rank.samples", static_cast<double>(base.sent.size()), "count");
  report->Add("serve.dropped_chunks", static_cast<double>(dropped_chunks),
              "count");
  report->Add("trace.overhead_frac",
              untraced_e2e > 0 ? e2e_mean_us / untraced_e2e - 1.0 : 0.0,
              "ratio");
  // Share of the mean request time the independently measured layers
  // cover: wire (client minus session residence), HandleLine, and the
  // model server's enqueue-to-completion time. The rest is the hop from
  // a worker's completion to the loop thread's drain.
  report->Add("trace.coverage_rank",
              e2e_mean_us > 0
                  ? (wire_us + handle_us + server_mean_us) / e2e_mean_us
                  : 0.0,
              "ratio");
  TearDown(&served);
}

}  // namespace perfbench

#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double TailPercentileFor(long samples) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 90.0};
  for (double p : kLadder) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 50.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> ChunkPercentiles(const std::vector<double>& ordered,
                                     size_t chunk, double p) {
  const size_t chunks = chunk > 0 ? ordered.size() / chunk : 0;
  if (chunks == 0) return {Percentile(ordered, p)};
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const auto begin = ordered.begin() + c * chunk;
    const auto end = c + 1 == chunks ? ordered.end() : begin + chunk;
    per_chunk.push_back(Percentile(std::vector<double>(begin, end), p));
  }
  return per_chunk;
}

long long HostStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<long long>(v[7]) : 0;
}

double StealShare(int64_t t0_ns, long long ticks0, int64_t t1_ns,
                  long long ticks1) {
  static const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double cpu_ticks = (t1_ns - t0_ns) * 1e-9 * hz * Nproc();
  return cpu_ticks > 0 ? static_cast<double>(ticks1 - ticks0) / cpu_ticks
                       : 0.0;
}

double CleanMedian(const std::vector<double>& values,
                   const std::vector<double>& steal, long* dropped) {
  const size_t n = values.size();
  auto steal_of = [&](size_t i) { return i < steal.size() ? steal[i] : 0.0; };
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_of(a) < steal_of(b);
  });
  size_t keep = 0;
  while (keep < n && steal_of(order[keep]) <= kMaxStealShare) ++keep;
  keep = std::max(keep, (n + 1) / 2);
  std::vector<double> kept;
  for (size_t k = 0; k < keep; ++k) kept.push_back(values[order[k]]);
  if (dropped != nullptr) *dropped = static_cast<long>(n - keep);
  return Median(kept);
}

void StealClock::Sample() { samples_.emplace_back(NowNs(), HostStealTicks()); }

double StealClock::Share(int64_t t0_ns, int64_t t1_ns) const {
  if (samples_.size() < 2) return 0.0;
  // The last reading at or before t0 and the first at or after t1 (or
  // the ends of the series): the span they bracket contains [t0, t1].
  size_t a = 0, b = samples_.size() - 1;
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (samples_[i].first <= t0_ns) a = i;
  }
  for (size_t i = samples_.size(); i-- > 0;) {
    if (samples_[i].first >= t1_ns) b = i;
  }
  if (b <= a) return 0.0;
  return StealShare(samples_[a].first, samples_[a].second, samples_[b].first,
                    samples_[b].second);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in (0, 1] from a counter.
double UnitAt(uint64_t seed, uint64_t stream, uint64_t index) {
  const uint64_t bits = SplitMix(SplitMix(seed ^ SplitMix(stream)) + index);
  return (static_cast<double>(bits >> 11) + 1.0) * (1.0 / 9007199254740992.0);
}

}  // namespace

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_qps,
                                     double seconds) {
  std::vector<int64_t> due;
  if (rate_qps <= 0.0 || seconds <= 0.0) return due;
  // The stream is keyed by the rate too, so two phases of one run at
  // different rates draw independent gaps.
  const uint64_t stream = static_cast<uint64_t>(std::llround(rate_qps * 1000));
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (uint64_t i = 0;; ++i) {
    t += -std::log(UnitAt(seed, stream, i)) / rate_qps * 1e9;
    if (t >= horizon_ns) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

int UniformAt(uint64_t seed, uint64_t stream, uint64_t index, int n) {
  const double u = UnitAt(seed, stream ^ 0x5bd1e995ULL, index);
  return std::min(n - 1, static_cast<int>((1.0 - u) * n));
}

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// Value of `key=` in `line` parsed as an unsigned integer; -1 if absent.
long long Field(const std::string& line, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  const char* p = line.c_str() + at + needle.size();
  char* end = nullptr;
  const long long value = std::strtoll(p, &end, 10);
  return end == p ? -1 : value;
}

}  // namespace

Reply ParseReply(const std::string& line, bool want_items) {
  Reply reply;
  if (line == "!busy") {
    reply.kind = Reply::Kind::kBusy;
    return reply;
  }
  if (StartsWith(line, "error")) {
    reply.kind = Reply::Kind::kError;
    return reply;
  }
  if (!StartsWith(line, "ok ")) return reply;  // kOther
  const long long gen = Field(line, "gen");
  if (gen < 0) return reply;
  reply.gen = static_cast<uint64_t>(gen);
  if (StartsWith(line, "ok reloaded")) {
    reply.kind = Reply::Kind::kOk;
    return reply;
  }
  const long long user = Field(line, "user");
  const size_t items_at = line.find(" items=");
  if (user < 0 || items_at == std::string::npos) return reply;
  reply.user = static_cast<int>(user);
  reply.kind = Reply::Kind::kOk;
  if (want_items) {
    const char* p = line.c_str() + items_at + 7;
    while (*p != '\0') {
      char* end = nullptr;
      const long item = std::strtol(p, &end, 10);
      if (end == p) {
        reply.kind = Reply::Kind::kOther;
        return reply;
      }
      reply.items.push_back(static_cast<int>(item));
      p = end;
      if (*p == ',') ++p;
    }
  }
  return reply;
}

bool IsFailedRank(const Reply& reply) {
  return reply.kind != Reply::Kind::kOk || reply.user < 0;
}

bool MatchesOracle(const std::vector<int>& served,
                   const std::vector<int>& oracle) {
  return served == oracle;
}

std::string Num(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, Metric{value, unit}});
}

void Report::Accumulate(const std::string& name, double value,
                        const std::string& unit) {
  for (auto& [key, metric] : metrics_) {
    if (key == name) {
      metric.value += value;
      return;
    }
  }
  Add(name, value, unit);
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max(1L, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " +
           Num(metrics_[i].second.value) + ", \"unit\": \"" +
           metrics_[i].second.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string ProvenanceJson(const std::string& workload, uint64_t seed,
                           const std::string& source_rev) {
  // The kernels' target_clones dispatch (LOGIREC_SIMD_CLONES) picks the
  // AVX2 clone exactly when the CPU reports AVX2.
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  std::string out = "{\"provenance\": {";
  out += "\"source_rev\": \"" + source_rev + "\"";
  out += ", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  out += ", \"compiler_version_string\": \"" __VERSION__ "\"";
  out += ", \"flags\": \"" PERFBENCH_FLAGS "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"nproc\": " + std::to_string(Nproc());
  out += ", \"simd_clone\": \"" + std::string(avx2 ? "avx2" : "default") +
         "\"";
  out += ", \"workload\": \"" + workload + "\"";
  out += ", \"seed\": " + std::to_string(seed);
  out += "}}";
  return out;
}

}  // namespace perfbench

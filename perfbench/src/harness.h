#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark: the clock, the percentile rule, the
// open-loop arrival schedule, the reply parser, the oracle comparison,
// host-steal accounting and the result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic time in nanoseconds (steady_clock, shared by all threads).
int64_t NowNs();

// --- statistics --------------------------------------------------------

/// The percentile rule: the highest percentile of {50, 90, 99, 99.9,
/// 99.99} that leaves at least ten samples beyond it (n * (1 - p/100) >=
/// 10). Below 20 samples only the median is admissible and 50 is returned.
double TailPercentileFor(long samples);

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// The p-th percentile of each consecutive chunk of `chunk` samples (a
/// short tail joins the last full chunk); the plain percentile when there
/// is less than one chunk. The median over chunks is a percentile that one
/// stalled second cannot move.
std::vector<double> ChunkPercentiles(const std::vector<double>& ordered,
                                     size_t chunk, double p);
double Mean(const std::vector<double>& values);

// --- host interference -------------------------------------------------

/// CPU time the hypervisor ran other guests while this guest's CPUs were
/// runnable (the steal column of /proc/stat, all CPUs), in clock ticks;
/// 0 where the kernel does not report it.
long long HostStealTicks();

/// The share of the guest's CPU time stolen between two readings of
/// HostStealTicks taken at t0_ns and t1_ns: 0 = none, 1 = all of it.
double StealShare(int64_t t0_ns, long long ticks0, int64_t t1_ns,
                  long long ticks1);

/// Units of work (latency chunks, epochs, windows) during which the
/// hypervisor stole more than this share of the guest's CPU time measure
/// the host, not the program: medians leave them out. Steal is counted
/// in 10 ms ticks, and one stolen tick in a 250 ms chunk on 4 CPUs is
/// already 1% and can hold a whole chunk's p99; so the bar is below one
/// tick per chunk.
constexpr double kMaxStealShare = 0.005;

/// Median of values[i] over the units with steal[i] <= kMaxStealShare,
/// or over the half of the units with the least steal when fewer
/// qualify. `dropped` (optional) receives the number of units left out.
double CleanMedian(const std::vector<double>& values,
                   const std::vector<double>& steal, long* dropped = nullptr);

/// Timestamped HostStealTicks readings, to tell which stretches of a run
/// the host took CPU away from.
class StealClock {
 public:
  void Sample();
  /// Steal share over [t0_ns, t1_ns], from the readings bracketing it.
  double Share(int64_t t0_ns, int64_t t1_ns) const;
  bool empty() const { return samples_.empty(); }

 private:
  std::vector<std::pair<int64_t, long long>> samples_;
};

// --- open-loop arrivals ------------------------------------------------

/// Poisson arrivals at `rate_qps` over `seconds`: the offsets (ns from the
/// phase start) at which requests are due. A pure function of
/// (seed, rate_qps, seconds) — a counter-based stream, so a parent commit
/// and a change are offered exactly the same load.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_qps,
                                     double seconds);

/// Deterministic uniform integer in [0, n) for draw `index` of `stream`.
int UniformAt(uint64_t seed, uint64_t stream, uint64_t index, int n);

// --- protocol replies --------------------------------------------------

struct Reply {
  enum class Kind { kOk, kBusy, kError, kOther };
  Kind kind = Kind::kOther;
  int user = -1;       ///< rank replies only
  uint64_t gen = 0;    ///< rank and reload replies
  std::vector<int> items;
};

/// Parses one reply line of the serve protocol ("ok user=U gen=G
/// items=a,b,...", "ok reloaded gen=G ...", "!busy", "error ..."). Items
/// are parsed only when `want_items`.
Reply ParseReply(const std::string& line, bool want_items = true);

/// True for every reply that does not deliver a ranking: `!busy` (shed),
/// `error ...` and anything unparseable.
bool IsFailedRank(const Reply& reply);

// --- oracle ------------------------------------------------------------

/// True when the served ranking equals the oracle ranking item for item
/// (same ids, same order, same length).
bool MatchesOracle(const std::vector<int>& served,
                   const std::vector<int>& oracle);

// --- results -----------------------------------------------------------

/// Collects the metrics and the verdict of one run and prints the result
/// line (the last line of stdout).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds `value` to the metric `name`, creating it when absent: for a
  /// metric every stage of a workload contributes to (setup_s).
  void Accumulate(const std::string& name, double value,
                  const std::string& unit);
  /// Marks the run incorrect; `why` goes to stderr.
  void Fail(const std::string& why);
  void Count(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string ResultJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
};

/// Formats a double with every significant digit.
std::string Num(double value);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The provenance line (one JSON object): compiler, flags, build type,
/// nproc, the SIMD clone the kernels dispatch to, the workload and seed,
/// and the source revision passed in by the runner.
std::string ProvenanceJson(const std::string& workload, uint64_t seed,
                           const std::string& source_rev);

/// Hardware threads available (nproc), at least 1.
int Nproc();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The load generator: one thread, at most nproc loopback connections,
// requests sent on a fixed open-loop schedule and timed from the moment
// each was due (so a stall is charged to every request it delays).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "util/status.h"

namespace perfbench {

/// One request of an open-loop phase.
struct Sent {
  int user = 0;
  int64_t due_ns = 0;    ///< absolute due time
  int64_t send_ns = 0;   ///< when the line went to the socket
  int64_t recv_ns = 0;   ///< when the reply line was read; 0 = missing
  uint64_t gen = 0;
  bool failed = true;    ///< busy, error, malformed, out of order or missing
  std::vector<int> items;  ///< kept only for oracle-sampled requests
};

struct PhaseResult {
  std::vector<Sent> sent;
  long order_violations = 0;
  long outstanding_at_end = 0;  ///< replies owed when the schedule ended

  long ok() const;
  long failures() const;
  /// Latency from due time to reply, ms; failures count as `fail_ms`.
  std::vector<double> LatenciesMs(double fail_ms) const;
  /// Latency from the actual send to the reply (ok replies only), us.
  std::vector<double> SendToReplyUs() const;
  /// How late each send was against its due time, ms.
  std::vector<double> LatenessMs() const;
  /// The p-th latency percentile (due time -> reply, failures at fail_ms)
  /// of each chunk of ChunkPercentiles, and the host steal share over each
  /// chunk's span (first due time to last reply).
  void ChunkLatency(size_t chunk, double p, double fail_ms,
                    const StealClock& clock, std::vector<double>* per_chunk,
                    std::vector<double>* steal) const;
  /// CleanMedian of ChunkLatency.
  double CleanChunkLatency(size_t chunk, double p, double fail_ms,
                           const StealClock& clock, long* dropped = nullptr) const;
};

/// Open-loop client over N non-blocking loopback connections, driven by
/// the calling thread alone.
class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  logirec::Status Connect(int port, int connections);
  /// Runs sample this clock every few milliseconds (null = no sampling).
  void set_steal_clock(StealClock* clock) { steal_ = clock; }

  /// Sends request i (user `users[i]`, cutoff `k`) at start + due[i] on
  /// connection i % N, reading replies in between. After the schedule (or
  /// once `*stop` is set) waits up to `drain_ms` for the replies still
  /// owed. Items are parsed and kept for request i when keep_items(i).
  template <typename KeepFn>
  PhaseResult Run(const std::vector<int64_t>& due,
                  const std::vector<int>& users, int k, KeepFn keep_items,
                  double drain_ms, const std::atomic<bool>* stop = nullptr) {
    std::vector<char> keep(due.size());
    for (size_t i = 0; i < due.size(); ++i) keep[i] = keep_items(i) ? 1 : 0;
    return RunImpl(due, users, k, keep, drain_ms, stop);
  }

  void Close();

 private:
  struct Conn {
    int fd = -1;
    std::string out;        ///< bytes not yet accepted by the socket
    std::string in;         ///< partial reply line
    std::vector<int> owed;  ///< request indices awaiting replies, FIFO
    size_t owed_head = 0;
  };

  PhaseResult RunImpl(const std::vector<int64_t>& due,
                      const std::vector<int>& users, int k,
                      const std::vector<char>& keep, double drain_ms,
                      const std::atomic<bool>* stop);

  std::vector<Conn> conns_;
  StealClock* steal_ = nullptr;
};

/// A blocking line client for control traffic (ground-truth ranks,
/// `!reload`, `!stats`): writes a batch of lines, reads the same number of
/// replies in order.
class SyncClient {
 public:
  ~SyncClient();
  logirec::Status Connect(int port);
  /// Sends every line (pipelined) and reads one reply per line.
  logirec::Result<std::vector<std::string>> Exchange(
      const std::vector<std::string>& lines, double timeout_s = 60.0);
  void Close();

 private:
  int fd_ = -1;
  std::string in_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

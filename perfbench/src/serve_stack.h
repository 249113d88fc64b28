#ifndef PERFBENCH_SERVE_STACK_H_
#define PERFBENCH_SERVE_STACK_H_

// The serving process under test, composed in-process exactly as
// tools/logirec_serve composes it: net::NetServer -> ProtocolSession ->
// ModelServer. The only addition is TimedSession, a bench-side
// LineSession decorator between the transport and the protocol session
// that timestamps each line in and each reply out.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "retrieval/retriever.h"
#include "serve/net/net_server.h"
#include "serve/servable.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {

/// What the decorators recorded while tracing was on.
struct SessionTrace {
  std::vector<double> handle_us;     ///< HandleLine: parse + TrySubmit
  std::vector<double> residence_us;  ///< HandleLine entry -> reply drained
  long flushes = 0;                  ///< DrainReady calls yielding replies
  long replies = 0;
};

/// LineSession decorator: forwards every call to the wrapped session and,
/// while `tracing` is set, records the time each line spent in
/// HandleLine and between HandleLine and the drain of its reply (replies
/// leave in request order, so a FIFO of arrival times pairs them).
class TimedSession : public logirec::serve::net::LineSession {
 public:
  TimedSession(std::shared_ptr<logirec::serve::net::LineSession> inner,
               const std::atomic<bool>* tracing, SessionTrace* sink,
               std::mutex* sink_mu)
      : inner_(std::move(inner)),
        tracing_(tracing),
        sink_(sink),
        sink_mu_(sink_mu) {}

  void HandleLine(const std::string& line) override;
  void DrainReady(std::vector<std::string>* replies,
                  bool* close_after) override;
  bool HasPending() const override { return inner_->HasPending(); }
  void SetFlushHook(std::function<void()> hook) override {
    inner_->SetFlushHook(std::move(hook));
  }
  std::string FramingErrorReply(const logirec::Status& error) override {
    return inner_->FramingErrorReply(error);
  }

 private:
  std::shared_ptr<logirec::serve::net::LineSession> inner_;
  const std::atomic<bool>* tracing_;
  SessionTrace* sink_;
  std::mutex* sink_mu_;
  std::mutex mu_;
  std::vector<int64_t> arrivals_;  ///< FIFO of HandleLine entry times
  size_t head_ = 0;
};

struct ServeStackOptions {
  int workers = 1;
  int max_queue = 1024;
  int default_k = 10;
  logirec::retrieval::RetrievalOptions retrieval;
};

class ServeStack {
 public:
  /// `split` supplies seen-item masking for every generation, including
  /// the ones `!reload` builds; it must outlive the stack.
  ServeStack(const ServeStackOptions& options,
             const logirec::data::Split* split);
  ~ServeStack();

  /// Publishes `first` (generation 1) and starts the event loop thread on
  /// a kernel-assigned loopback port.
  logirec::Status Start(std::shared_ptr<const logirec::serve::ServableModel> first);

  /// Shuts the transport down (clients must have closed their
  /// connections), joins the loop thread and drains the model server.
  void Stop();

  int port() const { return port_; }
  logirec::serve::ModelServer& server() { return server_; }
  void set_tracing(bool on) { tracing_.store(on); }
  /// Moves out what the decorators recorded so far.
  SessionTrace TakeTrace();

 private:
  ServeStackOptions options_;
  logirec::serve::ModelServer server_;
  std::atomic<uint64_t> generation_{1};
  std::shared_ptr<logirec::serve::ProtocolSession::Context> context_;
  std::unique_ptr<logirec::serve::net::NetServer> net_;
  std::thread loop_;
  int port_ = 0;
  std::atomic<bool> tracing_{false};
  std::mutex trace_mu_;
  SessionTrace trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_STACK_H_

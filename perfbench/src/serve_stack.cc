#include "serve_stack.h"

#include "baselines/model_zoo.h"
#include "harness.h"

namespace perfbench {

using logirec::Status;
namespace serve = logirec::serve;

void TimedSession::HandleLine(const std::string& line) {
  if (!tracing_->load(std::memory_order_relaxed)) {
    inner_->HandleLine(line);
    return;
  }
  const int64_t t0 = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    arrivals_.push_back(t0);
  }
  inner_->HandleLine(line);
  const int64_t t1 = NowNs();
  std::lock_guard<std::mutex> lock(*sink_mu_);
  sink_->handle_us.push_back((t1 - t0) * 1e-3);
}

void TimedSession::DrainReady(std::vector<std::string>* replies,
                              bool* close_after) {
  const size_t before = replies->size();
  inner_->DrainReady(replies, close_after);
  const size_t drained = replies->size() - before;
  if (drained == 0 || !tracing_->load(std::memory_order_relaxed)) return;
  const int64_t now = NowNs();
  std::vector<double> residence;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < drained && head_ < arrivals_.size(); ++i) {
      residence.push_back((now - arrivals_[head_++]) * 1e-3);
    }
  }
  std::lock_guard<std::mutex> lock(*sink_mu_);
  sink_->residence_us.insert(sink_->residence_us.end(), residence.begin(),
                             residence.end());
  sink_->flushes += 1;
  sink_->replies += static_cast<long>(drained);
}

namespace {

serve::ServerOptions MakeServerOptions(const ServeStackOptions& options) {
  serve::ServerOptions server;
  server.num_threads = options.workers;
  server.max_queue = options.max_queue;
  server.default_k = options.default_k;
  return server;
}

}  // namespace

ServeStack::ServeStack(const ServeStackOptions& options,
                       const logirec::data::Split* split)
    : options_(options), server_(MakeServerOptions(options)) {
  context_ = std::make_shared<serve::ProtocolSession::Context>();
  context_->server = &server_;
  context_->split = split;
  context_->generation = &generation_;
  context_->factory = logirec::baselines::MakeModel;
  context_->retrieval = options.retrieval;
}

ServeStack::~ServeStack() { Stop(); }

Status ServeStack::Start(
    std::shared_ptr<const serve::ServableModel> first) {
  server_.Swap(std::move(first));
  serve::net::NetServerOptions net_options;
  net_options.port = 0;
  auto context = context_;
  const std::atomic<bool>* tracing = &tracing_;
  SessionTrace* sink = &trace_;
  std::mutex* sink_mu = &trace_mu_;
  net_ = std::make_unique<serve::net::NetServer>(
      net_options, [context, tracing, sink, sink_mu] {
        return std::make_shared<TimedSession>(
            std::make_shared<serve::ProtocolSession>(context), tracing, sink,
            sink_mu);
      });
  const Status started = net_->Start();
  if (!started.ok()) return started;
  port_ = net_->port();
  loop_ = std::thread([this] { net_->Run(); });
  return Status::OK();
}

void ServeStack::Stop() {
  if (net_ == nullptr) return;
  net_->Shutdown();
  if (loop_.joinable()) loop_.join();
  // Completions post through the event loop: drain the workers before the
  // transport goes away (the NetServer lifetime contract).
  server_.Stop();
  net_.reset();
}

SessionTrace ServeStack::TakeTrace() {
  std::lock_guard<std::mutex> lock(trace_mu_);
  SessionTrace out = std::move(trace_);
  trace_ = SessionTrace();
  return out;
}

}  // namespace perfbench

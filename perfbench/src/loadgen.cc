#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <ctime>

namespace perfbench {

using logirec::Result;
using logirec::Status;

long PhaseResult::ok() const {
  long n = 0;
  for (const Sent& s : sent) n += s.failed ? 0 : 1;
  return n;
}

long PhaseResult::failures() const {
  return static_cast<long>(sent.size()) - ok();
}

std::vector<double> PhaseResult::LatenciesMs(double fail_ms) const {
  std::vector<double> out;
  out.reserve(sent.size());
  for (const Sent& s : sent) {
    out.push_back(s.failed ? fail_ms : (s.recv_ns - s.due_ns) * 1e-6);
  }
  return out;
}

std::vector<double> PhaseResult::SendToReplyUs() const {
  std::vector<double> out;
  out.reserve(sent.size());
  for (const Sent& s : sent) {
    if (!s.failed) out.push_back((s.recv_ns - s.send_ns) * 1e-3);
  }
  return out;
}

std::vector<double> PhaseResult::LatenessMs() const {
  std::vector<double> out;
  out.reserve(sent.size());
  for (const Sent& s : sent) {
    if (s.send_ns != 0) out.push_back((s.send_ns - s.due_ns) * 1e-6);
  }
  return out;
}

void PhaseResult::ChunkLatency(size_t chunk, double p, double fail_ms,
                               const StealClock& clock,
                               std::vector<double>* per_chunk,
                               std::vector<double>* steal) const {
  *per_chunk = ChunkPercentiles(LatenciesMs(fail_ms), chunk, p);
  steal->clear();
  const size_t chunks = per_chunk->size();
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = chunks == 1 ? 0 : c * chunk;
    const size_t end = c + 1 == chunks ? sent.size() : begin + chunk;
    int64_t t0 = 0, t1 = 0;
    for (size_t i = begin; i < end; ++i) {
      const int64_t first = sent[i].due_ns;
      const int64_t last = sent[i].recv_ns != 0 ? sent[i].recv_ns : first;
      t0 = t0 == 0 ? first : std::min(t0, first);
      t1 = std::max(t1, last);
    }
    steal->push_back(clock.Share(t0, t1));
  }
}

double PhaseResult::CleanChunkLatency(size_t chunk, double p, double fail_ms,
                                      const StealClock& clock,
                                      long* dropped) const {
  std::vector<double> per_chunk, steal;
  ChunkLatency(chunk, p, fail_ms, clock, &per_chunk, &steal);
  return CleanMedian(per_chunk, steal, dropped);
}

namespace {

Result<int> ConnectLoopback(int port, bool non_blocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal(std::string("socket: ") + strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect: " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (non_blocking) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return fd;
}

/// Writes as much of `out` as the socket takes. False on a broken socket.
bool FlushOut(int fd, std::string* out) {
  while (!out->empty()) {
    const ssize_t n = ::send(fd, out->data(), out->size(), MSG_NOSIGNAL);
    if (n > 0) {
      out->erase(0, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

LoadClient::~LoadClient() { Close(); }

void LoadClient::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
}

Status LoadClient::Connect(int port, int connections) {
  Close();
  for (int i = 0; i < connections; ++i) {
    auto fd = ConnectLoopback(port, /*non_blocking=*/true);
    if (!fd.ok()) return fd.status();
    Conn c;
    c.fd = *fd;
    conns_.push_back(std::move(c));
  }
  return Status::OK();
}

PhaseResult LoadClient::RunImpl(const std::vector<int64_t>& due,
                                const std::vector<int>& users, int k,
                                const std::vector<char>& keep,
                                double drain_ms,
                                const std::atomic<bool>* stop) {
  PhaseResult r;
  const size_t n = due.size();
  const size_t nconn = conns_.size();
  r.sent.resize(n);
  for (size_t i = 0; i < n; ++i) r.sent[i].user = users[i];
  for (Conn& c : conns_) {
    c.owed.clear();
    c.owed_head = 0;
    c.in.clear();
    c.out.clear();
  }
  const int64_t start = NowNs() + 1'000'000;  // schedule starts in 1 ms
  size_t next = 0;
  long outstanding = 0;
  bool sending_done = (n == 0);
  int64_t deadline = LLONG_MAX;
  std::vector<pollfd> fds(nconn);
  char buf[1 << 16];
  constexpr int64_t kStealSampleNs = 20'000'000;
  int64_t last_sample = 0;
  std::string suffix = " ";
  suffix += std::to_string(k);
  suffix += '\n';

  for (;;) {
    int64_t now = NowNs();
    if (steal_ != nullptr && now - last_sample >= kStealSampleNs) {
      steal_->Sample();
      last_sample = now;
    }
    while (!sending_done && start + due[next] <= now) {
      const size_t i = next++;
      Conn& c = conns_[i % nconn];
      Sent& s = r.sent[i];
      s.due_ns = start + due[i];
      if (c.fd >= 0) {
        c.out += std::to_string(users[i]);
        c.out += suffix;
        c.owed.push_back(static_cast<int>(i));
        ++outstanding;
        if (!FlushOut(c.fd, &c.out)) {
          ::close(c.fd);
          c.fd = -1;
        }
      }
      s.send_ns = NowNs();
      if (next >= n || (stop != nullptr && stop->load())) sending_done = true;
      now = s.send_ns;
    }
    if (!sending_done && stop != nullptr && stop->load()) sending_done = true;
    if (sending_done && deadline == LLONG_MAX) {
      deadline = now + static_cast<int64_t>(drain_ms * 1e6);
      r.outstanding_at_end = outstanding;
    }
    if (sending_done && (outstanding == 0 || now >= deadline)) break;

    int64_t wait_ns = sending_done ? deadline - now : start + due[next] - now;
    if (stop != nullptr && !sending_done) {
      wait_ns = std::min<int64_t>(wait_ns, 5'000'000);
    }
    if (steal_ != nullptr) wait_ns = std::min(wait_ns, kStealSampleNs);
    wait_ns = std::max<int64_t>(wait_ns, 0);
    bool any_open = false;
    for (size_t j = 0; j < nconn; ++j) {
      fds[j].fd = conns_[j].fd;
      fds[j].events = static_cast<short>(
          POLLIN | (conns_[j].out.empty() ? 0 : POLLOUT));
      fds[j].revents = 0;
      any_open |= conns_[j].fd >= 0;
    }
    if (!any_open && sending_done) break;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), nconn, &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t j = 0; j < nconn; ++j) {
      Conn& c = conns_[j];
      if (c.fd < 0 || fds[j].revents == 0) continue;
      if (fds[j].revents & POLLOUT) {
        if (!FlushOut(c.fd, &c.out)) {
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
      }
      if (!(fds[j].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) {
          ::close(c.fd);
          c.fd = -1;
          break;
        }
        const int64_t recv_ns = NowNs();
        c.in.append(buf, static_cast<size_t>(got));
        size_t line_start = 0;
        for (;;) {
          const size_t eol = c.in.find('\n', line_start);
          if (eol == std::string::npos) break;
          const std::string line = c.in.substr(line_start, eol - line_start);
          line_start = eol + 1;
          if (c.owed_head >= c.owed.size()) {
            ++r.order_violations;  // a reply nobody asked for
            continue;
          }
          const int i = c.owed[c.owed_head++];
          --outstanding;
          Sent& s = r.sent[i];
          const Reply reply = ParseReply(line, keep[i] != 0);
          s.recv_ns = recv_ns;
          s.gen = reply.gen;
          s.failed = IsFailedRank(reply);
          if (!s.failed && reply.user != s.user) {
            ++r.order_violations;
            s.failed = true;
          }
          if (keep[i]) s.items = reply.items;
        }
        c.in.erase(0, line_start);
      }
    }
  }
  if (steal_ != nullptr) steal_->Sample();
  return r;
}

SyncClient::~SyncClient() { Close(); }

void SyncClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status SyncClient::Connect(int port) {
  Close();
  auto fd = ConnectLoopback(port, /*non_blocking=*/false);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  timeval tv{1, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return Status::OK();
}

Result<std::vector<std::string>> SyncClient::Exchange(
    const std::vector<std::string>& lines, double timeout_s) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("send failed");
    off += static_cast<size_t>(n);
  }
  std::vector<std::string> replies;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  char buf[1 << 16];
  while (replies.size() < lines.size()) {
    const size_t eol = in_.find('\n');
    if (eol != std::string::npos) {
      replies.push_back(in_.substr(0, eol));
      in_.erase(0, eol + 1);
      continue;
    }
    if (NowNs() > deadline) return Status::Unavailable("no reply before the timeout");
    const ssize_t got = ::recv(fd_, buf, sizeof buf, 0);
    if (got < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (got <= 0) return Status::Unavailable("connection closed");
    in_.append(buf, static_cast<size_t>(got));
  }
  return replies;
}

}  // namespace perfbench

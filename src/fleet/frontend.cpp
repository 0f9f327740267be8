#include "robusthd/fleet/frontend.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace robusthd::fleet {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Per-connection state. Owned by exactly one loop thread.
struct Connection {
  explicit Connection(std::size_t max_payload) : reader(max_payload) {}

  int fd = -1;
  wire::FrameReader reader;
  std::vector<std::byte> out;  ///< unflushed bytes, [out_off, size)
  std::size_t out_off = 0;

  struct Pending {
    std::uint64_t tenant_id = 0;
    std::uint64_t request_id = 0;
    std::future<serve::Response> future;
  };
  /// Order-free: responses carry request_id, so ready entries are
  /// swap-popped wherever they sit.
  std::vector<Pending> pending;

  /// Last time the peer delivered bytes (idle-reaper clock).
  std::chrono::steady_clock::time_point last_activity;
  /// When the currently buffered partial frame started accumulating;
  /// max() = no partial frame (the read-deadline reaper's clock).
  std::chrono::steady_clock::time_point partial_since =
      std::chrono::steady_clock::time_point::max();

  std::size_t unflushed() const noexcept { return out.size() - out_off; }
};

struct Frontend::Loop {
  std::size_t shard = 0;
  int listen_fd = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
};

Frontend::Frontend(Fleet& fleet, FrontendConfig config)
    : fleet_(fleet), config_(std::move(config)) {}

Frontend::~Frontend() { stop(); }

void Frontend::start() {
  if (started_) return;
  ports_.resize(fleet_.shard_count(), 0);
  loops_.clear();
  for (std::size_t i = 0; i < fleet_.shard_count(); ++i) {
    auto loop = std::make_unique<Loop>();
    loop->shard = i;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("fleet frontend: socket() failed");
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(
        config_.base_port == 0
            ? std::uint16_t{0}
            : static_cast<std::uint16_t>(config_.base_port + i));
    if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("fleet frontend: bad host " + config_.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, config_.backlog) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(std::string("fleet frontend: bind/listen: ") +
                               std::strerror(err));
    }
    socklen_t len = sizeof addr;
    (void)::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports_[i] = ntohs(addr.sin_port);
    set_nonblocking(fd);
    loop->listen_fd = fd;
    loops_.push_back(std::move(loop));
  }

  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    threads_.emplace_back([this, &loop] { loop_main(*loop); });
  }
  started_ = true;
}

void Frontend::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& loop : loops_) {
    if (loop->listen_fd >= 0) ::close(loop->listen_fd);
    for (auto& [fd, conn] : loop->conns) ::close(fd);
    loop->conns.clear();
  }
  loops_.clear();
  started_ = false;
}

FrontendCounters Frontend::counters() const {
  FrontendCounters c;
  c.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  c.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.frames_in = frames_in_.load(std::memory_order_relaxed);
  c.frames_out = frames_out_.load(std::memory_order_relaxed);
  c.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  c.dimension_rejections =
      dimension_rejections_.load(std::memory_order_relaxed);
  c.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  c.deadline_sheds = deadline_sheds_.load(std::memory_order_relaxed);
  c.reaped_connections =
      reaped_connections_.load(std::memory_order_relaxed);
  return c;
}

void Frontend::loop_main(Loop& loop) {
  std::vector<pollfd> fds;
  std::vector<int> to_close;

  const auto close_conn = [&](int fd) { to_close.push_back(fd); };

  const auto handle_frame = [&](Connection& conn, const wire::Frame& frame) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    switch (frame.type) {
      case wire::FrameType::kPing:
        wire::append_frame(conn.out, wire::FrameType::kPong, 0,
                           frame.tenant_id, frame.request_id, {});
        frames_out_.fetch_add(1, std::memory_order_relaxed);
        return true;
      case wire::FrameType::kPredictRequest: {
        hv::BinVec query;
        if (!wire::parse_predict_request(frame.payload, query)) {
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
          wire::append_error(conn.out, frame.tenant_id, frame.request_id,
                             wire::ErrorCode::kBadRequest,
                             "malformed predict payload");
          frames_out_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        if (query.dimension() != fleet_.dimension()) {
          dimension_rejections_.fetch_add(1, std::memory_order_relaxed);
          wire::append_error(conn.out, frame.tenant_id, frame.request_id,
                             wire::ErrorCode::kDimensionMismatch,
                             "query dimension != serving dimension");
          frames_out_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        // The wire deadline is relative (ms of remaining budget at send
        // time) — anchor it to our clock here. Clock skew costs only the
        // one-way network latency, which is already inside the budget.
        auto deadline = std::chrono::steady_clock::time_point::max();
        if (frame.deadline_ms != 0) {
          deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(frame.deadline_ms);
        }
        SubmitReject reject = SubmitReject::kNone;
        auto submitted = fleet_.try_submit(
            frame.tenant_id, std::move(query),
            config_.admission_control
                ? deadline
                : std::chrono::steady_clock::time_point::max(),
            &reject);
        if (!submitted) {
          if (reject == SubmitReject::kDeadline) {
            // The budget was spent before we could even enqueue —
            // retrying is futile and the error code says so.
            deadline_sheds_.fetch_add(1, std::memory_order_relaxed);
            wire::append_error(conn.out, frame.tenant_id, frame.request_id,
                               wire::ErrorCode::kDeadlineExceeded,
                               "deadline passed before enqueue");
          } else if (reject == SubmitReject::kPredictedLate) {
            // Early kBusy: the queue cannot serve it within the budget,
            // but another shard (or a later retry) still might.
            deadline_sheds_.fetch_add(1, std::memory_order_relaxed);
            busy_rejections_.fetch_add(1, std::memory_order_relaxed);
            wire::append_error(conn.out, frame.tenant_id, frame.request_id,
                               wire::ErrorCode::kBusy,
                               "estimated queue wait exceeds deadline");
          } else {
            busy_rejections_.fetch_add(1, std::memory_order_relaxed);
            wire::append_error(conn.out, frame.tenant_id, frame.request_id,
                               wire::ErrorCode::kBusy, "shard queue full");
          }
          frames_out_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        conn.pending.push_back({frame.tenant_id, frame.request_id,
                                std::move(submitted->future)});
        return true;
      }
      default:
        // Clients have no business sending responses/errors/pongs.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
  };

  const auto sweep_pending = [&](Connection& conn) {
    for (std::size_t i = 0; i < conn.pending.size();) {
      auto& p = conn.pending[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      try {
        const serve::Response r = p.future.get();
        if (r.expired) {
          // Shed in-queue by the server: nobody scored it, so there is
          // no prediction to frame — surface the spent budget instead.
          deadline_sheds_.fetch_add(1, std::memory_order_relaxed);
          wire::append_error(conn.out, p.tenant_id, p.request_id,
                             wire::ErrorCode::kDeadlineExceeded,
                             "deadline expired in queue");
        } else {
          wire::PredictResult result;
          result.predicted = r.predicted;
          result.confidence = r.confidence;
          result.model_version = r.model_version;
          result.trusted = r.trusted;
          result.degraded = r.degraded;
          result.abstained = r.abstained;
          wire::append_predict_response(conn.out, p.tenant_id, p.request_id,
                                        result);
        }
      } catch (const std::future_error&) {
        wire::append_error(conn.out, p.tenant_id, p.request_id,
                           wire::ErrorCode::kShuttingDown,
                           "request dropped in shutdown");
      }
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      p = std::move(conn.pending.back());
      conn.pending.pop_back();
    }
  };

  const auto flush = [&](int fd, Connection& conn) -> bool {
    while (conn.unflushed() > 0) {
      const auto n = ::send(fd, conn.out.data() + conn.out_off,
                            conn.unflushed(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer gone
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
  };

  std::vector<std::byte> read_buf(64 * 1024);

  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    const bool room =
        loop.conns.size() < config_.max_connections_per_shard;
    fds.push_back({loop.listen_fd,
                   static_cast<short>(room ? POLLIN : 0), 0});
    std::future<serve::Response>* wait_on = nullptr;
    for (auto& [fd, conn] : loop.conns) {
      short events = POLLIN;
      if (conn->unflushed() > 0) events |= POLLOUT;
      if (!wait_on && !conn->pending.empty()) {
        wait_on = &conn->pending.front().future;
      }
      fds.push_back({fd, events, 0});
    }
    if (wait_on) {
      // A response is in flight: park on the future instead of the poll
      // timeout, so response latency tracks inference time (typically
      // tens of microseconds), not the millisecond poll tick. poll() with
      // timeout 0 then picks up any input that arrived meanwhile.
      (void)wait_on->wait_for(config_.poll_interval);
      (void)::poll(fds.data(), fds.size(), 0);
    } else {
      const auto timeout =
          static_cast<int>(config_.poll_interval.count() * 20);
      (void)::poll(fds.data(), fds.size(), timeout > 0 ? timeout : 1);
    }

    // Accept.
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(loop.listen_fd, nullptr, nullptr);
        if (cfd < 0) break;
        if (loop.conns.size() >= config_.max_connections_per_shard) {
          ::close(cfd);
          continue;
        }
        set_nonblocking(cfd);
        const int one = 1;
        (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_unique<Connection>(config_.max_payload);
        conn->fd = cfd;
        conn->last_activity = std::chrono::steady_clock::now();
        loop.conns.emplace(cfd, std::move(conn));
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Read + parse.
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      Connection& conn = *it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        close_conn(fd);
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        bool closed = false;
        bool got_bytes = false;
        for (;;) {
          const auto n = ::recv(fd, read_buf.data(), read_buf.size(), 0);
          if (n > 0) {
            got_bytes = true;
            conn.reader.feed({read_buf.data(), static_cast<std::size_t>(n)});
            if (static_cast<std::size_t>(n) < read_buf.size()) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          closed = true;  // orderly shutdown or hard error
          break;
        }
        if (got_bytes) {
          conn.last_activity = std::chrono::steady_clock::now();
        }
        bool poisoned = false;
        bool completed_frame = false;
        while (auto frame = conn.reader.next()) {
          completed_frame = true;
          if (!handle_frame(conn, *frame)) {
            poisoned = true;
            break;
          }
        }
        if (conn.reader.poisoned()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          poisoned = true;
        }
        // Read-deadline bookkeeping: a drained buffer stops the clock, and
        // a partial frame left behind starts it — afresh whenever this
        // read completed a frame, so a pipelined stream whose reads all
        // end mid-frame stays alive while frames keep completing. Raw
        // bytes alone never restart it: a byte trickle is still reaped.
        if (conn.reader.buffered() == 0) {
          conn.partial_since = std::chrono::steady_clock::time_point::max();
        } else if (completed_frame ||
                   conn.partial_since ==
                       std::chrono::steady_clock::time_point::max()) {
          conn.partial_since = std::chrono::steady_clock::now();
        }
        if (poisoned || closed) {
          close_conn(fd);
          continue;
        }
      }
    }

    // Reap connections stuck mid-frame past the read deadline (slowloris
    // defense) and — when configured — connections idle with nothing in
    // flight. Both are hard closes: a peer that trickles bytes has no
    // claim on a graceful goodbye.
    if (config_.read_deadline.count() > 0 ||
        config_.idle_timeout.count() > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (auto& [fd, conn] : loop.conns) {
        const bool stuck_mid_frame =
            config_.read_deadline.count() > 0 &&
            conn->partial_since !=
                std::chrono::steady_clock::time_point::max() &&
            now - conn->partial_since > config_.read_deadline;
        const bool idle =
            config_.idle_timeout.count() > 0 && conn->pending.empty() &&
            conn->unflushed() == 0 &&
            now - conn->last_activity > config_.idle_timeout;
        if (stuck_mid_frame || idle) {
          reaped_connections_.fetch_add(1, std::memory_order_relaxed);
          close_conn(fd);
        }
      }
    }

    // Complete + flush.
    for (auto& [fd, conn] : loop.conns) {
      sweep_pending(*conn);
      if (!flush(fd, *conn) || conn->unflushed() > config_.max_write_buffer) {
        close_conn(fd);
      }
    }

    for (const int fd : to_close) {
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      ::close(fd);
      loop.conns.erase(it);
      connections_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    to_close.clear();
  }
}

}  // namespace robusthd::fleet

#include "rt/real_cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "rt/wire.h"

namespace samya::rt {

namespace {

/// UDP payload ceiling on loopback; a frame above this is a bug upstream
/// (the largest protocol message is a full batch, well under 64 KiB).
constexpr size_t kMaxDatagram = 64 * 1024;

/// A loop's next deadline when it has no timer and no held datagram.
constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

/// Wire frames carry no flight seq, so a delivery event cannot name the
/// send event it pairs with (kMsgDeliver's `c`).
constexpr int64_t kUnpaired = -1;

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

RealCluster::RealCluster(NetemConfig config)
    : config_(config), rng_(Rng(config.seed).Fork(0x6e657477)) {}

RealCluster::~RealCluster() { Shutdown(); }

void RealCluster::RegisterNode(std::unique_ptr<Node> node, Region region) {
  (void)region;  // carried by the node itself; loops sample node->region()
  SAMYA_CHECK_MSG(!started_, "AddNode after Start()");
  auto loop = std::make_unique<Loop>();
  loop->node = node.get();
  // Same fork tags as sim::Network::Register, so a node sees the same seed
  // derivation on both backends.
  Runtime::SeedRng(*node, rng_.Fork(0x6e6f6465 + node->id()));
  loop->send_rng = rng_.Fork(0x736e6472 + node->id());
  Runtime::Bind(*node, this, &loop->now_us);
  nodes_.push_back(std::move(node));
  storages_.push_back(std::make_unique<storage::InMemoryStableStorage>());
  loops_.push_back(std::move(loop));
}

storage::StableStorage* RealCluster::StorageFor(NodeId id) {
  return storages_[static_cast<size_t>(id)].get();
}

void RealCluster::EnableObservability(size_t flight_capacity) {
  SAMYA_CHECK_MSG(!started_, "EnableObservability after Start()");
  metrics_.clear();
  flights_.clear();
  for (size_t i = 0; i < loops_.size(); ++i) {
    metrics_.push_back(std::make_unique<obs::MetricsRegistry>());
    flights_.push_back(std::make_unique<obs::FlightRecorder>(flight_capacity));
  }
}

obs::MetricsRegistry* RealCluster::metrics_for(NodeId id) const {
  if (metrics_.empty()) return nullptr;
  return metrics_[static_cast<size_t>(id)].get();
}

obs::FlightRecorder* RealCluster::flight_for(NodeId id) const {
  if (flights_.empty()) return nullptr;
  return flights_[static_cast<size_t>(id)].get();
}

Node* RealCluster::node(NodeId id) const {
  return loops_[static_cast<size_t>(id)]->node;
}

void RealCluster::Start() {
  SAMYA_CHECK_MSG(!started_, "Start() called twice");
  started_ = true;
  // Bind every socket first so the full port map exists before any thread
  // can send.
  ports_.resize(loops_.size(), 0);
  for (size_t i = 0; i < loops_.size(); ++i) {
    Loop* loop = loops_[i].get();
    loop->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    SAMYA_CHECK_MSG(loop->fd >= 0, "socket() failed");
    const int flags = ::fcntl(loop->fd, F_GETFL, 0);
    SAMYA_CHECK(::fcntl(loop->fd, F_SETFL, flags | O_NONBLOCK) == 0);
    sockaddr_in addr = LoopbackAddr(0);  // ephemeral port
    SAMYA_CHECK_MSG(::bind(loop->fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0,
                    "bind(127.0.0.1) failed");
    socklen_t len = sizeof(addr);
    SAMYA_CHECK(::getsockname(loop->fd, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
    loop->port = ntohs(addr.sin_port);
    ports_[i] = loop->port;
    // Latency injection holds bursts in the outbox, then releases them
    // together; widen the kernel buffers so those bursts don't shed.
    const int buf = 4 * 1024 * 1024;
    ::setsockopt(loop->fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(loop->fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    SAMYA_CHECK_MSG(loop->wake_fd >= 0, "eventfd() failed");
  }
  epoch_ = std::chrono::steady_clock::now();
  // Queue each node's Start() before its loop exists: the first tick runs
  // it, and no Post has to wake a sleeping thread.
  for (size_t i = 0; i < loops_.size(); ++i) {
    Node* n = loops_[i]->node;
    Post(static_cast<NodeId>(i), [n] { n->Start(); });
  }
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { LoopMain(l); });
  }
}

void RealCluster::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    Wake(loop.get());
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    for (int* fd : {&loop->fd, &loop->wake_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
  }
}

SimTime RealCluster::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void RealCluster::RunFor(Duration d) {
  std::this_thread::sleep_for(std::chrono::microseconds(d));
}

void RealCluster::Post(NodeId id, std::function<void()> fn) {
  // After Shutdown the eventfd Wake writes to is closed.
  SAMYA_CHECK_MSG(started_ && !shut_down_, "Post needs running loops");
  Loop* loop = loops_[static_cast<size_t>(id)].get();
  {
    std::lock_guard<std::mutex> lk(loop->ctl_mu);
    loop->ctl.push_back(std::move(fn));
    ++loop->ctl_posted;
  }
  Wake(loop);
}

void RealCluster::Wake(Loop* loop) {
  // Only a saturated counter fails (EAGAIN), and then the loop is awake.
  const uint64_t one = 1;
  (void)!::write(loop->wake_fd, &one, sizeof(one));
}

void RealCluster::Crash(NodeId id) {
  Node* n = node(id);
  Post(id, [n] {
    if (!Runtime::alive(*n)) return;
    Runtime::MarkCrashed(*n);
    n->HandleCrash();
  });
}

void RealCluster::Recover(NodeId id) {
  Node* n = node(id);
  Post(id, [n] {
    if (Runtime::alive(*n)) return;
    Runtime::MarkRecovered(*n);
    n->HandleRecover();
  });
}

void RealCluster::Barrier() {
  SAMYA_CHECK_MSG(started_ && !shut_down_, "Barrier needs running loops");
  for (auto& loop : loops_) {
    std::unique_lock<std::mutex> lk(loop->ctl_mu);
    const uint64_t target = loop->ctl_posted;
    loop->ctl_done.wait(lk, [&] { return loop->ctl_executed >= target; });
  }
}

RealNetStats RealCluster::stats() const {
  RealNetStats total;
  for (const auto& loop : loops_) {
    const RealNetStats& s = loop->stats;
    total.messages_sent += s.messages_sent;
    total.messages_delivered += s.messages_delivered;
    total.messages_dropped_loss += s.messages_dropped_loss;
    total.messages_dropped_crashed += s.messages_dropped_crashed;
    total.messages_duplicated += s.messages_duplicated;
    total.bytes_sent += s.bytes_sent;
    total.frames_rejected += s.frames_rejected;
  }
  return total;
}

void RealCluster::Send(Node* from, NodeId to, uint32_t type,
                       const uint8_t* data, size_t n) {
  // Always the sender's own loop thread (handlers and posted closures are
  // the only callers), so loop state needs no lock.
  Loop* loop = loops_[static_cast<size_t>(from->id())].get();
  if (!Runtime::alive(*from)) return;  // a crashed node sends nothing
  ++loop->stats.messages_sent;
  loop->stats.bytes_sent += n;
  obs::FlightRecorder* flight = flight_for(from->id());

  if (config_.loss_rate > 0 &&
      loop->send_rng.Bernoulli(config_.loss_rate)) {
    ++loop->stats.messages_dropped_loss;
    if (flight != nullptr) {
      flight->Record(loop->now_us, from->id(), obs::FlightKind::kMsgSend,
                     obs::kSendDroppedAtSend, type, to,
                     static_cast<int64_t>(n));
    }
    return;
  }
  if (flight != nullptr) {
    flight->Record(loop->now_us, from->id(), obs::FlightKind::kMsgSend,
                   obs::kSendOk, type, to, static_cast<int64_t>(n));
  }

  Node* receiver = node(to);
  auto enqueue = [&](Duration latency) {
    DelayedSend ds;
    ds.due = loop->now_us +
             static_cast<SimTime>(static_cast<double>(latency) *
                                  config_.delay_factor);
    ds.seq = loop->send_seq++;
    ds.to = to;
    EncodeFrame(from->id(), to, type, data, n, &ds.frame);
    SAMYA_CHECK_MSG(ds.frame.size() <= kMaxDatagram, "oversized frame");
    loop->outbox.push(std::move(ds));
  };

  if (config_.duplicate_rate > 0 &&
      loop->send_rng.Bernoulli(config_.duplicate_rate)) {
    ++loop->stats.messages_duplicated;
    enqueue(config_.model.Sample(from->region(), receiver->region(),
                                 loop->send_rng));
  }
  enqueue(config_.model.Sample(from->region(), receiver->region(),
                               loop->send_rng));
}

uint64_t RealCluster::ArmTimer(Node* n, Duration delay, uint64_t token) {
  Loop* loop = loops_[static_cast<size_t>(n->id())].get();
  TimerEntry entry;
  entry.timer_id = Runtime::RegisterTimer(*n, &entry.epoch);
  entry.due = loop->now_us + delay;
  entry.token = token;
  loop->timers.push(entry);
  return entry.timer_id;
}

void RealCluster::LoopMain(Loop* loop) {
  while (!loop->stop.load(std::memory_order_acquire)) {
    LoopTick(loop);
    // Sleep until the next deadline this loop owns, or indefinitely when it
    // owns none; a datagram or a Wake (Post, Shutdown) ends the sleep early.
    SimTime next = kNoDeadline;
    if (!loop->timers.empty()) next = loop->timers.top().due;
    if (!loop->outbox.empty()) next = std::min(next, loop->outbox.top().due);
    timespec timeout{};
    const bool has_deadline = next != kNoDeadline;
    if (has_deadline) {
      // Deadlines are whole µs since epoch_: once this wait has elapsed,
      // NowUs() >= next and the deadline is due on the next tick.
      const auto wait = std::max<std::chrono::nanoseconds>(
          std::chrono::nanoseconds::zero(),
          epoch_ + std::chrono::microseconds(next) -
              std::chrono::steady_clock::now());
      timeout.tv_sec = static_cast<time_t>(wait.count() / 1000000000);
      timeout.tv_nsec = static_cast<long>(wait.count() % 1000000000);
    }
    pollfd pfds[2] = {{loop->fd, POLLIN, 0}, {loop->wake_fd, POLLIN, 0}};
    ::ppoll(pfds, 2, has_deadline ? &timeout : nullptr, nullptr);
    if ((pfds[1].revents & POLLIN) != 0) {
      uint64_t wakes = 0;
      (void)!::read(loop->wake_fd, &wakes, sizeof(wakes));
    }
  }
}

void RealCluster::LoopTick(Loop* loop) {
  loop->now_us = NowUs();

  // Control closures (Start, crash/recover, test probes) run first, fully
  // serialized with handlers on this thread.
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lk(loop->ctl_mu);
      if (loop->ctl.empty()) break;
      fn = std::move(loop->ctl.front());
      loop->ctl.pop_front();
    }
    fn();
    {
      std::lock_guard<std::mutex> lk(loop->ctl_mu);
      ++loop->ctl_executed;
    }
    loop->ctl_done.notify_all();
  }

  // Due timers, in deadline order, each through the shared epoch guard.
  while (!loop->timers.empty() && loop->timers.top().due <= loop->now_us) {
    const TimerEntry t = loop->timers.top();
    loop->timers.pop();
    if (!Runtime::TimerShouldFire(*loop->node, t.timer_id, t.epoch)) continue;
    loop->node->HandleTimer(t.token);
    loop->now_us = NowUs();
  }

  // Netem release: datagrams whose injected latency has elapsed hit the
  // socket now. Sending to the receiver's port from this thread is safe —
  // each fd is bound once and sendto is atomic per datagram.
  while (!loop->outbox.empty() && loop->outbox.top().due <= loop->now_us) {
    const DelayedSend& ds = loop->outbox.top();
    sockaddr_in to_addr = LoopbackAddr(ports_[static_cast<size_t>(ds.to)]);
    // EWOULDBLOCK (full kernel buffer) is UDP loss; the backend contract
    // already includes it.
    (void)::sendto(loop->fd, ds.frame.data(), ds.frame.size(), 0,
                   reinterpret_cast<sockaddr*>(&to_addr), sizeof(to_addr));
    loop->outbox.pop();
  }

  DrainSocket(loop);
}

void RealCluster::DrainSocket(Loop* loop) {
  uint8_t buf[kMaxDatagram];
  for (;;) {
    const ssize_t got = ::recv(loop->fd, buf, sizeof(buf), 0);
    if (got < 0) return;  // EWOULDBLOCK or transient error: nothing to read
    loop->now_us = NowUs();
    WireFrame frame;
    const WireError err = DecodeFrame(buf, static_cast<size_t>(got), &frame);
    if (err != WireError::kOk) {
      // Torn, stale, or corrupt datagram: reject whole, never dispatch.
      ++loop->stats.frames_rejected;
      SAMYA_LOG_DEBUG("node %d: rejecting datagram (%s, %zd bytes)",
                      loop->node->id(), WireErrorName(err), got);
      continue;
    }
    if (frame.to != loop->node->id()) {
      ++loop->stats.frames_rejected;  // misrouted: stale port reuse
      continue;
    }
    Dispatch(loop, frame.from, frame.type, frame.payload, frame.payload_len);
  }
}

void RealCluster::Dispatch(Loop* loop, NodeId from, uint32_t type,
                           const uint8_t* data, size_t n) {
  Node* recv = loop->node;
  if (!Runtime::alive(*recv)) {
    ++loop->stats.messages_dropped_crashed;
    obs::FlightRecorder* flight = flight_for(recv->id());
    if (flight != nullptr) {
      flight->Record(loop->now_us, recv->id(), obs::FlightKind::kMsgDeliver,
                     obs::kDeliverDroppedCrashed, type, from, kUnpaired);
    }
    return;
  }
  ++loop->stats.messages_delivered;
  obs::FlightRecorder* flight = flight_for(recv->id());
  if (flight != nullptr) {
    flight->Record(loop->now_us, recv->id(), obs::FlightKind::kMsgDeliver,
                   obs::kDeliverOk, type, from, kUnpaired);
  }
  BufferReader reader(data, n);
  recv->HandleMessage(from, type, reader);
}

}  // namespace samya::rt

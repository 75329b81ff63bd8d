// Workload `serve`: an open loop over real TCP against the `defuse serve`
// stack (SocketServer -> ServerCore -> PlatformServer -> Platform) with
// one shard, async re-mining and delta mining.
//
// Threads: the server thread pumps SocketServer::PollOnce exactly as the
// serve verb does; the platform's re-mine worker mines off the invoke
// path; the generator (this thread) drives two pipelined connections on a
// fixed schedule. Every request is timed from when it was due, so a stall
// charges every request it delayed.
//
// The platform clock must not run backwards, and the server reads the two
// connections in either order, so the generator sends the invocations of
// the next trace minute only once those of the current one are
// acknowledged. A request held back by that barrier is late, and its
// lateness is part of its latency.
//
// Re-mining: daily over a 4-day window, as `defuse serve --async-remine
// --delta-mine` does by default. Each rate step replays one fresh trace
// day. Between steps the generator crosses the day boundary with
// AdvanceTo heartbeats and waits (kHealth) until the async re-mine has
// been adopted, so every step starts on freshly mined sets and no step
// straddles a re-mine. The invoke-path cost of submitting and adopting a
// re-mine (tens of ms here) is reported per layer as platform.remine_s.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/io/framed.hpp"
#include "decorators.hpp"
#include "net/frame_decoder.hpp"
#include "net/server_core.hpp"
#include "net/socket.hpp"
#include "platform/platform.hpp"
#include "server/platform_server.hpp"
#include "server/protocol.hpp"
#include "trace/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace defuse;

/// The latency limit a rate step must meet at its p99.
constexpr double kLimitUs = 1000.0;
/// Requests in flight per connection (the server's admission queue holds
/// 256, so two full windows never overflow it).
constexpr std::size_t kWindow = 128;
/// A step has a growing backlog, and fails whatever its p99, when more
/// than this much traffic is outstanding at its end or the server
/// acknowledged less than kKeptUp of the offered rate.
constexpr double kBacklogSeconds = 0.002;
constexpr std::size_t kBacklogFloor = 64;
constexpr double kKeptUp = 0.97;
/// Offered rate of the saturation step (well above what one server
/// thread acknowledges), and its length in requests: one trace day.
constexpr double kSaturationRate = 4e6;
constexpr int kSaturationSteps = 3;
/// Re-mine cadence and window: the serve verb's defaults.
constexpr MinuteDelta kRemineInterval = kMinutesPerDay;
constexpr MinuteDelta kMiningWindow = 4 * kMinutesPerDay;
/// Trace days replayed directly into the platform at boot (its history
/// then fills the mining window, as for a daemon that has been running).
constexpr Minute kWarmDays = 4;
/// Resident functions are sampled every this many platform minutes.
constexpr Minute kMemoryStride = 10;

struct Request {
  FunctionId fn;
  Minute minute = 0;
};

/// What the server thread books while it runs; read after it is joined.
struct ServerBooks {
  std::atomic<bool> recording{false};
  double poll_busy_s = 0, poll_idle_s = 0;
  double memory_sum = 0;
  std::uint64_t memory_samples = 0;
  Minute next_memory_sample = 0;
};

/// The daemon: platform, handler, core and socket, pumped by one thread.
class ServerStack {
 public:
  ServerStack(const trace::WorkloadModel& model, Minute horizon_end,
              bool traced)
      : platform_(model, MakeConfig(horizon_end)),
        handler_(platform_),
        timed_(handler_, handler_books_),
        core_(traced ? static_cast<net::RequestHandler&>(timed_)
                     : static_cast<net::RequestHandler&>(handler_),
              net::ServerLimits{}),
        socket_(core_) {
    handler_.set_core(&core_);
  }
  ~ServerStack() { Stop(); }
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  platform::Platform& platform() { return platform_; }

  /// Listens and starts the server thread; returns the port.
  std::uint16_t Start() {
    if (const auto listening = socket_.Listen(); !listening.ok()) {
      std::cerr << "listen failed: " << listening.error().message << "\n";
      std::exit(2);
    }
    books_.next_memory_sample = platform_.last_invocation_minute();
    thread_ = std::thread([this] { Loop(); });
    return socket_.port();
  }

  /// Stops and joins the server thread, then drains like the serve verb.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    socket_.StopAccepting();
    core_.BeginDrain();
    (void)handler_.Drain();
    socket_.CloseAll();
  }

  void SetRecording(bool on) {
    books_.recording.store(on);
    handler_books_.recording.store(on);
  }
  const ServerBooks& books() const { return books_; }
  const HandlerBooks& handler_books() const { return handler_books_; }
  const net::ServerCoreStats& core_stats() const { return core_.stats(); }

 private:
  static platform::PlatformConfig MakeConfig(Minute horizon_end) {
    platform::PlatformConfig config;
    config.horizon = horizon_end;
    config.remine_interval = kRemineInterval;
    config.mining_window = kMiningWindow;
    config.async_remine = true;
    config.mining.delta.enabled = true;
    return config;
  }

  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      const bool recording = books_.recording.load(std::memory_order_relaxed);
      const std::int64_t start = recording ? NowNs() : 0;
      const auto polled = socket_.PollOnce(5);
      if (!polled.ok()) {
        std::cerr << "poll failed: " << polled.error().message << "\n";
        return;
      }
      if (recording) {
        const double took = SecondsSince(start);
        (polled.value() > 0 ? books_.poll_busy_s : books_.poll_idle_s) += took;
      }
      const Minute now = platform_.last_invocation_minute();
      if (now >= books_.next_memory_sample) {
        books_.memory_sum +=
            static_cast<double>(platform_.ResidentFunctions(now));
        ++books_.memory_samples;
        books_.next_memory_sample = now + kMemoryStride;
      }
    }
  }

  platform::Platform platform_;
  server::PlatformServer handler_;
  HandlerBooks handler_books_;
  TimedHandler timed_;
  net::ServerCore core_;
  net::SocketServer socket_;
  ServerBooks books_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the members it uses go
};

/// One client connection, nonblocking.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  net::FrameDecoder decoder{net::FrameDecoderLimits{
      .max_payload_bytes = server::kMaxReplyPayloadBytes,
      .max_header_bytes = 64}};
  std::deque<std::int64_t> due;  // due times of in-flight requests, in order

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

bool Connect(Conn& conn, std::uint16_t port) {
  conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = ::fcntl(conn.fd, F_GETFL, 0);
  return ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

struct StepResult {
  double rate = 0;
  std::uint64_t sent = 0, acked = 0, failed = 0, cold = 0;
  Samples latency_us;
  /// p99 of each whole second of the step (the nominal step's p99_us is
  /// their median).
  std::vector<double> window_p99_us;
  Samples late_us;
  std::uint64_t backlog_end = 0;
  double achieved_per_s = 0;
  bool pass = false;
};

struct ClientBooks {
  Samples encode_ns, decode_ns;
};

/// Drives `requests` open-loop at `rate` over both connections, waits for
/// every reply (or gives up after a grace period), and judges the step.
StepResult DriveStep(std::vector<Conn>& conns, const Request* requests,
                     std::size_t n, double rate, double seconds,
                     ClientBooks* client) {
  StepResult step;
  step.rate = rate;
  const double interval_ns = 1e9 / rate;
  const std::int64_t t0 = NowNs() + 1'000'000;
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t give_up = t_end + 3'000'000'000LL;
  auto due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  };
  std::size_t next = 0, inflight = 0, turn = 0;
  Minute minute = n > 0 ? requests[0].minute : 0;
  bool backlog_taken = false;
  std::int64_t last_ack = t0;
  std::int64_t window_start = t0;
  Samples window;
  std::string payload;
  char buffer[64 * 1024];

  while (step.acked + step.failed < n) {
    std::int64_t now = NowNs();
    if (now > give_up) {
      step.failed += n - step.acked - step.failed;
      break;
    }
    if (!backlog_taken && now >= t_end) {
      std::size_t due_by_end = 0;
      while (due_by_end < n && due(due_by_end) <= t_end) ++due_by_end;
      step.backlog_end = due_by_end - step.acked - step.failed;
      backlog_taken = true;
    }
    // Send everything due, minute barrier and windows permitting.
    while (next < n && due(next) <= now) {
      if (requests[next].minute != minute) {
        if (inflight > 0) break;
        minute = requests[next].minute;
      }
      Conn& conn = conns[turn % conns.size()];
      if (conn.due.size() >= kWindow) break;
      ++turn;
      const std::int64_t a = client != nullptr ? NowNs() : 0;
      io::AppendFrame(conn.out, server::EncodeRequest(server::InvokeRequest{
                                    requests[next].fn, requests[next].minute}));
      if (client != nullptr) client->encode_ns.Add(static_cast<double>(NowNs() - a));
      conn.due.push_back(due(next));
      step.late_us.Add(static_cast<double>(now - due(next)) * 1e-3);
      ++next;
      ++inflight;
      ++step.sent;
    }
    bool progressed = false;
    for (Conn& conn : conns) {
      while (conn.out_pos < conn.out.size()) {
        const ssize_t wrote =
            ::send(conn.fd, conn.out.data() + conn.out_pos,
                   conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (wrote <= 0) break;
        conn.out_pos += static_cast<std::size_t>(wrote);
        progressed = true;
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
      const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (got > 0) {
        progressed = true;
        conn.decoder.Feed(std::string_view{buffer, static_cast<std::size_t>(got)});
        const int one = 1;
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      } else if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        std::cerr << "connection lost\n";
        step.failed += n - step.acked - step.failed;
        return step;
      }
      now = NowNs();
      while (conn.decoder.Next(payload) == net::FrameDecoder::State::kFrame) {
        if (conn.due.empty()) break;
        const std::int64_t due_at = conn.due.front();
        conn.due.pop_front();
        --inflight;
        const std::int64_t a = client != nullptr ? NowNs() : 0;
        auto reply = server::DecodeReply(payload);
        bool ok = reply.ok() && reply.value().ok;
        bool cold = false;
        if (ok) {
          auto body = server::DecodeInvokeReplyBody(reply.value().body);
          ok = body.ok();
          cold = ok && body.value().cold;
        }
        if (client != nullptr) client->decode_ns.Add(static_cast<double>(NowNs() - a));
        if (!ok) {
          ++step.failed;
          continue;
        }
        ++step.acked;
        step.cold += cold ? 1 : 0;
        const double latency = static_cast<double>(now - due_at) * 1e-3;
        step.latency_us.Add(latency);
        if (due_at >= window_start + 1'000'000'000LL) {
          if (window.count() > 0) step.window_p99_us.push_back(window.Percentile(0.99));
          window = Samples{};
          window_start += 1'000'000'000LL;
        }
        window.Add(latency);
        last_ack = now;
      }
    }
    if (progressed) continue;
    // Idle: wait for a reply or the next due time.
    pollfd fds[2];
    for (std::size_t i = 0; i < conns.size() && i < 2; ++i) {
      fds[i] = pollfd{conns[i].fd,
                      static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                      0};
    }
    std::int64_t wait_ns = 1'000'000;
    if (next < n && (requests[next].minute == minute || inflight == 0)) {
      wait_ns = std::max<std::int64_t>(0, due(next) - NowNs());
      wait_ns = std::min<std::int64_t>(wait_ns, 1'000'000);
    }
    const timespec timeout{0, static_cast<long>(wait_ns)};
    ::ppoll(fds, conns.size(), &timeout, nullptr);
  }
  if (window.count() > 0) step.window_p99_us.push_back(window.Percentile(0.99));
  step.achieved_per_s =
      static_cast<double>(step.acked) / (static_cast<double>(last_ack - t0) * 1e-9);
  const double backlog_limit =
      std::max<double>(kBacklogFloor, rate * kBacklogSeconds);
  step.pass = step.failed == 0 && step.latency_us.Percentile(0.99) <= kLimitUs &&
              static_cast<double>(step.backlog_end) <= backlog_limit &&
              step.achieved_per_s >= kKeptUp * rate;
  return step;
}

/// One blocking request/reply on an idle connection (control traffic
/// between steps). Returns the reply body, or nullopt on any failure.
std::optional<std::string> RoundTrip(Conn& conn, const std::string& request) {
  std::string frame;
  io::AppendFrame(frame, request);
  std::size_t sent = 0;
  const std::int64_t give_up = NowNs() + 10'000'000'000LL;
  while (sent < frame.size()) {
    const ssize_t n = ::send(conn.fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) sent += static_cast<std::size_t>(n);
    if (NowNs() > give_up) return std::nullopt;
  }
  std::string payload;
  char buffer[4096];
  while (conn.decoder.Next(payload) != net::FrameDecoder::State::kFrame) {
    pollfd fd{conn.fd, POLLIN, 0};
    if (::poll(&fd, 1, 100) < 0 || NowNs() > give_up) return std::nullopt;
    const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (got == 0) return std::nullopt;
    if (got > 0) conn.decoder.Feed(std::string_view{buffer, static_cast<std::size_t>(got)});
  }
  auto reply = server::DecodeReply(payload);
  if (!reply.ok() || !reply.value().ok) return std::nullopt;
  return std::string{reply.value().body};
}

/// Crosses the re-mine boundary at `minute` and waits until the async
/// re-mine it starts has been adopted. Returns the summed round-trip time
/// of the heartbeats that submitted and adopted it (the invoke-path
/// pause), or a negative value on failure.
double CrossBoundary(Conn& conn, Minute minute) {
  double pause_s = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t a = NowNs();
    if (!RoundTrip(conn, server::EncodeRequest(server::AdvanceToRequest{minute}))) {
      return -1;
    }
    const double took = SecondsSince(a);
    const auto health = RoundTrip(conn, server::EncodeRequest(server::HealthRequest{}));
    if (!health) return -1;
    auto decoded = server::DecodeHealthReplyBody(*health);
    if (!decoded.ok()) return -1;
    if (i == 0 || !decoded.value().remine_in_flight) pause_s += took;
    if (!decoded.value().remine_in_flight) return pause_s;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

struct Setup {
  explicit Setup(trace::SyntheticWorkload w) : workload(std::move(w)) {}

  trace::SyntheticWorkload workload;
  std::vector<Request> requests;
  /// Index of the first request of each trace day (plus the end).
  std::vector<std::size_t> day_start;
  std::unique_ptr<ServerStack> server;
  std::vector<Conn> conns;
};

/// Set-up: generate the trace, boot the daemon (warming the platform on
/// the first trace day, as a restarted daemon would have), connect.
std::unique_ptr<Setup> Boot(const trace::ScenarioSpec& spec, bool traced) {
  auto setup = std::make_unique<Setup>(trace::GenerateScenario(spec));
  const trace::InvocationTrace& trace = setup->workload.trace;
  const auto index = trace.BuildMinuteIndex(trace.horizon());
  for (Minute t = trace.horizon().begin; t < trace.horizon().end; ++t) {
    if (t % kMinutesPerDay == 0) setup->day_start.push_back(setup->requests.size());
    for (const auto& [fn, count] : index.at(t)) {
      setup->requests.push_back(Request{fn, t});
    }
  }
  setup->day_start.push_back(setup->requests.size());
  setup->server = std::make_unique<ServerStack>(setup->workload.model,
                                                trace.horizon().end, traced);
  platform::Platform& platform = setup->server->platform();
  for (const Request& r : setup->requests) {
    if (r.minute >= kWarmDays * kMinutesPerDay) break;
    (void)platform.Invoke(r.fn, r.minute);
  }
  platform.FinishPendingRemine();
  const std::uint16_t port = setup->server->Start();
  setup->conns = std::vector<Conn>(2);
  for (Conn& conn : setup->conns) {
    if (!Connect(conn, port)) {
      std::cerr << "connect failed: " << std::strerror(errno) << "\n";
      std::exit(2);
    }
  }
  return setup;
}

double P75(const std::vector<std::uint64_t>& calls,
           const std::vector<std::uint64_t>& cold,
           const std::vector<std::uint64_t>& calls_before,
           const std::vector<std::uint64_t>& cold_before) {
  Samples rates;
  for (std::size_t f = 0; f < calls.size(); ++f) {
    const std::uint64_t c = calls[f] - calls_before[f];
    if (c == 0) continue;
    rates.Add(static_cast<double>(cold[f] - cold_before[f]) /
              static_cast<double>(c));
  }
  return rates.Percentile(0.75);
}

std::string StepName(double rate) {
  return "r" + std::to_string(static_cast<int>(rate / 1000)) + "k";
}

}  // namespace

RunResult RunServeWorkload(const RunOptions& options) {
  RunResult run;
  trace::ScenarioSpec spec;
  spec.kind = trace::ScenarioKind::kAzureLike;
  spec.seed = options.seed;
  spec.num_users = options.tiny ? 8 : 100;
  // Boot days, then one day each for the warm-up step, the untraced
  // nominal step (traced runs), six ladder steps and the saturation steps.
  spec.horizon_minutes = (kWarmDays + 11) * kMinutesPerDay;
  // Step length: the ladder takes about `seconds` in all.
  const double unit_s = options.seconds / 10.0;

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    const std::int64_t start = NowNs();
    setup = Boot(spec, options.trace);
    setup_s.push_back(SecondsSince(start));
  }
  ServerStack& server = *setup->server;
  const platform::Platform& platform = server.platform();
  // Counters at the start of the served traffic. The server thread is
  // idle until the first request, so reading them here does not race.
  const platform::PlatformStats stats_before = platform.stats();
  const std::vector<std::uint64_t> calls_before = platform.function_invocations();
  const std::vector<std::uint64_t> cold_before = platform.function_cold();

  ClientBooks client;
  std::deque<StepResult> steps;  // stable addresses for `nominal`
  std::uint64_t requests_total = 0;
  bool exhausted = false;
  // Each step replays (a prefix of) the next trace day, after crossing
  // that day's re-mine boundary.
  std::size_t day = kWarmDays;
  double remine_pause_s = 0;
  std::uint64_t boundaries = 0;
  auto drive = [&](double rate, double seconds, bool traced) -> StepResult* {
    if (day + 1 >= setup->day_start.size()) {
      exhausted = true;
      return nullptr;
    }
    const std::size_t begin = setup->day_start[day];
    const std::size_t n = std::min<std::size_t>(
        setup->day_start[day + 1] - begin,
        static_cast<std::size_t>(rate * seconds));
    const double pause = CrossBoundary(setup->conns[0],
                                       static_cast<Minute>(day) * kMinutesPerDay);
    run.Check(pause >= 0, "re-mine boundary of day " + std::to_string(day) +
                              " crossed and adopted");
    if (pause < 0) {
      exhausted = true;
      return nullptr;
    }
    remine_pause_s += pause;
    ++boundaries;
    server.SetRecording(traced);
    steps.push_back(DriveStep(setup->conns, setup->requests.data() + begin, n,
                              rate, static_cast<double>(n) / rate,
                              traced ? &client : nullptr));
    server.SetRecording(false);
    ++day;
    requests_total += n;
    return &steps.back();
  };

  // Warm-up, unmeasured: the first traffic after boot pays one-off costs
  // (page faults, buffer growth) that no later request sees.
  (void)drive(kNominalRate, unit_s, false);
  // A traced run then measures the nominal rate untraced, for the
  // tracing overhead.
  double untraced_nominal_p50 = 0;
  if (options.trace) {
    if (const StepResult* s = drive(kNominalRate, 3 * unit_s, false)) {
      untraced_nominal_p50 = s->latency_us.Percentile(0.50);
    }
  }
  // The ladder: every rate runs; the highest rate below which every step
  // met the limit is max_rate (per layer: it swings with the host's
  // scheduling noise, see README).
  const StepResult* nominal = nullptr;
  double max_rate = 0;
  bool all_passed = true;
  for (const double rate : kLadderRates) {
    const bool is_nominal = rate == kNominalRate;
    const StepResult* s = drive(rate, (is_nominal ? 5 : 1) * unit_s, options.trace);
    if (s == nullptr) break;
    if (is_nominal) nominal = s;
    all_passed = all_passed && s->pass;
    if (all_passed) max_rate = s->achieved_per_s;
  }
  // Saturation: offered far above capacity, the two windows stay full and
  // the acknowledged rate is the server's throughput. inv_per_s is the
  // median over kSaturationSteps days.
  std::vector<double> saturated;
  for (int i = 0; i < kSaturationSteps; ++i) {
    if (const StepResult* s = drive(kSaturationRate, 1.0, false)) {
      saturated.push_back(s->achieved_per_s);
    }
  }
  server.SetRecording(false);
  server.Stop();

  // Output checks: every request acknowledged or counted failed, and the
  // server invoked exactly what was acknowledged.
  std::uint64_t sent = 0, acked = 0, failed = 0, cold = 0;
  for (const StepResult& s : steps) {
    sent += s.sent;
    acked += s.acked;
    failed += s.failed;
    cold += s.cold;
  }
  run.attempted += requests_total;
  run.failed += failed;
  run.Check(acked + failed == requests_total && sent <= requests_total,
            "every request is acknowledged or counted failed");
  const platform::PlatformStats& stats = platform.stats();
  run.Check(stats.invocations - stats_before.invocations == acked,
            "server invocations equal acknowledgements");
  run.Check(stats.cold_invocations - stats_before.cold_invocations == cold,
            "server cold invocations equal cold acknowledgements");
  run.Check(nominal != nullptr && saturated.size() == kSaturationSteps,
            "the nominal and saturation steps ran");
  if (exhausted) run.notes.push_back("ladder stopped: trace exhausted");

  for (const StepResult& s : steps) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "step rate=%.0f sent=%llu acked=%llu failed=%llu p50_us=%.1f "
                  "p99_us=%.1f late_us_p99=%.1f backlog_end=%llu achieved=%.0f %s",
                  s.rate, static_cast<unsigned long long>(s.sent),
                  static_cast<unsigned long long>(s.acked),
                  static_cast<unsigned long long>(s.failed),
                  s.latency_us.Percentile(0.5), s.latency_us.Percentile(0.99),
                  s.late_us.SmoothedPercentile(0.99),
                  static_cast<unsigned long long>(s.backlog_end),
                  s.achieved_per_s, s.pass ? "pass" : "FAIL");
    run.notes.push_back(line);
  }

  Metrics& m = run.metrics;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("inv_per_s", Median(saturated), "1/s");
  m.Set("serve.max_rate_per_s", max_rate, "1/s");
  if (nominal != nullptr) {
    m.Set("p50_us", nominal->latency_us.Percentile(0.50), "us");
    m.Set("p99_us", Median(nominal->window_p99_us), "us");
    run.notes.push_back("nominal samples=" +
                        std::to_string(nominal->latency_us.count()) +
                        " windows=" + std::to_string(nominal->window_p99_us.size()));
  }
  run.notes.push_back("re-mine boundaries crossed=" + std::to_string(boundaries) +
                      " invoke-path pause_s=" + std::to_string(remine_pause_s));
  const std::uint64_t served = stats.invocations - stats_before.invocations;
  m.Set("cold_fraction",
        served == 0 ? 0.0
                    : static_cast<double>(stats.cold_invocations -
                                          stats_before.cold_invocations) /
                          static_cast<double>(served),
        "ratio");
  m.Set("p75_cold_rate", P75(platform.function_invocations(), platform.function_cold(),
                             calls_before, cold_before),
        "ratio");
  const ServerBooks& books = server.books();
  m.Set("memory_share",
        books.memory_samples == 0
            ? 0.0
            : books.memory_sum / static_cast<double>(books.memory_samples) /
                  static_cast<double>(platform.function_invocations().size()),
        "ratio");

  if (options.trace) {
    const auto& handled = server.handler_books().handle_us;
    m.Set("server.handle_us_p50", handled.SmoothedPercentile(0.50), "us");
    m.Set("server.handle_us_p99", handled.SmoothedPercentile(0.99), "us");
    m.Set("server.queue_depth_max",
          static_cast<double>(server.core_stats().max_queue_depth_seen), "count");
    m.Set("server.sheds",
          static_cast<double>(server.core_stats().requests_shed +
                              server.core_stats().requests_shed_overflow),
          "count");
    m.Set("net.poll_busy_s", books.poll_busy_s, "s");
    m.Set("net.poll_idle_s", books.poll_idle_s, "s");
    m.Set("net.encode_ns", client.encode_ns.SmoothedPercentile(0.50), "ns");
    m.Set("net.decode_ns", client.decode_ns.SmoothedPercentile(0.50), "ns");
    m.Set("platform.remines",
          static_cast<double>(stats.remines - stats_before.remines), "count");
    m.Set("platform.remine_s", remine_pause_s, "s");
    for (const StepResult& s : steps) {
      for (const double rate : kLadderRates) {
        if (s.rate != rate) continue;
        m.Set("gen.late_us_p99." + StepName(rate), s.late_us.SmoothedPercentile(0.99), "us");
        m.Set("gen.backlog_end." + StepName(rate), static_cast<double>(s.backlog_end),
              "count");
      }
    }
    if (nominal != nullptr && untraced_nominal_p50 > 0) {
      m.Set("tracing.overhead",
            nominal->latency_us.Percentile(0.50) / untraced_nominal_p50 - 1.0,
            "ratio");
    }
  }
  return run;
}

}  // namespace perfbench

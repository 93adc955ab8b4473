#include "probes.hpp"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
const evmp::common::TimePoint kOrigin = evmp::common::now();
}  // namespace

std::string json_number(double v) {
  char buf[64];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), std::isfinite(v) ? v : 0.0);
  return std::string(buf, r.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::int64_t now_ns() noexcept {
  return evmp::common::elapsed_ns(kOrigin, evmp::common::now());
}

void tighten_timer_slack() noexcept { (void)::prctl(PR_SET_TIMERSLACK, 1UL); }

void sleep_until_ns(std::int64_t ns) noexcept {
  // steady_clock is CLOCK_MONOTONIC, so an absolute monotonic sleep lands
  // on the same time line as now_ns().
  const auto target =
      (kOrigin + std::chrono::nanoseconds{ns}).time_since_epoch();
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(target);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(secs.count());
  ts.tv_nsec = static_cast<long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(target - secs)
          .count());
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

ProcSnapshot proc_snapshot() {
  ProcSnapshot s;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.allocs = process_allocs();
  s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MB
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal guest guest_nice". Read with plain syscalls: a sampler takes this
  // snapshot while the workload runs, and must not allocate.
  char buf[512];
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  const ssize_t n = fd >= 0 ? ::read(fd, buf, sizeof(buf) - 1) : -1;
  if (fd >= 0) ::close(fd);
  if (n > 3) {
    buf[n] = '\0';
    char* p = buf + 3;  // past "cpu"
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t field = std::strtoull(p, &p, 10);
      s.total_ticks += field;  // guest time is already inside user
      if (i == 7) s.steal_ticks = field;
    }
  }
  s.wall_ns = now_ns();
  return s;
}

WindowSampler::WindowSampler(std::int64_t period_ns) : period_ns_(period_ns) {}

WindowSampler::~WindowSampler() { (void)stop(); }

void WindowSampler::start() {
  snaps_.clear();
  snaps_.reserve(4096);
  snaps_.push_back(proc_snapshot());
  const std::int64_t first = snaps_.front().wall_ns;
  thread_ = std::jthread([this, first](const std::stop_token& st) {
    tighten_timer_slack();
    for (std::int64_t next = first + period_ns_; !st.stop_requested();
         next += period_ns_) {
      sleep_until_ns(next);
      if (st.stop_requested()) break;
      std::scoped_lock lk(mu_);
      if (snaps_.size() < snaps_.capacity()) snaps_.push_back(proc_snapshot());
    }
  });
}

std::vector<ProcSnapshot> WindowSampler::stop() {
  if (!thread_.joinable()) return {};
  thread_.request_stop();
  thread_.join();
  std::vector<ProcSnapshot> out = std::move(snaps_);
  out.push_back(proc_snapshot());
  // A last window shorter than half a period says little about steal;
  // fold it into the one before.
  if (out.size() > 2 &&
      out.back().wall_ns - out[out.size() - 2].wall_ns < period_ns_ / 2) {
    out.erase(out.end() - 2);
  }
  return out;
}

std::string host_fingerprint_json() {
  std::string model = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  utsname un{};
  ::uname(&un);
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_string(model) +
         ", \"kernel\": " + json_string(un.release) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"alloc_counting\": " +
         (alloc_counting_enabled() ? "true" : "false") + "}";
}

TimedExecutor::TimedExecutor(std::string name, evmp::exec::Executor& inner,
                             std::size_t capacity)
    : Executor(std::move(name)),
      inner_(inner),
      capacity_(capacity),
      slots_(std::make_unique<Slot[]>(capacity)) {}

void TimedExecutor::post(evmp::exec::Task task) {
  const std::int64_t entered = now_ns();
  std::size_t idx = capacity_;
  if (armed_.load(std::memory_order_acquire)) {
    idx = next_.fetch_add(1, std::memory_order_relaxed);
  }
  Slot& slot = idx < capacity_ ? slots_[idx] : overflow_;
  slot.post_ns.store(entered, std::memory_order_relaxed);
  inner_.post(evmp::exec::Task([&slot, t = std::move(task)]() mutable {
    slot.start_ns.store(now_ns(), std::memory_order_relaxed);
    t();
    slot.end_ns.store(now_ns(), std::memory_order_release);
  }));
  slot.posted_ns.store(now_ns(), std::memory_order_release);
}

void TimedExecutor::arm() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].post_ns.store(0, std::memory_order_relaxed);
    slots_[i].posted_ns.store(0, std::memory_order_relaxed);
    slots_[i].start_ns.store(0, std::memory_order_relaxed);
    slots_[i].end_ns.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

std::vector<BlockSpan> TimedExecutor::disarm() {
  armed_.store(false, std::memory_order_release);
  const std::size_t n =
      std::min(next_.load(std::memory_order_relaxed), capacity_);
  std::vector<BlockSpan> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].post_ns = slots_[i].post_ns.load(std::memory_order_relaxed);
    out[i].posted_ns = slots_[i].posted_ns.load(std::memory_order_acquire);
    out[i].start_ns = slots_[i].start_ns.load(std::memory_order_relaxed);
    out[i].end_ns = slots_[i].end_ns.load(std::memory_order_acquire);
  }
  return out;
}

}  // namespace perfbench

#include "common/tracing.hpp"

#include <fstream>

namespace evmp::common {

Tracer& Tracer::instance() {
  // Intentionally leaked: executors owned by function-local statics (the
  // swing-worker pool) publish counters from their atexit destructors, so
  // the tracer must outlive every other static. The pointer keeps the
  // object reachable for LeakSanitizer.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::enable(bool on) {
  {
    std::scoped_lock lk(mu_);
    if (on) epoch_ = now();
  }
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::record(std::string_view name, std::string_view category,
                    TimePoint start, TimePoint end) {
  if (!enabled()) return;
  std::scoped_lock lk(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  TraceSpan span;
  span.name = std::string(name);
  span.category = std::string(category);
  span.start_us = elapsed_ns(epoch_, start) / 1000;
  span.duration_us = elapsed_ns(start, end) / 1000;
  span.thread_id = current_thread_id();
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> Tracer::snapshot() const {
  std::scoped_lock lk(mu_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::scoped_lock lk(mu_);
  return spans_.size();
}

std::size_t Tracer::dropped() const {
  std::scoped_lock lk(mu_);
  return dropped_;
}

void Tracer::clear() {
  std::scoped_lock lk(mu_);
  spans_.clear();
  dropped_ = 0;
}

void Tracer::set_capacity(std::size_t cap) {
  std::scoped_lock lk(mu_);
  capacity_ = cap;
}

void Tracer::set_counter(std::string name, std::uint64_t value) {
  std::scoped_lock lk(counters_mu_);
  counters_[std::move(name)] = value;
}

std::map<std::string, std::uint64_t> Tracer::counters() const {
  std::scoped_lock lk(counters_mu_);
  return counters_;
}

std::uint32_t Tracer::current_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u0020";  // control chars never appear in our names anyway
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

bool Tracer::write_chrome_trace(const std::string& path) const {
  const auto spans = snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out << ",\n";
    first = false;
    std::string name;
    json_escape_into(name, s.name);
    std::string cat;
    json_escape_into(cat, s.category);
    out << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
        << "\",\"ph\":\"X\",\"ts\":" << s.start_us
        << ",\"dur\":" << s.duration_us << ",\"pid\":1,\"tid\":"
        << s.thread_id << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace evmp::common

// In-memory span recorder for the system benchmark's traced runs.
//
// A span marks one call the benchmark makes into a library module: its
// name, start, end, the span that was open on the same thread when it
// began (its parent), and a request id (the training epoch or the query
// index). Spans stay in memory while the workload runs and are written
// once, at the end, as Chrome trace-event JSON that Perfetto and
// chrome://tracing open. The recorder is off unless the benchmark was
// started with --trace; an off recorder costs one relaxed load per scope,
// and no end-to-end number is ever taken from a traced process.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qpinn_bench::trace {

struct Span {
  const char* name = "";  ///< string literal: spans outlive no scope
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span on its thread
  std::int64_t request = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t tid = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Recorder {
 public:
  static Recorder& instance() {
    static Recorder recorder;
    return recorder;
  }

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes every span as a Chrome "complete" event; timestamps are in
  /// microseconds from the earliest span. Returns false if the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path) const {
    const std::vector<Span> spans = snapshot();
    std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}"
          << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  Recorder() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

namespace detail {
/// Open spans on this thread, innermost last.
inline std::vector<std::int64_t>& open_stack() {
  thread_local std::vector<std::int64_t> stack;
  return stack;
}
inline std::int64_t thread_index() {
  static std::atomic<std::int64_t> next{0};
  thread_local const std::int64_t index = next.fetch_add(1);
  return index;
}
}  // namespace detail

/// Records one span from construction to destruction when the recorder is
/// enabled; otherwise does nothing.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = -1) {
    Recorder& rec = Recorder::instance();
    if (!rec.enabled()) return;
    auto& stack = detail::open_stack();
    span_.name = name;
    span_.id = rec.next_id();
    span_.parent = stack.empty() ? -1 : stack.back();
    span_.request = request;
    span_.tid = detail::thread_index();
    stack.push_back(span_.id);
    active_ = true;
    span_.start_ns = now_ns();
  }
  ~Scope() {
    if (!active_) return;
    span_.end_ns = now_ns();
    detail::open_stack().pop_back();
    Recorder::instance().add(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Per-name totals: count, summed duration, and summed self time (the
/// span's duration minus the durations of its direct children).
struct NameTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  std::map<std::int64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& s : spans) {
    NameTotals& t = totals[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - children) / 1e6;
  }
  return totals;
}

}  // namespace qpinn_bench::trace

#ifndef XVR_OBS_TRACE_H_
#define XVR_OBS_TRACE_H_

// Lightweight per-call trace spans for the serving path.
//
// A Trace is a fixed-size ring buffer of completed spans owned by one
// ExecutionContext (one query at a time, never shared between threads), so
// recording a span is two steady-clock reads and one array store — no
// allocation, no locking. Stage code brackets its work with XVR_SPAN (or a
// named ScopedSpan when it must end before its scope does); after the
// query the pipeline derives the call's AnswerStats timings from the
// retained spans and rolls them up into the engine's MetricsRegistry
// latency histograms, one histogram per span name ("plan.filter" ->
// xvr.stage.plan.filter). The ring is the only clock of the serving path.
//
// Span names must be string literals (the ring stores the pointer, not a
// copy). Spans are recorded on completion, so the ring holds children
// before their parents; `depth` reconstructs the nesting. When a query
// completes more than kCapacity spans the ring wraps and the oldest
// records are dropped from the roll-up — total_recorded() vs size() makes
// the drop visible.
//
// A null Trace* is legal everywhere: the span reads no clock and records
// nothing.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace xvr {

// Nanoseconds on the steady clock; the time base of every span and
// latency histogram.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One completed span. `name` points at a string literal.
struct SpanRecord {
  const char* name = nullptr;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
  uint16_t depth = 0;  // nesting depth at the time the span opened
};

// The per-ExecutionContext span ring. Not thread-safe: exactly one query
// (one thread) writes it at a time.
class Trace {
 public:
  static constexpr size_t kCapacity = 64;

  void Clear() {
    total_ = 0;
    depth_ = 0;
  }

  // Opens a span: returns its depth and deepens the nesting.
  int BeginSpan() { return depth_++; }
  // Closes the innermost open span.
  void EndSpan() {
    if (depth_ > 0) {
      --depth_;
    }
  }

  void Record(const char* name, int64_t start_nanos, int64_t duration_nanos,
              uint16_t depth) {
    ring_[total_ % kCapacity] =
        SpanRecord{name, start_nanos, duration_nanos, depth};
    ++total_;
  }

  // Retained records (at most kCapacity, oldest dropped first).
  size_t size() const { return total_ < kCapacity ? total_ : kCapacity; }
  // Every span ever recorded since Clear(), including dropped ones.
  uint64_t total_recorded() const { return total_; }
  int open_depth() const { return depth_; }

  // The i-th retained record, oldest first (0 <= i < size()).
  const SpanRecord& record(size_t i) const {
    const size_t oldest = total_ < kCapacity ? 0 : total_ % kCapacity;
    return ring_[(oldest + i) % kCapacity];
  }

 private:
  std::array<SpanRecord, kCapacity> ring_{};
  uint64_t total_ = 0;
  int depth_ = 0;
};

// RAII span. Measures from construction to Stop (or destruction) and
// records into the trace; without a trace it does nothing at all.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name) : trace_(trace), name_(name) {
    if (trace_ != nullptr) {
      depth_ = static_cast<uint16_t>(trace_->BeginSpan());
      start_nanos_ = MonotonicNanos();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { Stop(); }

  // Ends the span now (recording it). Idempotent.
  void Stop() {
    if (trace_ == nullptr) {
      return;
    }
    trace_->EndSpan();
    trace_->Record(name_, start_nanos_, MonotonicNanos() - start_nanos_,
                   depth_);
    trace_ = nullptr;
  }

 private:
  Trace* trace_;
  const char* name_;
  int64_t start_nanos_ = 0;
  uint16_t depth_ = 0;
};

// Anonymous scope-timing span: XVR_SPAN(&ctx->trace, "execute.join").
#define XVR_SPAN_CONCAT_INNER(a, b) a##b
#define XVR_SPAN_CONCAT(a, b) XVR_SPAN_CONCAT_INNER(a, b)
#define XVR_SPAN(trace, name) \
  ::xvr::ScopedSpan XVR_SPAN_CONCAT(xvr_span_, __LINE__)((trace), (name))

}  // namespace xvr

#endif  // XVR_OBS_TRACE_H_

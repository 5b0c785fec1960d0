#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Measurement helpers of the benchmark driver: quantiles with the
// tail-sample rule, the seeded Zipf sampler, the outcome tally and the
// span log with its self-time roll-up. Header-only so the self-test
// exercises exactly the code the driver runs.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Quantiles
// ---------------------------------------------------------------------------

// Samples strictly above the nearest-rank q-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// A percentile is reported only with at least this many samples beyond it.
inline constexpr size_t kMinTailSamples = 10;

inline bool EnoughTail(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTailSamples;
}

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

template <typename T>
double Mean(const std::vector<T>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (const T v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// Which of `windows` equal slices of [start, start + span) holds time
// `at`; times before the start land in the first slice, times at or past
// the end in the last. The driver reports the median over windows of each
// windowed figure, so a host stall that spoils one window does not move
// the result.
inline size_t WindowOf(int64_t at, int64_t start, int64_t span, int windows) {
  const int64_t offset = std::max<int64_t>(0, at - start);
  const int64_t w = span > 0 ? offset * windows / span : 0;
  return static_cast<size_t>(std::min<int64_t>(w, windows - 1));
}

// ---------------------------------------------------------------------------
// Zipf sampler
// ---------------------------------------------------------------------------

// Ranks 0..n-1 with P(rank k) proportional to 1 / (k + 1)^exponent, drawn
// by inverse CDF from xvr::Rng so a seed fixes the whole sequence.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  size_t Sample(xvr::Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

  // Probability mass of the k most popular ranks.
  double HeadMass(size_t k) const {
    if (k == 0) {
      return 0;
    }
    return cdf_[std::min(k, cdf_.size()) - 1];
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Outcome tally
// ---------------------------------------------------------------------------

// Every attempted request lands in exactly one class. NOT_ANSWERABLE is a
// refusal, never a client error; a correct answer past the workload's
// latency limit is still kAnswered and is counted again in `late`.
enum class Outcome : int {
  kAnswered = 0,  // correct answer
  kRefused,       // NOT_ANSWERABLE (engine status or HTTP 422 with that code)
  kDeadline,      // DEADLINE_EXCEEDED / HTTP 504
  kCancelled,     // CANCELLED / HTTP 499
  kShed,          // HTTP 503
  kHttpError,     // any other 4xx/5xx
  kEngineError,   // any other non-OK engine status
  kWrong,         // answered, but differs from the ground truth
  kUnanswered,    // transport failure: no response at all
  kCount,
};

inline constexpr size_t kNumOutcomes = static_cast<size_t>(Outcome::kCount);

inline const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kAnswered: return "answered";
    case Outcome::kRefused: return "refused";
    case Outcome::kDeadline: return "deadline";
    case Outcome::kCancelled: return "cancelled";
    case Outcome::kShed: return "shed";
    case Outcome::kHttpError: return "http_error";
    case Outcome::kEngineError: return "engine_error";
    case Outcome::kWrong: return "wrong";
    case Outcome::kUnanswered: return "unanswered";
    case Outcome::kCount: break;
  }
  return "?";
}

// Outcome of a non-OK engine status.
inline Outcome ClassifyStatus(xvr::StatusCode code) {
  switch (code) {
    case xvr::StatusCode::kNotAnswerable: return Outcome::kRefused;
    case xvr::StatusCode::kDeadlineExceeded: return Outcome::kDeadline;
    case xvr::StatusCode::kCancelled: return Outcome::kCancelled;
    default: return Outcome::kEngineError;
  }
}

// Outcome of a non-200 HTTP response; `error_code` is the body's "error".
inline Outcome ClassifyHttp(int status, const std::string& error_code) {
  if (status == 422 && error_code == "NOT_ANSWERABLE") {
    return Outcome::kRefused;
  }
  if (status == 504) return Outcome::kDeadline;
  if (status == 499) return Outcome::kCancelled;
  if (status == 503) return Outcome::kShed;
  return Outcome::kHttpError;
}

struct Tally {
  std::array<uint64_t, kNumOutcomes> counts{};
  uint64_t late = 0;

  void Add(Outcome outcome) { ++counts[static_cast<size_t>(outcome)]; }
  uint64_t Count(Outcome outcome) const {
    return counts[static_cast<size_t>(outcome)];
  }
  void Merge(const Tally& other) {
    for (size_t i = 0; i < kNumOutcomes; ++i) {
      counts[i] += other.counts[i];
    }
    late += other.late;
  }
  uint64_t attempted() const {
    uint64_t total = 0;
    for (uint64_t c : counts) {
      total += c;
    }
    return total;
  }
  // Correct answers within the latency limit.
  uint64_t good() const { return Count(Outcome::kAnswered) - late; }
  // Everything that is neither a correct answer nor a refusal.
  uint64_t errors() const {
    return attempted() - Count(Outcome::kAnswered) - Count(Outcome::kRefused);
  }
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// One timed interval. `name` points at a string literal (the benchmark's
// own names or the program's trace names, which are literals too).
struct Span {
  const char* name = nullptr;
  int64_t start = 0;  // steady-clock nanoseconds
  int64_t end = 0;
  int32_t parent = -1;  // index into the same request's span list
  uint64_t request = 0;
};

// Sets each span's parent to the innermost span whose interval contains
// it. Spans of one request must nest or be disjoint (they come from one
// thread's call stack); among equal intervals the one listed first is the
// outer one. Returns the spans in nesting order (parents before children).
inline std::vector<Span> NestSpans(std::vector<Span> spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.end > b.end;
                   });
  std::vector<int32_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    // Sorted by start, so the top contains span i iff it ends no earlier
    // and, unless both start together, i does not begin where it ends
    // (a zero-length span on a boundary belongs to the enclosing span).
    while (!stack.empty()) {
      const Span& top = spans[static_cast<size_t>(stack.back())];
      if (top.end >= spans[i].end &&
          (top.end != spans[i].start || top.start == spans[i].start)) {
        break;
      }
      stack.pop_back();
    }
    spans[i].parent = stack.empty() ? -1 : stack.back();
    stack.push_back(static_cast<int32_t>(i));
  }
  return spans;
}

// Self time of every span: its duration minus the length of the union of
// its direct children's intervals, clipped to its own interval.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, spans[i].end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// Per-name totals over many requests.
struct SpanTotals {
  int64_t self_nanos = 0;
  int64_t duration_nanos = 0;
  uint64_t count = 0;
};

class SpanRollup {
 public:
  // Nests one request's spans, adds their self times and records them.
  // Counts a violation when a child's self time exceeds its parent's
  // duration or a child sticks out of its parent.
  void AddRequest(std::vector<Span> spans) {
    spans = NestSpans(std::move(spans));
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& totals = totals_[spans[i].name];
      totals.self_nanos += self[i];
      totals.duration_nanos += spans[i].end - spans[i].start;
      ++totals.count;
      if (self[i] < 0) {
        ++violations_;
      }
      if (spans[i].parent >= 0) {
        const Span& parent = spans[static_cast<size_t>(spans[i].parent)];
        if (self[i] > parent.end - parent.start ||
            spans[i].start < parent.start || spans[i].end > parent.end) {
          ++violations_;
        }
      }
    }
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }

  void Merge(const SpanRollup& other) {
    for (const auto& [name, t] : other.totals_) {
      SpanTotals& mine = totals_[name];
      mine.self_nanos += t.self_nanos;
      mine.duration_nanos += t.duration_nanos;
      mine.count += t.count;
    }
    violations_ += other.violations_;
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  SpanTotals Get(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? SpanTotals{} : it->second;
  }
  uint64_t violations() const { return violations_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::map<std::string, SpanTotals> totals_;
  std::vector<Span> spans_;
  uint64_t violations_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

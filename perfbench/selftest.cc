// Self-test of the benchmark's measurement helpers (stats.h): quantiles and
// the tail-sample rule, span self times, the Zipf sampler and the outcome
// tally. Prints one line per failed check and exits nonzero on any.
//
//   perfbench_selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define SELFTEST_CHECK(cond)                                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

bool Near(double a, double b, double tolerance) {
  return std::fabs(a - b) <= tolerance;
}

void TestQuantiles() {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  SELFTEST_CHECK(Quantile(values, 0.50) == 50);
  SELFTEST_CHECK(Quantile(values, 0.99) == 99);
  SELFTEST_CHECK(Quantile(values, 1.0) == 100);
  SELFTEST_CHECK(Quantile(values, 0.0) == 1);
  SELFTEST_CHECK(Quantile(std::vector<double>{}, 0.5) == 0);
  SELFTEST_CHECK(Quantile(std::vector<double>{7}, 0.99) == 7);

  // Ten samples beyond the percentile: p99 needs 1000, p95 needs 200.
  SELFTEST_CHECK(SamplesBeyond(1000, 0.99) == 10);
  SELFTEST_CHECK(EnoughTail(1000, 0.99));
  SELFTEST_CHECK(!EnoughTail(999, 0.99));
  SELFTEST_CHECK(EnoughTail(200, 0.95));
  SELFTEST_CHECK(!EnoughTail(199, 0.95));
  SELFTEST_CHECK(SamplesBeyond(0, 0.5) == 0);

  SELFTEST_CHECK(Quantile(std::vector<float>{3, 1, 2}, 0.5) == 2);

  // Windows [100,110) [110,120) [120,130); outside times clamp to the ends.
  SELFTEST_CHECK(WindowOf(100, 100, 30, 3) == 0);
  SELFTEST_CHECK(WindowOf(109, 100, 30, 3) == 0);
  SELFTEST_CHECK(WindowOf(110, 100, 30, 3) == 1);
  SELFTEST_CHECK(WindowOf(125, 100, 30, 3) == 2);
  SELFTEST_CHECK(WindowOf(130, 100, 30, 3) == 2);
  SELFTEST_CHECK(WindowOf(90, 100, 30, 3) == 0);
  SELFTEST_CHECK(WindowOf(500, 100, 0, 3) == 0);
}

const char* Name(const std::vector<Span>& spans, int32_t index) {
  return index < 0 ? "" : spans[static_cast<size_t>(index)].name;
}

void TestNestedSelfTimes() {
  // root [0,100] > child [10,40] > grandchild [20,30], listed out of order
  // the way the driver lists them (wrappers first, program spans after).
  std::vector<Span> spans = NestSpans({{"grandchild", 20, 30, -1, 1},
                                       {"root", 0, 100, -1, 1},
                                       {"child", 10, 40, -1, 1}});
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "root") {
      SELFTEST_CHECK(self[i] == 70);
      SELFTEST_CHECK(spans[i].parent == -1);
    } else if (name == "child") {
      SELFTEST_CHECK(self[i] == 20);
      SELFTEST_CHECK(std::string(Name(spans, spans[i].parent)) == "root");
    } else {
      SELFTEST_CHECK(self[i] == 10);
      SELFTEST_CHECK(std::string(Name(spans, spans[i].parent)) == "child");
    }
  }
}

void TestBackToBackSelfTimes() {
  // Two children sharing a boundary, plus a zero-length one at the end.
  std::vector<Span> spans = NestSpans({{"root", 0, 100, -1, 1},
                                       {"a", 10, 40, -1, 1},
                                       {"b", 40, 70, -1, 1},
                                       {"c", 70, 70, -1, 1}});
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "root") {
      SELFTEST_CHECK(self[i] == 40);
    } else {
      SELFTEST_CHECK(std::string(Name(spans, spans[i].parent)) == "root");
      SELFTEST_CHECK(self[i] == (name == "c" ? 0 : 30));
    }
  }
}

void TestEqualIntervalWrapper() {
  // A benchmark wrapper and the program span it brackets can share both
  // clock reads; the one listed first is the parent.
  std::vector<Span> spans =
      NestSpans({{"wrapper", 5, 50, -1, 1}, {"inner", 5, 50, -1, 1}});
  SELFTEST_CHECK(std::string(spans[0].name) == "wrapper");
  SELFTEST_CHECK(spans[1].parent == 0);
  const std::vector<int64_t> self = SelfTimes(spans);
  SELFTEST_CHECK(self[0] == 0);
  SELFTEST_CHECK(self[1] == 45);
}

void TestRollup() {
  SpanRollup rollup;
  rollup.AddRequest({{"request", 0, 100, -1, 1},
                     {"plan", 10, 30, -1, 1},
                     {"execute", 30, 90, -1, 1},
                     {"execute.refine", 40, 60, -1, 1}});
  rollup.AddRequest({{"request", 200, 260, -1, 2}, {"plan", 210, 220, -1, 2}});
  SELFTEST_CHECK(rollup.violations() == 0);
  SELFTEST_CHECK(rollup.Get("request").count == 2);
  SELFTEST_CHECK(rollup.Get("request").self_nanos == 20 + 50);
  SELFTEST_CHECK(rollup.Get("plan").self_nanos == 30);
  SELFTEST_CHECK(rollup.Get("execute").self_nanos == 40);
  SELFTEST_CHECK(rollup.Get("execute.refine").duration_nanos == 20);
  SELFTEST_CHECK(rollup.spans().size() == 6);
  // No child's self time exceeds its parent's span.
  for (const Span& s : rollup.spans()) {
    if (s.parent >= 0) {
      SELFTEST_CHECK(s.end - s.start <= 100);
    }
  }
  SELFTEST_CHECK(rollup.Get("missing").count == 0);
}

void TestZipf() {
  const ZipfSampler zipf(256, 1.0);
  double harmonic = 0;
  for (int k = 1; k <= 256; ++k) harmonic += 1.0 / k;
  SELFTEST_CHECK(Near(zipf.HeadMass(1), 1 / harmonic, 1e-12));
  SELFTEST_CHECK(Near(zipf.HeadMass(4), (1 + 0.5 + 1.0 / 3 + 0.25) / harmonic,
                      1e-12));
  SELFTEST_CHECK(Near(zipf.HeadMass(256), 1.0, 1e-12));
  SELFTEST_CHECK(zipf.HeadMass(0) == 0);

  xvr::Rng rng(11);
  std::vector<int> hits(256);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const size_t rank = zipf.Sample(&rng);
    SELFTEST_CHECK(rank < 256);
    ++hits[rank];
  }
  const double head =
      static_cast<double>(hits[0] + hits[1] + hits[2] + hits[3]) / draws;
  SELFTEST_CHECK(Near(head, zipf.HeadMass(4), 0.01));
  SELFTEST_CHECK(
      Near(static_cast<double>(hits[0]) / draws, zipf.HeadMass(1), 0.01));

  // The seed fixes the sequence.
  xvr::Rng a(5);
  xvr::Rng b(5);
  bool same = true;
  for (int i = 0; i < 1000; ++i) {
    same = same && zipf.Sample(&a) == zipf.Sample(&b);
  }
  SELFTEST_CHECK(same);
}

void TestTally() {
  using xvr::StatusCode;
  SELFTEST_CHECK(ClassifyStatus(StatusCode::kNotAnswerable) ==
                 Outcome::kRefused);
  SELFTEST_CHECK(ClassifyStatus(StatusCode::kDeadlineExceeded) ==
                 Outcome::kDeadline);
  SELFTEST_CHECK(ClassifyStatus(StatusCode::kCancelled) ==
                 Outcome::kCancelled);
  SELFTEST_CHECK(ClassifyStatus(StatusCode::kResourceExhausted) ==
                 Outcome::kEngineError);
  SELFTEST_CHECK(ClassifyStatus(StatusCode::kInternal) ==
                 Outcome::kEngineError);
  // 422 is a refusal only when the engine said NOT_ANSWERABLE.
  SELFTEST_CHECK(ClassifyHttp(422, "NOT_ANSWERABLE") == Outcome::kRefused);
  SELFTEST_CHECK(ClassifyHttp(422, "RESOURCE_EXHAUSTED") ==
                 Outcome::kHttpError);
  SELFTEST_CHECK(ClassifyHttp(503, "") == Outcome::kShed);
  SELFTEST_CHECK(ClassifyHttp(504, "DEADLINE_EXCEEDED") == Outcome::kDeadline);
  SELFTEST_CHECK(ClassifyHttp(499, "CANCELLED") == Outcome::kCancelled);
  SELFTEST_CHECK(ClassifyHttp(400, "BAD_REQUEST") == Outcome::kHttpError);
  SELFTEST_CHECK(ClassifyHttp(500, "INTERNAL") == Outcome::kHttpError);

  Tally tally;
  for (int i = 0; i < 6; ++i) tally.Add(Outcome::kAnswered);
  tally.late = 1;
  tally.Add(Outcome::kRefused);
  tally.Add(Outcome::kRefused);
  tally.Add(Outcome::kWrong);
  tally.Add(Outcome::kShed);
  tally.Add(Outcome::kUnanswered);
  SELFTEST_CHECK(tally.attempted() == 11);
  SELFTEST_CHECK(tally.good() == 5);
  SELFTEST_CHECK(tally.errors() == 3);  // wrong + shed + unanswered
  SELFTEST_CHECK(tally.Count(Outcome::kRefused) == 2);

  Tally other;
  other.Add(Outcome::kDeadline);
  tally.Merge(other);
  SELFTEST_CHECK(tally.attempted() == 12);
  SELFTEST_CHECK(tally.errors() == 4);
  for (size_t i = 0; i < kNumOutcomes; ++i) {
    SELFTEST_CHECK(std::string(OutcomeName(static_cast<Outcome>(i))) != "?");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestNestedSelfTimes();
  perfbench::TestBackToBackSelfTimes();
  perfbench::TestEqualIntervalWrapper();
  perfbench::TestRollup();
  perfbench::TestZipf();
  perfbench::TestTally();
  if (perfbench::failures > 0) {
    std::printf("%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test passed\n");
  return 0;
}

#ifndef XVR_BENCH_BENCH_COMMON_H_
#define XVR_BENCH_BENCH_COMMON_H_

// Shared setup for the benchmark binaries reproducing the paper's §VI.
//
// The §VI-A setup (Figs. 8/9, Table III): an XMark-like document with 1000
// materialized positive views (max_depth 4, p_wild = p_desc = 0.2,
// num_pred = 1, num_nestedpath = 1; 128 KB per-view cap) and the four test
// queries Q1..Q4.
//
// The §VI-B setup (Figs. 10/11/12): view sets V1..V8 with 1000..8000
// generated view patterns (num_nestedpath = 2), indexed without
// materialization.
//
// Environment knobs (all optional):
//   XVR_BENCH_VIEWS     number of materialized views for §VI-A (default 1000)
//   XVR_BENCH_SCALE     document scale (default 12.0)
//   XVR_BENCH_TRIALS    A/B trial pairs for RunInterleavedAB (default 9)
//   XVR_BENCH_JSON_DIR  where BenchJson writes BENCH_<name>.json (default .)
//
// It also provides the statistically honest A/B harness: fixed-work
// interleaved trials summarized as median with interquartile range, and a
// machine-readable JSON emitter so CI can diff runs against a committed
// baseline (scripts/bench_diff.py).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "pattern/xpath_parser.h"
#include "workload/query_gen.h"
#include "workload/workloads.h"
#include "workload/xmark.h"

namespace xvr_bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtod(v, nullptr);
}

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoul(v, nullptr, 10);
}

// --- §VI-A: materialized setup ---------------------------------------------

inline xvr::PaperSetup& QuerySetup() {
  static xvr::PaperSetup* setup = [] {
    xvr::XmarkOptions doc;
    doc.scale = EnvDouble("XVR_BENCH_SCALE", 12.0);
    doc.seed = 42;
    auto* s = new xvr::PaperSetup(xvr::BuildPaperSetup(
        doc, EnvSize("XVR_BENCH_VIEWS", 1000), /*seed=*/20080407));
    return s;
  }();
  return *setup;
}

// --- §VI-B: pattern-only view sets V1..V8 -----------------------------------

struct FilterSetup {
  xvr::XmlTree doc;
  // 8000 generated views; V_i = the first i*1000 of them.
  std::vector<xvr::TreePattern> views;
  std::vector<xvr::TreePattern> queries;  // Q1..Q4 (Table III)
  std::vector<std::string> query_names;
};

inline FilterSetup& ViewScalingSetup() {
  static FilterSetup* setup = [] {
    auto* s = new FilterSetup();
    xvr::XmarkOptions doc;
    doc.scale = 0.5;
    doc.seed = 42;
    s->doc = xvr::GenerateXmark(doc);
    xvr::QueryGenOptions gen;
    gen.max_depth = 4;
    gen.prob_wild = 0.2;
    gen.prob_desc = 0.2;
    gen.num_pred = 1;
    gen.num_nestedpath = 2;
    s->views = xvr::GenerateViewSet(s->doc, 8000, gen, /*seed=*/7);
    for (const xvr::TableIIIQuery& tq : xvr::TableIII()) {
      auto q = xvr::ParseXPath(tq.xpath, &s->doc.labels());
      s->queries.push_back(std::move(q).value());
      s->query_names.push_back(tq.name);
    }
    return s;
  }();
  return *setup;
}

// A VFilter over the first `count` views of the scaling setup.
inline std::unique_ptr<xvr::VFilter> BuildFilter(
    size_t count, xvr::VFilterOptions options = {}) {
  FilterSetup& setup = ViewScalingSetup();
  auto filter = std::make_unique<xvr::VFilter>(options);
  const size_t n = std::min(count, setup.views.size());
  for (size_t i = 0; i < n; ++i) {
    filter->AddView(static_cast<int32_t>(i), setup.views[i]);
  }
  return filter;
}

// --- statistically honest A/B comparisons ----------------------------------
//
// A single timed run of A followed by a single timed run of B is not a
// measurement: whichever side runs later inherits warmer caches, thermal
// throttling and whatever else the machine was doing. The harness below
// runs FIXED WORK per trial, strictly interleaves the two sides (A B A B
// ...) so drift lands on both equally, and reports medians with the
// interquartile range instead of best-of-N. A claimed speedup is honest
// when the two IQRs do not overlap.

struct TrialStats {
  double median = 0;
  double q25 = 0;
  double q75 = 0;
  size_t trials = 0;
};

// Linear-interpolation quantile of an ascending-sorted sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

inline TrialStats Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TrialStats s;
  s.trials = samples.size();
  s.median = SortedQuantile(samples, 0.5);
  s.q25 = SortedQuantile(samples, 0.25);
  s.q75 = SortedQuantile(samples, 0.75);
  return s;
}

struct ABComparison {
  TrialStats a;        // side-A rate: work_units / elapsed, per trial
  TrialStats b;        // side-B rate
  TrialStats speedup;  // per-trial-pair ratio rate_a / rate_b
  // The honesty gate: the two sides' IQRs are disjoint — one side's slow
  // quartile still beats the other's fast quartile. The medians say which
  // side wins.
  bool NonOverlappingIqr() const { return a.q25 > b.q75 || b.q25 > a.q75; }
};

// Runs `trials` interleaved pairs (one untimed warmup pair first). Each
// closure performs the same fixed amount of work and returns its elapsed
// seconds; `work_units` is that amount (e.g. queries per run), so rates
// come out in units/sec. The speedup distribution pairs trial i of A with
// trial i of B — adjacent in time, so a machine-wide hiccup cancels out of
// the ratio instead of counting against one side.
template <typename FnA, typename FnB>
inline ABComparison RunInterleavedAB(size_t trials, double work_units,
                                     FnA&& run_a, FnB&& run_b) {
  run_a();
  run_b();
  std::vector<double> a_rates, b_rates, ratios;
  a_rates.reserve(trials);
  b_rates.reserve(trials);
  ratios.reserve(trials);
  for (size_t t = 0; t < trials; ++t) {
    const double sa = run_a();
    const double sb = run_b();
    const double ra = sa > 0 ? work_units / sa : 0;
    const double rb = sb > 0 ? work_units / sb : 0;
    a_rates.push_back(ra);
    b_rates.push_back(rb);
    ratios.push_back(rb > 0 ? ra / rb : 0);
  }
  ABComparison out;
  out.a = Summarize(std::move(a_rates));
  out.b = Summarize(std::move(b_rates));
  out.speedup = Summarize(std::move(ratios));
  return out;
}

// Machine-readable results: one JSON file per bench binary, written to
// $XVR_BENCH_JSON_DIR (default: the working directory) as
// BENCH_<name>.json. The schema is flat on purpose — scripts/bench_diff.py
// and the committed baselines under bench/baselines/ parse it.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void AddAB(const std::string& row_name, const std::string& a_label,
             const std::string& b_label, const std::string& units,
             const ABComparison& ab) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"units\": \"%s\", \"trials\": %zu,\n"
        "     \"a\": {\"label\": \"%s\", \"median\": %.6g, \"q25\": %.6g, "
        "\"q75\": %.6g},\n"
        "     \"b\": {\"label\": \"%s\", \"median\": %.6g, \"q25\": %.6g, "
        "\"q75\": %.6g},\n"
        "     \"speedup\": {\"median\": %.6g, \"q25\": %.6g, \"q75\": %.6g},\n"
        "     \"iqr_separated\": %s}",
        row_name.c_str(), units.c_str(), ab.speedup.trials, a_label.c_str(),
        ab.a.median, ab.a.q25, ab.a.q75, b_label.c_str(), ab.b.median,
        ab.b.q25, ab.b.q75, ab.speedup.median, ab.speedup.q25, ab.speedup.q75,
        ab.NonOverlappingIqr() ? "true" : "false");
    rows_.emplace_back(buf);
  }

  // Writes the file and returns its path ("" on I/O failure).
  std::string Write() const {
    const char* dir = std::getenv("XVR_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir != nullptr ? dir : ".") + "/BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return "";
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 bench_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return path;
  }

 private:
  std::string bench_;
  std::vector<std::string> rows_;
};

}  // namespace xvr_bench

#endif  // XVR_BENCH_BENCH_COMMON_H_

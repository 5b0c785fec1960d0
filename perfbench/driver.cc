// xvr_perfbench — the repository benchmark driver.
//
//   xvr_perfbench --workload views_hot|cold_mix|serve_churn --seed N
//                 --seconds S --trace 0|1 [--scratch DIR] [--corrupt-answer]
//
// One process builds the paper's setup (XMark-like document, 1000
// materialized views with the Table III companions, warmed base indexes),
// generates the workload's inputs from --seed, computes their ground truth
// with the base-data evaluator outside every timed region, then drives the
// engine for --seconds and checks every answer. See README.md for the
// workloads, the metric -> layer -> workload map and how to read the
// traced roll-up.
//
// --trace 0 measures the end-to-end metrics. --trace 1 spends half of the
// run untraced and half traced (spans bracket the calls into each layer's
// public entry points), then runs fixed-size probes, and reports the
// per-layer metrics. The last stdout line is one JSON object; the process
// exits 1 when any answer differed from the ground truth.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "obs/trace.h"
#include "pattern/minimize.h"
#include "pattern/pattern_writer.h"
#include "stats.h"
#include "storage/materializer.h"
#include "workload/query_gen.h"
#include "workload/workloads.h"
#include "workload/xmark.h"

namespace perfbench {
namespace {

using xvr::AnswerStrategy;
using xvr::BaseStrategy;
using xvr::DeweyCode;
using xvr::Engine;
using xvr::TreePattern;

// ---------------------------------------------------------------------------
// Fixed parameters. BENCHMARK.json and README.md state the same values.
// ---------------------------------------------------------------------------

// The database: one XMark-like document and the paper's view set. Fixed,
// so --seed varies the traffic, not the data the traffic runs against.
constexpr double kXmarkScale = 4.0;
constexpr uint64_t kDocSeed = 42;
constexpr uint64_t kViewSeed = 7;
constexpr size_t kNumViews = 1000;
// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupRepeats = 3;

// views_hot / serve_churn pool: Q1..Q4 on Zipf ranks 1..4, then generated
// HV-answerable queries. Smaller than the plan cache (1024 plans). The pool
// is fixed (kPoolSeed) so every seed measures the same hot set; --seed
// drives the Zipf draws.
constexpr size_t kPoolSize = 256;
constexpr uint64_t kPoolSeed = 3;
constexpr double kZipfExponent = 1.0;
constexpr int kHotThreads = 2;

// cold_mix: a cycle over this many distinct generated queries. Twice the
// plan-cache capacity, so an LRU cache never holds a query when it recurs.
// The set is fixed (kStreamSeed); --seed shuffles its order.
constexpr size_t kColdStreamSize = 2048;
constexpr uint64_t kStreamSeed = 5;

// serve_churn: open loop at a fixed offered rate over keep-alive
// connections, against a server with kServeWorkers workers, and one
// catalog publication (AddView or RemoveView) every kPublishPeriodMicros.
constexpr int kServeWorkers = 2;
constexpr int kServeConnections = 2;
constexpr double kServeRatePerSecond = 1200;
constexpr int64_t kPublishPeriodMicros = 40000;

// End-to-end figures are medians over this many equal time windows.
constexpr int kWindows = 20;

// Latency limits for goodput (correct answers within the limit).
constexpr double kHotLimitMicros = 5000;
constexpr double kColdLimitMicros = 5000;
constexpr double kServeLimitMicros = 10000;

// Traced-run probes.
constexpr size_t kProbeRequests = 256;
constexpr size_t kReplayRequests = 1024;
constexpr int kProbePublications = 20;
constexpr int kStrategyRepeats = 9;

// The mutator's fixed view list (serve_churn, and the publish probe of the
// other workloads). None is in the setup catalog; several overlap pool
// queries, so publications do retire cached plans.
const char* const kChurnViews[] = {
    "/site/people/person[address/city]/emailaddress",
    "//open_auction[initial]/bidder/increase",
    "/site/closed_auctions/closed_auction[buyer]/price",
    "//item[payment]/name",
    "/site/categories/category/name",
    "//person[profile/education]/name",
    "/site/open_auctions/open_auction[annotation/author]/current",
    "//closed_auction[annotation]/date",
};

int64_t Now() { return xvr::MonotonicNanos(); }

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }
double Micros(int64_t nanos) { return static_cast<double>(nanos) / 1e3; }

std::chrono::steady_clock::time_point AtNanos(int64_t nanos) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(nanos));
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct SetupTimes {
  double xmark_s = 0;
  double views_s = 0;
  double base_warm_s = 0;
  double total_s = 0;
};

xvr::QueryGenOptions PaperGenOptions() {
  xvr::QueryGenOptions options;  // §VI: the YFilter generator's knobs
  options.max_depth = 4;
  options.prob_wild = 0.2;
  options.prob_desc = 0.2;
  options.num_pred = 1;
  options.num_nestedpath = 1;
  return options;
}

// The §VI-A setup (what xvr::BuildPaperSetup builds), phase by phase so each
// phase is timed on its own, plus the catalog WAL at `wal_path`.
std::unique_ptr<Engine> BuildEngine(const std::string& wal_path,
                                    SetupTimes* times) {
  const int64_t t0 = Now();
  xvr::XmarkOptions xmark;
  xmark.seed = kDocSeed;
  xmark.scale = kXmarkScale;
  xvr::XmlTree doc = xvr::GenerateXmark(xmark);
  const int64_t t1 = Now();

  auto engine = std::make_unique<Engine>(std::move(doc));
  std::unordered_set<std::string> seen;
  size_t materialized = 0;
  for (const xvr::TableIIIQuery& tq : xvr::TableIII()) {
    for (const std::string& xpath : tq.companion_views) {
      xvr::Result<TreePattern> view = engine->Parse(xpath);
      if (!view.ok()) {
        Die("companion view " + xpath + ": " + view.status().ToString());
      }
      seen.insert(view->CanonicalKey());
      if (!engine->AddView(std::move(view).value()).ok()) {
        Die("companion view " + xpath + " did not materialize");
      }
      ++materialized;
    }
  }
  const xvr::QueryGenerator generator(engine->doc(), PaperGenOptions());
  xvr::Rng rng(kViewSeed);
  for (size_t attempts = 0;
       materialized < kNumViews && attempts < kNumViews * 400; ++attempts) {
    TreePattern candidate = generator.Generate(&rng);
    if (!seen.insert(candidate.CanonicalKey()).second) {
      continue;
    }
    if (engine->AddView(std::move(candidate)).ok()) {
      ++materialized;
    }
  }
  if (materialized < kNumViews) Die("could not materialize the view set");
  const int64_t t2 = Now();

  engine->base().Warm(BaseStrategy::kNodeIndex);
  engine->base().Warm(BaseStrategy::kFullIndex);
  const int64_t t3 = Now();

  std::filesystem::remove(wal_path);
  const xvr::Status wal = engine->EnableCatalogWal(wal_path);
  if (!wal.ok()) Die("EnableCatalogWal: " + wal.ToString());
  const int64_t t4 = Now();

  times->xmark_s = Seconds(t1 - t0);
  times->views_s = Seconds(t2 - t1);
  times->base_warm_s = Seconds(t3 - t2);
  times->total_s = Seconds(t4 - t0);
  return engine;
}

// ---------------------------------------------------------------------------
// Inputs and ground truth
// ---------------------------------------------------------------------------

struct Request {
  TreePattern pattern;
  std::string body;  // POST /query JSON
  // The ground truth as a count and a hash, so storing it for thousands of
  // requests does not show in peak_rss_mb.
  size_t truth_count = 0;
  uint64_t truth_hash = 0;
};

Request MakeRequest(TreePattern pattern, const std::string& xpath) {
  Request request;
  request.pattern = std::move(pattern);
  request.body = "{\"xpath\":";
  xvr::AppendJsonString(&request.body, xpath);
  request.body += "}";
  return request;
}

// Q1..Q4 first, then distinct generated queries HV answers today.
std::vector<Request> BuildHotPool(Engine& engine, uint64_t seed) {
  std::vector<Request> pool;
  std::unordered_set<std::string> seen;
  for (const xvr::TableIIIQuery& tq : xvr::TableIII()) {
    xvr::Result<TreePattern> query = engine.Parse(tq.xpath);
    if (!query.ok()) Die(tq.name + ": " + query.status().ToString());
    seen.insert(query->CanonicalKey());
    pool.push_back(MakeRequest(std::move(query).value(), tq.xpath));
  }
  const xvr::QueryGenerator generator(engine.doc(), PaperGenOptions());
  xvr::Rng rng(seed);
  for (size_t attempts = 0; pool.size() < kPoolSize && attempts < 200000;
       ++attempts) {
    TreePattern query = generator.Generate(&rng);
    if (!seen.insert(query.CanonicalKey()).second ||
        !engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered).ok()) {
      continue;
    }
    const std::string xpath = xvr::PatternToXPath(query, engine.labels());
    pool.push_back(MakeRequest(std::move(query), xpath));
  }
  if (pool.size() < kPoolSize) Die("could not fill the views_hot pool");
  return pool;
}

// Distinct generated queries (fixed set, kStreamSeed), not filtered for
// answerability, in an order shuffled by `seed`.
std::vector<Request> BuildColdStream(Engine& engine, uint64_t seed) {
  const xvr::QueryGenerator generator(engine.doc(), PaperGenOptions());
  xvr::Rng rng(kStreamSeed);
  std::vector<TreePattern> queries =
      generator.GenerateAccepted(kColdStreamSize, &rng, nullptr);
  if (queries.size() < kColdStreamSize) Die("could not fill the cold stream");
  xvr::Rng order(seed);
  for (size_t i = queries.size() - 1; i > 0; --i) {
    std::swap(queries[i], queries[order.NextBounded(i + 1)]);
  }
  std::vector<Request> stream;
  stream.reserve(queries.size());
  for (TreePattern& query : queries) {
    const std::string xpath = xvr::PatternToXPath(query, engine.labels());
    stream.push_back(MakeRequest(std::move(query), xpath));
  }
  return stream;
}


// FNV-1a over the components of the codes in order, with separators.
uint64_t HashCodes(const std::vector<DeweyCode>& codes) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t value) {
    hash = (hash ^ value) * 1099511628211ULL;
  };
  for (const DeweyCode& code : codes) {
    for (const uint32_t component : code.components()) {
      mix(component);
    }
    mix(UINT64_MAX);
  }
  return hash;
}

std::vector<DeweyCode> BaseCodes(const Engine& engine, const TreePattern& query,
                                 BaseStrategy strategy) {
  std::vector<DeweyCode> codes;
  for (const xvr::NodeId node : engine.base().Evaluate(query, strategy)) {
    codes.push_back(engine.doc().dewey(node));
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

// The oracle: BF answers every request; BN answers it again, and any
// disagreement between the two base-data evaluators stops the benchmark.
void ComputeGroundTruth(const Engine& engine, std::vector<Request>* requests) {
  for (Request& request : *requests) {
    const std::vector<DeweyCode> truth =
        BaseCodes(engine, request.pattern, BaseStrategy::kFullIndex);
    if (BaseCodes(engine, request.pattern, BaseStrategy::kNodeIndex) != truth) {
      Die("oracle check failed: BF and BN disagree on " + request.body);
    }
    request.truth_count = truth.size();
    request.truth_hash = HashCodes(truth);
  }
}

// ---------------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------------

// Set by --corrupt-answer: the next checked answer loses (or gains) one
// code before the comparison, which must then report it wrong.
std::atomic<bool> g_corrupt_next{false};

Outcome Compare(std::vector<DeweyCode> got, const Request& request) {
  if (g_corrupt_next.load(std::memory_order_relaxed) &&
      g_corrupt_next.exchange(false)) {
    if (got.empty()) {
      got.emplace_back();
    } else {
      got.pop_back();
    }
  }
  return got.size() == request.truth_count &&
                 HashCodes(got) == request.truth_hash
             ? Outcome::kAnswered
             : Outcome::kWrong;
}

Outcome CheckEngineAnswer(const xvr::Result<std::vector<DeweyCode>>& answer,
                          const Request& request) {
  if (!answer.ok()) {
    return ClassifyStatus(answer.status().code());
  }
  return Compare(*answer, request);
}

Outcome CheckHttpAnswer(const xvr::Result<xvr::HttpResponse>& response,
                        const Request& request) {
  if (!response.ok()) {
    return Outcome::kUnanswered;
  }
  const xvr::Result<xvr::JsonValue> json = xvr::ParseJson(response->body);
  if (response->status != 200) {
    std::string error;
    if (json.ok()) {
      if (const xvr::JsonValue* e = json->Find("error");
          e != nullptr && e->is_string()) {
        error = e->string_value;
      }
    }
    return ClassifyHttp(response->status, error);
  }
  const xvr::JsonValue* codes = json.ok() ? json->Find("codes") : nullptr;
  if (codes == nullptr || !codes->is_array()) {
    return Outcome::kWrong;
  }
  std::vector<DeweyCode> got(codes->items.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (!DeweyCode::FromString(codes->items[i].string_value, &got[i])) {
      return Outcome::kWrong;
    }
  }
  return Compare(std::move(got), request);
}

// ---------------------------------------------------------------------------
// Traced stage-level answering
// ---------------------------------------------------------------------------

// Counts read off plans and answers in the traced run.
struct StageCounts {
  uint64_t planned = 0;  // plans built, refused ones included
  uint64_t candidates = 0;
  uint64_t selected = 0;
  uint64_t covers = 0;
  uint64_t executed = 0;
  uint64_t fragments_scanned = 0;
  uint64_t after_refinement = 0;
  uint64_t join_survivors = 0;

  void Merge(const StageCounts& o) {
    planned += o.planned;
    candidates += o.candidates;
    selected += o.selected;
    covers += o.covers;
    executed += o.executed;
    fragments_scanned += o.fragments_scanned;
    after_refinement += o.after_refinement;
    join_survivors += o.join_survivors;
  }
};

// Answers like Engine::AnswerQuery (pin a snapshot, QueryPipeline::Plan,
// QueryPipeline::Execute) with a span around each call, then adopts the
// spans the pipeline left in ExecutionContext::trace.
class TracedCaller {
 public:
  explicit TracedCaller(const Engine& engine, uint64_t first_request_id)
      : engine_(engine), next_request_(first_request_id) {}

  xvr::Result<std::vector<DeweyCode>> Answer(const TreePattern& query) {
    const xvr::QueryPipeline& pipeline = engine_.pipeline();
    const uint64_t id = next_request_++;
    std::vector<Span> spans;
    spans.push_back({"request", Now(), 0, -1, id});
    ctx_.trace.Clear();
    ctx_.nfa_scratch.use_dense = true;
    ctx_.catalog = engine_.Catalog();
    bool hit = false;
    const int64_t p0 = Now();
    xvr::Result<std::shared_ptr<const xvr::QueryPlan>> plan = pipeline.Plan(
        query, AnswerStrategy::kHeuristicFiltered, &ctx_, &hit);
    spans.push_back({"QueryPipeline::Plan", p0, Now(), -1, id});
    xvr::Result<std::vector<DeweyCode>> result = plan.status();
    if (plan.ok()) {
      const xvr::QueryPlan& built = **plan;
      const int64_t e0 = Now();
      xvr::Result<xvr::QueryAnswer> answer = pipeline.Execute(built, &ctx_);
      spans.push_back({"QueryPipeline::Execute", e0, Now(), -1, id});
      if (answer.ok()) {
        ++counts_.executed;
        counts_.fragments_scanned += answer->stats.rewrite.fragments_scanned;
        counts_.after_refinement +=
            answer->stats.rewrite.fragments_after_refinement;
        counts_.join_survivors += answer->stats.rewrite.join_survivors;
        result = std::move(answer->codes);
      } else {
        result = answer.status();
      }
    }
    spans[0].end = Now();
    for (size_t i = 0; i < ctx_.trace.size(); ++i) {
      const xvr::SpanRecord& r = ctx_.trace.record(i);
      spans.push_back(
          {r.name, r.start_nanos, r.start_nanos + r.duration_nanos, -1, id});
    }
    ctx_.catalog.reset();
    rollup_.AddRequest(std::move(spans));
    return result;
  }

  SpanRollup& rollup() { return rollup_; }
  const StageCounts& counts() const { return counts_; }

 private:
  const Engine& engine_;
  xvr::ExecutionContext ctx_;
  SpanRollup rollup_;
  StageCounts counts_;
  uint64_t next_request_;
};

// ---------------------------------------------------------------------------
// Load phases
// ---------------------------------------------------------------------------

// One measured phase. Latency samples are of correct answers only; a
// refused or failed request misses the latency limit by definition.
// Samples are floats, kept per time window, so the benchmark's own buffers
// stay a small part of peak_rss_mb.
struct Phase {
  int64_t start = 0;
  // The measuring span: the requested duration for a timed phase, the
  // elapsed time for a phase bounded by a request count (whose samples
  // all land in the first window).
  double seconds = 0;
  Tally tally;
  std::array<std::vector<float>, kWindows> latency_us;
  int64_t last_done = 0;
  std::vector<float> lateness_us;
  SpanRollup rollup;
  StageCounts counts;
  // Publications (mutator or publish probe).
  std::vector<double> publish_ms;
  std::vector<double> publish_self_us;  // AddView minus MaterializeView
  std::vector<double> materialize_us;
  uint64_t publish_failures = 0;
  // Deltas of the engine's own counters over the phase.
  xvr::PlanCache::Stats cache;
  double queue_wait_sum_us = 0;
  uint64_t queue_wait_count = 0;
  double engine_sum_us = 0;
  uint64_t engine_count = 0;
  uint64_t storage_syncs = 0;
  uint64_t publishes = 0;
  std::vector<float> roundtrip_us;

  // One request issued (closed loop) or due (open loop) at `at` whose
  // outcome arrived at `done`.
  void Record(Outcome outcome, int64_t at, int64_t done, double limit_us) {
    tally.Add(outcome);
    last_done = std::max(last_done, done);
    if (outcome != Outcome::kAnswered) {
      return;
    }
    const double latency = Micros(done - at);
    const int64_t span = static_cast<int64_t>(seconds * 1e9);
    latency_us[WindowOf(at, start, span, kWindows)].push_back(
        static_cast<float>(latency));
    if (latency > limit_us) {
      ++tally.late;
    }
  }

  // Correct answers within the limit per second, from the phase start to
  // the last outcome.
  double Goodput() const { return Rate(tally.good()); }
  double Rate(uint64_t count) const {
    return last_done > start ? count / Seconds(last_done - start) : 0;
  }

  void Absorb(Phase&& o) {
    tally.Merge(o.tally);
    const auto append = [](auto* to, const auto& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    for (int w = 0; w < kWindows; ++w) {
      append(&latency_us[w], o.latency_us[w]);
    }
    last_done = std::max(last_done, o.last_done);
    append(&lateness_us, o.lateness_us);
    append(&roundtrip_us, o.roundtrip_us);
    rollup.Merge(o.rollup);
    counts.Merge(o.counts);
  }
};

// Snapshot of the engine counters a phase reports as deltas.
struct EngineCounters {
  xvr::PlanCache::Stats cache;
  xvr::ServerStats server;

  static EngineCounters Take(const Engine& engine) {
    return {engine.plan_cache()->stats(), engine.ServerStats()};
  }
};

void RecordDeltas(const EngineCounters& before, const EngineCounters& after,
                  Phase* phase) {
  const xvr::PlanCache::Stats& a = after.cache;
  const xvr::PlanCache::Stats& b = before.cache;
  phase->cache.lookups = a.lookups - b.lookups;
  phase->cache.hits = a.hits - b.hits;
  phase->cache.misses = a.misses - b.misses;
  phase->cache.dep_invalidations = a.dep_invalidations - b.dep_invalidations;
  phase->cache.fingerprint_invalidations =
      a.fingerprint_invalidations - b.fingerprint_invalidations;
  phase->cache.survived_publications =
      a.survived_publications - b.survived_publications;
  phase->cache.publish_entries_swept =
      a.publish_entries_swept - b.publish_entries_swept;
  const xvr::ServerStats& sa = after.server;
  const xvr::ServerStats& sb = before.server;
  phase->queue_wait_sum_us =
      sa.server_queue_wait.sum_micros - sb.server_queue_wait.sum_micros;
  phase->queue_wait_count =
      sa.server_queue_wait.count - sb.server_queue_wait.count;
  phase->engine_sum_us =
      sa.query_latency.sum_micros - sb.query_latency.sum_micros;
  phase->engine_count = sa.query_latency.count - sb.query_latency.count;
  phase->storage_syncs = sa.storage_syncs - sb.storage_syncs;
  phase->publishes = sa.catalog_publishes - sb.catalog_publishes;
}

// Picks the next request index for one load thread.
class Picker {
 public:
  // Zipf over `n` ranks; rank r is request r.
  static Picker Zipf(const ZipfSampler* zipf) { return Picker(zipf, nullptr); }
  // Walks a shared cursor around the whole request list.
  static Picker Cycle(std::atomic<size_t>* cursor) {
    return Picker(nullptr, cursor);
  }

  size_t Next(xvr::Rng* rng, size_t n) const {
    if (zipf_ != nullptr) {
      return zipf_->Sample(rng);
    }
    return cursor_->fetch_add(1, std::memory_order_relaxed) % n;
  }

 private:
  Picker(const ZipfSampler* zipf, std::atomic<size_t>* cursor)
      : zipf_(zipf), cursor_(cursor) {}
  const ZipfSampler* zipf_;
  std::atomic<size_t>* cursor_;
};

uint64_t ThreadSeed(uint64_t seed, int thread) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(thread) + 1;
}

// Closed loop of `threads` in-process clients calling the engine until
// `seconds` elapse (or `max_requests` per thread, when non-zero).
Phase RunInProcess(const Engine& engine, const std::vector<Request>& requests,
                   const Picker& picker, int threads, double seconds,
                   double limit_us, bool traced, uint64_t seed,
                   size_t max_requests = 0) {
  std::vector<Phase> per_thread(static_cast<size_t>(threads));
  const EngineCounters before = EngineCounters::Take(engine);
  const int64_t start = Now();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Phase& phase = per_thread[static_cast<size_t>(t)];
      phase.start = start;
      phase.seconds = seconds;
      xvr::Rng rng(ThreadSeed(seed, t));
      std::unique_ptr<TracedCaller> caller;
      if (traced) {
        caller = std::make_unique<TracedCaller>(
            engine, static_cast<uint64_t>(t) << 40);
      }
      int64_t previous_done = Now();
      for (size_t k = 0; max_requests == 0 || k < max_requests; ++k) {
        const int64_t issue = Now();
        if (max_requests == 0 && issue >= end) {
          break;
        }
        const Request& request = requests[picker.Next(&rng, requests.size())];
        const int64_t t0 = Now();
        xvr::Result<std::vector<DeweyCode>> answer =
            xvr::Status::Internal("unset");
        if (caller != nullptr) {
          answer = caller->Answer(request.pattern);
        } else {
          xvr::Result<Engine::Answer> full = engine.AnswerQuery(
              request.pattern, AnswerStrategy::kHeuristicFiltered);
          if (full.ok()) {
            answer = std::move(full->codes);
          } else {
            answer = full.status();
          }
        }
        phase.Record(CheckEngineAnswer(answer, request), t0, Now(), limit_us);
        phase.lateness_us.push_back(
            static_cast<float>(Micros(issue - previous_done)));
        previous_done = Now();
      }
      if (caller != nullptr) {
        phase.rollup = std::move(caller->rollup());
        phase.counts = caller->counts();
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  Phase merged;
  merged.start = start;
  merged.seconds = max_requests == 0 ? seconds : Seconds(Now() - start);
  for (Phase& phase : per_thread) {
    merged.Absorb(std::move(phase));
  }
  RecordDeltas(before, EngineCounters::Take(engine), &merged);
  return merged;
}

// Catalog churn: alternates AddView (a copy of the next pre-parsed churn
// view) and RemoveView (of the view just added), one publication per
// period (period 0: back to back), until `stop` or `max_publications`.
// The patterns are parsed before any server starts: Engine::Parse interns
// into the document's unsynchronized LabelDict.
void Mutate(Engine& engine, const std::vector<TreePattern>& churn,
            int64_t period_nanos, const std::atomic<bool>* stop,
            size_t max_publications, bool traced, uint64_t first_request_id,
            Phase* phase) {
  xvr::MaterializeOptions materialize;
  materialize.evaluate = [&engine](const TreePattern& view,
                                   const xvr::XmlTree&) {
    return engine.base().Evaluate(view, BaseStrategy::kNodeIndex);
  };
  int32_t added = -1;
  size_t next_view = 0;
  int64_t due = Now();
  uint64_t id = first_request_id;
  for (size_t n = 0; max_publications == 0 || n < max_publications; ++n) {
    if (period_nanos > 0) {
      due += period_nanos;
      std::this_thread::sleep_until(AtNanos(due));
    }
    if (stop != nullptr && stop->load()) {
      break;
    }
    std::vector<Span> spans;
    const int64_t p0 = Now();
    spans.push_back({"publish", p0, 0, -1, id});
    int64_t materialize_nanos = 0;
    if (added < 0) {
      TreePattern view = churn[next_view++ % churn.size()];
      if (traced) {
        const int64_t m0 = Now();
        const xvr::Result<std::vector<xvr::Fragment>> fragments =
            xvr::MaterializeView(view, engine.doc(), materialize);
        materialize_nanos = Now() - m0;
        spans.push_back(
            {"MaterializeView", m0, m0 + materialize_nanos, -1, id});
        if (!fragments.ok()) ++phase->publish_failures;
      }
      const int64_t a0 = Now();
      const xvr::Result<int32_t> result = engine.AddView(std::move(view));
      const int64_t a1 = Now();
      spans.push_back({"Engine::AddView", a0, a1, -1, id});
      if (result.ok()) {
        added = *result;
      } else {
        ++phase->publish_failures;
      }
      phase->publish_ms.push_back(static_cast<double>(a1 - a0) / 1e6);
      phase->publish_self_us.push_back(Micros(a1 - a0 - materialize_nanos));
      if (traced) phase->materialize_us.push_back(Micros(materialize_nanos));
    } else {
      const int64_t r0 = Now();
      const xvr::Status removed = engine.RemoveView(added);
      const int64_t r1 = Now();
      spans.push_back({"Engine::RemoveView", r0, r1, -1, id});
      if (!removed.ok()) ++phase->publish_failures;
      added = -1;
      phase->publish_ms.push_back(static_cast<double>(r1 - r0) / 1e6);
      phase->publish_self_us.push_back(Micros(r1 - r0));
    }
    spans[0].end = Now();
    if (traced) {
      phase->rollup.AddRequest(std::move(spans));
    }
    ++id;
  }
  if (added >= 0 && !engine.RemoveView(added).ok()) {
    ++phase->publish_failures;
  }
}

struct HttpLoad {
  int connections = 1;
  double rate_per_second = 0;  // 0: closed loop
  size_t max_per_connection = 0;  // 0: until `seconds` elapse
  double seconds = 0;
  double limit_us = 0;
  bool mutate = false;
  bool traced = false;
};

// Drives an in-process HttpServer over keep-alive HttpClient connections.
// Open loop: request k of a connection is due at a fixed schedule and its
// latency runs from the due time; `lateness_us` is how late the generator
// sent it. Closed loop: `lateness_us` is the client's gap between requests.
Phase RunHttp(Engine& engine, const std::vector<Request>& requests,
              const Picker& picker, const std::vector<TreePattern>& churn,
              const HttpLoad& load, uint64_t seed) {
  xvr::HttpServerOptions options;
  options.num_workers = kServeWorkers;
  xvr::HttpServer server(&engine, options);
  const xvr::Status started = server.Start();
  if (!started.ok()) Die("HttpServer::Start: " + started.ToString());

  std::vector<Phase> per_connection(static_cast<size_t>(load.connections));
  // Connected before the clock starts; a lost connection reconnects in
  // the timed loop.
  std::vector<xvr::HttpClient> connections(
      static_cast<size_t>(load.connections));
  for (xvr::HttpClient& client : connections) {
    if (!client.Connect("127.0.0.1", server.port()).ok()) Die("cannot connect");
  }
  Phase mutator_phase;
  const EngineCounters before = EngineCounters::Take(engine);
  const int64_t start = Now();
  const int64_t end = start + static_cast<int64_t>(load.seconds * 1e9);
  std::atomic<bool> stop{false};
  std::thread mutator;
  if (load.mutate) {
    mutator = std::thread([&] {
      Mutate(engine, churn, kPublishPeriodMicros * 1000, &stop, 0, load.traced,
             uint64_t{1} << 50, &mutator_phase);
    });
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < load.connections; ++c) {
    clients.emplace_back([&, c] {
      Phase& phase = per_connection[static_cast<size_t>(c)];
      phase.start = start;
      phase.seconds = load.seconds;
      xvr::Rng rng(ThreadSeed(seed, c));
      xvr::HttpClient& client = connections[static_cast<size_t>(c)];
      const bool open_loop = load.rate_per_second > 0;
      const int64_t interval = open_loop
          ? static_cast<int64_t>(1e9 * load.connections / load.rate_per_second)
          : 0;
      const int64_t first_due = start + interval * c / load.connections;
      int64_t previous_done = Now();
      uint64_t id = static_cast<uint64_t>(c) << 40;
      for (size_t k = 0;
           load.max_per_connection == 0 || k < load.max_per_connection; ++k) {
        int64_t due = open_loop ? first_due + interval * static_cast<int64_t>(k)
                                : Now();
        if (load.max_per_connection == 0 && due >= end) {
          break;
        }
        if (open_loop) {
          std::this_thread::sleep_until(AtNanos(due));
        }
        const Request& request = requests[picker.Next(&rng, requests.size())];
        const int64_t send = Now();
        phase.lateness_us.push_back(static_cast<float>(
            Micros(open_loop ? send - due : send - previous_done)));
        if (!client.connected() &&
            !client.Connect("127.0.0.1", server.port()).ok()) {
          phase.tally.Add(Outcome::kUnanswered);
          previous_done = Now();
          continue;
        }
        xvr::Result<xvr::HttpResponse> response =
            client.Roundtrip("POST", "/query", request.body);
        const int64_t done = Now();
        if (!response.ok()) {
          client.Close();
        }
        phase.roundtrip_us.push_back(static_cast<float>(Micros(done - send)));
        if (load.traced) {
          phase.rollup.AddRequest(
              {{"HttpClient::Roundtrip", send, done, -1, id++}});
        }
        phase.Record(CheckHttpAnswer(response, request), due, done,
                     load.limit_us);
        previous_done = Now();
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  stop.store(true);
  if (mutator.joinable()) {
    mutator.join();
  }
  server.Shutdown();
  Phase merged;
  merged.start = start;
  merged.seconds =
      load.max_per_connection == 0 ? load.seconds : Seconds(Now() - start);
  for (Phase& phase : per_connection) {
    merged.Absorb(std::move(phase));
  }
  RecordDeltas(before, EngineCounters::Take(engine), &merged);
  merged.publish_ms = std::move(mutator_phase.publish_ms);
  merged.publish_self_us = std::move(mutator_phase.publish_self_us);
  merged.materialize_us = std::move(mutator_phase.materialize_us);
  merged.publish_failures = mutator_phase.publish_failures;
  merged.rollup.Merge(mutator_phase.rollup);
  return merged;
}

// A fixed number of back-to-back publications with spans, for workloads
// without a mutator of their own.
Phase PublishProbe(Engine& engine, const std::vector<TreePattern>& churn) {
  Phase phase;
  const EngineCounters before = EngineCounters::Take(engine);
  const int64_t start = Now();
  Mutate(engine, churn, 0, nullptr, kProbePublications, true, uint64_t{1} << 50,
         &phase);
  phase.seconds = Seconds(Now() - start);
  RecordDeltas(before, EngineCounters::Take(engine), &phase);
  return phase;
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

struct ExecProbe {
  double bn_us = 0;
  double bf_us = 0;
  size_t queries = 0;
  std::vector<std::pair<std::string, double>> strategy_us;  // Fig. 8 rows
};

// BN and BF over the first kProbeRequests requests, and the Fig. 8 table:
// the median of kStrategyRepeats calls per Table III query and strategy.
ExecProbe RunExecProbe(Engine& engine, const std::vector<Request>& requests) {
  ExecProbe probe;
  probe.queries = std::min(kProbeRequests, requests.size());
  double bn = 0;
  double bf = 0;
  for (size_t i = 0; i < probe.queries; ++i) {
    const TreePattern& query = requests[i].pattern;
    int64_t t0 = Now();
    const size_t bn_nodes =
        engine.base().Evaluate(query, BaseStrategy::kNodeIndex).size();
    bn += Micros(Now() - t0);
    t0 = Now();
    const size_t bf_nodes =
        engine.base().Evaluate(query, BaseStrategy::kFullIndex).size();
    bf += Micros(Now() - t0);
    if (bn_nodes != bf_nodes) Die("BN and BF disagree in the exec probe");
  }
  probe.bn_us = bn / static_cast<double>(probe.queries);
  probe.bf_us = bf / static_cast<double>(probe.queries);

  const std::pair<const char*, AnswerStrategy> strategies[] = {
      {"BN", AnswerStrategy::kBaseNodeIndex},
      {"BF", AnswerStrategy::kBaseFullIndex},
      {"MV", AnswerStrategy::kMinimumFiltered},
      {"HV", AnswerStrategy::kHeuristicFiltered},
  };
  for (const xvr::TableIIIQuery& tq : xvr::TableIII()) {
    xvr::Result<TreePattern> query = engine.Parse(tq.xpath);
    if (!query.ok()) Die(tq.name + ": " + query.status().ToString());
    for (const auto& [name, strategy] : strategies) {
      if (!engine.AnswerQuery(*query, strategy).ok()) {
        Die(tq.name + " failed under " + name);
      }
      std::vector<double> samples;
      for (int r = 0; r < kStrategyRepeats; ++r) {
        const int64_t t0 = Now();
        const bool ok = engine.AnswerQuery(*query, strategy).ok();
        samples.push_back(Micros(Now() - t0));
        if (!ok) Die(tq.name + " failed under " + name);
      }
      probe.strategy_us.emplace_back(
          "strategy." + tq.name + "." + name + "_us", Quantile(samples, 0.5));
    }
  }
  return probe;
}

// Planning cost per plan built, independent of the plan cache: for the
// first kProbeRequests requests, MinimizePattern on a copy (BuildPlan's own
// minimize pass has no span) and Planner::BuildPlan over the pinned
// catalog, whose trace carries the plan.filter / plan.selection spans.
// Refused queries count too: their tombstone carries the planning stats.
Phase RunPlanProbe(const Engine& engine, const std::vector<Request>& requests) {
  Phase phase;
  xvr::NfaReadScratch scratch;
  xvr::Trace trace;
  const size_t n = std::min(kProbeRequests, requests.size());
  for (size_t i = 0; i < n; ++i) {
    const TreePattern& query = requests[i].pattern;
    const xvr::CatalogRef catalog = engine.Catalog();
    std::vector<Span> spans;
    spans.push_back({"request", Now(), 0, -1, i});
    TreePattern minimized = query;
    const int64_t m0 = Now();
    xvr::MinimizePattern(&minimized);
    spans.push_back({"MinimizePattern", m0, Now(), -1, i});
    trace.Clear();
    xvr::QueryPlan tombstone;
    const int64_t b0 = Now();
    const xvr::Result<xvr::QueryPlan> plan = engine.planner().BuildPlan(
        *catalog, query, AnswerStrategy::kHeuristicFiltered, &scratch,
        xvr::QueryLimits(), &trace, &tombstone);
    spans.push_back({"Planner::BuildPlan", b0, Now(), -1, i});
    spans[0].end = Now();
    for (size_t k = 0; k < trace.size(); ++k) {
      const xvr::SpanRecord& r = trace.record(k);
      spans.push_back(
          {r.name, r.start_nanos, r.start_nanos + r.duration_nanos, -1, i});
    }
    phase.rollup.AddRequest(std::move(spans));
    const xvr::AnswerStats& stats =
        plan.ok() ? plan->plan_stats : tombstone.plan_stats;
    ++phase.counts.planned;
    phase.counts.candidates += stats.candidates_after_filter;
    phase.counts.selected += stats.views_selected;
    phase.counts.covers += static_cast<uint64_t>(stats.covers_computed);
  }
  return phase;
}

// Engine::Parse over the requests' XPath text, one thread, no server up
// (the server serializes Parse on its own mutex for the same reason).
double RunParseProbe(Engine& engine, const std::vector<Request>& requests,
                     size_t* count) {
  *count = std::min(kProbeRequests, requests.size());
  std::vector<std::string> texts;
  for (size_t i = 0; i < *count; ++i) {
    const xvr::Result<xvr::JsonValue> body = xvr::ParseJson(requests[i].body);
    texts.push_back(body->Find("xpath")->string_value);
  }
  const int64_t t0 = Now();
  for (const std::string& text : texts) {
    if (!engine.Parse(text).ok()) Die("probe could not parse " + text);
  }
  return Micros(Now() - t0) / static_cast<double>(*count);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // sample count or ratio base, for the readable report
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Count(const char* what, uint64_t n) {
  return std::string(what) + "=" + std::to_string(n);
}

template <typename T>
void AddPercentile(std::vector<Metric>* out, const char* name,
                   const std::vector<T>& samples, double q, const char* unit) {
  std::string base = Count("n", samples.size());
  if (!EnoughTail(samples.size(), q)) {
    base += " (fewer than 10 samples beyond this percentile)";
  }
  out->push_back({name, Quantile(samples, q), unit, base});
}

// " [v1 v2 ...]" for the readable report.
std::string List(const std::vector<double>& values, const char* format) {
  std::string text = " [";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, values[i]);
    text += (i > 0 ? " " : "") + std::string(buf);
  }
  return text + "]";
}

// goodput_qps over the whole phase; latency_p50_us and latency_p99_us each
// the median over kWindows equal time windows of the phase.
void AddEndToEnd(std::vector<Metric>* out, const Phase& phase) {
  out->push_back({"goodput_qps", phase.Goodput(), "1/s",
                  Count("good", phase.tally.good()) + " " +
                      Count("attempted", phase.tally.attempted())});
  std::vector<double> p50;
  std::vector<double> p99;
  size_t fewest = SIZE_MAX;
  size_t total = 0;
  for (const std::vector<float>& window : phase.latency_us) {
    p50.push_back(Quantile(window, 0.50));
    p99.push_back(Quantile(window, 0.99));
    fewest = std::min(fewest, window.size());
    total += window.size();
  }
  const std::string base = "median of " + std::to_string(kWindows) +
                           " windows, " + Count("n", total) + " " +
                           Count("fewest_per_window", fewest);
  out->push_back(
      {"latency_p50_us", Quantile(p50, 0.5), "us", base + List(p50, "%.0f")});
  out->push_back(
      {"latency_p99_us", Quantile(p99, 0.5), "us",
       base + List(p99, "%.0f") +
           (EnoughTail(fewest, 0.99)
                ? ""
                : " (fewer than 10 samples beyond p99 in a window)")});
}

double MeanSelfMicros(const SpanRollup& rollup, const char* name,
                      uint64_t* count) {
  const SpanTotals totals = rollup.Get(name);
  *count = totals.count;
  return totals.count == 0
             ? 0
             : static_cast<double>(totals.self_nanos) / 1e3 /
                   static_cast<double>(totals.count);
}

void AddSelf(std::vector<Metric>* out, const char* metric,
             const SpanRollup& rollup, const char* span) {
  uint64_t n = 0;
  const double value = MeanSelfMicros(rollup, span, &n);
  out->push_back({metric, value, "us", Count("spans", n)});
}

void WriteSpans(const SpanRollup& rollup, const std::string& path) {
  std::ofstream out(path);
  out << "request\tspan\tname\tstart_ns\tend_ns\tparent\n";
  const std::vector<Span>& spans = rollup.spans();
  // Parents are indices within a request's nested list; recover each
  // request's first index so the file carries request-local indices.
  uint64_t current = UINT64_MAX;
  size_t first = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].request != current) {
      current = spans[i].request;
      first = i;
    }
    out << spans[i].request << '\t' << (i - first) << '\t' << spans[i].name
        << '\t' << spans[i].start << '\t' << spans[i].end << '\t'
        << spans[i].parent << '\n';
  }
}

void PrintReport(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void PrintTally(const char* label, const Tally& tally) {
  std::printf("outcomes[%s] attempted=%llu", label,
              static_cast<unsigned long long>(tally.attempted()));
  for (size_t i = 0; i < kNumOutcomes; ++i) {
    std::printf(" %s=%llu", OutcomeName(static_cast<Outcome>(i)),
                static_cast<unsigned long long>(tally.counts[i]));
  }
  std::printf(" late=%llu\n", static_cast<unsigned long long>(tally.late));
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.errors());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string scratch = ".bench_build/perfbench";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--scratch") {
      args.scratch = value();
    } else if (flag == "--corrupt-answer") {
      args.corrupt = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "views_hot" && args.workload != "cold_mix" &&
      args.workload != "serve_churn") {
    Die("--workload must be views_hot, cold_mix or serve_churn");
  }
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

int Run(const Args& args) {
  std::filesystem::create_directories(args.scratch);
  const std::string wal_path = args.scratch + "/catalog.wal";

  // Set-up, several times; the last engine serves the run.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    setups.emplace_back();
    engine = BuildEngine(wal_path, &setups.back());
  }
  const auto setup_values = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(s.*field);
    return values;
  };
  const auto setup_median = [&](double SetupTimes::*field) {
    return Quantile(setup_values(field), 0.5);
  };

  // Inputs from the seed, ground truth outside any timed region.
  const bool hot = args.workload == "views_hot";
  const bool cold = args.workload == "cold_mix";
  const bool serve = args.workload == "serve_churn";
  std::vector<Request> requests = cold ? BuildColdStream(*engine, args.seed)
                                       : BuildHotPool(*engine, kPoolSeed);
  ComputeGroundTruth(*engine, &requests);
  std::vector<TreePattern> churn;
  for (const char* xpath : kChurnViews) {
    xvr::Result<TreePattern> view = engine->Parse(xpath);
    if (!view.ok()) Die(std::string("churn view ") + xpath);
    if (!xvr::MaterializeView(*view, engine->doc()).ok()) {
      Die(std::string("churn view does not materialize: ") + xpath);
    }
    churn.push_back(std::move(view).value());
  }
  const ZipfSampler zipf(requests.size(), kZipfExponent);
  std::atomic<size_t> cursor{0};
  const Picker picker = cold ? Picker::Cycle(&cursor) : Picker::Zipf(&zipf);
  const double limit_us =
      hot ? kHotLimitMicros : cold ? kColdLimitMicros : kServeLimitMicros;
  const auto run_phase = [&](double seconds, bool traced) {
    if (serve) {
      HttpLoad load;
      load.connections = kServeConnections;
      load.rate_per_second = kServeRatePerSecond;
      load.seconds = seconds;
      load.limit_us = limit_us;
      load.mutate = true;
      load.traced = traced;
      return RunHttp(*engine, requests, picker, churn, load, args.seed);
    }
    return RunInProcess(*engine, requests, picker, hot ? kHotThreads : 1,
                        seconds, limit_us, traced, args.seed);
  };
  g_corrupt_next.store(args.corrupt);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  char order[96];
  if (cold) {
    std::snprintf(order, sizeof(order), "order=shuffled cycle");
  } else {
    std::snprintf(order, sizeof(order),
                  "order=zipf exponent %g head-4 mass %.3f", kZipfExponent,
                  zipf.HeadMass(4));
  }
  std::printf("setup scale=%g views=%zu repeats=%d requests=%zu %s "
              "limit_us=%g wal=%s (fdatasync per append)\n",
              kXmarkScale, engine->num_views(), kSetupRepeats, requests.size(),
              order, limit_us, wal_path.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Phase main = run_phase(args.seconds, false);
    metrics.push_back({"setup_s", setup_median(&SetupTimes::total_s), "s",
                       "median of " + Count("setups", setups.size()) +
                           List(setup_values(&SetupTimes::total_s), "%.3f")});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", "getrusage"});
    AddEndToEnd(&metrics, main);
    PrintTally("run", main.tally);
    PrintReport(metrics);
    // Reported beside the JSON metrics (they can be exactly 0).
    std::vector<Metric> extra;
    extra.push_back({"refused_share",
                     Ratio(main.tally.Count(Outcome::kRefused),
                           main.tally.attempted()),
                     "share", Count("attempted", main.tally.attempted())});
    extra.push_back({"error_share",
                     Ratio(main.tally.errors(), main.tally.attempted()),
                     "share", Count("attempted", main.tally.attempted())});
    if (serve) {
      AddPercentile(&extra, "publish_p50_ms", main.publish_ms, 0.50, "ms");
      AddPercentile(&extra, "publish_p95_ms", main.publish_ms, 0.95, "ms");
    }
    PrintReport(extra);
    const bool correct = main.tally.Count(Outcome::kWrong) == 0;
    PrintResult(correct, main.tally, metrics);
    return correct ? 0 : 1;
  }

  // Traced run: untraced half, traced half, then the probes.
  const Phase main = run_phase(args.seconds / 2, false);
  const Phase traced = run_phase(args.seconds / 2, true);
  Tally all = main.tally;
  all.Merge(traced.tally);
  const double goodput_untraced = main.Goodput();
  const double goodput_traced = traced.Goodput();

  // Stage-level spans: the traced phase itself in process; for
  // serve_churn a replay of the same seeded sequence after the server
  // stopped (its stage spans stay inside the server).
  Phase stages_phase;
  const Phase* stages = &traced;
  if (serve) {
    stages_phase = RunInProcess(*engine, requests, picker, 1, 0, limit_us,
                                true, args.seed, kReplayRequests);
    all.Merge(stages_phase.tally);
    stages = &stages_phase;
  }
  // Net and publication figures: serve_churn's traced phase, else probes.
  Phase net_probe;
  Phase publish_probe;
  const Phase* net = &traced;
  const Phase* publish = &traced;
  if (!serve) {
    HttpLoad load;
    load.max_per_connection = kProbeRequests;
    load.limit_us = limit_us;
    load.traced = true;
    net_probe = RunHttp(*engine, requests, picker, churn, load, args.seed);
    all.Merge(net_probe.tally);
    net = &net_probe;
    publish_probe = PublishProbe(*engine, churn);
    publish = &publish_probe;
  }
  const Phase plans = RunPlanProbe(*engine, requests);
  const ExecProbe exec = RunExecProbe(*engine, requests);
  size_t parsed = 0;
  const double parse_us = RunParseProbe(*engine, requests, &parsed);

  const SpanRollup& r = stages->rollup;
  const StageCounts& c = stages->counts;
  AddSelf(&metrics, "rewrite.refine_us", r, "execute.refine");
  AddSelf(&metrics, "rewrite.join_us", r, "execute.join");
  AddSelf(&metrics, "rewrite.extract_us", r, "execute.extract");
  metrics.push_back({"rewrite.fragments_scanned",
                     Ratio(c.fragments_scanned, c.executed), "count",
                     "mean per execution, " + Count("executions", c.executed)});
  metrics.push_back({"rewrite.refine_keep_ratio",
                     Ratio(c.after_refinement, c.fragments_scanned), "ratio",
                     Count("scanned", c.fragments_scanned)});
  metrics.push_back({"rewrite.join_survivor_ratio",
                     Ratio(c.join_survivors, c.after_refinement), "ratio",
                     Count("after_refinement", c.after_refinement)});
  {
    uint64_t n_outer = 0;
    uint64_t n_inner = 0;
    const double outer = MeanSelfMicros(r, "QueryPipeline::Plan", &n_outer);
    const double inner = MeanSelfMicros(r, "plan", &n_inner);
    metrics.push_back({"core.plan.self_us", outer + inner, "us",
                       Count("plans", n_outer) +
                           " (includes BuildPlan's unspanned minimize)"});
  }
  const xvr::PlanCache::Stats& cache = (serve ? traced : *stages).cache;
  metrics.push_back({"core.plan_cache.hit_ratio", cache.HitRatio(), "ratio",
                     Count("lookups", cache.lookups)});
  const double publications = static_cast<double>(publish->publish_ms.size());
  metrics.push_back({"core.publish.self_us", Mean(publish->publish_self_us),
                     "us", Count("publications", publish->publish_ms.size())});
  metrics.push_back(
      {"core.publish.invalidated",
       Ratio(publish->cache.dep_invalidations +
                 publish->cache.fingerprint_invalidations,
             publications),
       "count",
       "per publication, dep=" +
           std::to_string(publish->cache.dep_invalidations) + " fingerprint=" +
           std::to_string(publish->cache.fingerprint_invalidations)});
  metrics.push_back({"core.publish.survival_ratio",
                     Ratio(publish->cache.survived_publications,
                           publish->cache.publish_entries_swept),
                     "ratio",
                     Count("swept", publish->cache.publish_entries_swept)});
  metrics.push_back(
      {"pattern.parse_us", parse_us, "us", Count("parses", parsed)});
  const StageCounts& p = plans.counts;
  AddSelf(&metrics, "pattern.minimize_us", plans.rollup, "MinimizePattern");
  AddSelf(&metrics, "vfilter.filter_us", plans.rollup, "plan.filter");
  metrics.push_back({"vfilter.candidates", Ratio(p.candidates, p.planned),
                     "count", "mean per plan, " + Count("plans", p.planned)});
  metrics.push_back({"vfilter.precision", Ratio(p.selected, p.candidates),
                     "ratio", Count("candidates", p.candidates)});
  AddSelf(&metrics, "selection.select_us", plans.rollup, "plan.selection");
  metrics.push_back({"selection.covers_computed", Ratio(p.covers, p.planned),
                     "count", "mean per plan, " + Count("plans", p.planned)});
  metrics.push_back(
      {"storage.materialize_us", Mean(publish->materialize_us), "us",
       Count("materializations", publish->materialize_us.size())});
  metrics.push_back({"storage.syncs_per_publish",
                     Ratio(publish->storage_syncs, publish->publishes), "count",
                     Count("publishes", publish->publishes) + " " +
                         Count("syncs", publish->storage_syncs)});
  metrics.push_back({"storage.fragment_mb",
                     engine->fragments().TotalByteSize() / 1e6,
                     "MB", Count("views", engine->num_views())});
  metrics.push_back(
      {"exec.bf_us", exec.bf_us, "us", Count("queries", exec.queries)});
  metrics.push_back(
      {"exec.bn_us", exec.bn_us, "us", Count("queries", exec.queries)});
  for (const auto& [name, us] : exec.strategy_us) {
    metrics.push_back({name, us, "us", Count("median_of", kStrategyRepeats)});
  }
  {
    const double roundtrip = Mean(net->roundtrip_us);
    const double queue_wait =
        Ratio(net->queue_wait_sum_us, net->queue_wait_count);
    const double engine_us = Ratio(net->engine_sum_us, net->engine_count);
    metrics.push_back({"net.roundtrip_us", roundtrip, "us",
                       "mean, " + Count("requests", net->roundtrip_us.size())});
    metrics.push_back({"net.queue_wait_us", queue_wait, "us",
                       "mean, " + Count("admitted", net->queue_wait_count)});
    metrics.push_back({"net.engine_us", engine_us, "us",
                       "mean, " + Count("queries", net->engine_count)});
    metrics.push_back({"net.overhead_us", roundtrip - queue_wait - engine_us,
                       "us", "roundtrip - queue_wait - engine (means)"});
    metrics.push_back({"net.shed_share",
                       Ratio(net->tally.Count(Outcome::kShed),
                             net->tally.attempted()),
                       "share", Count("attempted", net->tally.attempted())});
  }
  metrics.push_back({"setup.xmark_s", setup_median(&SetupTimes::xmark_s), "s",
                     Count("setups", setups.size())});
  metrics.push_back({"setup.views_s", setup_median(&SetupTimes::views_s), "s",
                     Count("setups", setups.size())});
  metrics.push_back({"setup.base_warm_s",
                     setup_median(&SetupTimes::base_warm_s), "s",
                     Count("setups", setups.size())});
  AddPercentile(&metrics, "load.lateness_p99_us", main.lateness_us, 0.99, "us");
  metrics.push_back({"load.achieved_rate", main.Rate(main.tally.attempted()),
                     "1/s", Count("attempted", main.tally.attempted())});
  metrics.push_back({"obs.trace_overhead",
                     1 - Ratio(goodput_traced, goodput_untraced), "share",
                     "goodput traced " + std::to_string(goodput_traced) +
                         " vs untraced " + std::to_string(goodput_untraced)});
  metrics.push_back({"refused_share",
                     Ratio(main.tally.Count(Outcome::kRefused),
                           main.tally.attempted()),
                     "share", Count("attempted", main.tally.attempted())});
  metrics.push_back({"error_share",
                     Ratio(main.tally.errors(), main.tally.attempted()),
                     "share", Count("attempted", main.tally.attempted())});
  std::vector<double> publish_ms = publish->publish_ms;
  if (serve) {
    publish_ms.insert(publish_ms.end(), main.publish_ms.begin(),
                      main.publish_ms.end());
  }
  AddPercentile(&metrics, "publish_p50_ms", publish_ms, 0.50, "ms");
  AddPercentile(&metrics, "publish_p95_ms", publish_ms, 0.95, "ms");

  SpanRollup everything;
  everything.Merge(traced.rollup);
  everything.Merge(plans.rollup);
  if (stages != &traced) everything.Merge(stages->rollup);
  if (net != &traced) everything.Merge(net->rollup);
  if (publish != &traced && publish != net) everything.Merge(publish->rollup);
  const std::string span_path =
      args.scratch + "/spans_" + args.workload + ".tsv";
  WriteSpans(everything, span_path);

  PrintTally("untraced", main.tally);
  PrintTally("traced", traced.tally);
  PrintTally("all", all);
  PrintReport(metrics);
  std::printf("spans %zu written to %s; nesting violations %llu; "
              "publish failures %llu\n",
              everything.spans().size(), span_path.c_str(),
              static_cast<unsigned long long>(everything.violations()),
              static_cast<unsigned long long>(publish->publish_failures));
  if (everything.violations() > 0) {
    std::fprintf(stderr, "perfbench: child spans exceed their parents\n");
  }
  const bool correct = all.Count(Outcome::kWrong) == 0;
  PrintResult(correct, all, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}

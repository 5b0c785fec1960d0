// Batch answering throughput: single-thread vs. multi-thread queries/sec on
// the XMark workload, plus the plan-cache effect on repeated queries.
//
// Unlike the paper-figure benches this one measures the pipeline refactor:
// the whole read path is const, so BatchAnswer fans one shared engine across
// a worker pool, and repeated queries reuse cached plans instead of
// re-running VFILTER + selection.
//
// Output (stdout, one row per configuration):
//   hv_vs_bn        answering from views (HV) vs the base-data node index
//                   (BN), interleaved fixed-work trials, median
//                   queries/sec with IQR + ratio
//   threads=N       queries/sec on N threads vs. 1 thread
//   plan cache      warm vs. cold cache queries/sec, hit ratio
//   deadline overhead  queries/sec with a 60 s deadline vs. none
//   metrics overhead  queries/sec with the registry enabled vs. disabled
//                   (these four: interleaved trials, median [IQR] + ratio)
//   snapshot pin    cost of the per-query atomic catalog acquire
//   catalog churn   queries/sec with a mutator thread adding/removing views
//                   (workers leave one core to the mutator)
//
// The hv_vs_bn row is also written as BENCH_batch_throughput.json and
// the churn A/B as BENCH_catalog_churn.json (see BenchJson in
// bench_common.h) so CI can diff against the committed baselines with
// scripts/bench_diff.py — the churn row asserts throughput under catalog
// mutation recovers to >= 0.9x quiet throughput.
//
// The run ends with the engine's full metric catalog (MetricsText), so a
// bench log doubles as a smoke test of the exposition.
//
// Env knobs: XVR_BENCH_VIEWS (default 1000), XVR_BENCH_SCALE (default 12),
// XVR_BENCH_BATCH (default 512), XVR_BENCH_MAX_THREADS (default 8),
// XVR_BENCH_TRIALS (default 9), XVR_BENCH_JSON_DIR (default .).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/deadline.h"
#include "common/timer.h"
#include "core/planner.h"

namespace {

using xvr::AnswerStrategy;
using xvr::AnswerStrategyName;
using xvr::PlanCache;
using xvr::TreePattern;
using xvr::WallTimer;

// Answers one batch and returns its wall time in seconds.
double RunBatch(const xvr::Engine& engine,
                const std::vector<TreePattern>& batch,
                AnswerStrategy strategy, int threads,
                const xvr::QueryLimits& limits = xvr::QueryLimits()) {
  WallTimer timer;
  auto results = engine.BatchAnswer(batch, strategy, threads, limits);
  const double seconds = timer.ElapsedMicros() / 1e6;
  size_t failures = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "warning: %zu/%zu queries failed\n", failures,
                 results.size());
  }
  return seconds;
}

// One A/B row: each side's median q/s [IQR] and the paired ratio A/B.
void PrintAB(const char* row, const char* a_label, const char* b_label,
             const xvr_bench::ABComparison& ab) {
  std::printf(
      "  %s: %s %8.0f q/s [%8.0f, %8.0f]  %s %8.0f q/s [%8.0f, %8.0f]  "
      "ratio %.3fx [%.3fx, %.3fx]\n",
      row, a_label, ab.a.median, ab.a.q25, ab.a.q75, b_label, ab.b.median,
      ab.b.q25, ab.b.q75, ab.speedup.median, ab.speedup.q25, ab.speedup.q75);
}

void ResetCache(const xvr::Engine& engine) {
  if (PlanCache* cache = engine.plan_cache()) {
    cache->Clear();
    cache->ResetStats();
  }
}

}  // namespace

int main() {
  xvr::PaperSetup& setup = xvr_bench::QuerySetup();
  const xvr::Engine& engine = *setup.engine;

  const size_t batch_size = xvr_bench::EnvSize("XVR_BENCH_BATCH", 512);
  const size_t max_threads = std::max<size_t>(
      2, xvr_bench::EnvSize("XVR_BENCH_MAX_THREADS",
                            std::min<size_t>(
                                8, std::thread::hardware_concurrency())));

  // The batch cycles the four Table III queries: a served workload repeats
  // a small set of query shapes, which is exactly what the plan cache and
  // the thread pool are for.
  std::vector<TreePattern> batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    batch.push_back(setup.queries[i % setup.queries.size()]);
  }

  const size_t trials = xvr_bench::EnvSize("XVR_BENCH_TRIALS", 9);

  std::printf("bench_batch_throughput: %zu queries (Q1..Q4 cycled), %zu views,"
              " doc %zu nodes\n\n",
              batch.size(), setup.views_materialized,
              engine.doc().size());

  // --- views vs base data: HV against BN ------------------------------------
  //
  // The paper's Fig. 8 question on the served batch: the same engine and
  // the same cycled batch, answered from the materialized views (HV, warm
  // plan cache, the one rewrite hot path) and from the base-data node index
  // (BN). Answers are identical (the differential tests assert it). Fixed
  // work, interleaved trials, medians with IQR — see bench_common.h. The
  // ratio is HV q/s over BN q/s, so a regression anywhere on the view path
  // (filter, selection, refine/join/extract, fragment walks) lowers it.
  {
    xvr_bench::BenchJson json("batch_throughput");
    std::printf("views vs base (threads=1, %zu interleaved trials/side):\n",
                trials);
    ResetCache(engine);
    const xvr_bench::ABComparison ab = xvr_bench::RunInterleavedAB(
        trials, static_cast<double>(batch.size()),
        [&] {
          return RunBatch(engine, batch, AnswerStrategy::kHeuristicFiltered,
                          /*threads=*/1);
        },
        [&] {
          return RunBatch(engine, batch, AnswerStrategy::kBaseNodeIndex,
                          /*threads=*/1);
        });
    std::printf(
        "  hv_vs_bn  HV %8.0f q/s [%8.0f, %8.0f]  BN %8.0f q/s [%8.0f, %8.0f]"
        "  ratio %.2fx [%.2fx, %.2fx]%s\n",
        ab.a.median, ab.a.q25, ab.a.q75, ab.b.median, ab.b.q25, ab.b.q75,
        ab.speedup.median, ab.speedup.q25, ab.speedup.q75,
        ab.NonOverlappingIqr() ? "  (IQRs separated)" : "  (IQRs OVERLAP)");
    json.AddAB("hv_vs_bn", "HV", "BN", "queries/sec", ab);
    const std::string path = json.Write();
    std::printf("  wrote %s\n\n",
                path.empty() ? "(json write failed)" : path.c_str());
  }

  for (AnswerStrategy strategy : {AnswerStrategy::kHeuristicFiltered,
                                  AnswerStrategy::kHeuristicSmallFragments,
                                  AnswerStrategy::kMinimumFiltered}) {
    std::printf("strategy %s\n", AnswerStrategyName(strategy));

    // --- scaling: N threads vs 1, cold cache each run ----------------------
    //
    // One batch takes a few milliseconds in CI's quick mode, so each thread
    // count runs interleaved trials against the 1-thread batch; the ratio
    // is N-thread q/s over 1-thread q/s.
    const auto run_cold = [&](size_t threads) {
      ResetCache(engine);
      return RunBatch(engine, batch, strategy, static_cast<int>(threads));
    };
    for (size_t threads = 2; threads <= max_threads; threads *= 2) {
      const xvr_bench::ABComparison scaling_ab = xvr_bench::RunInterleavedAB(
          trials, static_cast<double>(batch.size()),
          [&] { return run_cold(threads); }, [&] { return run_cold(1); });
      char row[32];
      char label[32];
      std::snprintf(row, sizeof(row), "threads=%zu", threads);
      std::snprintf(label, sizeof(label), "%zu threads", threads);
      PrintAB(row, label, "1 thread", scaling_ab);
    }

    // --- plan cache: warm vs cold, single thread ----------------------------
    //
    // Cold runs start from an empty cache; warm runs reuse the plans the
    // previous run left. The batch cycles four queries, so a cold run
    // builds four plans and hits the cache for the rest: the ratio prices
    // those four builds per batch.
    const xvr_bench::ABComparison cache_ab = xvr_bench::RunInterleavedAB(
        trials, static_cast<double>(batch.size()),
        [&] { return RunBatch(engine, batch, strategy, 1); },
        [&] {
          ResetCache(engine);
          return RunBatch(engine, batch, strategy, 1);
        });
    PrintAB("plan cache", "warm", "cold", cache_ab);
    if (PlanCache* cache = engine.plan_cache()) {
      const PlanCache::Stats stats = cache->stats();
      std::printf("    last cold run: hit ratio %.3f (%llu hits / %llu "
                  "lookups)\n",
                  stats.HitRatio(),
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.lookups));
    }
    // --- deadline-check overhead: generous deadline vs. none ----------------
    //
    // A deadline arms every CheckInterrupted / InterruptTicker on the path
    // (strided clock reads in the NFA, selection, refinement and join
    // loops); an infinite deadline short-circuits to one branch. The ratio
    // below 1x is the cost of serving with deadlines on, which the strided
    // tickers are meant to keep under ~2%.
    xvr::QueryLimits limits;
    limits.deadline = xvr::Deadline::AfterMicros(60'000'000);  // never hit
    const xvr_bench::ABComparison deadline_ab = xvr_bench::RunInterleavedAB(
        trials, static_cast<double>(batch.size()),
        [&] {
          ResetCache(engine);
          return RunBatch(engine, batch, strategy, 1, limits);
        },
        [&] {
          ResetCache(engine);
          return RunBatch(engine, batch, strategy, 1);
        });
    PrintAB("deadline overhead", "60s deadline", "none", deadline_ab);
    std::printf("\n");
  }

  // --- metrics overhead: registry enabled vs. disabled ----------------------
  //
  // With the registry enabled every query records a handful of sharded
  // relaxed atomics (counters, the trace roll-up, the latency histogram);
  // disabled, each record is one relaxed load and a branch. The ratio below
  // 1x is the observability budget, which the sharded cells are meant to
  // keep under ~2%.
  {
    const AnswerStrategy strategy = AnswerStrategy::kHeuristicFiltered;
    const auto run_with_metrics = [&](bool enabled) {
      engine.metrics().SetEnabled(enabled);
      ResetCache(engine);
      return RunBatch(engine, batch, strategy, 1);
    };
    const xvr_bench::ABComparison ab = xvr_bench::RunInterleavedAB(
        trials, static_cast<double>(batch.size()),
        [&] { return run_with_metrics(true); },
        [&] { return run_with_metrics(false); });
    engine.metrics().SetEnabled(true);
    std::printf("metrics overhead (%s, threads=1):\n",
                AnswerStrategyName(strategy));
    PrintAB("metrics", "enabled", "disabled", ab);
    std::printf("\n");
  }

  // --- snapshot pin: the per-query catalog acquire --------------------------
  //
  // Every query starts by pinning the published CatalogSnapshot (a mutex-
  // guarded shared_ptr copy + refcount round trip). This prices the pin on its
  // own, so the qps rows above can be read against a known fixed cost: at
  // tens of nanoseconds per pin and thousands of queries per second, the pin
  // is noise (<0.01% of a query).
  {
    constexpr int kPins = 1'000'000;
    uintptr_t sink = 0;
    WallTimer timer;
    for (int i = 0; i < kPins; ++i) {
      sink += reinterpret_cast<uintptr_t>(engine.Catalog().get());
    }
    const double nanos = timer.ElapsedMicros() * 1e3 / kPins;
    std::printf("snapshot pin: %.1f ns per Catalog() acquire (%d pins%s)\n\n",
                nanos, kPins, sink == 0 ? ", null!" : "");
  }

  // --- catalog churn: full batch throughput under live mutation -------------
  //
  // A mutator thread adds and retires views (full materialization each add)
  // while the worker pool answers the same batch. Readers stay lock-free —
  // each query pins one snapshot — and the publish sweep invalidates only
  // the cached plans that actually depend on each delta, so a warm cache is
  // expected to stay warm: churn throughput should recover to near-quiet
  // levels (CI asserts churn_vs_quiet >= 0.9 against the committed
  // baseline). Fixed work, interleaved trials — the churn side spawns its
  // mutator per trial so both sides see the same warm-cache start.
  {
    xvr::Engine& mutable_engine = *setup.engine;
    const AnswerStrategy strategy = AnswerStrategy::kHeuristicFiltered;
    // One core is left to the mutator, so a stalled worker does not decide
    // the median; the quiet side runs the same pool for a like-for-like
    // ratio.
    const unsigned cores = std::thread::hardware_concurrency();
    const int threads = static_cast<int>(std::max<size_t>(
        1, std::min<size_t>(max_threads, cores > 1 ? cores - 1 : 1)));
    const uint64_t version_before = engine.catalog_version();
    std::atomic<uint64_t> mutations{0};

    // Both sides run against a warm cache; what A measures is the cost of
    // live publications (targeted invalidation + replans), not a cold start.
    ResetCache(engine);
    RunBatch(engine, batch, strategy, threads);

    // Each timed run repeats the batch so a single mutation amortizes over
    // steady-state serving instead of dominating one short batch.
    constexpr int kRepeats = 8;
    const auto run_batches = [&] {
      double seconds = 0;
      for (int rep = 0; rep < kRepeats; ++rep) {
        seconds += RunBatch(engine, batch, strategy, threads);
      }
      return seconds;
    };
    const auto run_quiet = run_batches;
    // Pacing: catalog churn is periodic view maintenance, not a tight
    // mutation storm — an unpaced loop would measure the mutator's
    // materialization CPU (it saturates a core), not the cache's behavior
    // under publications. XVR_BENCH_CHURN_INTERVAL_MS=0 restores the storm.
    const size_t churn_interval_ms =
        xvr_bench::EnvSize("XVR_BENCH_CHURN_INTERVAL_MS", 25);
    const auto run_churn = [&] {
      std::atomic<bool> stop{false};
      std::thread mutator([&] {
        const char* kChurn[] = {
            "/site/people/person/name",
            "/site/regions//item[location]/name",
            "/site/open_auctions/open_auction[bidder]/initial",
        };
        std::vector<int32_t> live;
        size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          auto pattern = mutable_engine.Parse(kChurn[i++ % 3]);
          if (!pattern.ok()) {
            continue;
          }
          auto id = mutable_engine.AddView(std::move(pattern).value());
          if (id.ok()) {
            live.push_back(*id);
          }
          if (live.size() > 4) {
            if (!mutable_engine.RemoveView(live.front()).ok()) {
              break;
            }
            live.erase(live.begin());
          }
          mutations.fetch_add(1, std::memory_order_relaxed);
          for (size_t slept = 0; slept < churn_interval_ms &&
                                 !stop.load(std::memory_order_relaxed);
               ++slept) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        for (int32_t id : live) {
          if (!mutable_engine.RemoveView(id).ok()) {
            break;
          }
        }
      });
      const double seconds = run_batches();
      stop.store(true, std::memory_order_relaxed);
      mutator.join();
      return seconds;
    };
    const xvr_bench::ABComparison ab = xvr_bench::RunInterleavedAB(
        trials, static_cast<double>(batch.size() * kRepeats), run_churn,
        run_quiet);
    const uint64_t published = engine.catalog_version() - version_before;
    std::printf(
        "catalog churn (%s, threads=%d, %zu interleaved trials/side):\n"
        "  churn %8.0f q/s [%8.0f, %8.0f]  quiet %8.0f q/s [%8.0f, %8.0f]  "
        "ratio %.2fx [%.2fx, %.2fx]%s\n"
        "  %llu mutations, %llu snapshots published\n",
        AnswerStrategyName(strategy), threads, trials, ab.a.median, ab.a.q25,
        ab.a.q75, ab.b.median, ab.b.q25, ab.b.q75, ab.speedup.median,
        ab.speedup.q25, ab.speedup.q75,
        ab.NonOverlappingIqr() ? "  (IQRs separated)" : "  (IQRs OVERLAP)",
        static_cast<unsigned long long>(mutations.load()),
        static_cast<unsigned long long>(published));
    if (PlanCache* cache = engine.plan_cache()) {
      const PlanCache::Stats stats = cache->stats();
      std::printf(
          "  plan cache over the run: %llu dep + %llu fingerprint "
          "invalidations, %llu survived publications, %llu stale drops\n",
          static_cast<unsigned long long>(stats.dep_invalidations),
          static_cast<unsigned long long>(stats.fingerprint_invalidations),
          static_cast<unsigned long long>(stats.survived_publications),
          static_cast<unsigned long long>(stats.stale_drops));
    }
    xvr_bench::BenchJson json("catalog_churn");
    json.AddAB("churn_vs_quiet", "churn", "quiet", "queries/sec", ab);
    const std::string path = json.Write();
    std::printf("  wrote %s\n",
                path.empty() ? "(json write failed)" : path.c_str());
  }

  // --- the full metric catalog after the whole run --------------------------
  std::printf("\nmetrics:\n%s", engine.MetricsText().c_str());
  return 0;
}

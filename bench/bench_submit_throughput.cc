// E-SUBMIT — pooled async submission vs. legacy per-call thread fan-out on
// a stream of small mixed FD/IND (key-based Σ) batches.
//
// The legacy CheckMany spawned num_threads std::threads per call and joined
// them — acceptable for one big batch, pure churn for a service answering a
// stream of small ones. The async API executes every request on one
// persistent work-stealing pool (engine/executor.h), amortizing thread
// startup across the engine's lifetime. This bench replays the same
// batch stream both ways:
//
//   * legacy: per batch, spawn 8 threads, atomic task index, call
//     engine.Check — a faithful reimplementation of the pre-pool CheckMany
//     fan-out, paying its spawn/join per batch;
//   * pooled: per batch, Submit every task (Borrow; the bench frame blocks)
//     and Get every future, on an executor_threads = 8 engine.
//
// Exit code enforces the acceptance bar: every task must decide (errors ==
// 0), verdicts must be identical task-for-task across modes, and pooled
// throughput must be >= 1.0x legacy at 8 workers on a >= 4-core host
// (honest reduced bars below that, same policy as bench_checkmany_scaling).
// Each mode runs twice on a fresh engine, alternating, and keeps its faster
// run, damping CI neighbor noise.
#include <cstdio>
#include <memory>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include <atomic>
#include <thread>

#include "base/rng.h"
#include "base/string_util.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

constexpr size_t kBatches = 48;
constexpr size_t kTasksPerBatch = 8;
constexpr size_t kWorkers = 8;

// Both modes run under the same bounded budgets. The workload's Σ keeps
// its IND graph acyclic (BuildWorkload), so every chase saturates within a
// few levels and these limits are never the reason a task stops; a task
// that did trip one would be counted in `errors`, which the exit code
// gates at zero.
EngineConfig BenchConfig() {
  EngineConfig config;
  config.containment.limits.max_level = 8;
  config.containment.limits.max_conjuncts = 4000;
  config.containment.limits.max_steps = 100000;
  return config;
}

unsigned UsableCores() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

struct Workload {
  // unique_ptrs keep the catalog and symbol-table addresses stable across
  // moves of the Workload itself — the queries hold pointers into them.
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  DependencySet deps;
  // Flattened batches: batch b is tasks [b*kTasksPerBatch, (b+1)*...).
  std::vector<ConjunctiveQuery> lhs;
  std::vector<ConjunctiveQuery> rhs;
};

Workload BuildWorkload() {
  Workload w;
  w.symbols = std::make_unique<SymbolTable>();
  Rng rng(23);
  RandomCatalogParams cp;
  cp.num_relations = 3;
  cp.min_arity = 2;
  cp.max_arity = 3;
  w.catalog = std::make_unique<Catalog>(RandomCatalog(rng, cp));
  // Key-based Σ drawn as cqbench's kKeyBasedAcyclic: the FDs plus every
  // IND, in draw order, that keeps the IND graph acyclic. The chase of any
  // query then saturates, so every task decides within the budgets above.
  // Every batch is distinct (no cross-batch cache shortcuts) — the bench
  // measures scheduling, not memoization.
  RandomKeyBasedParams kp;
  kp.key_size = 1;
  kp.num_inds = 4;
  const DependencySet drawn = RandomKeyBasedDeps(rng, *w.catalog, kp);
  for (const FunctionalDependency& fd : drawn.fds()) {
    (void)w.deps.AddFd(*w.catalog, fd);
  }
  for (const InclusionDependency& ind : drawn.inds()) {
    DependencySet trial = w.deps;
    (void)trial.AddInd(*w.catalog, ind);
    if (trial.IndGraphAcyclic(*w.catalog)) w.deps = std::move(trial);
  }

  const size_t total = kBatches * kTasksPerBatch;
  w.lhs.reserve(total);
  w.rhs.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    RandomQueryParams qp;
    qp.num_conjuncts = 3;
    qp.num_vars = 5;
    qp.name_prefix = StrCat("L", i, "_");
    w.lhs.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
    // Odd tasks plant Q' inside a chase prefix of Q (contained by
    // construction); even tasks pair an independent random Q'.
    if (i % 2 == 1) {
      Result<ConjunctiveQuery> planted = PlantedSuperQuery(
          rng, w.lhs.back(), w.deps, *w.symbols, /*extra_conjuncts=*/1,
          /*chase_depth=*/2);
      if (planted.ok()) {
        w.rhs.push_back(*std::move(planted));
        continue;
      }
    }
    qp.num_conjuncts = 2;
    qp.num_vars = 4;
    qp.name_prefix = StrCat("R", i, "_");
    w.rhs.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
  }
  return w;
}

struct RunResult {
  double ms = 0;
  std::vector<bool> ok;
  std::vector<bool> contained;
  EngineStats stats;
};

void Record(const Result<EngineVerdict>& v, RunResult& r) {
  r.ok.push_back(v.ok());
  r.contained.push_back(v.ok() && v->report.contained);
}

// The pre-pool CheckMany fan-out, verbatim: per batch, spawn kWorkers
// threads over an atomic index and join them.
RunResult RunLegacy(const Workload& w) {
  ContainmentEngine engine(w.catalog.get(), w.symbols.get(), BenchConfig());
  RunResult r;
  bench::WallTimer timer;
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t base = b * kTasksPerBatch;
    std::vector<std::optional<Result<EngineVerdict>>> scratch(kTasksPerBatch);
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(kWorkers);
    for (size_t t = 0; t < kWorkers; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < kTasksPerBatch;
             i = next.fetch_add(1)) {
          scratch[i].emplace(
              engine.Check(w.lhs[base + i], w.rhs[base + i], w.deps));
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (auto& s : scratch) Record(*s, r);
  }
  r.ms = timer.ElapsedMs();
  r.stats = engine.stats();
  return r;
}

RunResult RunPooled(const Workload& w) {
  EngineConfig config = BenchConfig();
  config.executor_threads = kWorkers;
  ContainmentEngine engine(w.catalog.get(), w.symbols.get(), config);
  RunResult r;
  bench::WallTimer timer;
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t base = b * kTasksPerBatch;
    std::vector<EngineFuture<EngineOutcome>> futures;
    futures.reserve(kTasksPerBatch);
    for (size_t i = 0; i < kTasksPerBatch; ++i) {
      futures.push_back(engine.Submit(ContainmentRequest::Borrow(
          w.lhs[base + i], w.rhs[base + i], w.deps)));
    }
    for (EngineFuture<EngineOutcome>& f : futures) {
      Result<EngineOutcome> outcome = f.Get();
      if (!outcome.ok()) {
        r.ok.push_back(false);
        r.contained.push_back(false);
      } else {
        r.ok.push_back(true);
        r.contained.push_back(outcome->verdict.report.contained);
      }
    }
  }
  r.ms = timer.ElapsedMs();
  r.stats = engine.stats();
  return r;
}

size_t CountMismatches(const RunResult& a, const RunResult& b) {
  size_t mismatches = 0;
  for (size_t i = 0; i < a.ok.size(); ++i) {
    if (a.ok[i] != b.ok[i] || a.contained[i] != b.contained[i]) ++mismatches;
  }
  return mismatches;
}

}  // namespace
}  // namespace cqchase

int main() {
  using namespace cqchase;
  bench::PrintHeader(
      "E-SUBMIT / pooled async submission vs legacy per-call thread fan-out",
      "a stream of small containment batches gains >= 1.0x throughput from "
      "the persistent work-stealing executor vs spawning 8 threads per "
      "batch, with identical verdicts");

  Workload w = BuildWorkload();

  // Alternate modes, fresh engine each run, keep each mode's faster run.
  RunResult legacy = RunLegacy(w);
  RunResult pooled = RunPooled(w);
  {
    RunResult legacy2 = RunLegacy(w);
    if (legacy2.ms < legacy.ms) legacy = std::move(legacy2);
    RunResult pooled2 = RunPooled(w);
    if (pooled2.ms < pooled.ms) pooled = std::move(pooled2);
  }

  const size_t mismatches = CountMismatches(legacy, pooled);
  size_t contained = 0;
  size_t errors = 0;
  for (size_t i = 0; i < pooled.ok.size(); ++i) {
    if (!pooled.ok[i]) ++errors;
    if (pooled.contained[i]) ++contained;
  }

  const double speedup = pooled.ms > 0 ? legacy.ms / pooled.ms : 0.0;
  const unsigned cores = UsableCores();
  // >= 1.0x is the acceptance bar where the hardware can express it; on
  // starved hosts degrade honestly (both modes collapse to time-slicing,
  // and the pool's win shrinks to spawn-cost-only).
  const double target = cores >= 4 ? 1.0 : cores >= 2 ? 0.9 : 0.7;

  std::printf(
      "%zu batches x %zu tasks, acyclic key-based FD/IND Sigma, %zu workers, "
      "%u usable core(s)\n",
      kBatches, kTasksPerBatch, kWorkers, cores);
  std::printf("  legacy (8 threads per batch): %9.3f ms\n", legacy.ms);
  std::printf("  pooled (persistent executor): %9.3f ms  (speedup %5.2fx, "
              "target >= %.2fx)\n",
              pooled.ms, speedup, target);
  std::printf("  verdicts : %zu contained, %zu mismatches, %zu errors\n",
              contained, mismatches, errors);
  std::printf("  executor : %llu tasks, %llu steals, %llu workers\n\n",
              static_cast<unsigned long long>(pooled.stats.executor_tasks),
              static_cast<unsigned long long>(pooled.stats.executor_steals),
              static_cast<unsigned long long>(pooled.stats.executor_workers));

  std::vector<std::pair<std::string, double>> counters = {
      {"batches", static_cast<double>(kBatches)},
      {"tasks_per_batch", static_cast<double>(kTasksPerBatch)},
      {"ms_legacy", legacy.ms},
      {"ms_pooled", pooled.ms},
      {"speedup_pooled_v_legacy", speedup},
      {"usable_cores", static_cast<double>(cores)},
      {"target", target},
      {"mismatches", static_cast<double>(mismatches)},
      {"errors", static_cast<double>(errors)}};
  bench::AppendEngineCounters(pooled.stats, counters);
  // Both modes measure under BenchConfig's cache knobs.
  bench::AppendEngineConfig(BenchConfig(), counters);
  bench::PrintJsonRecord("submit_throughput", legacy.ms + pooled.ms, counters);

  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: verdicts diverge between modes\n");
    return 1;
  }
  if (errors > 0) {
    std::fprintf(stderr, "FAIL: %zu of %zu tasks ended without a verdict\n",
                 errors, pooled.ok.size());
    return 1;
  }
  if (speedup < target) {
    std::fprintf(stderr,
                 "FAIL: pooled speedup %.2fx below the %.2fx target for %u "
                 "usable core(s)\n",
                 speedup, target, cores);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

// The traced run's layer replay. It sends one containment request through
// each layer's public functions, in the order ContainmentEngine::Execute and
// DecideByChase call them, and records a span around every call — so each
// layer's self time, counts and ratios are measured from outside the
// program. The replay owns its own Σ-analysis map, chase-prefix cache and
// tier stack, built from the EngineConfig of the engine it shadows; its
// verdict must match the engine's for the same request.
#ifndef CQBENCH_REPLAY_H_
#define CQBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/chase.h"
#include "core/containment.h"
#include "deps/dependency_set.h"
#include "engine/engine.h"
#include "engine/lineage.h"
#include "engine/lru_cache.h"
#include "engine/remote_tier.h"
#include "engine/sigma_class.h"
#include "engine/tier.h"
#include "stats.h"
#include "workloads.h"

namespace cqbench {

// In-memory span recorder for one thread. Disabled, it records nothing (the
// replay's warm-up runs that way).
class Tracer {
 public:
  bool enabled = true;
  std::vector<Span> spans;

  int32_t Begin(const char* name, int32_t parent, uint32_t request) {
    if (!enabled) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start_ns = Now();
    spans.push_back(s);
    return static_cast<int32_t>(spans.size() - 1);
  }
  // Idempotent: a span ended early keeps its first end time.
  void End(int32_t index) {
    if (index >= 0 && spans[index].end_ns == 0) spans[index].end_ns = Now();
  }
  void Rename(int32_t index, const char* name) {
    if (index >= 0) spans[index].name = name;
  }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

// Ends its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent, uint32_t request)
      : tracer_(tracer), index_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

// VerdictTransport decorator that times every round trip and counts the
// bytes each way (request bytes are what the peer receives).
class TimingTransport final : public cqchase::VerdictTransport {
 public:
  explicit TimingTransport(std::shared_ptr<cqchase::VerdictTransport> inner)
      : inner_(std::move(inner)) {}

  cqchase::Status RoundTrip(const std::string& request,
                            std::string* response) override;
  std::string_view Peer() const override { return inner_->Peer(); }
  cqchase::VerdictTransportStats TransportStats() const override {
    return inner_->TransportStats();
  }

  struct Totals {
    std::vector<double> round_trip_us;
    uint64_t bytes_out = 0;  // sent to the peer
    uint64_t bytes_in = 0;   // received from the peer
  };
  Totals totals() const;

 private:
  std::shared_ptr<cqchase::VerdictTransport> inner_;
  mutable std::mutex mu_;
  Totals totals_;
};

// What the replay decided for one request, plus the facts the per-layer
// aggregation needs.
struct ReplayOutcome {
  int verdict = -1;  // 1 contained, 0 not contained, -1 no verdict
  int32_t root = -1;  // root span index (-1 when tracing is off)
  // Which tier answered: 0 lru, 1 store, 2 remote, -1 miss.
  int tier = -1;
  bool chased = false;          // a chase ran (built or resumed)
  bool chase_built = false;     // ... and was built by this request
  bool monotone_hit = false;    // tier hit at kMonotoneBound confidence
  bool stream_fallback = false;  // streaming ran out of frontier budget
  size_t key_bytes = 0;
  uint32_t searches = 0;
  uint32_t useful_searches = 0;
  uint64_t facts_scanned = 0;
  uint64_t chase_steps = 0;
  uint64_t index_rebuilds = 0;
  uint64_t alive_conjuncts = 0;
  uint32_t levels = 0;
  double join_ms = 0;
  double retain_ms = 0;
  double fd_ms = 0;
};

class Replay {
 public:
  // `config` is the shadowed engine's (its tiers, containment options,
  // chase-prefix cache capacity and streaming route); `timeout` is the
  // per-request timeout its requests carry.
  Replay(const cqchase::Catalog* catalog, cqchase::SymbolTable* symbols,
         cqchase::EngineConfig config,
         std::optional<std::chrono::milliseconds> timeout, Tracer* tracer);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  // Validates the assembled tier stack.
  cqchase::Status status() const { return status_; }

  // One request through every layer, Execute's order.
  ReplayOutcome Run(const Task& task, const cqchase::DependencySet& deps,
                    uint32_t request);

  // SubmitAll's batched warm-up of the tiers for a burst of requests.
  void Prefetch(const std::vector<const Task*>& tasks,
                const std::vector<const cqchase::DependencySet*>& deps,
                uint32_t request);

  // EvolveSigma's steps: delta, cache drops, tier migration.
  cqchase::DeltaReceipt Evolve(const cqchase::DependencySet& old_deps,
                               const cqchase::DependencySet& new_deps,
                               uint32_t request);

  std::vector<cqchase::VerdictTierStats> tier_stats() const;
  const cqchase::VerdictStore* local_store() const;

 private:
  struct SharedChase {
    std::unique_ptr<cqchase::DependencySet> deps;
    std::unique_ptr<cqchase::Chase> chase;
    cqchase::Status init_status;
  };

  cqchase::SigmaAnalysis Analyze(const cqchase::DependencySet& deps,
                                 int32_t parent, uint32_t request);
  cqchase::Result<cqchase::ContainmentReport> DecideByChase(
      const Task& task, const cqchase::DependencySet& deps,
      const cqchase::SigmaAnalysis& analysis, cqchase::ChaseControl* control,
      std::vector<uint64_t>* used_fps, ReplayOutcome* out, int32_t parent,
      uint32_t request);
  void FlushTiers(int32_t parent, uint32_t request);

  const cqchase::Catalog* catalog_;
  cqchase::SymbolTable* symbols_;
  cqchase::EngineConfig config_;
  std::optional<std::chrono::milliseconds> timeout_;
  Tracer* tracer_;
  cqchase::Status status_;
  std::unique_ptr<cqchase::TierStack> tiers_;
  std::unordered_map<std::string, cqchase::SigmaAnalysis> analyses_;
  cqchase::LruCache<std::shared_ptr<SharedChase>> chases_;
};

}  // namespace cqbench

#endif  // CQBENCH_REPLAY_H_

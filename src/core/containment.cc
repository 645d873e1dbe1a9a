#include "core/containment.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "engine/engine.h"

namespace cqchase {

namespace {

// AliveConjuncts() order.
bool LevelIdLess(const ChaseConjunct* a, const ChaseConjunct* b) {
  if (a->level != b->level) return a->level < b->level;
  return a->id < b->id;
}

}  // namespace

void ChaseTargetIndex::Append(const ChaseConjunct& conjunct) {
  target_.Add(conjunct.fact);
  ids_.push_back(conjunct.id);
}

void ChaseTargetIndex::Sync(const Chase& chase) {
  const std::vector<ChaseConjunct>& all = chase.conjuncts();
  const uint64_t fd_merges = chase.chase_stats().fd_merges;
  if (rebuilds_ != 0 && fd_merges == synced_fd_merges_ &&
      !chase.is_empty_query()) {
    std::vector<const ChaseConjunct*> minted;
    for (size_t i = synced_conjuncts_; i < all.size(); ++i) {
      if (all[i].alive) minted.push_back(&all[i]);
    }
    std::sort(minted.begin(), minted.end(), LevelIdLess);
    if (minted.empty() || ids_.empty() ||
        LevelIdLess(chase.ConjunctById(ids_.back()), minted.front())) {
      for (const ChaseConjunct* c : minted) Append(*c);
      synced_conjuncts_ = all.size();
      return;
    }
  }
  ++rebuilds_;
  target_.Clear();
  ids_.clear();
  for (const ChaseConjunct* c : chase.AliveConjuncts()) Append(*c);
  synced_conjuncts_ = all.size();
  synced_fd_merges_ = fd_merges;
}

uint32_t ChaseTargetIndex::WitnessMaxLevel(const Chase& chase,
                                           const Homomorphism& hom) const {
  uint32_t max_level = 0;
  for (size_t fi : hom.conjunct_images) {
    max_level = std::max(max_level, chase.ConjunctById(ids_[fi])->level);
  }
  return max_level;
}

uint32_t ChaseTargetIndex::MaxLevel(const Chase& chase) const {
  return ids_.empty() ? 0 : chase.ConjunctById(ids_.back())->level;
}

uint64_t Theorem2LevelBound(size_t q_prime_size, size_t sigma_size,
                            size_t max_width) {
  if (sigma_size == 0) return 0;
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // (W+1)^W with saturation.
  uint64_t pow = 1;
  for (size_t i = 0; i < max_width; ++i) {
    if (pow > kMax / (max_width + 1)) return kMax;
    pow *= (max_width + 1);
  }
  uint64_t out = static_cast<uint64_t>(q_prime_size);
  if (out != 0 && sigma_size > kMax / out) return kMax;
  out *= sigma_size;
  if (out != 0 && pow > kMax / out) return kMax;
  return out * pow;
}

// The decision procedure itself lives in engine/engine.cc
// (ContainmentEngine::DecideByChase and friends); these free functions are
// the stateless compatibility surface. They run a throwaway engine with
// caching off and streaming routing off, which reproduces the historical
// behavior — including the witness homomorphism in the report — with one
// deliberate improvement: a run whose chase budget trips mid-expansion now
// searches the partial prefix for a witness before erroring, so some calls
// that used to return kResourceExhausted return a sound contained=true
// instead. Callers that issue many related checks should hold a
// ContainmentEngine instead and let its memoization work.

Result<ContainmentReport> CheckContainment(const ConjunctiveQuery& q,
                                           const ConjunctiveQuery& q_prime,
                                           const DependencySet& deps,
                                           SymbolTable& symbols,
                                           const ContainmentOptions& options) {
  EngineConfig config;
  config.containment = options;
  config.enable_cache = false;
  config.route_streaming_single_conjunct = false;
  ContainmentEngine engine(&q.catalog(), &symbols, config);
  CQCHASE_ASSIGN_OR_RETURN(EngineVerdict verdict,
                           engine.Check(q, q_prime, deps));
  return std::move(verdict.report);
}

Result<bool> CheckEquivalence(const ConjunctiveQuery& q,
                              const ConjunctiveQuery& q_prime,
                              const DependencySet& deps, SymbolTable& symbols,
                              const ContainmentOptions& options) {
  CQCHASE_ASSIGN_OR_RETURN(ContainmentReport forward,
                           CheckContainment(q, q_prime, deps, symbols, options));
  if (!forward.contained) return false;
  CQCHASE_ASSIGN_OR_RETURN(ContainmentReport backward,
                           CheckContainment(q_prime, q, deps, symbols, options));
  return backward.contained;
}

}  // namespace cqchase

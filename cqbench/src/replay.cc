#include "replay.h"

#include <algorithm>
#include <utility>

#include "analysis/delta.h"
#include "base/string_util.h"
#include "core/homomorphism.h"
#include "core/pspace.h"
#include "engine/canonical.h"

namespace cqbench {

using cqchase::ChaseControl;
using cqchase::ChaseOutcome;
using cqchase::ConjunctiveQuery;
using cqchase::ContainmentReport;
using cqchase::DecisionStrategy;
using cqchase::DependencySet;
using cqchase::Result;
using cqchase::Status;
using cqchase::StatusCode;
using cqchase::StoredVerdict;
using cqchase::TierSpec;

namespace {

// The engine's exact chase-prefix key of a query (term identities, not a
// renaming-invariant form): only a byte-identical re-ask resumes a chase.
std::string ExactQueryKey(const ConjunctiveQuery& q) {
  std::string out = q.is_empty_query() ? "E(" : "(";
  auto append_term = [&out](cqchase::Term t) {
    switch (t.kind()) {
      case cqchase::TermKind::kConstant: out += 'c'; break;
      case cqchase::TermKind::kDistVar: out += 'd'; break;
      case cqchase::TermKind::kNondistVar: out += 'n'; break;
    }
    out += cqchase::StrCat(t.id(), ",");
  };
  for (cqchase::Term t : q.summary()) append_term(t);
  out += ")";
  for (const cqchase::Fact& f : q.conjuncts()) {
    out += cqchase::StrCat("R", f.relation, "(");
    for (cqchase::Term t : f.terms) append_term(t);
    out += ")";
  }
  return out;
}

}  // namespace

Status TimingTransport::RoundTrip(const std::string& request,
                                  std::string* response) {
  const int64_t start = Tracer::Now();
  Status status = inner_->RoundTrip(request, response);
  const double us = static_cast<double>(Tracer::Now() - start) / 1e3;
  std::lock_guard<std::mutex> lock(mu_);
  totals_.round_trip_us.push_back(us);
  totals_.bytes_out += request.size();
  if (status.ok()) totals_.bytes_in += response->size();
  return status;
}

TimingTransport::Totals TimingTransport::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

Replay::Replay(const cqchase::Catalog* catalog, cqchase::SymbolTable* symbols,
               cqchase::EngineConfig config,
               std::optional<std::chrono::milliseconds> timeout, Tracer* tracer)
    : catalog_(catalog),
      symbols_(symbols),
      config_(std::move(config)),
      timeout_(timeout),
      tracer_(tracer),
      chases_(config_.chase_cache_capacity) {
  // The engine's rule for the tiers it assembles: an empty list means one
  // LRU of verdict_cache_capacity, and store_path appends a local store.
  std::vector<cqchase::TierSpec> specs = config_.tiers;
  if (specs.empty()) specs.push_back(cqchase::TierSpec::Lru(config_.verdict_cache_capacity));
  if (!config_.store_path.empty()) {
    specs.push_back(cqchase::TierSpec::LocalStore(config_.store_path));
  }
  Result<std::unique_ptr<cqchase::TierStack>> assembled =
      cqchase::TierStack::Assemble(specs);
  if (!assembled.ok()) {
    status_ = assembled.status();
    return;
  }
  tiers_ = *std::move(assembled);
  for (const auto& desc : tiers_->descriptors()) {
    if (!desc.active) status_ = desc.status;
  }
}

Replay::~Replay() {
  // Chases hold NDV shards into the symbol table; drop them first.
  chases_.Clear();
  if (tiers_ != nullptr) (void)tiers_->Flush();
}

std::vector<cqchase::VerdictTierStats> Replay::tier_stats() const {
  return tiers_ == nullptr ? std::vector<cqchase::VerdictTierStats>{}
                           : tiers_->Stats();
}

const cqchase::VerdictStore* Replay::local_store() const {
  return tiers_ == nullptr ? nullptr : tiers_->local_store();
}

cqchase::SigmaAnalysis Replay::Analyze(const DependencySet& deps,
                                       int32_t parent, uint32_t request) {
  std::string key;
  {
    ScopedSpan span(tracer_, "sigma_class.sigma_key", parent, request);
    key = cqchase::CanonicalSigmaKey(deps);
  }
  auto it = analyses_.find(key);
  if (it != analyses_.end()) return it->second;
  ScopedSpan span(tracer_, "sigma_class.analyze", parent, request);
  cqchase::SigmaAnalysis analysis = cqchase::AnalyzeSigma(deps, *catalog_);
  analyses_.emplace(std::move(key), analysis);
  return analysis;
}

void Replay::FlushTiers(int32_t parent, uint32_t request) {
  ScopedSpan span(tracer_, "tier.flush", parent, request);
  (void)tiers_->Flush();
}

ReplayOutcome Replay::Run(const Task& task, const DependencySet& deps,
                          uint32_t request) {
  ReplayOutcome out;
  ScopedSpan root(tracer_, "request", -1, request);
  out.root = root.index();
  const ConjunctiveQuery& q = *task.q;
  const ConjunctiveQuery& q_prime = *task.q_prime;
  ChaseControl control;
  if (timeout_.has_value()) {
    control.deadline = std::chrono::steady_clock::now() + *timeout_;
  }

  {
    ScopedSpan span(tracer_, "validate", root.index(), request);
    if (!q.Validate().ok() || !q_prime.Validate().ok()) return out;
  }
  const cqchase::SigmaAnalysis analysis = Analyze(deps, root.index(), request);

  std::string key;
  {
    ScopedSpan span(tracer_, "canonical.task_key", root.index(), request);
    key = cqchase::CanonicalTaskKey(q, q_prime, deps,
                                    config_.containment.variant);
  }
  out.key_bytes = key.size();

  {
    ScopedSpan span(tracer_, "tier.lookup.miss", root.index(), request);
    std::optional<cqchase::TierStack::LookupResult> hit = tiers_->Lookup(key);
    if (hit.has_value()) {
      switch (hit->kind) {
        case TierSpec::Kind::kLru:
          out.tier = 0;
          tracer_->Rename(span.index(), "tier.lookup.lru");
          break;
        case TierSpec::Kind::kLocalStore:
          out.tier = 1;
          tracer_->Rename(span.index(), "tier.lookup.store");
          break;
        case TierSpec::Kind::kRemote:
          out.tier = 2;
          tracer_->Rename(span.index(), "tier.lookup.remote");
          break;
      }
      out.verdict = hit->verdict.contained ? 1 : 0;
      out.monotone_hit =
          hit->verdict.confidence ==
          static_cast<uint8_t>(cqchase::VerdictConfidence::kMonotoneBound);
      const bool buffered = hit->buffered_writes;
      tracer_->End(span.index());
      if (buffered) FlushTiers(root.index(), request);
      return out;
    }
  }

  // DecideUncached.
  ContainmentReport report;
  std::vector<uint64_t> used_fps;
  bool lineage_known = false;
  DecisionStrategy strategy;
  {
    ScopedSpan decide(tracer_, "decide", root.index(), request);
    std::optional<DecisionStrategy> chosen;
    {
      ScopedSpan span(tracer_, "sigma_class.choose", decide.index(), request);
      chosen = cqchase::ChooseStrategy(analysis, q_prime,
                                       config_.containment.allow_semidecision,
                                       config_.route_streaming_single_conjunct);
    }
    if (!chosen.has_value()) return out;
    strategy = *chosen;
    if (strategy == DecisionStrategy::kStreamingFrontier && q.is_empty_query()) {
      strategy = DecisionStrategy::kIterativeDeepening;
    }
    bool use_chase = strategy != DecisionStrategy::kHomomorphism &&
                     strategy != DecisionStrategy::kStreamingFrontier;
    if (strategy == DecisionStrategy::kHomomorphism) {
      if (q.is_empty_query()) {
        use_chase = true;
      } else {
        ScopedSpan span(tracer_, "homomorphism.search", decide.index(), request);
        ++out.searches;
        out.facts_scanned += q.conjuncts().size();
        report.contained =
            !q_prime.is_empty_query() &&
            cqchase::FindHomomorphism(q_prime, q.conjuncts(), q.summary())
                .has_value();
        if (report.contained) ++out.useful_searches;
      }
    } else if (strategy == DecisionStrategy::kStreamingFrontier) {
      if (!control.Check().ok()) return out;
      cqchase::StreamingContainmentOptions sopt;
      sopt.max_level = config_.containment.limits.max_level;
      sopt.max_frontier = config_.containment.limits.max_conjuncts;
      Result<cqchase::StreamingContainmentReport> streamed =
          Status::Internal("unset");
      {
        ScopedSpan span(tracer_, "pspace.stream", decide.index(), request);
        streamed = cqchase::StreamingSingleConjunctContainment(
            q, q_prime, deps, *symbols_, sopt);
      }
      if (streamed.ok()) {
        report.contained = streamed->contained;
      } else if (streamed.status().code() == StatusCode::kResourceExhausted) {
        out.stream_fallback = true;
        use_chase = true;
      } else {
        return out;
      }
    }
    if (use_chase) {
      Result<ContainmentReport> decided =
          DecideByChase(task, deps, analysis, &control, &used_fps, &out,
                        decide.index(), request);
      if (!decided.ok()) return out;
      report = *std::move(decided);
      lineage_known = true;
    }
  }
  out.verdict = report.contained ? 1 : 0;

  // Publish: the engine's ToStoredVerdict plus Σ fingerprint and lineage.
  {
    ScopedSpan span(tracer_, "tier.publish", root.index(), request);
    StoredVerdict stored;
    stored.contained = report.contained;
    stored.chase_outcome = static_cast<uint8_t>(report.chase_outcome);
    stored.sigma_class = static_cast<uint8_t>(analysis.sigma_class);
    stored.strategy = static_cast<uint8_t>(strategy);
    stored.witness_max_level = report.witness_max_level;
    stored.chase_levels = report.chase_levels;
    stored.level_bound = report.level_bound;
    stored.chase_conjuncts = report.chase_conjuncts;
    stored.sigma_fp = cqchase::SigmaFingerprint(deps);
    if (lineage_known) {
      stored.lineage_known = true;
      stored.used_fps = std::move(used_fps);
    }
    cqchase::TierStack::PublishReceipt receipt = tiers_->Publish(key, stored);
    tracer_->End(span.index());
    if (receipt.buffered_writes) FlushTiers(root.index(), request);
  }
  return out;
}

Result<ContainmentReport> Replay::DecideByChase(
    const Task& task, const DependencySet& deps,
    const cqchase::SigmaAnalysis& analysis, ChaseControl* control,
    std::vector<uint64_t>* used_fps, ReplayOutcome* out, int32_t parent,
    uint32_t request) {
  const ConjunctiveQuery& q = *task.q;
  const ConjunctiveQuery& q_prime = *task.q_prime;
  const cqchase::ContainmentOptions& options = config_.containment;
  out->chased = true;

  std::string sigma_key;
  {
    ScopedSpan span(tracer_, "sigma_class.sigma_key", parent, request);
    sigma_key = cqchase::CanonicalSigmaKey(deps);
  }
  const std::string chase_key =
      cqchase::StrCat("V", static_cast<int>(options.variant), "|", sigma_key,
                      "|", ExactQueryKey(q));
  std::shared_ptr<SharedChase> shared;
  uint32_t start_level = 0;
  cqchase::ChaseStats before;
  if (std::shared_ptr<SharedChase>* hit = chases_.Get(chase_key)) {
    shared = *hit;
    if (!shared->init_status.ok()) return shared->init_status;
    before = shared->chase->chase_stats();
    start_level = std::min(shared->chase->MaxAliveLevel(),
                           options.limits.max_level);
  } else {
    ScopedSpan span(tracer_, "chase.init", parent, request);
    shared = std::make_shared<SharedChase>();
    shared->deps = std::make_unique<DependencySet>(deps);
    shared->chase = std::make_unique<cqchase::Chase>(
        catalog_, symbols_, shared->deps.get(), options.variant,
        options.limits);
    shared->init_status = shared->chase->Init(q);
    chases_.Put(chase_key, shared);
    out->chase_built = true;
    if (!shared->init_status.ok()) return shared->init_status;
  }
  cqchase::Chase& chase = *shared->chase;
  chase.set_control(control);

  ContainmentReport report;
  report.level_bound = cqchase::Theorem2LevelBound(
      q_prime.conjuncts().size(), deps.size(), deps.MaxIndWidth());
  uint64_t bound = report.level_bound;
  const bool bound_is_complete = analysis.decidable;
  if (analysis.sigma_class == cqchase::SigmaClass::kAcyclicInd &&
      analysis.acyclic_ind_depth.has_value()) {
    bound = *analysis.acyclic_ind_depth;
    report.level_bound = bound;
  }

  auto search_witness = [&]() {
    if (q_prime.is_empty_query()) return false;
    std::vector<cqchase::Fact> facts;
    {
      ScopedSpan span(tracer_, "homomorphism.alive_copy", parent, request);
      std::vector<const cqchase::ChaseConjunct*> alive = chase.AliveConjuncts();
      facts.reserve(alive.size());
      for (const cqchase::ChaseConjunct* c : alive) facts.push_back(c->fact);
    }
    ScopedSpan span(tracer_, "homomorphism.search", parent, request);
    ++out->searches;
    out->facts_scanned += facts.size();
    std::optional<cqchase::Homomorphism> hom =
        cqchase::FindHomomorphism(q_prime, facts, chase.summary());
    if (!hom.has_value()) return false;
    ++out->useful_searches;
    report.chase_conjuncts = facts.size();
    report.chase_levels = chase.MaxAliveLevel();
    report.contained = true;
    return true;
  };

  Result<ContainmentReport> result = [&]() -> Result<ContainmentReport> {
    uint32_t level = start_level;
    while (true) {
      CQCHASE_RETURN_IF_ERROR(control->Check());
      Result<ChaseOutcome> expanded = Status::Internal("unset");
      {
        ScopedSpan span(tracer_, "chase.expand", parent, request);
        expanded = chase.ExpandToLevel(level);
      }
      if (!expanded.ok()) {
        if (expanded.status().code() == StatusCode::kResourceExhausted &&
            search_witness()) {
          return report;
        }
        return expanded.status();
      }
      report.chase_outcome = *expanded;
      {
        // Execute sizes the prefix after every expansion, as here.
        ScopedSpan span(tracer_, "chase.alive_scan", parent, request);
        report.chase_conjuncts = chase.AliveConjuncts().size();
      }
      report.chase_levels = chase.MaxAliveLevel();
      if (*expanded == ChaseOutcome::kEmptyQuery) {
        report.contained = true;
        return report;
      }
      if (search_witness()) return report;
      if (*expanded == ChaseOutcome::kSaturated) return report;
      if (bound_is_complete && level >= bound) return report;
      if (level >= options.limits.max_level) {
        return Status::ResourceExhausted("undecided at max_level");
      }
      const uint32_t next = level + options.level_stride;
      level = std::min<uint64_t>(
          std::min<uint64_t>(next, options.limits.max_level),
          bound_is_complete ? std::max<uint64_t>(bound, 1) : next);
    }
  }();

  {
    ScopedSpan span(tracer_, "chase.stats", parent, request);
    const cqchase::ChaseStats& cs = chase.chase_stats();
    out->chase_steps += cs.steps - before.steps;
    out->index_rebuilds += cs.index_rebuilds - before.index_rebuilds;
    out->join_ms += cs.join_ms - before.join_ms;
    out->retain_ms += cs.retain_ms - before.retain_ms;
    out->fd_ms += cs.fd_ms - before.fd_ms;
    out->alive_conjuncts = report.chase_conjuncts;
    out->levels = chase.MaxAliveLevel();
    if (result.ok()) {
      *used_fps = cqchase::UsedDependencyFingerprints(deps, chase.used_inds(),
                                                      chase.used_fds());
    }
  }
  chase.set_control(nullptr);
  return result;
}

void Replay::Prefetch(const std::vector<const Task*>& tasks,
                      const std::vector<const DependencySet*>& deps,
                      uint32_t request) {
  ScopedSpan root(tracer_, "request", -1, request);
  std::vector<std::string> keys;
  {
    ScopedSpan span(tracer_, "canonical.task_key", root.index(), request);
    for (size_t i = 0; i < tasks.size(); ++i) {
      keys.push_back(cqchase::CanonicalTaskKey(*tasks[i]->q,
                                               *tasks[i]->q_prime, *deps[i],
                                               config_.containment.variant));
    }
  }
  bool buffered = false;
  {
    ScopedSpan span(tracer_, "tier.prefetch", root.index(), request);
    buffered = tiers_->Prefetch(keys).buffered_writes;
  }
  if (buffered) FlushTiers(root.index(), request);
}

cqchase::DeltaReceipt Replay::Evolve(const DependencySet& old_deps,
                                     const DependencySet& new_deps,
                                     uint32_t request) {
  ScopedSpan root(tracer_, "request", -1, request);
  cqchase::LineageDelta ld;
  {
    ScopedSpan span(tracer_, "lineage.delta", root.index(), request);
    ld = cqchase::MakeLineageDelta(old_deps, new_deps);  // ComputeSigmaDelta + keys
  }
  if (ld.empty()) return {};
  {
    // Dropping cached chases frees their prefixes: real, sometimes large,
    // work that EvolveSigma does too.
    ScopedSpan span(tracer_, "lineage.drop_caches", root.index(), request);
    analyses_.clear();
    chases_.Clear();
  }
  ScopedSpan span(tracer_, "lineage.apply", root.index(), request);
  return tiers_->ApplyDelta(ld);
}

}  // namespace cqbench

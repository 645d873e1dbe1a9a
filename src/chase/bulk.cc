// The set-at-a-time chase core (ChaseCoreMode::kBulk): level-frontier
// sweeps over columnar segments. Produces a prefix bit-identical to the
// scalar core — same conjunct ids, facts, levels, arcs, step counts, NDV
// names, outcome — which the comments below argue invariant by invariant
// and tests/chase_core_parity_test.cc checks differentially.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/reliance.h"
#include "base/string_util.h"
#include "chase/bulk.h"
#include "chase/chase.h"

namespace cqchase {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

void Chase::PrepareBulk() {
  bulk_ = std::make_unique<BulkState>();
  BulkState& b = *bulk_;
  const auto& inds = deps_->inds();
  const size_t words = considered_.words_per_row();
  b.applicable_mask.assign(catalog_->num_relations(), {});
  b.group_of_ind.assign(inds.size(), BulkState::kPrunedGroup);
  b.ind_has_fresh_columns.resize(inds.size());

  // Reliance pruning: an IND fires only on a fact of its lhs relation, and
  // relations gain facts only from the initial conjuncts or as some fired
  // IND's rhs (FD merges never introduce a relation). So the reliance
  // closure from the relations present now — PrepareBulk runs before the
  // first IND application, when only level-0 conjuncts exist — is exactly
  // the set of INDs that can ever fire, in either core. Pruned INDs get no
  // mask bit and no witness group: the scalar oracle never steps them
  // either, so the bit-identical parity contract is preserved (differential
  // proof in tests/reliance_test.cc).
  std::vector<bool> present(catalog_->num_relations(), false);
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) present[c.fact.relation] = true;
  }
  const SigmaGraph graph(*deps_, *catalog_);
  const std::vector<bool> reachable = graph.ReachableInds(present);

  std::set<std::pair<RelationId, std::vector<uint32_t>>> all_projections;
  std::map<std::pair<RelationId, std::vector<uint32_t>>, uint32_t> group_index;
  for (uint32_t k = 0; k < inds.size(); ++k) {
    const InclusionDependency& ind = inds[k];
    all_projections.emplace(ind.rhs_relation, ind.rhs_columns);
    if (!reachable[k]) {
      ++stats_.inds_pruned;
      continue;
    }
    std::vector<uint64_t>& mask = b.applicable_mask[ind.lhs_relation];
    if (mask.empty()) mask.assign(words, 0);
    mask[k / 64] |= uint64_t{1} << (k % 64);
    auto [it, inserted] = group_index.emplace(
        std::make_pair(ind.rhs_relation, ind.rhs_columns),
        static_cast<uint32_t>(b.groups.size()));
    if (inserted) {
      b.groups.push_back(
          BulkState::WitnessGroup{ind.rhs_relation, ind.rhs_columns, {}});
    }
    b.group_of_ind[k] = it->second;
    b.ind_has_fresh_columns[k] =
        ind.width() < catalog_->arity(ind.rhs_relation);
  }
  stats_.witness_groups_pruned = all_projections.size() - b.groups.size();
  b.groups_of_relation.assign(catalog_->num_relations(), {});
  for (uint32_t g = 0; g < b.groups.size(); ++g) {
    b.groups_of_relation[b.groups[g].relation].push_back(g);
  }
  b.witness_dirty = true;
}

void Chase::AddToWitnessGroups(const ChaseConjunct& conjunct) {
  for (uint32_t g : bulk_->groups_of_relation[conjunct.fact.relation]) {
    BulkState::WitnessGroup& group = bulk_->groups[g];
    std::vector<Term> projection;
    projection.reserve(group.columns.size());
    for (uint32_t col : group.columns) {
      projection.push_back(conjunct.fact.terms[col]);
    }
    group.index[std::move(projection)].emplace(conjunct.fact, conjunct.id);
  }
}

void Chase::RebuildWitnessGroups() {
  ++stats_.index_rebuilds;
  for (BulkState::WitnessGroup& group : bulk_->groups) group.index.clear();
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) AddToWitnessGroups(c);
  }
  bulk_->witness_dirty = false;
}

bool Chase::BulkHasPendingWork(uint32_t level) const {
  const size_t words = considered_.words_per_row();
  for (const ChaseConjunct& c : conjuncts_) {
    if (!c.alive || c.level >= level) continue;
    const std::vector<uint64_t>& mask =
        bulk_->applicable_mask[c.fact.relation];
    if (mask.empty()) continue;
    const uint64_t* row = considered_.Row(c.id);
    for (size_t w = 0; w < words; ++w) {
      if ((mask[w] & ~(row != nullptr ? row[w] : 0)) != 0) return true;
    }
  }
  return false;
}

Result<bool> Chase::RunLevelBatch(uint32_t effective) {
  BulkState& b = *bulk_;
  const std::vector<InclusionDependency>& inds = deps_->inds();
  if (inds.empty()) return false;
  const size_t words = considered_.words_per_row();

  // --- Retain phase: rebuild witnesses if stale, collect the frontier. ----
  const SteadyClock::time_point retain_start = SteadyClock::now();
  if (b.witness_dirty) RebuildWitnessGroups();

  // The frontier: alive conjuncts at the minimum level below `effective`
  // that still have unconsidered applicable INDs. Once this sweep starts,
  // the frontier is stable — every mint lands at frontier_level + 1, and an
  // FD merge aborts the sweep — so the scalar core's (level, fact, id, ind)
  // pending order linearizes to: frontier sorted by (fact, id), pending INDs
  // ascending within each conjunct. That is exactly the order below.
  uint32_t frontier_level = std::numeric_limits<uint32_t>::max();
  std::vector<uint64_t> frontier;
  for (const ChaseConjunct& c : conjuncts_) {
    if (!c.alive || c.level >= effective || c.level > frontier_level) continue;
    const std::vector<uint64_t>& mask = b.applicable_mask[c.fact.relation];
    if (mask.empty()) continue;
    const uint64_t* row = considered_.Row(c.id);
    bool pending = false;
    for (size_t w = 0; w < words && !pending; ++w) {
      pending = (mask[w] & ~(row != nullptr ? row[w] : 0)) != 0;
    }
    if (!pending) continue;
    if (c.level < frontier_level) {
      frontier_level = c.level;
      frontier.clear();
    }
    frontier.push_back(c.id);
  }
  if (frontier.empty()) {
    stats_.retain_ms += MsSince(retain_start);
    return false;
  }
  std::sort(frontier.begin(), frontier.end(), [&](uint64_t x, uint64_t y) {
    const Fact& fx = conjuncts_[IndexOfId(x)].fact;
    const Fact& fy = conjuncts_[IndexOfId(y)].fact;
    if (fx != fy) return fx < fy;
    return x < y;
  });
  ++stats_.bulk_batches;
  stats_.max_batch_rows =
      std::max<uint64_t>(stats_.max_batch_rows, frontier.size());
  stats_.retain_ms += MsSince(retain_start);

  // --- Join phase: apply every pending IND across the frontier. -----------
  // Per-IND columnar accumulators; whatever was minted is flushed into
  // segments_ on every exit path (including aborts — those mints happened).
  std::vector<ColumnSegment> acc(inds.size());
  struct SweepGuard {
    Chase* chase;
    std::vector<ColumnSegment>* acc;
    SteadyClock::time_point join_start = SteadyClock::now();
    ~SweepGuard() {
      for (ColumnSegment& seg : *acc) {
        if (seg.rows() == 0) continue;
        ++chase->stats_.segments_built;
        chase->segments_.Add(std::move(seg));
      }
      chase->stats_.join_ms += MsSince(join_start);
    }
  } sweep_guard{this, &acc};

  std::vector<uint32_t> pending_inds;
  std::vector<Term> x_values;
  for (const uint64_t source_id : frontier) {
    // Snapshot this conjunct's pending INDs up front: Set() below mutates
    // the considered row while we iterate. The fact is copied because
    // conjuncts_ may reallocate on push_back; it cannot change value
    // mid-sweep (a merge would have aborted the sweep first).
    const Fact source_fact = conjuncts_[IndexOfId(source_id)].fact;
    const std::vector<uint64_t>& mask = b.applicable_mask[source_fact.relation];
    const uint64_t* row = considered_.Row(source_id);
    pending_inds.clear();
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = mask[w] & ~(row != nullptr ? row[w] : 0);
      while (bits != 0) {
        pending_inds.push_back(static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(__builtin_ctzll(bits))));
        bits &= bits - 1;
      }
    }
    for (const uint32_t k : pending_inds) {
      // Same per-step sequence as the scalar OneIndStep: poll, count the
      // step, check max_steps, mark considered, probe, mint, check
      // max_conjuncts — divergence in any of these would break id parity.
      CQCHASE_RETURN_IF_ERROR(PollControl());
      ++stats_.steps;
      ++stats_.bulk_ind_applications;
      if (stats_.steps > limits_.max_steps) {
        return Status::ResourceExhausted(
            StrCat("chase exceeded max_steps=", limits_.max_steps));
      }
      considered_.Set(k, source_id);
      const InclusionDependency& ind = inds[k];
      x_values.clear();
      for (uint32_t c : ind.lhs_columns) {
        x_values.push_back(source_fact.terms[c]);
      }

      // Witness probe against the shared (rhs_relation, rhs_columns) group:
      // identical contents to the scalar per-IND witness_index_[k], kept
      // current within the sweep by AddToWitnessGroups at each mint (a later
      // frontier row may be witnessed by an earlier in-sweep mint).
      BulkState::WitnessGroup& group = b.groups[b.group_of_ind[k]];
      std::optional<uint64_t> witness;
      auto it = group.index.find(x_values);
      if (it != group.index.end() && !it->second.empty()) {
        witness = it->second.begin()->second;  // min (fact, id)
      }
      if (variant_ == ChaseVariant::kRequired ||
          (witness.has_value() && !b.ind_has_fresh_columns[k])) {
        if (witness.has_value()) {
          MarkIndUsed(k);
          arcs_.push_back(ChaseArc{source_id, *witness, k, /*cross=*/true});
          continue;
        }
      }

      // IND CHASE RULE, same mint sequence (and thus NDV id sequence) as
      // the scalar core.
      const uint32_t new_level = frontier_level + 1;
      Fact created;
      created.relation = ind.rhs_relation;
      created.terms.resize(catalog_->arity(ind.rhs_relation));
      for (size_t i = 0; i < ind.rhs_columns.size(); ++i) {
        created.terms[ind.rhs_columns[i]] = x_values[i];
      }
      for (uint32_t col = 0; col < created.terms.size(); ++col) {
        if (!created.terms[col].is_valid()) {
          created.terms[col] = ndv_shard_.MakeChaseNdv(
              NdvProvenance{col, source_id, k, new_level});
        }
      }
      if (conjuncts_.size() >= limits_.max_conjuncts) {
        return Status::ResourceExhausted(
            StrCat("chase exceeded max_conjuncts=", limits_.max_conjuncts));
      }
      const uint64_t new_id = next_id_++;
      ColumnSegment& seg = acc[k];
      if (seg.rows() == 0) {
        seg.level = new_level;
        seg.ind_index = k;
        seg.relation = ind.rhs_relation;
      }
      seg.AppendRow(created, new_id, source_id);
      conjuncts_.push_back(ChaseConjunct{new_id, std::move(created), new_level,
                                         /*alive=*/true, source_id, k});
      MarkIndUsed(k);
      arcs_.push_back(ChaseArc{source_id, new_id, k, /*cross=*/false});
      AddToWitnessGroups(conjuncts_.back());
      fd_queue_.push_back(new_id);

      // Incremental FD probe after each mint — the point in the scalar
      // interleaving where RunFdPhase sees this conjunct. A firing merge
      // mutates facts (witness_dirty) or empties the query; either way the
      // frontier is invalid: abort the sweep, the caller restarts it.
      if (!deps_->fds().empty()) {
        CQCHASE_RETURN_IF_ERROR(RunFdPhase());
        if (outcome_ == ChaseOutcome::kEmptyQuery || b.witness_dirty) {
          return true;
        }
      }
    }
  }
  return true;
}

Result<ChaseOutcome> Chase::BulkExpandToLevel(uint32_t effective) {
  if (bulk_ == nullptr) PrepareBulk();
  while (true) {
    CQCHASE_RETURN_IF_ERROR(PollControl());
    CQCHASE_RETURN_IF_ERROR(RunFdPhase());
    if (outcome_ == ChaseOutcome::kEmptyQuery) return outcome_;
    CQCHASE_ASSIGN_OR_RETURN(bool progressed, RunLevelBatch(effective));
    if (!progressed) break;
  }
  // No work below `effective`. Saturated iff nothing remains at any level —
  // same determination as the scalar core, via masks instead of pending_.
  outcome_ = BulkHasPendingWork(std::numeric_limits<uint32_t>::max())
                 ? ChaseOutcome::kTruncated
                 : ChaseOutcome::kSaturated;
  return outcome_;
}

}  // namespace cqchase

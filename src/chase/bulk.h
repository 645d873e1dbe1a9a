// Working state of the set-at-a-time (bulk) chase core.
//
// The scalar core linearizes the paper's selection rule as a std::set of
// PendingStep entries — one ordered insert (with a Fact copy) per applicable
// (conjunct, IND) pair, ~|Σ| of them per minted conjunct. The bulk core
// exploits a structural fact about the IND chase: once the chase starts
// processing level L, the level-L frontier is fixed — every IND application
// mints at level L+1, and only an FD merge (which aborts the sweep) can
// change level-L facts. So instead of maintaining a pending set at all, it
// recomputes the frontier per level from two dense structures:
//
//  * applicable_mask: per-relation bitmask of INDs whose lhs is that
//    relation. AND-NOT against the conjunct's ConsideredSet row gives its
//    pending INDs in a few word ops.
//  * witness groups: one (projection -> witnesses) index per DISTINCT
//    (rhs_relation, rhs_columns) pair, shared by all INDs with that rhs —
//    wide Σ typically has far fewer distinct projections than INDs, so a
//    minted conjunct updates a handful of groups instead of |Σ| per-IND
//    witness maps.
//
// The sweep itself visits the frontier in (fact, id) order applying pending
// INDs ascending — exactly the scalar core's (level, fact, id, ind) order —
// and flushes one columnar ColumnSegment per (level, IND) into the chase's
// SegmentStore. See Chase::RunLevelBatch in bulk.cc for the equivalence
// argument, and tests/chase_core_parity_test.cc for the differential proof.
#ifndef CQCHASE_CHASE_BULK_H_
#define CQCHASE_CHASE_BULK_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cq/fact.h"
#include "schema/catalog.h"
#include "symbols/term.h"

namespace cqchase {

// Per-chase working state built by Chase::PrepareBulk from the immutable Σ.
// Rebuilt only when Σ-visible structure changes (never mid-chase); the
// witness indexes inside are additionally rebuilt whenever witness_dirty is
// set. Not thread-safe: owned by one Chase, which is driven by one thread at a
// time.
struct BulkState {
  // group_of_ind value for INDs pruned at PrepareBulk time: statically
  // unreachable from the initial relations per the Σ reliance analysis
  // (analysis/reliance.h), so they get no mask bit and no witness group.
  // Never dereferenced — a pruned IND's lhs relation never holds a fact, so
  // no sweep ever selects it.
  static constexpr uint32_t kPrunedGroup = ~uint32_t{0};

  // Per-relation bitmask over IND indices (ConsideredSet row layout): bit k
  // set iff inds()[k].lhs_relation is that relation AND the IND survived
  // reliance pruning. Empty vector = no applicable INDs for the relation.
  std::vector<std::vector<uint64_t>> applicable_mask;

  // One witness index per distinct (rhs_relation, rhs_columns). The inner
  // set is ordered (fact, id) so begin() is the paper's deterministic
  // witness — same invariant as the scalar witness_index_.
  struct WitnessGroup {
    RelationId relation = 0;
    std::vector<uint32_t> columns;
    std::map<std::vector<Term>, std::set<std::pair<Fact, uint64_t>>> index;
  };
  std::vector<WitnessGroup> groups;
  std::vector<uint32_t> group_of_ind;  // IND index -> groups index
  std::vector<std::vector<uint32_t>> groups_of_relation;

  // Per-IND: does the rhs have columns outside rhs_columns (fresh NDVs)?
  std::vector<bool> ind_has_fresh_columns;

  // Set by Chase::SubstituteTerm: an FD merge mutated facts, so the groups
  // (and any in-flight frontier) are stale. The current sweep aborts and the
  // next one rebuilds.
  bool witness_dirty = true;
};

}  // namespace cqchase

#endif  // CQCHASE_CHASE_BULK_H_

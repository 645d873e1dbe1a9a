#include "core/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace cqchase {

namespace {

// Murmur3's 64-bit finalizer: linear probing needs every key bit to reach
// the low bits.
uint64_t MixKey(RelationId relation, uint32_t column, Term term) {
  uint64_t x = (static_cast<uint64_t>(relation) << 40) ^
               (static_cast<uint64_t>(column) << 34) ^
               (static_cast<uint64_t>(term.kind()) << 32) ^ term.id();
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

TargetIndex::TargetIndex(const std::vector<Fact>& facts) {
  for (const Fact& f : facts) Add(f);
}

void TargetIndex::Append(Chain& chain, uint32_t fact) {
  const uint32_t node = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{fact, kNil});
  if (chain.size == 0) {
    chain.head = node;
  } else {
    nodes_[chain.tail].next = node;
  }
  chain.tail = node;
  ++chain.size;
}

size_t TargetIndex::Probe(RelationId relation, uint32_t column,
                          Term term) const {
  const size_t mask = slots_.size() - 1;
  size_t i = MixKey(relation, column, term) & mask;
  while (true) {
    const Slot& slot = slots_[i];
    if (slot.chain.size == 0 || (slot.relation == relation &&
                                 slot.column == column && slot.term == term)) {
      return i;
    }
    i = (i + 1) & mask;
  }
}

void TargetIndex::GrowSlots() {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.resize(old.empty() ? 64 : old.size() * 2);
  for (const Slot& slot : old) {
    if (slot.chain.size != 0) {
      slots_[Probe(slot.relation, slot.column, slot.term)] = slot;
    }
  }
}

void TargetIndex::Add(const Fact& fact) {
  const uint32_t id = static_cast<uint32_t>(relation_.size());
  relation_.push_back(fact.relation);
  terms_.insert(terms_.end(), fact.terms.begin(), fact.terms.end());
  offset_.push_back(static_cast<uint32_t>(terms_.size()));
  if (fact.relation >= by_relation_.size()) {
    by_relation_.resize(fact.relation + 1);
  }
  Append(by_relation_[fact.relation], id);
  // Positional posting lists: (relation, column, term) -> facts. These turn
  // candidate enumeration for a pattern with any constant or already-bound
  // variable from a relation scan into a lookup — the difference between
  // minutes and milliseconds on 10^5-conjunct chase prefixes.
  for (uint32_t col = 0; col < fact.terms.size(); ++col) {
    // Keep the load factor at or below 3/4.
    if (4 * (used_slots_ + 1) > 3 * slots_.size()) GrowSlots();
    Slot& slot = slots_[Probe(fact.relation, col, fact.terms[col])];
    if (slot.chain.size == 0) {
      slot.relation = fact.relation;
      slot.column = col;
      slot.term = fact.terms[col];
      ++used_slots_;
    }
    Append(slot.chain, id);
  }
}

void TargetIndex::Clear() {
  relation_.clear();
  offset_.assign(1, 0);
  terms_.clear();
  nodes_.clear();
  by_relation_.clear();
  slots_.clear();
  used_slots_ = 0;
}

TargetIndex::Postings TargetIndex::OfRelation(RelationId relation) const {
  if (relation >= by_relation_.size()) return Postings();
  return View(by_relation_[relation]);
}

TargetIndex::Postings TargetIndex::At(RelationId relation, uint32_t column,
                                      Term term) const {
  if (slots_.empty()) return Postings();
  return View(slots_[Probe(relation, column, term)].chain);
}

namespace {

class Solver {
 public:
  Solver(const ConjunctiveQuery& source, const TargetIndex& target,
         const std::vector<Term>& target_summary,
         const HomomorphismOptions& options)
      : source_(source),
        target_(target),
        target_summary_(target_summary),
        options_(options) {}

  std::optional<Homomorphism> Run() {
    if (options_.injective) {
      // Source constants map to themselves; a variable mapping onto such a
      // constant would break injectivity on the source's term set.
      for (const Fact& f : source_.conjuncts()) {
        for (Term t : f.terms) {
          if (t.is_constant()) used_images_.insert(t);
        }
      }
      for (Term t : source_.summary()) {
        if (t.is_constant()) used_images_.insert(t);
      }
    }
    // Pin the summary row: source summary maps pointwise onto the target
    // summary. Constants must match themselves.
    const auto& src_summary = source_.summary();
    if (src_summary.size() != target_summary_.size()) return std::nullopt;
    for (size_t i = 0; i < src_summary.size(); ++i) {
      if (!Bind(src_summary[i], target_summary_[i])) return std::nullopt;
    }
    images_.assign(source_.conjuncts().size(), SIZE_MAX);
    assigned_.assign(source_.conjuncts().size(), false);
    if (!Search(0)) return std::nullopt;
    Homomorphism h;
    h.mapping = binding_;
    h.conjunct_images = images_;
    return h;
  }

 private:
  // Attempts to record t -> image; false on conflict (or non-injectivity in
  // injective mode). Constants only map to themselves.
  bool Bind(Term t, Term image) {
    if (t.is_constant()) return t == image;
    auto it = binding_.find(t);
    if (it != binding_.end()) return it->second == image;
    if (options_.injective) {
      if (used_images_.count(image) > 0) return false;
      used_images_.insert(image);
    }
    binding_.emplace(t, image);
    trail_.push_back(t);
    return true;
  }

  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      Term t = trail_.back();
      trail_.pop_back();
      if (options_.injective) used_images_.erase(binding_[t]);
      binding_.erase(t);
    }
  }

  // Can the source conjunct map onto the target fact under current binding?
  bool Compatible(const Fact& pattern, uint32_t fact) const {
    if (pattern.relation != target_.relation(fact) ||
        pattern.terms.size() != target_.arity(fact)) {
      return false;
    }
    // Check constants and bound variables; also repeated variables within
    // the pattern must match equal target positions.
    const Term* terms = target_.terms(fact);
    for (size_t i = 0; i < pattern.terms.size(); ++i) {
      Term p = pattern.terms[i];
      Term f = terms[i];
      if (p.is_constant()) {
        if (p != f) return false;
        continue;
      }
      auto bound = binding_.find(p);
      if (bound != binding_.end()) {
        if (bound->second != f) return false;
        continue;
      }
      for (size_t j = 0; j < i; ++j) {
        if (pattern.terms[j] == p && terms[j] != f) return false;
      }
    }
    return true;
  }

  // The tightest available pre-filtered candidate list for a pattern: the
  // smallest posting list over its constant / bound-variable positions, or
  // the whole relation when every position is a free variable. Entries
  // still need a Compatible() check.
  TargetIndex::Postings Candidates(const Fact& pattern) const {
    TargetIndex::Postings best = target_.OfRelation(pattern.relation);
    for (uint32_t col = 0; col < pattern.terms.size(); ++col) {
      Term p = pattern.terms[col];
      Term pinned = Term::Invalid();
      if (p.is_constant()) {
        pinned = p;
      } else {
        auto it = binding_.find(p);
        if (it != binding_.end()) pinned = it->second;
      }
      if (!pinned.is_valid()) continue;
      TargetIndex::Postings list = target_.At(pattern.relation, col, pinned);
      if (list.empty()) return list;
      if (list.size() < best.size()) best = list;
    }
    return best;
  }

  // Number of candidate target facts for the source conjunct, capped at
  // `cap` for speed.
  size_t CountCandidates(size_t conjunct_index, size_t cap) const {
    const Fact& pattern = source_.conjuncts()[conjunct_index];
    size_t count = 0;
    for (uint32_t fi : Candidates(pattern)) {
      if (Compatible(pattern, fi)) {
        if (++count >= cap) return count;
      }
    }
    return count;
  }

  bool Search(size_t depth) {
    if (options_.max_nodes != 0 && ++nodes_ > options_.max_nodes) {
      exhausted_ = true;
      return false;
    }
    if (depth == source_.conjuncts().size()) return true;
    // Most-constrained-first: pick the unassigned conjunct with the fewest
    // compatible target facts. The count is capped: the heuristic needs
    // "which is smallest", not exact sizes, and uncapped counting costs a
    // relation scan per conjunct per node on large chase prefixes.
    constexpr size_t kCountCap = 32;
    size_t best = SIZE_MAX;
    size_t best_count = SIZE_MAX;
    for (size_t i = 0; i < source_.conjuncts().size(); ++i) {
      if (assigned_[i]) continue;
      size_t c = CountCandidates(i, std::min(best_count, kCountCap));
      if (c < best_count) {
        best_count = c;
        best = i;
        if (c == 0) return false;  // dead end
      }
    }
    assert(best != SIZE_MAX);
    const Fact& pattern = source_.conjuncts()[best];
    assigned_[best] = true;
    for (uint32_t fi : Candidates(pattern)) {
      if (!Compatible(pattern, fi)) continue;
      const Term* terms = target_.terms(fi);
      size_t mark = trail_.size();
      bool ok = true;
      for (size_t i = 0; i < pattern.terms.size() && ok; ++i) {
        ok = Bind(pattern.terms[i], terms[i]);
      }
      if (ok) {
        images_[best] = fi;
        if (Search(depth + 1)) return true;
      }
      UndoTo(mark);
    }
    assigned_[best] = false;
    return false;
  }

  const ConjunctiveQuery& source_;
  const TargetIndex& target_;
  const std::vector<Term>& target_summary_;
  const HomomorphismOptions& options_;

  std::unordered_map<Term, Term> binding_;
  std::unordered_set<Term> used_images_;
  std::vector<Term> trail_;
  std::vector<size_t> images_;
  std::vector<bool> assigned_;
  size_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const TargetIndex& target,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options) {
  if (source.is_empty_query()) return std::nullopt;
  return Solver(source, target, target_summary, options).Run();
}

std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options) {
  if (source.is_empty_query()) return std::nullopt;
  return FindHomomorphism(source, TargetIndex(target_facts), target_summary,
                          options);
}

std::optional<Homomorphism> FindQueryHomomorphism(
    const ConjunctiveQuery& source, const ConjunctiveQuery& target,
    const HomomorphismOptions& options) {
  return FindHomomorphism(source, target.conjuncts(), target.summary(),
                          options);
}

bool QueriesIsomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  if (a.is_empty_query() != b.is_empty_query()) return false;
  if (a.is_empty_query()) return a.summary() == b.summary();
  if (a.conjuncts().size() != b.conjuncts().size()) return false;
  if (a.summary().size() != b.summary().size()) return false;
  HomomorphismOptions inj;
  inj.injective = true;
  return FindQueryHomomorphism(a, b, inj).has_value() &&
         FindQueryHomomorphism(b, a, inj).has_value();
}

}  // namespace cqchase

// Query homomorphisms (Section 2/3 of the paper): symbol mappings that fix
// constants, send each conjunct of the source query onto a target fact, and
// send the source summary row pointwise onto the target summary row.
//
// Deciding existence is NP-complete (Chandra & Merlin); the solver here is a
// backtracking search with relation indexing and dynamic most-constrained
// conjunct selection, which is fast on the structured queries the paper's
// constructions produce. It searches a TargetIndex: callers whose target
// only grows (a chase deepening level by level) keep one index and append
// to it, instead of paying an index build per search.
#ifndef CQCHASE_CORE_HOMOMORPHISM_H_
#define CQCHASE_CORE_HOMOMORPHISM_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cq/fact.h"
#include "cq/query.h"
#include "symbols/term.h"

namespace cqchase {

struct Homomorphism {
  // Image of every source variable (constants map to themselves and are not
  // recorded).
  std::unordered_map<Term, Term> mapping;
  // For source conjunct i, the id of the target fact it was mapped onto
  // (its index in the target fact vector / TargetIndex). Lets callers
  // recover e.g. chase levels of the image.
  std::vector<size_t> conjunct_images;

  // Applies the mapping to a term (identity for constants/unmapped).
  Term Apply(Term t) const {
    if (t.is_constant()) return t;
    auto it = mapping.find(t);
    return it == mapping.end() ? t : it->second;
  }
};

struct HomomorphismOptions {
  // Require the mapping to be injective on source terms (used for
  // isomorphism checks).
  bool injective = false;
  // Upper bound on backtracking nodes; 0 means unlimited. When exceeded the
  // search returns nullopt-with-exhausted via FindHomomorphismBounded.
  size_t max_nodes = 0;
};

// The search target: a facts table plus per-relation and positional
// (relation, column, term) posting lists over it. Facts are addressed by
// uint32_t ids in insertion order, and every posting list is ascending by
// id, so a search over an index grown by appends visits candidates in
// exactly the order a from-scratch index over the same facts would.
// Append-only between Clear()s; searches only read it.
//
// Layout: the facts are flattened into three arrays, and every posting list
// is a chain through one node pool, its (head, tail, size) kept per relation
// and, for positions, in an open-addressing table. Adding a fact costs no
// allocation beyond amortized array growth, and a whole index frees in a
// handful of deallocations.
class TargetIndex {
  struct Node {
    uint32_t fact;
    uint32_t next;
  };

 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  // A posting list: a forward range of fact ids, ascending.
  class Postings {
   public:
    class Iterator {
     public:
      uint32_t operator*() const { return nodes_[at_].fact; }
      Iterator& operator++() {
        at_ = nodes_[at_].next;
        return *this;
      }
      friend bool operator!=(const Iterator& a, const Iterator& b) {
        return a.at_ != b.at_;
      }

     private:
      friend class Postings;
      Iterator(const Node* nodes, uint32_t at) : nodes_(nodes), at_(at) {}
      const Node* nodes_;
      uint32_t at_;
    };

    Iterator begin() const { return Iterator(nodes_, head_); }
    Iterator end() const { return Iterator(nodes_, kNil); }
    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class TargetIndex;
    Postings() = default;
    Postings(const Node* nodes, uint32_t head, uint32_t size)
        : nodes_(nodes), head_(head), size_(size) {}
    const Node* nodes_ = nullptr;
    uint32_t head_ = kNil;
    uint32_t size_ = 0;
  };

  TargetIndex() = default;
  explicit TargetIndex(const std::vector<Fact>& facts);

  // Appends `fact` as id size().
  void Add(const Fact& fact);
  void Clear();

  size_t size() const { return relation_.size(); }
  RelationId relation(uint32_t id) const { return relation_[id]; }
  uint32_t arity(uint32_t id) const { return offset_[id + 1] - offset_[id]; }
  const Term* terms(uint32_t id) const { return &terms_[offset_[id]]; }

  // The facts over `relation`.
  Postings OfRelation(RelationId relation) const;
  // The facts over `relation` carrying `term` in `column`.
  Postings At(RelationId relation, uint32_t column, Term term) const;

 private:
  struct Chain {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t size = 0;
  };
  // One (relation, column, term) key and its chain; empty while size == 0.
  struct Slot {
    RelationId relation = 0;
    uint32_t column = 0;
    Term term;
    Chain chain;
  };

  void Append(Chain& chain, uint32_t fact);
  Postings View(const Chain& chain) const {
    return Postings(nodes_.data(), chain.head, chain.size);
  }
  // The slot holding the key, or the empty slot where it would go. Needs a
  // non-empty table.
  size_t Probe(RelationId relation, uint32_t column, Term term) const;
  void GrowSlots();

  // Facts, flattened: fact i is relation_[i] over
  // terms_[offset_[i], offset_[i + 1]).
  std::vector<RelationId> relation_;
  std::vector<uint32_t> offset_ = {0};
  std::vector<Term> terms_;
  std::vector<Node> nodes_;
  std::vector<Chain> by_relation_;
  std::vector<Slot> slots_;  // power-of-two size, linear probing
  size_t used_slots_ = 0;
};

// Finds a homomorphism from `source` into (`target`, `target_summary`).
// `target_summary` must have the same arity as source.summary(). Returns
// nullopt if none exists.
std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const TargetIndex& target,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options = {});

// The same search over a plain fact vector, through a transient index.
std::optional<Homomorphism> FindHomomorphism(
    const ConjunctiveQuery& source, const std::vector<Fact>& target_facts,
    const std::vector<Term>& target_summary,
    const HomomorphismOptions& options = {});

// Query-to-query convenience: target = q2's conjuncts and summary row.
std::optional<Homomorphism> FindQueryHomomorphism(
    const ConjunctiveQuery& source, const ConjunctiveQuery& target,
    const HomomorphismOptions& options = {});

// True iff the two queries are isomorphic: equal conjunct counts, equal
// summary arity, and injective homomorphisms both ways. This is equality
// "up to a renaming of the variables" — the sense in which chase results
// are unique (Maier–Mendelzon–Sagiv) and Lemma 2's factorization equality
// holds.
bool QueriesIsomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

}  // namespace cqchase

#endif  // CQCHASE_CORE_HOMOMORPHISM_H_

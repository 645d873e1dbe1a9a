// Seeded input generation for the three benchmark workloads. The schema and
// the pool of dependency sets are fixed, the way a service's database and
// its integrity constraints are; the seed draws the query traffic: the
// queries, the planted super-queries and the order in which the pool's Σ
// are visited. The same seed yields the same task sequence (how far into a stream a
// run gets depends on the machine, never which tasks the stream holds).
//
// All inputs come from the library's own generators (src/gen): random
// catalogs and queries, random IND-only and key-based Σ, and planted
// super-queries that are contained by construction.
#ifndef CQBENCH_WORKLOADS_H_
#define CQBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/rng.h"
#include "cq/query.h"
#include "deps/dependency_set.h"
#include "schema/catalog.h"
#include "symbols/symbol_table.h"

namespace cqbench {

using QueryPtr = std::shared_ptr<const cqchase::ConjunctiveQuery>;
using DepsPtr = std::shared_ptr<const cqchase::DependencySet>;

// The catalog and symbol table every query of a run is built against. The
// engine, the oracle and the replay all serve this one universe.
struct Universe {
  std::unique_ptr<cqchase::Catalog> catalog;
  std::unique_ptr<cqchase::SymbolTable> symbols;
};

// One containment question Σ ⊨ Q ⊆∞ Q'. Σ is named by index into the
// workload's Σ table rather than held, so a schema edit can swap the Σ a
// task is asked under.
struct Task {
  QueryPtr q;
  QueryPtr q_prime;
  uint32_t sigma = 0;
  // Q' was planted in a chase prefix of Q under Σ version 0 of its family,
  // so the task is contained by construction under that version.
  bool planted = false;
};

enum class SigmaKind { kIndCyclic, kIndAcyclic, kKeyBasedAcyclic };

// The schema every workload runs against, fixed across seeds the way a
// service serves one database schema: R0(a0, a1), R1(a0, a1, a2),
// R2(a0, a1, a2). The seed draws the query traffic.
// (A seed-drawn catalog made a run's cost hinge on one draw of arities.)
Universe MakeUniverse();

// A fixed Σ pool: `count` dependency sets drawn over the catalog from the
// constant `pool_seed`, cycling through `kinds`.
std::vector<DepsPtr> SigmaPool(const cqchase::Catalog& catalog,
                               const std::vector<SigmaKind>& kinds, size_t count,
                               uint64_t pool_seed = 20261017);

// Draws one Σ of `kind` over the catalog. IND-only sets draw three width-1
// INDs, key-based sets key size 1 and four INDs; the cyclic kind redraws
// until the IND graph has a cycle, the acyclic kinds drop every IND that
// would close one.
cqchase::DependencySet DrawSigma(cqchase::Rng& rng,
                                 const cqchase::Catalog& catalog,
                                 SigmaKind kind);

// `q` with every variable renamed (fresh names under `prefix`, kinds kept,
// constants fixed) and its conjuncts shuffled: an isomorphic copy.
cqchase::ConjunctiveQuery IsomorphicCopy(const cqchase::ConjunctiveQuery& q,
                                         cqchase::SymbolTable& symbols,
                                         cqchase::Rng& rng,
                                         const std::string& prefix);

// An exact (non-canonical) rendering of one task under `deps`: identical
// strings mean identical inputs. Used to compare two generations of a seed.
std::string ExactTaskText(const Task& task, const cqchase::DependencySet& deps,
                          const cqchase::Catalog& catalog);

// Endless stream of distinct tasks over a Σ pool. Each batch takes the next
// kQueries Σ in a seed-shuffled visiting order of the pool (reshuffled every
// pass, so each pass visits every Σ once), draws one query Q (3 conjuncts)
// over each, and asks each Q against kAsks different Q' in ask-major order
// (Q0 ... Q15 Q0 ...), so the asks of one Q sit kQueries requests apart:
// inside the engine's 32-entry chase-prefix cache, and far enough apart that
// a resumed ask seldom waits on its prefix's first asker. Per Q, in ask
// order: a random two-conjunct Q' (whose ask usually builds and deepens the
// chase), two planted Q', a random single-conjunct Q' (the streaming route
// when Σ is IND-only) and a shallow planted Q'. The later asks resume the
// first one's prefix; most asks are such resumes, so the median request
// sits among them rather than in the gap between resumes and chase builds.
// No canonical task key repeats across the stream.
class TaskStream {
 public:
  static constexpr size_t kQueries = 16;
  static constexpr size_t kAsks = 5;

  TaskStream(Universe* universe, uint64_t seed, std::vector<DepsPtr> pool,
             const std::string& tag);

  void NextBatch(std::vector<Task>* tasks);

  // Appends one task over pool Σ `sigma` (a planted or random Q'
  // alternately), skipping canonical repeats.
  void NextTaskOver(uint32_t sigma, std::vector<Task>* tasks);

  const std::vector<DepsPtr>& sigmas() const { return pool_; }

 private:
  bool Fresh(const Task& task, const cqchase::DependencySet& deps);
  QueryPtr RandomQ(size_t conjuncts, size_t vars);
  uint32_t NextSigma();

  Universe* universe_;
  cqchase::Rng rng_;
  std::vector<DepsPtr> pool_;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
  std::string tag_;
  uint64_t names_ = 0;
  std::unordered_set<std::string> seen_keys_;
};

}  // namespace cqbench

#endif  // CQBENCH_WORKLOADS_H_

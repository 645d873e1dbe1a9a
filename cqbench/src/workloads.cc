#include "workloads.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "base/string_util.h"
#include "chase/chase.h"
#include "engine/canonical.h"
#include "gen/generators.h"

namespace cqbench {

using cqchase::ConjunctiveQuery;
using cqchase::DependencySet;
using cqchase::Fact;
using cqchase::Rng;
using cqchase::StrCat;
using cqchase::Term;

Universe MakeUniverse() {
  Universe u;
  u.catalog = std::make_unique<cqchase::Catalog>();
  const std::vector<std::vector<std::string>> relations = {
      {"a0", "a1"}, {"a0", "a1", "a2"}, {"a0", "a1", "a2"}};
  for (size_t r = 0; r < relations.size(); ++r) {
    (void)u.catalog->AddRelation(StrCat("R", r), relations[r]);
  }
  u.symbols = std::make_unique<cqchase::SymbolTable>();
  return u;
}

DependencySet DrawSigma(Rng& rng, const cqchase::Catalog& catalog,
                        SigmaKind kind) {
  auto draw = [&] {
    if (kind == SigmaKind::kKeyBasedAcyclic) {
      cqchase::RandomKeyBasedParams kp;
      kp.key_size = 1;
      kp.num_inds = 4;
      return cqchase::RandomKeyBasedDeps(rng, catalog, kp);
    }
    cqchase::RandomIndParams ip;
    ip.count = 3;
    ip.width = 1;
    return cqchase::RandomIndOnlyDeps(rng, catalog, ip);
  };
  DependencySet deps = draw();
  if (kind == SigmaKind::kIndCyclic) {
    // Rejection sampling, bounded: a catalog that cannot host a cycle keeps
    // its last draw.
    for (int attempt = 0; attempt < 64 && deps.IndGraphAcyclic(catalog); ++attempt) {
      deps = draw();
    }
    return deps;
  }
  // Acyclic kinds: keep the FDs and every IND, in draw order, that does not
  // close a cycle of the IND graph (so the chase of any query is finite).
  DependencySet acyclic;
  for (const auto& fd : deps.fds()) (void)acyclic.AddFd(catalog, fd);
  for (const auto& ind : deps.inds()) {
    DependencySet trial = acyclic;
    (void)trial.AddInd(catalog, ind);
    if (trial.IndGraphAcyclic(catalog)) acyclic = std::move(trial);
  }
  return acyclic;
}

std::vector<DepsPtr> SigmaPool(const cqchase::Catalog& catalog,
                               const std::vector<SigmaKind>& kinds, size_t count,
                               uint64_t pool_seed) {
  Rng rng(pool_seed);
  std::vector<DepsPtr> pool;
  for (size_t i = 0; i < count; ++i) {
    pool.push_back(std::make_shared<const DependencySet>(
        DrawSigma(rng, catalog, kinds[i % kinds.size()])));
  }
  return pool;
}

ConjunctiveQuery IsomorphicCopy(const ConjunctiveQuery& q,
                                cqchase::SymbolTable& symbols, Rng& rng,
                                const std::string& prefix) {
  std::unordered_map<Term, Term> rename;
  auto image = [&](Term t) {
    if (t.is_constant()) return t;
    auto it = rename.find(t);
    if (it != rename.end()) return it->second;
    const std::string name = StrCat(prefix, rename.size());
    Term fresh = t.is_dist_var() ? symbols.InternDistVar(name)
                                 : symbols.InternNondistVar(name);
    rename.emplace(t, fresh);
    return fresh;
  };
  std::vector<Term> summary;
  for (Term t : q.summary()) summary.push_back(image(t));
  std::vector<Fact> facts;
  for (const Fact& f : q.conjuncts()) {
    Fact g;
    g.relation = f.relation;
    for (Term t : f.terms) g.terms.push_back(image(t));
    facts.push_back(std::move(g));
  }
  std::shuffle(facts.begin(), facts.end(), rng.engine());
  ConjunctiveQuery out(&q.catalog(), &symbols);
  for (Fact& f : facts) out.AddConjunct(std::move(f));
  out.SetSummary(summary);
  return out;
}

std::string ExactTaskText(const Task& task, const DependencySet& deps,
                          const cqchase::Catalog& catalog) {
  return StrCat(task.q->ToString(), " | ", task.q_prime->ToString(), " | ",
                deps.ToString(catalog));
}

TaskStream::TaskStream(Universe* universe, uint64_t seed,
                       std::vector<DepsPtr> pool, const std::string& tag)
    : universe_(universe),
      rng_(seed * 0xD1B54A32D192ED03ull + 101),
      pool_(std::move(pool)),
      tag_(tag) {
  for (uint32_t i = 0; i < pool_.size(); ++i) order_.push_back(i);
  pos_ = order_.size();  // shuffle on first use
}

uint32_t TaskStream::NextSigma() {
  if (pos_ == order_.size()) {
    std::shuffle(order_.begin(), order_.end(), rng_.engine());
    pos_ = 0;
  }
  return order_[pos_++];
}

QueryPtr TaskStream::RandomQ(size_t conjuncts, size_t vars) {
  cqchase::RandomQueryParams qp;
  qp.num_conjuncts = conjuncts;
  qp.num_vars = vars;
  qp.name_prefix = StrCat(tag_, names_++, "_");
  return std::make_shared<const ConjunctiveQuery>(cqchase::RandomQuery(
      rng_, *universe_->catalog, *universe_->symbols, qp));
}

bool TaskStream::Fresh(const Task& task, const DependencySet& deps) {
  return seen_keys_
      .insert(cqchase::CanonicalTaskKey(*task.q, *task.q_prime, deps,
                                        cqchase::ChaseVariant::kRequired))
      .second;
}

void TaskStream::NextBatch(std::vector<Task>* tasks) {
  std::vector<std::vector<Task>> per_query;
  for (size_t qi = 0; qi < kQueries; ++qi) {
    const uint32_t sigma = NextSigma();
    const DependencySet& deps = *pool_[sigma];
    QueryPtr q = RandomQ(3, 5);
    std::vector<Task> asks;
    for (size_t ai = 0; ai < kAsks; ++ai) {
      Task t;
      t.q = q;
      t.sigma = sigma;
      if (ai == 0 || ai == 3) {
        t.q_prime = ai == 0 ? RandomQ(2, 4) : RandomQ(1, 3);
      } else {
        // Planted: (extra conjuncts, chase depth) of (1, 2), (2, 3), (0, 1).
        const size_t extra = ai == 1 ? 1 : ai == 2 ? 2 : 0;
        const uint32_t depth = ai == 1 ? 2 : ai == 2 ? 3 : 1;
        cqchase::Result<ConjunctiveQuery> planted = cqchase::PlantedSuperQuery(
            rng_, *q, deps, *universe_->symbols, extra, depth);
        if (!planted.ok()) continue;  // Q unsatisfiable under Σ: no plant
        t.q_prime = std::make_shared<const ConjunctiveQuery>(*std::move(planted));
        t.planted = true;
      }
      if (Fresh(t, deps)) asks.push_back(std::move(t));
    }
    per_query.push_back(std::move(asks));
  }
  for (size_t ai = 0; ai < kAsks; ++ai) {
    for (const std::vector<Task>& asks : per_query) {
      if (ai < asks.size()) tasks->push_back(asks[ai]);
    }
  }
}

void TaskStream::NextTaskOver(uint32_t sigma, std::vector<Task>* tasks) {
  const DependencySet& deps = *pool_[sigma];
  for (int attempt = 0; attempt < 16; ++attempt) {
    Task t;
    t.q = RandomQ(3, 5);
    t.sigma = sigma;
    if (names_ % 2 == 0) {
      cqchase::Result<ConjunctiveQuery> planted = cqchase::PlantedSuperQuery(
          rng_, *t.q, deps, *universe_->symbols, /*extra_conjuncts=*/1,
          /*chase_depth=*/2);
      if (!planted.ok()) continue;
      t.q_prime = std::make_shared<const ConjunctiveQuery>(*std::move(planted));
      t.planted = true;
    } else {
      t.q_prime = RandomQ(2, 4);
    }
    if (Fresh(t, deps)) {
      tasks->push_back(std::move(t));
      return;
    }
  }
}

}  // namespace cqbench

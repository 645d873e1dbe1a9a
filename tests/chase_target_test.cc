// Differential test of the persistent witness-search index
// (ChaseTargetIndex). Synced by delta across deepening levels, rebuilt after
// FD merges, synced at partial levels left by deadline and budget trips, and
// shared by the askers of one cached chase prefix, it must give exactly what
// a from-scratch search over Chase::AliveConjuncts() gives: the same
// verdict, witness images (conjunct ids), witness max level and certificate,
// under both chase cores.
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase.h"
#include "core/certificate.h"
#include "core/containment.h"
#include "core/homomorphism.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "gen/scenarios.h"

namespace cqchase {
namespace {

constexpr ChaseCoreMode kCores[] = {ChaseCoreMode::kScalar,
                                    ChaseCoreMode::kBulk};
constexpr ChaseVariant kVariants[] = {ChaseVariant::kRequired,
                                      ChaseVariant::kOblivious};

std::string Label(const std::string& name, ChaseCoreMode core,
                  ChaseVariant variant) {
  return name + (core == ChaseCoreMode::kScalar ? " scalar" : " bulk") +
         (variant == ChaseVariant::kRequired ? " R" : " O");
}

// queries[0] is Q; the rest are probe Q's: planted ones (contained by
// construction, their witnesses at several depths) and random ones (mostly
// not contained).
void AddProbes(Rng& rng, Scenario& s, size_t planted, size_t random) {
  for (size_t i = 0; i < planted; ++i) {
    Result<ConjunctiveQuery> p = PlantedSuperQuery(
        rng, s.queries[0], s.deps, *s.symbols, /*extra_conjuncts=*/2,
        /*chase_depth=*/static_cast<uint32_t>(1 + i % 3));
    if (p.ok()) s.queries.push_back(std::move(*p));
  }
  for (size_t i = 0; i < random; ++i) {
    RandomQueryParams qp;
    qp.num_conjuncts = 2;
    qp.num_vars = 3;
    qp.num_dist_vars = s.queries[0].summary().size();
    qp.name_prefix = "p" + std::to_string(i) + "_";
    s.queries.push_back(RandomQuery(rng, *s.catalog, *s.symbols, qp));
  }
}

Scenario Parsed(const std::vector<std::pair<std::string, size_t>>& relations,
                const std::string& deps, const std::string& q) {
  Scenario s;
  s.catalog = std::make_unique<Catalog>();
  s.symbols = std::make_unique<SymbolTable>();
  for (const auto& [name, arity] : relations) {
    std::vector<std::string> attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back("a" + std::to_string(i));
    EXPECT_TRUE(s.catalog->AddRelation(name, attrs).ok());
  }
  Result<DependencySet> parsed = ParseDependencies(*s.catalog, deps);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  s.deps = std::move(*parsed);
  Result<ConjunctiveQuery> query = ParseQuery(*s.catalog, *s.symbols, q);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  s.queries.push_back(std::move(*query));
  return s;
}

// Figure 1: cyclic IND-only, infinite under both disciplines.
Scenario CyclicInd(uint64_t seed) {
  Scenario s = Fig1Scenario();
  Rng rng(seed);
  AddProbes(rng, s, 4, 2);
  return s;
}

// An IND graph that is a DAG: the chase saturates.
Scenario AcyclicInd(uint64_t seed) {
  Scenario s = Parsed({{"A", 2}, {"B", 3}, {"C", 2}, {"D", 2}},
                      "A[1] <= B[1]; A[2] <= C[1]; B[2,3] <= C[1,2]; "
                      "C[2] <= D[1]",
                      "ans(x) :- A(x, y), A(y, z)");
  Rng rng(seed);
  AddProbes(rng, s, 4, 2);
  return s;
}

// Random IND-only Σ over a random catalog (usually cyclic).
Scenario RandomInd(uint64_t seed) {
  Scenario s;
  s.catalog = std::make_unique<Catalog>();
  s.symbols = std::make_unique<SymbolTable>();
  Rng rng(seed);
  RandomCatalogParams cp;
  cp.num_relations = 4;
  *s.catalog = RandomCatalog(rng, cp);
  RandomIndParams ip;
  ip.count = 6;
  s.deps = RandomIndOnlyDeps(rng, *s.catalog, ip);
  RandomQueryParams qp;
  qp.num_conjuncts = 3;
  qp.num_vars = 4;
  s.queries.push_back(RandomQuery(rng, *s.catalog, *s.symbols, qp));
  AddProbes(rng, s, 4, 2);
  return s;
}

// Key-based: two O-chase mints into S's key collide at level 1, so the FD
// merges there (the R-chase finds the witness instead); the merged S fact
// then feeds a deeper IND chain.
Scenario KeyMerge(uint64_t seed) {
  Scenario s = Parsed({{"R", 2}, {"T", 2}, {"S", 2}, {"U", 2}},
                      "S: 1 -> 2; R[1] <= S[1]; T[1] <= S[1]; "
                      "S[2] <= U[1]",
                      "ans(x) :- R(x, y), T(x, w)");
  Rng rng(seed);
  AddProbes(rng, s, 4, 2);
  return s;
}

// Width-2 INDs copy Q's y and w into S's key-determined column: the FD then
// merges w into y at level 1 and rewrites T(x, w), a level-0 fact the index
// already holds, under both disciplines.
Scenario OldFactMerge(uint64_t seed) {
  Scenario s = Parsed({{"R", 2}, {"T", 2}, {"S", 2}, {"U", 2}},
                      "S: 1 -> 2; R[1,2] <= S[1,2]; T[1,2] <= S[1,2]; "
                      "S[2] <= U[1]; U[2] <= T[1]",
                      "ans(x) :- R(x, y), T(x, w), U(w, v)");
  Rng rng(seed);
  AddProbes(rng, s, 4, 2);
  return s;
}

// Random key-based Σ: FDs fire mid-chase under the O-chase.
Scenario RandomKeyBased(uint64_t seed) {
  Scenario s;
  s.catalog = std::make_unique<Catalog>();
  s.symbols = std::make_unique<SymbolTable>();
  Rng rng(seed);
  RandomCatalogParams cp;
  cp.num_relations = 4;
  cp.min_arity = 2;
  cp.max_arity = 4;
  *s.catalog = RandomCatalog(rng, cp);
  RandomKeyBasedParams kp;
  kp.num_inds = 6;
  s.deps = RandomKeyBasedDeps(rng, *s.catalog, kp);
  RandomQueryParams qp;
  qp.num_conjuncts = 5;
  qp.num_vars = 5;
  s.queries.push_back(RandomQuery(rng, *s.catalog, *s.symbols, qp));
  AddProbes(rng, s, 4, 2);
  return s;
}

using ScenarioMaker = Scenario (*)(uint64_t);
struct Family {
  ScenarioMaker make;
  const char* name;
  uint64_t seed;
};

std::vector<Family> Families() {
  std::vector<Family> out = {{&CyclicInd, "cyclic-ind", 1},
                             {&AcyclicInd, "acyclic-ind", 2},
                             {&KeyMerge, "key-merge", 3},
                             {&OldFactMerge, "old-fact-merge", 4}};
  for (uint64_t seed = 10; seed < 14; ++seed) {
    out.push_back({&RandomInd, "random-ind", seed});
    out.push_back({&RandomKeyBased, "random-key-based", seed + 20});
  }
  return out;
}

void ExpectSameCertificate(const ContainmentCertificate& got,
                           const ContainmentCertificate& want) {
  EXPECT_EQ(got.q_is_empty, want.q_is_empty);
  EXPECT_EQ(got.roots, want.roots);
  EXPECT_EQ(got.summary, want.summary);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.mapping, want.mapping);
  EXPECT_EQ(got.conjunct_images, want.conjunct_images);
}

// The index (already synced) against a from-scratch search of the same
// chase, for every probe.
void ExpectMatchesFromScratch(const Chase& chase,
                              const ChaseTargetIndex& index,
                              const Scenario& s, ChaseVariant variant) {
  const std::vector<const ChaseConjunct*> alive = chase.AliveConjuncts();
  ASSERT_EQ(index.size(), alive.size());
  std::vector<Fact> facts;
  for (size_t i = 0; i < alive.size(); ++i) {
    ASSERT_EQ(index.ids()[i], alive[i]->id) << "position " << i;
    const uint32_t at = static_cast<uint32_t>(i);
    const Term* terms = index.target().terms(at);
    EXPECT_EQ(index.target().relation(at), alive[i]->fact.relation);
    EXPECT_EQ(std::vector<Term>(terms, terms + index.target().arity(at)),
              alive[i]->fact.terms);
    facts.push_back(alive[i]->fact);
  }
  EXPECT_EQ(index.MaxLevel(chase), chase.MaxAliveLevel());

  ChaseTargetIndex fresh;
  fresh.Sync(chase);
  const bool verifiable = variant == ChaseVariant::kRequired &&
                          CertifiableSigma(s.deps, *s.catalog);
  for (size_t p = 1; p < s.queries.size(); ++p) {
    SCOPED_TRACE("probe " + std::to_string(p));
    const ConjunctiveQuery& probe = s.queries[p];
    std::optional<Homomorphism> want =
        FindHomomorphism(probe, facts, chase.summary());
    std::optional<Homomorphism> got =
        FindHomomorphism(probe, index.target(), chase.summary());
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want.has_value()) continue;
    EXPECT_EQ(got->conjunct_images, want->conjunct_images);
    EXPECT_EQ(got->mapping, want->mapping);
    uint32_t want_level = 0;
    for (size_t fi : want->conjunct_images) {
      want_level = std::max(want_level, alive[fi]->level);
    }
    EXPECT_EQ(index.WitnessMaxLevel(chase, *got), want_level);
    ContainmentCertificate cert =
        ExtractCertificateFromChase(chase, index, *got);
    ExpectSameCertificate(cert,
                          ExtractCertificateFromChase(chase, fresh, *want));
    if (verifiable) {
      Status verified =
          VerifyCertificate(cert, s.queries[0], probe, s.deps, *s.symbols);
      EXPECT_TRUE(verified.ok()) << verified.ToString();
    }
  }
}

Chase MakeChase(const Scenario& s, ChaseCoreMode core, ChaseVariant variant,
                ChaseLimits limits = {}) {
  limits.core = core;
  Chase chase(s.catalog.get(), s.symbols.get(), &s.deps, variant, limits);
  EXPECT_TRUE(chase.Init(s.queries[0]).ok());
  return chase;
}

TEST(ChaseTargetIndexTest, DeltaSyncMatchesFromScratchAtEveryLevel) {
  size_t merge_rebuilds = 0;
  for (const Family& f : Families()) {
    for (ChaseCoreMode core : kCores) {
      for (ChaseVariant variant : kVariants) {
        SCOPED_TRACE(Label(f.name, core, variant) + " seed " +
                     std::to_string(f.seed));
        Scenario s = f.make(f.seed);
        ChaseLimits limits;
        limits.max_conjuncts = 3000;
        Chase chase = MakeChase(s, core, variant, limits);
        ChaseTargetIndex index;
        uint64_t merges_at_first_sync = 0;
        for (uint32_t level = 0; level <= 5; ++level) {
          SCOPED_TRACE("level " + std::to_string(level));
          Result<ChaseOutcome> outcome = chase.ExpandToLevel(level);
          index.Sync(chase);
          if (level == 0) {
            merges_at_first_sync = chase.chase_stats().fd_merges;
          }
          ExpectMatchesFromScratch(chase, index, s, variant);
          if (!outcome.ok() || *outcome != ChaseOutcome::kTruncated) break;
        }
        // Without a merge since the first Sync, every later one was a pure
        // delta; every rebuild past the first came from a merge or clash.
        if (chase.chase_stats().fd_merges == merges_at_first_sync &&
            !chase.is_empty_query()) {
          EXPECT_EQ(index.rebuilds(), 1u);
        }
        merge_rebuilds += index.rebuilds() - 1;
      }
    }
  }
  // The key-based families must have driven the rebuild path.
  EXPECT_GT(merge_rebuilds, 0u);
}

TEST(ChaseTargetIndexTest, FdMergeForcesRebuild) {
  for (ChaseCoreMode core : kCores) {
    for (ChaseVariant variant : kVariants) {
      SCOPED_TRACE(Label("old-fact-merge", core, variant));
      Scenario s = OldFactMerge(4);
      Chase chase = MakeChase(s, core, variant);
      ChaseTargetIndex index;
      index.Sync(chase);
      EXPECT_EQ(index.rebuilds(), 1u);
      const uint64_t merges_before = chase.chase_stats().fd_merges;
      ASSERT_TRUE(chase.ExpandToLevel(1).ok());
      ASSERT_GT(chase.chase_stats().fd_merges, merges_before);
      index.Sync(chase);
      EXPECT_EQ(index.rebuilds(), 2u);
      ExpectMatchesFromScratch(chase, index, s, variant);
      // A deepening without a merge is a pure delta.
      const uint64_t merges = chase.chase_stats().fd_merges;
      ASSERT_TRUE(chase.ExpandToLevel(4).ok());
      index.Sync(chase);
      if (chase.chase_stats().fd_merges == merges) {
        EXPECT_EQ(index.rebuilds(), 2u);
      }
      ExpectMatchesFromScratch(chase, index, s, variant);
    }
  }
}

// A past deadline trips ExpandToLevel at its next clock poll, which comes
// every ChaseControl::kClockPollStride steps: each call advances the chase
// a few steps and leaves the level partial. Syncing at every such point
// (and only at every other one, so deltas span several trips) must still
// match the from-scratch search, up to the completed level.
TEST(ChaseTargetIndexTest, PartialLevelsLeftByDeadlineTrips) {
  for (const Family& f : Families()) {
    for (ChaseCoreMode core : kCores) {
      for (ChaseVariant variant : kVariants) {
        SCOPED_TRACE(Label(f.name, core, variant));
        Scenario s = f.make(f.seed);
        ChaseLimits limits;
        limits.max_conjuncts = 3000;
        Chase chase = MakeChase(s, core, variant, limits);
        ChaseControl expired;
        expired.deadline =
            std::chrono::steady_clock::now() - std::chrono::seconds(1);
        ChaseTargetIndex index;
        size_t trips = 0;
        bool done = false;
        for (uint32_t level = 1; level <= 4 && !done; ++level) {
          while (true) {
            chase.set_control(&expired);
            Result<ChaseOutcome> outcome = chase.ExpandToLevel(level);
            chase.set_control(nullptr);
            if (!outcome.ok() &&
                outcome.status().code() == StatusCode::kDeadlineExceeded) {
              if (++trips % 2 == 0) {
                index.Sync(chase);
                ExpectMatchesFromScratch(chase, index, s, variant);
              }
              continue;
            }
            index.Sync(chase);
            ExpectMatchesFromScratch(chase, index, s, variant);
            done = !outcome.ok() || *outcome != ChaseOutcome::kTruncated;
            break;
          }
        }
        EXPECT_GT(trips, 0u);
      }
    }
  }
}

TEST(ChaseTargetIndexTest, PartialLevelLeftByBudgetTrip) {
  for (size_t max_conjuncts : {4u, 9u, 17u}) {
    for (ChaseCoreMode core : kCores) {
      SCOPED_TRACE("max_conjuncts " + std::to_string(max_conjuncts));
      Scenario s = CyclicInd(1);
      ChaseLimits limits;
      limits.max_conjuncts = max_conjuncts;
      Chase chase = MakeChase(s, core, ChaseVariant::kRequired, limits);
      ChaseTargetIndex index;
      Status tripped = Status::OK();
      for (uint32_t level = 0; level <= 30 && tripped.ok(); ++level) {
        tripped = chase.ExpandToLevel(level).status();
        index.Sync(chase);
        ExpectMatchesFromScratch(chase, index, s, ChaseVariant::kRequired);
      }
      EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
      // A sticky limit re-trips on resume; the index stays exact.
      EXPECT_FALSE(chase.ExpandToLevel(31).ok());
      index.Sync(chase);
      ExpectMatchesFromScratch(chase, index, s, ChaseVariant::kRequired);
    }
  }
}

// --- Engine: a shared prefix resumed by a second asker ---------------------

struct OracleResult {
  bool contained = false;
  std::optional<Homomorphism> witness;
  uint32_t witness_max_level = 0;
  size_t chase_conjuncts = 0;
  uint32_t chase_levels = 0;
  std::optional<ContainmentCertificate> certificate;
};

// The deepening loop as it read before the persistent index: every level
// searches a fresh copy of AliveConjuncts(). Stops at the first witness;
// callers only ask contained questions, so no bound logic is needed.
OracleResult OracleDeepen(Chase& chase, const ConjunctiveQuery& q_prime,
                          uint32_t start_level) {
  OracleResult out;
  for (uint32_t level = start_level; level <= 12; ++level) {
    Result<ChaseOutcome> expanded = chase.ExpandToLevel(level);
    EXPECT_TRUE(expanded.ok());
    if (!expanded.ok()) return out;
    const std::vector<const ChaseConjunct*> alive = chase.AliveConjuncts();
    std::vector<Fact> facts;
    for (const ChaseConjunct* c : alive) facts.push_back(c->fact);
    std::optional<Homomorphism> hom =
        FindHomomorphism(q_prime, facts, chase.summary());
    if (!hom.has_value()) {
      if (*expanded == ChaseOutcome::kSaturated) return out;
      continue;
    }
    out.contained = true;
    out.chase_conjuncts = alive.size();
    out.chase_levels = chase.MaxAliveLevel();
    for (size_t fi : hom->conjunct_images) {
      out.witness_max_level = std::max(out.witness_max_level, alive[fi]->level);
    }
    ChaseTargetIndex fresh;
    fresh.Sync(chase);
    out.certificate = ExtractCertificateFromChase(chase, fresh, *hom);
    out.witness = std::move(hom);
    return out;
  }
  return out;
}

void ExpectSameReport(const ContainmentReport& got, const OracleResult& want) {
  EXPECT_EQ(got.contained, want.contained);
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value());
  if (want.witness.has_value()) {
    EXPECT_EQ(got.witness->conjunct_images, want.witness->conjunct_images);
    EXPECT_EQ(got.witness->mapping, want.witness->mapping);
  }
  EXPECT_EQ(got.witness_max_level, want.witness_max_level);
  EXPECT_EQ(got.chase_conjuncts, want.chase_conjuncts);
  EXPECT_EQ(got.chase_levels, want.chase_levels);
}

// Twin universes: the engine decides in one, the oracle replays in the
// other. Both tables see the same interning and minting history, so NDV
// ids — and hence whole mappings and certificates — compare exactly.
TEST(ChaseTargetIndexTest, SharedPrefixResumedBySecondAsker) {
  const ScenarioMaker makers[] = {&CyclicInd, &AcyclicInd, &RandomInd};
  size_t compared = 0;
  for (ScenarioMaker make : makers) {
    for (ChaseCoreMode core : kCores) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        // The askers' probes: contained, with a witness at chase level 1..4
        // (found in a third copy of the universe), and of two or more
        // conjuncts, so the engine takes the chase route.
        std::vector<size_t> planted;
        {
          Scenario probe = make(seed);
          Chase chase = MakeChase(probe, core, ChaseVariant::kRequired);
          ASSERT_TRUE(chase.ExpandToLevel(4).ok());
          const std::vector<Fact> facts = chase.AliveFacts();
          const ConjunctiveQuery& q = probe.queries[0];
          for (size_t p = 1; p < probe.queries.size(); ++p) {
            const ConjunctiveQuery& qp = probe.queries[p];
            if (qp.conjuncts().size() >= 2 &&
                !FindHomomorphism(qp, q.conjuncts(), q.summary()) &&
                FindHomomorphism(qp, facts, chase.summary())) {
              planted.push_back(p);
            }
          }
        }
        if (planted.size() < 2) continue;
        Scenario s = make(seed);
        Scenario twin = make(seed);
        SCOPED_TRACE(std::string(core == ChaseCoreMode::kScalar ? "scalar"
                                                                : "bulk") +
                     " seed " + std::to_string(seed));
        const size_t first = planted[0];
        const size_t second = planted.back();

        EngineConfig config;
        config.containment.limits.core = core;
        config.containment.limits.max_conjuncts = 20000;
        ContainmentEngine engine(s.catalog.get(), s.symbols.get(), config);
        Result<EngineVerdict> a =
            engine.Check(s.queries[0], s.queries[first], s.deps);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        RequestOptions options;
        options.want_certificate = true;
        Result<EngineOutcome> b =
            engine
                .Submit(ContainmentRequest::Borrow(
                    s.queries[0], s.queries[second], s.deps, options))
                .Get();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_GE(engine.stats().chase_prefix_reuses, 1u);

        ChaseLimits limits = config.containment.limits;
        Chase oracle(twin.catalog.get(), twin.symbols.get(), &twin.deps,
                     config.containment.variant, limits);
        ASSERT_TRUE(oracle.Init(twin.queries[0]).ok());
        OracleResult oa = OracleDeepen(oracle, twin.queries[first], 0);
        ExpectSameReport(a->report, oa);
        const uint32_t resume_at =
            std::min(oracle.MaxAliveLevel(), limits.max_level);
        OracleResult ob = OracleDeepen(oracle, twin.queries[second], resume_at);
        ExpectSameReport(b->verdict.report, ob);
        ASSERT_EQ(b->certificate.has_value(), ob.certificate.has_value());
        if (ob.certificate.has_value()) {
          ExpectSameCertificate(*b->certificate, *ob.certificate);
        }
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 8u);
}

}  // namespace
}  // namespace cqchase

#include "engine/canonical.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "base/string_util.h"

namespace cqchase {

namespace {

// Renders a constant unambiguously: the length prefix delimits the name, so
// names containing quotes/commas/parentheses cannot splice into the
// surrounding key syntax and collide two different constant sequences.
std::string EncodeConstant(const SymbolTable& symbols, Term t) {
  const std::string name = symbols.Name(t);
  return StrCat("c", name.size(), "#", name);
}

// Assigns canonical names on first use: d0,d1,… for DVs, n0,n1,… for NDVs.
// Constants keep their interned names (their identity is shared across the
// whole task and must survive canonicalization).
class Namer {
 public:
  explicit Namer(const SymbolTable& symbols) : symbols_(symbols) {}

  std::string NameOf(Term t) {
    if (t.is_constant()) return EncodeConstant(symbols_, t);
    auto it = names_.find(t);
    if (it != names_.end()) return it->second;
    std::string name = t.is_dist_var() ? StrCat("d", next_d_++)
                                       : StrCat("n", next_n_++);
    names_.emplace(t, name);
    return name;
  }

 private:
  const SymbolTable& symbols_;
  std::unordered_map<Term, std::string> names_;
  size_t next_d_ = 0;
  size_t next_n_ = 0;
};

std::string EncodeFact(const Fact& f, Namer& namer) {
  std::string out = StrCat("R", f.relation, "(");
  for (size_t i = 0; i < f.terms.size(); ++i) {
    if (i != 0) out += ",";
    out += namer.NameOf(f.terms[i]);
  }
  out += ")";
  return out;
}

std::string EncodeSummary(const std::vector<Term>& summary, Namer& namer) {
  std::string out = "(";
  for (size_t i = 0; i < summary.size(); ++i) {
    if (i != 0) out += ",";
    out += namer.NameOf(summary[i]);
  }
  out += ")";
  return out;
}

// Naming-free signature of one conjunct, built only from isomorphism
// invariants: the relation, constants by name, and for each variable its
// kind, its first occurrence within this conjunct (the local equality
// pattern), its total occurrence count across the query, and the summary
// positions it fills.
std::string InitialSignature(const Fact& f,
                             const std::vector<Term>& summary,
                             const std::unordered_map<Term, size_t>& counts,
                             const SymbolTable& symbols) {
  std::string out = StrCat("R", f.relation, "(");
  for (size_t i = 0; i < f.terms.size(); ++i) {
    if (i != 0) out += ",";
    Term t = f.terms[i];
    if (t.is_constant()) {
      out += EncodeConstant(symbols, t);
      continue;
    }
    size_t first = i;
    for (size_t j = 0; j < i; ++j) {
      if (f.terms[j] == t) {
        first = j;
        break;
      }
    }
    out += StrCat(t.is_dist_var() ? "d" : "n", "@", first, "#",
                  counts.at(t), "s");
    for (size_t j = 0; j < summary.size(); ++j) {
      if (summary[j] == t) out += StrCat(j, ".");
    }
  }
  out += ")";
  return out;
}

}  // namespace

std::string CanonicalQueryKey(const ConjunctiveQuery& q) {
  const SymbolTable& symbols = q.symbols();
  if (q.is_empty_query()) {
    Namer namer(symbols);
    return StrCat("Q{!EMPTY", EncodeSummary(q.summary(), namer), "}");
  }

  const std::vector<Fact>& conjuncts = q.conjuncts();
  std::unordered_map<Term, size_t> counts;
  for (const Fact& f : conjuncts) {
    for (Term t : f.terms) {
      if (t.is_variable()) ++counts[t];
    }
  }

  std::vector<size_t> order(conjuncts.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::string> sigs(conjuncts.size());
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    sigs[i] = InitialSignature(conjuncts[i], q.summary(), counts, symbols);
  }

  // Refinement rounds: order by signature, rename by first occurrence in
  // that order, re-sign with the full canonical rendering. Two rounds past
  // the initial invariant signatures are enough to reach a fixpoint on
  // everything short of highly symmetric queries (whose ties only cost cache
  // misses — see header).
  for (int round = 0; round < 3; ++round) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sigs[a] < sigs[b];
    });
    Namer namer(symbols);
    for (Term t : q.summary()) namer.NameOf(t);
    std::vector<std::string> next(conjuncts.size());
    for (size_t i : order) next[i] = EncodeFact(conjuncts[i], namer);
    if (next == sigs) break;
    sigs = std::move(next);
  }

  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sigs[a] < sigs[b];
  });
  Namer namer(symbols);
  std::string out = StrCat("Q{", EncodeSummary(q.summary(), namer), ":");
  for (size_t i : order) {
    out += EncodeFact(conjuncts[i], namer);
    out += ";";
  }
  out += "}";
  return out;
}

std::string CanonicalSigmaKey(const DependencySet& deps) {
  std::vector<std::string> parts;
  parts.reserve(deps.size());
  for (const FunctionalDependency& fd : deps.fds()) {
    std::string p = StrCat("F", fd.relation, ":");
    for (uint32_t c : fd.lhs) p += StrCat(c, ",");
    p += StrCat(">", fd.rhs);
    parts.push_back(std::move(p));
  }
  for (const InclusionDependency& ind : deps.inds()) {
    std::string p = StrCat("I", ind.lhs_relation, "[");
    for (uint32_t c : ind.lhs_columns) p += StrCat(c, ",");
    p += StrCat("]<=", ind.rhs_relation, "[");
    for (uint32_t c : ind.rhs_columns) p += StrCat(c, ",");
    p += "]";
    parts.push_back(std::move(p));
  }
  std::sort(parts.begin(), parts.end());
  std::string out = "S{";
  for (const std::string& p : parts) {
    out += p;
    out += ";";
  }
  out += "}";
  return out;
}

std::string CanonicalTaskKey(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime,
                             const DependencySet& deps, ChaseVariant variant) {
  return StrCat("V", static_cast<int>(variant), "|", CanonicalSigmaKey(deps),
                "|", CanonicalQueryKey(q), "|=>|", CanonicalQueryKey(q_prime));
}

}  // namespace cqchase

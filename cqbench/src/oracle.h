// The known-answer oracle every verdict is checked against. It never uses
// the fast paths under test: a separate engine with every cache off, the
// scalar chase core (ChaseCoreMode::kScalar, the paper-literal reference)
// and no streaming route, so single-conjunct questions are decided by the
// chase rather than by core/pspace. Runs outside the timed window.
#ifndef CQBENCH_ORACLE_H_
#define CQBENCH_ORACLE_H_

#include <vector>

#include "workloads.h"

namespace cqbench {

struct Question {
  const Task* task = nullptr;
  DepsPtr deps;
};

// One answer per question, aligned: 1 contained, 0 not contained, -1 the
// oracle could not decide within its limits (default chase limits, 30 s per
// question).
std::vector<int> OracleAnswers(const Universe& universe,
                               const std::vector<Question>& questions);

}  // namespace cqbench

#endif  // CQBENCH_ORACLE_H_

#include "oracle.h"

#include <chrono>
#include <thread>

#include "engine/engine.h"

namespace cqbench {

std::vector<int> OracleAnswers(const Universe& universe,
                               const std::vector<Question>& questions) {
  cqchase::EngineConfig config;
  config.enable_cache = false;
  config.route_streaming_single_conjunct = false;
  config.containment.limits.core = cqchase::ChaseCoreMode::kScalar;
  const unsigned hc = std::thread::hardware_concurrency();
  config.executor_threads = hc > 0 ? hc : 1;
  cqchase::ContainmentEngine oracle(universe.catalog.get(),
                                    universe.symbols.get(), config);

  // Submit in small windows: a deadline runs from submission, so a long
  // queue would spend the later questions' budgets waiting, and every
  // question in flight may hold a chase of up to the default limits.
  const size_t kWindow = 2 * config.executor_threads;
  std::vector<int> answers(questions.size(), -1);
  for (size_t base = 0; base < questions.size(); base += kWindow) {
    const size_t end = std::min(questions.size(), base + kWindow);
    std::vector<cqchase::EngineFuture<cqchase::EngineOutcome>> futures;
    for (size_t i = base; i < end; ++i) {
      cqchase::RequestOptions options;
      options.timeout = std::chrono::milliseconds(30000);
      futures.push_back(oracle.Submit(cqchase::ContainmentRequest::Share(
          questions[i].task->q, questions[i].task->q_prime, questions[i].deps,
          options)));
    }
    for (size_t i = base; i < end; ++i) {
      cqchase::Result<cqchase::EngineOutcome> r = futures[i - base].Get();
      if (r.ok()) answers[i] = r->verdict.report.contained ? 1 : 0;
    }
  }
  return answers;
}

}  // namespace cqbench

// Self-test of the benchmark's own arithmetic and generators:
//   * the nearest-rank percentile rule and its "samples beyond" count;
//   * span self time with overlapping and protruding children;
//   * Zipf sampling and the workload generators being deterministic per seed.
// Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using cqbench::Percentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Percentile(v, 50) == 500, "p50 of 1..1000 is 500");
  Expect(Percentile(v, 99) == 990, "p99 of 1..1000 is 990");
  Expect(cqbench::SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(cqbench::SamplesBeyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  Expect(Percentile({7}, 99) == 7, "single sample");
  Expect(Percentile({}, 50) == 0, "empty sample");
  Expect(Percentile({3, 1, 2}, 50) == 2, "unsorted input");
  Expect(Percentile({1, 2, 3, 4}, 50) == 2, "nearest rank, no interpolation");
  Expect(Percentile({1, 2, 3, 4}, 100) == 4, "p100 is the maximum");
  Expect(Percentile({1, 2, 3, 4}, 0) == 1, "p0 is the minimum");
  Expect(Near(cqbench::Median({1, 2, 3, 4}), 2.5), "median of an even count");
}

void TestSelfTime() {
  using cqbench::Span;
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 0};
  spans[1] = {"a", 10, 40, 0, 0};   // overlaps b
  spans[2] = {"b", 30, 60, 0, 0};
  spans[3] = {"c", 90, 130, 0, 0};  // sticks out past the root's end
  spans[4] = {"d", 15, 20, 1, 0};   // grandchild: covered by a, not root
  std::vector<int64_t> self = cqbench::SelfTimes(spans);
  // root: covered [10,60) and [90,100) = 60 -> self 40.
  Expect(self[0] == 40, "root self time subtracts the union of its children");
  Expect(self[1] == 25, "child self time subtracts its own child");
  Expect(self[2] == 30 && self[3] == 40 && self[4] == 5, "leaf self time is duration");
  std::vector<Span> nested = {{"r", 0, 10, -1, 0}, {"x", 0, 10, 0, 0}, {"y", 2, 5, 0, 0}};
  Expect(cqbench::SelfTimes(nested)[0] == 0, "child covering the parent leaves 0");
}

void TestZipf() {
  cqbench::ZipfSampler z(100, 0.99);
  cqchase::Rng r1(42), r2(42), r3(43);
  std::vector<size_t> a, b, c;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(z.Sample(r1));
    b.push_back(z.Sample(r2));
    c.push_back(z.Sample(r3));
  }
  Expect(a == b, "Zipf draws are a function of the seed");
  Expect(a != c, "different seeds draw differently");
  size_t head = 0;
  for (size_t k : a) head += k < 10 ? 1 : 0;
  Expect(head > 400, "Zipf(0.99) puts most draws on the top ranks");
}

std::vector<std::string> Generate(uint64_t seed) {
  cqbench::Universe u = cqbench::MakeUniverse();
  cqbench::TaskStream stream(
      &u, seed,
      cqbench::SigmaPool(*u.catalog,
                         {cqbench::SigmaKind::kIndCyclic, cqbench::SigmaKind::kIndAcyclic,
                          cqbench::SigmaKind::kKeyBasedAcyclic},
                         12),
      "c");
  std::vector<cqbench::Task> tasks;
  for (int i = 0; i < 6; ++i) stream.NextBatch(&tasks);
  stream.NextTaskOver(1, &tasks);
  const std::vector<cqbench::DepsPtr>& sigmas = stream.sigmas();
  cqchase::Rng rng(seed);
  std::vector<std::string> out;
  for (const cqbench::Task& t : tasks) {
    out.push_back(cqbench::ExactTaskText(t, *sigmas[t.sigma], *u.catalog) +
                  (t.planted ? " P" : ""));
  }
  out.push_back(cqbench::IsomorphicCopy(*tasks[0].q, *u.symbols, rng, "v").ToString());
  return out;
}

void TestGenerators() {
  const std::vector<std::string> a = Generate(7);
  const std::vector<std::string> b = Generate(7);
  const std::vector<std::string> c = Generate(8);
  Expect(a.size() > 50, "six batches hold many tasks");
  Expect(a == b, "the workload generators are deterministic per seed");
  Expect(a != c, "another seed gives other inputs");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestZipf();
  TestGenerators();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("cqbench_selftest: all expectations hold\n");
  return 0;
}

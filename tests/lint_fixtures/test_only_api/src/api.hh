// Lint fixture: a source tree of its own (src/, tests/, bench/,
// perfbench/). Only onlyTestsCall() has no caller outside tests/, so
// the lint MUST report exactly one [test-only-api] finding here.
#ifndef FLASHMEM_TESTS_LINT_FIXTURES_TEST_ONLY_API_HH
#define FLASHMEM_TESTS_LINT_FIXTURES_TEST_ONLY_API_HH

namespace fixture {

int onlyTestsCall();
int benchCalls();
int perfbenchCalls();
int ownFileCalls();

class Counter
{
  public:
    Counter() = default;
    void bump() { n_ = step(n_); }
    // FMLINT(allow:test-only-api) fixture: tests observe the count
    int count() const { return n_; }

  private:
    static int step(int n) { return n + 1; }
    int n_ = 0;
};

} // namespace fixture

#endif

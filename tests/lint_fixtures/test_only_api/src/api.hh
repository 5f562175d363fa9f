// Lint fixture: a source tree of its own (src/, tests/, bench/,
// perfbench/). Only onlyTestsCall() has no caller outside tests/, and
// only Mode::OnlyTests is named outside tests/ in nothing but a case
// label and a static_assert, so the lint MUST report exactly two
// [test-only-api] findings here.
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

enum class Mode
{
    Bench,
    OnlyTests = (0, 1), // a comma in an initializer starts no enumerator
};

int modeCost(Mode mode);

} // namespace fixture

#endif

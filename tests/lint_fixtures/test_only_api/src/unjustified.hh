// Lint fixture: a suppression without a justification is itself a
// [bad-suppression] finding and silences nothing, so the lint MUST
// report both it and the [test-only-api] finding below it.
#ifndef FLASHMEM_TESTS_LINT_FIXTURES_UNJUSTIFIED_HH
#define FLASHMEM_TESTS_LINT_FIXTURES_UNJUSTIFIED_HH

namespace fixture {

// FMLINT(allow:test-only-api)
int alsoOnlyTestsCall();

} // namespace fixture

#endif

#include "api.hh"

namespace fixture {

int
onlyTestsCall()
{
    return 1;
}

int
benchCalls()
{
    return ownFileCalls() + 2;
}

int
perfbenchCalls()
{
    return 3;
}

int
ownFileCalls()
{
    return 4;
}

static_assert(static_cast<int>(Mode::OnlyTests) == 1, "pinned value");

int
modeCost(Mode mode)
{
    switch (mode) {
      case Mode::Bench:
        return 5;
      case fixture::Mode::OnlyTests:
        return 6;
    }
    return 0;
}

} // namespace fixture

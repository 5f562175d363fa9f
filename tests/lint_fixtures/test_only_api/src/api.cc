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

} // namespace fixture

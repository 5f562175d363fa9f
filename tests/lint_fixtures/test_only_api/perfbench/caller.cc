// perfbench/ is read for callers although it is never linted.
#include "../src/api.hh"

int
main()
{
    return fixture::perfbenchCalls();
}

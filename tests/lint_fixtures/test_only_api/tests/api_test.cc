// Calls from tests/ never count as callers.
#include "../src/api.hh"
#include "../src/unjustified.hh"

int
main()
{
    fixture::Counter c;
    c.bump();
    return fixture::onlyTestsCall() + fixture::alsoOnlyTestsCall() +
           fixture::benchCalls() + c.count() +
           fixture::modeCost(fixture::Mode::OnlyTests);
}

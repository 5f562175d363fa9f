// A bench is a caller.
#include "../src/api.hh"

int
main()
{
    fixture::Counter c;
    c.bump();
    return fixture::benchCalls() +
           fixture::modeCost(fixture::Mode::Bench);
}

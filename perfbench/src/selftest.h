// Self-test of the benchmark's output checks: every workload runs briefly
// and must pass, and every check must reject a hand-made wrong input.
#pragma once

#include <string>

namespace pb {

// Returns the process exit code: 0 when every case behaved.
int run_selftest(const std::string& dir);

}  // namespace pb

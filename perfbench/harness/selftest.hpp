// Self-test of the benchmark's output checks: every check is fed a correct
// reply (it must pass) and a deliberately wrong one (it must fail).
#pragma once

namespace perfbench {

/// Prints one line per case; returns 0 when every check behaved.
int run_self_test();

}  // namespace perfbench

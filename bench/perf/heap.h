// Heap accounting for the repo benchmark.  heap.cc replaces the global
// operator new and delete, so every C++ allocation in the process is
// counted at its usable size.  The counts are exact and repeat on every run
// of an input, unlike the process's resident set (README.md, "Why heap and
// not RSS").  pps_perf runs one thread (threads = 1 everywhere), so the
// counters are plain integers.
#pragma once

#include <cstdint>

namespace perf {

// Starts a new peak: the next HeapPeakGrowthBytes() is the most heap held
// at once since this call, above what was held at the call.
void ResetHeapPeak();
std::int64_t HeapPeakGrowthBytes();

}  // namespace perf

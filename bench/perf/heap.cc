#include "heap.h"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <new>

namespace {

std::int64_t live_bytes = 0;
std::int64_t peak_bytes = 0;
std::int64_t base_bytes = 0;

void* Allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  peak_bytes = std::max(peak_bytes, live_bytes);
  return p;
}

void Free(void* p) noexcept {
  if (p == nullptr) return;
  live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

namespace perf {

void ResetHeapPeak() {
  base_bytes = live_bytes;
  peak_bytes = live_bytes;
}

std::int64_t HeapPeakGrowthBytes() { return peak_bytes - base_bytes; }

}  // namespace perf

// The library's array, sized and nothrow forms all route through these two.
void* operator new(std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { Free(p); }

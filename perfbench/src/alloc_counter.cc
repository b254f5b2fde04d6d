#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

constexpr size_t kSlots = 64;
constexpr size_t kNoSlot = SIZE_MAX;

/// One writer per slot (its thread); the reader sums after the writers are
/// done, so relaxed load+store is a plain add without a locked bus cycle.
struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local size_t t_slot = kNoSlot;

inline void Count(size_t bytes) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == kNoSlot) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  Slot& s = g_slots[t_slot];
  s.count.store(s.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  s.bytes.store(s.bytes.load(std::memory_order_relaxed) + bytes,
                std::memory_order_relaxed);
}

}  // namespace

void Start() {
  for (Slot& s : g_slots) {
    s.count.store(0, std::memory_order_relaxed);
    s.bytes.store(0, std::memory_order_relaxed);
  }
  g_counting.store(true, std::memory_order_seq_cst);
}

Tally Stop() {
  g_counting.store(false, std::memory_order_seq_cst);
  Tally total;
  for (const Slot& s : g_slots) {
    total.count += s.count.load(std::memory_order_relaxed);
    total.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench::alloc

void* operator new(std::size_t n) {
  perfbench::alloc::Count(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  perfbench::alloc::Count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

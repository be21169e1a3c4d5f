// Allocator for large flat arrays whose size changes from one run to the
// next (a protocol's op array and its step offsets).
//
// glibc's malloc serves such blocks from its heap once a freed mapping of
// similar size has raised its dynamic mmap threshold.  A freed heap block
// stays resident, and the next block -- a little larger, because the next
// protocol is -- may not fit the hole it left, so the heap grows instead:
// peak memory then depends on the order in which sizes happened to arrive.
// MappedAllocator takes every block of at least kMappedMinBytes straight
// from the OS and returns it on release, so such an array is resident only
// while it is alive and leaves neither a hole nor a moved threshold behind.
// Smaller blocks go through std::allocator as usual.
//
// Mapped blocks are advised onto transparent huge pages (MADV_HUGEPAGE)
// and then populated in one call (MADV_POPULATE_WRITE).  A 200 MB op array
// then takes about a hundred 2 MiB pages instead of fifty thousand 4 KiB
// ones: populating it is about twice as fast, unmapping it about twenty
// times, and the pebble checker's passes over it need a TLB entry per
// 2 MiB.  Both hints are advisory and their failures are ignored: with huge
// pages off the block is populated with 4 KiB pages, and a kernel without
// MADV_POPULATE_WRITE (before Linux 5.14) faults the pages in on first
// write.  Use it for arrays that are filled soon after they are allocated
// (resize, or reserve to a known size); spare capacity is resident too.
#pragma once

#include <cstddef>
#include <memory>
#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#define UPN_HAVE_MMAP 1
#else
#define UPN_HAVE_MMAP 0
#endif

namespace upn {

/// Blocks from this size on are mapped directly: glibc's initial mmap
/// threshold, below which heap reuse is cheap and fragmentation small.
inline constexpr std::size_t kMappedMinBytes = std::size_t{128} << 10;

template <typename T>
class MappedAllocator {
 public:
  using value_type = T;

  MappedAllocator() noexcept = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
#if UPN_HAVE_MMAP
    if (n >= kMappedMinBytes / sizeof(T)) {
      if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_array_new_length{};
      const std::size_t bytes = n * sizeof(T);
      void* block =
          mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::bad_alloc{};
#ifdef MADV_HUGEPAGE
      static_cast<void>(madvise(block, bytes, MADV_HUGEPAGE));
#endif
#ifdef MADV_POPULATE_WRITE
      static_cast<void>(madvise(block, bytes, MADV_POPULATE_WRITE));
#endif
      return static_cast<T*>(block);
    }
#endif
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* block, std::size_t n) noexcept {
#if UPN_HAVE_MMAP
    if (n >= kMappedMinBytes / sizeof(T)) {
      munmap(block, n * sizeof(T));
      return;
    }
#endif
    std::allocator<T>{}.deallocate(block, n);
  }

  friend bool operator==(const MappedAllocator&, const MappedAllocator&) noexcept { return true; }
};

}  // namespace upn

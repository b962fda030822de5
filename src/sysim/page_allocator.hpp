#pragma once
/// \file page_allocator.hpp
/// Allocator for the large byte images (DRAM and its snapshots) that a
/// process builds and frees over and over: allocations of at least
/// kPageMappedMin bytes get their own anonymous mapping and munmap
/// returns the pages on release; smaller ones use operator new.
///
/// Why: malloc serves a multi-MiB block by mmap at first, but freeing it
/// raises glibc's dynamic mmap threshold, so the next image of that size
/// comes from the brk heap and stays resident after it is freed. Whether
/// a later image lands on the recycled heap block or on top of it then
/// decides the peak RSS by a whole image.
///
/// A fresh mapping costs a page fault per 4 KiB page on first touch,
/// which made building and snapshotting a 4 MiB DRAM several times
/// slower than reusing a heap block. Mappings are therefore aligned to
/// and sized in whole 2 MiB huge pages and advised MADV_HUGEPAGE, so a
/// 4 MiB image faults twice where the kernel grants transparent huge
/// pages; elsewhere the advice is a no-op.

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace aspen::sys {

template <typename T>
class PageAllocator {
 public:
  using value_type = T;
  /// Huge page size, and the smallest allocation that gets a mapping.
  static constexpr std::size_t kPageMappedMin = std::size_t{2} << 20;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (static_cast<std::size_t>(-1) - 2 * kPageMappedMin) / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kPageMappedMin) return static_cast<T*>(::operator new(bytes));
    // Over-map by one huge page, then trim to an aligned whole-huge-page
    // span (every cut lands on a page boundary).
    const std::size_t len = mapped_len(bytes);
    void* raw = ::mmap(nullptr, len + kPageMappedMin, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const auto lo = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start =
        (lo + kPageMappedMin - 1) & ~(std::uintptr_t{kPageMappedMin} - 1);
    if (start > lo) ::munmap(raw, start - lo);
    const std::uintptr_t end = lo + len + kPageMappedMin;
    if (end > start + len)
      ::munmap(reinterpret_cast<void*>(start + len), end - (start + len));
    void* p = reinterpret_cast<void*>(start);
    (void)::madvise(p, len, MADV_HUGEPAGE);  // advisory: failure is fine
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kPageMappedMin)
      ::operator delete(p);
    else
      ::munmap(p, mapped_len(bytes));
  }

 private:
  static std::size_t mapped_len(std::size_t bytes) {
    return (bytes + kPageMappedMin - 1) & ~(kPageMappedMin - 1);
  }
};

template <typename T, typename U>
bool operator==(const PageAllocator<T>&, const PageAllocator<U>&) noexcept {
  return true;
}
template <typename T, typename U>
bool operator!=(const PageAllocator<T>&, const PageAllocator<U>&) noexcept {
  return false;
}

/// Byte image of a memory or of its snapshot.
using ByteImage = std::vector<std::uint8_t, PageAllocator<std::uint8_t>>;

}  // namespace aspen::sys

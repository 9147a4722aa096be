// Page table + twin storage for VM-DSM write trapping (paper §3.3).
//
// Shared pages start clean (write-protected under the sigsegv backend). The first store to a
// page faults: the fault handler saves a copy of the page (its "twin"), marks the page dirty,
// and grants write access. Subsequent stores proceed at full speed. At write collection the
// page is diffed against its twin (see diff.h / VmStrategy).
//
// Invariant: a page that reads as dirty has a complete twin. The fault path claims a clean
// page with an intermediate twinning state and publishes dirty only after the copy, so the
// communication thread, which diffs pages bound to a lock it is granting while the
// application thread keeps faulting in other data on the same page, sees either a clean page
// (nothing on it changed since the last collection) or a dirty page with a valid twin.
#ifndef MIDWAY_SRC_MEM_PAGE_TABLE_H_
#define MIDWAY_SRC_MEM_PAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mem/region.h"

namespace midway {

class PageTable {
 public:
  // page_size: power of two; under the sigsegv backend it must be a multiple of the OS page
  // size. The twin arena (one page_size slot per page) is allocated up front, so FaultIn
  // never allocates; a twinned page's slot stays resident until the table is destroyed.
  PageTable(Region* region, uint32_t page_size);

  Region* region() { return region_; }
  uint32_t page_size() const { return page_size_; }
  size_t num_pages() const { return states_.size(); }

  size_t PageOf(uint32_t offset) const { return offset >> page_shift_; }
  uint32_t PageBegin(size_t page) const { return static_cast<uint32_t>(page << page_shift_); }
  // Bytes of region data actually on this page (the last page may be partial).
  uint32_t PageBytes(size_t page) const;

  bool IsDirty(size_t page) const {
    return states_[page].load(std::memory_order_acquire) == kDirty;
  }

  // The write-fault path: twin the page and mark it dirty. Returns true if this call
  // performed the transition (false if the page was already dirty). Does NOT touch page
  // protection — the caller owns that (soft backend: nothing; sigsegv backend: mprotect).
  // Safe to call from a signal handler.
  bool FaultIn(size_t page);

  // Test hook: called by FaultIn after it has claimed `page` and before it copies the twin,
  // the window in which a concurrent reader must not yet see the page as dirty.
  using ClaimHook = void (*)(PageTable* table, size_t page, void* arg);
  void SetClaimHookForTesting(ClaimHook hook, void* arg) {
    claim_hook_ = hook;
    claim_hook_arg_ = arg;
  }

  std::byte* PageData(size_t page) { return region_->data() + PageBegin(page); }
  const std::byte* Twin(size_t page) const { return twin_arena_.get() + PageBegin(page); }
  std::byte* MutableTwin(size_t page) { return twin_arena_.get() + PageBegin(page); }

  // Returns the page to the clean state; its twin slot is reused by the next FaultIn. Runs
  // on the application thread (VmStrategy::RetirePage at a sync point, under the runtime
  // lock), the only thread that faults pages in, so it cannot overlap a FaultIn; the runtime
  // lock keeps it apart from collection on the communication thread.
  void MarkClean(size_t page);

  // Cumulative count of FaultIn transitions (the "write faults" row of Table 2).
  uint64_t fault_count() const { return fault_count_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint32_t kClean = 0;
  static constexpr uint32_t kDirty = 1;
  static constexpr uint32_t kTwinning = 2;  // claimed by FaultIn, twin not yet complete

  Region* region_;
  uint32_t page_size_;
  uint32_t page_shift_;
  std::unique_ptr<std::byte[]> twin_arena_;  // num_pages * page_size
  std::vector<std::atomic<uint32_t>> states_;  // kClean / kTwinning / kDirty per page
  std::atomic<uint64_t> fault_count_{0};
  ClaimHook claim_hook_ = nullptr;
  void* claim_hook_arg_ = nullptr;
};

}  // namespace midway

#endif  // MIDWAY_SRC_MEM_PAGE_TABLE_H_

#include "src/mem/page_table.h"

#include <cstring>

#include "src/common/align.h"
#include "src/common/check.h"

namespace midway {

PageTable::PageTable(Region* region, uint32_t page_size)
    : region_(region), page_size_(page_size), page_shift_(Log2(page_size)) {
  MIDWAY_CHECK(IsPowerOfTwo(page_size));
  const size_t pages = CeilDiv(region->size(), page_size);
  twin_arena_.reset(new std::byte[pages * page_size]);
  states_ = std::vector<std::atomic<uint32_t>>(pages);
}

uint32_t PageTable::PageBytes(size_t page) const {
  MIDWAY_CHECK_LT(page, states_.size());
  size_t begin = static_cast<size_t>(page) << page_shift_;
  size_t remaining = region_->size() - begin;
  return static_cast<uint32_t>(remaining < page_size_ ? remaining : page_size_);
}

bool PageTable::FaultIn(size_t page) {
  uint32_t expected = kClean;
  if (!states_[page].compare_exchange_strong(expected, kTwinning, std::memory_order_acq_rel)) {
    return false;
  }
  if (claim_hook_ != nullptr) {
    claim_hook_(this, page, claim_hook_arg_);
  }
  std::memcpy(MutableTwin(page), PageData(page), PageBytes(page));
  // Publish dirty only now: a reader that sees kDirty also sees the finished twin.
  states_[page].store(kDirty, std::memory_order_release);
  fault_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PageTable::MarkClean(size_t page) { states_[page].store(kClean, std::memory_order_release); }

}  // namespace midway

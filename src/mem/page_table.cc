#include "src/mem/page_table.h"

#include <cstring>

#include "src/common/align.h"
#include "src/common/check.h"

namespace midway {

PageTable::PageTable(Region* region, uint32_t page_size, bool preallocate_twins)
    : region_(region),
      page_size_(page_size),
      page_shift_(Log2(page_size)),
      preallocated_(preallocate_twins) {
  MIDWAY_CHECK(IsPowerOfTwo(page_size));
  const size_t pages = CeilDiv(region->size(), page_size);
  entries_ = std::vector<Entry>(pages);
  if (preallocated_) {
    twin_arena_.reset(new std::byte[pages * page_size]);
  }
}

uint32_t PageTable::PageBytes(size_t page) const {
  MIDWAY_CHECK_LT(page, entries_.size());
  size_t begin = static_cast<size_t>(page) << page_shift_;
  size_t remaining = region_->size() - begin;
  return static_cast<uint32_t>(remaining < page_size_ ? remaining : page_size_);
}

bool PageTable::FaultIn(size_t page) {
  Entry& entry = entries_[page];
  uint32_t expected = kClean;
  if (!entry.state.compare_exchange_strong(expected, kTwinning, std::memory_order_acq_rel)) {
    return false;
  }
  if (claim_hook_ != nullptr) {
    claim_hook_(this, page, claim_hook_arg_);
  }
  std::byte* twin;
  if (preallocated_) {
    twin = twin_arena_.get() + (static_cast<size_t>(page) << page_shift_);
  } else {
    entry.twin.reset(new std::byte[page_size_]);
    twin = entry.twin.get();
  }
  std::memcpy(twin, PageData(page), PageBytes(page));
  // Publish dirty only now: a reader that sees kDirty also sees the finished twin.
  entry.state.store(kDirty, std::memory_order_release);
  fault_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

const std::byte* PageTable::Twin(size_t page) const {
  if (preallocated_) {
    return twin_arena_.get() + (static_cast<size_t>(page) << page_shift_);
  }
  return entries_[page].twin.get();
}

std::byte* PageTable::MutableTwin(size_t page) {
  if (preallocated_) {
    return twin_arena_.get() + (static_cast<size_t>(page) << page_shift_);
  }
  return entries_[page].twin.get();
}

void PageTable::MarkClean(size_t page) {
  Entry& entry = entries_[page];
  if (!preallocated_) {
    entry.twin.reset();
  }
  entry.state.store(kClean, std::memory_order_release);
}

}  // namespace midway

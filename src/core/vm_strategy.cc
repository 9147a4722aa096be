#include "src/core/vm_strategy.h"

#include <algorithm>
#include <cstring>

#include "src/core/sigsegv.h"
#include "src/mem/diff.h"

namespace midway {

VmStrategy::VmStrategy(const SystemConfig& config, RegionTable* regions, Counters* counters,
                       TrapBackend backend)
    : DetectionStrategy(config, regions, counters), backend_(backend) {
  if (backend_ == TrapBackend::kSigsegv) {
    InstallSigsegvHandler();
  }
}

VmStrategy::~VmStrategy() {
  if (backend_ == TrapBackend::kSigsegv) {
    for (auto& [id, table] : page_tables_) {
      Region* region = regions_->Get(id);
      UnregisterFaultRegion(region->data());
      // Leave the pages writable so later (non-DSM) use of the mapping cannot fault.
      if (parallel_started_) {
        region->ProtectAllData(/*writable=*/true);
      }
    }
  }
}

DetectionMode VmStrategy::mode() const {
  switch (backend_) {
    case TrapBackend::kSoft:
      return DetectionMode::kVmSoft;
    case TrapBackend::kSigsegv:
      return DetectionMode::kVmSigsegv;
    case TrapBackend::kTwinAll:
      return DetectionMode::kTwinAll;
  }
  return DetectionMode::kVmSoft;
}

void VmStrategy::AttachRegion(Region* region) {
  if (!region->shared()) return;
  auto table = std::make_unique<PageTable>(region, config_.page_size);
  region->header()->page_table = table.get();
  region->header()->page_shift = Log2(config_.page_size);
  if (backend_ == TrapBackend::kSigsegv) {
    RegisterFaultRegion(region->data(), region->size(), table.get(), region, counters_);
  }
  page_tables_[region->id()] = std::move(table);
}

void VmStrategy::OnBeginParallel() {
  parallel_started_ = true;
  for (auto& [id, table] : page_tables_) {
    Region* region = regions_->Get(id);
    switch (backend_) {
      case TrapBackend::kSoft:
        // Pages are already clean (initialization writes are not trapped).
        break;
      case TrapBackend::kSigsegv:
        // All shared pages start read-only and clean; the first store faults.
        region->ProtectAllData(/*writable=*/false);
        break;
      case TrapBackend::kTwinAll:
        // §3.5: every shared page is twinned up front; there is no write detection at all,
        // so these transitions are not counted as faults.
        for (size_t page = 0; page < table->num_pages(); ++page) {
          table->FaultIn(page);
        }
        break;
    }
  }
}

void VmStrategy::NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) {
  if (backend_ != TrapBackend::kSoft) {
    return;  // sigsegv: the hardware traps; twin-all: no detection
  }
  auto* table = static_cast<PageTable*>(header->page_table);
  if (table == nullptr) {
    return;  // private region
  }
  const size_t first = offset >> header->page_shift;
  const size_t last = (offset + length - 1) >> header->page_shift;
  for (size_t page = first; page <= last; ++page) {
    if (!table->IsDirty(page) && table->FaultIn(page)) {
      counters_->write_faults.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void VmStrategy::Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
                         UpdateSet* out) {
  // Page-vs-twin diffing is the VM family's collection cost; time it as kDiff.
  obs::Span span = CollectSpan(obs::SpanKind::kDiff);
  // VM entries persist in the incarnation update log after the region page is retired, so
  // they cannot borrow page memory; copy once into arena chunks shared across the set.
  PayloadArena arena;
  uint64_t copied = 0;
  std::vector<DiffRun> runs;  // reused across pages; capacity warms up after the first few
  for (const GlobalRange& range : binding.ranges) {
    Region* region = regions_->Get(range.addr.region);
    auto it = page_tables_.find(range.addr.region);
    MIDWAY_CHECK(it != page_tables_.end())
        << " lock bound to private region " << range.addr.region;
    PageTable* table = it->second.get();
    const uint32_t begin = range.begin();
    const uint32_t end =
        static_cast<uint32_t>(std::min<uint64_t>(range.end(), region->size()));
    if (begin >= end) continue;
    const size_t first = table->PageOf(begin);
    const size_t last = table->PageOf(end - 1);
    for (size_t page = first; page <= last; ++page) {
      if (!table->IsDirty(page)) continue;
      const uint32_t page_begin = table->PageBegin(page);
      const uint32_t page_bytes = table->PageBytes(page);
      std::byte* data = table->PageData(page);
      std::byte* twin = table->MutableTwin(page);
      // Diff the whole page against its twin (the paper's primitive), then clip the runs to
      // the window bound to this synchronization object.
      ComputeDiffInto({data, page_bytes}, {twin, page_bytes}, &runs);
      counters_->pages_diffed.fetch_add(1, std::memory_order_relaxed);
      const uint32_t window_lo = std::max(begin, page_begin) - page_begin;
      const uint32_t window_hi = std::min(end, page_begin + page_bytes) - page_begin;
      auto clipped = ClipRuns(runs, window_lo, window_hi);
      for (const DiffRun& run : clipped) {
        UpdateEntry entry;
        entry.addr = GlobalAddr{region->id(), page_begin + run.offset};
        entry.length = run.length;
        entry.ts = 0;
        entry.BindCopy({data + run.offset, run.length}, &arena);
        copied += run.length;
        out->push_back(std::move(entry));
        // Refresh the twin so these modifications are not collected a second time.
        std::memcpy(twin + run.offset, data + run.offset, run.length);
      }
      if (backend_ != TrapBackend::kTwinAll) {
        clean_candidates_.push_back(CleanCandidate{region, table, page});
      }
    }
  }
  counters_->payload_bytes_copied.fetch_add(copied, std::memory_order_relaxed);
  span.End(copied);
}

void VmStrategy::OnSyncPoint() {
  if (clean_candidates_.empty()) return;
  std::vector<CleanCandidate> candidates;
  candidates.swap(clean_candidates_);
  for (const CleanCandidate& c : candidates) {
    RetirePage(c.region, c.table, c.page);
  }
}

void VmStrategy::RetirePage(Region* region, PageTable* table, size_t page) {
  if (!table->IsDirty(page)) return;
  const uint32_t page_bytes = table->PageBytes(page);
  // "When all modified data on the page has been shipped to other processors, the page is
  // considered clean and its diff and twin deallocated" (paper §3.4). Shipped runs were
  // copied into the twin, so a byte-identical page has nothing left to ship.
  if (!SpansEqual({table->PageData(page), page_bytes}, {table->Twin(page), page_bytes})) {
    return;  // other bound data on the page is still unshipped
  }
  table->MarkClean(page);
  if (backend_ == TrapBackend::kSigsegv) {
    region->ProtectDataRange(table->PageBegin(page), page_bytes, /*writable=*/false);
  }
  counters_->pages_write_protected.fetch_add(1, std::memory_order_relaxed);
}

void VmStrategy::ApplyEntry(const UpdateEntry& entry) {
  Region* region = regions_->Get(entry.addr.region);
  auto it = page_tables_.find(entry.addr.region);
  MIDWAY_CHECK(it != page_tables_.end());
  PageTable* table = it->second.get();
  const uint32_t begin = entry.addr.offset;
  const uint32_t end = begin + entry.length;
  MIDWAY_CHECK_LE(end, region->size());
  const size_t first = table->PageOf(begin);
  const size_t last = table->PageOf(end - 1);
  for (size_t page = first; page <= last; ++page) {
    const uint32_t page_begin = table->PageBegin(page);
    const uint32_t lo = std::max(begin, page_begin);
    const uint32_t hi = std::min(end, page_begin + table->PageBytes(page));
    const std::byte* src = entry.data.data() + (lo - begin);
    const bool dirty = table->IsDirty(page);
    if (!dirty && backend_ == TrapBackend::kSigsegv) {
      // The page is clean, hence write-protected: open a temporary window. The application
      // thread is blocked at the synchronization operation that triggered this transfer, so
      // no local store can race with the window.
      region->ProtectDataRange(page_begin, table->PageBytes(page), /*writable=*/true);
      std::memcpy(region->data() + lo, src, hi - lo);
      region->ProtectDataRange(page_begin, table->PageBytes(page), /*writable=*/false);
    } else {
      std::memcpy(region->data() + lo, src, hi - lo);
    }
    if (dirty) {
      // Apply to the twin as well, so the incoming update is not mistaken for a local
      // modification at the next diff (paper §3.4).
      std::memcpy(table->MutableTwin(page) + (lo - page_begin), src, hi - lo);
      counters_->twin_bytes_updated.fetch_add(hi - lo, std::memory_order_relaxed);
    }
  }
}

PageTable* VmStrategy::page_table(RegionId id) const {
  auto it = page_tables_.find(id);
  return it == page_tables_.end() ? nullptr : it->second.get();
}

}  // namespace midway

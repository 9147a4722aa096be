#include "src/core/vm_strategy.h"

#include <algorithm>
#include <cstring>

#include "src/core/sigsegv.h"
#include "src/mem/diff.h"

namespace midway {
namespace {

// Sets the protection of `pages` (ascending, distinct) with one mprotect per maximal run of
// consecutive pages; returns the number of runs.
size_t ProtectPageRuns(PageTable* table, std::span<const size_t> pages, bool writable) {
  size_t runs = 0;
  for (size_t i = 0; i < pages.size();) {
    size_t last = pages[i];
    size_t j = i + 1;
    while (j < pages.size() && pages[j] == last + 1) last = pages[j++];
    const uint32_t begin = table->PageBegin(pages[i]);
    table->region()->ProtectDataRange(
        begin, table->PageBegin(last) + table->PageBytes(last) - begin, writable);
    ++runs;
    i = j;
  }
  return runs;
}

}  // namespace

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
        clean_candidates_.push_back(CleanCandidate{table, page});
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
  // Group each region's candidates in page order, so its retired pages form runs that one
  // mprotect each re-protects. A page collected twice since the last sync point is listed
  // twice; RetirePage turns the second listing away because the page is already clean.
  std::sort(candidates.begin(), candidates.end(),
            [](const CleanCandidate& a, const CleanCandidate& b) {
              const RegionId ra = a.table->region()->id();
              const RegionId rb = b.table->region()->id();
              return ra != rb ? ra < rb : a.page < b.page;
            });
  std::vector<size_t> retired;
  for (size_t i = 0; i < candidates.size();) {
    PageTable* table = candidates[i].table;
    retired.clear();
    for (; i < candidates.size() && candidates[i].table == table; ++i) {
      if (RetirePage(table, candidates[i].page)) retired.push_back(candidates[i].page);
    }
    if (backend_ == TrapBackend::kSigsegv) {
      ProtectPageRuns(table, retired, /*writable=*/false);
    }
  }
}

bool VmStrategy::RetirePage(PageTable* table, size_t page) {
  if (!table->IsDirty(page)) return false;
  const uint32_t page_bytes = table->PageBytes(page);
  // "When all modified data on the page has been shipped to other processors, the page is
  // considered clean and its diff and twin deallocated" (paper §3.4). Shipped runs were
  // copied into the twin, so a byte-identical page has nothing left to ship.
  if (!SpansEqual({table->PageData(page), page_bytes}, {table->Twin(page), page_bytes})) {
    return false;  // other bound data on the page is still unshipped
  }
  table->MarkClean(page);
  counters_->pages_write_protected.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void VmStrategy::Apply(std::span<const UpdateEntry> entries) {
  // One page-table lookup per run of entries on the same region (a set usually names one).
  while (!entries.empty()) {
    const RegionId id = entries.front().addr.region;
    size_t n = 1;
    while (n < entries.size() && entries[n].addr.region == id) ++n;
    auto it = page_tables_.find(id);
    MIDWAY_CHECK(it != page_tables_.end());
    ApplyToRegion(it->second.get(), entries.first(n));
    entries = entries.subspan(n);
  }
}

void VmStrategy::ApplyToRegion(PageTable* table, std::span<const UpdateEntry> entries) {
  Region* region = table->region();
  for (const UpdateEntry& entry : entries) {
    MIDWAY_CHECK_LE(uint64_t{entry.addr.offset} + entry.length, region->size());
  }
  // Under sigsegv a clean page is write-protected. Open every clean page the set touches
  // once, one mprotect per run of contiguous clean pages, copy all entries, then close the
  // same runs. A dirty page is already writable and never joins a run, so it stays
  // writable. The application thread is blocked at the synchronization operation that
  // triggered this transfer (or is itself replaying its checkpoint), so no local store can
  // slip through an open window untrapped.
  std::vector<size_t> clean;  // distinct clean pages touched, ascending once sorted
  if (backend_ == TrapBackend::kSigsegv) {
    for (const UpdateEntry& entry : entries) {
      if (entry.length == 0) continue;
      const size_t last = table->PageOf(entry.addr.offset + entry.length - 1);
      for (size_t page = table->PageOf(entry.addr.offset); page <= last; ++page) {
        if (!table->IsDirty(page) && (clean.empty() || clean.back() != page)) {
          clean.push_back(page);
        }
      }
    }
    std::sort(clean.begin(), clean.end());
    clean.erase(std::unique(clean.begin(), clean.end()), clean.end());
    counters_->apply_protect_windows.fetch_add(
        ProtectPageRuns(table, clean, /*writable=*/true), std::memory_order_relaxed);
  }
  for (const UpdateEntry& entry : entries) {
    if (entry.length == 0) continue;
    const uint32_t begin = entry.addr.offset;
    const uint32_t end = begin + entry.length;
    std::memcpy(region->data() + begin, entry.data.data(), entry.length);
    const size_t last = table->PageOf(end - 1);
    for (size_t page = table->PageOf(begin); page <= last; ++page) {
      if (!table->IsDirty(page)) continue;
      // Apply to the twin as well, so the incoming update is not mistaken for a local
      // modification at the next diff (paper §3.4).
      const uint32_t page_begin = table->PageBegin(page);
      const uint32_t lo = std::max(begin, page_begin);
      const uint32_t hi = std::min(end, page_begin + table->PageBytes(page));
      std::memcpy(table->MutableTwin(page) + (lo - page_begin), entry.data.data() + (lo - begin),
                  hi - lo);
      counters_->twin_bytes_updated.fetch_add(hi - lo, std::memory_order_relaxed);
    }
  }
  ProtectPageRuns(table, clean, /*writable=*/false);
}

PageTable* VmStrategy::page_table(RegionId id) const {
  auto it = page_tables_.find(id);
  return it == page_tables_.end() ? nullptr : it->second.get();
}

}  // namespace midway

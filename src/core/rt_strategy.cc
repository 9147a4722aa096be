#include "src/core/rt_strategy.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/common/log.h"
#include "src/core/sigsegv.h"
#include "src/sync/invariants.h"

namespace midway {
namespace {

// Coalesces consecutive dirty lines with equal timestamps into update entries, clipping the
// first and last line to the bound window [begin, end).
void AppendLineEntries(Region* region, const std::vector<DirtybitTable::DirtyLine>& lines,
                       uint32_t begin, uint32_t end, UpdateSet* out) {
  if (lines.empty()) return;
  const uint32_t line_size = region->line_size();
  out->reserve(out->size() + lines.size());
  size_t i = 0;
  while (i < lines.size()) {
    size_t j = i + 1;
    while (j < lines.size() && lines[j].line == lines[j - 1].line + 1 &&
           lines[j].ts == lines[i].ts) {
      ++j;
    }
    uint32_t lo = std::max(lines[i].line * line_size, begin);
    uint32_t hi = std::min((lines[j - 1].line + 1) * line_size, end);
    if (lo < hi) {
      UpdateEntry entry;
      entry.addr = GlobalAddr{region->id(), lo};
      entry.ts = lines[i].ts;
      // Zero-copy fast path: the entry borrows region memory. Valid because collected sets
      // are encoded and handed to the transport before the runtime lock is released (see
      // INTERNALS: payload lifetime rules); anything stored longer must BindCopy.
      entry.BindView({region->data() + lo, hi - lo});
      out->push_back(std::move(entry));
    }
    i = j;
  }
}

}  // namespace

void RtStrategy::OnBeginParallel() {
  for (const auto& region : regions_->regions()) {
    if (region->dirtybits() != nullptr) {
      region->dirtybits()->Clear();
    }
  }
}

void RtStrategy::NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) {
  if (header->dirty_slots == nullptr) {
    // Misclassified write to private memory: the private template just returns (paper: a
    // six-instruction penalty on the R3000).
    counters_->dirtybits_misclassified.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t first = offset >> header->line_shift;
  const uint32_t last = (offset + length - 1) >> header->line_shift;
  for (uint32_t line = first; line <= last; ++line) {
    header->dirty_slots[line].store(DirtybitTable::kDirtySentinel, std::memory_order_relaxed);
    // Maintain the collection-side summary bitmap; after the first store to a line this is
    // one relaxed load (the bit is already set).
    DirtybitTable::SetSummaryBit(header->dirty_summary, line);
  }
  counters_->dirtybits_set.fetch_add(last - first + 1, std::memory_order_relaxed);
}

void RtStrategy::ScanRange(Region* region, uint32_t begin, uint32_t end, uint64_t since,
                           uint64_t stamp_ts, UpdateSet* out) {
  DirtybitTable* db = region->dirtybits();
  MIDWAY_CHECK(db != nullptr) << " lock bound to private region " << region->id();
  std::vector<DirtybitTable::DirtyLine> lines;
  auto stats = db->CollectRange(db->LineOf(begin), db->LineOf(end - 1), since, stamp_ts,
                                &lines);
  counters_->clean_dirtybits_read.fetch_add(stats.clean_reads, std::memory_order_relaxed);
  counters_->dirty_dirtybits_read.fetch_add(stats.dirty_reads, std::memory_order_relaxed);
  counters_->summary_word_skips.fetch_add(stats.summary_skips, std::memory_order_relaxed);
  AppendLineEntries(region, lines, begin, end, out);
}

void RtStrategy::Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
                         UpdateSet* out) {
  obs::Span span = CollectSpan(obs::SpanKind::kCollect);
  for (const GlobalRange& range : binding.ranges) {
    Region* region = regions_->Get(range.addr.region);
    uint32_t begin = range.begin();
    uint32_t end = static_cast<uint32_t>(
        std::min<uint64_t>(range.end(), region->size()));
    if (begin >= end) continue;
    ScanRange(region, begin, end, since, stamp_ts, out);
  }
}

void RtStrategy::Apply(std::span<const UpdateEntry> entries) {
  for (const UpdateEntry& entry : entries) ApplyLines(entry);
}

void RtStrategy::ApplyLines(const UpdateEntry& entry) {
  Region* region = regions_->Get(entry.addr.region);
  DirtybitTable* db = region->dirtybits();
  MIDWAY_CHECK(db != nullptr);
  RegionHeader* header = region->header();
  std::byte* base = region->data();
  const uint32_t line_size = region->line_size();
  uint32_t pos = entry.addr.offset;
  const uint32_t end = pos + entry.length;
  MIDWAY_CHECK_LE(end, region->size());
  while (pos < end) {
    const size_t line = db->LineOf(pos);
    const uint32_t line_end = std::min<uint32_t>(end, static_cast<uint32_t>(line + 1) * line_size);
    const uint64_t local = db->Load(line);
    const uint32_t n = line_end - pos;
    if (local == DirtybitTable::kDirtySentinel) {
      // The local processor has an unstamped modification to a line another processor also
      // updated in the same interval: an entry-consistency race.
      counters_->race_warnings.fetch_add(1, std::memory_order_relaxed);
      if (config_.detect_races) {
        MIDWAY_LOG(Warn) << "entry-consistency race on region " << entry.addr.region
                         << " line " << line;
      }
      std::memcpy(base + pos, entry.data.data() + (pos - entry.addr.offset), n);
      db->Store(line, entry.ts);
      if (header->first_level != nullptr) {
        header->first_level[line >> header->first_level_shift].store(
            1, std::memory_order_relaxed);
      }
      counters_->dirtybits_updated.fetch_add(1, std::memory_order_relaxed);
      if (ledger_ != nullptr) {
        ledger_->RecordApply(entry.addr.region, static_cast<uint32_t>(line), entry.ts);
      }
    } else if (entry.ts > local) {
      std::memcpy(base + pos, entry.data.data() + (pos - entry.addr.offset), n);
      db->Store(line, entry.ts);
      // Two-level: an applied update makes this line newer than older requesters' last-seen
      // times, so the cover bit must be raised or onward grants would skip the block.
      if (header->first_level != nullptr) {
        header->first_level[line >> header->first_level_shift].store(
            1, std::memory_order_relaxed);
      }
      counters_->dirtybits_updated.fetch_add(1, std::memory_order_relaxed);
      if (ledger_ != nullptr) {
        ledger_->RecordApply(entry.addr.region, static_cast<uint32_t>(line), entry.ts);
      }
    } else {
      // The receiver already has data at least this new: exactly-once in action.
      counters_->redundant_bytes_skipped.fetch_add(n, std::memory_order_relaxed);
    }
    pos = line_end;
  }
}

// --- Two-level dirtybits (§3.5 extension) --------------------------------------------------

void TwoLevelRtStrategy::AttachRegion(Region* region) {
  if (region->dirtybits() == nullptr) return;
  MIDWAY_CHECK(IsPowerOfTwo(config_.first_level_fanout));
  const size_t blocks = CeilDiv(region->num_lines(), config_.first_level_fanout);
  auto bits = std::make_unique<std::atomic<uint8_t>[]>(blocks);
  for (size_t i = 0; i < blocks; ++i) bits[i].store(0, std::memory_order_relaxed);
  region->header()->first_level = bits.get();
  region->header()->first_level_shift = Log2(config_.first_level_fanout);
  first_level_count_[region->id()] = blocks;
  first_level_[region->id()] = std::move(bits);
}

void TwoLevelRtStrategy::OnBeginParallel() {
  RtStrategy::OnBeginParallel();
  for (auto& [id, bits] : first_level_) {
    const size_t blocks = first_level_count_[id];
    for (size_t i = 0; i < blocks; ++i) bits[i].store(0, std::memory_order_relaxed);
  }
}

void TwoLevelRtStrategy::NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) {
  RtStrategy::NoteWrite(header, offset, length);
  if (header->dirty_slots == nullptr || header->first_level == nullptr) return;
  // One extra store on the write path (the paper estimates ~10% added trapping cost).
  const uint32_t first = (offset >> header->line_shift) >> header->first_level_shift;
  const uint32_t last =
      ((offset + length - 1) >> header->line_shift) >> header->first_level_shift;
  for (uint32_t block = first; block <= last; ++block) {
    header->first_level[block].store(1, std::memory_order_relaxed);
  }
  counters_->first_level_set.fetch_add(last - first + 1, std::memory_order_relaxed);
}

void TwoLevelRtStrategy::Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
                                 UpdateSet* out) {
  obs::Span span = CollectSpan(obs::SpanKind::kCollect);
  std::vector<DirtybitTable::DirtyLine> lines;
  for (const GlobalRange& range : binding.ranges) {
    Region* region = regions_->Get(range.addr.region);
    DirtybitTable* db = region->dirtybits();
    MIDWAY_CHECK(db != nullptr);
    RegionHeader* header = region->header();
    uint32_t begin = range.begin();
    uint32_t end = static_cast<uint32_t>(std::min<uint64_t>(range.end(), region->size()));
    if (begin >= end) continue;
    const size_t first_line = db->LineOf(begin);
    const size_t last_line = db->LineOf(end - 1);
    const uint32_t fshift = header->first_level_shift;
    for (size_t block = first_line >> fshift; block <= last_line >> fshift; ++block) {
      if (header->first_level[block].load(std::memory_order_relaxed) == 0) {
        // Whole cover block clean: one first-level read replaces fanout line reads.
        counters_->first_level_skips.fetch_add(1, std::memory_order_relaxed);
        counters_->clean_dirtybits_read.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const size_t bfirst = std::max(first_line, block << fshift);
      const size_t blast = std::min(last_line, ((block + 1) << fshift) - 1);
      lines.clear();
      auto stats = db->CollectRange(bfirst, blast, since, stamp_ts, &lines);
      counters_->clean_dirtybits_read.fetch_add(stats.clean_reads, std::memory_order_relaxed);
      counters_->dirty_dirtybits_read.fetch_add(stats.dirty_reads, std::memory_order_relaxed);
      counters_->summary_word_skips.fetch_add(stats.summary_skips, std::memory_order_relaxed);
      AppendLineEntries(region, lines, begin, end, out);
    }
  }
}

// --- Update queue (§3.5 extension) ---------------------------------------------------------

namespace {

// Tiny scoped spinlock: NoteWrite (application thread) and Collect (communication thread)
// touch a queue concurrently; the critical sections are a few instructions.
class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag* flag) : flag_(flag) {
    while (flag_->test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinGuard() { flag_->clear(std::memory_order_release); }

 private:
  std::atomic_flag* flag_;
};

}  // namespace

void RtQueueStrategy::AttachRegion(Region* region) {
  RtStrategy::AttachRegion(region);
  if (region->dirtybits() != nullptr) {
    queues_[region->id()] = std::make_unique<Queue>();
  }
}

void RtQueueStrategy::OnBeginParallel() {
  RtStrategy::OnBeginParallel();
  for (auto& [id, queue] : queues_) {
    SpinGuard guard(&queue->lock);
    queue->runs.clear();
    queue->overflow = false;
  }
}

void RtQueueStrategy::Enqueue(RegionId id, uint32_t first_line, uint32_t last_line) {
  Queue& queue = *queues_.at(id);
  SpinGuard guard(&queue.lock);
  if (queue.overflow) {
    return;
  }
  // The paper's heuristic: many updates are sequential, so try to extend the tail run.
  if (!queue.runs.empty()) {
    LineRun& tail = queue.runs.back();
    if (first_line <= tail.last + 1 && last_line + 1 >= tail.first) {
      tail.first = std::min(tail.first, first_line);
      tail.last = std::max(tail.last, last_line);
      counters_->queue_merges.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (queue.runs.size() >= config_.update_queue_limit) {
    queue.overflow = true;
    queue.runs.clear();
    queue.runs.shrink_to_fit();
    counters_->queue_overflows.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  queue.runs.push_back(LineRun{first_line, last_line});
  counters_->queue_appends.fetch_add(1, std::memory_order_relaxed);
}

void RtQueueStrategy::NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) {
  RtStrategy::NoteWrite(header, offset, length);
  if (header->dirty_slots == nullptr) return;
  const uint32_t first = offset >> header->line_shift;
  const uint32_t last = (offset + length - 1) >> header->line_shift;
  Enqueue(header->region_id, first, last);
}

void RtQueueStrategy::Apply(std::span<const UpdateEntry> entries) {
  RtStrategy::Apply(entries);
  // Applied updates become part of this processor's history: a later requester whose
  // last-seen time predates them must find their lines via the queue.
  for (const UpdateEntry& entry : entries) {
    const uint32_t shift = regions_->Get(entry.addr.region)->line_shift();
    Enqueue(entry.addr.region, entry.addr.offset >> shift,
            (entry.addr.offset + entry.length - 1) >> shift);
  }
}

void RtQueueStrategy::Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
                              UpdateSet* out) {
  obs::Span span = CollectSpan(obs::SpanKind::kCollect);
  for (const GlobalRange& range : binding.ranges) {
    Region* region = regions_->Get(range.addr.region);
    DirtybitTable* db = region->dirtybits();
    MIDWAY_CHECK(db != nullptr);
    const uint32_t begin = range.begin();
    const uint32_t end =
        static_cast<uint32_t>(std::min<uint64_t>(range.end(), region->size()));
    if (begin >= end) continue;

    Queue& queue = *queues_.at(region->id());
    bool overflow;
    std::vector<LineRun> runs;
    {
      SpinGuard guard(&queue.lock);
      overflow = queue.overflow;
      if (!overflow) runs = queue.runs;  // copy out; process without holding the spinlock
    }
    if (overflow) {
      // Fall back to the flat scan: always correct, costs one read per bound line.
      ScanRange(region, begin, end, since, stamp_ts, out);
      continue;
    }
    // Coalesce overlapping runs (repeated writes to the same window enqueue separately when
    // other appends interleave) so no line is scanned or shipped twice.
    std::sort(runs.begin(), runs.end(),
              [](const LineRun& a, const LineRun& b) { return a.first < b.first; });
    size_t merged = 0;
    for (size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].first <= runs[merged].last + 1) {
        runs[merged].last = std::max(runs[merged].last, runs[i].last);
      } else {
        runs[++merged] = runs[i];
      }
    }
    if (!runs.empty()) runs.resize(merged + 1);

    const uint32_t first_line = static_cast<uint32_t>(db->LineOf(begin));
    const uint32_t last_line = static_cast<uint32_t>(db->LineOf(end - 1));
    const uint32_t line_size = region->line_size();
    for (const LineRun& run : runs) {
      const uint32_t lo = std::max(run.first, first_line);
      const uint32_t hi = std::min(run.last, last_line);
      if (lo > hi) {
        // One queue-entry read that found nothing relevant: account like a clean read.
        counters_->clean_dirtybits_read.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const uint32_t scan_begin = std::max(begin, lo * line_size);
      const uint32_t scan_end = std::min(end, (hi + 1) * line_size);
      ScanRange(region, scan_begin, scan_end, since, stamp_ts, out);
    }
  }
}

size_t RtQueueStrategy::QueueLength(RegionId id) {
  Queue& queue = *queues_.at(id);
  SpinGuard guard(&queue.lock);
  return queue.runs.size();
}

bool RtQueueStrategy::QueueOverflowed(RegionId id) {
  Queue& queue = *queues_.at(id);
  SpinGuard guard(&queue.lock);
  return queue.overflow;
}

// --- Hybrid: VM-protected dirtybit pages as the first level (§3.5 extension) ----------------

HybridRtStrategy::HybridRtStrategy(const SystemConfig& config, RegionTable* regions,
                                   Counters* counters)
    : RtStrategy(config, regions, counters),
      os_page_size_(static_cast<uint32_t>(::sysconf(_SC_PAGESIZE))),
      lines_per_page_(os_page_size_ / sizeof(std::atomic<uint64_t>)) {
  InstallSigsegvHandler();
}

HybridRtStrategy::~HybridRtStrategy() {
  for (auto& [id, bits] : first_level_) {
    DirtybitTable* db = regions_->Get(id)->dirtybits();
    UnregisterFaultRegion(reinterpret_cast<std::byte*>(db->slots()));
    if (parallel_started_) {
      db->ProtectAllSlots(/*writable=*/true);
    }
  }
}

void HybridRtStrategy::AttachRegion(Region* region) {
  DirtybitTable* db = region->dirtybits();
  if (db == nullptr) return;
  MIDWAY_CHECK(db->mmap_backed())
      << " hybrid strategy requires mmap-backed dirtybits (region created under kRtHybrid?)";
  const size_t cover_pages = CeilDiv(db->SlotBytes(), os_page_size_);
  auto bits = std::make_unique<std::atomic<uint8_t>[]>(cover_pages);
  for (size_t i = 0; i < cover_pages; ++i) bits[i].store(0, std::memory_order_relaxed);
  RegisterDirtybitFaultRegion(db, bits.get(), counters_);
  first_level_count_[region->id()] = cover_pages;
  first_level_[region->id()] = std::move(bits);
}

void HybridRtStrategy::OnBeginParallel() {
  parallel_started_ = true;
  // Clear the slots while they are still writable, then arm the protection.
  RtStrategy::OnBeginParallel();
  for (auto& [id, bits] : first_level_) {
    const size_t cover_pages = first_level_count_[id];
    for (size_t i = 0; i < cover_pages; ++i) bits[i].store(0, std::memory_order_relaxed);
    regions_->Get(id)->dirtybits()->ProtectAllSlots(/*writable=*/false);
  }
}

void HybridRtStrategy::Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
                               UpdateSet* out) {
  obs::Span span = CollectSpan(obs::SpanKind::kCollect);
  for (const GlobalRange& range : binding.ranges) {
    Region* region = regions_->Get(range.addr.region);
    DirtybitTable* db = region->dirtybits();
    MIDWAY_CHECK(db != nullptr);
    const uint32_t begin = range.begin();
    const uint32_t end =
        static_cast<uint32_t>(std::min<uint64_t>(range.end(), region->size()));
    if (begin >= end) continue;
    const auto& bits = first_level_.at(region->id());
    const size_t first_line = db->LineOf(begin);
    const size_t last_line = db->LineOf(end - 1);
    const uint32_t line_size = region->line_size();
    for (size_t page = first_line / lines_per_page_; page <= last_line / lines_per_page_;
         ++page) {
      if (bits[page].load(std::memory_order_relaxed) == 0) {
        // No slot on this dirtybit page was ever stored to: its 512 lines are clean.
        counters_->first_level_skips.fetch_add(1, std::memory_order_relaxed);
        counters_->clean_dirtybits_read.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const size_t lo = std::max(first_line, page * lines_per_page_);
      const size_t hi = std::min(last_line, (page + 1) * lines_per_page_ - 1);
      const uint32_t scan_begin = std::max<uint32_t>(begin, static_cast<uint32_t>(lo) * line_size);
      const uint32_t scan_end =
          std::min<uint32_t>(end, static_cast<uint32_t>(hi + 1) * line_size);
      ScanRange(region, scan_begin, scan_end, since, stamp_ts, out);
    }
  }
}

}  // namespace midway

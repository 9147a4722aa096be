// RT-DSM: compiler/runtime write detection with dirtybit timestamps (paper §3.1–3.2).
//
// Trapping: the instrumented store masks the address to find the region header (standing in
// for the paper's per-region code template) and stores the dirty sentinel into the line's
// timestamp slot. A store to private memory finds a header with no dirtybit slots and simply
// returns (the paper's misclassification penalty).
//
// Collection: scan the dirtybit timestamps of the bound lines; stamp sentinel lines with the
// release time (lazy timestamping, footnote 1); ship lines newer than the requester's
// last-seen time. Application on the receive side checks each line's timestamp so an update
// is performed at most once per processor.
#ifndef MIDWAY_SRC_CORE_RT_STRATEGY_H_
#define MIDWAY_SRC_CORE_RT_STRATEGY_H_

#include <map>
#include <memory>

#include "src/core/strategy.h"

namespace midway {

class RtStrategy : public DetectionStrategy {
 public:
  using DetectionStrategy::DetectionStrategy;

  DetectionMode mode() const override { return DetectionMode::kRt; }
  bool HasLineTimestamps() const override { return true; }

  void OnBeginParallel() override;

  void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) override;

  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override;

  void Apply(std::span<const UpdateEntry> entries) override;

 protected:
  // Scans lines covering region bytes [begin, end): stamps sentinels with stamp_ts, appends
  // coalesced entries for lines with ts > since, and updates the scan counters.
  void ScanRange(Region* region, uint32_t begin, uint32_t end, uint64_t since,
                 uint64_t stamp_ts, UpdateSet* out);

 private:
  // Applies each line of `entry` whose incoming timestamp beats the local one.
  void ApplyLines(const UpdateEntry& entry);
};

// §3.5 extension: two-level dirtybits. Every store additionally sets a first-level "cover"
// bit spanning `config.first_level_fanout` lines; collection skips a whole cover block when
// its bit is clear, making collection cost proportional to the amount of dirty data. Cover
// bits are monotonic within a parallel phase (clearing them safely would require write
// quiescence across all locks sharing a block).
class TwoLevelRtStrategy final : public RtStrategy {
 public:
  using RtStrategy::RtStrategy;

  DetectionMode mode() const override { return DetectionMode::kRtTwoLevel; }

  void AttachRegion(Region* region) override;
  void OnBeginParallel() override;
  void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) override;
  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override;

 private:
  std::map<RegionId, std::unique_ptr<std::atomic<uint8_t>[]>> first_level_;
  std::map<RegionId, size_t> first_level_count_;
};

// §3.5 extension: update queue. Every instrumented store also appends the written line run
// to a per-region queue (merging with the tail when writes are sequential — the paper's
// heuristic). Collection walks the queue's runs instead of scanning every bound line, so its
// cost is proportional to the amount of dirty data. The dirtybit timestamps remain the
// source of truth (queued runs are *candidates*; stale entries are filtered by the per-line
// `since` check), so the queue is never drained — if it exceeds the configured limit the
// region overflows and collection falls back to full scans, which is always safe.
class RtQueueStrategy final : public RtStrategy {
 public:
  RtQueueStrategy(const SystemConfig& config, RegionTable* regions, Counters* counters)
      : RtStrategy(config, regions, counters) {}

  DetectionMode mode() const override { return DetectionMode::kRtQueue; }

  void AttachRegion(Region* region) override;
  void OnBeginParallel() override;
  void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) override;
  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override;
  void Apply(std::span<const UpdateEntry> entries) override;

  // Test hooks.
  size_t QueueLength(RegionId id);
  bool QueueOverflowed(RegionId id);

 private:
  struct LineRun {
    uint32_t first;
    uint32_t last;  // inclusive
  };
  struct Queue {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;  // guards runs/overflow (app vs comm thread)
    std::vector<LineRun> runs;
    bool overflow = false;
  };

  void Enqueue(RegionId id, uint32_t first_line, uint32_t last_line);

  std::map<RegionId, std::unique_ptr<Queue>> queues_;
};

// §3.5 extension: VM page protection as the first level over the *dirtybit pages*. The
// store fast path is exactly RT-DSM's (no extra instruction); instead, the pages holding the
// dirtybit slots start write-protected, and the first slot store on each page faults — the
// handler sets a first-level bit covering that page's lines (OS page / 8 bytes per slot =
// 512 lines on 4 KB pages) and unprotects it. Collection skips cover blocks whose bit never
// faulted. Like the two-level variant, cover bits are monotonic within a parallel phase.
class HybridRtStrategy final : public RtStrategy {
 public:
  HybridRtStrategy(const SystemConfig& config, RegionTable* regions, Counters* counters);
  ~HybridRtStrategy() override;

  DetectionMode mode() const override { return DetectionMode::kRtHybrid; }

  void AttachRegion(Region* region) override;
  void OnBeginParallel() override;
  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override;

  // Lines covered by one protected dirtybit page.
  uint32_t LinesPerCoverPage() const { return lines_per_page_; }

 private:
  uint32_t os_page_size_;
  uint32_t lines_per_page_;  // os_page_size / sizeof(slot)
  std::map<RegionId, std::unique_ptr<std::atomic<uint8_t>[]>> first_level_;
  std::map<RegionId, size_t> first_level_count_;
  bool parallel_started_ = false;
};

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_RT_STRATEGY_H_

#include "src/core/strategy.h"

#include <algorithm>
#include <cstring>

#include "src/core/rt_strategy.h"
#include "src/core/vm_strategy.h"

namespace midway {
namespace {

// Raw stores into the local copy: the apply path of kStandalone and kBlast, which keep no
// detection state.
void CopyEntries(RegionTable* regions, std::span<const UpdateEntry> entries) {
  for (const UpdateEntry& entry : entries) {
    std::memcpy(regions->Translate(entry.addr), entry.data.data(), entry.length);
  }
}

// kStandalone: uniprocessor baseline with no write detection at all (Figure 2's standalone
// bars).
class NullStrategy final : public DetectionStrategy {
 public:
  using DetectionStrategy::DetectionStrategy;

  DetectionMode mode() const override { return DetectionMode::kStandalone; }
  void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) override {}
  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override {}
  void Apply(std::span<const UpdateEntry> entries) override {
    CopyEntries(regions_, entries);
  }
};

// §3.5: "blasting" — no write detection; every transfer ships all bound data.
class BlastStrategy final : public DetectionStrategy {
 public:
  using DetectionStrategy::DetectionStrategy;

  DetectionMode mode() const override { return DetectionMode::kBlast; }
  void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) override {}
  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override {
    CollectFull(binding, stamp_ts, out);
  }
  void Apply(std::span<const UpdateEntry> entries) override {
    CopyEntries(regions_, entries);
  }
};

}  // namespace

void DetectionStrategy::CollectFull(const Binding& binding, uint64_t stamp_ts, UpdateSet* out) {
  obs::Span span = CollectSpan(obs::SpanKind::kCollect);
  for (const GlobalRange& range : binding.ranges) {
    Region* region = regions_->Get(range.addr.region);
    const uint32_t begin = range.begin();
    const uint32_t end =
        static_cast<uint32_t>(std::min<uint64_t>(range.end(), region->size()));
    if (begin >= end) continue;
    UpdateEntry entry;
    entry.addr = range.addr;
    entry.ts = stamp_ts;
    // Zero-copy: collected sets are encoded and handed to the transport before the runtime
    // lock is released, so the entry can borrow region memory directly.
    entry.BindView({region->data() + begin, end - begin});
    out->push_back(std::move(entry));
  }
}

const char* DetectionModeName(DetectionMode mode) {
  switch (mode) {
    case DetectionMode::kRt:
      return "RT-DSM";
    case DetectionMode::kVmSoft:
      return "VM-DSM(soft)";
    case DetectionMode::kVmSigsegv:
      return "VM-DSM(sigsegv)";
    case DetectionMode::kBlast:
      return "Blast";
    case DetectionMode::kTwinAll:
      return "TwinAll";
    case DetectionMode::kRtTwoLevel:
      return "RT-DSM(2level)";
    case DetectionMode::kRtQueue:
      return "RT-DSM(queue)";
    case DetectionMode::kRtHybrid:
      return "RT-DSM(hybrid)";
    case DetectionMode::kStandalone:
      return "Standalone";
  }
  return "?";
}

std::unique_ptr<DetectionStrategy> MakeStrategy(const SystemConfig& config, RegionTable* regions,
                                                Counters* counters) {
  switch (config.mode) {
    case DetectionMode::kRt:
      return std::make_unique<RtStrategy>(config, regions, counters);
    case DetectionMode::kRtTwoLevel:
      return std::make_unique<TwoLevelRtStrategy>(config, regions, counters);
    case DetectionMode::kRtQueue:
      return std::make_unique<RtQueueStrategy>(config, regions, counters);
    case DetectionMode::kRtHybrid:
      return std::make_unique<HybridRtStrategy>(config, regions, counters);
    case DetectionMode::kVmSoft:
      return std::make_unique<VmStrategy>(config, regions, counters,
                                          VmStrategy::TrapBackend::kSoft);
    case DetectionMode::kVmSigsegv:
      return std::make_unique<VmStrategy>(config, regions, counters,
                                          VmStrategy::TrapBackend::kSigsegv);
    case DetectionMode::kTwinAll:
      return std::make_unique<VmStrategy>(config, regions, counters,
                                          VmStrategy::TrapBackend::kTwinAll);
    case DetectionMode::kBlast:
      return std::make_unique<BlastStrategy>(config, regions, counters);
    case DetectionMode::kStandalone:
      return std::make_unique<NullStrategy>(config, regions, counters);
  }
  MIDWAY_CHECK(false) << " unknown detection mode";
  return nullptr;
}

}  // namespace midway

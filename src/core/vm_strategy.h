// VM-DSM: page-protection write detection with twins and diffs (paper §3.3–3.4), plus the
// §3.5 "twin everything, detect nothing" alternative.
//
// Trapping: the first store to a clean page is caught — by a real SIGSEGV under kVmSigsegv,
// or by a page-state check on the instrumented store path under kVmSoft — at which point the
// page is twinned, marked dirty, and (sigsegv) made writable. Subsequent stores run free.
//
// Collection: dirty pages holding bound data are compared word-by-word with their twins; the
// modified runs clipped to the bound ranges become the update. Shipped runs are copied into
// the twin so they are not collected twice; once a page is byte-identical to its twin again
// it is retired (twin dropped, page re-protected) at the next application-thread sync point.
//
// Application: a received update set is copied in one pass. Under kVmSigsegv every clean
// page the set touches is opened once, one mprotect per run of contiguous clean pages, and
// the same runs are closed again before Apply returns; dirty pages are already writable,
// never join a run, and get each incoming byte in their twin as well. Retirement
// re-protects a sync point's retired pages run by run the same way.
#ifndef MIDWAY_SRC_CORE_VM_STRATEGY_H_
#define MIDWAY_SRC_CORE_VM_STRATEGY_H_

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/core/strategy.h"
#include "src/mem/page_table.h"

namespace midway {

class VmStrategy final : public DetectionStrategy {
 public:
  enum class TrapBackend {
    kSoft,     // simulated fault on the instrumented store path
    kSigsegv,  // mprotect + SIGSEGV
    kTwinAll,  // §3.5: no trapping; every shared page twinned up front, diff on collect
  };

  VmStrategy(const SystemConfig& config, RegionTable* regions, Counters* counters,
             TrapBackend backend);
  ~VmStrategy() override;

  DetectionMode mode() const override;

  void AttachRegion(Region* region) override;
  void OnBeginParallel() override;
  void OnSyncPoint() override;

  void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) override;

  void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
               UpdateSet* out) override;

  void Apply(std::span<const UpdateEntry> entries) override;

  // Test hook.
  PageTable* page_table(RegionId id) const;

 private:
  struct CleanCandidate {
    PageTable* table;
    size_t page;
  };

  // Marks `page` clean if everything modified on it has shipped; returns whether it did.
  // The caller re-protects retired pages (sigsegv).
  bool RetirePage(PageTable* table, size_t page);
  // Apply for a run of entries that all name the region of `table`.
  void ApplyToRegion(PageTable* table, std::span<const UpdateEntry> entries);

  TrapBackend backend_;
  std::map<RegionId, std::unique_ptr<PageTable>> page_tables_;
  // Pages that may have shipped all their modifications; examined at the next sync point on
  // the application thread, where no local store can be in flight.
  std::vector<CleanCandidate> clean_candidates_;
  bool parallel_started_ = false;
};

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_VM_STRATEGY_H_

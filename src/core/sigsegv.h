// Real page-protection write trapping: SIGSEGV handler + fault-region registry.
//
// VM-DSM (kVmSigsegv) write-protects shared pages with mprotect(2); the first store to a
// clean page raises SIGSEGV. The handler looks the faulting address up in a global registry,
// twins the page (into preallocated twin storage — no allocation in the handler), marks it
// dirty, counts the fault, and re-enables write access, exactly like Midway's Mach external
// pager path (paper §3.3) but with a Unix signal as the fault vector.
//
// Faults that do not hit a registered range are forwarded to the previously installed
// disposition, so genuine crashes still crash.
#ifndef MIDWAY_SRC_CORE_SIGSEGV_H_
#define MIDWAY_SRC_CORE_SIGSEGV_H_

#include "src/core/counters.h"
#include "src/mem/dirtybit_table.h"
#include "src/mem/page_table.h"

namespace midway {

// Installs the process-wide SIGSEGV handler (idempotent, thread safe).
void InstallSigsegvHandler();

// Registers a region's data range for fault handling.
// The registration stays valid until UnregisterFaultRegion(begin).
void RegisterFaultRegion(std::byte* begin, size_t length, PageTable* table, Region* region,
                         Counters* counters);

// Registers a write-protected *dirtybit slot array* (the hybrid strategy, paper §3.5:
// "virtual memory page protection could also be used to implement the first level
// dirtybits"). The first store to a slot page sets first_level[slot_page], makes that page
// writable, and bumps counters->first_level_set. `table` must be mmap backed.
void RegisterDirtybitFaultRegion(DirtybitTable* table, std::atomic<uint8_t>* first_level,
                                 Counters* counters);

// Deactivates a registration (either kind; `begin` is the region data base or the slot
// array base). Must not race with faults on the range (callers quiesce the region's writers
// first — in practice, registrations are removed after the processor threads join).
void UnregisterFaultRegion(std::byte* begin);

// Number of active registrations (for tests).
size_t ActiveFaultRegions();

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_SIGSEGV_H_

// Page diffing (paper §3.4): a succinct description of all modifications to a page, computed
// by comparing the page against its twin at word (4-byte) granularity and merging adjacent
// modified words into runs.
//
// The comparison is vectorized: a 64-bit SWAR baseline plus SSE2/AVX2 paths selected by
// runtime CPU dispatch. Every implementation produces DiffRun vectors bit-identical to the
// scalar reference (ComputeDiffScalar), including the bytewise trailing-fragment semantics.
#ifndef MIDWAY_SRC_MEM_DIFF_H_
#define MIDWAY_SRC_MEM_DIFF_H_

#include <cstdint>
#include <span>
#include <vector>

namespace midway {

struct DiffRun {
  uint32_t offset = 0;  // byte offset of the first modified word
  uint32_t length = 0;  // bytes (multiple of the word size, except a trailing partial word)

  friend bool operator==(const DiffRun&, const DiffRun&) = default;
};

// Diff implementations, ordered slowest to fastest. kScalar is the reference the others are
// fuzz-tested against; kSwar works on any 64-bit target; kSse2/kAvx2 need x86 (kAvx2 also
// needs the CPU feature at runtime).
enum class DiffImpl : uint8_t { kScalar, kSwar, kSse2, kAvx2 };

const char* DiffImplName(DiffImpl impl);
bool DiffImplAvailable(DiffImpl impl);
// The fastest implementation available on this build + CPU (cached after first call).
DiffImpl BestDiffImpl();

// Word-by-word comparison of `current` vs `twin` (equal lengths). Adjacent modified words
// merge into one run. A trailing fragment shorter than a word is compared bytewise.
// Dispatches to BestDiffImpl().
std::vector<DiffRun> ComputeDiff(std::span<const std::byte> current,
                                 std::span<const std::byte> twin);

// The scalar reference implementation (always available; the fuzz-test oracle).
std::vector<DiffRun> ComputeDiffScalar(std::span<const std::byte> current,
                                       std::span<const std::byte> twin);

// Runs a specific implementation; `impl` must satisfy DiffImplAvailable.
std::vector<DiffRun> ComputeDiffWith(DiffImpl impl, std::span<const std::byte> current,
                                     std::span<const std::byte> twin);

// Allocation-reusing variants: clear and refill `out`, so a caller diffing many pages in a
// loop (VM collection, benchmarks) pays no per-page vector allocation once `out`'s capacity
// has warmed up. Results are identical to the returning forms.
void ComputeDiffInto(std::span<const std::byte> current, std::span<const std::byte> twin,
                     std::vector<DiffRun>* out);
void ComputeDiffScalarInto(std::span<const std::byte> current, std::span<const std::byte> twin,
                           std::vector<DiffRun>* out);
void ComputeDiffWithInto(DiffImpl impl, std::span<const std::byte> current,
                         std::span<const std::byte> twin, std::vector<DiffRun>* out);

// True when the two spans are byte-identical (the "page has no pending modifications" test
// used to decide when a page can be re-protected and its twin freed).
bool SpansEqual(std::span<const std::byte> a, std::span<const std::byte> b);

// Total modified bytes described by `runs`.
uint64_t DiffBytes(const std::vector<DiffRun>& runs);

// Intersects `runs` (offsets relative to some base) with the window [begin, end), returning
// clipped runs.
std::vector<DiffRun> ClipRuns(const std::vector<DiffRun>& runs, uint32_t begin, uint32_t end);

// Diffs only the window [begin, end) of a page: fills `out` with exactly
// ClipRuns(ComputeDiff(current, twin), begin, end), page-relative, while reading no byte
// outside the window widened to whole words. Restricts a page diff to the data bound to one
// synchronization object without touching the rest of the page, which may belong to
// another object whose holder is writing it concurrently.
void ComputeWindowDiffInto(std::span<const std::byte> current, std::span<const std::byte> twin,
                           uint32_t begin, uint32_t end, std::vector<DiffRun>* out);

}  // namespace midway

#endif  // MIDWAY_SRC_MEM_DIFF_H_

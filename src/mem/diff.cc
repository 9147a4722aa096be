#include "src/mem/diff.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"
#include "src/mem/diff_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#define MIDWAY_DIFF_HAVE_SSE2 1
#else
#define MIDWAY_DIFF_HAVE_SSE2 0
#endif

namespace midway {
namespace {

using diff_internal::kChunkWords;
using diff_internal::kWord;

// SWAR core: XOR eight bytes at a time; each nonzero 32-bit half marks one dirty word.
uint32_t Mask32Swar(const std::byte* a, const std::byte* b) {
  uint32_t mask = 0;
  for (unsigned pair = 0; pair < kChunkWords / 2; ++pair) {
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, a + pair * 8, 8);
    std::memcpy(&y, b + pair * 8, 8);
    const uint64_t diff = x ^ y;
    if (diff == 0) continue;
    // The half holding the lower-addressed word depends on endianness.
    const uint64_t first_word =
        std::endian::native == std::endian::little ? (diff & 0xFFFFFFFFu) : (diff >> 32);
    const uint64_t second_word =
        std::endian::native == std::endian::little ? (diff >> 32) : (diff & 0xFFFFFFFFu);
    if (first_word != 0) mask |= uint32_t{1} << (pair * 2);
    if (second_word != 0) mask |= uint32_t{1} << (pair * 2 + 1);
  }
  return mask;
}

#if MIDWAY_DIFF_HAVE_SSE2
// SSE2 core: per-dword compare; movemask_ps extracts one bit per 4-byte lane.
uint32_t Mask32Sse2(const std::byte* a, const std::byte* b) {
  uint32_t mask = 0;
  for (unsigned v = 0; v < kChunkWords / 4; ++v) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + v * 16));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + v * 16));
    const __m128i eq = _mm_cmpeq_epi32(x, y);
    const auto same = static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(eq)));
    mask |= (~same & 0xFu) << (v * 4);
  }
  return mask;
}
#endif

bool CpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace

const char* DiffImplName(DiffImpl impl) {
  switch (impl) {
    case DiffImpl::kScalar:
      return "scalar";
    case DiffImpl::kSwar:
      return "swar";
    case DiffImpl::kSse2:
      return "sse2";
    case DiffImpl::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool DiffImplAvailable(DiffImpl impl) {
  switch (impl) {
    case DiffImpl::kScalar:
    case DiffImpl::kSwar:
      return true;
    case DiffImpl::kSse2:
      return MIDWAY_DIFF_HAVE_SSE2 != 0;
    case DiffImpl::kAvx2:
      return diff_internal::Avx2CompiledIn() && CpuHasAvx2();
  }
  return false;
}

DiffImpl BestDiffImpl() {
  static const DiffImpl best = [] {
    if (DiffImplAvailable(DiffImpl::kAvx2)) return DiffImpl::kAvx2;
    if (DiffImplAvailable(DiffImpl::kSse2)) return DiffImpl::kSse2;
    return DiffImpl::kSwar;
  }();
  return best;
}

void ComputeDiffScalarInto(std::span<const std::byte> current, std::span<const std::byte> twin,
                           std::vector<DiffRun>* out) {
  MIDWAY_CHECK_EQ(current.size(), twin.size());
  out->clear();
  if (out->capacity() < 8) out->reserve(8);
  const size_t words = current.size() / kWord;
  size_t run_start = 0;
  bool in_run = false;

  auto close_run = [&](size_t end_byte) {
    out->push_back(DiffRun{static_cast<uint32_t>(run_start),
                           static_cast<uint32_t>(end_byte - run_start)});
    in_run = false;
  };

  for (size_t w = 0; w < words; ++w) {
    const size_t off = w * kWord;
    bool differs = std::memcmp(current.data() + off, twin.data() + off, kWord) != 0;
    if (differs && !in_run) {
      run_start = off;
      in_run = true;
    } else if (!differs && in_run) {
      close_run(off);
    }
  }
  // Trailing fragment (< one word), compared bytewise as a unit.
  const size_t tail = words * kWord;
  if (tail < current.size()) {
    bool differs = std::memcmp(current.data() + tail, twin.data() + tail,
                               current.size() - tail) != 0;
    if (differs && !in_run) {
      run_start = tail;
      in_run = true;
    } else if (!differs && in_run) {
      close_run(tail);
    }
  }
  if (in_run) {
    close_run(current.size());
  }
}

std::vector<DiffRun> ComputeDiffScalar(std::span<const std::byte> current,
                                       std::span<const std::byte> twin) {
  std::vector<DiffRun> runs;
  ComputeDiffScalarInto(current, twin, &runs);
  return runs;
}

void ComputeDiffWithInto(DiffImpl impl, std::span<const std::byte> current,
                         std::span<const std::byte> twin, std::vector<DiffRun>* out) {
  MIDWAY_CHECK_EQ(current.size(), twin.size());
  MIDWAY_CHECK(DiffImplAvailable(impl)) << " impl=" << DiffImplName(impl);
  switch (impl) {
    case DiffImpl::kScalar:
      ComputeDiffScalarInto(current, twin, out);
      return;
    case DiffImpl::kSwar:
      diff_internal::ComputeDiffMaskedInto(current, twin, Mask32Swar, out);
      return;
    case DiffImpl::kSse2:
#if MIDWAY_DIFF_HAVE_SSE2
      diff_internal::ComputeDiffMaskedInto(current, twin, Mask32Sse2, out);
      return;
#else
      break;
#endif
    case DiffImpl::kAvx2:
      diff_internal::ComputeDiffAvx2Into(current, twin, out);
      return;
  }
  ComputeDiffScalarInto(current, twin, out);
}

std::vector<DiffRun> ComputeDiffWith(DiffImpl impl, std::span<const std::byte> current,
                                     std::span<const std::byte> twin) {
  std::vector<DiffRun> runs;
  ComputeDiffWithInto(impl, current, twin, &runs);
  return runs;
}

void ComputeDiffInto(std::span<const std::byte> current, std::span<const std::byte> twin,
                     std::vector<DiffRun>* out) {
  ComputeDiffWithInto(BestDiffImpl(), current, twin, out);
}

std::vector<DiffRun> ComputeDiff(std::span<const std::byte> current,
                                 std::span<const std::byte> twin) {
  return ComputeDiffWith(BestDiffImpl(), current, twin);
}

bool SpansEqual(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

uint64_t DiffBytes(const std::vector<DiffRun>& runs) {
  uint64_t total = 0;
  for (const DiffRun& run : runs) total += run.length;
  return total;
}

std::vector<DiffRun> ClipRuns(const std::vector<DiffRun>& runs, uint32_t begin, uint32_t end) {
  std::vector<DiffRun> out;
  out.reserve(runs.size());
  for (const DiffRun& run : runs) {
    uint32_t lo = run.offset < begin ? begin : run.offset;
    uint32_t hi = run.offset + run.length > end ? end : run.offset + run.length;
    if (lo < hi) {
      out.push_back(DiffRun{lo, hi - lo});
    }
  }
  return out;
}

void ComputeWindowDiffInto(std::span<const std::byte> current, std::span<const std::byte> twin,
                           uint32_t begin, uint32_t end, std::vector<DiffRun>* out) {
  MIDWAY_CHECK_EQ(current.size(), twin.size());
  MIDWAY_CHECK_LE(begin, end);
  MIDWAY_CHECK_LE(end, current.size());
  // Widening to word boundaries keeps every compared word where the whole-page diff has it
  // (and the page's trailing fragment too, when the window reaches it), so the runs agree
  // with the whole-page diff once trimmed back to the window.
  const size_t lo = begin / kWord * kWord;
  const size_t hi = std::min(current.size(), (size_t{end} + kWord - 1) / kWord * kWord);
  ComputeDiffInto(current.subspan(lo, hi - lo), twin.subspan(lo, hi - lo), out);
  size_t kept = 0;
  for (const DiffRun& run : *out) {
    const auto run_lo = std::max(static_cast<uint32_t>(lo + run.offset), begin);
    const auto run_hi = std::min(static_cast<uint32_t>(lo + run.offset + run.length), end);
    if (run_lo < run_hi) (*out)[kept++] = DiffRun{run_lo, run_hi - run_lo};
  }
  out->resize(kept);
}

}  // namespace midway

#include "src/analysis/ec_checker.h"

#include <algorithm>
#include <sstream>

namespace midway {
namespace {

// Intersects the written/read byte range with one software cache line of the region.
GlobalRange ClampToLine(RegionId region, uint32_t line, uint32_t line_shift, uint32_t offset,
                        uint32_t length) {
  const uint32_t line_begin = line << line_shift;
  const uint32_t line_end = line_begin + (1u << line_shift);
  const uint32_t begin = std::max(offset, line_begin);
  const uint32_t end = std::min(offset + length, line_end);
  return GlobalRange{GlobalAddr{region, begin}, end - begin};
}

std::string DescribeRange(const GlobalRange& r) {
  std::ostringstream os;
  os << "region " << r.addr.region << " bytes [" << r.begin() << ", " << r.end() << ")";
  return os.str();
}

}  // namespace

EcChecker::EcChecker(NodeId self, Counters* counters)
    : self_(self), counters_(counters), sink_(self, counters) {}

void EcChecker::OnRegion(RegionId region, uint32_t line_shift, bool shared,
                         uint64_t data_size) {
  std::lock_guard<std::mutex> lk(mu_);
  regions_[region] = RegionInfo{line_shift, shared, data_size};
}

void EcChecker::OnLockBinding(uint32_t lock, const Binding& binding, bool is_rebind) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = lock_bindings_.find(lock);
  if (it != lock_bindings_.end()) {
    if (is_rebind) {
      prev_lock_bindings_[lock] = it->second;
    }
    InvalidateCoverLocked(it->second, 0);
  }
  InvalidateCoverLocked(binding, 0);
  lock_bindings_[lock] = binding;
}

void EcChecker::OnBarrierBinding(uint32_t barrier, const Binding& binding) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = barrier_bindings_.find(barrier);
  if (it != barrier_bindings_.end()) {
    InvalidateCoverLocked(it->second, 0);
  }
  InvalidateCoverLocked(binding, 0);
  barrier_bindings_[barrier] = binding;
}

uint64_t EcChecker::OnBeginParallel(uint64_t now) {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t fresh = 0;
  for (auto a = lock_bindings_.begin(); a != lock_bindings_.end(); ++a) {
    for (auto b = std::next(a); b != lock_bindings_.end(); ++b) {
      const std::pair<uint32_t, uint32_t> pair{a->first, b->first};
      if (std::find(overlap_reported_.begin(), overlap_reported_.end(), pair) !=
          overlap_reported_.end()) {
        continue;
      }
      bool reported = false;
      for (const GlobalRange& ra : a->second.ranges) {
        if (reported) break;
        for (const GlobalRange& rb : b->second.ranges) {
          if (ra.addr.region != rb.addr.region) continue;
          auto region_it = regions_.find(ra.addr.region);
          if (region_it == regions_.end()) continue;
          const uint32_t shift = region_it->second.line_shift;
          EcViolation v;
          v.kind = EcViolationKind::kBindingOverlap;
          v.region = ra.addr.region;
          v.lamport = now;
          v.sync_a = a->first;
          v.sync_b = b->first;
          if (ra.Overlaps(rb)) {
            const uint32_t begin = std::max(ra.begin(), rb.begin());
            const uint32_t end = std::min(ra.end(), rb.end());
            v.offset = begin;
            v.length = end - begin;
            std::ostringstream os;
            os << "locks " << a->first << " and " << b->first
               << " bind overlapping data: " << DescribeRange(ra) << " vs "
               << DescribeRange(rb)
               << "; update order for the shared bytes is ambiguous — bind each datum to "
                  "exactly one lock";
            v.detail = os.str();
          } else {
            // Byte-disjoint but sharing a software cache line: Huron-style false sharing.
            const uint32_t a_last = (ra.end() - 1) >> shift;
            const uint32_t b_first = rb.begin() >> shift;
            const uint32_t a_first = ra.begin() >> shift;
            const uint32_t b_last = (rb.end() - 1) >> shift;
            if (a_last < b_first || b_last < a_first) continue;  // disjoint lines too
            const uint32_t line = std::max(a_first, b_first);
            const uint32_t line_size = 1u << shift;
            v.offset = line << shift;
            v.length = line_size;
            std::ostringstream os;
            os << "false sharing: distinct data of locks " << a->first << " and " << b->first
               << " lands on the same " << line_size << "-byte cache line (line " << line
               << " of region " << ra.addr.region << ": " << DescribeRange(ra) << " vs "
               << DescribeRange(rb)
               << "); suggested padded layout: align each lock's data to a " << line_size
               << "-byte boundary and round its length up to a multiple of " << line_size
               << " (or create the region with line_size <= the per-lock element size)";
            v.detail = os.str();
          }
          fresh += sink_.Add(v);
          reported = true;
          break;
        }
      }
      if (reported) {
        overlap_reported_.push_back(pair);
      }
    }
  }
  return fresh;
}

void EcChecker::OnAcquired(uint32_t lock, bool exclusive) {
  std::lock_guard<std::mutex> lk(mu_);
  held_[lock] = exclusive;
}

void EcChecker::OnReleased(uint32_t lock) {
  std::lock_guard<std::mutex> lk(mu_);
  held_.erase(lock);
}

uint64_t EcChecker::OnGrantApplied(uint32_t lock, const std::vector<LoggedUpdate>& updates,
                                   uint64_t prev_seen_ts, uint64_t now) {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t fresh = 0;
  for (const LoggedUpdate& logged : updates) {
    for (const UpdateEntry& e : logged.updates) {
      auto region_it = regions_.find(e.addr.region);
      if (region_it == regions_.end() || e.length == 0) continue;
      const uint32_t shift = region_it->second.line_shift;
      const uint32_t first = e.addr.offset >> shift;
      const uint32_t last = (e.addr.offset + e.length - 1) >> shift;
      for (uint32_t line = first; line <= last; ++line) {
        auto shadow_it = shadow_.find(Key(e.addr.region, line));
        if (shadow_it == shadow_.end()) continue;
        ShadowLine& shadow = shadow_it->second;
        if (shadow.read_ts == 0) continue;
        // The incoming entry overwrites a line we checked-read while our copy was out of
        // date: the read happened after the lock was last consistent here, and the grant
        // filter only ships lines modified since then. (Entry timestamps cannot sharpen
        // this — RT stamps lines lazily at collect time, after the read.)
        if (shadow.read_ts > prev_seen_ts && !shadow.stale_reported) {
          EcViolation v;
          v.kind = EcViolationKind::kStaleRead;
          v.region = e.addr.region;
          v.offset = line << shift;
          v.length = 1u << shift;
          v.lamport = now;
          v.site = shadow.read_site;
          v.sync_a = lock;
          std::ostringstream os;
          os << "read at Lamport t=" << shadow.read_ts
             << " while this processor's copy of the line was last consistent at t="
             << prev_seen_ts << "; a grant of lock " << lock
             << " just applied a newer version — acquire the lock before reading";
          v.detail = os.str();
          fresh += sink_.Add(v);
          shadow.stale_reported = true;
        }
        shadow.read_ts = 0;  // the local copy is fresh again
      }
    }
  }
  return fresh;
}

void EcChecker::OnBarrierApplied(const UpdateSet& updates) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const UpdateEntry& e : updates) {
    auto region_it = regions_.find(e.addr.region);
    if (region_it == regions_.end() || e.length == 0) continue;
    const uint32_t shift = region_it->second.line_shift;
    const uint32_t first = e.addr.offset >> shift;
    const uint32_t last = (e.addr.offset + e.length - 1) >> shift;
    for (uint32_t line = first; line <= last; ++line) {
      auto shadow_it = shadow_.find(Key(e.addr.region, line));
      if (shadow_it != shadow_.end()) {
        shadow_it->second.read_ts = 0;  // barrier crossing refreshed the line
      }
    }
  }
}

uint64_t EcChecker::OnWrite(RegionId region, uint32_t offset, uint32_t length, uint64_t now,
                            const EcSite& site) {
  if (length == 0) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  auto region_it = regions_.find(region);
  if (region_it == regions_.end() || !region_it->second.shared) return 0;
  const uint32_t shift = region_it->second.line_shift;
  const uint32_t first = offset >> shift;
  const uint32_t last = (offset + length - 1) >> shift;
  uint64_t fresh = 0;
  for (uint32_t line = first; line <= last; ++line) {
    ShadowLine& shadow = LineAt(region, line);
    if (!shadow.cover_valid) {
      RefreshCoverLocked(region, line, shadow);
    }
    const GlobalRange wr = ClampToLine(region, line, shift, offset, length);
    bool authorized = HeldCovers(wr, /*exclusive_only=*/true);
    if (!authorized) {
      for (const auto& [barrier, binding] : barrier_bindings_) {
        if (binding.Contains(wr)) {
          authorized = true;
          break;
        }
      }
    }
    if (!authorized) {
      fresh += ClassifyUncoveredWriteLocked(region, line, shadow, wr, now, site);
      continue;
    }
    // Eraser candidate lockset, for authorized writes to lock-protected lines (barrier-
    // covered lines are published by crossings, not locks, and are exempt).
    if (!shadow.covering_locks.empty() && !shadow.barrier_covered && !shadow.lockset_dead) {
      auto held_here = [this](uint32_t lock) { return held_.count(lock) != 0; };
      std::vector<uint32_t> narrowed;
      for (uint32_t lock : shadow.candidates) {
        if (held_here(lock)) narrowed.push_back(lock);
      }
      shadow.candidates = std::move(narrowed);
      if (shadow.candidates.empty()) {
        EcViolation v;
        v.kind = EcViolationKind::kLocksetEmpty;
        v.region = region;
        v.offset = line << shift;
        v.length = 1u << shift;
        v.lamport = now;
        v.site = site;
        if (!held_.empty()) v.sync_a = held_.begin()->first;
        std::ostringstream os;
        os << "candidate lockset went empty: no single lock protects every write to this "
              "line (bound to lock";
        for (uint32_t lock : shadow.covering_locks) os << " " << lock;
        os << "); writers used different locks across acquires";
        v.detail = os.str();
        fresh += sink_.Add(v);
        shadow.lockset_dead = true;
      }
    }
  }
  return fresh;
}

void EcChecker::OnRead(RegionId region, uint32_t offset, uint32_t length, uint64_t now,
                       const EcSite& site) {
  if (length == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto region_it = regions_.find(region);
  if (region_it == regions_.end() || !region_it->second.shared) return;
  const uint32_t shift = region_it->second.line_shift;
  const uint32_t first = offset >> shift;
  const uint32_t last = (offset + length - 1) >> shift;
  for (uint32_t line = first; line <= last; ++line) {
    const GlobalRange rd = ClampToLine(region, line, shift, offset, length);
    // A read under any covering hold (shared or exclusive) is synchronized; so is a read of
    // data this processor itself publishes through a barrier binding.
    if (HeldCovers(rd, /*exclusive_only=*/false)) continue;
    bool own_published = false;
    for (const auto& [barrier, binding] : barrier_bindings_) {
      if (binding.Intersects(rd)) {
        own_published = true;
        break;
      }
    }
    if (own_published) continue;
    ShadowLine& shadow = LineAt(region, line);
    if (shadow.read_ts == 0) {  // keep the earliest unconfirmed read: it is the most stale
      shadow.read_ts = now;
      shadow.read_site = site;
    }
  }
}

EcSummary EcChecker::Summary() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sink_.Summary();
}

EcChecker::ShadowLine& EcChecker::LineAt(RegionId region, uint32_t line) {
  return shadow_[Key(region, line)];
}

void EcChecker::RefreshCoverLocked(RegionId region, uint32_t line, ShadowLine& shadow) {
  const RegionInfo& info = regions_[region];
  const GlobalRange line_range =
      ClampToLine(region, line, info.line_shift, 0, static_cast<uint32_t>(info.data_size));
  shadow.covering_locks.clear();
  for (const auto& [lock, binding] : lock_bindings_) {
    if (binding.Intersects(line_range)) {
      shadow.covering_locks.push_back(lock);
    }
  }
  shadow.barrier_covered = false;
  for (const auto& [barrier, binding] : barrier_bindings_) {
    if (binding.Intersects(line_range)) {
      shadow.barrier_covered = true;
      break;
    }
  }
  shadow.candidates = shadow.covering_locks;
  shadow.cover_valid = true;
}

void EcChecker::InvalidateCoverLocked(const Binding& binding, uint32_t /*line_shift_hint*/) {
  if (binding.ranges.empty() || shadow_.empty()) return;
  for (auto& [key, shadow] : shadow_) {
    if (!shadow.cover_valid) continue;
    const RegionId region = static_cast<RegionId>(key >> 32);
    const uint32_t line = static_cast<uint32_t>(key);
    auto region_it = regions_.find(region);
    if (region_it == regions_.end()) continue;
    const GlobalRange line_range = ClampToLine(
        region, line, region_it->second.line_shift, 0,
        static_cast<uint32_t>(region_it->second.data_size));
    if (binding.Intersects(line_range)) {
      // The protection discipline for this line changed (Bind/Rebind/grant-carried
      // binding): recompute coverage lazily and restart the candidate lockset.
      shadow.cover_valid = false;
      shadow.lockset_dead = false;
    }
  }
}

bool EcChecker::HeldCovers(const GlobalRange& range, bool exclusive_only) const {
  for (const auto& [lock, exclusive] : held_) {
    if (exclusive_only && !exclusive) continue;
    auto it = lock_bindings_.find(lock);
    if (it != lock_bindings_.end() && it->second.Contains(range)) {
      return true;
    }
  }
  return false;
}

uint64_t EcChecker::ClassifyUncoveredWriteLocked(RegionId region, uint32_t line,
                                                 ShadowLine& shadow,
                                                 const GlobalRange& line_range, uint64_t now,
                                                 const EcSite& site) {
  EcViolation v;
  v.region = region;
  v.offset = line_range.begin();
  v.length = line_range.length;
  v.lamport = now;
  v.site = site;

  // A held lock whose *previous* binding (before its last Rebind) covered the write is the
  // quicksort pitfall: the critical section kept writing a range it handed away.
  bool classified = false;
  for (const auto& [lock, exclusive] : held_) {
    auto prev = prev_lock_bindings_.find(lock);
    if (prev != prev_lock_bindings_.end() && prev->second.Intersects(line_range)) {
      v.kind = EcViolationKind::kRebindGapWrite;
      v.sync_a = lock;
      std::ostringstream os;
      os << "write to data that lock " << lock
         << "'s binding covered before its last Rebind narrowed it away; the write will "
            "ship with whichever lock now owns the range — rebind before the last write, "
            "not after";
      v.detail = os.str();
      classified = true;
      break;
    }
  }
  if (!classified && !shadow.covering_locks.empty()) {
    v.kind = EcViolationKind::kWrongLockWrite;
    v.sync_a = shadow.covering_locks.front();
    std::ostringstream os;
    bool shared_hold = false;
    for (uint32_t lock : shadow.covering_locks) {
      auto held_it = held_.find(lock);
      if (held_it != held_.end() && !held_it->second) {
        shared_hold = true;
        v.sync_a = lock;
        break;
      }
    }
    if (shared_hold) {
      os << "write under a shared-mode (read) hold of lock " << v.sync_a
         << "; read-modify-writes of bound data need an exclusive hold";
    } else {
      os << "line is bound to lock " << v.sync_a
         << ", which this processor does not hold exclusively; the write races the lock's "
            "update protocol";
    }
    v.detail = os.str();
    classified = true;
  }
  if (!classified) {
    v.kind = EcViolationKind::kUnboundWrite;
    v.detail =
        "no lock or barrier binding covers this line; under entry consistency the write "
        "will never be propagated to other processors";
  }

  const uint8_t bit = static_cast<uint8_t>(1u << static_cast<uint8_t>(v.kind));
  if ((shadow.reported_kinds & bit) != 0) {
    return 0;  // already reported this kind for this line
  }
  shadow.reported_kinds |= bit;
  return sink_.Add(v);
}

}  // namespace midway

#include <sstream>

#include "src/analysis/ec_checker.h"
#include "src/common/json_writer.h"

namespace midway {
namespace {

std::string DescribeSite(const EcSite& site) {
  if (!site.known()) return "(via proxy write; enable site capture with Set/CheckedGet)";
  std::ostringstream os;
  os << site.file << ":" << site.line;
  if (site.function != nullptr && site.function[0] != '\0') {
    os << " (" << site.function << ")";
  }
  return os.str();
}

}  // namespace

const char* EcViolationKindName(EcViolationKind kind) {
  switch (kind) {
    case EcViolationKind::kUnboundWrite: return "unbound-write";
    case EcViolationKind::kWrongLockWrite: return "wrong-lock-write";
    case EcViolationKind::kRebindGapWrite: return "rebind-gap-write";
    case EcViolationKind::kLocksetEmpty: return "lockset-empty";
    case EcViolationKind::kBindingOverlap: return "binding-overlap";
    case EcViolationKind::kStaleRead: return "stale-read";
  }
  return "unknown";
}

EcSummary& EcSummary::operator+=(const EcSummary& o) {
  for (size_t i = 0; i < kNumEcViolationKinds; ++i) counts[i] += o.counts[i];
  reports.insert(reports.end(), o.reports.begin(), o.reports.end());
  dropped += o.dropped;
  return *this;
}

uint64_t ViolationSink::Add(EcViolation v) {
  v.node = node_;
  summary_.counts[static_cast<size_t>(v.kind)]++;
  if (counters_ != nullptr) {
    switch (v.kind) {
      case EcViolationKind::kUnboundWrite: counters_->ec_unbound_writes.fetch_add(1, std::memory_order_relaxed); break;
      case EcViolationKind::kWrongLockWrite: counters_->ec_wrong_lock_writes.fetch_add(1, std::memory_order_relaxed); break;
      case EcViolationKind::kRebindGapWrite: counters_->ec_rebind_gap_writes.fetch_add(1, std::memory_order_relaxed); break;
      case EcViolationKind::kLocksetEmpty: counters_->ec_lockset_violations.fetch_add(1, std::memory_order_relaxed); break;
      case EcViolationKind::kBindingOverlap: counters_->ec_binding_overlaps.fetch_add(1, std::memory_order_relaxed); break;
      case EcViolationKind::kStaleRead: counters_->ec_stale_reads.fetch_add(1, std::memory_order_relaxed); break;
    }
  }
  if (summary_.reports.size() < kEcMaxReports) {
    summary_.reports.push_back(std::move(v));
  } else {
    summary_.dropped++;
  }
  return 1;
}

EcSummary ViolationSink::Summary() const { return summary_; }

std::string FormatEcReport(const EcSummary& summary) {
  if (summary.total() == 0) return "";
  std::ostringstream os;
  os << "=== entry-consistency checker report: " << summary.total() << " violation"
     << (summary.total() == 1 ? "" : "s") << " ===\n";
  for (size_t i = 0; i < kNumEcViolationKinds; ++i) {
    if (summary.counts[i] == 0) continue;
    os << "  " << EcViolationKindName(static_cast<EcViolationKind>(i)) << ": "
       << summary.counts[i] << "\n";
  }
  size_t n = 0;
  for (const EcViolation& v : summary.reports) {
    os << "[" << ++n << "] " << EcViolationKindName(v.kind) << " node=" << v.node
       << " region=" << v.region << " bytes=[" << v.offset << ", " << (v.offset + v.length)
       << ")";
    if (v.sync_a != kNoSyncObject) os << " sync=" << v.sync_a;
    if (v.sync_b != kNoSyncObject) os << "/" << v.sync_b;
    os << " t=" << v.lamport << "\n";
    os << "    at " << DescribeSite(v.site) << "\n";
    if (!v.detail.empty()) os << "    " << v.detail << "\n";
  }
  if (summary.dropped > 0) {
    os << "  (+" << summary.dropped << " further findings beyond the report cap)\n";
  }
  return os.str();
}

std::string EcSummaryToJson(const EcSummary& summary) {
  JsonWriter w;
  w.BeginObject().Field("total", summary.total()).Field("dropped", summary.dropped);
  w.Key("counts").BeginObject();
  for (size_t i = 0; i < kNumEcViolationKinds; ++i) {
    w.Field(EcViolationKindName(static_cast<EcViolationKind>(i)), summary.counts[i]);
  }
  w.EndObject().Key("reports").BeginArray();
  for (const EcViolation& v : summary.reports) {
    w.BeginObject().Field("kind", EcViolationKindName(v.kind)).Field("node", v.node);
    w.Field("region", v.region).Field("offset", v.offset).Field("length", v.length);
    w.Field("lamport", v.lamport);
    if (v.sync_a != kNoSyncObject) w.Field("sync_a", v.sync_a);
    if (v.sync_b != kNoSyncObject) w.Field("sync_b", v.sync_b);
    w.Field("site", DescribeSite(v.site)).Field("detail", v.detail).EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace midway

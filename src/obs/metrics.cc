#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/json_writer.h"

namespace midway {
namespace obs {
namespace {

std::string PromLabels(const MetricsRegistry::Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

void MetricsRegistry::AddCounter(const std::string& name, uint64_t value,
                                 const std::string& help, Labels labels) {
  counters_.push_back({name, value, help, std::move(labels)});
}

void MetricsRegistry::AddHistogram(const std::string& name, const HistogramSnapshot& snapshot,
                                   const std::string& help) {
  histograms_.push_back({name, snapshot, help});
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject().Field("schema", "midway-metrics/v1").Key("counters").BeginArray();
  for (const CounterEntry& c : counters_) {
    w.BeginObject().Field("name", c.name).Field("value", c.value);
    if (!c.labels.empty()) {
      w.Key("labels").BeginObject();
      for (const auto& [key, value] : c.labels) w.Field(key, value);
      w.EndObject();
    }
    w.Field("help", c.help).EndObject();
  }
  w.EndArray().Key("histograms").BeginArray();
  for (const HistogramEntry& h : histograms_) {
    const HistogramSnapshot& s = h.snapshot;
    w.BeginObject().Field("name", h.name).Field("count", s.count).Field("sum_ns", s.sum_ns);
    w.Field("max_ns", s.max_ns).Field("mean_ns", s.MeanNs());
    w.Field("p50_ns", s.ApproxPercentileNs(0.50)).Field("p90_ns", s.ApproxPercentileNs(0.90));
    w.Field("p99_ns", s.ApproxPercentileNs(0.99)).Key("buckets").BeginArray();
    // Only non-empty buckets: 40 mostly-zero entries per histogram would dominate the dump.
    for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      w.BeginObject().Key("le_ns");
      if (b + 1 == HistogramSnapshot::kBuckets) {
        w.String("+Inf");
      } else {
        w.Uint(HistogramSnapshot::BucketUpperNs(b));
      }
      w.Field("count", s.buckets[b]).EndObject();
    }
    w.EndArray().Field("help", h.help).EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string MetricsRegistry::ToPrometheus() const {
  std::ostringstream out;
  // HELP/TYPE must appear once per metric name even when labeled series repeat the name.
  std::string last_name;
  for (const CounterEntry& c : counters_) {
    if (c.name != last_name) {
      out << "# HELP " << c.name << " " << c.help << "\n";
      out << "# TYPE " << c.name << " counter\n";
      last_name = c.name;
    }
    out << c.name << PromLabels(c.labels) << " " << c.value << "\n";
  }
  for (const HistogramEntry& h : histograms_) {
    const HistogramSnapshot& s = h.snapshot;
    out << "# HELP " << h.name << " " << h.help << "\n";
    out << "# TYPE " << h.name << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      cumulative += s.buckets[b];
      // Cumulative counts only change at occupied buckets; skipping the empty ones keeps
      // the le= ladder valid (Prometheus requires monotone, not dense, buckets).
      if (s.buckets[b] == 0 && b + 1 != HistogramSnapshot::kBuckets) continue;
      out << h.name << "_bucket{le=\"";
      if (b + 1 == HistogramSnapshot::kBuckets) {
        out << "+Inf";
      } else {
        out << HistogramSnapshot::BucketUpperNs(b);
      }
      out << "\"} " << cumulative << "\n";
    }
    out << h.name << "_sum " << s.sum_ns << "\n";
    out << h.name << "_count " << s.count << "\n";
  }
  return out.str();
}

bool MetricsRegistry::WriteFile(const std::string& path) const {
  const auto ends_with = [&path](const char* suffix) {
    const size_t n = std::string(suffix).size();
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  const bool prom = ends_with(".prom") || ends_with(".txt");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "midway: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  out << (prom ? ToPrometheus() : ToJson());
  return out.good();
}

}  // namespace obs
}  // namespace midway

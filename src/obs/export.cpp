#include "obs/export.h"

#include <cmath>
#include <cstdio>

namespace cbl::obs {

namespace {

std::string escape(const std::string& in, bool json) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  (void)json;  // same escape set suffices for both formats here
  return out;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape(v, false) + "\"";
  }
  out += "}";
  return out;
}

std::string label_block_with(const Labels& labels, const std::string& extra_key,
                             const std::string& extra_value) {
  Labels extended = labels;
  extended.emplace_back(extra_key, extra_value);
  return label_block(extended);
}

const char* kind_name(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += escape(k, true);
    out += "\":\"";
    out += escape(v, true);
    out += '"';
  }
  out += "}";
  return out;
}

}  // namespace

std::string format_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string to_prometheus(const std::vector<MetricSnapshot>& samples) {
  std::string out;
  const std::string* last_name = nullptr;
  for (const auto& s : samples) {
    if (!last_name || *last_name != s.name) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " " + kind_name(s.kind) + "\n";
      last_name = &s.name;
    }
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        out += s.name + label_block(s.labels) + " " + format_double(s.value) +
               "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          cumulative += s.bucket_counts[i];
          out += s.name + "_bucket" +
                 label_block_with(s.labels, "le", format_double(s.bounds[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += s.name + "_bucket" + label_block_with(s.labels, "le", "+Inf") +
               " " + std::to_string(s.count) + "\n";
        out += s.name + "_sum" + label_block(s.labels) + " " +
               format_double(s.sum) + "\n";
        out += s.name + "_count" + label_block(s.labels) + " " +
               std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  return to_prometheus(registry.snapshot());
}

std::string to_json(const std::vector<MetricSnapshot>& samples) {
  std::string counters, gauges, histograms;
  for (const auto& s : samples) {
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge: {
        std::string& dst =
            s.kind == MetricSnapshot::Kind::kCounter ? counters : gauges;
        if (!dst.empty()) dst += ",";
        dst += "{\"name\":\"" + escape(s.name, true) +
               "\",\"labels\":" + json_labels(s.labels) +
               ",\"value\":" + format_double(s.value) + "}";
        break;
      }
      case MetricSnapshot::Kind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        histograms +=
            "{\"name\":\"" + escape(s.name, true) +
            "\",\"labels\":" + json_labels(s.labels) +
            ",\"count\":" + std::to_string(s.count) +
            ",\"sum\":" + format_double(s.sum) + ",\"p50\":" +
            format_double(quantile_from_buckets(s.bounds, s.bucket_counts,
                                                0.50)) +
            ",\"p90\":" +
            format_double(quantile_from_buckets(s.bounds, s.bucket_counts,
                                                0.90)) +
            ",\"p99\":" +
            format_double(quantile_from_buckets(s.bounds, s.bucket_counts,
                                                0.99)) +
            ",\"buckets\":[";
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          if (i) histograms += ",";
          histograms += "{\"le\":" + format_double(s.bounds[i]) +
                        ",\"count\":" + std::to_string(s.bucket_counts[i]) +
                        "}";
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "]}";
}

std::string to_json(const MetricsRegistry& registry) {
  return to_json(registry.snapshot());
}

const MetricSnapshot* find_metric(const std::vector<MetricSnapshot>& samples,
                                  const std::string& name,
                                  const Labels& labels) {
  for (const auto& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

double snapshot_quantile(const MetricSnapshot& sample, double q) {
  if (sample.kind != MetricSnapshot::Kind::kHistogram) return 0.0;
  return quantile_from_buckets(sample.bounds, sample.bucket_counts, q);
}

std::string trace_to_json(const std::vector<TraceEvent>& events) {
  std::string out = "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) out += ",";
    out += "{\"span\":\"" + escape(events[i].span, true) +
           "\",\"start_ns\":" + std::to_string(events[i].start_ns) +
           ",\"duration_ns\":" + std::to_string(events[i].duration_ns) + "}";
  }
  return out + "]";
}

}  // namespace cbl::obs

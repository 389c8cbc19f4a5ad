#include "obs/exposition.hpp"

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace cgp::obs {

namespace {

template <typename Int>
void append_line(std::string& out, const std::string& name, const std::string& labels, Int v) {
  out += name;
  out += labels;
  out += ' ';
  out += std::to_string(v);
  out += '\n';
}

std::string quantile_label(const char* q, const std::string& extra) {
  std::string l = "{";
  if (!extra.empty()) l += extra + ",";
  l += std::string("quantile=\"") + q + "\"}";
  return l;
}

// One summary block: quantiles + _sum + _count, optionally labeled.
void append_summary(std::string& out, const std::string& name, const std::string& extra,
                    const metric_snapshot& s) {
  append_line(out, name, quantile_label("0.5", extra), s.p50);
  append_line(out, name, quantile_label("0.9", extra), s.p90);
  append_line(out, name, quantile_label("0.99", extra), s.p99);
  const std::string plain = extra.empty() ? "" : "{" + extra + "}";
  append_line(out, name + "_sum", plain, s.sum);
  append_line(out, name + "_count", plain, s.count);
  if (s.p99_exemplar != 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "# exemplar %s trace_id=0x%016llx\n", name.c_str(),
                  static_cast<unsigned long long>(s.p99_exemplar));
    out += buf;
  }
}

// The label of a family row: client_id="<label>" or client_id="overflow".
std::string client_label(const metric_snapshot& s) {
  return "client_id=\"" + (s.overflow ? std::string("overflow") : std::to_string(s.label)) +
         "\"";
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "cgp_";
  out.reserve(name.size() + 4);
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_') ? c : '_';
  }
  return out;
}

std::string prometheus_exposition() {
  std::string out;
  out.reserve(1 << 14);
  bool open = false;  // inside a family's rows, which share one TYPE line
  for (const metric_snapshot& s : snapshot()) {
    const std::string name = prometheus_name(s.name);
    const bool first = !open;
    open = s.labeled && !s.overflow;
    const std::string labels = s.labeled ? client_label(s) : "";
    const std::string braced = labels.empty() ? "" : "{" + labels + "}";
    switch (s.which) {
      case metric_snapshot::kind::counter:
        if (first) out += "# TYPE " + name + "_total counter\n";
        if (!s.overflow || s.count != 0) append_line(out, name + "_total", braced, s.count);
        break;
      case metric_snapshot::kind::gauge:
        out += "# TYPE " + name + " gauge\n";
        append_line(out, name, "", s.level);
        out += "# TYPE " + name + "_peak gauge\n";
        append_line(out, name + "_peak", "", s.peak);
        break;
      case metric_snapshot::kind::histogram:
        if (first) out += "# TYPE " + name + " summary\n";
        // The overflow slot mixes tenants: only its count is exposed.
        if (!s.overflow) {
          append_summary(out, name, labels, s);
        } else if (s.count != 0) {
          append_line(out, name + "_count", braced, s.count);
        }
        break;
    }
  }
  return out;
}

}  // namespace cgp::obs

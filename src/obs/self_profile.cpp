#include "obs/self_profile.hpp"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>

#include "obs/span.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace proof::obs {

namespace {

std::string ms(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << seconds * 1e3;
  return out.str();
}

}  // namespace

std::string self_profile_json() {
  const MetricsRegistry::Snapshot snap = MetricsRegistry::instance().snapshot();
  std::ostringstream out;
  out.precision(9);
  out << "{\"enabled\":" << (enabled() ? "true" : "false");

  out << ",\"counters\":{";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    out << json::quote(snap.counters[i].first) << ':'
        << snap.counters[i].second;
  }
  out << '}';

  out << ",\"gauges\":{";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    out << json::quote(snap.gauges[i].first) << ':' << snap.gauges[i].second;
  }
  out << '}';

  out << ",\"spans\":[";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, hist] = snap.histograms[i];
    if (i > 0) {
      out << ',';
    }
    out << "{\"name\":" << json::quote(name) << ",\"count\":" << hist.count
        << ",\"total_s\":" << hist.total_s()
        << ",\"mean_s\":" << hist.mean_s()
        << ",\"p50_s\":" << hist.quantile_s(0.5)
        << ",\"p95_s\":" << hist.quantile_s(0.95)
        << ",\"max_s\":" << static_cast<double>(hist.max_ns) / 1e9 << '}';
  }
  out << ']';

  out << ",\"trace_events\":" << trace_event_count()
      << ",\"trace_dropped\":" << trace_dropped() << '}';
  return out.str();
}

std::string self_profile_text() {
  const MetricsRegistry::Snapshot snap = MetricsRegistry::instance().snapshot();
  std::ostringstream out;
  out << "self-profile (observability "
      << (enabled() ? "enabled" : "disabled") << ")\n\n";

  out << std::left << std::setw(28) << "span" << std::right << std::setw(8)
      << "count" << std::setw(12) << "total ms" << std::setw(12) << "mean ms"
      << std::setw(12) << "p95 ms" << std::setw(12) << "max ms" << "\n";
  for (const auto& [name, hist] : snap.histograms) {
    out << std::left << std::setw(28) << name << std::right << std::setw(8)
        << hist.count << std::setw(12) << ms(hist.total_s()) << std::setw(12)
        << ms(hist.mean_s()) << std::setw(12) << ms(hist.quantile_s(0.95))
        << std::setw(12) << ms(static_cast<double>(hist.max_ns) / 1e9) << "\n";
  }

  out << "\n" << std::left << std::setw(40) << "counter" << std::right
      << std::setw(16) << "value" << "\n";
  for (const auto& [name, value] : snap.counters) {
    out << std::left << std::setw(40) << name << std::right << std::setw(16)
        << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << std::left << std::setw(40) << name + " (gauge)" << std::right
        << std::setw(16) << value << "\n";
  }
  return out.str();
}

void dump_self_profile(const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open metrics file '" + path + "' for writing");
  }
  out << self_profile_json() << "\n";
  out.flush();
  if (!out) {
    throw Error("failed writing metrics file '" + path + "'");
  }
}

void arm_metrics_dump_at_exit() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("PROOF_METRICS_OUT");
    if (path == nullptr || path[0] == '\0') {
      return;
    }
    std::atexit([] {
      const char* out = std::getenv("PROOF_METRICS_OUT");
      if (out == nullptr || out[0] == '\0') {
        return;
      }
      // An exception escaping an exit handler would abort the process after
      // its real work is done; report the lost record instead.
      try {
        dump_self_profile(out);
      } catch (const std::exception& e) {
        std::cerr << "PROOF_METRICS_OUT: " << e.what() << "\n";
      }
    });
  });
}

}  // namespace proof::obs

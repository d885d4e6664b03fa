#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "backends/prepare.hpp"
#include "mapping/layer_mapping.hpp"

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

KeepAwake::KeepAwake() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  try {
    for (int i = 1; i < std::min(cpus, 8); ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          sched_yield();
        }
      });
      handles_.push_back(threads_.back().native_handle());
    }
  } catch (...) {
    stop_.store(true);  // the destructor does not run for a throwing constructor
    for (std::thread& t : threads_) {
      t.join();
    }
    throw;
  }
}

int64_t KeepAwake::cpu_ns() const {
  int64_t total = 0;
  for (const pthread_t handle : handles_) {
    clockid_t clock{};
    timespec ts{};
    if (pthread_getcpuclockid(handle, &clock) == 0 && clock_gettime(clock, &ts) == 0) {
      total += static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    }
  }
  return total;
}

KeepAwake::~KeepAwake() {
  stop_.store(true);
  for (std::thread& t : threads_) {
    t.join();
  }
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<int64_t> draw_sorted(Rng& rng, std::vector<int64_t> pool, size_t k) {
  rng.shuffle(pool);
  pool.resize(std::min(k, pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_with_beyond(std::vector<double> v, size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= beyond) {
    return t;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = v.size() - beyond;  // 1-based rank of the tail value
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  t.valid = true;
  return t;
}

double median_rate(const std::vector<double>& work, const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (size_t i = 0; i < work.size() && i < seconds.size(); ++i) {
    if (seconds[i] > 0.0) {
      rates.push_back(work[i] / seconds[i]);
    }
  }
  return median(rates);
}

double median_slice_rate(const std::vector<double>& work, const std::vector<double>& op_ms) {
  std::vector<double> slice_work(kRateSlices, 0.0);
  std::vector<double> slice_s(kRateSlices, 0.0);
  for (size_t i = 0; i < work.size() && i < op_ms.size(); ++i) {
    slice_work[i * kRateSlices / work.size()] += work[i];
    slice_s[i * kRateSlices / work.size()] += op_ms[i] / 1e3;
  }
  return median_rate(slice_work, slice_s);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size()));
  const size_t rank = std::clamp<size_t>(static_cast<size_t>(pos), 1, v.size());
  return v[rank - 1];
}

double last_over_first_tenth(const std::vector<double>& in_order) {
  const size_t tenth = in_order.size() / 10;
  if (tenth == 0) {
    return 0.0;
  }
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < tenth; ++i) {
    first += in_order[i];
    last += in_order[in_order.size() - tenth + i];
  }
  return first > 0.0 ? last / first : 0.0;
}

double drive(Link& link, size_t lo, size_t hi, double rate, std::vector<Timed>& t) {
  if (lo >= hi) {
    return 0.0;
  }
  const size_t n_conns = link.connections();
  std::vector<size_t> request(n_conns, 0);
  std::vector<bool> busy(n_conns, false);
  const int64_t start = link.now() + 1000000;
  const double period_ns = rate > 0.0 ? 1e9 / rate : 0.0;
  size_t next = lo;
  size_t done = lo;
  while (link.now() < start) {
  }
  while (done < hi) {
    bool active = false;
    for (size_t c = 0; c < n_conns; ++c) {
      if (!busy[c] && next < hi) {
        const int64_t due =
            start + static_cast<int64_t>(period_ns * static_cast<double>(next - lo));
        const int64_t now = link.now();
        if (rate > 0.0 && now < due) {
          continue;
        }
        t[next].due_ns = rate > 0.0 ? due : now;
        t[next].send_ns = now;
        request[c] = next++;
        active = true;
        if (!link.send(c, request[c])) {
          t[request[c]].done_ns = link.now();
          ++done;
          continue;
        }
        busy[c] = true;
      }
      if (busy[c] && link.poll(c, &active)) {
        t[request[c]].done_ns = link.now();
        busy[c] = false;
        ++done;
      }
    }
    if (!active) {
      link.idle();
    }
  }
  int64_t first = t[lo].send_ns;
  int64_t last = t[lo].done_ns;
  for (size_t i = lo; i < hi; ++i) {
    first = std::min(first, t[i].send_ns);
    last = std::max(last, t[i].done_ns);
  }
  return ns_to_s(last - first);
}

void CacheLedger::add(const proof::PrepCacheStats& before, const proof::PrepCacheStats& after) {
  engine_hits += after.engine_hits - before.engine_hits;
  engine_misses += after.engine_misses - before.engine_misses;
  plan_hits += after.plan_cache_hits - before.plan_cache_hits;
  plan_misses += after.plan_cache_misses - before.plan_cache_misses;
  plan_build_ns += after.plan_cache_build_ns - before.plan_cache_build_ns;
}

namespace {
double hit_ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(hits + misses);
}
}  // namespace

double CacheLedger::engine_hit_ratio() const { return hit_ratio(engine_hits, engine_misses); }
double CacheLedger::plan_hit_ratio() const { return hit_ratio(plan_hits, plan_misses); }

std::string normalize_report(std::string json) {
  for (const char* key : {"\"analysis_time_s\":", "\"counter_profiling_time_s\":"}) {
    const size_t key_len = std::strlen(key);
    size_t pos = json.find(key);
    while (pos != std::string::npos) {
      const size_t start = pos + key_len;
      const size_t end = json.find_first_of(",}", start);
      if (end == std::string::npos) {
        break;
      }
      json.replace(start, end - start, "0");
      pos = json.find(key, start);
    }
  }
  return json;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- tracer ------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::open(const char* name) {
  const int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, op_, now_ns(), 0});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, int64_t> Tracer::self_ns_by_name() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::map<std::string, int64_t> Tracer::total_ns_by_name() const {
  std::map<std::string, int64_t> out;
  for (const Span& s : spans_) {
    out[s.name] += s.end_ns - s.start_ns;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << quote(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << num(static_cast<double>(s.start_ns - origin) / 1e3)
        << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

// --- results -----------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string tail_json(const Tail& t) {
  return "{\"value_ms\":" + num(t.value) + ",\"percentile\":" + num(t.percentile) +
         ",\"samples\":" + std::to_string(t.samples) + ",\"beyond\":10,\"gated\":false}";
}

std::unique_ptr<proof::serve::ModelPool> timed_preload(const std::vector<std::string>& ids,
                                                       std::vector<double>& setup_s) {
  const int64_t t0 = now_ns();
  auto pool = std::make_unique<proof::serve::ModelPool>();
  (void)pool->preload(ids);
  setup_s.push_back(ns_to_s(now_ns() - t0));
  return pool;
}

std::unique_ptr<proof::PreparedEngine> replay_structure(const proof::Graph& model,
                                                        const proof::hw::PlatformDesc& platform,
                                                        const proof::backends::Backend& backend,
                                                        const proof::backends::BuildConfig& config) {
  proof::Graph prepared = traced("backends.prepare_model", [&] {
    return proof::backends::prepare_model(model, config, platform);
  });
  const proof::backends::BuildPlan plan =
      traced("backends.plan", [&] { return backend.plan(prepared); });
  proof::backends::Engine engine = traced("backends.lower", [&] {
    return backend.lower(std::move(prepared), plan, config, platform);
  });
  auto entry = traced("analysis.represent", [&] {
    return std::make_unique<proof::PreparedEngine>(std::move(engine),
                                                   proof::mapping::LayerMapping{});
  });
  entry->mapping = traced("mapping.map_layers",
                          [&] { return proof::mapping::map_layers(entry->engine, entry->oar); });
  return entry;
}

double Reconciliation::residual_ms() const {
  double sum = 0.0;
  for (const auto& [name, ms] : layers_ms) {
    sum += ms;
  }
  return op_ms - sum;
}

void Reconciliation::report(Result& r) const {
  std::string layers = "{";
  for (const auto& [name, ms] : layers_ms) {
    layers += (layers.size() > 1 ? "," : "") + quote(name) + ":" + num(ms);
  }
  std::string checks = "[";
  bool ok = true;
  for (const Bound& b : bounds) {
    const bool held = b.value >= b.lo && b.value <= b.hi;
    ok = ok && held;
    checks += (checks.size() > 1 ? "," : "") + std::string("{\"what\":") + quote(b.what) +
              ",\"value\":" + num(b.value) + ",\"lo\":" + num(b.lo) + ",\"hi\":" + num(b.hi) +
              ",\"ok\":" + (held ? "true" : "false") + "}";
    if (!held) {
      r.fail("traced-run reconciliation: " + b.what + " = " + num(b.value) + ", outside [" +
             num(b.lo) + ", " + num(b.hi) + "]");
    }
  }
  r.note("reconciliation", "{\"op_ms\":" + num(op_ms) + ",\"layers_ms\":" + layers +
                               "},\"residual\":{\"name\":" + quote(residual_name) +
                               ",\"ms\":" + num(residual_ms()) + "},\"bounds\":" + checks +
                               "],\"ok\":" + (ok ? "true" : "false") + "}");
}

}  // namespace perfbench

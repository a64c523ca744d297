// The tracer, run counters, and the layer microbenchmarks. Each
// microbenchmark runs one layer's public operations at the shape a workload
// drives it at (event-queue depth, host count, RPC chains in flight,
// recorded slowdowns) and reports mean host ns per operation.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/host_state.hpp"
#include "dist/rng.hpp"
#include "sim/event_queue.hpp"
#include "util/slot_map.hpp"

namespace perfbench {

namespace ds = distserv;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geometric_mean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double x : values) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Counters::add(const Counters& o) {
  jobs += o.jobs;
  events += o.events;
  probes_sent += o.probes_sent;
  routed += o.routed;
  rpc_sends += o.rpc_sends;
  retries += o.retries;
  timeouts += o.timeouts;
  fallbacks += o.fallbacks;
  interruptions += o.interruptions;
  shed += o.shed;
  reneged += o.reneged;
  migrations += o.migrations;
  fault_migrations += o.fault_migrations;
  power_transitions += o.power_transitions;
  warmups += o.warmups;
  drains += o.drains;
  host_time_powered += o.host_time_powered;
  host_time_total += o.host_time_total;
  makespan += o.makespan;
  arrival_window += o.arrival_window;
}

Counters counters_of(const ds::core::RunResult& r, double last_arrival) {
  Counters c;
  if (r.stream) {
    c.jobs = r.stream->jobs() + r.stream->jobs_failed();
  } else {
    c.jobs = r.records.size();
  }
  c.events = r.events_executed;
  c.interruptions = r.interruptions;
  if (r.control) {
    c.probes_sent = r.control->probes_sent;
    c.routed = r.control->routed;
    c.rpc_sends = r.control->requests_sent;
    c.retries = r.control->retries;
    c.timeouts = r.control->timeouts;
    c.fallbacks = r.control->fallback_activations();
  }
  if (r.overload) {
    c.shed = r.overload->shed();
    c.reneged = r.overload->reneged;
    c.migrations = r.overload->migrated();
    c.fault_migrations = r.overload->migrated_fault;
  }
  if (r.scaling) {
    const auto& s = *r.scaling;
    c.power_transitions = s.hosts_powered_on + s.drains_reclaimed +
                          s.warmups_completed + s.warmups_cancelled +
                          s.hosts_drained + s.drains_completed;
    c.warmups = s.warmups_completed;
    c.drains = s.drains_completed;
    c.host_time_powered = s.host_time_powered;
    c.host_time_total = s.host_time_total;
  } else {
    // A static fleet is powered for the whole run.
    c.host_time_powered = static_cast<double>(r.hosts) * r.makespan;
    c.host_time_total = c.host_time_powered;
  }
  c.makespan = r.makespan;
  c.arrival_window = last_arrival;
  return c;
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(4096); }

std::size_t Tracer::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - origin_)
                            .count();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Tracer::total_seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  const std::pair<const char*, const Tally*> tallies[] = {
      {"core.Policy::assign", &assign},
      {"workload.JobSource::next", &source_next},
      {"stats.StreamSummary::add", &summary_add}};
  for (const auto& [name, t] : tallies) {
    out << "{\"tally\": \"" << name << "\", \"calls\": " << t->calls
        << ", \"ns\": " << t->ns << "}\n";
  }
}

namespace {

/// Repeats `body(ops)` with growing op counts until one call lasts at least
/// `min_s`, then returns host ns per op of the median of three such calls.
template <typename Body>
double ns_per_op(Body&& body, std::size_t first_ops, double min_s = 0.05) {
  std::size_t ops = first_ops;
  for (;;) {
    const auto t0 = Clock::now();
    body(ops);
    if (seconds_between(t0, Clock::now()) >= min_s) break;
    ops *= 2;
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    body(ops);
    samples.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(ops));
  }
  return median(samples);
}

volatile double g_sink = 0.0;  // keeps microbenchmark results observable

}  // namespace

double event_queue_ns(std::size_t pending, std::uint64_t seed) {
  ds::sim::EventQueue q;
  q.reserve(pending + 1);
  ds::dist::Rng rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.schedule(t += rng.uniform01(), ds::sim::Event::timer());
  }
  const double spread = static_cast<double>(pending);
  return ns_per_op(
      [&](std::size_t ops) {
        double last = 0.0;
        for (std::size_t i = 0; i < ops; ++i) {
          const ds::sim::Event e = q.pop();
          last = e.time;
          q.schedule(last + rng.uniform01() * spread, ds::sim::Event::timer());
        }
        g_sink = last;
      },
      1u << 16);
}

double host_state_ns(std::size_t hosts, std::uint64_t seed) {
  ds::core::HostStateTable table;
  table.reset(hosts, ds::core::HostStateTable::Semantics::kLive);
  ds::dist::Rng rng(seed);
  double now = 0.0;
  return ns_per_op(
      [&](std::size_t ops) {
        std::uint32_t acc = 0;
        for (std::size_t i = 0; i < ops; ++i) {
          now += rng.uniform01();
          const auto h = static_cast<ds::core::HostId>(
              rng.uniform01() * static_cast<double>(hosts));
          const bool busy = rng.uniform01() < 0.7;
          const double queued = busy ? rng.uniform01() * 10.0 : 0.0;
          table.set_live(h, busy, busy ? now + rng.uniform01() * 5.0 : now,
                         queued, busy ? 1u + static_cast<std::uint32_t>(queued) : 0u);
          acc += table.argmin_work(now).value_or(0);
        }
        g_sink = acc;
      },
      1u << 14);
}

double slot_map_ns(std::size_t resident, std::uint64_t seed) {
  struct Chain {
    double payload[6] = {};
  };
  ds::util::SlotMap<std::uint64_t, Chain> map;
  map.reserve(resident + 1);
  std::uint64_t next = seed << 32;
  std::uint64_t oldest = next;
  for (std::size_t i = 0; i < resident; ++i) map.upsert(next++).payload[0] = 1.0;
  return ns_per_op(
      [&](std::size_t ops) {
        double acc = 0.0;
        for (std::size_t i = 0; i < ops; ++i) {
          map.upsert(next++).payload[0] = static_cast<double>(i);
          if (const Chain* c = map.find(oldest)) acc += c->payload[0];
          map.erase(oldest++);
        }
        g_sink = acc;
      },
      1u << 16);
}

double summary_add_ns(const std::vector<double>& slowdowns) {
  if (slowdowns.empty()) throw std::runtime_error("no recorded slowdowns");
  std::vector<ds::core::JobRecord> records(slowdowns.size());
  for (std::size_t i = 0; i < slowdowns.size(); ++i) {
    records[i].id = i;
    records[i].size = 1.0;
    records[i].completion = slowdowns[i];
  }
  return ns_per_op(
      [&](std::size_t ops) {
        ds::core::StreamSummary summary;
        for (std::size_t i = 0; i < ops; ++i) {
          summary.add(records[i % records.size()]);
        }
        g_sink = summary.slowdown().mean();
      },
      1u << 14);
}

double cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

#include "digest.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {
constexpr std::uint64_t kPrime = 0x100000001b3ULL;
}

void Digest::bytes(const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<unsigned char>(data[i]);
    a_ = (a_ ^ c) * kPrime;
    b_ = (b_ ^ static_cast<unsigned char>(c + 0x5b)) * kPrime;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(std::uint64_t value) {
  char buf[sizeof value];
  std::memcpy(buf, &value, sizeof value);
  bytes(buf, sizeof buf);
}

void Digest::add(const std::string& text) {
  bytes(text.data(), text.size());
  bytes(";", 1);
}

std::string Digest::hex() const {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(a_),
                static_cast<unsigned long long>(b_));
  return buf;
}

std::string digest_records(const distserv::core::RunResult& result) {
  Digest d;
  d.add(static_cast<std::uint64_t>(result.records.size()));
  for (const auto& r : result.records) {
    d.add(static_cast<std::uint64_t>(r.id));
    d.add(static_cast<std::uint64_t>(r.host));
    d.add(r.start);
    d.add(r.completion);
    d.add(static_cast<std::uint64_t>(r.outcome));
  }
  return d.hex();
}

std::string digest_stream(const distserv::core::RunResult& result) {
  Digest d;
  const distserv::core::StreamSummary& s = *result.stream;
  d.add(s.jobs());
  d.add(s.jobs_failed());
  d.add(s.jobs_shed());
  d.add(s.jobs_reneged());
  for (const distserv::stats::Welford* w :
       {&s.slowdown(), &s.response(), &s.waiting()}) {
    d.add(w->count());
    d.add(w->mean());
    d.add(w->variance_population());
    d.add(w->min());
    d.add(w->max());
  }
  if (s.jobs() > 0) {
    for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
      d.add(s.slowdown_quantile(q));
    }
  }
  d.add(result.makespan);
  return d.hex();
}

std::string digest_points(
    const std::vector<distserv::core::ExperimentPoint>& points) {
  Digest d;
  for (const auto& p : points) {
    d.add(distserv::core::to_string(p.policy));
    d.add(p.rho);
    d.add(static_cast<std::uint64_t>(p.feasible));
    d.add(p.cutoff);
    d.add(p.host1_load_fraction);
    for (const auto& s : p.replication_summaries) {
      d.add(s.jobs);
      d.add(s.jobs_failed);
      for (const double v :
           {s.mean_slowdown, s.var_slowdown, s.mean_response, s.var_response,
            s.mean_waiting, s.var_waiting, s.max_slowdown, s.p50_slowdown,
            s.p95_slowdown, s.p99_slowdown}) {
        d.add(v);
      }
    }
  }
  return d.hex();
}

}  // namespace perfbench

// The distserv benchmark harness: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect <run>=<digest>]... [--spans <path>]
//
// Untraced (--trace 0): repeats complete passes over the workload's input
// for --seconds, with five set-up samples spread over the same window, and
// reports the end-to-end metrics: run times from each run's fastest pass,
// set-up as the median sample. Traced (--trace 1): spends half the window
// on untraced passes (the base of trace_overhead), then makes one traced
// pass and runs the layer microbenchmarks, and reports the per-layer
// metrics.
//
// Every run is checked: its digest against --expect (the stored reference
// for this seed) or, for seeds without one, against the first pass; then
// validate_run, the audit pass and the workload's guards. The last line of
// stdout is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::map<std::string, std::string> expect;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--expect") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) usage("--expect wants <run>=<digest>");
      o.expect[value.substr(0, eq)] = value.substr(eq + 1);
    } else if (flag == "--spans") {
      o.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Counts attempted and failed runs and checks digests.
class Checker {
 public:
  explicit Checker(std::map<std::string, std::string> expect)
      : expected_(std::move(expect)) {}

  void check(const RunOutcome& o) {
    ++attempted_;
    std::vector<std::string> problems = o.problems;
    if (!o.digest.empty()) {
      std::printf("digest %s %s\n", o.name.c_str(), o.digest.c_str());
      const auto it = expected_.find(o.name);
      if (it == expected_.end()) {
        expected_[o.name] = o.digest;
      } else if (it->second != o.digest) {
        problems.push_back(o.name + ": digest " + o.digest + " != reference " +
                           it->second);
      }
    }
    fail(problems);
  }

  /// Records one more attempted run that failed with `problems` (if any).
  void fail(const std::vector<std::string>& problems, bool count = false) {
    if (count) ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const auto& p : problems) std::printf("FAILED %s\n", p.c_str());
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, std::string> expected_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_metric(const Metric& m) {
  std::printf("metric %-36s %.9g %s (%s)\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.kind.c_str());
}

struct Passes {
  std::vector<RunOutcome> first;
  std::vector<double> jobs_per_s;
  std::vector<double> pass_s;
  std::vector<double> setup_s;
  /// Each run's fastest host time over the passes, and its resolved jobs.
  std::map<std::string, double> fastest_run_s;
  std::map<std::string, std::uint64_t> run_jobs;

  /// One pass at each run's fastest: the sum of the runs' fastest times.
  /// Co-tenants of a shared host only ever add time to a run, and they come
  /// and go within seconds, so the fastest of several runs of the same
  /// deterministic work moves far less between processes than the median.
  [[nodiscard]] double figure_s() const {
    double s = 0.0;
    for (const auto& [name, run_s] : fastest_run_s) s += run_s;
    return s;
  }
  [[nodiscard]] double jobs() const {
    double n = 0.0;
    for (const auto& [name, jobs] : run_jobs) n += static_cast<double>(jobs);
    return n;
  }
};

/// One set-up sample: the set-up repeated, in doubling batches, until it
/// has used 20 ms of CPU, so neither a microsecond set-up nor the clock
/// reads are timer noise. Returns CPU seconds per set-up.
double setup_sample(Workload& w) {
  const double t0 = cpu_seconds();
  int reps = 0;
  for (int batch = 1; reps == 0 || cpu_seconds() - t0 < 0.02; batch *= 2) {
    for (int i = 0; i < batch; ++i) w.setup();
    reps += batch;
  }
  return (cpu_seconds() - t0) / reps;
}

/// Repeats untraced passes for `window` wall seconds (at least three
/// passes; no pass is started that would end past the window by the last
/// pass's length). Five set-up samples are taken at evenly spaced points of
/// the window, so set-up and passes see the same machine conditions; any
/// the passes left no room for are taken at the end.
Passes timed_passes(Workload& w, Checker& checker, double window) {
  constexpr std::size_t kSetups = 5;
  Passes p;
  const auto start = Clock::now();
  double last_wall_s = 0.0;
  while (p.pass_s.size() < 3 ||
         seconds_between(start, Clock::now()) + last_wall_s < window) {
    const double elapsed = seconds_between(start, Clock::now());
    if (p.setup_s.size() < kSetups &&
        elapsed >= window * static_cast<double>(p.setup_s.size()) / kSetups) {
      p.setup_s.push_back(setup_sample(w));
    }
    double pass_s = 0.0;
    std::vector<RunOutcome> outcomes;
    const auto pass_start = Clock::now();
    try {
      outcomes = w.pass(pass_s);
    } catch (const std::exception& e) {
      checker.fail({std::string("pass threw: ") + e.what()}, true);
      if (seconds_between(start, Clock::now()) > window) break;
      continue;
    }
    double jobs = 0.0;
    double run_s = 0.0;
    std::uint64_t events = 0;
    for (const RunOutcome& o : outcomes) {
      checker.check(o);
      jobs += static_cast<double>(o.counters.jobs);
      events += o.counters.events;
      run_s += o.run_s;
      const auto [it, fresh] = p.fastest_run_s.emplace(o.name, o.run_s);
      if (!fresh) it->second = std::min(it->second, o.run_s);
      p.run_jobs[o.name] = o.counters.jobs;
    }
    last_wall_s = seconds_between(pass_start, Clock::now());
    if (p.first.empty()) p.first = outcomes;
    p.jobs_per_s.push_back(ratio(jobs, run_s));
    p.pass_s.push_back(pass_s);
    std::printf("pass %zu jobs_per_s %.6g pass_s %.6g wall_s %.6g events %llu\n",
                p.pass_s.size(), p.jobs_per_s.back(), pass_s, last_wall_s,
                static_cast<unsigned long long>(events));
  }
  while (p.setup_s.size() < kSetups) p.setup_s.push_back(setup_sample(w));
  return p;
}

std::vector<Metric> layer_metrics(Workload& w, const Options& opt,
                                  const Passes& untraced, Checker& checker) {
  Tracer tracer;
  TracedPass tp;
  tp = w.traced_pass(tracer);
  for (const RunOutcome& o : tp.outcomes) {
    checker.check(o);
    const Counters& c = o.counters;
    if (c.events == 0) continue;  // a figure part: its runs are Workbench's
    const double n = static_cast<double>(c.jobs);
    std::printf("run %s events_per_job %.6g probes_per_job %.6g "
                "makespan_over_arrivals %.6g\n",
                o.name.c_str(), static_cast<double>(c.events) / n,
                static_cast<double>(c.probes_sent) / n,
                ratio(c.makespan, c.arrival_window));
  }
  AuditResult audit;
  {
    ScopedSpan span(&tracer, "sim.audit_pass");
    audit = w.audit_pass();
  }
  for (const RunOutcome& o : audit.outcomes) checker.check(o);

  const Counters& c = tp.decorated;
  const double jobs = static_cast<double>(c.jobs);
  const double kjobs = jobs / 1000.0;
  const double self_s = tp.decorated_run_s - tracer.assign.seconds() -
                        tracer.source_next.seconds() -
                        tracer.summary_add.seconds();
  const LayerShapes shapes = w.shapes(untraced.first);
  const double figure_s = untraced.figure_s();
  const double workers = static_cast<double>(w.workers());
  const auto per = [](std::uint64_t n, double d) {
    return ratio(static_cast<double>(n), d);
  };

  // Traced throughput per worker against untraced throughput per worker.
  // paper-sweep traces the figure serially (plan + replications +
  // finalize); the other workloads trace their decorated runs.
  double trace_overhead = 0.0;
  if (w.workers() > 1) {
    const double traced_s = tracer.total_seconds("core.plan_point") +
                            tracer.total_seconds("core.run_replication") +
                            tracer.total_seconds("core.finalize_point");
    trace_overhead = ratio(workers * figure_s, traced_s);
  } else {
    trace_overhead =
        ratio(ratio(jobs, tp.decorated_run_s),
              ratio(untraced.jobs(), untraced.figure_s()));
  }

  const double summary_ns = tracer.summary_add.calls > 0
                                ? tracer.summary_add.ns_per_call()
                                : summary_add_ns(tp.recorded_slowdowns);

  std::vector<Metric> m = {
      {"workload.source_ns_per_job", ratio(tracer.source_next.seconds() * 1e9, jobs), "ns", "host"},
      {"workload.trace_build_s", tp.trace_build_s, "s", "host"},
      {"core.assign_ns", tracer.assign.ns_per_call(), "ns", "host"},
      {"core.assigns_per_job", per(tracer.assign.calls, jobs), "per_job", "count"},
      {"core.run_self_ns_per_job", ratio(self_s * 1e9, jobs), "ns", "host"},
      {"core.host_state_ns.h32", host_state_ns(32, opt.seed), "ns", "host"},
      {"core.host_state_ns.h1024", host_state_ns(1024, opt.seed), "ns", "host"},
      {"core.makespan_over_arrivals", ratio(c.makespan, c.arrival_window), "ratio", "sim"},
      {"core.plan_s", tp.plan_s, "s", "host"},
      {"core.replication_s", tp.replication_s, "s", "host"},
      {"queueing.cutoff_search_s", tp.cutoff_search_s, "s", "host"},
      {"sim.events_per_job", per(c.events, jobs), "per_job", "count"},
      {"sim.ns_per_event", ratio(self_s * 1e9, static_cast<double>(c.events)), "ns", "host"},
      {"sim.event_queue_ns", event_queue_ns(shapes.pending_events, opt.seed), "ns", "host"},
      {"sim.control.probes_per_job", per(c.probes_sent, jobs), "per_job", "count"},
      {"sim.control.routes_per_probe", per(c.routed, static_cast<double>(c.probes_sent)), "ratio", "count"},
      {"sim.control.rpc_sends_per_job", per(c.rpc_sends, jobs), "per_job", "count"},
      {"sim.control.retries_per_job", per(c.retries, jobs), "per_job", "count"},
      {"sim.control.fallbacks_per_job", per(c.fallbacks, jobs), "per_job", "count"},
      {"sim.faults.interruptions_per_kjob", per(c.interruptions, kjobs), "per_kjob", "count"},
      {"sim.overload.shed_share", per(c.shed, jobs), "share", "count"},
      {"sim.overload.reneged_share", per(c.reneged, jobs), "share", "count"},
      {"sim.overload.migrations_per_kjob", per(c.migrations, kjobs), "per_kjob", "count"},
      {"sim.autoscaler.transitions_per_kjob", per(c.power_transitions, kjobs), "per_kjob", "count"},
      {"sim.autoscaler.powered_share", ratio(c.host_time_powered, c.host_time_total), "share", "sim"},
      {"sim.audit_ns_per_event", ratio((audit.audited_s - audit.unaudited_s) * 1e9, static_cast<double>(audit.events)), "ns", "host"},
      {"stats.summary_add_ns", summary_ns, "ns", "host"},
      {"util.slot_map_ns", slot_map_ns(shapes.rpc_chains, opt.seed), "ns", "host"},
      // Serial replication time over worker time; 1 by definition on the
      // single-threaded workloads, which use no pool.
      {"util.thread_pool.parallel_eff", w.workers() > 1 ? ratio(tp.replication_s, workers * figure_s) : 1.0, "ratio", "host"},
      {"trace_overhead", trace_overhead, "ratio", "host"},
  };
  if (!opt.spans.empty()) tracer.write_jsonl(opt.spans);
  return m;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage("unknown workload " + opt.workload + "; known:" + names);
  }
  std::printf("workload %s seed %llu seconds %g trace %d workers %zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, w->workers());
  Checker checker(opt.expect);
  const auto t_start = Clock::now();
  const Passes passes =
      timed_passes(*w, checker, opt.trace ? opt.seconds / 2.0 : opt.seconds);
  std::printf("phase passes %.3f s\n", seconds_between(t_start, Clock::now()));
  const double rss = peak_rss_mb();
  if (passes.first.empty()) {
    std::printf("FAILED no pass completed\n");
  } else {
    checker.fail(w->guards(passes.first), true);
  }

  std::vector<Metric> metrics;
  const auto t_checks = Clock::now();
  if (!passes.first.empty() && opt.trace) {
    metrics = layer_metrics(*w, opt, passes, checker);
  } else if (!passes.first.empty()) {
    const AuditResult audit = w->audit_pass();
    for (const RunOutcome& o : audit.outcomes) checker.check(o);
    std::vector<double> means;
    std::vector<double> p99s;
    for (const RunOutcome& o : passes.first) {
      means.push_back(o.mean_slowdown);
      p99s.push_back(o.p99_slowdown);
    }
    metrics = {
        {"setup_s", median(passes.setup_s), "s", "host"},
        {"jobs_per_s", ratio(passes.jobs(), passes.figure_s()), "1/s", "host"},
        {"figure_s", passes.figure_s(), "s", "host"},
        {"peak_rss_mb", rss, "MB", "host"},
        {"sim_mean_slowdown", geometric_mean(means), "ratio", "sim"},
        {"sim_p99_slowdown", geometric_mean(p99s), "ratio", "sim"},
    };
    for (const Metric& m : w->extra_metrics(passes.first)) print_metric(m);
    std::printf("passes %zu, set-ups %zu; median pass: jobs_per_s %.6g "
                "pass_s %.6g\n",
                passes.pass_s.size(), passes.setup_s.size(),
                median(passes.jobs_per_s), median(passes.pass_s));
  }
  std::printf("phase %s %.3f s\n", opt.trace ? "traced" : "audit",
              seconds_between(t_checks, Clock::now()));
  std::printf("phase total %.3f s\n", seconds_between(t_start, Clock::now()));
  const double failed_share = ratio(static_cast<double>(checker.failed()),
                                    static_cast<double>(checker.attempted()));
  print_metric({"failed_share", failed_share, "share", "check"});
  for (const Metric& m : metrics) print_metric(m);

  const bool correct = checker.failed() == 0 && !passes.first.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

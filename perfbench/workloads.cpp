// The four benchmark workloads. Each turns its seed into a fixed input,
// runs it to completion through distserv's public API, and checks the
// output (digest, validate_run, audit, and the guards that prove the
// mechanism the workload exists for actually fired). README.md says why
// each workload exists and which layer metric should move it.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/policies/least_work_left.hpp"
#include "core/policies/random.hpp"
#include "digest.hpp"
#include "dist/rng.hpp"
#include "queueing/policy_analysis.hpp"
#include "queueing/size_model.hpp"
#include "util/slot_map.hpp"
#include "workload/arrival.hpp"
#include "workload/catalog.hpp"

namespace perfbench {

namespace ds = distserv;
using ds::core::DistributedServer;
using ds::core::PolicyKind;
using ds::core::RunResult;

namespace {

const ds::workload::WorkloadSpec& c90() {
  return ds::workload::find_workload("c90");
}

/// Checks and fingerprints one record-mode or stream-mode run. `validate`
/// runs core::validate_run; repeated passes may skip it, because their
/// digests must reproduce the first, validated pass bit for bit.
RunOutcome outcome_of(const RunResult& r, std::string name,
                      double last_arrival, double run_s, bool validate = true) {
  RunOutcome o;
  o.name = std::move(name);
  o.run_s = run_s;
  o.counters = counters_of(r, last_arrival);
  o.digest = r.stream ? digest_stream(r) : digest_records(r);
  if (validate) {
    for (const std::string& p : ds::core::validate_run(r)) {
      o.problems.push_back(o.name + ": validate_run: " + p);
    }
  }
  if (r.audit && !r.audit->ok()) {
    o.problems.push_back(o.name + ": audit: " + r.audit->to_string());
  }
  if (r.stream) {
    o.mean_slowdown = r.stream->slowdown().mean();
    o.p99_slowdown = r.stream->slowdown_quantile(0.99);
  } else {
    // Completed jobs only, as summarize() counts them; p99 by selection
    // rather than summarize()'s full sort, since every pass is checked.
    std::vector<double> slowdowns;
    slowdowns.reserve(r.records.size());
    for (const auto& rec : r.records) {
      if (!rec.failed) slowdowns.push_back(rec.slowdown());
    }
    if (slowdowns.empty()) {
      o.problems.push_back(o.name + ": no job completed");
      return o;
    }
    o.mean_slowdown = std::accumulate(slowdowns.begin(), slowdowns.end(), 0.0) /
                      static_cast<double>(slowdowns.size());
    const auto k = static_cast<std::ptrdiff_t>(
        0.99 * static_cast<double>(slowdowns.size() - 1));
    std::nth_element(slowdowns.begin(), slowdowns.begin() + k, slowdowns.end());
    o.p99_slowdown = slowdowns[static_cast<std::size_t>(k)];
  }
  return o;
}

/// The control-plane configuration of the repository's tracked control
/// rows (bench_micro_simulator): probe period 5·gap·h, 10% probe loss,
/// lossy RPC with retries and capped backoff, misroute oracle off.
ds::sim::ControlPlaneConfig tracked_control(double gap, std::size_t hosts) {
  ds::sim::ControlPlaneConfig c;
  c.enabled = true;
  c.probe_period = 5.0 * gap * static_cast<double>(hosts);
  c.probe_loss = 0.1;
  c.rpc_timeout = 1.0 * gap;
  c.rpc_loss = 0.05;
  c.ack_loss = 0.05;
  c.max_retries = 2;
  c.backoff_base = 0.5 * gap;
  c.backoff_cap = 4.0 * gap;
  c.misroute_oracle = false;
  return c;
}

double mean_gap(const ds::workload::Trace& trace) {
  const auto& jobs = trace.jobs();
  return (jobs.back().arrival - jobs.front().arrival) /
         static_cast<double>(jobs.size() - 1);
}

/// RPC chains in flight, by Little's law over the arrival window: every
/// timeout holds its chain for at most rpc_timeout + backoff_cap.
std::size_t chains_in_flight(const Counters& c,
                             const ds::sim::ControlPlaneConfig& control) {
  if (c.arrival_window <= 0.0) return 1;
  const double held = static_cast<double>(c.timeouts) *
                      (control.rpc_timeout + control.backoff_cap);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(held / c.arrival_window)));
}

/// A record-mode run of `trace` through the tracing decorators on a freshly
/// configured server (the construction counts as plan time).
RunOutcome decorated_record_run(
    Tracer& tracer, TracedPass& out, std::size_t hosts,
    std::unique_ptr<ds::core::Policy> policy,
    const std::function<void(DistributedServer&)>& configure,
    const ds::workload::Trace& trace, std::uint64_t seed, std::string name) {
  const auto p0 = Clock::now();
  TracedPolicy traced(std::move(policy), tracer.assign);
  DistributedServer server(hosts, traced);
  configure(server);
  ds::workload::TraceSource inner(trace);
  TracedSource source(inner, tracer.source_next);
  out.plan_s += seconds_between(p0, Clock::now());
  const double t0 = cpu_seconds();
  RunResult r;
  {
    ScopedSpan span(&tracer, "core.run");
    r = server.run(source, seed);
  }
  const double run_s = cpu_seconds() - t0;
  RunOutcome o = outcome_of(r, std::move(name), trace.jobs().back().arrival,
                            run_s);
  out.decorated.add(o.counters);
  out.decorated_run_s += run_s;
  out.replication_s += run_s;
  for (const auto& rec : r.records) {
    if (!rec.failed) out.recorded_slowdowns.push_back(rec.slowdown());
  }
  return o;
}

/// The queueing layer on a workload that plans no cutoffs itself: the cost
/// of the two-host SITA-U-opt search over the workload's own job sizes.
double cutoff_search_s(Tracer& tracer, const std::vector<double>& sizes,
                       double rho) {
  const auto t0 = Clock::now();
  ScopedSpan span(&tracer, "queueing.cutoff_search");
  const ds::core::CutoffDeriver deriver(sizes);
  if (!std::isfinite(deriver.sita_u_opt(rho).cutoff)) {
    throw std::runtime_error("cutoff search returned no cutoff");
  }
  return seconds_between(t0, Clock::now());
}

/// Runs `trace` without and then with the audit layer on fresh servers,
/// recording both host times and the audited run's checks.
void audited_cost_pair(
    AuditResult& a, std::size_t hosts, ds::core::Policy& policy,
    const ds::workload::Trace& trace, std::uint64_t seed,
    const std::function<void(DistributedServer&)>& configure) {
  {
    DistributedServer server(hosts, policy);
    configure(server);
    const double t0 = cpu_seconds();
    const RunResult r = server.run(trace, seed);
    a.unaudited_s += cpu_seconds() - t0;
    if (r.records.size() != trace.size()) {
      throw std::runtime_error("unaudited run lost jobs");
    }
  }
  DistributedServer server(hosts, policy);
  configure(server);
  ds::sim::AuditConfig audit;
  audit.enabled = true;
  server.enable_audit(audit);
  const double t0 = cpu_seconds();
  const RunResult r = server.run(trace, seed);
  a.audited_s += cpu_seconds() - t0;
  a.events += r.events_executed;
  RunOutcome o = outcome_of(r, "audited-" + policy.name(),
                            trace.jobs().back().arrival, 0.0);
  if (!r.audit) o.problems.push_back(o.name + ": no audit report");
  a.outcomes.push_back(std::move(o));
}

// ---------------------------------------------------------------------------
// paper-sweep: the figure a user of the reproduction runs.
// ---------------------------------------------------------------------------

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    parts_.clear();
    for (std::size_t k = 0; k < kSizeSamples; ++k) {
      parts_.push_back(Part{
          "h2/" + std::to_string(k),
          std::make_unique<ds::core::Workbench>(
              c90(), config(2, ds::util::mix64(seed_ * kSizeSamples + k))),
          {PolicyKind::kRandom, PolicyKind::kRoundRobin,
           PolicyKind::kShortestQueue, PolicyKind::kLeastWorkLeft,
           PolicyKind::kCentralQueue, PolicyKind::kSitaE, PolicyKind::kSitaUOpt,
           PolicyKind::kSitaUFair}});
    }
    parts_.push_back(
        Part{"h8", std::make_unique<ds::core::Workbench>(c90(), config(8, seed_)),
             {PolicyKind::kHybridSitaUOpt, PolicyKind::kSitaUOptMulti}});
    plans_.clear();
    for (const Part& part : parts_) {
      for (const double rho : loads()) {
        for (const PolicyKind kind : part.policies) {
          plans_.push_back(part.wb->plan_point(kind, rho));
        }
      }
    }
  }

  std::vector<RunOutcome> pass(double& pass_s) override {
    std::vector<RunOutcome> out;
    pass_s = 0.0;
    for (const Part& part : parts_) {
      const auto t0 = Clock::now();
      const auto points = part.wb->sweep(part.policies, loads(), options());
      const double run_s = seconds_between(t0, Clock::now());
      pass_s += run_s;
      out.push_back(outcome_of_points(part, points, run_s));
    }
    return out;
  }

  TracedPass traced_pass(Tracer& tracer) override {
    TracedPass out;
    // The figure, serially, timing each plan / replication / finalize call
    // directly: Workbench finds its SITA audit oracle by dynamic_cast, so
    // decorated policies must not go through it.
    for (const Part& part : parts_) {
      std::vector<ds::core::ExperimentPoint> points;
      for (const double rho : loads()) {
        for (const PolicyKind kind : part.policies) {
          ds::core::Workbench::PointPlan plan;
          {
            const auto t0 = Clock::now();
            ScopedSpan span(&tracer, "core.plan_point");
            plan = part.wb->plan_point(kind, rho);
            out.plan_s += seconds_between(t0, Clock::now());
          }
          std::vector<ds::core::MetricsSummary> reps;
          for (std::size_t r = 0; r < part.wb->config().replications; ++r) {
            const auto t0 = Clock::now();
            ScopedSpan span(&tracer, "core.run_replication");
            reps.push_back(part.wb->run_replication(plan, r));
            out.replication_s += seconds_between(t0, Clock::now());
          }
          ScopedSpan span(&tracer, "core.finalize_point");
          points.push_back(
              ds::core::Workbench::finalize_point(plan, std::move(reps)));
        }
      }
      out.outcomes.push_back(outcome_of_points(part, points, 0.0));
    }

    // The queueing layer's share of planning: the cutoff searches
    // plan_point makes, called directly through Workbench::deriver().
    {
      const auto t0 = Clock::now();
      ScopedSpan span(&tracer, "queueing.cutoff_search");
      double sink = 0.0;
      for (const Part& part : parts_) {
        const auto& deriver = part.wb->deriver();
        const std::size_t grid = part.wb->config().cutoff_grid;
        for (const double rho : loads()) {
          sink += deriver.sita_u_opt(rho, grid).cutoff;
          if (part.wb->config().hosts == 2) {
            sink += deriver.sita_u_fair(rho, grid).cutoff;
          } else {
            sink += deriver.sita_u_opt_multi(rho, part.wb->config().hosts)
                        .cutoffs.front();
          }
        }
      }
      out.cutoff_search_s = seconds_between(t0, Clock::now());
      if (!std::isfinite(sink)) throw std::runtime_error("cutoff search");
    }

    // One decorated run per point of the first size sample and of h8, at the
    // point's own shape, for the per-call tallies and counts. Each gets a
    // plain Poisson trace over the evaluation sizes (the Workbench's own
    // traces are private). Its set-up and run time are not the figure's,
    // so plan_s and replication_s are restored afterwards.
    const double plan_s = out.plan_s;
    const double replication_s = out.replication_s;
    {
      const auto t0 = Clock::now();
      ScopedSpan span(&tracer, "workload.make_sizes");
      const auto sizes = ds::workload::make_sizes(c90(), seed_, kJobs);
      out.trace_build_s += seconds_between(t0, Clock::now());
      if (sizes.size() != kJobs) throw std::runtime_error("make_sizes");
    }
    std::size_t plan = 0;
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      const Part& part = parts_[p];
      const bool decorate = p == 0 || p + 1 == parts_.size();
      const auto& sizes = part.wb->eval_sizes();
      const double mean = std::accumulate(sizes.begin(), sizes.end(), 0.0) /
                          static_cast<double>(sizes.size());
      const auto hosts = part.wb->config().hosts;
      for (std::size_t l = 0; l < loads().size(); ++l) {
        if (!decorate) {
          plan += part.policies.size();
          continue;
        }
        ds::workload::Trace trace;
        {
          const auto t0 = Clock::now();
          ScopedSpan span(&tracer, "workload.with_arrivals");
          ds::workload::PoissonArrivals arrivals(
              loads()[l] * static_cast<double>(hosts) / mean);
          ds::dist::Rng rng = ds::dist::Rng(seed_).split(1000 + plan);
          trace = ds::workload::Trace::with_arrivals(sizes, arrivals, rng);
          out.trace_build_s += seconds_between(t0, Clock::now());
        }
        for (const PolicyKind kind : part.policies) {
          RunOutcome o = decorated_record_run(
              tracer, out, hosts, plans_[plan++].make_policy(),
              [](DistributedServer&) {}, trace, seed_,
              ds::core::to_string(kind));
          for (auto& problem : o.problems) {
            out.outcomes.front().problems.push_back(problem);
          }
        }
      }
    }
    out.plan_s = plan_s;
    out.replication_s = replication_s;
    return out;
  }

  AuditResult audit_pass() override {
    AuditResult a;
    // The first size sample and the h8 figure under the audit layer
    // (Workbench attaches the SITA route oracle itself). Auditing is
    // determinism-neutral, so their digests must equal the unaudited ones.
    for (std::size_t p : {std::size_t{0}, parts_.size() - 1}) {
      const Part& part = parts_[p];
      try {
        ds::core::ExperimentConfig cfg = part.wb->config();
        cfg.audit.enabled = true;
        const ds::core::Workbench audited(c90(), cfg);
        a.outcomes.push_back(outcome_of_points(
            part, audited.sweep(part.policies, loads(), options()), 0.0));
      } catch (const std::exception& e) {
        RunOutcome o;
        o.name = part.name;
        o.problems.push_back("audited " + part.name + ": " + e.what());
        a.outcomes.push_back(std::move(o));
      }
    }
    // The per-event audit cost, on the most loaded LWL point.
    const auto& sizes = parts_.front().wb->eval_sizes();
    const double mean = std::accumulate(sizes.begin(), sizes.end(), 0.0) /
                        static_cast<double>(sizes.size());
    ds::workload::PoissonArrivals arrivals(loads().back() * 2.0 / mean);
    ds::dist::Rng rng = ds::dist::Rng(seed_).split(999);
    const auto trace = ds::workload::Trace::with_arrivals(sizes, arrivals, rng);
    ds::core::LeastWorkLeftPolicy policy;
    audited_cost_pair(a, 2, policy, trace, seed_, [](DistributedServer&) {});
    return a;
  }

  std::vector<std::string> guards(
      const std::vector<RunOutcome>& /*first_pass*/) override {
    std::vector<std::string> problems;
    for (const auto& plan : plans_) {
      const PolicyKind k = plan.point.policy;
      const bool sita_u =
          k == PolicyKind::kSitaUOpt || k == PolicyKind::kSitaUFair ||
          k == PolicyKind::kHybridSitaUOpt || k == PolicyKind::kSitaUOptMulti;
      if (sita_u && !plan.point.feasible) {
        problems.push_back("guard: " + ds::core::to_string(k) + " at rho " +
                           std::to_string(plan.point.rho) + " is infeasible");
      }
    }
    return problems;
  }

  LayerShapes shapes(const std::vector<RunOutcome>& /*first_pass*/) const override {
    // At most one completion per host (h=8) plus the pending arrival; no
    // RPC chains.
    return LayerShapes{8 + 1, 1};
  }

  std::size_t workers() const override {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp<std::size_t>(hw / 2, 1, 2);
  }

  std::vector<Metric> extra_metrics(
      const std::vector<RunOutcome>& first_pass) override {
    double sum = 0.0;
    std::size_t n = 0;
    for (const RunOutcome& o : first_pass) {
      const auto it = analytic_rel_err_.find(o.name);
      if (it == analytic_rel_err_.end()) continue;
      sum += it->second;
      ++n;
    }
    return {{"analytic_rel_err", n > 0 ? sum / static_cast<double>(n) : 0.0,
             "ratio", "sim"}};
  }

 private:
  /// Catalog default trace length for c90 (what the figure benches use).
  static constexpr std::size_t kJobs = 60000;
  static constexpr std::size_t kReplications = 2;
  /// Independent size samples the h=2 figure is run over: one heavy-tailed
  /// sample moves every point of a figure together, so a single figure's
  /// mean slowdown swings by about 15% from seed to seed (four samples
  /// still left about 10%).
  static constexpr std::size_t kSizeSamples = 6;

  struct Part {
    std::string name;
    std::unique_ptr<ds::core::Workbench> wb;
    std::vector<PolicyKind> policies;
  };

  ds::core::ExperimentConfig config(std::size_t hosts,
                                    std::uint64_t seed) const {
    ds::core::ExperimentConfig cfg;
    cfg.hosts = hosts;
    cfg.n_jobs = kJobs;
    cfg.seed = seed;
    cfg.replications = kReplications;
    return cfg;
  }

  ds::core::SweepOptions options() const {
    ds::core::SweepOptions o;
    o.threads = workers();
    return o;
  }

  /// The paper's load grid (0.1 .. 0.8).
  static const std::vector<double>& loads() {
    static const std::vector<double> kLoads = {0.1, 0.2, 0.3, 0.4,
                                               0.5, 0.6, 0.7, 0.8};
    return kLoads;
  }

  RunOutcome outcome_of_points(const Part& part,
                               const std::vector<ds::core::ExperimentPoint>& pts,
                               double run_s) {
    RunOutcome o;
    o.name = part.name;
    o.run_s = run_s;
    o.digest = digest_points(pts);
    std::vector<double> means;
    std::vector<double> p99s;
    for (const auto& p : pts) {
      for (const auto& s : p.replication_summaries) {
        o.counters.jobs += s.jobs + s.jobs_failed;
      }
      if (!(p.summary.mean_slowdown >= 1.0) ||
          !(p.summary.p99_slowdown >= 1.0)) {
        o.problems.push_back(part.name + ": " + ds::core::to_string(p.policy) +
                             " slowdown below 1");
        continue;
      }
      means.push_back(p.summary.mean_slowdown);
      p99s.push_back(p.summary.p99_slowdown);
    }
    if (!means.empty()) {
      o.mean_slowdown = geometric_mean(means);
      o.p99_slowdown = geometric_mean(p99s);
    }
    if (part.wb->config().hosts == 2) {
      analytic_rel_err_[part.name] = analytic_error(*part.wb, pts);
    }
    return o;
  }

  /// Mean relative error of the simulated mean slowdown of Random and
  /// SITA-E at h=2 against the exact M/G/1 analyses over the same
  /// (evaluation) size sample.
  static double analytic_error(const ds::core::Workbench& wb,
                               const std::vector<ds::core::ExperimentPoint>& pts) {
    const ds::queueing::EmpiricalSizeModel model(wb.eval_sizes());
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& p : pts) {
      if (p.policy != PolicyKind::kRandom && p.policy != PolicyKind::kSitaE) {
        continue;
      }
      const double lambda = ds::queueing::lambda_for_load(model, p.rho, 2);
      const double exact =
          p.policy == PolicyKind::kRandom
              ? ds::queueing::analyze_random(model, lambda, 2).mean_slowdown
              : ds::queueing::analyze_sita_e(model, lambda, 2).mean_slowdown;
      sum += std::abs(p.summary.mean_slowdown - exact) / exact;
      ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }

  std::uint64_t seed_;
  std::vector<Part> parts_;
  std::vector<ds::core::Workbench::PointPlan> plans_;
  std::map<std::string, double> analytic_rel_err_;
};

// ---------------------------------------------------------------------------
// stream-h1024: the read-heavy dispatch path at large h.
// ---------------------------------------------------------------------------

class StreamH1024 final : public Workload {
 public:
  explicit StreamH1024(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const auto& sizes = ds::workload::service_distribution(c90());
    rate_ = kRho * static_cast<double>(kHosts) / sizes.mean();
    policy_ = std::make_unique<ds::core::LeastWorkLeftPolicy>();
    server_ = std::make_unique<DistributedServer>(kHosts, *policy_);
  }

  std::vector<RunOutcome> pass(double& pass_s) override {
    if (rss_small_mb_ == 0.0) {
      // The memory guard's baseline: an eighth of the stream, run before
      // the first full-length pass (peak RSS only ever grows).
      (void)run(kJobs / 8, *server_, nullptr, nullptr);
      rss_small_mb_ = peak_rss_mb();
    }
    const double t0 = cpu_seconds();
    RunOutcome o = run(kJobs, *server_, nullptr, nullptr);
    pass_s = cpu_seconds() - t0;
    return {o};
  }

  TracedPass traced_pass(Tracer& tracer) override {
    TracedPass out;
    const auto p0 = Clock::now();
    TracedPolicy traced(std::make_unique<ds::core::LeastWorkLeftPolicy>(),
                        tracer.assign);
    DistributedServer server(kHosts, traced);
    out.plan_s = seconds_between(p0, Clock::now());
    SummaryTap tap;
    tap.tally = &tracer.summary_add;
    RunOutcome o = run(kJobs, server, &tracer, &tap);
    out.trace_build_s = source_build_s_;
    out.replication_s = o.run_s;
    out.decorated = o.counters;
    out.decorated_run_s = o.run_s;
    // The tap saw every record the server folded: its summary must agree.
    if (tap.summary.jobs() + tap.summary.jobs_failed() != o.counters.jobs ||
        tap.summary.slowdown().mean() != last_mean_slowdown_) {
      o.problems.push_back("record-sink tap disagrees with the run summary");
    }
    out.recorded_slowdowns = recorded_;
    out.cutoff_search_s = cutoff_search_s(tracer, recorded_sizes_, kRho);
    out.outcomes.push_back(std::move(o));
    return out;
  }

  AuditResult audit_pass() override {
    AuditResult a;
    constexpr std::uint64_t kAuditJobs = kJobs / 16;
    ds::core::LeastWorkLeftPolicy policy;
    DistributedServer plain(kHosts, policy);
    const double t0 = cpu_seconds();
    (void)run(kAuditJobs, plain, nullptr, nullptr);
    a.unaudited_s = cpu_seconds() - t0;
    DistributedServer audited(kHosts, policy);
    ds::sim::AuditConfig audit;
    audit.enabled = true;
    audit.bounded_shadow = true;
    audited.enable_audit(audit);
    const double t1 = cpu_seconds();
    RunOutcome o = run(kAuditJobs, audited, nullptr, nullptr);
    a.audited_s = cpu_seconds() - t1;
    a.events = o.counters.events;
    o.name = "audited-stream";
    o.digest.clear();
    a.outcomes.push_back(std::move(o));
    return a;
  }

  std::vector<std::string> guards(
      const std::vector<RunOutcome>& /*first_pass*/) override {
    // Memory must not grow with the stream: the full-length passes may not
    // raise the peak set by the eighth-length run by more than 10% + 1 MB.
    const double now = peak_rss_mb();
    if (now > rss_small_mb_ * 1.10 + 1.0) {
      return {"guard: peak RSS grew from " + std::to_string(rss_small_mb_) +
              " MB at " + std::to_string(kJobs / 8) + " jobs to " +
              std::to_string(now) + " MB at " + std::to_string(kJobs) +
              " jobs"};
    }
    return {};
  }

  LayerShapes shapes(const std::vector<RunOutcome>& /*first_pass*/) const override {
    return LayerShapes{kHosts + 1, 1};
  }

 private:
  static constexpr std::size_t kHosts = 1024;
  static constexpr std::uint64_t kJobs = 1u << 20;
  static constexpr double kRho = 0.7;

  RunOutcome run(std::uint64_t jobs, DistributedServer& server, Tracer* tracer,
                 SummaryTap* tap) {
    const auto b0 = Clock::now();
    ds::workload::PoissonArrivals arrivals(rate_);
    ds::dist::Rng rng(seed_);
    ds::workload::SyntheticSource synthetic(
        jobs, ds::workload::service_distribution(c90()), arrivals, rng);
    source_build_s_ = seconds_between(b0, Clock::now());
    ds::core::StreamOptions options;
    if (tap != nullptr) {
      options.record_sink = [tap, this](const ds::core::JobRecord& rec) {
        (*tap)(rec);
        if (!rec.failed && recorded_.size() < kRecorded) {
          recorded_.push_back(rec.slowdown());
          recorded_sizes_.push_back(rec.size);
        }
      };
    }
    std::optional<TracedSource> traced;
    if (tracer != nullptr) traced.emplace(synthetic, tracer->source_next);
    ds::workload::JobSource& source =
        traced ? static_cast<ds::workload::JobSource&>(*traced) : synthetic;
    const double t0 = cpu_seconds();
    RunResult r;
    {
      ScopedSpan span(tracer, "core.run_stream");
      r = server.run_stream(source, seed_, options);
    }
    const double run_s = cpu_seconds() - t0;
    // A stream stores no arrivals: the traced source saw the last one;
    // untraced runs use the expected window, jobs / rate.
    RunOutcome o = outcome_of(
        r, "stream",
        traced ? traced->last_arrival() : static_cast<double>(jobs) / rate_,
        run_s);
    last_mean_slowdown_ = r.stream->slowdown().mean();
    return o;
  }

  static constexpr std::size_t kRecorded = 1u << 16;
  std::uint64_t seed_;
  double rate_ = 0.0;
  std::unique_ptr<ds::core::Policy> policy_;
  std::unique_ptr<DistributedServer> server_;
  double rss_small_mb_ = 0.0;
  double source_build_s_ = 0.0;
  double last_mean_slowdown_ = 0.0;
  std::vector<double> recorded_;
  std::vector<double> recorded_sizes_;
};

// ---------------------------------------------------------------------------
// control-h1024: the degraded-information control plane at large h.
// ---------------------------------------------------------------------------

class ControlH1024 final : public Workload {
 public:
  explicit ControlH1024(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    traces_.clear();
    // Each trace gets the tracked configuration scaled by its own gap, so
    // no one trace's sample mean sets the probe period of all of them.
    controls_.clear();
    for (std::size_t k = 0; k < kTraces; ++k) {
      traces_.push_back(make(k));
      controls_.push_back(tracked_control(mean_gap(traces_.back()), kHosts));
    }
    servers_.clear();
    for (const auto& [name, make_policy] : policies()) {
      Entry e{name, make_policy(), nullptr};
      e.server = std::make_unique<DistributedServer>(kHosts, *e.policy);
      servers_.push_back(std::move(e));
    }
  }

  std::vector<RunOutcome> pass(double& pass_s) override {
    std::vector<RunOutcome> out;
    pass_s = 0.0;
    for (std::size_t k = 0; k < traces_.size(); ++k) {
      for (Entry& e : servers_) {
        e.server->enable_control(controls_[k]);
        const double t0 = cpu_seconds();
        const RunResult r = e.server->run(traces_[k], run_seed(k));
        const double run_s = cpu_seconds() - t0;
        pass_s += run_s;
        out.push_back(outcome_of(r, run_name(e.name, k),
                                 traces_[k].jobs().back().arrival, run_s,
                                 !validated_));
      }
    }
    validated_ = true;
    return out;
  }

  TracedPass traced_pass(Tracer& tracer) override {
    TracedPass out;
    for (std::size_t k = 0; k < kTraces; ++k) {
      {
        const auto t0 = Clock::now();
        ScopedSpan span(&tracer, "workload.make_trace");
        traces_[k] = make(k);
        out.trace_build_s += seconds_between(t0, Clock::now());
      }
      const auto& control = controls_[k];
      for (const auto& [name, make_policy] : policies()) {
        out.outcomes.push_back(decorated_record_run(
            tracer, out, kHosts, make_policy(),
            [&control](DistributedServer& s) { s.enable_control(control); },
            traces_[k], run_seed(k), run_name(name, k)));
      }
    }
    out.cutoff_search_s =
        cutoff_search_s(tracer, traces_.front().sizes(), kRho);
    return out;
  }

  AuditResult audit_pass() override {
    AuditResult a;
    // An eighth of the first trace (25 jobs per host) keeps the audited
    // runs short.
    const auto& jobs = traces_.front().jobs();
    const ds::workload::Trace prefix(std::vector<ds::workload::Job>(
        jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(jobs.size() / 8)));
    const auto& control = controls_.front();
    for (const auto& [name, make_policy] : policies()) {
      const auto policy = make_policy();
      audited_cost_pair(
          a, kHosts, *policy, prefix, run_seed(0),
          [&control](DistributedServer& s) { s.enable_control(control); });
    }
    return a;
  }

  std::vector<std::string> guards(
      const std::vector<RunOutcome>& first_pass) override {
    std::vector<std::string> problems;
    for (const RunOutcome& o : first_pass) {
      const Counters& c = o.counters;
      if (c.probes_sent == 0 || c.retries == 0 || c.fallbacks == 0) {
        problems.push_back("guard: " + o.name +
                           ": probes, retries and fallbacks must all fire");
      }
    }
    return problems;
  }

  LayerShapes shapes(const std::vector<RunOutcome>& first_pass) const override {
    Counters total;
    for (const RunOutcome& o : first_pass) total.add(o.counters);
    // Completions plus the probe wheel, the pending arrival and the RPC
    // timeouts of the chains in flight.
    const std::size_t chains = chains_in_flight(total, controls_.front());
    return LayerShapes{kHosts + 2 + chains, chains};
  }

 private:
  static constexpr std::size_t kHosts = 1024;
  static constexpr std::size_t kJobsPerHost = 200;
  /// Independent traces per pass. Eight keep the seed-to-seed spread of the
  /// simulated slowdowns near 4% while leaving the window room for enough
  /// passes that each run's fastest time is steady. The probe wheel runs
  /// through each trace's drain tail, so one trace's LWL event count varies
  /// by up to 2.5x with its largest job, and a pass's events still spread
  /// by about 10% from seed to seed (README.md, "Bounds and spread").
  static constexpr std::size_t kTraces = 8;
  static constexpr double kRho = 0.7;

  struct Entry {
    std::string name;
    std::unique_ptr<ds::core::Policy> policy;
    std::unique_ptr<DistributedServer> server;
  };

  static std::vector<
      std::pair<std::string, std::function<std::unique_ptr<ds::core::Policy>()>>>
  policies() {
    return {{"Least-Work-Left",
             [] { return std::make_unique<ds::core::LeastWorkLeftPolicy>(); }},
            {"Random", [] { return std::make_unique<ds::core::RandomPolicy>(); }}};
  }

  static std::string run_name(const std::string& policy, std::size_t k) {
    return policy + "/" + std::to_string(k);
  }

  ds::workload::Trace make(std::size_t k) const {
    return ds::workload::make_trace(c90(), kRho, kHosts, trace_seed(k),
                                    kHosts * kJobsPerHost);
  }

  std::uint64_t trace_seed(std::size_t k) const {
    return ds::util::mix64(seed_ * kTraces + k);
  }
  /// Each trace's runs draw their losses, timeouts and random routes from
  /// their own seed: with one run seed for every trace, the traces' slowdowns
  /// moved together and a pass was no more representative than one trace.
  std::uint64_t run_seed(std::size_t k) const {
    return ds::util::mix64(trace_seed(k));
  }

  std::uint64_t seed_;
  std::vector<ds::workload::Trace> traces_;
  std::vector<ds::sim::ControlPlaneConfig> controls_;
  std::vector<Entry> servers_;
  bool validated_ = false;
};

// ---------------------------------------------------------------------------
// churn-h32: the host-state write paths (faults, overload, autoscaler).
// ---------------------------------------------------------------------------

class ChurnH32 final : public Workload {
 public:
  explicit ChurnH32(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    traces_.clear();
    for (std::size_t k = 0; k < kTraces; ++k) traces_.push_back(make(k));
    // Timer constants scale with the per-host arrival gap (as the tracked
    // fault rows do); one value, from the first trace, serves all of them.
    host_gap_ = mean_gap(traces_.front()) * static_cast<double>(kHosts);
    policy_ = std::make_unique<ds::core::LeastWorkLeftPolicy>();
    server_ = std::make_unique<DistributedServer>(kHosts, *policy_);
    configure(*server_);
  }

  std::vector<RunOutcome> pass(double& pass_s) override {
    std::vector<RunOutcome> out;
    pass_s = 0.0;
    for (std::size_t k = 0; k < traces_.size(); ++k) {
      const double t0 = cpu_seconds();
      const RunResult r = server_->run(traces_[k], run_seed(k));
      const double run_s = cpu_seconds() - t0;
      pass_s += run_s;
      out.push_back(outcome_of(r, run_name(k),
                               traces_[k].jobs().back().arrival, run_s,
                               !validated_));
    }
    validated_ = true;
    return out;
  }

  TracedPass traced_pass(Tracer& tracer) override {
    TracedPass out;
    for (std::size_t k = 0; k < kTraces; ++k) {
      {
        const auto t0 = Clock::now();
        ScopedSpan span(&tracer, "workload.make_trace");
        traces_[k] = make(k);
        out.trace_build_s += seconds_between(t0, Clock::now());
      }
      out.outcomes.push_back(decorated_record_run(
          tracer, out, kHosts,
          std::make_unique<ds::core::LeastWorkLeftPolicy>(),
          [this](DistributedServer& s) { configure(s); }, traces_[k],
          run_seed(k), run_name(k)));
    }
    out.cutoff_search_s =
        cutoff_search_s(tracer, traces_.front().sizes(), kRho);
    return out;
  }

  AuditResult audit_pass() override {
    AuditResult a;
    ds::core::LeastWorkLeftPolicy policy;
    audited_cost_pair(a, kHosts, policy, traces_.front(), run_seed(0),
                      [this](DistributedServer& s) { configure(s); });
    // Auditing is determinism-neutral: the audited run keeps the digest.
    a.outcomes.back().name = run_name(0);
    return a;
  }

  std::vector<std::string> guards(
      const std::vector<RunOutcome>& first_pass) override {
    std::vector<std::string> problems;
    for (const RunOutcome& o : first_pass) {
      const Counters& c = o.counters;
      const std::pair<const char*, std::uint64_t> fired[] = {
          {"interruptions", c.interruptions},
          {"sheds", c.shed},
          {"reneges", c.reneged},
          {"fault migrations", c.fault_migrations},
          {"warm-ups", c.warmups},
          {"drains", c.drains}};
      for (const auto& [what, count] : fired) {
        if (count == 0) {
          problems.push_back("guard: " + o.name + ": no " + what);
        }
      }
    }
    return problems;
  }

  LayerShapes shapes(const std::vector<RunOutcome>& /*first_pass*/) const override {
    // Completions and failure/repair timers per host, the arrival, the
    // scaler tick.
    return LayerShapes{2 * kHosts + 2, 1};
  }

 private:
  static constexpr std::size_t kHosts = 32;
  static constexpr std::size_t kJobs = 100000;
  /// Independent traces per pass, as for control-h1024.
  static constexpr std::size_t kTraces = 8;
  static constexpr double kRho = 0.7;
  static constexpr double kDiurnalCycles = 20.0;

  static std::string run_name(std::size_t k) {
    return "churn/" + std::to_string(k);
  }

  /// Sizes, then diurnal arrivals at load kRho of the fleet's capacity with
  /// about kDiurnalCycles cycles over the trace.
  ds::workload::Trace make(std::size_t k) const {
    const std::uint64_t seed = trace_seed(k);
    const std::vector<double> sizes =
        ds::workload::make_sizes(c90(), seed, kJobs);
    const double mean = std::accumulate(sizes.begin(), sizes.end(), 0.0) /
                        static_cast<double>(sizes.size());
    double capacity = 0.0;
    for (const double s : speeds()) capacity += s;
    const double rate = kRho * capacity / mean;
    ds::workload::DiurnalArrivals arrivals(
        rate, 0.8, static_cast<double>(kJobs) / (kDiurnalCycles * rate));
    ds::dist::Rng rng = ds::dist::Rng(seed).split(7);
    return ds::workload::Trace::with_arrivals(sizes, arrivals, rng);
  }

  std::uint64_t trace_seed(std::size_t k) const {
    return ds::util::mix64(seed_ * kTraces + k);
  }
  /// Faults, reneging patience and repairs drawn per trace, as on
  /// control-h1024.
  std::uint64_t run_seed(std::size_t k) const {
    return ds::util::mix64(trace_seed(k));
  }

  static std::vector<double> speeds() {
    std::vector<double> s(kHosts);
    for (std::size_t h = 0; h < kHosts; ++h) s[h] = h % 2 == 0 ? 1.0 : 2.0;
    return s;
  }

  void configure(DistributedServer& server) const {
    server.set_host_speeds(speeds());
    ds::sim::FaultConfig faults;
    faults.enabled = true;
    faults.mtbf = 1000.0 * host_gap_;
    faults.mttr = 20.0 * host_gap_;
    server.enable_faults(faults, ds::core::RecoveryMode::kResubmit);
    ds::sim::OverloadConfig overload;
    overload.enabled = true;
    overload.queue_cap = 8;
    overload.overflow = ds::sim::OverflowAction::kShedLargest;
    overload.patience_mean = 20.0 * host_gap_;
    overload.migrate_on_fail = true;
    server.enable_overload(overload);
    ds::sim::AutoscalerConfig scaler;
    scaler.enabled = true;
    scaler.check_period = 5.0 * host_gap_;
    scaler.warmup_delay = 2.0 * host_gap_;
    scaler.scale_step = 2;
    scaler.min_hosts = kHosts / 4;
    server.enable_autoscaler(scaler);
  }

  std::uint64_t seed_;
  std::vector<ds::workload::Trace> traces_;
  double host_gap_ = 0.0;
  std::unique_ptr<ds::core::Policy> policy_;
  std::unique_ptr<DistributedServer> server_;
  bool validated_ = false;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "paper-sweep", "stream-h1024", "control-h1024", "churn-h32"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(seed);
  if (name == "stream-h1024") return std::make_unique<StreamH1024>(seed);
  if (name == "control-h1024") return std::make_unique<ControlH1024>(seed);
  if (name == "churn-h32") return std::make_unique<ChurnH32>(seed);
  return nullptr;
}

}  // namespace perfbench

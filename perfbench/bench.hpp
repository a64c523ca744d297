// Shared vocabulary of the distserv benchmark harness: metrics, per-run
// outcomes, the in-memory tracer, the tracing decorators, and the workload
// interface the harness in main.cpp drives.
//
// Tracing lives entirely on this side of the library's public API: the
// decorators wrap core::Policy and workload::JobSource, the record-sink tap
// wraps StreamOptions::record_sink, and coarser spans are taken around the
// calls the benchmark makes into each module. Nothing inside src/ is
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/server.hpp"
#include "core/stream_metrics.hpp"
#include "workload/job_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds this process has run so far, over all its threads. Set-up
/// and the single-threaded workloads' simulation calls are timed with it
/// rather than with the wall clock: on a shared host the wall clock also
/// counts the time the thread waited for a core (in a guest, time the
/// hypervisor stole), which moves from minute to minute by more than the
/// code does.
[[nodiscard]] double cpu_seconds();

[[nodiscard]] double median(std::vector<double> values);
/// Requires positive values.
[[nodiscard]] double geometric_mean(const std::vector<double>& values);

/// One reported number. `kind` says what it measures: "host" (time or
/// memory of the simulator process), "sim" (simulated, deterministic for a
/// seed) or "count" (deterministic work counts).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;
};

/// Deterministic work counters of one simulation run (or the sum of several).
struct Counters {
  std::uint64_t jobs = 0;    ///< resolved: completed, shed, reneged, abandoned
  std::uint64_t events = 0;  ///< events_executed
  std::uint64_t probes_sent = 0;
  std::uint64_t routed = 0;  ///< routing decisions made under snapshots
  std::uint64_t rpc_sends = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t interruptions = 0;
  std::uint64_t shed = 0;
  std::uint64_t reneged = 0;
  std::uint64_t migrations = 0;
  std::uint64_t fault_migrations = 0;
  std::uint64_t power_transitions = 0;
  std::uint64_t warmups = 0;
  std::uint64_t drains = 0;
  double host_time_powered = 0.0;
  double host_time_total = 0.0;
  double makespan = 0.0;
  double arrival_window = 0.0;  ///< last arrival time

  void add(const Counters& other);
};

/// Counters of one finished DistributedServer run.
[[nodiscard]] Counters counters_of(const distserv::core::RunResult& result,
                                   double last_arrival);

/// What one checked simulation run produced.
struct RunOutcome {
  std::string name;    ///< run label within the workload, e.g. "LWL"
  std::string digest;  ///< see digest.hpp; empty when not digested
  std::vector<std::string> problems;  ///< validation failures, exceptions
  Counters counters;
  double run_s = 0.0;  ///< host CPU seconds inside the simulation call(s);
                       ///< wall seconds on paper-sweep, which uses a pool
  double mean_slowdown = 0.0;
  double p99_slowdown = 0.0;
};

/// Host time and call count accumulated at one layer boundary.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  void add(Clock::time_point a, Clock::time_point b) {
    ++calls;
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns) * 1e-9; }
  [[nodiscard]] double ns_per_call() const {
    return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls)
                     : 0.0;
  }
};

/// The traced pass's in-memory record: coarse spans (name, parent, start,
/// end) at the boundaries the benchmark calls into, plus per-call tallies
/// for the hot boundaries (one span per Policy::assign would outweigh the
/// work it measures). Written out once, when the benchmark ends.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; the innermost open span is its parent.
  std::size_t begin(std::string name);
  void end(std::size_t span);
  /// Total duration of the closed spans called `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// One JSON object per line: name, id, parent, start_ns, end_ns, then the
  /// tallies.
  void write_jsonl(const std::string& path) const;

  Tally assign;       ///< Policy::assign through TracedPolicy
  Tally source_next;  ///< JobSource::next through TracedSource
  Tally summary_add;  ///< StreamSummary::add in the record-sink tap

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// Policy decorator: times assign() and forwards every virtual, so fallback
/// chains and staleness sensitivity (degraded_info) are unchanged. It hides
/// the concrete policy type, so it must not be handed to code that
/// dynamic_casts (Workbench's SITA audit oracle).
class TracedPolicy final : public distserv::core::Policy {
 public:
  TracedPolicy(std::unique_ptr<distserv::core::Policy> inner, Tally& tally)
      : inner_(std::move(inner)), tally_(&tally) {}

  void reset(std::size_t hosts, std::uint64_t seed) override {
    inner_->reset(hosts, seed);
  }
  [[nodiscard]] std::optional<distserv::core::HostId> assign(
      const distserv::workload::Job& job,
      const distserv::core::ServerView& view) override {
    const auto t0 = Clock::now();
    const auto host = inner_->assign(job, view);
    tally_->add(t0, Clock::now());
    return host;
  }
  [[nodiscard]] std::size_t select_next(
      const std::deque<distserv::workload::Job>& held,
      distserv::core::HostId host,
      const distserv::core::ServerView& view) override {
    return inner_->select_next(held, host, view);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] distserv::core::DegradedInfo degraded_info() const override {
    return inner_->degraded_info();
  }

 private:
  std::unique_ptr<distserv::core::Policy> inner_;
  Tally* tally_;
};

/// JobSource decorator: times next() and forwards size_hint(). Also keeps
/// the last arrival it handed out (a stream stores none).
class TracedSource final : public distserv::workload::JobSource {
 public:
  TracedSource(distserv::workload::JobSource& inner, Tally& tally)
      : inner_(&inner), tally_(&tally) {}
  [[nodiscard]] std::optional<distserv::workload::Job> next() override {
    const auto t0 = Clock::now();
    auto job = inner_->next();
    tally_->add(t0, Clock::now());
    if (job) last_arrival_ = job->arrival;
    return job;
  }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] double last_arrival() const noexcept { return last_arrival_; }

 private:
  distserv::workload::JobSource* inner_;
  Tally* tally_;
  double last_arrival_ = 0.0;
};

/// Record-sink tap: folds every record the server streams out into the
/// benchmark's own StreamSummary, timing each add. The tap's summary must
/// end equal to the server's (checked by the stream workload).
struct SummaryTap {
  distserv::core::StreamSummary summary;
  Tally* tally = nullptr;
  void operator()(const distserv::core::JobRecord& rec) {
    const auto t0 = Clock::now();
    summary.add(rec);
    tally->add(t0, Clock::now());
  }
};

/// The shapes a workload's layer microbenchmarks run at.
struct LayerShapes {
  std::size_t pending_events = 1;  ///< event-queue depth during a run
  std::size_t rpc_chains = 1;      ///< RPC chains in flight
};

/// Per-layer numbers a traced pass of one workload adds to its report.
struct TracedPass {
  /// Digest-checked outcomes; must match the untraced pass's.
  std::vector<RunOutcome> outcomes;
  /// Counters and host seconds of the runs made through the tracing
  /// decorators (on paper-sweep: one decorated run per figure point).
  Counters decorated;
  double decorated_run_s = 0.0;
  double trace_build_s = 0.0;    ///< make_sizes / make_trace / with_arrivals
  double plan_s = 0.0;           ///< plan_point, or policy + server set-up
  double cutoff_search_s = 0.0;  ///< CutoffDeriver searches (0 elsewhere)
  double replication_s = 0.0;    ///< serial sum of simulation-run time
  std::vector<double> recorded_slowdowns;  ///< for the summary microbench
};

/// An audited run and the unaudited run of the same input.
struct AuditResult {
  std::vector<RunOutcome> outcomes;  ///< audit + validate_run problems
  double unaudited_s = 0.0;
  double audited_s = 0.0;
  std::uint64_t events = 0;  ///< events of the audited run
};

/// One benchmark workload: a fixed input derived from the seed, run to
/// completion by this process.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first simulated event: input generation,
  /// planning, server construction. Timed by the harness, several times.
  virtual void setup() = 0;
  /// One complete untraced pass over the input. `pass_s` receives the
  /// host seconds of the pass's simulation calls: CPU seconds on the
  /// single-threaded workloads, wall seconds on paper-sweep.
  virtual std::vector<RunOutcome> pass(double& pass_s) = 0;
  /// The same pass with every layer boundary traced. Its digests must equal
  /// the untraced pass's.
  virtual TracedPass traced_pass(Tracer& tracer) = 0;
  /// Audited runs over (a prefix of) the input: audit violations and
  /// validate_run problems land in the outcomes.
  virtual AuditResult audit_pass() = 0;
  /// Problems when a mechanism the workload exists to exercise did not fire.
  [[nodiscard]] virtual std::vector<std::string> guards(
      const std::vector<RunOutcome>& first_pass) = 0;
  [[nodiscard]] virtual LayerShapes shapes(
      const std::vector<RunOutcome>& first_pass) const = 0;
  /// Worker threads the pass uses (1 except paper-sweep).
  [[nodiscard]] virtual std::size_t workers() const { return 1; }
  /// Extra end-to-end lines only this workload reports (printed, not part
  /// of the machine-readable metric set).
  [[nodiscard]] virtual std::vector<Metric> extra_metrics(
      const std::vector<RunOutcome>& /*first_pass*/) {
    return {};
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Layer microbenchmarks at a workload's shapes (layers.cpp). Each returns
/// mean host ns per operation.
[[nodiscard]] double event_queue_ns(std::size_t pending, std::uint64_t seed);
[[nodiscard]] double host_state_ns(std::size_t hosts, std::uint64_t seed);
[[nodiscard]] double slot_map_ns(std::size_t resident, std::uint64_t seed);
[[nodiscard]] double summary_add_ns(const std::vector<double>& slowdowns);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

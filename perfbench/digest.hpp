// Run digests: a fingerprint of a run's simulated output, compared against
// the reference digests stored beside the benchmark (reference.json) and
// across repeated and traced passes. Floating-point values enter as their
// exact IEEE-754 bit patterns (the information a hex-float prints), so a
// digest is equal only when the output is bit-identical.
//
// Digests deliberately leave out control-plane counters (probes, RPC
// sends): a change that stops sending useless probes keeps completions
// bit-identical and must not read as a behaviour change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/server.hpp"

namespace perfbench {

/// Streaming 128-bit FNV-1a (two lanes) over values' exact bytes.
class Digest {
 public:
  void add(double value);
  void add(std::uint64_t value);
  void add(const std::string& text);
  [[nodiscard]] std::string hex() const;

 private:
  void bytes(const char* data, std::size_t n);
  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x84222325cbf29ce4ULL;
};

/// Record mode: every job's id, host, start, completion and outcome.
[[nodiscard]] std::string digest_records(
    const distserv::core::RunResult& result);

/// Stream mode: the StreamSummary counts, moments and sketch quantiles,
/// plus the makespan.
[[nodiscard]] std::string digest_stream(
    const distserv::core::RunResult& result);

/// A figure: per point, the policy, load, cutoff metadata and every
/// replication summary's slowdown/response/waiting statistics.
[[nodiscard]] std::string digest_points(
    const std::vector<distserv::core::ExperimentPoint>& points);

}  // namespace perfbench

#ifndef PIMCOMP_PERFBENCH_WIRE_HPP
#define PIMCOMP_PERFBENCH_WIRE_HPP

// What a client of pimcompd / pimcomp_router observes of one request, and
// the measurements the two serving workloads derive from it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

struct TimedEvent {
  Clock::time_point at;
  pimcomp::PipelineEvent event;
};

/// One request and its reply, as the client saw them.
struct Exchange {
  std::string key;  ///< the request's identity in the workload's key pool
  pimcomp::serve::CompileRequest request;
  Clock::time_point sent;
  Clock::time_point done;
  std::vector<TimedEvent> events;
  pimcomp::serve::CompileReply reply;

  double ms() const { return seconds_between(sent, done) * 1e3; }
  /// "memory" / "disk" / "remote" for a mapping-cache hit of that tier,
  /// "cold" when the mapping stage ran, "" otherwise.
  std::string tier() const;
  /// Summed duration of `stage`'s stage_end events.
  double stage_seconds(const std::string& stage) const;
};

/// Submits `request` and records timing and events. Throws ServeError like
/// CompileClient::submit.
Exchange exchange(pimcomp::serve::CompileClient& client, std::string key,
                  const pimcomp::serve::CompileRequest& request);

/// Spans of one exchange: a "request" root from send to done, "serve" from
/// send to the first event (encode, socket, parse, session lookup and job
/// queue), one span per stage from its stage_end event, and — when the
/// reply carries a simulation — "sim" from the last event to done.
void trace_exchange(Tracer& tracer, const Exchange& ex, std::uint64_t op);

/// The serve codec's cost for one exchange, measured by running the
/// client's own encode/decode calls on the exchange's request and frames.
struct CodecCost {
  double request_encode_s = 0.0;
  double reply_decode_s = 0.0;
  double frame_bytes = 0.0;
};
CodecCost replay_codec(const Exchange& ex);

/// Round trips of `count` pings, in milliseconds.
std::vector<double> ping_ms(pimcomp::serve::CompileClient& client, int count);

/// Per-tier counters from a daemon's stats payload.
struct TierCounters {
  double hits = 0.0;
  double misses = 0.0;
  double stores = 0.0;
  double hit_ratio() const {
    return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  }
};
std::map<std::string, TierCounters> tier_counters(const pimcomp::Json& stats);

/// Request latencies grouped by Exchange::tier().
std::map<std::string, std::vector<double>> latency_by_tier(
    const std::vector<Exchange>& exchanges);

}  // namespace perfbench

#endif  // PIMCOMP_PERFBENCH_WIRE_HPP

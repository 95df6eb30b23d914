#include "wire.hpp"

#include <utility>

#include "workloads.hpp"

namespace perfbench {

using namespace pimcomp;
using namespace pimcomp::serve;

std::string Exchange::tier() const {
  bool mapped = false;
  for (const TimedEvent& e : events) {
    if (e.event.kind == PipelineEvent::Kind::kCacheHit &&
        e.event.name == cache_names::kMapping) {
      return e.event.source;
    }
    if (e.event.kind == PipelineEvent::Kind::kStageEnd &&
        e.event.name == stage_names::kMapping) {
      mapped = true;
    }
  }
  return mapped ? "cold" : "";
}

double Exchange::stage_seconds(const std::string& stage) const {
  double seconds = 0.0;
  for (const TimedEvent& e : events) {
    if (e.event.kind == PipelineEvent::Kind::kStageEnd && e.event.name == stage) {
      seconds += e.event.seconds;
    }
  }
  return seconds;
}

Exchange exchange(CompileClient& client, std::string key,
                  const CompileRequest& request) {
  Exchange ex;
  ex.key = std::move(key);
  ex.request = request;
  ex.sent = Clock::now();
  ex.reply = client.submit(request, [&ex](const PipelineEvent& event) {
    ex.events.push_back(TimedEvent{Clock::now(), event});
  });
  ex.done = Clock::now();
  return ex;
}

void trace_exchange(Tracer& tracer, const Exchange& ex, std::uint64_t op) {
  const int root = tracer.add("request", -1, op, tracer.at(ex.sent), tracer.at(ex.done));
  if (ex.events.empty()) return;
  tracer.add("serve", root, op, tracer.at(ex.sent), tracer.at(ex.events.front().at));
  for (const TimedEvent& e : ex.events) {
    if (e.event.kind != PipelineEvent::Kind::kStageEnd) continue;
    const double end = tracer.at(e.at);
    tracer.add(layer_of_stage(e.event.name), root, op, end - e.event.seconds, end);
  }
  if (ex.request.simulate) {
    tracer.add("sim", root, op, tracer.at(ex.events.back().at), tracer.at(ex.done));
  }
}

namespace {

template <typename Message>
void replay_frame(const Message& message, CodecCost& cost) {
  const std::string line = to_json(message).dump(-1);
  const auto t0 = Clock::now();
  const ServerMessage parsed = server_message_from_json(Json::parse(line));
  cost.reply_decode_s += seconds_between(t0, Clock::now());
  cost.frame_bytes += static_cast<double>(line.size() + 1);
  (void)parsed;
}

}  // namespace

CodecCost replay_codec(const Exchange& ex) {
  CodecCost cost;
  CompileRequest request = ex.request;
  request.id = ex.reply.id;
  const auto t0 = Clock::now();
  const std::string line = to_json(request).dump(-1);
  cost.request_encode_s = seconds_between(t0, Clock::now());
  (void)line;
  for (const TimedEvent& e : ex.events) {
    replay_frame(EventMessage{ex.reply.id, e.event}, cost);
  }
  for (const OutcomeMessage& outcome : ex.reply.outcomes) replay_frame(outcome, cost);
  for (const ArtifactMessage& artifact : ex.reply.artifacts) replay_frame(artifact, cost);
  DoneMessage done;
  done.id = ex.reply.id;
  done.ok_count = ex.reply.ok_count;
  done.error_count = ex.reply.error_count;
  done.artifact_count = static_cast<int>(ex.reply.artifacts.size());
  replay_frame(done, cost);
  return cost;
}

std::vector<double> ping_ms(CompileClient& client, int count) {
  std::vector<double> rtts;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    if (!client.ping()) throw std::runtime_error("ping answered garbage");
    rtts.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return rtts;
}

std::map<std::string, TierCounters> tier_counters(const Json& stats) {
  std::map<std::string, TierCounters> tiers;
  if (!stats.is_object() || !stats.contains("cache")) return tiers;
  const Json& rows = stats.at("cache");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Json& row = rows.at(i);
    TierCounters& counters = tiers[row.get("tier", std::string())];
    counters.hits = static_cast<double>(row.get("hits", std::int64_t{0}));
    counters.misses = static_cast<double>(row.get("misses", std::int64_t{0}));
    counters.stores = static_cast<double>(row.get("stores", std::int64_t{0}));
  }
  return tiers;
}

std::map<std::string, std::vector<double>> latency_by_tier(
    const std::vector<Exchange>& exchanges) {
  std::map<std::string, std::vector<double>> by_tier;
  for (const Exchange& ex : exchanges) by_tier[ex.tier()].push_back(ex.ms());
  return by_tier;
}

}  // namespace perfbench

// serve-mix: callers of one pimcompd that each wait for their reply. One
// in-process CompileServer (Unix socket, temp --cache-dir, jobs=2) serves
// two closed-loop CompileClients, one connection each. Every request is one
// scenario drawn by the seed from a pool of small compile keys; the draw is
// skewed so most requests repeat a key (memory hit) while a stated share are
// first-seen (cold, written through to disk). Each reply carries its
// simulation, as `pimcomp_cli submit` asks by default.
//
// A round is one fresh daemon, its sessions built during set-up, serving the
// seeded request sequence; a run repeats rounds for the requested time, so
// every round sees the same inputs and the first-seen share is exact.

#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "serve/server.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimcomp;
using namespace pimcomp::serve;

constexpr const char* kModels[] = {"squeezenet", "resnet18", "googlenet"};
constexpr int kInputs[] = {32, 64};
constexpr PipelineMode kModes[] = {PipelineMode::kHighThroughput,
                                   PipelineMode::kLowLatency};
constexpr int kParallelism[] = {10, 20, 30};
constexpr int kKeysPerShape = 2;  // 3 models x 2 inputs x 2 modes x 2 = 24 keys
constexpr int kClients = 2;
// 24 first-seen requests in 800: a 3% cold share. Six identities fit the
// daemon's default eight sessions, 24 keys its memory tier.
constexpr int kRequestsPerRound = 800;

struct Key {
  std::string id;
  CompileRequest request;
};

/// The seed's key pool: every (model, input, mode) shape twice, each with
/// a drawn parallelism degree and GA seed; small GA budget.
std::vector<Key> key_pool(std::uint64_t seed) {
  Rng rng(split_seed(seed, 101));
  std::vector<Key> pool;
  for (const char* model : kModels) {
    for (int input : kInputs) {
      for (PipelineMode mode : kModes) {
        for (int k = 0; k < kKeysPerShape; ++k) {
          CompileRequest request;
          request.model = model;
          request.input_size = input;
          request.simulate = true;
          ScenarioSpec spec;
          spec.options.mode = mode;
          spec.options.parallelism_degree = kParallelism[rng.uniform_int(3)];
          spec.options.ga.population = 8;
          spec.options.ga.generations = 4;
          spec.options.seed = rng.next_u64() >> 16;
          spec.label = std::string(model) + "@" + std::to_string(input) + "/" +
                       to_string(mode) + "/p" +
                       std::to_string(spec.options.parallelism_degree) + "/s" +
                       std::to_string(spec.options.seed);
          request.scenarios.push_back(spec);
          pool.push_back(Key{spec.label, std::move(request)});
        }
      }
    }
  }
  return pool;
}

/// One PUMA-mapped HT compile per (model, input) identity of the pool: it
/// makes the daemon build that identity's session without touching any pool
/// key.
std::vector<CompileRequest> warm_up_requests() {
  std::vector<CompileRequest> requests;
  for (const char* model : kModels) {
    for (int input : kInputs) {
      CompileRequest request;
      request.model = model;
      request.input_size = input;
      request.simulate = false;
      ScenarioSpec spec;
      spec.label = "warm-up";
      spec.options.mapper = "puma";
      request.scenarios.push_back(spec);
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

/// The seeded request sequence: the pool's keys appear for the first time at
/// drawn positions (position 0 is always one), in a drawn order; every other
/// request repeats an already-seen key. Repeats visit the pool's shapes
/// (model, input, mode) in turn and pick one of the shape's seen keys at
/// random, so every seed serves the same mix of shapes.
std::vector<int> request_sequence(std::uint64_t seed, int pool_size) {
  Rng rng(split_seed(seed, 202));
  std::vector<bool> first_seen(kRequestsPerRound, false);
  first_seen[0] = true;
  for (int placed = 1; placed < pool_size;) {
    const int pos = 1 + rng.uniform_int(kRequestsPerRound - 1);
    if (!first_seen[static_cast<std::size_t>(pos)]) {
      first_seen[static_cast<std::size_t>(pos)] = true;
      ++placed;
    }
  }
  std::vector<int> order(static_cast<std::size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = pool_size - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(i + 1))]);
  }
  const int shapes = pool_size / kKeysPerShape;
  std::vector<std::vector<int>> seen_by_shape(static_cast<std::size_t>(shapes));
  std::vector<int> sequence;
  int seen = 0, next_shape = 0;
  for (int pos = 0; pos < kRequestsPerRound; ++pos) {
    if (first_seen[static_cast<std::size_t>(pos)]) {
      const int key = order[static_cast<std::size_t>(seen++)];
      seen_by_shape[static_cast<std::size_t>(key / kKeysPerShape)].push_back(key);
      sequence.push_back(key);
      continue;
    }
    const std::vector<int>* keys = nullptr;
    do {
      keys = &seen_by_shape[static_cast<std::size_t>(next_shape++ % shapes)];
    } while (keys->empty());
    sequence.push_back((*keys)[static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(keys->size())))]);
  }
  return sequence;
}

}  // namespace

Report run_serve_mix(const RunConfig& config, Tracer& tracer) {
  Report report;
  Oracle oracle;
  KeyBook book;
  Digest run_digest;

  const std::vector<Key> pool = key_pool(config.seed);
  const std::vector<int> sequence =
      request_sequence(config.seed, static_cast<int>(pool.size()));
  const std::vector<CompileRequest> warm_up = warm_up_requests();

  EndToEnd measured;
  std::vector<double> request_ms, traced_ms, untraced_ms;
  std::map<std::string, std::vector<double>> tiers;
  double total_wall = 0.0;
  std::map<std::string, std::vector<double>> layer;  // per traced round

  const auto start = Clock::now();
  std::uint64_t op = 0;
  for (int round = 0;; ++round) {
    if (seconds_between(start, Clock::now()) >= config.seconds &&
        (!config.trace || round >= 2)) {
      break;
    }
    throw_if_interrupted();
    const bool traced = config.trace && round % 2 == 1;

    TempDir dir(config.scratch + "/sm" + std::to_string(round));
    reset_peak_rss();
    ServerOptions options;
    options.unix_path = dir.path() + "/d.sock";
    options.jobs = 2;
    options.cache.dir = dir.path() + "/cache";
    // Set-up: start the daemon, connect the clients, and have the daemon
    // build its session (graph, hardware fit, partitioning) for each of the
    // pool's identities with one cheap compile (PUMA mapper, no simulation),
    // as a daemon that has been up for a while has done. The pool's own keys
    // stay unseen.
    const double setup_cpu = process_cpu_seconds();
    CompileServer server(options);
    server.start();
    std::vector<std::unique_ptr<CompileClient>> clients;
    for (int c = 0; c < kClients; ++c) {
      // CompileClient is not movable; connect() initializes it in place.
      clients.emplace_back(new CompileClient(CompileClient::connect(server.endpoint())));
    }
    std::vector<CompileReply> warm_ups;
    for (const CompileRequest& request : warm_up) {
      warm_ups.push_back(clients[0]->submit(request));
    }
    measured.setup_cpu_s.push_back(process_cpu_seconds() - setup_cpu);
    for (const CompileReply& reply : warm_ups) {
      const ReplyCheck check = check_reply(reply, false, false);
      oracle.check(check.ok, "session warm-up: " + check.error);
    }

    std::vector<double> rtts;
    if (traced) rtts = ping_ms(*clients[0], 50);

    // Closed loop: client c sends requests c, c + kClients, ... of the
    // sequence, each after the previous reply.
    std::vector<std::vector<Exchange>> done(kClients);
    std::vector<std::exception_ptr> errors(kClients);
    const double round_cpu = process_cpu_seconds();
    const auto round_start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          try {
            for (int i = c; i < kRequestsPerRound; i += kClients) {
              if (g_interrupted.load()) return;
              const Key& key = pool[static_cast<std::size_t>(sequence[static_cast<std::size_t>(i)])];
              done[static_cast<std::size_t>(c)].push_back(
                  exchange(*clients[static_cast<std::size_t>(c)], key.id, key.request));
            }
          } catch (...) {
            errors[static_cast<std::size_t>(c)] = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double round_wall = seconds_between(round_start, Clock::now());
    measured.op_cpu_s += process_cpu_seconds() - round_cpu;
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    throw_if_interrupted();
    const Json stats = clients[0]->stats();
    measured.peak_rss_mib.push_back(peak_rss_mib());
    clients.clear();
    server.stop();

    // Outside the timed region: check every reply against its key's first.
    std::vector<Exchange> exchanges;
    for (std::vector<Exchange>& part : done) {
      for (Exchange& ex : part) exchanges.push_back(std::move(ex));
    }
    std::map<std::string, const Exchange*> first_reply;  // per key
    for (const Exchange& ex : exchanges) {
      const ReplyCheck check = check_reply(ex.reply, true, false);
      if (!check.ok) {
        oracle.fail(ex.key + ": " + check.error);
        continue;
      }
      oracle.check(book.observe(ex.key, check.digest),
                   ex.key + ": reply differs from the key's first result");
      if (first_reply.emplace(ex.key, &ex).second && round == 0) {
        run_digest.add(check.digest);
      }
    }
    if (round == 0) {
      // Quality and size of every distinct program, from its reply.
      for (const Key& key : pool) {
        const auto it = first_reply.find(key.id);
        if (it == first_reply.end()) continue;
        const OutcomeMessage& outcome = it->second->reply.outcomes.front();
        if (key.request.scenarios.front().options.mode == PipelineMode::kHighThroughput) {
          measured.ht_ips.push_back(outcome.simulation.get("throughput_per_s", 0.0));
        } else {
          measured.ll_us.push_back(outcome.simulation.get("makespan_us", 0.0));
        }
        measured.code_ops.push_back(
            static_cast<double>(outcome.compile.get("total_ops", std::int64_t{0})));
      }
    }
    for (const Exchange& ex : exchanges) {
      request_ms.push_back(ex.ms());
      (traced ? traced_ms : untraced_ms).push_back(ex.ms());
    }
    for (auto& [tier, ms] : latency_by_tier(exchanges)) {
      tiers[tier].insert(tiers[tier].end(), ms.begin(), ms.end());
    }
    measured.ops += exchanges.size();
    total_wall += round_wall;
    if (!traced) continue;

    const std::size_t first_span = tracer.size();
    CodecCost codec;
    std::vector<double> first_event_ms;
    double sim_ops = 0.0, schedule_ops = 0.0;
    for (const Exchange& ex : exchanges) {
      trace_exchange(tracer, ex, op++);
      const CodecCost cost = replay_codec(ex);
      codec.request_encode_s += cost.request_encode_s;
      codec.reply_decode_s += cost.reply_decode_s;
      codec.frame_bytes += cost.frame_bytes;
      if (!ex.events.empty()) {
        first_event_ms.push_back(seconds_between(ex.sent, ex.events.front().at) * 1e3);
      }
      if (ex.reply.outcomes.empty()) continue;  // counted as failed above
      const double ops = static_cast<double>(
          ex.reply.outcomes.front().compile.get("total_ops", std::int64_t{0}));
      sim_ops += ops;
      if (ex.tier() == "cold") schedule_ops += ops;
    }
    std::map<std::string, double> self = tracer.self_seconds(first_span);
    layer["mapping.s"].push_back(self["mapping"]);
    layer["schedule.s"].push_back(self["schedule"]);
    layer["partition.s"].push_back(self["partition"]);
    layer["sim.s"].push_back(self["sim"]);
    layer["unattributed.s"].push_back(self["request"]);
    layer["schedule.ops"].push_back(schedule_ops);
    layer["sim.ops"].push_back(sim_ops);
    layer["serve.request_encode_s"].push_back(codec.request_encode_s);
    layer["serve.reply_decode_s"].push_back(codec.reply_decode_s);
    layer["serve.frame_bytes"].push_back(codec.frame_bytes);
    layer["serve.first_event_ms"].push_back(median(first_event_ms));
    layer["core.queue_wait_ms"].push_back(median(first_event_ms) - median(rtts));
    const std::map<std::string, TierCounters> counters = tier_counters(stats);
    double stores = 0.0;
    for (const auto& [tier, c] : counters) stores += c.stores;
    layer["cache.stores"].push_back(stores);
    for (const char* tier : {"memory", "disk"}) {
      const auto it = counters.find(tier);
      layer[std::string("cache.") + tier + ".hit_ratio"].push_back(
          it == counters.end() ? 0.0 : it->second.hit_ratio());
    }
  }

  const std::vector<double>& cold = tiers["cold"];
  const std::vector<double>& memory = tiers["memory"];
  const double requests = static_cast<double>(request_ms.size());

  report_end_to_end(report, measured);
  report.add_detail("request_ms_p50", median(request_ms), "ms", request_ms.size());
  add_tail_detail(report, "request_ms_p99", request_ms, 0.99, "ms");
  report.add_detail("requests_per_s", requests / total_wall, "1/s", request_ms.size());
  report.add_detail("cold_ms_p50", median_or_zero(cold), "ms", cold.size());
  report.add_detail("memory_hit_ms_p50", median_or_zero(memory), "ms", memory.size());
  report.add_detail("cold_share", static_cast<double>(cold.size()) / requests, "ratio",
                    request_ms.size());

  if (config.trace) {
    LayerValues values;
    for (const auto& [name, per_round] : layer) {
      values.set(name, median(per_round), per_round.size());
    }
    values.set("cache.memory.hit_ms", median(memory), memory.size());
    values.set("trace.overhead", median(traced_ms) / median(untraced_ms) - 1.0,
               traced_ms.size() + untraced_ms.size());
    values.emit(report);
  }

  report.attempted = oracle.attempted();
  report.failed = oracle.failed();
  report.result_digest = run_digest.value();
  return report;
}

}  // namespace perfbench

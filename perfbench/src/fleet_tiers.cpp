// fleet-tiers: the topology of scripts/fleet_smoke.sh, in process. Daemon A
// (disk cache) is warmed during set-up with K distinct resnet18 compiles
// whose options select the isa-json backend, so every cached artifact
// carries an instruction stream. A fresh daemon B (own cache dir, peer A)
// sits behind a Router. The same K requests then go through the router
// three times: remote hits (B asks A), disk hits (after B restarts on its
// dir) and memory hits. Nothing is simulated on the serving path: the
// stream codec, the disk and remote tiers, re-partitioning on a persistent
// hit and the router relay do the work.
//
// A traced round additionally replays, per key, the layer calls a remote
// hit is made of (RemoteStore::load against A, DiskStore::load, the
// artifact and stream codecs, the serve codec), to split its latency.

#include <sys/stat.h>

#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/instruction_stream.hpp"
#include "cache/artifact.hpp"
#include "cache/disk_store.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "fleet/remote_store.hpp"
#include "fleet/router.hpp"
#include "serve/server.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimcomp;
using namespace pimcomp::serve;

// resnet18 at 32 px: its LL instruction stream is ~2.3 MB of JSON (6.5 MB
// at 64 px, where one round of this workload takes ~40 s).
constexpr int kInput = 32;
constexpr int kKeys = 8;
constexpr int kParallelism[] = {10, 20, 30};
// Three passes of 8 requests per round; two rounds leave 12 samples beyond
// the 75th percentile, which falls among the remote hits (the slowest third).
constexpr double kTailQuantile = 0.75;
constexpr const char* kPasses[] = {"remote", "disk", "memory"};

struct Key {
  std::string id;
  CompileRequest request;
};

/// K distinct resnet18 compiles, HT and LL alternating, each with a
/// drawn parallelism degree and GA seed.
std::vector<Key> key_pool(std::uint64_t seed) {
  Rng rng(split_seed(seed, 303));
  std::vector<Key> pool;
  for (int k = 0; k < kKeys; ++k) {
    CompileRequest request;
    request.model = "resnet18";
    request.input_size = kInput;
    request.simulate = false;
    ScenarioSpec spec;
    spec.options.mode = k % 2 == 0 ? PipelineMode::kHighThroughput
                                    : PipelineMode::kLowLatency;
    spec.options.parallelism_degree = kParallelism[rng.uniform_int(3)];
    spec.options.backend = "isa-json";
    spec.options.ga.population = 8;
    spec.options.ga.generations = 4;
    spec.options.seed = rng.next_u64() >> 16;
    spec.label = "resnet18@" + std::to_string(kInput) + "/" + to_string(spec.options.mode) + "/p" +
                 std::to_string(spec.options.parallelism_degree) + "/s" +
                 std::to_string(spec.options.seed);
    request.scenarios.push_back(spec);
    pool.push_back(Key{spec.label, std::move(request)});
  }
  return pool;
}

ServerOptions daemon_options(const std::string& dir, const std::string& name) {
  ServerOptions options;
  options.unix_path = dir + "/" + name + ".sock";
  options.jobs = 2;
  options.cache.dir = dir + "/" + name;
  return options;
}

std::unique_ptr<CompileServer> start_daemon(const ServerOptions& options) {
  auto daemon = std::make_unique<CompileServer>(options);
  daemon->start();
  return daemon;
}

std::unique_ptr<CompileClient> connect(const std::string& endpoint) {
  // CompileClient is not movable; connect() initializes it in place.
  return std::unique_ptr<CompileClient>(
      new CompileClient(CompileClient::connect(endpoint)));
}

double file_bytes(const std::string& path) {
  struct stat info {};
  return ::stat(path.c_str(), &info) == 0 ? static_cast<double>(info.st_size) : 0.0;
}

/// Per-key replay of the layer calls behind one remote hit, summed over the
/// round's keys.
struct Replay {
  double remote_load_s = 0.0, disk_load_s = 0.0, disk_store_s = 0.0;
  double artifact_decode_s = 0.0, artifact_encode_s = 0.0, artifact_bytes = 0.0;
  double stream_encode_s = 0.0, stream_decode_s = 0.0, stream_bytes = 0.0;
};

Replay replay_layers(const std::vector<Key>& pool,
                     const std::vector<std::uint64_t>& mapping_keys,
                     const std::string& endpoint_a, const std::string& dir_b,
                     const std::string& scratch, Oracle& oracle) {
  Replay replay;
  CacheConfig remote_config;
  remote_config.peers = {endpoint_a};
  fleet::RemoteStore remote(remote_config);
  CacheConfig disk_config;
  disk_config.dir = dir_b;
  disk_config.read_only = true;
  DiskStore disk(disk_config);
  // A remote hit writes the peer's artifact through to B's disk tier.
  CacheConfig store_config;
  store_config.dir = scratch;
  DiskStore write_through(store_config);
  const ResolvedRequest resolved = resolve_compile_request(pool.front().request);
  const auto workload = std::make_shared<const Workload>(resolved.graph, resolved.hardware);
  (void)remote.load(mapping_keys.front());  // opens the pooled connection

  for (std::size_t k = 0; k < pool.size(); ++k) {
    const std::uint64_t key = mapping_keys[k];
    auto t0 = Clock::now();
    const std::optional<CacheHit> from_a = remote.load(key);
    replay.remote_load_s += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    const std::optional<CacheHit> from_b = disk.load(key);
    replay.disk_load_s += seconds_between(t0, Clock::now());
    if (!oracle.check(from_a.has_value() && from_b.has_value() &&
                          from_a->entry.artifact.dump(-1) == from_b->entry.artifact.dump(-1),
                      pool[k].id + ": remote and disk tiers disagree")) {
      continue;
    }
    const Json& artifact = from_a->entry.artifact;
    replay.artifact_bytes += file_bytes(disk.artifact_path(key));
    t0 = Clock::now();
    write_through.store(key, from_a->entry);
    replay.disk_store_s += seconds_between(t0, Clock::now());

    t0 = Clock::now();
    const CompileResult result = compile_result_from_artifact(
        artifact, workload, pool[k].request.scenarios.front().options,
        resolved.fingerprint);
    replay.artifact_decode_s += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    const Json encoded = compile_result_to_artifact(result, resolved.fingerprint, key);
    replay.artifact_encode_s += seconds_between(t0, Clock::now());
    (void)encoded;

    t0 = Clock::now();
    const std::string text = result.stream->to_json().dump(-1);
    replay.stream_encode_s += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    const InstructionStream stream = InstructionStream::from_json(Json::parse(text), key);
    replay.stream_decode_s += seconds_between(t0, Clock::now());
    replay.stream_bytes += static_cast<double>(text.size());
    oracle.check(stream.content_fingerprint() == result.stream->content_fingerprint(),
                 pool[k].id + ": stream does not round-trip");
  }
  return replay;
}

}  // namespace

Report run_fleet_tiers(const RunConfig& config, Tracer& tracer) {
  Report report;
  Oracle oracle;
  KeyBook book;
  Digest run_digest;
  const std::vector<Key> pool = key_pool(config.seed);
  const HardwareConfig hw = resolve_compile_request(pool.front().request).hardware;
  const std::unique_ptr<Backend> sim = BackendRegistry::create("sim");

  EndToEnd measured;
  std::vector<double> request_ms, cold_ms, traced_ms, untraced_ms;
  std::map<std::string, std::vector<double>> tiers;
  // One client, one request at a time: throughput is requests per second
  // of request time (the checks between requests are not serving time).
  double busy_seconds = 0.0;
  std::map<std::string, std::vector<double>> layer;  // per traced round
  std::map<std::string, std::vector<double>> split;  // remote-hit split, ms

  const auto start = Clock::now();
  std::uint64_t op = 0;
  for (int round = 0;; ++round) {
    if (seconds_between(start, Clock::now()) >= config.seconds &&
        samples_beyond(request_ms.size(), kTailQuantile) >= kMinBeyondTail &&
        (!config.trace || round >= 2)) {
      break;
    }
    throw_if_interrupted();
    const bool traced = config.trace && round % 2 == 1;
    TempDir dir(config.scratch + "/ft" + std::to_string(round));
    reset_peak_rss();

    // Set-up: start A, warm it with the K cold compiles, start B and the
    // router in front of it; later, B's restart. Only these calls count
    // toward set-up CPU, not the checks between them.
    double setup_cpu = 0.0;
    const auto setup_step = [&setup_cpu](const auto& step) {
      const double cpu = process_cpu_seconds();
      step();
      setup_cpu += process_cpu_seconds() - cpu;
    };
    const ServerOptions options_a = daemon_options(dir.path(), "a");
    std::unique_ptr<CompileServer> daemon_a;
    setup_step([&] { daemon_a = start_daemon(options_a); });
    std::vector<std::uint64_t> mapping_keys;
    double lower_s = 0.0, instructions = 0.0;
    {
      const std::unique_ptr<CompileClient> client = connect(daemon_a->endpoint());
      for (const Key& key : pool) {
        throw_if_interrupted();
        Exchange ex;
        setup_step([&] { ex = exchange(*client, key.id, key.request); });
        cold_ms.push_back(ex.ms());
        const ReplyCheck check = check_reply(ex.reply, false, true);
        mapping_keys.push_back(check.mapping_key);
        if (!check.ok) {
          oracle.fail(key.id + ": " + check.error);
          continue;
        }
        oracle.check(book.observe(key.id, check.digest) && ex.tier() == "cold",
                     key.id + ": warm-up compile differs from the first round");
        instructions += static_cast<double>(check.instructions);
        lower_s += ex.stage_seconds(stage_names::kLowering);
        if (round == 0) {
          // Quality of the served program: the sim backend runs the stream.
          // Outside every timed region.
          const SimReport report_k = sim->execute(
              InstructionStream::from_json(ex.reply.artifacts.front().artifact), hw);
          if (key.request.scenarios.front().options.mode ==
              PipelineMode::kHighThroughput) {
            measured.ht_ips.push_back(report_k.throughput_per_sec());
          } else {
            measured.ll_us.push_back(to_seconds(report_k.makespan) * 1e6);
          }
          measured.code_ops.push_back(static_cast<double>(check.instructions));
          run_digest.add(check.digest);
        }
      }
    }
    const ServerOptions options_b = [&] {
      ServerOptions options = daemon_options(dir.path(), "b");
      options.cache.peers = {daemon_a->endpoint()};
      return options;
    }();
    std::unique_ptr<CompileServer> daemon_b;
    setup_step([&] { daemon_b = start_daemon(options_b); });
    fleet::RouterOptions router_options;
    router_options.unix_path = dir.path() + "/r.sock";
    router_options.backends = {daemon_b->endpoint()};
    router_options.health_interval_seconds = 0;
    fleet::Router router(router_options);
    std::unique_ptr<CompileClient> client;
    setup_step([&] {
      router.start();
      client = connect(router.endpoint());
    });

    std::vector<double> rtts;
    if (traced) rtts = ping_ms(*client, 50);

    // Each reply is checked (and, traced, replayed) as soon as it arrives and
    // then dropped: a parsed instruction stream is far larger in memory than
    // on the wire. Only the requests themselves are timed.
    const std::size_t first_span = tracer.size();
    CodecCost codec, remote_codec;
    std::vector<double> first_event_ms, router_memory, direct_memory;
    double remote_s = 0.0, remote_partition_s = 0.0;
    const auto settle = [&](const Exchange& ex, const std::string& want) {
      const ReplyCheck check = check_reply(ex.reply, false, true);
      if (!check.ok) {
        oracle.fail(ex.key + ": " + check.error);
      } else {
        oracle.check(book.observe(ex.key, check.digest) && ex.tier() == want,
                     ex.key + ": " + want + " request returned a " + ex.tier() +
                         " result or a different program");
      }
    };

    Json stats_before_restart;
    for (const std::string pass : kPasses) {
      if (pass == "disk") {
        // B restarts on its own directory: its memory tier is gone, its
        // disk tier holds what the remote pass wrote through.
        stats_before_restart = connect(daemon_b->endpoint())->stats();
        setup_step([&] {
          daemon_b.reset();
          daemon_b = start_daemon(options_b);
        });
      }
      for (const Key& key : pool) {
        throw_if_interrupted();
        const double cpu0 = process_cpu_seconds();
        Exchange ex = exchange(*client, key.id, key.request);
        measured.op_cpu_s += process_cpu_seconds() - cpu0;
        ++measured.ops;
        const double ms = ex.ms();
        request_ms.push_back(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);
        tiers[ex.tier()].push_back(ms);
        busy_seconds += ms / 1e3;
        settle(ex, pass);
        if (!traced) continue;
        trace_exchange(tracer, ex, op++);
        const CodecCost cost = replay_codec(ex);
        codec.request_encode_s += cost.request_encode_s;
        codec.reply_decode_s += cost.reply_decode_s;
        codec.frame_bytes += cost.frame_bytes;
        if (!ex.events.empty()) {
          first_event_ms.push_back(seconds_between(ex.sent, ex.events.front().at) * 1e3);
        }
        if (pass == "remote") {
          remote_codec.request_encode_s += cost.request_encode_s;
          remote_codec.reply_decode_s += cost.reply_decode_s;
          remote_partition_s += ex.stage_seconds(stage_names::kPartitioning);
          remote_s += ms / 1e3;
        } else if (pass == "memory") {
          router_memory.push_back(ms);
        }
      }
    }
    measured.setup_cpu_s.push_back(setup_cpu);

    if (traced) {
      // Direct-to-B memory hits on the same requests, for the relay cost.
      const std::unique_ptr<CompileClient> client_b = connect(daemon_b->endpoint());
      for (const Key& key : pool) {
        Exchange ex = exchange(*client_b, key.id, key.request);
        direct_memory.push_back(ex.ms());
        settle(ex, "memory");
      }
    }
    const Json stats_after_restart = connect(daemon_b->endpoint())->stats();
    measured.peak_rss_mib.push_back(peak_rss_mib());
    if (!traced) continue;

    const Replay replay = replay_layers(pool, mapping_keys, daemon_a->endpoint(),
                                        options_b.cache.dir, dir.path() + "/replay",
                                        oracle);
    std::map<std::string, double> self = tracer.self_seconds(first_span);

    const std::map<std::string, TierCounters> before = tier_counters(stats_before_restart);
    const std::map<std::string, TierCounters> after = tier_counters(stats_after_restart);
    double stores = 0.0;
    for (const auto* counters : {&before, &after}) {
      for (const auto& [tier, c] : *counters) stores += c.stores;
    }
    for (const char* tier : {"memory", "disk", "remote"}) {
      TierCounters sum;
      for (const auto* counters : {&before, &after}) {
        const auto it = counters->find(tier);
        if (it == counters->end()) continue;
        sum.hits += it->second.hits;
        sum.misses += it->second.misses;
      }
      layer[std::string("cache.") + tier + ".hit_ratio"].push_back(sum.hit_ratio());
    }
    layer["cache.stores"].push_back(stores);
    layer["mapping.s"].push_back(self["mapping"]);
    layer["schedule.s"].push_back(self["schedule"]);
    layer["partition.s"].push_back(self["partition"]);
    layer["serve.request_encode_s"].push_back(codec.request_encode_s);
    layer["serve.reply_decode_s"].push_back(codec.reply_decode_s);
    layer["serve.frame_bytes"].push_back(codec.frame_bytes);
    layer["serve.first_event_ms"].push_back(median(first_event_ms));
    layer["core.queue_wait_ms"].push_back(median(first_event_ms) - median(rtts));
    layer["cache.remote.load_s"].push_back(replay.remote_load_s);
    layer["cache.disk.load_s"].push_back(replay.disk_load_s);
    layer["cache.artifact_decode_s"].push_back(replay.artifact_decode_s);
    layer["cache.artifact_encode_s"].push_back(replay.artifact_encode_s);
    layer["cache.artifact_bytes"].push_back(replay.artifact_bytes);
    layer["backend.stream_encode_s"].push_back(replay.stream_encode_s);
    layer["backend.stream_decode_s"].push_back(replay.stream_decode_s);
    layer["backend.stream_bytes"].push_back(replay.stream_bytes);
    layer["backend.lower_s"].push_back(lower_s);
    layer["backend.instructions"].push_back(instructions);
    const double relay_ms = median(router_memory) - median(direct_memory);
    layer["fleet.relay_ms"].push_back(relay_ms);

    // The remote pass, split into the layers a remote hit passes through:
    // the client encodes the request; the router relays it (the relay cost
    // is measured on memory hits of the same keys); B's RemoteStore::load
    // covers A's disk read, A's reply encode and B's parse; B decodes the
    // artifact, re-partitions, writes the artifact through to its disk and
    // encodes the stream frame; the client parses the frames.
    const double k = static_cast<double>(pool.size());
    const std::map<std::string, double> parts = {
        {"serve.request_encode", remote_codec.request_encode_s},
        {"fleet.relay", relay_ms / 1e3 * k},
        {"cache.remote.load", replay.remote_load_s},
        {"cache.artifact_decode", replay.artifact_decode_s},
        {"partition", remote_partition_s},
        {"cache.disk.store", replay.disk_store_s},
        {"backend.stream_encode", replay.stream_encode_s},
        {"serve.reply_decode", remote_codec.reply_decode_s},
    };
    double attributed = 0.0;
    for (const auto& [name, seconds] : parts) {
      split["remote_hit." + name + "_ms"].push_back(seconds / k * 1e3);
      attributed += seconds;
    }
    split["remote_hit.unattributed_ms"].push_back((remote_s - attributed) / k * 1e3);
    layer["unattributed.s"].push_back(remote_s - attributed);
  }

  const std::vector<double>& remote = tiers["remote"];
  const std::vector<double>& disk = tiers["disk"];
  const std::vector<double>& memory = tiers["memory"];

  report_end_to_end(report, measured);
  report.add_detail("cold_ms_p50", median(cold_ms), "ms", cold_ms.size());
  report.add_detail("requests_per_s", static_cast<double>(request_ms.size()) / busy_seconds,
                    "1/s", request_ms.size());
  report.add_detail("request_ms_p50", median(request_ms), "ms", request_ms.size());
  add_tail_detail(report, "request_ms_p75", request_ms, kTailQuantile, "ms");
  add_tail_detail(report, "request_ms_p90", request_ms, 0.90, "ms");
  report.add_detail("remote_hit_ms_p50", median_or_zero(remote), "ms", remote.size());
  report.add_detail("disk_hit_ms_p50", median_or_zero(disk), "ms", disk.size());
  report.add_detail("memory_hit_ms_p50", median_or_zero(memory), "ms", memory.size());

  if (config.trace) {
    LayerValues values;
    for (const auto& [name, per_round] : layer) {
      values.set(name, median(per_round), per_round.size());
    }
    values.set("cache.remote.hit_ms", median_or_zero(remote), remote.size());
    values.set("cache.disk.hit_ms", median_or_zero(disk), disk.size());
    values.set("cache.memory.hit_ms", median_or_zero(memory), memory.size());
    values.set("trace.overhead", median(traced_ms) / median(untraced_ms) - 1.0,
               traced_ms.size() + untraced_ms.size());
    values.emit(report);
    for (const auto& [name, per_round] : split) {
      report.add_detail(name, median(per_round), "ms", per_round.size());
    }
  }

  report.attempted = oracle.attempted();
  report.failed = oracle.failed();
  report.result_digest = run_digest.value();
  return report;
}

}  // namespace perfbench

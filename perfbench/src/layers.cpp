#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"mapping.s", "s"},
      {"mapping.evaluations", "count"},
      {"mapping.evals_per_s", "1/s"},
      {"mapping.cpu_per_wall", "ratio"},
      {"mapping.allocations", "count"},
      {"mapping.gain_over_seed.ht", "ratio"},
      {"mapping.gain_over_seed.ll", "ratio"},
      {"schedule.s", "s"},
      {"schedule.ops", "count"},
      {"partition.s", "s"},
      {"sim.s", "s"},
      {"sim.ops", "count"},
      {"serve.request_encode_s", "s"},
      {"serve.reply_decode_s", "s"},
      {"serve.frame_bytes", "bytes"},
      {"serve.first_event_ms", "ms"},
      {"core.queue_wait_ms", "ms"},
      {"cache.memory.hit_ratio", "ratio"},
      {"cache.disk.hit_ratio", "ratio"},
      {"cache.remote.hit_ratio", "ratio"},
      {"cache.stores", "count"},
      {"cache.memory.hit_ms", "ms"},
      {"cache.disk.hit_ms", "ms"},
      {"cache.remote.hit_ms", "ms"},
      {"cache.remote.load_s", "s"},
      {"cache.disk.load_s", "s"},
      {"cache.artifact_encode_s", "s"},
      {"cache.artifact_decode_s", "s"},
      {"cache.artifact_bytes", "bytes"},
      {"backend.stream_encode_s", "s"},
      {"backend.stream_decode_s", "s"},
      {"backend.stream_bytes", "bytes"},
      {"backend.lower_s", "s"},
      {"backend.instructions", "count"},
      {"fleet.relay_ms", "ms"},
      {"unattributed.s", "s"},
      {"trace.overhead", "ratio"},
  };
  return catalog;
}

void LayerValues::set(const std::string& name, double value,
                      std::size_t samples) {
  for (const auto& entry : per_layer_catalog()) {
    if (entry.first == name) {
      values_[name] = {value, samples};
      return;
    }
  }
  throw std::logic_error("per-layer metric not in the catalog: " + name);
}

void LayerValues::emit(Report& report) const {
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      report.add_per_layer(name, 0.0, unit, 0);
    } else {
      report.add_per_layer(name, it->second.first, unit, it->second.second);
    }
  }
}

std::string layer_of_stage(const std::string& stage) {
  if (stage == pimcomp::stage_names::kPartitioning) return "partition";
  if (stage == pimcomp::stage_names::kMapping) return "mapping";
  if (stage == pimcomp::stage_names::kScheduling) return "schedule";
  if (stage == pimcomp::stage_names::kLowering) return "backend";
  return stage;
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : median(values);
}

}  // namespace perfbench

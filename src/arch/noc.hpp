#ifndef PIMCOMP_ARCH_NOC_HPP
#define PIMCOMP_ARCH_NOC_HPP

#include <cstdint>

#include "arch/hardware_config.hpp"
#include "common/units.hpp"

namespace pimcomp {

/// Interconnect timing/energy geometry. Cores on one chip sit on a 2-D mesh
/// (NoC) or a shared bus; chips are linked by HyperTransport. The model
/// answers two questions for the scheduler and simulator: how long does a
/// transfer of B bytes between cores a and b take, and how many router hops
/// does it traverse (for Orion-lite energy accounting).
class NocModel {
 public:
  explicit NocModel(const HardwareConfig& hw);

  /// Router hops between two cores on the same chip (0 when a == b).
  /// For bus connection every distinct pair is one "hop" (one arbitration).
  int hops(int core_a, int core_b) const;

  /// True when the two cores live on different chips.
  bool crosses_chip(int core_a, int core_b) const;

  /// Latency for a message of `bytes` from core_a to core_b, including
  /// per-hop router latency, link serialization, and the HyperTransport
  /// penalty for chip crossings. Throws SimulationError when the latency
  /// does not fit Picoseconds.
  Picoseconds transfer_latency(int core_a, int core_b,
                               std::int64_t bytes) const;

  /// Flits needed for `bytes`.
  std::int64_t flits(std::int64_t bytes) const;

  /// Mesh side length (cores per chip rounded up to a square).
  int mesh_side() const { return mesh_side_; }

 private:
  HardwareConfig hw_;
  int mesh_side_ = 1;
};

}  // namespace pimcomp

#endif  // PIMCOMP_ARCH_NOC_HPP

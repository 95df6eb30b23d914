// The `sim` backend: lowering is the reference emission, and execute()
// runs the one event simulator (src/sim/) on the lowered stream — a stream
// is a Schedule plus its header, so there is nothing to translate. Its
// reports are the reports Simulator::run() gives on the schedule the
// stream was lowered from (tests/test_backend.cpp pins this).

#include "backend/backend.hpp"
#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace pimcomp {

namespace {

class SimBackend : public Backend {
 public:
  std::string name() const override { return "sim"; }

  InstructionStream lower(const LowerInput& input) const override {
    PIMCOMP_CHECK(input.schedule != nullptr && input.options != nullptr,
                  "sim backend needs a schedule and options");
    return InstructionStream::from_schedule(
        *input.schedule, input.options->mode,
        input.options->parallelism_degree, name(), input.mapping_key);
  }

  bool can_execute() const override { return true; }

  /// The simulator validates the rows itself, so only the header is
  /// checked here.
  SimReport execute(const InstructionStream& stream,
                    const HardwareConfig& hw) const override {
    stream.validate_header();
    return Simulator(hw, {stream.parallelism_degree, stream.mode}).run(stream);
  }
};

}  // namespace

PIMCOMP_REGISTER_BACKEND("sim", [] { return std::make_unique<SimBackend>(); });

}  // namespace pimcomp

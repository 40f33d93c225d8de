// Structural gate-level netlist with flip-flops: the substrate for the
// hardware-cost experiments (Table III). Netlists are built by the
// datapath constructors in tlb_datapath.h, technology-mapped to 6-input
// LUTs by mapper.h, and functionally evaluated for equivalence tests
// against the simulator's TLB check logic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace roload::hw {

enum class GateKind : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kXor,
  kXnor,
  kMux2,  // inputs: {sel, a, b} -> sel ? b : a
  kFlipFlopQ,  // output of a flip-flop; its D input is wired separately
};

// Signal index into the netlist.
using Signal = int;

struct Gate {
  GateKind kind = GateKind::kBuf;
  std::vector<Signal> inputs;
  std::string name;  // inputs and named nets only (debugging)
};

class Netlist {
 public:
  // Primary input with a name (evaluation binds by index).
  Signal AddInput(const std::string& name);
  Signal Const0();

  Signal Not(Signal a);
  Signal And(Signal a, Signal b);
  Signal Or(Signal a, Signal b);
  Signal Xor(Signal a, Signal b);
  Signal Xnor(Signal a, Signal b);
  Signal Mux(Signal sel, Signal a, Signal b);

  // Reductions over a vector of signals (balanced trees).
  Signal AndReduce(const std::vector<Signal>& signals);
  Signal OrReduce(const std::vector<Signal>& signals);

  // n-bit equality comparator.
  Signal Equal(const std::vector<Signal>& a, const std::vector<Signal>& b);

  // Registers a flip-flop: returns its Q output signal. D inputs are
  // attached later with BindFlipFlop (allows feedback).
  Signal AddFlipFlop(const std::string& name);
  void BindFlipFlop(Signal q, Signal d);

  // Marks a primary output.
  void AddOutput(const std::string& name, Signal signal);

  unsigned num_gates() const { return static_cast<unsigned>(gates_.size()); }
  unsigned num_inputs() const { return static_cast<unsigned>(inputs_.size()); }
  unsigned num_flip_flops() const {
    return static_cast<unsigned>(flip_flops_.size());
  }
  unsigned num_outputs() const {
    return static_cast<unsigned>(outputs_.size());
  }

  const Gate& gate(Signal signal) const { return gates_[static_cast<std::size_t>(signal)]; }
  const std::vector<Signal>& primary_inputs() const { return inputs_; }
  const std::vector<std::pair<std::string, Signal>>& outputs() const {
    return outputs_;
  }
  struct FlipFlop {
    Signal q = -1;
    Signal d = -1;
  };
  const std::vector<FlipFlop>& flip_flops() const { return flip_flops_; }

  // Combinational evaluation: binds primary inputs (by registration order)
  // and current flip-flop Q values, returns each primary output.
  // `ff_state` may be empty when the netlist has no flip-flops.
  std::vector<bool> Evaluate(const std::vector<bool>& input_values,
                             const std::vector<bool>& ff_state = {}) const;

  // Next flip-flop state for the same bindings (one clock edge).
  std::vector<bool> NextState(const std::vector<bool>& input_values,
                              const std::vector<bool>& ff_state) const;

 private:
  Signal AddGate(GateKind kind, std::vector<Signal> inputs,
                 std::string name = {});
  std::vector<bool> EvaluateAll(const std::vector<bool>& input_values,
                                const std::vector<bool>& ff_state) const;

  std::vector<Gate> gates_;
  std::vector<Signal> inputs_;
  std::vector<std::pair<std::string, Signal>> outputs_;
  std::vector<FlipFlop> flip_flops_;
  Signal const0_ = -1;
};

// Convenience: an n-bit bus of inputs named "<name>[i]".
std::vector<Signal> InputBus(Netlist* netlist, const std::string& name,
                             unsigned width);
// An n-bit bus of flip-flops named "<name>[i]".
std::vector<Signal> FlipFlopBus(Netlist* netlist, const std::string& name,
                                unsigned width);

}  // namespace roload::hw

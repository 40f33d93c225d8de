#include "hw/netlist.h"

#include "support/strings.h"

namespace roload::hw {

Signal Netlist::AddGate(GateKind kind, std::vector<Signal> inputs,
                        std::string name) {
  for (Signal input : inputs) {
    ROLOAD_CHECK(input >= 0 &&
                 input < static_cast<Signal>(gates_.size()));
  }
  gates_.push_back(Gate{kind, std::move(inputs), std::move(name)});
  return static_cast<Signal>(gates_.size() - 1);
}

Signal Netlist::AddInput(const std::string& name) {
  const Signal signal = AddGate(GateKind::kInput, {}, name);
  inputs_.push_back(signal);
  return signal;
}

Signal Netlist::Const0() {
  if (const0_ < 0) const0_ = AddGate(GateKind::kConst0, {});
  return const0_;
}

Signal Netlist::Not(Signal a) { return AddGate(GateKind::kNot, {a}); }
Signal Netlist::And(Signal a, Signal b) {
  return AddGate(GateKind::kAnd, {a, b});
}
Signal Netlist::Or(Signal a, Signal b) {
  return AddGate(GateKind::kOr, {a, b});
}
Signal Netlist::Xor(Signal a, Signal b) {
  return AddGate(GateKind::kXor, {a, b});
}
Signal Netlist::Xnor(Signal a, Signal b) {
  return AddGate(GateKind::kXnor, {a, b});
}
Signal Netlist::Mux(Signal sel, Signal a, Signal b) {
  return AddGate(GateKind::kMux2, {sel, a, b});
}

Signal Netlist::AndReduce(const std::vector<Signal>& signals) {
  ROLOAD_CHECK(!signals.empty());
  std::vector<Signal> level = signals;
  while (level.size() > 1) {
    std::vector<Signal> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(And(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

Signal Netlist::OrReduce(const std::vector<Signal>& signals) {
  ROLOAD_CHECK(!signals.empty());
  std::vector<Signal> level = signals;
  while (level.size() > 1) {
    std::vector<Signal> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(Or(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

Signal Netlist::Equal(const std::vector<Signal>& a,
                      const std::vector<Signal>& b) {
  ROLOAD_CHECK(a.size() == b.size() && !a.empty());
  std::vector<Signal> bits;
  bits.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits.push_back(Xnor(a[i], b[i]));
  }
  return AndReduce(bits);
}

Signal Netlist::AddFlipFlop(const std::string& name) {
  const Signal q = AddGate(GateKind::kFlipFlopQ, {}, name);
  flip_flops_.push_back(FlipFlop{q, -1});
  return q;
}

void Netlist::BindFlipFlop(Signal q, Signal d) {
  for (FlipFlop& ff : flip_flops_) {
    if (ff.q == q) {
      ff.d = d;
      return;
    }
  }
  FatalError("BindFlipFlop: unknown flip-flop");
}

void Netlist::AddOutput(const std::string& name, Signal signal) {
  outputs_.emplace_back(name, signal);
}

std::vector<bool> Netlist::EvaluateAll(const std::vector<bool>& input_values,
                                       const std::vector<bool>& ff_state) const {
  ROLOAD_CHECK(input_values.size() == inputs_.size());
  ROLOAD_CHECK(ff_state.size() == flip_flops_.size() || ff_state.empty());
  std::vector<bool> value(gates_.size(), false);
  std::size_t input_index = 0;
  std::size_t ff_index = 0;
  // Gates are created in topological order (inputs precede uses), so one
  // forward sweep suffices.
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& gate = gates_[i];
    switch (gate.kind) {
      case GateKind::kInput:
        value[i] = input_values[input_index++];
        break;
      case GateKind::kConst0:
        value[i] = false;
        break;
      case GateKind::kConst1:
        value[i] = true;
        break;
      case GateKind::kBuf:
        value[i] = value[static_cast<std::size_t>(gate.inputs[0])];
        break;
      case GateKind::kNot:
        value[i] = !value[static_cast<std::size_t>(gate.inputs[0])];
        break;
      case GateKind::kAnd:
        value[i] = value[static_cast<std::size_t>(gate.inputs[0])] &&
                   value[static_cast<std::size_t>(gate.inputs[1])];
        break;
      case GateKind::kOr:
        value[i] = value[static_cast<std::size_t>(gate.inputs[0])] ||
                   value[static_cast<std::size_t>(gate.inputs[1])];
        break;
      case GateKind::kXor:
        value[i] = value[static_cast<std::size_t>(gate.inputs[0])] !=
                   value[static_cast<std::size_t>(gate.inputs[1])];
        break;
      case GateKind::kXnor:
        value[i] = value[static_cast<std::size_t>(gate.inputs[0])] ==
                   value[static_cast<std::size_t>(gate.inputs[1])];
        break;
      case GateKind::kMux2:
        value[i] = value[static_cast<std::size_t>(gate.inputs[0])]
                       ? value[static_cast<std::size_t>(gate.inputs[2])]
                       : value[static_cast<std::size_t>(gate.inputs[1])];
        break;
      case GateKind::kFlipFlopQ:
        value[i] = ff_index < ff_state.size() && ff_state[ff_index];
        ++ff_index;
        break;
    }
  }
  return value;
}

std::vector<bool> Netlist::Evaluate(const std::vector<bool>& input_values,
                                    const std::vector<bool>& ff_state) const {
  const std::vector<bool> value = EvaluateAll(input_values, ff_state);
  std::vector<bool> result;
  result.reserve(outputs_.size());
  for (const auto& [name, signal] : outputs_) {
    result.push_back(value[static_cast<std::size_t>(signal)]);
  }
  return result;
}

std::vector<bool> Netlist::NextState(const std::vector<bool>& input_values,
                                     const std::vector<bool>& ff_state) const {
  const std::vector<bool> value = EvaluateAll(input_values, ff_state);
  std::vector<bool> next;
  next.reserve(flip_flops_.size());
  for (const FlipFlop& ff : flip_flops_) {
    next.push_back(ff.d >= 0 ? value[static_cast<std::size_t>(ff.d)] : false);
  }
  return next;
}

std::vector<Signal> InputBus(Netlist* netlist, const std::string& name,
                             unsigned width) {
  std::vector<Signal> bus;
  bus.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    bus.push_back(netlist->AddInput(StrFormat("%s[%u]", name.c_str(), i)));
  }
  return bus;
}

std::vector<Signal> FlipFlopBus(Netlist* netlist, const std::string& name,
                                unsigned width) {
  std::vector<Signal> bus;
  bus.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    bus.push_back(
        netlist->AddFlipFlop(StrFormat("%s[%u]", name.c_str(), i)));
  }
  return bus;
}

}  // namespace roload::hw

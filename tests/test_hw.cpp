// Hardware-model tests: netlist evaluation semantics, functional
// equivalence between the gate-level ROLoad check and the simulator's
// boolean function (exhaustive for narrow keys, randomized for 10-bit),
// the decode-delta netlist against the real instruction encoder, mapper
// invariants, and the Table III reproduction claims.
#include <gtest/gtest.h>

#include "campaign/figures.h"
#include "hw/mapper.h"
#include "hw/netlist.h"
#include "hw/tlb_datapath.h"
#include "isa/encoding.h"
#include "support/rng.h"
#include "tlb/tlb.h"

namespace roload::hw {
namespace {

TEST(NetlistTest, GateTruthTables) {
  Netlist nl;
  const Signal a = nl.AddInput("a");
  const Signal b = nl.AddInput("b");
  nl.AddOutput("and", nl.And(a, b));
  nl.AddOutput("or", nl.Or(a, b));
  nl.AddOutput("xor", nl.Xor(a, b));
  nl.AddOutput("xnor", nl.Xnor(a, b));
  nl.AddOutput("nota", nl.Not(a));
  for (bool va : {false, true}) {
    for (bool vb : {false, true}) {
      const auto out = nl.Evaluate({va, vb});
      EXPECT_EQ(out[0], va && vb);
      EXPECT_EQ(out[1], va || vb);
      EXPECT_EQ(out[2], va != vb);
      EXPECT_EQ(out[3], va == vb);
      EXPECT_EQ(out[4], !va);
    }
  }
}

TEST(NetlistTest, MuxSemantics) {
  Netlist nl;
  const Signal sel = nl.AddInput("sel");
  const Signal a = nl.AddInput("a");
  const Signal b = nl.AddInput("b");
  nl.AddOutput("mux", nl.Mux(sel, a, b));
  EXPECT_FALSE(nl.Evaluate({false, false, true})[0]);  // sel=0 -> a
  EXPECT_TRUE(nl.Evaluate({true, false, true})[0]);    // sel=1 -> b
}

TEST(NetlistTest, ReductionsAndEquality) {
  Netlist nl;
  auto bus_a = InputBus(&nl, "a", 5);
  auto bus_b = InputBus(&nl, "b", 5);
  nl.AddOutput("and", nl.AndReduce(bus_a));
  nl.AddOutput("or", nl.OrReduce(bus_a));
  nl.AddOutput("eq", nl.Equal(bus_a, bus_b));
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> inputs(10);
    bool all = true, any = false, eq = true;
    for (int i = 0; i < 5; ++i) {
      inputs[i] = rng.NextPercent(50);
      inputs[5 + i] = rng.NextPercent(50);
      all = all && inputs[i];
      any = any || inputs[i];
      eq = eq && (inputs[i] == inputs[5 + i]);
    }
    const auto out = nl.Evaluate(inputs);
    EXPECT_EQ(out[0], all);
    EXPECT_EQ(out[1], any);
    EXPECT_EQ(out[2], eq);
  }
}

TEST(NetlistTest, FlipFlopStateAndNextState) {
  // A toggle flip-flop: d = !q.
  Netlist nl;
  const Signal q = nl.AddFlipFlop("q");
  nl.BindFlipFlop(q, nl.Not(q));
  nl.AddOutput("q", q);
  std::vector<bool> state = {false};
  EXPECT_FALSE(nl.Evaluate({}, state)[0]);
  state = nl.NextState({}, state);
  EXPECT_TRUE(state[0]);
  state = nl.NextState({}, state);
  EXPECT_FALSE(state[0]);
}

// ---------------------------------------------------------------------------
// Functional equivalence: gate-level ROLoad check vs the simulator.
TEST(EquivalenceTest, RoLoadCheckExhaustive4Bit) {
  const Netlist nl = BuildRoLoadCheckNetlist(4);
  for (unsigned flags = 0; flags < 8; ++flags) {
    for (unsigned page_key = 0; page_key < 16; ++page_key) {
      for (unsigned inst_key = 0; inst_key < 16; ++inst_key) {
        const bool readable = flags & 1;
        const bool writable = flags & 2;
        const bool user = flags & 4;
        std::vector<bool> inputs = {readable, writable, user};
        for (int b = 0; b < 4; ++b) inputs.push_back((page_key >> b) & 1);
        for (int b = 0; b < 4; ++b) inputs.push_back((inst_key >> b) & 1);
        const bool gate_allow = nl.Evaluate(inputs)[0];
        const bool model_allow =
            user && tlb::RoLoadCheck(readable, writable, page_key, inst_key);
        EXPECT_EQ(gate_allow, model_allow)
            << "r=" << readable << " w=" << writable << " u=" << user
            << " pk=" << page_key << " ik=" << inst_key;
      }
    }
  }
}

TEST(EquivalenceTest, RoLoadCheckRandom10Bit) {
  const Netlist nl = BuildRoLoadCheckNetlist(10);
  Rng rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    const bool readable = rng.NextPercent(50);
    const bool writable = rng.NextPercent(50);
    const bool user = rng.NextPercent(80);
    const auto page_key = static_cast<std::uint32_t>(rng.NextBelow(1024));
    const auto inst_key = rng.NextPercent(40)
                              ? page_key
                              : static_cast<std::uint32_t>(rng.NextBelow(1024));
    std::vector<bool> inputs = {readable, writable, user};
    for (int b = 0; b < 10; ++b) inputs.push_back((page_key >> b) & 1);
    for (int b = 0; b < 10; ++b) inputs.push_back((inst_key >> b) & 1);
    EXPECT_EQ(nl.Evaluate(inputs)[0],
              user && tlb::RoLoadCheck(readable, writable, page_key,
                                       inst_key));
  }
}

TEST(EquivalenceTest, DecodeDeltaRecognizesRealEncodings) {
  const Netlist nl = BuildRoLoadDecodeDelta();
  auto feed = [&nl](std::uint32_t word) -> bool {
    std::vector<bool> inputs;
    for (int b = 0; b < 32; ++b) inputs.push_back((word >> b) & 1);
    for (int b = 0; b < 10; ++b) inputs.push_back(false);  // pte_key bus
    // Explicit bool return: vector<bool>::operator[] on the temporary
    // yields a proxy that must not outlive the expression.
    return nl.Evaluate(inputs)[0];  // is_roload output
  };
  // Real ld.ro-family encodings must be recognized.
  for (isa::Opcode op : {isa::Opcode::kLbRo, isa::Opcode::kLhRo,
                         isa::Opcode::kLwRo, isa::Opcode::kLdRo}) {
    isa::Instruction inst;
    inst.op = op;
    inst.rd = 10;
    inst.rs1 = 11;
    inst.key = 513;
    EXPECT_TRUE(feed(isa::Encode(inst))) << isa::OpcodeName(op);
  }
  // c.ld.ro too.
  isa::Instruction compressed;
  compressed.op = isa::Opcode::kCLdRo;
  compressed.rd = 9;
  compressed.rs1 = 10;
  compressed.key = 21;
  compressed.length = 2;
  EXPECT_TRUE(feed(isa::Encode(compressed)));
  // Ordinary instructions must not trip the decoder.
  isa::Instruction add;
  add.op = isa::Opcode::kAdd;
  add.rd = 1;
  add.rs1 = 2;
  add.rs2 = 3;
  EXPECT_FALSE(feed(isa::Encode(add)));
  isa::Instruction ld;
  ld.op = isa::Opcode::kLd;
  ld.rd = 1;
  ld.rs1 = 2;
  ld.imm = 8;
  EXPECT_FALSE(feed(isa::Encode(ld)));
}

// ---------------------------------------------------------------------------
// Mapper invariants.
TEST(MapperTest, LutCountPositiveAndBounded) {
  TlbDatapathConfig config;
  const MapResult result = MapNetlist(BuildTlbDatapath(config));
  EXPECT_GT(result.luts, 100u);
  EXPECT_LT(result.luts, 20000u);
  EXPECT_GT(result.flip_flops, 1000u);  // 32 entries x (27+28+8+1) bits
}

TEST(MapperTest, RoLoadVariantCostsMoreOfEverything) {
  TlbDatapathConfig base;
  TlbDatapathConfig ro;
  ro.with_roload = true;
  const MapResult base_map = MapNetlist(BuildTlbDatapath(base));
  const MapResult ro_map = MapNetlist(BuildTlbDatapath(ro));
  EXPECT_GT(ro_map.luts, base_map.luts);
  // Key storage: exactly 32 x 10 extra flip-flops in the datapath.
  EXPECT_EQ(ro_map.flip_flops, base_map.flip_flops + 320);
}

TEST(MapperTest, KeyWidthScalesFfsLinearly) {
  TlbDatapathConfig narrow;
  narrow.with_roload = true;
  narrow.key_bits = 4;
  TlbDatapathConfig wide;
  wide.with_roload = true;
  wide.key_bits = 8;
  const MapResult narrow_map = MapNetlist(BuildTlbDatapath(narrow));
  const MapResult wide_map = MapNetlist(BuildTlbDatapath(wide));
  EXPECT_EQ(wide_map.flip_flops - narrow_map.flip_flops, 32u * 4u);
}

TEST(MapperTest, SerialCheckIsDeeperLocally) {
  MapperConfig local;
  local.core_floor_levels = 0;
  TlbDatapathConfig parallel;
  parallel.with_roload = true;
  TlbDatapathConfig serial = parallel;
  serial.serial_check = true;
  const MapResult p = MapNetlist(BuildTlbDatapath(parallel), local);
  const MapResult s = MapNetlist(BuildTlbDatapath(serial), local);
  EXPECT_GT(s.depth_levels, p.depth_levels);
  EXPECT_LT(s.fmax_mhz, p.fmax_mhz);
}

TEST(MapperTest, LutInputBoundRespected) {
  // A wide AND reduce must split into multiple LUTs for k=6.
  Netlist nl;
  auto bus = InputBus(&nl, "x", 36);
  nl.AddOutput("and", nl.AndReduce(bus));
  MapperConfig config;
  const MapResult result = MapNetlist(nl, config);
  EXPECT_GE(result.luts, 7u);  // 36 inputs / 6 per LUT
}

// ---------------------------------------------------------------------------
// Table III reproduction invariants.
TEST(TableIIITest, MatchesPaperShape) {
  const TableIII table = ComputeTableIII();
  // Calibrated baselines are the paper's exact numbers.
  EXPECT_EQ(table.without_ldro.core_luts, kPaperCoreLuts);
  EXPECT_EQ(table.without_ldro.core_ffs, kPaperCoreFfs);
  EXPECT_EQ(table.without_ldro.system_luts, kPaperSystemLuts);
  EXPECT_EQ(table.without_ldro.system_ffs, kPaperSystemFfs);
  // Every Table III shape claim of the paper (campaign/figures.h).
  const campaign::FigureValues values = campaign::TableIIIValues(table);
  for (const campaign::Claim* claim :
       campaign::FailedClaims(campaign::Figure::kTableIII, values)) {
    ADD_FAILURE() << campaign::DescribeClaim(*claim, values);
  }
}

}  // namespace
}  // namespace roload::hw

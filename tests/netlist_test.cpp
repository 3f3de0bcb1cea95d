#include <gtest/gtest.h>

#include <sstream>

#include "netlist/graph.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace caml {
namespace {

using testing::make_fig5_cell;
using testing::make_nand2;

TEST(Cell, AddNetRejectsDuplicates) {
  Cell cell("C");
  cell.add_net("A", NetKind::kInput);
  EXPECT_THROW(cell.add_net("A", NetKind::kInput), Error);
}

TEST(Cell, PinCaching) {
  const Cell cell = make_nand2();
  EXPECT_EQ(cell.num_inputs(), 2u);
  EXPECT_EQ(cell.net(cell.output()).name, "Z");
  EXPECT_EQ(cell.net(cell.vdd()).name, "VDD");
  EXPECT_EQ(cell.net(cell.vss()).name, "VSS");
}

TEST(Cell, SingleOutputEnforced) {
  Cell cell("C");
  cell.add_net("Z", NetKind::kOutput);
  EXPECT_THROW(cell.add_net("Y", NetKind::kOutput), Error);
}

TEST(Cell, ValidateCatchesMissingRails) {
  Cell cell("C");
  const NetId a = cell.add_net("A", NetKind::kInput);
  const NetId z = cell.add_net("Z", NetKind::kOutput);
  cell.add_net("VDD", NetKind::kPower);
  const NetId vss = cell.add_net("VSS", NetKind::kGround);
  cell.add_transistor({"M1", MosType::kNmos, z, a, vss, vss, 0.4, 0.03});
  EXPECT_NO_THROW(cell.validate());

  Cell no_rail("C2");
  const NetId a2 = no_rail.add_net("A", NetKind::kInput);
  const NetId z2 = no_rail.add_net("Z", NetKind::kOutput);
  const NetId g2 = no_rail.add_net("VSS", NetKind::kGround);
  no_rail.add_transistor({"M1", MosType::kNmos, z2, a2, g2, g2, 0.4, 0.03});
  EXPECT_THROW(no_rail.validate(), Error);
}

TEST(Cell, ValidateCatchesDuplicateDeviceNames) {
  Cell cell = make_nand2();
  Transistor dup = cell.transistors()[0];
  EXPECT_THROW(
      {
        cell.add_transistor(dup);
        cell.validate();
      },
      Error);
}

TEST(Cell, TransistorTerminalAccessors) {
  Transistor t;
  t.drain = 1;
  t.gate = 2;
  t.source = 3;
  t.bulk = 4;
  EXPECT_EQ(t.terminal(Terminal::kDrain), 1);
  EXPECT_EQ(t.terminal(Terminal::kGate), 2);
  EXPECT_EQ(t.terminal(Terminal::kSource), 3);
  EXPECT_EQ(t.terminal(Terminal::kBulk), 4);
  t.set_terminal(Terminal::kGate, 7);
  EXPECT_EQ(t.gate, 7);
}

TEST(SpiceWriter, EmitsSubcktWithPininfo) {
  const SpiceWriter writer;
  const std::string text = writer.to_string(make_nand2());
  EXPECT_NE(text.find(".SUBCKT NAND2_FIG4 A B Z VDD VSS"), std::string::npos);
  EXPECT_NE(text.find("*.PININFO A:I B:I Z:O VDD:P VSS:G"), std::string::npos);
  EXPECT_NE(text.find(".ENDS"), std::string::npos);
  // Non-M device names get the mandatory SPICE 'M' prefix.
  EXPECT_NE(text.find("MN10 "), std::string::npos);
  EXPECT_NE(text.find("MPx "), std::string::npos);
}

TEST(SpiceParser, RoundTripPreservesStructure) {
  const Cell original = make_nand2();
  const SpiceWriter writer;
  const SpiceParser parser;
  const std::vector<Cell> cells = parser.parse_string(writer.to_string(original));
  ASSERT_EQ(cells.size(), 1u);
  const Cell& parsed = cells[0];
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.num_inputs(), original.num_inputs());
  EXPECT_EQ(parsed.num_transistors(), original.num_transistors());
  for (std::size_t i = 0; i < parsed.num_transistors(); ++i) {
    const Transistor& a = parsed.transistors()[i];
    const Transistor& b = original.transistors()[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_NEAR(a.width_um, b.width_um, 1e-6);
    EXPECT_NEAR(a.length_um, b.length_um, 1e-6);
    EXPECT_EQ(parsed.net(a.gate).name, original.net(b.gate).name);
  }
}

TEST(SpiceParser, ContinuationLinesAndComments) {
  const std::string text = R"(
* a comment
.SUBCKT INV A Z VDD VSS
*.PININFO A:I Z:O VDD:P VSS:G
MN0 Z A VSS
+ VSS nch W=0.4U L=0.03U $ trailing comment
MP0 Z A VDD VDD pch W=0.8U L=0.03U
.ENDS
)";
  const std::vector<Cell> cells = SpiceParser().parse_string(text);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].num_transistors(), 2u);
  EXPECT_NEAR(cells[0].transistors()[0].width_um, 0.4, 1e-9);
}

TEST(SpiceParser, InfersPinDirectionsWithoutPininfo) {
  const std::string text = R"(
.SUBCKT INV IN OUT VDD GND
MN0 OUT IN GND GND nch W=0.4U L=0.03U
MP0 OUT IN VDD VDD pch W=0.8U L=0.03U
.ENDS
)";
  const std::vector<Cell> cells = SpiceParser().parse_string(text);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].num_inputs(), 1u);
  EXPECT_EQ(cells[0].net(cells[0].output()).name, "OUT");
  EXPECT_EQ(cells[0].net(cells[0].vss()).name, "GND");
}

TEST(SpiceParser, SizeUnits) {
  const std::string text = R"(
.SUBCKT INV A Z VDD VSS
MN0 Z A VSS VSS nch W=400N L=30N
MP0 Z A VDD VDD pch W=8E-7 L=0.03U
.ENDS
)";
  const std::vector<Cell> cells = SpiceParser().parse_string(text);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_NEAR(cells[0].transistors()[0].width_um, 0.4, 1e-9);
  EXPECT_NEAR(cells[0].transistors()[0].length_um, 0.03, 1e-9);
  EXPECT_NEAR(cells[0].transistors()[1].width_um, 0.8, 1e-9);
}

TEST(SpiceParser, MultipleSubckts) {
  const SpiceWriter writer;
  std::ostringstream os;
  writer.write_library(os, {make_nand2(), testing::make_nor2()});
  const std::vector<Cell> cells = SpiceParser().parse_string(os.str());
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].name(), "NAND2_FIG4");
  EXPECT_EQ(cells[1].name(), "NOR2_T");
}

TEST(SpiceParser, RejectsMalformedInput) {
  EXPECT_THROW(SpiceParser().parse_string("MN0 a b c d nch\n"), ParseError);
  EXPECT_THROW(SpiceParser().parse_string(".SUBCKT X A\nMN0 A A A A nch\n"), ParseError);
  EXPECT_THROW(SpiceParser().parse_string(".SUBCKT X A B VDD VSS\nMN0 B A VSS VSS what\n.ENDS\n"),
               ParseError);
  // Missing .ENDS.
  EXPECT_THROW(SpiceParser().parse_string(".SUBCKT X A B VDD VSS\n"), ParseError);
}

TEST(SpiceParser, RejectsUnsupportedDevices) {
  const std::string text = R"(
.SUBCKT BAD A Z VDD VSS
R1 A Z 100
.ENDS
)";
  EXPECT_THROW(SpiceParser().parse_string(text), ParseError);
}

TEST(CellGraph, IncidenceAndChannel) {
  const Cell cell = make_nand2();
  const CellGraph graph(cell);
  const NetId z = cell.output();
  // Z touches N10 drain, Px drain, Py drain.
  EXPECT_EQ(graph.channel_transistors(z).size(), 3u);
  const NetId a = cell.inputs()[0];
  EXPECT_EQ(graph.gate_loads(a).size(), 2u);  // N10 and Px
  EXPECT_EQ(graph.incidence(a).size(), 2u);
}

TEST(CellGraph, Nand2IsOneChannelConnectedComponent) {
  const Cell cell = make_nand2();
  const CellGraph graph(cell);
  const auto components = graph.channel_connected_components();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 4u);
}

TEST(CellGraph, Fig5HasTwoComponents) {
  const Cell cell = make_fig5_cell();
  const CellGraph graph(cell);
  const auto components = graph.channel_connected_components();
  ASSERT_EQ(components.size(), 2u);
  // One component is the 2-transistor inverter, the other the 8-device
  // complex stage.
  const std::size_t small = std::min(components[0].size(), components[1].size());
  const std::size_t large = std::max(components[0].size(), components[1].size());
  EXPECT_EQ(small, 2u);
  EXPECT_EQ(large, 8u);
}

TEST(CellGraph, ComponentChannelNetsExcludeRails) {
  const Cell cell = make_nand2();
  const CellGraph graph(cell);
  const auto components = graph.channel_connected_components();
  const auto nets = graph.component_channel_nets(components[0]);
  for (NetId n : nets) {
    EXPECT_NE(n, cell.vdd());
    EXPECT_NE(n, cell.vss());
  }
  // Z and net0.
  EXPECT_EQ(nets.size(), 2u);
}

}  // namespace
}  // namespace caml

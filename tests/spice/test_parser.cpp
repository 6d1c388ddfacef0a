#include "spice/parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "deck/deck_problem.hpp"
#include "deck/elaborator.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"

namespace maopt::spice {
namespace {

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("+2"), 2.0);
  EXPECT_DOUBLE_EQ(parse_spice_value(".5u"), 0.5e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("5."), 5.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e308"), 1e308);
}

TEST(SpiceValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_value("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("100f"), 100e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_value("4t"), 4e12);
}

TEST(SpiceValue, UnitLettersAfterSuffixIgnored) {
  EXPECT_DOUBLE_EQ(parse_spice_value("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("1kOhm"), 1e3);
}

TEST(SpiceValue, MalformedThrows) {
  // std::stod alone accepts the non-finite, hex and overflowing tokens; an
  // 'e' without exponent digits is a (bad) suffix.
  for (const char* token : {"", "abc", "1.5x", "nan", "NaN", "inf", "-inf", "infinity", "+Inf",
                            "0x10", "0x1p3", "-", ".", "e5", ".e1", " 1", "1e", "1e+", "1e308k",
                            "-1e308meg", "1e400"})
    EXPECT_THROW(parse_spice_value(token), std::invalid_argument) << token;
}

TEST(SpiceValue, MegVersusMilli) {
  // The classic SPICE trap: M is milli, MEG is mega — in any case mix.
  EXPECT_DOUBLE_EQ(parse_spice_value("3M"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("3MEG"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("3Meg"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2MEGHz"), 2e6);  // unit letters after MEG
  EXPECT_DOUBLE_EQ(parse_spice_value("50mV"), 50e-3);  // V is a unit, not a suffix
}

TEST(SpiceValue, MilSuffix) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1mil"), 25.4e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("5MIL"), 5 * 25.4e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2milInch"), 2 * 25.4e-6);
}

TEST(SpiceValue, ExponentThenSuffix) {
  // The decimal prefix includes the exponent; the suffix still multiplies.
  EXPECT_DOUBLE_EQ(parse_spice_value("1.5e2u"), 1.5e2 * 1e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e3k"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2E-1m"), 2e-4);
}

TEST(SpiceValue, NegativeValuesKeepSuffix) {
  EXPECT_DOUBLE_EQ(parse_spice_value("-2.2u"), -2.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("-1meg"), -1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("-100f"), -100e-15);
}

/// A deck text elaborated and built at its nominal parameters: the path every
/// deck takes into the simulator (deck::build_nominal_netlist).
struct BuiltDeck {
  explicit BuiltDeck(const std::string& text) : deck(deck::elaborate_deck_text(text)) {
    deck::build_nominal_netlist(deck, netlist);
  }

  /// The device whose element card is `name` (upper-cased), or null.
  template <typename T>
  T* device(const std::string& name) const {
    for (const auto& d : netlist.devices())
      if (netlist.label(d.get()) == name) return dynamic_cast<T*>(d.get());
    return nullptr;
  }

  deck::ElaboratedDeck deck;
  Netlist netlist;
};

TEST(Parser, ResistorDividerDeck) {
  BuiltDeck built(R"(
* simple divider
V1 vin 0 DC 10
R1 vin mid 1k
R2 mid 0 3k
)");
  EXPECT_EQ(built.netlist.devices().size(), 3u);
  DcAnalysis dc;
  const auto r = dc.solve(built.netlist);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(Netlist::voltage(r.x, built.netlist.find_node("mid")), 7.5, 1e-6);
}

TEST(Parser, BareValueSourceShorthand) {
  BuiltDeck built("V1 a 0 1.8\nR1 a 0 1k\n");
  DcAnalysis dc;
  const auto r = dc.solve(built.netlist);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(Netlist::voltage(r.x, built.netlist.find_node("a")), 1.8, 1e-9);
}

TEST(Parser, AcMagnitudeAndRcResponse) {
  BuiltDeck built(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1u
)");
  Vec op(built.netlist.system_size(), 0.0);
  AcAnalysis ac;
  const double fc = 1.0 / (2.0 * 3.14159265358979 * 1e-3);
  const auto sweep = ac.run(built.netlist, op, {fc});
  EXPECT_NEAR(std::abs(sweep.voltage(0, built.netlist.find_node("out"))), 1.0 / std::sqrt(2.0),
              1e-4);
}

TEST(Parser, MosfetWithModelCard) {
  BuiltDeck built(R"(
.model mynmos NMOS VTO=0.5 KP=200u
Vd d 0 1.8
Vg g 0 1.0
M1 d g 0 0 mynmos W=10u L=1u
)");
  DcAnalysis dc;
  const auto r = dc.solve(built.netlist);
  ASSERT_TRUE(r.converged);
  const auto* m1 = built.device<Mosfet>("M1");
  ASSERT_NE(m1, nullptr);
  // vov = 0.5, k = 200u*10 = 2m, lambda = 0.08 (default nmos_180 lambda_l/L)
  const double expect = 0.5 * 2e-3 * 0.25 * (1 + 0.08 * 1.8);
  EXPECT_NEAR(m1->drain_current(r.x), expect, 1e-8);
}

TEST(Parser, PulseAndPwlSources) {
  BuiltDeck built(R"(
V1 a 0 PULSE(0 1 1u 10n 10n 2u 10u)
V2 b 0 PWL(0 0 1u 0 2u 5)
R1 a 0 1k
R2 b 0 1k
)");
  const auto* v1 = built.device<VSource>("V1");
  ASSERT_NE(v1, nullptr);
  EXPECT_DOUBLE_EQ(v1->waveform().value(0.5e-6), 0.0);
  EXPECT_DOUBLE_EQ(v1->waveform().value(2e-6), 1.0);
  const auto* v2 = built.device<VSource>("V2");
  ASSERT_NE(v2, nullptr);
  EXPECT_DOUBLE_EQ(v2->waveform().value(1.5e-6), 2.5);
}

TEST(Parser, VcvsAndInductor) {
  BuiltDeck built(R"(
V1 in 0 2
E1 out 0 in 0 5
L1 out lx 1m
R1 lx 0 1k
)");
  DcAnalysis dc;
  const auto r = dc.solve(built.netlist);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(Netlist::voltage(r.x, built.netlist.find_node("out")), 10.0, 1e-6);
  EXPECT_NEAR(Netlist::voltage(r.x, built.netlist.find_node("lx")), 10.0, 1e-6);
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  const BuiltDeck built(R"(
* header comment

R1 a 0 1k ; trailing comment
* another
)");
  EXPECT_EQ(built.netlist.devices().size(), 1u);
}

TEST(Parser, CaseInsensitiveElementNames) {
  const BuiltDeck built("r1 a 0 1k\nc1 a 0 1p\n");
  EXPECT_NE(built.device<Resistor>("R1"), nullptr);
  EXPECT_NE(built.device<Capacitor>("C1"), nullptr);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    deck::elaborate_deck_text("R1 a 0 1k\nQ1 a b c\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, UnknownModelIsError) {
  EXPECT_THROW(BuiltDeck("M1 d g 0 0 nosuch W=1u L=1u\n"), std::invalid_argument);
}

TEST(Parser, MissingModelCardFieldsError) {
  // Model parameters are bound when the netlist is built; the type at once.
  EXPECT_THROW(BuiltDeck(".model m NMOS FOO=1\n"), std::invalid_argument);
  EXPECT_THROW(BuiltDeck(".model m BJT\n"), ParseError);
}

TEST(Parser, MalformedElementArityError) {
  EXPECT_THROW(deck::elaborate_deck_text("R1 a 0\n"), ParseError);
  EXPECT_THROW(deck::elaborate_deck_text("E1 a 0 b\n"), ParseError);
}

TEST(Parser, DeviceLookupTypeMismatch) {
  const BuiltDeck built("R1 a 0 1k\n");
  EXPECT_NE(built.device<Resistor>("R1"), nullptr);
  EXPECT_EQ(built.device<Capacitor>("R1"), nullptr);  // the card named R1 is a resistor
  EXPECT_EQ(built.device<Resistor>("R9"), nullptr);   // no such card
}

TEST(Parser, UnknownDotCardsBecomeWarnings) {
  const BuiltDeck built(R"(
R1 a 0 1k
.options reltol=1e-4
.temp 27
)");
  EXPECT_EQ(built.netlist.devices().size(), 1u);  // parsing continued past the cards
  ASSERT_EQ(built.deck.warnings.size(), 2u);
  EXPECT_NE(built.deck.warnings[0].find(":3"), std::string::npos);
  EXPECT_NE(built.deck.warnings[0].find(".options"), std::string::npos);
  EXPECT_NE(built.deck.warnings[1].find(".temp"), std::string::npos);
}

TEST(Parser, EndCardTerminatesDeck) {
  const BuiltDeck built(R"(
R1 a 0 1k
.end
R2 a 0 2k
this line would be a parse error if it were reached
)");
  EXPECT_EQ(built.netlist.devices().size(), 1u);
  EXPECT_EQ(built.device<Resistor>("R2"), nullptr);
  EXPECT_TRUE(built.deck.warnings.empty());
}

TEST(ParseErrorContext, PlainLineOnlyForm) {
  const ParseError e("", 7, "bad card");
  EXPECT_EQ(e.line(), 7);
  EXPECT_TRUE(e.file().empty());
  EXPECT_TRUE(e.include_chain().empty());
  EXPECT_STREQ(e.what(), "line 7: bad card");
}

TEST(ParseErrorContext, FileAndIncludeChainForm) {
  const ParseError e("lib/mos.lib", 12, "unknown model",
                     {"top.cir:3", "amp.inc:9"});
  EXPECT_EQ(e.file(), "lib/mos.lib");
  EXPECT_EQ(e.line(), 12);
  ASSERT_EQ(e.include_chain().size(), 2u);
  EXPECT_STREQ(e.what(),
               "lib/mos.lib:12 (included from top.cir:3, amp.inc:9): unknown model");
}

TEST(Parser, FullAmplifierDeckEndToEnd) {
  BuiltDeck built(R"(
* NMOS common-source amplifier
.model n180 NMOS
VDD vdd 0 1.8
VIN in 0 DC 0.7 AC 1
RL vdd out 5k
M1 out in 0 0 n180 W=20u L=1u
CL out 0 200f
)");
  DcAnalysis dc;
  const auto op = dc.solve(built.netlist);
  ASSERT_TRUE(op.converged);
  AcAnalysis ac;
  const auto sweep = ac.run(built.netlist, op.x, {1e3});
  // Inverting gain > 1 at low frequency.
  EXPECT_GT(std::abs(sweep.voltage(0, built.netlist.find_node("out"))), 2.0);
}

}  // namespace
}  // namespace maopt::spice

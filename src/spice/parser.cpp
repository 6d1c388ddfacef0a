#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <regex>

namespace maopt::spice {

namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

/// Multiplier for the engineering suffix (upper-cased, unit letters allowed).
double suffix_scale(const std::string& suffix, const std::string& token) {
  if (suffix.empty()) return 1.0;
  // Multi-letter suffixes first — "MEG"/"MIL" must win over milli even with
  // trailing unit letters ("2MEGHz", "5milInch").
  if (suffix.compare(0, 3, "MEG") == 0) return 1e6;
  if (suffix.compare(0, 3, "MIL") == 0) return 25.4e-6;
  // Single-letter engineering suffixes; trailing unit letters are ignored
  // SPICE-style ("10pF" == "10p").
  switch (suffix[0]) {
    case 'T': return 1e12;
    case 'G': return 1e9;
    case 'K': return 1e3;
    case 'M': return 1e-3;
    case 'U': return 1e-6;
    case 'N': return 1e-9;
    case 'P': return 1e-12;
    case 'F': return 1e-15;
    default:
      throw std::invalid_argument("unknown suffix '" + suffix + "' in '" + token + "'");
  }
}

}  // namespace

double parse_spice_value(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("empty value");
  // The decimal prefix; an 'e' without exponent digits is left to the suffix.
  static const std::regex kDecimal(R"([+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)");
  std::smatch prefix;
  if (!std::regex_search(token, prefix, kDecimal, std::regex_constants::match_continuous))
    throw std::invalid_argument("malformed value '" + token + "'");
  const auto len = static_cast<std::size_t>(prefix.length(0));
  double v = 0.0;
  try {
    v = std::stod(token.substr(0, len));
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed value '" + token + "'");
  }
  v *= suffix_scale(upper(token.substr(len)), token);
  if (!std::isfinite(v)) throw std::invalid_argument("value out of range '" + token + "'");
  return v;
}

}  // namespace maopt::spice

// SPICE number syntax and the attributed parse error shared by every text
// frontend (the deck elaborator, spec files, the shell and the CLI tools).
//
// Engineering suffixes are honored (f p n u m k meg mil g t); trailing unit
// letters are ignored SPICE-style ("10pF" == "10p").
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace maopt::spice {

class ParseError : public std::runtime_error {
 public:
  /// `file` is the deck the offending line lives in ("" prints as "line N")
  /// and `include_chain` the stack of "path:line" frames that .include'd it
  /// (outermost first), so errors deep inside included libraries point at
  /// both the bad line and how the parser got there.
  ParseError(std::string file, int line, const std::string& message,
             std::vector<std::string> include_chain = {})
      : std::runtime_error(format(file, line, message, include_chain)),
        file_(std::move(file)),
        line_(line),
        include_chain_(std::move(include_chain)) {}

  int line() const { return line_; }
  const std::string& file() const { return file_; }
  const std::vector<std::string>& include_chain() const { return include_chain_; }

 private:
  static std::string format(const std::string& file, int line, const std::string& message,
                            const std::vector<std::string>& chain) {
    std::string out = file.empty() ? "line " + std::to_string(line)
                                   : file + ":" + std::to_string(line);
    if (!chain.empty()) {
      out += " (included from ";
      for (std::size_t i = 0; i < chain.size(); ++i) out += (i ? ", " : "") + chain[i];
      out += ")";
    }
    return out + ": " + message;
  }

  std::string file_;
  int line_;
  std::vector<std::string> include_chain_;
};

/// Parses "1.5k", "100f", "2meg", "1e-9" ... into a double. Multi-letter
/// suffixes MEG (1e6) and MIL (25.4e-6) are matched before the single-letter
/// engineering set, so "2MEGHz" and "5mil" do the right thing. The token
/// must start with a decimal number ([+-] digits [. digits] [e[+-]digits])
/// and the scaled value must be finite: "nan", "inf", hex floats and
/// overflow such as "1e308k" are rejected.
/// Throws std::invalid_argument on malformed input.
double parse_spice_value(const std::string& token);

}  // namespace maopt::spice

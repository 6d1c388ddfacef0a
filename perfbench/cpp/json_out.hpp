// Minimal JSON emitter for the benchmark's raw-measurement file. Doubles are
// written with 17 significant digits so they read back bit-exact (the
// trajectory digests depend on that); non-finite values become null.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/jsonl_writer.hpp"

namespace perfbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const std::string& name) {
    comma();
    out_ += '"' + maopt::obs::json_escape(name) + "\":";
    after_key_ = true;
    return *this;
  }

  Json& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(static_cast<long>(v)); }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(const std::string& v) {
    comma();
    out_ += '"' + maopt::obs::json_escape(v) + '"';
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }
  Json& value(const std::vector<double>& values) {
    begin_array();
    for (const double v : values) value(v);
    return end_array();
  }

  template <typename T>
  Json& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench

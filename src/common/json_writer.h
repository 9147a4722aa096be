// The one JSON encoder for every document the project writes: metrics dumps, Chrome traces,
// entry-consistency reports, midway-lint reports and the bench BENCH_*.json files.
//
// One fixed output format: no space after ':' or ',', a newline before each array element
// (one trace event, finding or table row per line) and a final newline once the outermost
// value closes. Separators come from a nesting stack, so callers never place commas.
//
// Header-only and std::-only: midway-lint's standalone build includes it without linking
// anything from src/.
#ifndef MIDWAY_SRC_COMMON_JSON_WRITER_H_
#define MIDWAY_SRC_COMMON_JSON_WRITER_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace midway {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{', /*array=*/false); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('[', /*array=*/true); }
  JsonWriter& EndArray() { return Close(']'); }

  // An object member's name; the next call writes its value.
  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view s) {
    Separate();
    AppendString(s);
    return *this;
  }
  JsonWriter& Int(int64_t v) { return Number(v); }
  JsonWriter& Uint(uint64_t v) { return Number(v); }
  // Shortest text that reads back as the same double; NaN and infinities, which JSON cannot
  // express, become null.
  JsonWriter& Double(double v) {
    if (!std::isfinite(v)) return Raw("null");
    return Number(v);
  }
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  // A number token the caller has formatted itself (e.g. fixed-point microseconds).
  JsonWriter& RawNumber(std::string_view token) { return Raw(token); }

  // Key(key) followed by the value call that matches T.
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    Key(key);
    if constexpr (std::is_same_v<T, bool>) {
      return Bool(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      return Double(value);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      return Int(value);
    } else if constexpr (std::is_integral_v<T>) {
      return Uint(value);
    } else {
      return String(value);
    }
  }

  // The document so far; complete (with its final newline) once the outermost value closed.
  const std::string& str() const { return out_; }

 private:
  struct Frame {
    bool array;
    bool empty;
  };

  JsonWriter& Open(char bracket, bool array) {
    Separate();
    out_ += bracket;
    stack_.push_back({array, /*empty=*/true});
    return *this;
  }

  JsonWriter& Close(char bracket) {
    stack_.pop_back();
    out_ += bracket;
    if (stack_.empty()) out_ += '\n';
    return *this;
  }

  // Writes what must precede a new value or key at the current nesting level.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (stack_.empty()) return;
    Frame& top = stack_.back();
    if (!top.empty) out_ += ',';
    top.empty = false;
    if (top.array) out_ += '\n';
  }

  JsonWriter& Raw(std::string_view token) {
    Separate();
    out_ += token;
    return *this;
  }

  template <typename T>
  JsonWriter& Number(T v) {
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    return Raw(std::string_view(buf, static_cast<size_t>(r.ptr - buf)));
  }

  void AppendString(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out_ += "\\u00";
            out_ += kHex[(c >> 4) & 0xf];
            out_ += kHex[c & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

}  // namespace midway

#endif  // MIDWAY_SRC_COMMON_JSON_WRITER_H_

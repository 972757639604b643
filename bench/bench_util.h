// Shared reporting helpers for the experiment benches. Every bench prints:
//   - the experiment id and the paper claim it reproduces,
//   - the cost model in force (so numbers are auditable),
//   - a fixed-width table of results,
//   - a PASS/FAIL verdict on the claim's *shape* (who wins, by roughly how much).
// The benches that bench/run_benches.sh runs also keep what they print in one
// record (see Record below) and write it on exit.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cmath>
#include <concepts>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/sim/cost_model.h"

namespace demi::bench {

class Json;

// One encoded JSON value. Integers, bools and strings convert implicitly. A double
// has no implicit form: it goes through Fixed() at the precision the bench prints
// it with, so the record holds the number the table shows.
class Value {
 public:
  template <std::integral T>
  Value(T v) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_same_v<T, bool>) {
      text_ = v ? "true" : "false";
    } else {
      text_ = std::to_string(v);
    }
  }
  Value(double) = delete;
  Value(std::nullptr_t) : text_("null") {}  // NOLINT(google-explicit-constructor)
  Value(const char* s) : Value(std::string_view(s)) {}  // NOLINT(google-explicit-constructor)
  Value(const std::string& s)  // NOLINT(google-explicit-constructor)
      : Value(std::string_view(s)) {}
  Value(std::string_view s) : text_("\"") {  // NOLINT(google-explicit-constructor)
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        text_ += esc;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }
  Value(const Json& j);  // NOLINT(google-explicit-constructor)

  // `v` with `decimals` digits after the point, as printf's %.*f; null when not finite.
  friend Value Fixed(double v, int decimals);
  // Already-encoded JSON, e.g. MetricsSnapshot::ToJson().
  friend Value Raw(std::string json);

  const std::string& text() const { return text_; }

 private:
  struct Encoded {};
  Value(Encoded, std::string text) : text_(std::move(text)) {}

  std::string text_;
};

inline Value Fixed(double v, int decimals) {
  if (!std::isfinite(v)) {
    return nullptr;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return Value(Value::Encoded{}, buf);
}

inline Value Raw(std::string json) { return Value(Value::Encoded{}, std::move(json)); }

// A JSON object or array, built in insertion order: Add() for object members,
// Push() for array elements.
class Json {
 public:
  static Json Object() { return Json('{', '}'); }
  static Json Array() { return Json('[', ']'); }

  Json& Add(std::string_view key, const Value& v) {
    Separate();
    body_ += Value(key).text();
    body_ += ':';
    body_ += v.text();
    return *this;
  }
  Json& Push(const Value& v) {
    Separate();
    body_ += v.text();
    return *this;
  }

  std::string str() const { return open_ + body_ + close_; }

 private:
  Json(char open, char close) : open_(open), close_(close) {}
  void Separate() {
    if (!body_.empty()) {
      body_ += ',';
    }
  }

  char open_;
  char close_;
  std::string body_;
};

inline Value::Value(const Json& j) : text_(j.str()) {}

// A bench's result record:
//   {"bench", "seed", "config": {...}, "sim": {...}, "verdicts": [{"claim", "ok"}]}
// `config` holds the knobs of the run, `sim` every simulated value the bench
// prints. Verdict() appends to `verdicts`, so the record's verdict is by
// construction the printed one.
struct Record {
  std::string bench;
  Value seed = nullptr;
  Json config = Json::Object();
  Json sim = Json::Object();
  Json verdicts = Json::Array();
  bool all_ok = true;
};

inline Record& CurrentRecord() {
  static Record record;
  return record;
}

// Starts this process's record. `seed` is the run's seed (nullptr when it draws
// nothing at random).
inline Record& Begin(std::string bench, Value seed) {
  Record& r = CurrentRecord();
  r.bench = std::move(bench);
  r.seed = std::move(seed);
  return r;
}

// Writes the record to $BENCH_RECORD (nothing when unset, so a standalone run has
// no side effects). Returns the exit code: 1 when a verdict failed or the record
// could not be written in full, else 0.
inline int Finish() {
  const Record& r = CurrentRecord();
  const char* path = std::getenv("BENCH_RECORD");
  if (path != nullptr && path[0] != '\0') {
    const std::string text = Json::Object()
                                 .Add("bench", r.bench)
                                 .Add("seed", r.seed)
                                 .Add("config", r.config)
                                 .Add("sim", r.sim)
                                 .Add("verdicts", r.verdicts)
                                 .str() +
                             "\n";
    std::FILE* f = std::fopen(path, "w");
    bool written = f != nullptr && std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f != nullptr && std::fclose(f) != 0) {
      written = false;
    }
    if (!written) {
      std::fprintf(stderr, "bench: cannot write record %s\n", path);
      return 1;
    }
  }
  return r.all_ok ? 0 : 1;
}

inline void Header(const char* id, const char* title, const char* claim) {
  std::printf("================================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================================\n");
}

inline void PrintCostModel(const CostModel& cost) {
  std::printf("%s", cost.Describe().c_str());
  std::printf("--------------------------------------------------------------------------------\n");
}

// printf-style row helper so tables line up without iostream ceremony.
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
}

inline void Verdict(bool ok, const std::string& what) {
  std::printf("[%s] %s\n\n", ok ? "SHAPE-OK" : "SHAPE-FAIL", what.c_str());
  Record& r = CurrentRecord();
  r.verdicts.Push(Json::Object().Add("claim", what).Add("ok", ok));
  r.all_ok = r.all_ok && ok;
}

}  // namespace demi::bench

#endif  // BENCH_BENCH_UTIL_H_

// JSON emitter for the scenario benches (bench_recovery, bench_transport,
// bench_dist): one document in google-benchmark's layout, so
// tools/check_bench.py indexes the rows by name. The context starts with
// HostContext() (bench_main.h) and the bench's name; each row holds `name`,
// `run_type` and then its counters in the order they were added. Keys and
// string values are program constants and are not escaped.

#ifndef PSI_BENCH_BENCH_JSON_H_
#define PSI_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"

namespace psi {
namespace bench {

/// \brief Ordered JSON object members; each value is already JSON text.
using JsonMembers = std::vector<std::pair<std::string, std::string>>;

inline std::string JsonString(const std::string& s) { return "\"" + s + "\""; }

/// \brief One scenario's row of integer and real counters.
class ScenarioRow {
 public:
  explicit ScenarioRow(const std::string& name)
      : members_{{"name", JsonString(name)}, {"run_type", JsonString("counters")}} {}

  /// \brief An integer counter; a bool flag prints as 1 or 0.
  ScenarioRow& Int(const char* key, uint64_t value) {
    members_.emplace_back(key, std::to_string(value));
    return *this;
  }
  /// \brief Printed rounded to a whole number: every real counter is a
  /// nanosecond timing.
  ScenarioRow& Real(const char* key, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.0f", value);
    members_.emplace_back(key, text);
    return *this;
  }

  const JsonMembers& members() const { return members_; }

 private:
  JsonMembers members_;
};

/// \brief A context plus ordered rows, printed to stdout by Print().
class ScenarioJson {
 public:
  explicit ScenarioJson(const char* bench) {
    for (const auto& [key, value] : HostContext()) {
      context_.emplace_back(key, JsonString(value));
    }
    Context("bench", bench);
  }

  ScenarioJson& Context(const char* key, const char* value) {
    context_.emplace_back(key, JsonString(value));
    return *this;
  }
  ScenarioJson& Context(const char* key, uint64_t value) {
    context_.emplace_back(key, std::to_string(value));
    return *this;
  }
  void Add(const ScenarioRow& row) { rows_.push_back(row); }

  void Print() const {
    std::printf("{\n  \"context\": {\n");
    PrintMembers(context_, 4);
    std::printf("  },\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::printf("    {\n");
      PrintMembers(rows_[i].members(), 6);
      std::printf("    }%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  }

 private:
  static void PrintMembers(const JsonMembers& members, int indent) {
    for (size_t i = 0; i < members.size(); ++i) {
      std::printf("%*s\"%s\": %s%s\n", indent, "", members[i].first.c_str(),
                  members[i].second.c_str(), i + 1 < members.size() ? "," : "");
    }
  }

  JsonMembers context_;
  std::vector<ScenarioRow> rows_;
};

}  // namespace bench
}  // namespace psi

#endif  // PSI_BENCH_BENCH_JSON_H_

// Shared helpers for the experiment harness binaries: fixed-width table rendering,
// paper-vs-measured comparison rows, and machine-readable JSON output.
//
// Every harness main accepts `--json <path>`: tables still print to stdout, and the same
// cells are additionally written to <path> as one JSON document, so cross-PR tooling can
// diff experiment outputs without scraping the fixed-width rendering.

#ifndef PROBCON_BENCH_BENCH_UTIL_H_
#define PROBCON_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_git_sha.h"  // Generated per build: PROBCON_BENCH_GIT_SHA.

namespace probcon::bench {

// Prints a header box for an experiment.
inline void PrintBanner(const std::string& experiment_id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", experiment_id.c_str(), title.c_str());
}

// Fixed-width row rendering: every cell padded to the widest cell in its column.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) {
      widen(row);
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf("| %-*s ", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("|\n");
    };
    print_row(header_);
    for (size_t i = 0; i < widths.size(); ++i) {
      std::printf("|%s", std::string(widths[i] + 2, '-').c_str());
    }
    std::printf("|\n");
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Escapes backslash, double quote, and control characters for a JSON string literal.
inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Where a measurement was taken, as a JSON object: processor count, compiler, build type
// and the source commit the binary was built from. Every committed BENCH file starts with
// it, so a before/after pair can be checked for coming from one host and build.
inline std::string EnvJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": \"" + JsonEscape(compiler) + "\", \"build_type\": \"" +
         JsonEscape(PROBCON_BENCH_BUILD_TYPE) + "\", \"git_sha\": \"" +
         JsonEscape(PROBCON_BENCH_GIT_SHA) + "\"}";
}

// Collects named tables and scalars from one harness run and renders them as a single
// JSON document: {"env": {...}, "tables": {name: {"header": [...], "rows": [[...]]}},
// "values": {...}}. Insertion order is preserved, so identical runs on one build produce
// byte-identical files.
class JsonReport {
 public:
  void AddTable(const std::string& name, const Table& table) {
    std::string json = "{\"header\": [";
    for (size_t i = 0; i < table.header().size(); ++i) {
      json += (i > 0 ? ", " : "") + Quote(table.header()[i]);
    }
    json += "], \"rows\": [";
    for (size_t r = 0; r < table.rows().size(); ++r) {
      json += r > 0 ? ", [" : "[";
      const auto& row = table.rows()[r];
      for (size_t i = 0; i < row.size(); ++i) {
        json += (i > 0 ? ", " : "") + Quote(row[i]);
      }
      json += "]";
    }
    json += "]}";
    tables_.emplace_back(name, std::move(json));
  }

  void AddValue(const std::string& name, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    values_.emplace_back(name, std::string(buffer));
  }

  std::string ToJson() const {
    std::string json = "{\n  \"env\": " + EnvJson() + ",\n  \"tables\": {";
    for (size_t i = 0; i < tables_.size(); ++i) {
      json += (i > 0 ? ",\n    " : "\n    ") + Quote(tables_[i].first) + ": " +
              tables_[i].second;
    }
    json += tables_.empty() ? "}" : "\n  }";
    json += ",\n  \"values\": {";
    for (size_t i = 0; i < values_.size(); ++i) {
      json += (i > 0 ? ",\n    " : "\n    ") + Quote(values_[i].first) + ": " +
              values_[i].second;
    }
    json += values_.empty() ? "}" : "\n  }";
    json += "\n}\n";
    return json;
  }

  // Writes the document; prints a diagnostic and returns false when the path is not
  // writable.
  bool WriteTo(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("JSON report written to %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Quote(const std::string& text) { return "\"" + JsonEscape(text) + "\""; }

  std::vector<std::pair<std::string, std::string>> tables_;
  std::vector<std::pair<std::string, std::string>> values_;
};

// Extracts the value of a "--json <path>" argument pair; empty string when absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return std::string();
}

}  // namespace probcon::bench

#endif  // PROBCON_BENCH_BENCH_UTIL_H_

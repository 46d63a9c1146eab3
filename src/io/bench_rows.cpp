#include "io/bench_rows.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "io/flat_json.hpp"
#include "util/str.hpp"

namespace ocr::io {
namespace {

using internal::Scalar;

util::Status bench_error(const std::string& path, const std::string& why) {
  return util::Status::parse_error(path + ": " + why).with_stage("bench-io");
}

/// The merge key of one row object: its key fields' values, typed.
util::StatusOr<std::string> row_key(const std::string& object) {
  std::map<std::string, Scalar> fields;
  util::Status s = internal::FlatObjectParser(object).parse(fields);
  if (!s.ok()) return s;
  std::string key;
  for (const char* name : {"label", "kind", "instance", "mode", "threads"}) {
    const auto it = fields.find(name);
    if (it != fields.end()) {
      const Scalar& v = it->second;
      switch (v.kind) {
        case Scalar::Kind::kString:
          key += 's';
          key += v.str;
          break;
        case Scalar::Kind::kInt:
          key += util::format("i%lld", v.integer);
          break;
        case Scalar::Kind::kDouble:
          key += util::format("d%.17g", v.real);
          break;
        case Scalar::Kind::kBool: key += v.boolean ? "b1" : "b0"; break;
        case Scalar::Kind::kNull: break;
      }
    }
    key += '\x1f';
  }
  return key;
}

/// Splits a JSON array of objects into the objects' texts ('{' to '}').
util::StatusOr<std::vector<std::string>> split_array(
    const std::string& text) {
  std::vector<std::string> items;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  const auto fail = [&](const char* why) {
    return util::Status::parse_error(util::format("%s at byte %zu", why, i));
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') return fail("expected '['");
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == ']') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      if (i >= text.size() || text[i] != '{') return fail("expected '{'");
      const std::size_t start = i;
      int depth = 0;
      bool in_string = false;
      for (; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == '{') {
          ++depth;
        } else if (c == '}' && --depth == 0) {
          break;
        }
      }
      if (i >= text.size()) return fail("unterminated object");
      ++i;
      items.push_back(text.substr(start, i - start));
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == ']') {
        ++i;
        break;
      }
      return fail("expected ',' or ']'");
    }
  }
  skip_ws();
  if (i != text.size()) return fail("trailing text");
  return items;
}

}  // namespace

util::Status merge_bench_rows(const std::string& path,
                              const std::vector<util::TraceEvent>& rows) {
  std::vector<std::string> items;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      util::StatusOr<std::vector<std::string>> split =
          split_array(text.str());
      if (!split.ok()) return bench_error(path, split.status().message());
      items = std::move(*split);
    }
  }
  std::vector<std::string> keys;
  for (std::size_t r = 0; r < items.size(); ++r) {
    util::StatusOr<std::string> key = row_key(items[r]);
    if (!key.ok()) {
      return bench_error(path, util::format("row %zu: %s", r,
                                            key.status().message().c_str()));
    }
    keys.push_back(std::move(*key));
  }
  for (const util::TraceEvent& row : rows) {
    std::string text = row.to_json();
    util::StatusOr<std::string> key = row_key(text);
    if (!key.ok()) return bench_error(path, key.status().message());
    std::size_t r = 0;
    while (r < keys.size() && keys[r] != *key) ++r;
    if (r == keys.size()) {
      items.push_back(std::move(text));
      keys.push_back(std::move(*key));
    } else {
      items[r] = std::move(text);
    }
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << "[\n " << util::join(items, ",\n ") << "\n]\n";
    if (!out.flush()) {
      return util::Status::io_error("cannot write " + tmp)
          .with_stage("bench-io");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::io_error("cannot replace " + path)
        .with_stage("bench-io");
  }
  return util::Status();
}

}  // namespace ocr::io

#include "util/str.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace ocr::util {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::string with_commas(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

namespace {

std::string bound_text(long long v) { return std::to_string(v); }
std::string bound_text(double v) { return format("%g", v); }

/// from_chars over the whole of \p text, then the [lo, hi] check (written
/// so that NaN fails it).
template <typename T>
StatusOr<T> parse_number(std::string_view text, T lo, T hi,
                         const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const int len = static_cast<int>(text.size());
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    return Status::invalid_argument(
        format("'%.*s' is not %s", len, text.data(), what));
  }
  if (ec == std::errc::result_out_of_range || !(lo <= value && value <= hi)) {
    return Status::invalid_argument(
        format("'%.*s' is out of range [%s, %s]", len, text.data(),
               bound_text(lo).c_str(), bound_text(hi).c_str()));
  }
  return value;
}

}  // namespace

StatusOr<long long> parse_int(std::string_view text, long long lo,
                              long long hi) {
  return parse_number(text, lo, hi, "an integer");
}

StatusOr<double> parse_double(std::string_view text, double lo, double hi) {
  return parse_number(text, lo, hi, "a number");
}

}  // namespace ocr::util

#pragma once
/// \file str.hpp
/// \brief Small string helpers used by reports, SVG emission and command
/// lines.

#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace ocr::util {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits \p text on \p sep; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins \p parts with \p sep between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if \p text begins with \p prefix.
bool starts_with(std::string_view text, std::string_view prefix);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Formats an integer with thousands separators ("1,874,880") as the
/// paper's tables print areas.
std::string with_commas(long long value);

/// Parses all of \p text as a base-10 integer in [lo, hi]. Uses
/// std::from_chars: no leading whitespace or '+', nothing after the
/// digits. A malformed or out-of-range value is an invalid-argument
/// Status naming the text.
StatusOr<long long> parse_int(std::string_view text, long long lo,
                              long long hi);

/// Same contract for a decimal floating-point value in [lo, hi].
StatusOr<double> parse_double(std::string_view text, double lo, double hi);

}  // namespace ocr::util

#include "support/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace roload {

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> SplitString(std::string_view text, char sep,
                                          bool keep_empty) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      std::string_view part = text.substr(start, i - start);
      if (keep_empty || !part.empty()) parts.push_back(part);
      start = i + 1;
    }
  }
  return parts;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool FlagValue(int argc, char** argv, int* i, const char* flag,
               std::string* value) {
  const std::string arg = argv[*i];
  const std::string prefix = std::string(flag) + "=";
  if (StartsWith(arg, prefix)) {
    *value = arg.substr(prefix.size());
    return true;
  }
  if (arg == flag && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

std::optional<std::int64_t> ParseInt(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    text.remove_prefix(1);
  } else if (text[0] == '+') {
    text.remove_prefix(1);
  }
  if (text.empty()) return std::nullopt;

  int base = 10;
  if (StartsWith(text, "0x") || StartsWith(text, "0X")) {
    base = 16;
    text.remove_prefix(2);
  } else if (StartsWith(text, "0b") || StartsWith(text, "0B")) {
    base = 2;
    text.remove_prefix(2);
  }
  if (text.empty()) return std::nullopt;

  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    if (digit >= base) return std::nullopt;
    value = value * base + static_cast<std::uint64_t>(digit);
  }
  // Negate in unsigned arithmetic so "-9223372036854775808" is INT64_MIN.
  return static_cast<std::int64_t>(negative ? 0 - value : value);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result(static_cast<std::size_t>(size), '\0');
  std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return result;
}

std::string Hex(std::uint64_t value) {
  return StrFormat("0x%llx", static_cast<unsigned long long>(value));
}

}  // namespace roload

// Small string utilities used by the assembler, the IR printer and the
// command-line tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace roload {

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Splits on `sep`, optionally keeping empty fields.
std::vector<std::string_view> SplitString(std::string_view text, char sep,
                                          bool keep_empty = false);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Command-line flag with a value: accepts "--flag value" and "--flag=value"
// at argv[*i]; on match stores the value and advances *i past a separate
// value argument.
bool FlagValue(int argc, char** argv, int* i, const char* flag,
               std::string* value);

// Parses a signed integer with optional 0x/0b prefix and leading '-'.
std::optional<std::int64_t> ParseInt(std::string_view text);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// "0x" and lowercase hex digits, no padding: "0x10260".
std::string Hex(std::uint64_t value);

}  // namespace roload

// JSON string escaping shared by every hand-written JSON exporter.
#pragma once

#include <string>

namespace umon {

/// Escapes `s` for a JSON string body: quote, backslash, `\n` and `\t` get
/// their short forms, every other control byte becomes `\u00XX`.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace umon

#include "http/headers.h"

#include <cctype>

namespace http {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

void Headers::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

void Headers::set(std::string name, std::string value) {
  for (auto& [n, v] : entries_) {
    if (iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  add(std::move(name), std::move(value));
}

std::optional<std::string> Headers::get(std::string_view name) const {
  for (const auto& [n, v] : entries_)
    if (iequals(n, name)) return v;
  return std::nullopt;
}

}  // namespace http

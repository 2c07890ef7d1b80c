// HTTP header collection: ordered, case-insensitive lookup, preserving
// the exact casing servers sent (the paper fingerprints deployments by
// raw HTTP Server header values).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace http {

/// ASCII case-insensitive comparison (HTTP field names).
bool iequals(std::string_view a, std::string_view b);

class Headers {
 public:
  void add(std::string name, std::string value);
  void set(std::string name, std::string value);  // replace or add

  /// First value for the field, case-insensitive.
  std::optional<std::string> get(std::string_view name) const;
  bool contains(std::string_view name) const { return get(name).has_value(); }

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  bool operator==(const Headers&) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace http

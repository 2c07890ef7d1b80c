#include "dns/types.h"

namespace dns {

std::string normalize_name(std::string_view name) {
  if (!name.empty() && name.back() == '.') name.remove_suffix(1);
  std::string out(name);
  for (char& c : out) c = fold_case(c);
  return out;
}

bool is_normalized(std::string_view name) {
  if (!name.empty() && name.back() == '.') return false;
  for (char c : name)
    if (fold_case(c) != c) return false;
  return true;
}

}  // namespace dns

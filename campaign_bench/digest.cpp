#include "digest.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "report/json.h"

namespace bench {

void Digest::add(std::string_view item) {
  uint8_t frame[8];
  uint64_t size = item.size();
  for (int i = 0; i < 8; ++i) frame[i] = static_cast<uint8_t>(size >> (8 * i));
  sha_.update(frame);
  sha_.update({reinterpret_cast<const uint8_t*>(item.data()), item.size()});
}

std::string Digest::hex() {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (uint8_t byte : sha_.final()) {
    out += kHex[byte >> 4];
    out += kHex[byte & 15];
  }
  return out;
}

uint64_t mismatched_targets(const std::vector<UnitDigests>& want,
                            const std::vector<UnitDigests>& got) {
  uint64_t failed = 0;
  for (const auto& unit : want) {
    auto it = std::find_if(got.begin(), got.end(), [&](const UnitDigests& u) {
      return u.name == unit.name;
    });
    if (it == got.end() || !(*it == unit)) failed += unit.targets;
  }
  return failed;
}

namespace {

using report::json::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<UnitDigests> units_from_json(const Value& array) {
  if (array.kind != Value::Kind::kArray)
    throw std::runtime_error("reference entry is not an array");
  std::vector<UnitDigests> units;
  for (const auto& item : array.array) {
    UnitDigests unit;
    const Value* name = item.find("name");
    const Value* digests = item.find("digests");
    if (!name || !digests || digests->kind != Value::Kind::kObject)
      throw std::runtime_error("reference unit lacks name or digests");
    unit.name = name->string;
    for (const auto& [key, value] : digests->object)
      unit.digests[key] = value.string;
    unit.targets = static_cast<uint64_t>(item.int_or("targets"));
    unit.stateful = static_cast<uint64_t>(item.int_or("stateful"));
    unit.successes = static_cast<uint64_t>(item.int_or("successes"));
    units.push_back(std::move(unit));
  }
  return units;
}

void write_units(std::ostream& out, const std::vector<UnitDigests>& units) {
  out << "[";
  for (size_t i = 0; i < units.size(); ++i) {
    const auto& unit = units[i];
    out << (i ? ",\n      " : "\n      ") << "{\"name\": \""
        << report::json::escape(unit.name)
        << "\", \"targets\": " << unit.targets
        << ", \"stateful\": " << unit.stateful
        << ", \"successes\": " << unit.successes << ", \"digests\": {";
    size_t k = 0;
    for (const auto& [key, value] : unit.digests)
      out << (k++ ? ", " : "") << "\"" << key << "\": \"" << value << "\"";
    out << "}}";
  }
  out << "\n    ]";
}

}  // namespace

std::optional<std::vector<UnitDigests>> load_reference(
    const std::string& path, uint64_t seed) {
  std::string text = read_file(path);
  if (text.empty()) return std::nullopt;
  Value doc = report::json::parse(text);
  const Value* seeds = doc.find("seeds");
  if (!seeds) throw std::runtime_error(path + ": no \"seeds\" object");
  const Value* entry = seeds->find(std::to_string(seed));
  if (!entry) return std::nullopt;
  return units_from_json(*entry);
}

void store_reference(const std::string& path, const std::string& workload,
                     uint64_t seed, const std::vector<UnitDigests>& units) {
  std::map<uint64_t, std::vector<UnitDigests>> seeds;
  std::string text = read_file(path);
  if (!text.empty()) {
    Value doc = report::json::parse(text);
    if (const Value* old = doc.find("seeds"))
      for (const auto& [key, value] : old->object)
        seeds[std::stoull(key)] = units_from_json(value);
  }
  seeds[seed] = units;

  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << report::json::escape(workload)
      << "\",\n  \"seeds\": {";
  size_t i = 0;
  for (const auto& [key, value] : seeds) {
    out << (i++ ? ",\n    " : "\n    ") << "\"" << key << "\": ";
    write_units(out, value);
  }
  out << "\n  }\n}\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace bench

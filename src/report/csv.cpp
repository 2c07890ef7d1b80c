#include "report/csv.h"

#include <sstream>
#include <stdexcept>

namespace report {

void csv_append(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string csv_escape(std::string_view field) {
  std::string out;
  csv_append(out, field);
  return out;
}

std::string csv_join(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ',';
    csv_append(out, fields[i]);
  }
  return out;
}

bool CsvReader::next_row(std::vector<std::string>& fields) {
  fields.clear();
  std::istream& in = *in_;
  int first = in.peek();
  if (first == std::istream::traits_type::eof()) return false;

  std::string field;
  bool quoted = false;      // inside a quoted field
  bool was_quoted = false;  // current field started with a quote
  for (;;) {
    int ci = in.get();
    if (ci == std::istream::traits_type::eof()) {
      if (quoted) throw std::runtime_error("csv: unterminated quoted field");
      fields.push_back(std::move(field));
      return true;
    }
    char c = static_cast<char>(ci);
    if (quoted) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get();
          field += '"';
        } else {
          quoted = false;  // closing quote; delimiter or EOL must follow
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      // RFC 4180 only allows a quote as the first character of a field.
      if (!field.empty() || was_quoted)
        throw std::runtime_error("csv: quote inside unquoted field");
      quoted = true;
      was_quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
      was_quoted = false;
    } else if (c == '\r' && in.peek() == '\n') {
      in.get();
      fields.push_back(std::move(field));
      return true;
    } else if (c == '\n') {
      fields.push_back(std::move(field));
      return true;
    } else {
      field += c;
    }
  }
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  while (reader.next_row(fields)) rows.push_back(fields);
  return rows;
}

}  // namespace report

// RFC 4180 CSV codec for the report pipeline. The writer side
// (csv_escape) is the escaper the scanner CLIs have always used for
// wire-derived fields; the reader side lets qreport_cli replay a saved
// campaign CSV -- quoted fields, embedded commas, doubled quotes and
// embedded line breaks all round-trip (tests/test_report.cpp holds the
// pair to a randomized writer<->reader property).
#pragma once

#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace report {

/// RFC 4180: fields containing the delimiter, a double quote or a line
/// break must be quoted, with embedded quotes doubled. Everything the
/// scanners print verbatim comes off the (simulated) wire -- server
/// headers, certificate names, SNI -- so unescaped output would let a
/// scanned host inject CSV columns into the measurement data.
std::string csv_escape(std::string_view field);

/// Appends csv_escape(field) to `out` without a temporary: the one
/// escaper behind csv_escape, csv_join and the row writer.
void csv_append(std::string& out, std::string_view field);

/// One CSV record: fields escaped and ","-joined (no trailing newline).
std::string csv_join(const std::vector<std::string>& fields);

/// Streaming RFC 4180 reader. Rows end at a LF or CRLF outside quotes;
/// quoted fields may span lines. A trailing newline at end of input
/// does not produce an empty final row.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in) : in_(&in) {}

  /// Reads the next record into `fields` (cleared first). Returns false
  /// at end of input. Throws std::runtime_error on a lone quote inside
  /// an unquoted field or an unterminated quoted field.
  bool next_row(std::vector<std::string>& fields);

 private:
  std::istream* in_;
};

/// Convenience: parses a whole CSV document.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

}  // namespace report

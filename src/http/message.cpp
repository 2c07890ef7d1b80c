#include "http/message.h"

#include <charconv>

namespace http {

namespace {

/// Splits "text" at the first CRLFCRLF into head and body.
std::pair<std::string_view, std::string_view> split_head_body(
    std::string_view text) {
  size_t at = text.find("\r\n\r\n");
  if (at == std::string_view::npos) return {text, {}};
  return {text.substr(0, at), text.substr(at + 4)};
}

/// Parses "Name: value" lines after the start line into `headers`;
/// returns false on a malformed line.
bool parse_header_lines(std::string_view head, Headers& headers) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    size_t start = pos + 2;
    size_t end = head.find("\r\n", start);
    std::string_view line = head.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
      value.remove_prefix(1);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
      value.remove_suffix(1);
    headers.add(std::string(name), std::string(value));
    pos = end;
  }
  return true;
}

/// The head's start line (three parts joined by spaces), its header
/// lines and the blank line ending it, then `body`, in a string sized
/// once.
std::string serialize_message(std::string_view first, std::string_view second,
                              std::string_view third, const Headers& headers,
                              std::string_view body) {
  size_t size = first.size() + second.size() + third.size() + 4 + 2 +
                body.size();
  for (const auto& [name, value] : headers.entries())
    size += name.size() + 2 + value.size() + 2;
  std::string out;
  out.reserve(size);
  out.append(first).append(" ").append(second).append(" ").append(third);
  out.append("\r\n");
  for (const auto& [name, value] : headers.entries())
    out.append(name).append(": ").append(value).append("\r\n");
  out.append("\r\n").append(body);
  return out;
}

}  // namespace

std::string Request::serialize() const {
  return serialize_message(method, target, version, headers, {});
}

std::optional<Request> Request::parse(std::string_view text) {
  auto [head, body] = split_head_body(text);
  (void)body;
  size_t line_end = head.find("\r\n");
  std::string_view start_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = start_line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  size_t sp2 = start_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  Request req;
  req.method = std::string(start_line.substr(0, sp1));
  req.target = std::string(start_line.substr(sp1 + 1, sp2 - sp1 - 1));
  req.version = std::string(start_line.substr(sp2 + 1));
  if (req.version.rfind("HTTP/", 0) != 0) return std::nullopt;
  if (!parse_header_lines(head, req.headers)) return std::nullopt;
  return req;
}

std::string Response::serialize() const {
  return serialize_message(version, std::to_string(status), reason, headers,
                           body);
}

std::optional<Response> Response::parse(std::string_view text) {
  auto [head, body] = split_head_body(text);
  size_t line_end = head.find("\r\n");
  std::string_view start_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = start_line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  size_t sp2 = start_line.find(' ', sp1 + 1);
  Response resp;
  resp.version = std::string(start_line.substr(0, sp1));
  if (resp.version.rfind("HTTP/", 0) != 0) return std::nullopt;
  std::string_view status_str = start_line.substr(
      sp1 + 1,
      sp2 == std::string_view::npos ? std::string_view::npos : sp2 - sp1 - 1);
  auto [p, ec] = std::from_chars(status_str.data(),
                                 status_str.data() + status_str.size(),
                                 resp.status);
  if (ec != std::errc{} || p != status_str.data() + status_str.size())
    return std::nullopt;
  if (sp2 != std::string_view::npos)
    resp.reason = std::string(start_line.substr(sp2 + 1));
  if (!parse_header_lines(head, resp.headers)) return std::nullopt;
  resp.body = std::string(body);
  return resp;
}

Request head_request(const std::string& host) {
  Request req;
  req.method = "HEAD";
  req.target = "/";
  if (!host.empty()) req.headers.add("host", host);
  req.headers.add("user-agent", "qscanner-repro/1.0");
  return req;
}

}  // namespace http

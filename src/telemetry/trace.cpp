#include "telemetry/trace.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace telemetry {

const char* event_name(EventType type) {
  switch (type) {
    case EventType::kPacketSent: return "packet_sent";
    case EventType::kPacketReceived: return "packet_received";
    case EventType::kVersionNegotiation: return "version_negotiation";
    case EventType::kRetry: return "retry";
    case EventType::kTlsMessage: return "tls_message";
    case EventType::kKeyUpdate: return "key_update";
    case EventType::kTransportParamsSet: return "transport_params_set";
    case EventType::kFrameProcessed: return "frame_processed";
    case EventType::kConnectionClosed: return "connection_closed";
    case EventType::kTimeout: return "timeout";
    case EventType::kProtocolError: return "protocol_error";
    case EventType::kWatchdog: return "watchdog";
  }
  return "?";
}

const Value* TraceEvent::find(const std::string& key) const {
  for (const auto& [k, v] : data)
    if (k == key) return &v;
  return nullptr;
}

std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (unsigned char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[c >> 4];
          out += hex[c & 0xf];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void write_value(std::ostream& out, const Value& value) {
  switch (value.kind) {
    case Value::Kind::kUint:
      out << value.num;
      break;
    case Value::Kind::kString:
      out << '"' << json_escape(value.str) << '"';
      break;
    case Value::Kind::kBool:
      out << (value.flag ? "true" : "false");
      break;
  }
}

}  // namespace

void write_json_line(std::ostream& out, const TraceEvent& event) {
  out << "{\"time\":" << event.time_us
      << ",\"vantage\":\"client\",\"name\":\"" << event_name(event.type)
      << "\",\"data\":{";
  bool first = true;
  for (const auto& [key, value] : event.data) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(key) << "\":";
    write_value(out, value);
  }
  out << "}}\n";
}

void Tracer::emit(EventType type, std::initializer_list<Field> fields) const {
  if (!sink_) return;
  TraceEvent event;
  event.time_us = clock_ ? clock_->now_us() : 0;
  event.type = type;
  event.data.reserve(fields.size());
  for (const auto& field : fields)
    event.data.emplace_back(field.key, field.value);
  sink_->on_event(event);
}

namespace {

void write_header(std::ostream& out, const std::string& title) {
  out << "{\"qlog_format\":\"JSON-LINES\",\"schema\":"
         "\"quic-scanner-trace\",\"title\":\""
      << json_escape(title) << "\"}\n";
}

}  // namespace

JsonLinesSink::JsonLinesSink(std::ostream& out, const std::string& title)
    : out_(&out) {
  write_header(*out_, title);
}

JsonLinesSink::JsonLinesSink(const std::string& path,
                             const std::string& title) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*file)
    throw std::runtime_error("JsonLinesSink: cannot open " + path);
  out_ = file.get();
  owned_ = std::move(file);
  write_header(*out_, title.empty() ? path : title);
}

void JsonLinesSink::on_event(const TraceEvent& event) {
  write_json_line(*out_, event);
}

QlogDir::QlogDir(std::string path) : path_(std::move(path)) {
  std::filesystem::create_directories(path_);
}

std::unique_ptr<TraceSink> QlogDir::open(const std::string& label) const {
  std::string safe;
  safe.reserve(label.size());
  for (char c : label) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    safe.push_back(ok ? c : '_');
  }
  return std::make_unique<JsonLinesSink>(path_ + "/" + safe + ".qlog",
                                         label);
}

TraceSinkFactory QlogDir::factory() const {
  return [*this](const std::string& label) { return open(label); };
}

}  // namespace telemetry

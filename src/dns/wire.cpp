#include "dns/wire.h"

namespace dns {

void encode_name(wire::Writer& w, std::string_view name) {
  std::string normalized;
  if (!is_normalized(name)) {
    normalized = normalize_name(name);
    name = normalized;
  }
  size_t pos = 0;
  while (pos < name.size()) {
    size_t dot = name.find('.', pos);
    size_t end = dot == std::string_view::npos ? name.size() : dot;
    size_t len = end - pos;
    if (len == 0 || len > 63)
      throw std::invalid_argument("bad DNS label length");
    w.u8(static_cast<uint8_t>(len));
    w.str(name.substr(pos, len));
    pos = end + 1;
    if (dot == std::string_view::npos) break;
  }
  w.u8(0);
}

namespace {

/// Reads a name into `out` (cleared first), case-folding as it goes, so
/// the result is normalized without a second pass or a second string.
void decode_name_into(wire::Reader& r, std::span<const uint8_t> whole,
                      std::string& out) {
  out.clear();
  // After the first compression pointer `r` is already past the name;
  // further labels are read from `whole` at the pointed offset.
  std::optional<wire::Reader> jumped;
  wire::Reader* in = &r;
  int jumps = 0;
  for (;;) {
    uint8_t len = in->u8();
    if (len == 0) break;
    if ((len & 0xc0) == 0xc0) {
      if (++jumps > 16) throw wire::DecodeError("compression loop");
      size_t target = static_cast<size_t>(len & 0x3f) << 8 | in->u8();
      if (target >= whole.size()) throw wire::DecodeError("name out of range");
      in = &jumped.emplace(whole.subspan(target));
      continue;
    }
    if (len > 63) throw wire::DecodeError("bad label length");
    if (!out.empty()) out.push_back('.');
    for (uint8_t c : in->bytes(len)) {
      // Legal octet on the wire, but the dotted text form would read it
      // back as a label boundary (and re-encoding could then fail).
      if (c == '.') throw wire::DecodeError("'.' inside a label");
      out.push_back(fold_case(static_cast<char>(c)));
    }
  }
}

}  // namespace

std::string decode_name(wire::Reader& r, std::span<const uint8_t> whole) {
  std::string out;
  decode_name_into(r, whole, out);
  return out;
}

namespace {

void encode_rdata(wire::Writer& w, const ResourceRecord& rr) {
  std::visit(
      [&](const auto& data) {
        using T = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<T, ARecord>) {
          w.u32(data.address.v4_value());
        } else if constexpr (std::is_same_v<T, AaaaRecord>) {
          w.bytes(data.address.v6_bytes());
        } else if constexpr (std::is_same_v<T, CnameRecord>) {
          encode_name(w, data.target);
        } else if constexpr (std::is_same_v<T, TxtRecord>) {
          // character-strings of <= 255 bytes
          size_t pos = 0;
          while (pos < data.text.size() || pos == 0) {
            size_t n = std::min<size_t>(255, data.text.size() - pos);
            w.u8(static_cast<uint8_t>(n));
            w.str(std::string_view(data.text).substr(pos, n));
            pos += n;
            if (pos >= data.text.size()) break;
          }
        } else if constexpr (std::is_same_v<T, SvcbData>) {
          w.u16(data.priority);
          encode_name(w, data.target == "." ? std::string_view()
                                            : std::string_view(data.target));
          // SvcParams in strictly increasing key order.
          if (!data.alpn.empty()) {
            w.u16(static_cast<uint16_t>(SvcParamKey::kAlpn));
            size_t at = w.begin_length(2);
            for (const auto& proto : data.alpn) {
              w.u8(static_cast<uint8_t>(proto.size()));
              w.str(proto);
            }
            w.fill_length(at, 2);
          }
          if (data.port) {
            w.u16(static_cast<uint16_t>(SvcParamKey::kPort));
            w.u16(2);
            w.u16(*data.port);
          }
          if (!data.ipv4_hints.empty()) {
            w.u16(static_cast<uint16_t>(SvcParamKey::kIpv4Hint));
            w.u16(static_cast<uint16_t>(4 * data.ipv4_hints.size()));
            for (const auto& addr : data.ipv4_hints) w.u32(addr.v4_value());
          }
          if (!data.ipv6_hints.empty()) {
            w.u16(static_cast<uint16_t>(SvcParamKey::kIpv6Hint));
            w.u16(static_cast<uint16_t>(16 * data.ipv6_hints.size()));
            for (const auto& addr : data.ipv6_hints) w.bytes(addr.v6_bytes());
          }
        }
      },
      rr.data);
}

netsim::IpAddress read_v6(wire::Reader& r) {
  auto bytes = r.bytes(16);
  std::array<uint8_t, 16> arr;
  std::copy(bytes.begin(), bytes.end(), arr.begin());
  return netsim::IpAddress::v6(arr);
}

/// `r` is bounded to RDLENGTH (RFC 1035 section 3.2.1) and must be
/// consumed exactly, so A and AAAA need RDLENGTH 4 and 16 and no field
/// is read from outside its record. Names inside RDATA may still point
/// anywhere in `whole`.
void decode_rdata(RRType type, wire::Reader& r, std::span<const uint8_t> whole,
                  RData& data) {
  switch (type) {
    case RRType::kA:
      reuse<ARecord>(data).address = netsim::IpAddress::v4(r.u32());
      break;
    case RRType::kAaaa:
      reuse<AaaaRecord>(data).address = read_v6(r);
      break;
    case RRType::kCname:
      decode_name_into(r, whole, reuse<CnameRecord>(data).target);
      break;
    case RRType::kTxt: {
      auto& text = reuse<TxtRecord>(data).text;
      text.clear();
      while (!r.done()) {
        auto chunk = r.bytes(r.u8());
        text.append(chunk.begin(), chunk.end());
      }
      break;
    }
    case RRType::kSvcb:
    case RRType::kHttps: {
      auto& svcb = reuse<SvcbData>(data);
      svcb.priority = r.u16();
      decode_name_into(r, whole, svcb.target);
      if (svcb.target.empty()) svcb.target = ".";
      svcb.alpn.clear();
      svcb.port.reset();
      svcb.ipv4_hints.clear();
      svcb.ipv6_hints.clear();
      while (!r.done()) {
        uint16_t key = r.u16();
        size_t len = r.u16();
        wire::Reader value(r.bytes(len));
        switch (static_cast<SvcParamKey>(key)) {
          case SvcParamKey::kAlpn:
            while (!value.done()) svcb.alpn.push_back(value.str(value.u8()));
            break;
          case SvcParamKey::kPort:
            svcb.port = value.u16();
            break;
          case SvcParamKey::kIpv4Hint:
            while (!value.done())
              svcb.ipv4_hints.push_back(netsim::IpAddress::v4(value.u32()));
            break;
          case SvcParamKey::kIpv6Hint:
            while (!value.done()) svcb.ipv6_hints.push_back(read_v6(value));
            break;
          default:
            break;  // unknown SvcParam: ignore, per the draft
        }
      }
      break;
    }
    default:
      throw wire::DecodeError("unsupported RR type");
  }
  if (!r.done()) throw wire::DecodeError("RDATA not consumed exactly");
}

void encode_rr(wire::Writer& w, const ResourceRecord& rr) {
  encode_name(w, rr.name);
  w.u16(static_cast<uint16_t>(rr.type));
  w.u16(1);  // class IN
  w.u32(rr.ttl);
  size_t at = w.begin_length(2);
  encode_rdata(w, rr);
  w.fill_length(at, 2);
}

void decode_rr(wire::Reader& r, std::span<const uint8_t> whole,
               ResourceRecord& rr) {
  decode_name_into(r, whole, rr.name);
  rr.type = static_cast<RRType>(r.u16());
  r.u16();  // class
  rr.ttl = r.u32();
  wire::Reader rdata(r.bytes(r.u16()));
  decode_rdata(rr.type, rdata, whole, rr.data);
}

/// Decodes `count` entries into `section`, overwriting the ones it
/// already holds before appending, then drops any left over (a
/// RecordList keeps them for the next decode). Growing one entry at a
/// time keeps a bogus count from allocating ahead of the bytes that
/// would back it.
template <typename Section, typename DecodeOne>
void decode_section(Section& section, size_t count, DecodeOne decode_one) {
  for (size_t i = 0; i < count; ++i) {
    if (i == section.size()) section.emplace_back();
    decode_one(section[i]);
  }
  section.resize(count);
}

}  // namespace

void encode_message(const Message& msg, wire::Writer& w) {
  w.u16(msg.id);
  uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  if (msg.recursion_desired) flags |= 0x0100;
  if (msg.recursion_available) flags |= 0x0080;
  flags |= static_cast<uint16_t>(msg.rcode);
  w.u16(flags);
  w.u16(static_cast<uint16_t>(msg.questions.size()));
  w.u16(static_cast<uint16_t>(msg.answers.size()));
  w.u16(static_cast<uint16_t>(msg.authority.size()));
  w.u16(static_cast<uint16_t>(msg.additional.size()));
  for (const auto& q : msg.questions) {
    encode_name(w, q.name);
    w.u16(static_cast<uint16_t>(q.type));
    w.u16(1);  // class IN
  }
  for (const auto& rr : msg.answers) encode_rr(w, rr);
  for (const auto& rr : msg.authority) encode_rr(w, rr);
  for (const auto& rr : msg.additional) encode_rr(w, rr);
}

std::vector<uint8_t> encode_message(const Message& msg) {
  wire::Writer w;
  encode_message(msg, w);
  return w.take();
}

void decode_message(std::span<const uint8_t> data, Message& msg) {
  wire::Reader r(data);
  msg.id = r.u16();
  uint16_t flags = r.u16();
  msg.is_response = flags & 0x8000;
  msg.recursion_desired = flags & 0x0100;
  msg.recursion_available = flags & 0x0080;
  msg.rcode = static_cast<RCode>(flags & 0x000f);
  uint16_t qd = r.u16(), an = r.u16(), ns = r.u16(), ar = r.u16();
  decode_section(msg.questions, qd, [&](Question& q) {
    decode_name_into(r, data, q.name);
    q.type = static_cast<RRType>(r.u16());
    r.u16();  // class
  });
  auto decode_one = [&](ResourceRecord& rr) { decode_rr(r, data, rr); };
  decode_section(msg.answers, an, decode_one);
  decode_section(msg.authority, ns, decode_one);
  decode_section(msg.additional, ar, decode_one);
}

Message decode_message(std::span<const uint8_t> data) {
  Message msg;
  decode_message(data, msg);
  return msg;
}

}  // namespace dns

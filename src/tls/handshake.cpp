#include "tls/handshake.h"

#include <stdexcept>

namespace tls {

uint16_t ServerHello::negotiated_version() const {
  if (const auto* sv = find_supported_versions(extensions);
      sv && !sv->versions.empty())
    return sv->versions[0];
  return legacy_version;
}

HandshakeType handshake_type(const HandshakeMessage& msg) {
  return std::visit(
      [](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ClientHello>)
          return HandshakeType::kClientHello;
        else if constexpr (std::is_same_v<T, ServerHello>)
          return HandshakeType::kServerHello;
        else if constexpr (std::is_same_v<T, EncryptedExtensions>)
          return HandshakeType::kEncryptedExtensions;
        else if constexpr (std::is_same_v<T, CertificateMessage>)
          return HandshakeType::kCertificate;
        else if constexpr (std::is_same_v<T, CertificateVerify>)
          return HandshakeType::kCertificateVerify;
        else if constexpr (std::is_same_v<T, Finished>)
          return HandshakeType::kFinished;
        else
          return HandshakeType::kServerHelloDone;
      },
      msg);
}

namespace {

void encode_body(wire::Writer& w, const ClientHello& ch) {
  w.u16(ch.legacy_version);
  w.bytes(ch.random);
  w.u8(static_cast<uint8_t>(ch.legacy_session_id.size()));
  w.bytes(ch.legacy_session_id);
  w.u16(static_cast<uint16_t>(ch.cipher_suites.size() * 2));
  for (CipherSuite cs : ch.cipher_suites) w.u16(static_cast<uint16_t>(cs));
  w.u8(1);  // legacy_compression_methods
  w.u8(0);
  encode_extensions(w, ch.extensions, HandshakeContext::kClientHello);
}

void encode_body(wire::Writer& w, const ServerHello& sh) {
  w.u16(sh.legacy_version);
  w.bytes(sh.random);
  w.u8(static_cast<uint8_t>(sh.legacy_session_id_echo.size()));
  w.bytes(sh.legacy_session_id_echo);
  w.u16(static_cast<uint16_t>(sh.cipher_suite));
  w.u8(0);  // legacy_compression_method
  encode_extensions(w, sh.extensions, HandshakeContext::kServerHello);
}

void encode_body(wire::Writer& w, const EncryptedExtensions& ee) {
  encode_extensions(w, ee.extensions, HandshakeContext::kEncryptedExtensions);
}

void encode_body(wire::Writer& w, const CertificateMessage& cm) {
  w.u8(0);  // certificate_request_context
  size_t at = w.begin_length(3);
  for (const auto& cert : cm.chain) {
    const size_t cert_at = w.begin_length(3);
    cert.encode(w);
    w.fill_length(cert_at, 3);
    w.u16(0);  // per-certificate extensions
  }
  w.fill_length(at, 3);
}

void encode_body(wire::Writer& w, const CertificateVerify& cv) {
  w.u16(cv.algorithm);
  w.u16(static_cast<uint16_t>(cv.signature.size()));
  w.bytes(cv.signature);
}

void encode_body(wire::Writer& w, const Finished& fin) {
  w.bytes(fin.verify_data);
}

void encode_body(wire::Writer&, const ServerHelloDone&) {}

ClientHello decode_client_hello(wire::Reader& r) {
  ClientHello ch;
  ch.legacy_version = r.u16();
  auto rnd = r.bytes(32);
  std::copy(rnd.begin(), rnd.end(), ch.random.begin());
  ch.legacy_session_id = r.bytes_copy(r.u8());
  size_t suites_len = r.u16();
  wire::Reader suites(r.bytes(suites_len));
  while (!suites.done())
    ch.cipher_suites.push_back(static_cast<CipherSuite>(suites.u16()));
  size_t comp_len = r.u8();
  r.skip(comp_len);
  ch.extensions = decode_extensions(r, HandshakeContext::kClientHello);
  return ch;
}

ServerHello decode_server_hello(wire::Reader& r) {
  ServerHello sh;
  sh.legacy_version = r.u16();
  auto rnd = r.bytes(32);
  std::copy(rnd.begin(), rnd.end(), sh.random.begin());
  sh.legacy_session_id_echo = r.bytes_copy(r.u8());
  sh.cipher_suite = static_cast<CipherSuite>(r.u16());
  r.u8();  // compression
  if (r.remaining() > 0)
    sh.extensions = decode_extensions(r, HandshakeContext::kServerHello);
  return sh;
}

CertificateMessage decode_certificate(wire::Reader& r) {
  CertificateMessage cm;
  r.u8();  // request context
  size_t list_len = r.u24();
  wire::Reader list(r.bytes(list_len));
  while (!list.done()) {
    size_t cert_len = list.u24();
    cm.chain.push_back(Certificate::decode(list.bytes(cert_len)));
    size_t ext_len = list.u16();
    list.skip(ext_len);
  }
  return cm;
}

}  // namespace

void encode_handshake(wire::Writer& w, const HandshakeMessage& msg) {
  w.u8(static_cast<uint8_t>(handshake_type(msg)));
  size_t at = w.begin_length(3);
  std::visit([&](const auto& m) { encode_body(w, m); }, msg);
  w.fill_length(at, 3);
}

std::vector<uint8_t> encode_handshake(const HandshakeMessage& msg) {
  wire::Writer& w = wire::scratch_writer();
  encode_handshake(w, msg);
  return w.data();
}

HandshakeMessage decode_handshake(wire::Reader& r) {
  auto type = static_cast<HandshakeType>(r.u8());
  size_t len = r.u24();
  wire::Reader body(r.bytes(len));
  switch (type) {
    case HandshakeType::kClientHello: {
      auto ch = decode_client_hello(body);
      return ch;
    }
    case HandshakeType::kServerHello: {
      auto sh = decode_server_hello(body);
      return sh;
    }
    case HandshakeType::kEncryptedExtensions: {
      EncryptedExtensions ee;
      ee.extensions =
          decode_extensions(body, HandshakeContext::kEncryptedExtensions);
      return ee;
    }
    case HandshakeType::kCertificate:
      return decode_certificate(body);
    case HandshakeType::kCertificateVerify: {
      CertificateVerify cv;
      cv.algorithm = body.u16();
      cv.signature = body.bytes_copy(body.u16());
      return cv;
    }
    case HandshakeType::kFinished: {
      Finished fin;
      auto rest = body.rest();
      fin.verify_data.assign(rest.begin(), rest.end());
      return fin;
    }
    case HandshakeType::kServerHelloDone:
      return ServerHelloDone{};
    default:
      throw wire::DecodeError("unsupported handshake message type " +
                              std::to_string(static_cast<int>(type)));
  }
}

std::vector<FlightMessage> decode_handshake_flight(
    std::span<const uint8_t> data) {
  std::vector<FlightMessage> out;
  wire::Reader r(data);
  while (!r.done()) {
    const size_t start = r.position();
    HandshakeMessage message = decode_handshake(r);
    out.push_back({std::move(message),
                   data.subspan(start, r.position() - start)});
  }
  return out;
}

}  // namespace tls

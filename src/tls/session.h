// The one TLS 1.3 handshake (RFC 8446 section 4) both scanners run, as
// a pair of I/O-free state machines. The engines own the key share,
// the transcript and the secret hierarchy, and the client fills the
// TlsDetails the paper compares (Table 5). The carriers only move the
// encoded messages -- QUIC in CRYPTO frames (RFC 9001 section 4),
// TLS-over-TCP in records -- and keep every policy check and alert,
// packet or record protection and the TCP path's TLS 1.2 flight. So a
// QUIC/TCP difference in Table 5 comes from the deployment, not from
// two copies of the handshake.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "tls/handshake.h"
#include "tls/key_schedule.h"

namespace tls {

/// The ALPN rule every server applies: the first client preference the
/// server supports, or nullopt.
std::optional<std::string> select_alpn(
    const std::vector<std::string>& offered,
    const std::vector<std::string>& supported);

/// The key share every endpoint answers: the first key_share entry, if
/// it carries a public value the handshake can use (8 bytes, in the DH
/// group's range). nullptr when the extension is missing, empty or
/// malformed, which every endpoint treats alike.
const KeyShareEntry* usable_key_share(const std::vector<Extension>& extensions);

class ClientHandshake {
 public:
  /// Draws the key share and then the 32-byte random from `rng`, builds
  /// the ClientHello -- the three TLS 1.3 suites, then SNI, ALPN,
  /// supported_groups, signature_algorithms, supported_versions
  /// (`versions`), key_share and `trailing` last -- and adds it to the
  /// transcript.
  ClientHandshake(crypto::Rng& rng, const std::optional<std::string>& sni,
                  const std::vector<std::string>& alpn,
                  std::vector<uint16_t> versions,
                  std::optional<Extension> trailing = std::nullopt);

  /// The encoded ClientHello, handshake header included.
  const std::vector<uint8_t>& client_hello() const { return client_hello_; }

  /// Adds `encoded` (the bytes that carried `sh`) to the transcript and
  /// records the version, suite and codepoints into `details`, which it
  /// first resets; the carrier passes the TlsDetails it reports, so
  /// nothing is copied. Returns false on an answer below TLS 1.3 or
  /// without a usable key share; otherwise records the group and
  /// derives the handshake secrets.
  bool on_server_hello(const ServerHello& sh, std::span<const uint8_t> encoded,
                       TlsDetails& details);

  /// One message of the encrypted server flight with its encoding.
  /// EncryptedExtensions and Certificate are recorded into `details`
  /// (the certificate chain is moved there). A Finished is verified,
  /// joins the transcript, sorts the codepoints and derives the
  /// application secrets; returns false when it fails to verify. Any
  /// other message only joins the transcript.
  bool on_server_message(HandshakeMessage&& msg,
                         std::span<const uint8_t> encoded,
                         TlsDetails& details);

  /// True once the server Finished verified.
  bool complete() const { return complete_; }

  /// The encoded client Finished; valid once complete().
  std::vector<uint8_t> client_finished() const;

  const KeySchedule& secrets() const { return schedule_; }

 private:
  uint64_t dh_secret_ = 0;
  KeySchedule schedule_;
  std::vector<uint8_t> client_hello_;
  bool complete_ = false;
};

/// The server's encrypted flight: EncryptedExtensions, Certificate,
/// CertificateVerify and Finished, encoded back to back.
struct ServerFlight {
  std::vector<uint8_t> bytes;
  /// Where each of the four messages ends in `bytes`.
  std::array<size_t, 4> ends{};
};

class ServerHandshake {
 public:
  /// Adds the ClientHello (`encoded`, header included) to the
  /// transcript, draws the key share and then the random from `rng`,
  /// answers with a TLS 1.3 ServerHello (supported_versions, key_share
  /// in `client_share`'s group) and derives the handshake secrets.
  /// `client_share` is the ClientHello's usable_key_share.
  ServerHandshake(const ClientHello& ch, std::span<const uint8_t> encoded,
                  const KeyShareEntry& client_share, crypto::Rng& rng);

  /// The encoded ServerHello, handshake header included.
  const std::vector<uint8_t>& server_hello() const { return server_hello_; }

  /// The encoded EncryptedExtensions, Certificate, CertificateVerify
  /// (an HMAC over the transcript, DESIGN.md section 7) and Finished,
  /// concatenated in one buffer and each added to the transcript; then
  /// derives the application secrets.
  ServerFlight flight(std::vector<Extension> ee_extensions, Certificate cert);

  /// Checks the client Finished against the transcript through the
  /// server Finished.
  bool client_finished_ok(const Finished& fin) const;

  const KeySchedule& secrets() const { return schedule_; }

 private:
  KeySchedule schedule_;
  std::vector<uint8_t> server_hello_;
};

}  // namespace tls

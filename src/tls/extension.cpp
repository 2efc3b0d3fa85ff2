#include "tls/extension.hpp"

#include <algorithm>

namespace iotls::tls {

Extension make_sni(const std::string& hostname) {
  common::ByteWriter w;
  w.u8(0);  // name type: host_name
  w.str(hostname, 2);
  return {static_cast<std::uint16_t>(ExtensionType::ServerName), w.take()};
}

std::string parse_sni(common::BytesView payload) {
  common::ByteReader r(payload);
  if (r.u8() != 0) throw common::ParseError("unsupported SNI name type");
  std::string host = r.str(2);
  r.expect_end("server_name");
  return host;
}

Extension make_supported_versions(const std::vector<ProtocolVersion>& vs) {
  common::ByteWriter body;
  for (const auto v : vs) body.u16(static_cast<std::uint16_t>(v));
  common::ByteWriter w;
  w.vec(body.bytes(), 1);
  return {static_cast<std::uint16_t>(ExtensionType::SupportedVersions),
          w.take()};
}

std::vector<ProtocolVersion> parse_supported_versions(
    common::BytesView payload) {
  common::ByteReader r(payload);
  common::ByteReader list = r.sub(1);
  r.expect_end("supported_versions");
  std::vector<ProtocolVersion> out;
  while (!list.empty()) out.push_back(version_from_wire(list.u16()));
  return out;
}

Extension make_supported_groups(const std::vector<crypto::DhGroup>& groups) {
  common::ByteWriter body;
  for (const auto g : groups) body.u16(static_cast<std::uint16_t>(g));
  common::ByteWriter w;
  w.vec(body.bytes(), 2);
  return {static_cast<std::uint16_t>(ExtensionType::SupportedGroups),
          w.take()};
}

std::vector<crypto::DhGroup> parse_supported_groups(
    common::BytesView payload) {
  common::ByteReader r(payload);
  common::ByteReader list = r.sub(2);
  r.expect_end("supported_groups");
  std::vector<crypto::DhGroup> out;
  while (!list.empty()) {
    out.push_back(static_cast<crypto::DhGroup>(list.u16()));
  }
  return out;
}

Extension make_signature_algorithms(const std::vector<SignatureScheme>& ss) {
  common::ByteWriter body;
  for (const auto s : ss) body.u16(static_cast<std::uint16_t>(s));
  common::ByteWriter w;
  w.vec(body.bytes(), 2);
  return {static_cast<std::uint16_t>(ExtensionType::SignatureAlgorithms),
          w.take()};
}

std::vector<SignatureScheme> parse_signature_algorithms(
    common::BytesView payload) {
  common::ByteReader r(payload);
  common::ByteReader list = r.sub(2);
  r.expect_end("signature_algorithms");
  std::vector<SignatureScheme> out;
  while (!list.empty()) {
    out.push_back(static_cast<SignatureScheme>(list.u16()));
  }
  return out;
}

Extension make_status_request() {
  common::ByteWriter w;
  w.u8(1);   // status_type: ocsp
  w.u16(0);  // responder_id_list (empty)
  w.u16(0);  // request_extensions (empty)
  return {static_cast<std::uint16_t>(ExtensionType::StatusRequest), w.take()};
}

Extension make_session_ticket() {
  return {static_cast<std::uint16_t>(ExtensionType::SessionTicket), {}};
}

Extension make_alpn(const std::vector<std::string>& protocols) {
  common::ByteWriter body;
  for (const auto& p : protocols) body.str(p, 1);
  common::ByteWriter w;
  w.vec(body.bytes(), 2);
  return {static_cast<std::uint16_t>(ExtensionType::Alpn), w.take()};
}

Extension make_ec_point_formats() {
  common::ByteWriter w;
  w.u8(1);  // list length
  w.u8(0);  // uncompressed
  return {static_cast<std::uint16_t>(ExtensionType::EcPointFormats), w.take()};
}

const Extension* find_extension(const std::vector<Extension>& extensions,
                                ExtensionType type) {
  const auto it = std::find_if(
      extensions.begin(), extensions.end(), [&](const Extension& e) {
        return e.type == static_cast<std::uint16_t>(type);
      });
  return it == extensions.end() ? nullptr : &*it;
}

void write_extensions(common::ByteWriter& w,
                      const std::vector<Extension>& extensions) {
  common::ByteWriter body;
  for (const auto& ext : extensions) {
    body.u16(ext.type);
    body.vec(ext.payload, 2);
  }
  w.vec(body.bytes(), 2);
}

std::vector<Extension> read_extensions(common::ByteReader& r) {
  std::vector<Extension> out;
  common::ByteReader list = r.sub(2);
  while (!list.empty()) {
    Extension ext;
    ext.type = list.u16();
    ext.payload = list.vec(2);
    out.push_back(std::move(ext));
  }
  return out;
}

}  // namespace iotls::tls

// Certificate-chain verification with a pluggable policy.
//
// The policy knobs model the exact validation flaws the paper measures
// (Table 7): devices that skip validation entirely, devices that validate
// the chain but not the hostname (the Amazon family), and devices that
// ignore BasicConstraints. The error taxonomy deliberately separates
// UnknownIssuer from BadSignature — the distinction that powers the
// root-store probing side channel (§4.2).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/simtime.hpp"
#include "obs/trace.hpp"
#include "x509/certificate.hpp"

namespace iotls::x509 {

enum class VerifyError {
  Ok,
  EmptyChain,
  /// No trust anchor with a subject matching the chain's top issuer.
  UnknownIssuer,
  /// Anchor (or intermediate) found, but the signature does not verify
  /// under its key — the spoofed-CA case.
  BadSignature,
  Expired,
  NotYetValid,
  HostnameMismatch,
  /// An issuing certificate in the chain lacks CA=true BasicConstraints.
  InvalidBasicConstraints,
  /// The leaf's serial appears on a revocation list (§6 extension).
  Revoked,
  /// The presented leaf does not match the client's pin (§6 extension:
  /// "the interception attacks we presented could have been prevented
  /// with the proper use of certificate pinning").
  PinMismatch,
};

std::string verify_error_name(VerifyError err);

/// The pipeline stage a given error comes from ("validity", "signature",
/// "hostname", ...) — the `failing_check` attribute in traces.
std::string verify_check_name(VerifyError err);

/// Which checks a client performs. Defaults are a correct validator.
struct VerifyPolicy {
  /// Master switch — false models devices with no validation at all
  /// (Table 7 "NoValidation" rows). Every other knob is then ignored.
  bool validate = true;
  bool check_signature = true;
  bool check_hostname = true;
  bool check_basic_constraints = true;
  bool check_validity = true;

  bool operator==(const VerifyPolicy&) const = default;

  static VerifyPolicy strict() { return VerifyPolicy{}; }
  static VerifyPolicy none() { return VerifyPolicy{.validate = false}; }
  static VerifyPolicy no_hostname() {
    return VerifyPolicy{.check_hostname = false};
  }
};

struct VerifyResult {
  VerifyError error = VerifyError::Ok;
  /// Chain index (0 = leaf) where the failure occurred, -1 if n/a.
  int failed_depth = -1;

  [[nodiscard]] bool ok() const { return error == VerifyError::Ok; }
};

/// Verify a server chain (leaf first, optionally ending in a root) against
/// a set of trust anchors.
///
/// Trust anchors are looked up by subject DN; a presented self-signed root
/// is ignored in favour of the store's copy of the key — precisely how the
/// spoofed-CA probe forces a BadSignature instead of a silent accept.
///
/// `span` (non-owning, may be null) receives one `x509_check` event per
/// pipeline stage at TraceLevel::Full, in check order, each marked
/// pass/fail/skipped/not_reached.
VerifyResult verify_chain(std::span<const Certificate> chain,
                          std::string_view hostname,
                          std::span<const Certificate> trust_anchors,
                          common::SimDate now,
                          const VerifyPolicy& policy = VerifyPolicy::strict(),
                          obs::Span* span = nullptr);

}  // namespace iotls::x509

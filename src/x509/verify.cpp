#include "x509/verify.hpp"

#include <algorithm>
#include <vector>

#include "crypto/cache.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

namespace iotls::x509 {

std::string verify_error_name(VerifyError err) {
  switch (err) {
    case VerifyError::Ok: return "ok";
    case VerifyError::EmptyChain: return "empty_chain";
    case VerifyError::UnknownIssuer: return "unknown_issuer";
    case VerifyError::BadSignature: return "bad_signature";
    case VerifyError::Expired: return "expired";
    case VerifyError::NotYetValid: return "not_yet_valid";
    case VerifyError::HostnameMismatch: return "hostname_mismatch";
    case VerifyError::InvalidBasicConstraints:
      return "invalid_basic_constraints";
    case VerifyError::Revoked: return "revoked";
    case VerifyError::PinMismatch: return "pin_mismatch";
  }
  return "unknown";
}

std::string verify_check_name(VerifyError err) {
  switch (err) {
    case VerifyError::Ok: return "none";
    case VerifyError::EmptyChain: return "chain_present";
    case VerifyError::NotYetValid:
    case VerifyError::Expired: return "validity";
    case VerifyError::UnknownIssuer:
    case VerifyError::BadSignature: return "signature";
    case VerifyError::InvalidBasicConstraints: return "basic_constraints";
    case VerifyError::HostnameMismatch: return "hostname";
    case VerifyError::Revoked: return "revocation";
    case VerifyError::PinMismatch: return "pinning";
  }
  return "unknown";
}

namespace {

const Certificate* find_anchor(std::span<const Certificate> anchors,
                               const DistinguishedName& subject) {
  const auto it =
      std::find_if(anchors.begin(), anchors.end(), [&](const Certificate& c) {
        return c.tbs.subject == subject;
      });
  return it == anchors.end() ? nullptr : &*it;
}

/// The per-call state the expensive stages depend on, computed once: the
/// effective chain (presented self-signed root dropped when the store has
/// it) and, when signatures are checked, the issuer key each certificate
/// verifies under. Two trust stores that resolve the same issuer keys are
/// interchangeable for verification — which is exactly what lets the chain
/// cache key on the *resolved* keys instead of hashing the whole store.
struct ResolvedChain {
  std::span<const Certificate> certs;
  /// Parallel to `certs` while resolution succeeds; a trailing nullptr
  /// marks the first UnknownIssuer (resolution stops there). Empty when
  /// the policy skips signature checks.
  std::vector<const crypto::RsaPublicKey*> issuer_keys;
};

ResolvedChain resolve_chain(std::span<const Certificate> chain,
                            std::span<const Certificate> trust_anchors,
                            const VerifyPolicy& policy) {
  ResolvedChain resolved;
  std::size_t effective_len = chain.size();
  if (effective_len > 1 && chain[effective_len - 1].is_self_signed() &&
      find_anchor(trust_anchors, chain[effective_len - 1].tbs.subject)) {
    --effective_len;
  }
  resolved.certs = chain.first(effective_len);

  if (policy.check_signature) {
    for (std::size_t i = 0; i < resolved.certs.size(); ++i) {
      const Certificate& cert = resolved.certs[i];
      const crypto::RsaPublicKey* issuer_key = nullptr;
      if (i + 1 < resolved.certs.size() &&
          resolved.certs[i + 1].tbs.subject == cert.tbs.issuer) {
        issuer_key = &resolved.certs[i + 1].tbs.subject_public_key;
      } else if (const Certificate* anchor =
                     find_anchor(trust_anchors, cert.tbs.issuer)) {
        issuer_key = &anchor->tbs.subject_public_key;
      }
      resolved.issuer_keys.push_back(issuer_key);
      if (issuer_key == nullptr) break;
    }
  }
  return resolved;
}

VerifyResult verify_resolved(const ResolvedChain& resolved,
                             std::string_view hostname, common::SimDate now,
                             const VerifyPolicy& policy) {
  const std::span<const Certificate> certs = resolved.certs;

  if (policy.check_validity) {
    for (std::size_t i = 0; i < certs.size(); ++i) {
      switch (certs[i].tbs.validity.position(now)) {
        case Validity::Position::Before:
          return VerifyResult{VerifyError::NotYetValid, static_cast<int>(i)};
        case Validity::Position::After:
          return VerifyResult{VerifyError::Expired, static_cast<int>(i)};
        case Validity::Position::Inside:
          break;
      }
    }
  }

  if (policy.check_signature) {
    for (std::size_t i = 0; i < certs.size(); ++i) {
      if (resolved.issuer_keys[i] == nullptr) {
        return VerifyResult{VerifyError::UnknownIssuer, static_cast<int>(i)};
      }
      if (!crypto::rsa_verify(*resolved.issuer_keys[i],
                              certs[i].tbs.serialize(), certs[i].signature)) {
        return VerifyResult{VerifyError::BadSignature, static_cast<int>(i)};
      }
    }
  }

  if (policy.check_basic_constraints) {
    // Every certificate that issues another one in this chain must be a CA.
    for (std::size_t i = 1; i < certs.size(); ++i) {
      const auto& bc = certs[i].tbs.extensions.basic_constraints;
      if (!bc.has_value() || !bc->is_ca) {
        return VerifyResult{VerifyError::InvalidBasicConstraints,
                            static_cast<int>(i)};
      }
      if (bc->path_len_constraint.has_value() &&
          static_cast<int>(i) - 1 > *bc->path_len_constraint) {
        return VerifyResult{VerifyError::InvalidBasicConstraints,
                            static_cast<int>(i)};
      }
    }
  }

  if (policy.check_hostname && !hostname.empty()) {
    if (!certs[0].matches_hostname(hostname)) {
      return VerifyResult{VerifyError::HostnameMismatch, 0};
    }
  }

  return VerifyResult{};
}

// ---- chain-verification cache ----
//
// The full pipeline over a resolved chain is a pure function of: the
// effective certificates, the issuer keys they verify under, the policy
// knobs, the hostname, and — for validity — only *where* `now` sits
// relative to each certificate's window (Validity::position). Keying
// on that tristate instead of the raw date means a chain verified on many
// simulated days hits the same entry while it stays inside (or outside)
// its window, yet crossing not_before/not_after lands in a fresh slot —
// expiry semantics are untouched.

std::uint64_t pack_result(const VerifyResult& result) {
  return (static_cast<std::uint64_t>(static_cast<std::uint8_t>(result.error))
          << 32) |
         static_cast<std::uint32_t>(result.failed_depth);
}

VerifyResult unpack_result(std::uint64_t packed) {
  VerifyResult result;
  result.error =
      static_cast<VerifyError>(static_cast<std::uint8_t>(packed >> 32));
  result.failed_depth =
      static_cast<int>(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(packed)));
  return result;
}

crypto::DigestKey chain_cache_key(const ResolvedChain& resolved,
                                  std::string_view hostname,
                                  common::SimDate now,
                                  const VerifyPolicy& policy) {
  common::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(
      (policy.check_signature ? 1U : 0U) |
      (policy.check_hostname ? 2U : 0U) |
      (policy.check_basic_constraints ? 4U : 0U) |
      (policy.check_validity ? 8U : 0U)));
  w.str(hostname, 2);
  w.u8(static_cast<std::uint8_t>(resolved.certs.size()));
  for (const Certificate& cert : resolved.certs) {
    w.vec(cert.serialize(), 3);
    w.u8(static_cast<std::uint8_t>(cert.tbs.validity.position(now)));
  }
  w.u8(static_cast<std::uint8_t>(resolved.issuer_keys.size()));
  for (const crypto::RsaPublicKey* key : resolved.issuer_keys) {
    if (key == nullptr) {
      w.u8(0);
    } else {
      w.u8(1);
      w.vec(key->serialize(), 2);
    }
  }
  return crypto::Sha256::digest(w.bytes());
}

VerifyResult verify_impl(std::span<const Certificate> chain,
                         std::string_view hostname,
                         std::span<const Certificate> trust_anchors,
                         common::SimDate now, const VerifyPolicy& policy) {
  if (!policy.validate) return VerifyResult{};
  if (chain.empty()) return VerifyResult{VerifyError::EmptyChain, -1};

  const ResolvedChain resolved = resolve_chain(chain, trust_anchors, policy);

  return unpack_result(crypto::chain_verify_cache().get_or_compute(
      [&] { return chain_cache_key(resolved, hostname, now, policy); },
      [&] {
        return pack_result(verify_resolved(resolved, hostname, now, policy));
      }));
}

struct VerifyMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& result(const std::string& name) {
    return reg.counter("iotls_x509_verifications_total",
                       "Chain verifications by result", "result", name);
  }

  static VerifyMetrics& get() {
    static VerifyMetrics metrics;
    return metrics;
  }
};

/// Emit one `x509_check` event per pipeline stage, in the order the
/// verifier runs them, reconstructed from the final result (the pipeline
/// is short-circuiting, so the result pins down every stage's status).
void trace_checks(obs::Span& span, const VerifyPolicy& policy,
                  const VerifyResult& result) {
  struct Stage {
    const char* name;
    bool enabled;
  };
  const Stage stages[] = {
      {"chain_present", true},
      {"validity", policy.check_validity},
      {"signature", policy.check_signature},
      {"basic_constraints", policy.check_basic_constraints},
      {"hostname", policy.check_hostname},
  };
  const std::string failing = verify_check_name(result.error);
  bool reached = true;
  for (const auto& stage : stages) {
    std::string status;
    if (!stage.enabled) {
      status = "skipped";
    } else if (!reached) {
      status = "not_reached";
    } else if (!result.ok() && failing == stage.name) {
      status = "fail";
      reached = false;
    } else {
      status = "pass";
    }
    std::vector<obs::Attr> attrs{{"check", stage.name}, {"status", status}};
    if (status == "fail") {
      attrs.emplace_back("error", verify_error_name(result.error));
      attrs.emplace_back("depth", std::to_string(result.failed_depth));
    }
    span.event("x509_check", std::move(attrs));
  }
}

}  // namespace

VerifyResult verify_chain(std::span<const Certificate> chain,
                          std::string_view hostname,
                          std::span<const Certificate> trust_anchors,
                          common::SimDate now, const VerifyPolicy& policy,
                          obs::Span* span) {
  const VerifyResult result =
      verify_impl(chain, hostname, trust_anchors, now, policy);
  if (obs::metrics_enabled()) {
    VerifyMetrics::get().result(verify_error_name(result.error)).inc();
  }
  if (span != nullptr && span->full() && policy.validate) {
    trace_checks(*span, policy, result);
  }
  return result;
}

}  // namespace iotls::x509

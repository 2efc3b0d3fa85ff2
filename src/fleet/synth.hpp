// Streaming fleet synthesis: millions of instances' passive captures,
// flushed shard-by-shard into the capture store without ever materializing
// the fleet.
//
// The trick that makes a million instances tractable is that instances are
// *behaviorally degenerate*: every instance of a model on the same
// firmware epoch with the same clock drift produces byte-identical
// handshakes (per-connection randomness never reaches a capture record).
// So real handshakes run once per (model, epoch, drift) — a few hundred
// sandbox replays, each of which runs a destination's handshake only when
// its inputs change (testbed::replay_months) — and per-instance synthesis
// reduces to stamping those template records with the instance's
// identity, months, and sampled connection counts. Each set is computed
// once, by whichever worker first asks for it, while the others wait for
// it (common::Memo's single-flight contract). Peak RSS is the template
// sets plus one shard writer per worker, at any fleet size.
#pragma once

#include <cstdint>
#include <string>

#include "fleet/fleet.hpp"
#include "pki/universe.hpp"
#include "store/writer.hpp"

namespace iotls::fleet {

struct SynthOptions {
  FleetOptions fleet;
  /// Defaults to CaUniverse::standard().
  const pki::CaUniverse* universe = nullptr;
  /// Worker threads for the shard fan-out (0 = hardware concurrency,
  /// 1 = serial). Shard bytes are identical for every value.
  std::size_t threads = 0;
  /// Instances per shard file — the streaming granularity.
  std::uint64_t shard_instances = 65536;
  /// Months each instance is observed in (sampled from its alive window).
  std::size_t months_per_instance = 3;
  /// Destinations contacted per observed month.
  std::size_t dests_per_month = 2;
  std::size_t block_bytes = store::kDefaultBlockBytes;
  /// Recover a crashed run: shards already on disk that validate (and
  /// match this fleet's header) are kept; missing or truncated shards are
  /// regenerated byte-identically. Off, pre-existing shards are an error
  /// (write_store's append-only contract).
  bool resume = false;
};

struct SynthReport {
  std::uint64_t instances = 0;
  std::uint64_t shards = 0;
  std::uint64_t reused_shards = 0;  ///< resume: shards kept from disk
  std::uint64_t groups = 0;
  std::uint64_t connections = 0;  ///< weighted (sum of group counts)
  std::uint64_t bytes = 0;
  std::uint64_t template_sets = 0;
  std::uint64_t template_handshakes = 0;
};

/// "fleet-000042.iotshard"
std::string fleet_shard_name(std::uint32_t index);

/// Synthesize the fleet's passive captures into `dir` (created if
/// missing), one shard per `shard_instances` contiguous instance indices.
/// Byte-identical output at any thread count; RSS bounded by the template
/// sets + one shard writer per worker.
SynthReport synthesize_fleet(const SynthOptions& options,
                             const std::string& dir);

}  // namespace iotls::fleet

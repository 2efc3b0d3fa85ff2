// Fleet determinism suite (integration): the ISSUE acceptance contract —
// synthesis and campaign outputs are byte-identical at every thread count,
// different fleet seeds give disjoint device identities, and a truncated
// shard is regenerated byte-identically under resume while intact shards
// are reused.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "fleet/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/synth.hpp"
#include "pki/universe.hpp"
#include "store/format.hpp"
#include "store/io.hpp"
#include "store/reader.hpp"

namespace iotls::fleet {
namespace {

namespace fs = std::filesystem;

// A reduced CA universe: building the standard 208-root universe costs
// several seconds of key generation; 30+58 keeps every probe path alive
// (including the deprecated-CA candidates) at a fraction of the cost.
const pki::CaUniverse& small_universe() {
  static const pki::CaUniverse universe = [] {
    pki::CaUniverse::Options opts;
    opts.common_count = 30;
    opts.deprecated_count = 58;
    return pki::CaUniverse(opts);
  }();
  return universe;
}

SynthOptions base_synth() {
  SynthOptions options;
  options.fleet.seed = 4242;
  options.fleet.instances = 2'500;
  options.fleet.devices = {"Yi Camera", "Amazon Echo Dot"};
  options.universe = &small_universe();
  options.shard_instances = 1'000;  // 3 shards
  return options;
}

CampaignOptions base_campaign() {
  CampaignOptions options;
  options.fleet = base_synth().fleet;
  options.universe = &small_universe();
  options.sample_fraction.fill(0.10);
  options.range_instances = 512;
  return options;
}

/// Every shard in `dir`, concatenated in list order.
std::string store_bytes(const std::string& dir) {
  std::string bytes;
  for (const auto& path : store::list_shards(dir)) {
    store::CheckedFile file = store::CheckedFile::open_read(path);
    char buffer[64 * 1024];
    for (;;) {
      const std::size_t n = file.read(buffer, sizeof(buffer));
      if (n == 0) break;
      bytes.append(buffer, n);
    }
  }
  return bytes;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FleetSynthDeterminism, ThreadCountsProduceByteIdenticalShards) {
  TempDir dir1("iotls_fleet_det_t1");
  TempDir dir8("iotls_fleet_det_t8");
  SynthOptions options = base_synth();
  options.threads = 1;
  const SynthReport serial = synthesize_fleet(options, dir1.path());
  options.threads = 8;
  const SynthReport parallel = synthesize_fleet(options, dir8.path());

  EXPECT_EQ(serial.instances, options.fleet.instances);
  EXPECT_EQ(serial.shards, 3u);
  EXPECT_EQ(serial.groups, parallel.groups);
  EXPECT_EQ(serial.connections, parallel.connections);
  EXPECT_EQ(serial.bytes, parallel.bytes);

  const auto shards1 = store::list_shards(dir1.path());
  const auto shards8 = store::list_shards(dir8.path());
  ASSERT_EQ(shards1.size(), shards8.size());
  for (std::size_t i = 0; i < shards1.size(); ++i) {
    EXPECT_EQ(fs::path(shards1[i]).filename(), fs::path(shards8[i]).filename());
  }
  const std::string bytes1 = store_bytes(dir1.path());
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, store_bytes(dir8.path()));
  // Absolute anchor on the reduced-scale shard set: moves only when a
  // template handshake, an instance draw or the shard encoding changes.
  EXPECT_EQ(
      common::hex_encode(crypto::Sha256::digest(common::to_bytes(bytes1))),
      "2e1ccd25d857b39f908fbd4d05879693fa6ed401aa78f767ec8368759fa16e30");
}

TEST(FleetSynthDeterminism, DifferentSeedsGiveDisjointIdentities) {
  SynthOptions options = base_synth();
  const FleetModel fleet_a(options.fleet);
  FleetOptions other = options.fleet;
  other.seed = options.fleet.seed + 1;
  const FleetModel fleet_b(other);
  std::set<std::uint64_t> uids;
  for (std::uint64_t i = 0; i < options.fleet.instances; ++i) {
    uids.insert(fleet_a.instance(i).uid);
    uids.insert(fleet_b.instance(i).uid);
  }
  EXPECT_EQ(uids.size(), 2 * options.fleet.instances);
}

TEST(FleetSynthDeterminism, ResumeRegeneratesTruncatedShardByteIdentically) {
  TempDir dir("iotls_fleet_det_resume");
  SynthOptions options = base_synth();
  options.threads = 2;
  const SynthReport first = synthesize_fleet(options, dir.path());
  const std::string reference = store_bytes(dir.path());

  // Without resume, the run refuses to touch a populated directory.
  EXPECT_THROW(synthesize_fleet(options, dir.path()), store::StoreIoError);

  // Truncate the middle shard (clipping the footer), as a crash would.
  const auto shards = store::list_shards(dir.path());
  ASSERT_EQ(shards.size(), 3u);
  const std::string victim = shards[1];
  const std::uint64_t full_size = store::file_size(victim);
  fs::resize_file(victim, full_size / 2);

  options.resume = true;
  const SynthReport resumed = synthesize_fleet(options, dir.path());
  EXPECT_EQ(resumed.reused_shards, 2u);
  EXPECT_EQ(resumed.shards, first.shards);
  EXPECT_EQ(store::file_size(victim), full_size);
  EXPECT_EQ(store_bytes(dir.path()), reference);
}

TEST(FleetSynthDeterminism, ResumeRegeneratesForeignFleetsShards) {
  TempDir dir("iotls_fleet_det_foreign");
  TempDir fresh("iotls_fleet_det_foreign_fresh");
  SynthOptions options = base_synth();
  options.threads = 1;
  (void)synthesize_fleet(options, dir.path());
  // Resume under a different fleet seed: every shard header mismatches, so
  // nothing is reused and the directory converges on the new fleet's bytes
  // (resume never silently mixes two fleets).
  options.fleet.seed += 1;
  options.resume = true;
  const SynthReport resumed = synthesize_fleet(options, dir.path());
  EXPECT_EQ(resumed.reused_shards, 0u);
  options.resume = false;
  (void)synthesize_fleet(options, fresh.path());
  EXPECT_EQ(store_bytes(dir.path()), store_bytes(fresh.path()));
}

TEST(FleetCampaignDeterminism, TablesIdenticalAcrossThreads) {
  CampaignOptions options = base_campaign();
  options.threads = 1;
  const CampaignReport serial = run_campaign(options);
  options.threads = 8;
  const CampaignReport threaded = run_campaign(options);

  EXPECT_GT(serial.tables.scanned, 0u);
  EXPECT_GT(serial.probe_keys, 0u);
  EXPECT_EQ(serial.probe_keys, threaded.probe_keys);
  const std::string rendered = serial.tables.render();
  EXPECT_EQ(rendered, threaded.tables.render());
}

TEST(FleetCampaignDeterminism, ScanStoreIsByteIdenticalAcrossThreads) {
  TempDir dir1("iotls_fleet_det_scan_t1");
  TempDir dir8("iotls_fleet_det_scan_t8");
  CampaignOptions options = base_campaign();
  options.threads = 1;
  options.scan_store_dir = dir1.path();
  const CampaignReport serial = run_campaign(options);
  options.threads = 8;
  options.scan_store_dir = dir8.path();
  const CampaignReport threaded = run_campaign(options);

  EXPECT_GT(serial.store.total_groups(), 0u);
  EXPECT_EQ(serial.store.total_groups(), threaded.store.total_groups());
  const auto shards = store::list_shards(dir1.path());
  ASSERT_FALSE(shards.empty());
  // Campaign stores carry the scan- prefix via StoreOptions::shard_namer.
  EXPECT_EQ(fs::path(shards.front()).filename(), "scan-0000.iotshard");
  const std::string bytes1 = store_bytes(dir1.path());
  EXPECT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, store_bytes(dir8.path()));
}

}  // namespace
}  // namespace iotls::fleet

#include "fleet/synth.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>  // snprintf for shard names (not raw file I/O)
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/memo.hpp"
#include "common/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "store/reader.hpp"
#include "testbed/testbed.hpp"

namespace iotls::fleet {

namespace {

/// Template set key: which sandbox replay an instance's records come from.
struct TemplateKey {
  std::uint32_t model = 0;
  int epoch = 0;
  int drift_bucket = 0;

  bool operator==(const TemplateKey&) const = default;
};

struct TemplateKeyHash {
  std::size_t operator()(const TemplateKey& key) const {
    return static_cast<std::size_t>(key.model) * 31 +
           static_cast<std::size_t>(key.epoch) * 5 +
           static_cast<std::size_t>(key.drift_bucket);
  }
};

/// One model's full passive window replayed on one firmware epoch with one
/// clock drift: records[(month_offset, destination_index)] holds the
/// capture records of that connection (two when a fallback retry fired).
struct TemplateSet {
  std::map<std::pair<int, int>, std::vector<net::HandshakeRecord>> records;
  /// Connections the replay actually ran (the rest were re-stamped).
  std::uint64_t handshakes = 0;
};

struct FleetMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  obs::Counter& instances = reg.counter(
      "iotls_fleet_instances_synthesized_total",
      "Fleet instances expanded and written to the capture store");

  obs::Counter& template_sets = reg.counter(
      "iotls_fleet_template_sets_total",
      "Template sets computed by sandbox replay (model x epoch x drift)");

  obs::Counter& template_handshakes = reg.counter(
      "iotls_fleet_template_handshakes_total",
      "Real handshakes run while computing fleet template sets");

  static FleetMetrics& get() {
    static FleetMetrics metrics;
    return metrics;
  }
};

/// Pick `want` distinct values from [base, base + size), sorted — partial
/// Fisher-Yates over a scratch index vector, all draws from `rng`.
std::vector<int> sample_sorted(common::Rng& rng, int base, std::size_t size,
                               std::size_t want) {
  std::vector<int> values(size);
  std::iota(values.begin(), values.end(), base);
  const std::size_t picks = std::min(want, size);
  for (std::size_t k = 0; k < picks; ++k) {
    std::swap(values[k], values[k + rng.uniform(size - k)]);
  }
  values.resize(picks);
  std::sort(values.begin(), values.end());
  return values;
}

std::shared_ptr<const TemplateSet> compute_template_set(
    const FleetModel& fleet, const pki::CaUniverse& universe,
    TemplateKey key) {
  const obs::ProfileZone zone("fleet/template_set");
  // The runtime is built over the frozen profile, so the epoch's
  // configuration — not the live update timeline — drives every handshake.
  const devices::DeviceProfile frozen =
      fleet.frozen_profile(key.model, key.epoch);
  const auto [first_off, last_off] = fleet.window(key.model);

  auto set = std::make_shared<TemplateSet>();
  set->handshakes = testbed::replay_months(
      frozen, universe, fleet.options().seed,
      common::month_range(common::kStudyStart.plus(first_off),
                          common::kStudyStart.plus(last_off)),
      kDriftDays[static_cast<std::size_t>(key.drift_bucket)],
      [&](std::size_t m, std::size_t d,
          std::vector<net::HandshakeRecord> records) {
        set->records[{first_off + static_cast<int>(m), static_cast<int>(d)}] =
            std::move(records);
      });
  return set;
}

}  // namespace

std::string fleet_shard_name(std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "fleet-%06u%s", index,
                store::kShardSuffix);
  return name;
}

SynthReport synthesize_fleet(const SynthOptions& options,
                             const std::string& dir) {
  namespace fs = std::filesystem;
  const pki::CaUniverse& universe =
      options.universe != nullptr ? *options.universe
                                  : pki::CaUniverse::standard();
  const FleetModel fleet(options.fleet);
  // Each set is computed once, whichever worker asks first; the report
  // and the metrics count it there.
  common::Memo<TemplateKey, std::shared_ptr<const TemplateSet>,
               TemplateKeyHash>
      template_sets;
  std::atomic<std::uint64_t> sets_computed{0};
  std::atomic<std::uint64_t> handshakes_run{0};
  const auto template_set = [&](TemplateKey key) {
    return template_sets.get_or_compute(key, [&] {
      auto set = compute_template_set(fleet, universe, key);
      sets_computed.fetch_add(1, std::memory_order_relaxed);
      handshakes_run.fetch_add(set->handshakes, std::memory_order_relaxed);
      if (obs::metrics_enabled()) {
        FleetMetrics::get().template_sets.inc();
        FleetMetrics::get().template_handshakes.inc(set->handshakes);
      }
      return set;
    });
  };

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw store::StoreIoError("cannot create fleet store directory " + dir +
                              ": " + ec.message());
  }

  const std::uint64_t count = options.fleet.instances;
  const std::uint64_t per = std::max<std::uint64_t>(options.shard_instances, 1);
  const std::uint32_t shard_count =
      count == 0 ? 1 : static_cast<std::uint32_t>((count + per - 1) / per);

  struct ShardOutcome {
    store::ShardInfo info;
    bool reused = false;
    std::uint64_t connections = 0;
  };

  std::vector<std::uint32_t> indices(shard_count);
  std::iota(indices.begin(), indices.end(), 0u);
  auto outcomes = common::parallel_map(
      options.threads, indices, [&](const std::uint32_t index) {
        const fs::path path = fs::path(dir) / fleet_shard_name(index);
        store::ShardHeader header;
        header.seed = options.fleet.seed;
        header.first = options.fleet.first;
        header.last = options.fleet.last;
        header.shard_index = index;
        header.shard_count = shard_count;
        header.label = "fleet";

        if (fs::exists(path)) {
          if (!options.resume) {
            throw store::StoreIoError(
                "refusing to overwrite existing shard " + path.string() +
                " (set resume to recover a crashed run)");
          }
          // Keep the shard only if it is complete (footer present, every
          // CRC good) and belongs to exactly this fleet; anything else —
          // truncated mid-crash, stale seed — is regenerated in place.
          ShardOutcome outcome;
          bool reusable = false;
          try {
            store::ShardReader reader(path.string());
            if (reader.header() == header) {
              std::vector<testbed::PassiveConnectionGroup> block;
              while (reader.next(&block)) {
                for (const auto& group : block) {
                  outcome.connections += group.count;
                }
              }
              outcome.info.path = path.string();
              outcome.info.header = reader.header();
              outcome.info.groups = reader.groups_read();
              outcome.info.blocks = reader.blocks_read();
              outcome.info.bytes = fs::file_size(path);
              reusable = true;
            }
          } catch (const store::StoreError&) {
            reusable = false;
          }
          if (reusable) {
            outcome.reused = true;
            return outcome;
          }
          fs::remove(path);
        }

        const obs::ProfileZone zone("fleet/synth_shard");
        ShardOutcome outcome;
        store::ShardWriter writer(path.string(), header, options.block_bytes);
        const std::uint64_t begin = static_cast<std::uint64_t>(index) * per;
        const std::uint64_t end = std::min(count, begin + per);
        for (std::uint64_t id = begin; id < end; ++id) {
          const InstanceSpec spec = fleet.instance(id);
          if (spec.death < spec.birth) continue;  // window never overlapped
          // The observation stream is keyed by the instance uid alone —
          // like the spec itself, it is order- and shard-independent.
          common::Rng obs_rng(common::split_seed(spec.uid, "fleet-obs"));
          const std::size_t window_len =
              static_cast<std::size_t>(spec.death - spec.birth) + 1;
          const std::vector<int> months =
              sample_sorted(obs_rng, spec.birth, window_len,
                            options.months_per_instance);
          const auto& model = *fleet.models()[spec.model];
          for (const int off : months) {
            const common::Month month = common::kStudyStart.plus(off);
            const int epoch = fleet.epoch_at(spec, month);
            const auto set =
                template_set({spec.model, epoch, spec.drift_bucket});
            const std::string device = fleet.label(spec, month);
            const std::vector<int> dests =
                sample_sorted(obs_rng, 0, model.destinations.size(),
                              options.dests_per_month);
            for (const int d : dests) {
              const std::uint64_t group_count = 1 + obs_rng.uniform(24);
              const auto it = set->records.find({off, d});
              if (it == set->records.end()) continue;
              for (const auto& record : it->second) {
                testbed::PassiveConnectionGroup group;
                group.record = record;
                group.record.device = device;
                group.count = group_count;
                outcome.connections += group.count;
                writer.add(group);
              }
            }
          }
        }
        outcome.info = writer.close();
        if (obs::metrics_enabled()) {
          FleetMetrics::get().instances.inc(end - begin);
        }
        return outcome;
      });

  SynthReport report;
  report.instances = count;
  report.shards = shard_count;
  for (const auto& outcome : outcomes) {
    if (outcome.reused) ++report.reused_shards;
    report.groups += outcome.info.groups;
    report.bytes += outcome.info.bytes;
    report.connections += outcome.connections;
  }
  report.template_sets = sets_computed.load();
  report.template_handshakes = handshakes_run.load();
  return report;
}

}  // namespace iotls::fleet

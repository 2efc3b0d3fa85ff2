#include "store/codec.hpp"

#include <algorithm>
#include <utility>

#include "obs/profile.hpp"
#include "tls/version.hpp"

namespace iotls::store {

namespace {

// Group flag bits (flags byte).
constexpr std::uint8_t kFlagOcspStaple = 1u << 0;
constexpr std::uint8_t kFlagSni = 1u << 1;
constexpr std::uint8_t kFlagComplete = 1u << 2;
constexpr std::uint8_t kFlagAppData = 1u << 3;
constexpr std::uint8_t kFlagEstVersion = 1u << 4;
constexpr std::uint8_t kFlagEstSuite = 1u << 5;
constexpr std::uint8_t kFlagClientAlert = 1u << 6;
constexpr std::uint8_t kFlagServerAlert = 1u << 7;

std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1u);
}

/// Id lists (suites, extensions, groups, sigalgs) are mostly ascending, so
/// zigzag deltas from the previous entry pack most values into one byte.
void put_u16_list(common::Bytes* out, const std::vector<std::uint16_t>& ids) {
  put_varint(out, ids.size());
  std::int64_t prev = 0;
  for (const std::uint16_t id : ids) {
    put_svarint(out, static_cast<std::int64_t>(id) - prev);
    prev = id;
  }
}

std::vector<std::uint16_t> read_u16_list(CodecReader* reader) {
  const std::uint64_t n = reader->varint();
  // A list cannot be longer than the remaining payload (≥1 byte/entry) —
  // reject early so a forged count cannot drive a giant allocation.
  if (n > reader->remaining()) {
    throw StoreFormatError("id list length " + std::to_string(n) +
                           " exceeds remaining payload");
  }
  std::vector<std::uint16_t> out;
  out.reserve(static_cast<std::size_t>(n));
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t value = prev + reader->svarint();
    if (value < 0 || value > 0xFFFF) {
      throw StoreFormatError("id list entry out of u16 range: " +
                             std::to_string(value));
    }
    out.push_back(static_cast<std::uint16_t>(value));
    prev = value;
  }
  return out;
}

void put_alert(common::Bytes* out, const tls::Alert& alert) {
  out->push_back(static_cast<std::uint8_t>(alert.level));
  out->push_back(static_cast<std::uint8_t>(alert.description));
}

tls::Alert read_alert(CodecReader* reader) {
  tls::Alert alert;
  const std::uint8_t level = reader->u8();
  if (level != 1 && level != 2) {
    throw StoreFormatError("alert level out of range: " +
                           std::to_string(level));
  }
  alert.level = static_cast<tls::AlertLevel>(level);
  alert.description = static_cast<tls::AlertDescription>(reader->u8());
  return alert;
}

tls::ProtocolVersion read_version(CodecReader* reader) {
  const std::uint64_t wire = reader->varint();
  if (wire > 0xFFFF) {
    throw StoreFormatError("protocol version out of u16 range");
  }
  try {
    return tls::version_from_wire(static_cast<std::uint16_t>(wire));
  } catch (const common::ParseError& e) {
    throw StoreFormatError(std::string("bad protocol version: ") + e.what());
  }
}

}  // namespace

void put_varint(common::Bytes* out, std::uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(value));
}

void put_svarint(common::Bytes* out, std::int64_t value) {
  put_varint(out, zigzag(value));
}

std::uint64_t CodecReader::varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos_ >= data_.size()) {
      throw StoreFormatError("varint runs past end of payload");
    }
    const std::uint8_t byte = data_[pos_++];
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      if (i == 9 && byte > 1) {
        throw StoreFormatError("varint overflows 64 bits");
      }
      return value;
    }
    shift += 7;
  }
  throw StoreFormatError("varint longer than 10 bytes");
}

std::int64_t CodecReader::svarint() { return unzigzag(varint()); }

std::uint8_t CodecReader::u8() {
  if (pos_ >= data_.size()) {
    throw StoreFormatError("byte read past end of payload");
  }
  return data_[pos_++];
}

std::string CodecReader::str(std::size_t len) {
  if (len > remaining()) {
    throw StoreFormatError("string length " + std::to_string(len) +
                           " exceeds remaining payload");
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::uint32_t StringDictionary::intern(const std::string& text) {
  const auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(by_id_.size());
  by_id_.push_back(text);
  pending_.push_back(text);
  ids_.emplace(text, id);
  return id;
}

std::vector<std::string> StringDictionary::take_pending() {
  return std::exchange(pending_, {});
}

void StringDictionary::append(std::string text) {
  by_id_.push_back(std::move(text));
}

const std::string& StringDictionary::at(std::uint32_t id) const {
  if (id >= by_id_.size()) {
    throw StoreFormatError("dictionary id " + std::to_string(id) +
                           " out of range (size " +
                           std::to_string(by_id_.size()) + ")");
  }
  return by_id_[id];
}

std::uint8_t version_stats_bit(tls::ProtocolVersion v) {
  return static_cast<std::uint8_t>(static_cast<std::uint16_t>(v) - 0x0300);
}

namespace {

/// Update a (id, string) lexicographic min/max pair.
void track_string(const std::string& text, std::uint32_t id, bool first,
                  std::string* min_text, std::uint32_t* min_id,
                  std::string* max_text, std::uint32_t* max_id) {
  if (first || text < *min_text) {
    *min_text = text;
    *min_id = id;
  }
  if (first || text > *max_text) {
    *max_text = text;
    *max_id = id;
  }
}

/// (true-seen, false-seen) bit pair for boolean column `column` (0-3).
std::uint8_t bool_pair_bit(int column, bool value) {
  return static_cast<std::uint8_t>(1u << (2 * column + (value ? 0 : 1)));
}

}  // namespace

void BlockEncoder::add(const testbed::PassiveConnectionGroup& group,
                       StringDictionary* dict) {
  if (fresh_) {
    prev_month_index_ = delta_base_.index();
    fresh_ = false;
  }
  const auto& r = group.record;
  const std::uint32_t device_id = dict->intern(r.device);
  const std::uint32_t dest_id = dict->intern(r.destination);
  BlockStats& s = pending_stats_;
  const bool first = s.groups == 0;
  track_string(r.device, device_id, first, &device_min_, &s.device_min_id,
               &device_max_, &s.device_max_id);
  track_string(r.destination, dest_id, first, &dest_min_, &s.dest_min_id,
               &dest_max_, &s.dest_max_id);
  const auto month_index = static_cast<std::uint32_t>(r.month.index());
  if (first || month_index < s.month_min) s.month_min = month_index;
  if (first || month_index > s.month_max) s.month_max = month_index;
  if (first || group.count < s.count_min) s.count_min = group.count;
  if (first || group.count > s.count_max) s.count_max = group.count;
  for (const auto v : r.advertised_versions) {
    s.adv_version_mask |= static_cast<std::uint8_t>(1u << version_stats_bit(v));
  }
  for (const auto suite : r.advertised_suites) {
    s.suite_bloom |= 1ull << (suite % 64);
  }
  if (r.established_version.has_value()) {
    s.est_version_mask |= static_cast<std::uint8_t>(
        1u << version_stats_bit(*r.established_version));
  } else {
    s.est_version_mask |= BlockStats::kEstNoneBit;
  }
  if (r.established_suite.has_value()) {
    s.est_version_mask |= BlockStats::kEstSuiteBit;
    if (*r.established_suite < s.est_suite_min) {
      s.est_suite_min = *r.established_suite;
    }
    if (*r.established_suite > s.est_suite_max) {
      s.est_suite_max = *r.established_suite;
    }
  } else {
    s.est_version_mask |= BlockStats::kEstNoSuiteBit;
  }
  s.bool_mask |= bool_pair_bit(0, r.handshake_complete);
  s.bool_mask |= bool_pair_bit(1, r.application_data_seen);
  s.bool_mask |= bool_pair_bit(2, r.sent_sni);
  s.bool_mask |= bool_pair_bit(3, r.requested_ocsp_staple);
  s.alert_dir_mask |= static_cast<std::uint8_t>(
      1u << static_cast<int>(r.first_fatal_alert_direction));
  ++s.groups;

  put_varint(&body_, device_id);
  put_varint(&body_, dest_id);
  put_svarint(&body_, r.month.index() - prev_month_index_);
  prev_month_index_ = r.month.index();
  put_varint(&body_, group.count);

  put_varint(&body_, r.advertised_versions.size());
  for (const auto v : r.advertised_versions) {
    put_varint(&body_, static_cast<std::uint16_t>(v));
  }
  put_u16_list(&body_, r.advertised_suites);
  put_u16_list(&body_, r.extension_types);
  put_u16_list(&body_, r.advertised_groups);
  put_u16_list(&body_, r.advertised_sigalgs);

  std::uint8_t flags = 0;
  if (r.requested_ocsp_staple) flags |= kFlagOcspStaple;
  if (r.sent_sni) flags |= kFlagSni;
  if (r.handshake_complete) flags |= kFlagComplete;
  if (r.application_data_seen) flags |= kFlagAppData;
  if (r.established_version.has_value()) flags |= kFlagEstVersion;
  if (r.established_suite.has_value()) flags |= kFlagEstSuite;
  if (r.client_alert.has_value()) flags |= kFlagClientAlert;
  if (r.server_alert.has_value()) flags |= kFlagServerAlert;
  body_.push_back(flags);
  body_.push_back(
      static_cast<std::uint8_t>(r.first_fatal_alert_direction));
  put_svarint(&body_, r.first_fatal_alert_ordinal);

  if (r.established_version.has_value()) {
    put_varint(&body_, static_cast<std::uint16_t>(*r.established_version));
  }
  if (r.established_suite.has_value()) {
    put_varint(&body_, *r.established_suite);
  }
  if (r.client_alert.has_value()) put_alert(&body_, *r.client_alert);
  if (r.server_alert.has_value()) put_alert(&body_, *r.server_alert);
  ++count_;
}

common::Bytes BlockEncoder::finish(StringDictionary* dict) {
  common::Bytes payload;
  const auto entries = dict->take_pending();
  put_varint(&payload, entries.size());
  for (const auto& entry : entries) {
    put_varint(&payload, entry.size());
    payload.insert(payload.end(), entry.begin(), entry.end());
  }
  put_varint(&payload, count_);
  payload.insert(payload.end(), body_.begin(), body_.end());

  body_.clear();
  count_ = 0;
  fresh_ = true;
  last_stats_ = std::exchange(pending_stats_, BlockStats{});
  device_min_.clear();
  device_max_.clear();
  dest_min_.clear();
  dest_max_.clear();
  return payload;
}

void decode_block(common::BytesView payload, const ShardHeader& header,
                  StringDictionary* dict,
                  std::vector<testbed::PassiveConnectionGroup>* out) {
  const obs::ProfileZone zone("store/decode_block");
  CodecReader reader(payload);

  const std::uint64_t new_entries = reader.varint();
  if (new_entries > reader.remaining()) {
    throw StoreFormatError("dictionary section longer than payload");
  }
  for (std::uint64_t i = 0; i < new_entries; ++i) {
    const std::uint64_t len = reader.varint();
    dict->append(reader.str(static_cast<std::size_t>(len)));
  }

  const std::uint64_t group_count = reader.varint();
  if (group_count > reader.remaining()) {
    throw StoreFormatError("group count " + std::to_string(group_count) +
                           " exceeds remaining payload");
  }
  out->reserve(out->size() + static_cast<std::size_t>(group_count));
  int prev_month_index = header.first.index();
  for (std::uint64_t g = 0; g < group_count; ++g) {
    testbed::PassiveConnectionGroup group;
    auto& r = group.record;
    r.device = dict->at(static_cast<std::uint32_t>(reader.varint()));
    r.destination = dict->at(static_cast<std::uint32_t>(reader.varint()));
    const std::int64_t month_index = prev_month_index + reader.svarint();
    if (month_index < 0 || month_index > 12LL * 100000) {
      throw StoreFormatError("month index out of range: " +
                             std::to_string(month_index));
    }
    r.month = common::Month::from_index(static_cast<int>(month_index));
    prev_month_index = static_cast<int>(month_index);
    group.count = reader.varint();

    const std::uint64_t versions = reader.varint();
    if (versions > reader.remaining()) {
      throw StoreFormatError("version list longer than payload");
    }
    r.advertised_versions.reserve(static_cast<std::size_t>(versions));
    for (std::uint64_t i = 0; i < versions; ++i) {
      r.advertised_versions.push_back(read_version(&reader));
    }
    r.advertised_suites = read_u16_list(&reader);
    r.extension_types = read_u16_list(&reader);
    r.advertised_groups = read_u16_list(&reader);
    r.advertised_sigalgs = read_u16_list(&reader);

    const std::uint8_t flags = reader.u8();
    const std::uint8_t direction = reader.u8();
    if (direction > 2) {
      throw StoreFormatError("alert direction out of range: " +
                             std::to_string(direction));
    }
    r.requested_ocsp_staple = (flags & kFlagOcspStaple) != 0;
    r.sent_sni = (flags & kFlagSni) != 0;
    r.handshake_complete = (flags & kFlagComplete) != 0;
    r.application_data_seen = (flags & kFlagAppData) != 0;
    r.first_fatal_alert_direction =
        static_cast<net::HandshakeRecord::AlertDirection>(direction);
    const std::int64_t ordinal = reader.svarint();
    if (ordinal < -1 || ordinal > 1 << 30) {
      throw StoreFormatError("alert ordinal out of range");
    }
    r.first_fatal_alert_ordinal = static_cast<int>(ordinal);

    if ((flags & kFlagEstVersion) != 0) {
      r.established_version = read_version(&reader);
    }
    if ((flags & kFlagEstSuite) != 0) {
      const std::uint64_t suite = reader.varint();
      if (suite > 0xFFFF) {
        throw StoreFormatError("established suite out of u16 range");
      }
      r.established_suite = static_cast<std::uint16_t>(suite);
    }
    if ((flags & kFlagClientAlert) != 0) r.client_alert = read_alert(&reader);
    if ((flags & kFlagServerAlert) != 0) r.server_alert = read_alert(&reader);
    out->push_back(std::move(group));
  }
  if (!reader.empty()) {
    throw StoreFormatError("block payload has " +
                           std::to_string(reader.remaining()) +
                           " trailing bytes");
  }
}

// ---------------------------------------------------------------------------
// Shard footer
// ---------------------------------------------------------------------------

namespace {

void put_block_stats(common::Bytes* out, const BlockStats& s) {
  put_varint(out, s.groups);
  put_varint(out, s.device_min_id);
  put_varint(out, s.device_max_id);
  put_varint(out, s.dest_min_id);
  put_varint(out, s.dest_max_id);
  put_varint(out, s.month_min);
  put_varint(out, s.month_max);
  put_varint(out, s.count_min);
  put_varint(out, s.count_max);
  out->push_back(s.adv_version_mask);
  out->push_back(s.est_version_mask);
  put_varint(out, s.est_suite_min);
  put_varint(out, s.est_suite_max);
  out->push_back(s.bool_mask);
  out->push_back(s.alert_dir_mask);
  put_varint(out, s.suite_bloom);
}

std::uint32_t read_u32_field(CodecReader* reader, const char* what) {
  const std::uint64_t value = reader->varint();
  if (value > 0xFFFFFFFFull) {
    throw StoreFormatError(std::string("footer stats: ") + what +
                           " out of u32 range");
  }
  return static_cast<std::uint32_t>(value);
}

BlockStats read_block_stats(CodecReader* reader) {
  BlockStats s;
  s.groups = reader->varint();
  s.device_min_id = read_u32_field(reader, "device_min_id");
  s.device_max_id = read_u32_field(reader, "device_max_id");
  s.dest_min_id = read_u32_field(reader, "dest_min_id");
  s.dest_max_id = read_u32_field(reader, "dest_max_id");
  s.month_min = read_u32_field(reader, "month_min");
  s.month_max = read_u32_field(reader, "month_max");
  s.count_min = reader->varint();
  s.count_max = reader->varint();
  s.adv_version_mask = reader->u8();
  s.est_version_mask = reader->u8();
  const std::uint64_t suite_min = reader->varint();
  const std::uint64_t suite_max = reader->varint();
  if (suite_min > 0xFFFF || suite_max > 0xFFFF) {
    throw StoreFormatError("footer stats: established suite out of range");
  }
  s.est_suite_min = static_cast<std::uint16_t>(suite_min);
  s.est_suite_max = static_cast<std::uint16_t>(suite_max);
  s.bool_mask = reader->u8();
  s.alert_dir_mask = reader->u8();
  s.suite_bloom = reader->varint();
  return s;
}

}  // namespace

common::Bytes encode_shard_footer(const ShardFooter& footer) {
  common::Bytes payload;
  put_varint(&payload, footer.groups);
  put_varint(&payload, footer.blocks);
  put_varint(&payload, footer.dict_entries);
  payload.push_back(kFooterStatsVersion);
  put_varint(&payload, footer.block_stats.size());
  for (const auto& stats : footer.block_stats) {
    put_block_stats(&payload, stats);
  }
  put_varint(&payload, footer.dictionary.size());
  for (const auto& entry : footer.dictionary) {
    put_varint(&payload, entry.size());
    payload.insert(payload.end(), entry.begin(), entry.end());
  }
  return payload;
}

ShardFooter decode_shard_footer(common::BytesView payload) {
  CodecReader reader(payload);
  ShardFooter footer;
  footer.groups = reader.varint();
  footer.blocks = reader.varint();
  footer.dict_entries = reader.varint();
  if (reader.empty()) {
    throw StoreFormatError(
        "footer carries totals only (no block stats or dictionary)");
  }
  const std::uint8_t version = reader.u8();
  if (version != kFooterStatsVersion) {
    throw StoreFormatError("unsupported footer stats version " +
                           std::to_string(version));
  }
  const std::uint64_t stats_count = reader.varint();
  if (stats_count != footer.blocks) {
    throw StoreFormatError("footer stats cover " +
                           std::to_string(stats_count) + " blocks but the "
                           "footer counts " + std::to_string(footer.blocks));
  }
  if (stats_count > reader.remaining()) {
    throw StoreFormatError("footer stats section longer than payload");
  }
  footer.block_stats.reserve(static_cast<std::size_t>(stats_count));
  for (std::uint64_t i = 0; i < stats_count; ++i) {
    footer.block_stats.push_back(read_block_stats(&reader));
  }
  const std::uint64_t dict_count = reader.varint();
  if (dict_count != footer.dict_entries) {
    throw StoreFormatError("footer dictionary has " +
                           std::to_string(dict_count) + " entries but the "
                           "footer counts " +
                           std::to_string(footer.dict_entries));
  }
  if (dict_count > reader.remaining()) {
    throw StoreFormatError("footer dictionary longer than payload");
  }
  footer.dictionary.reserve(static_cast<std::size_t>(dict_count));
  for (std::uint64_t i = 0; i < dict_count; ++i) {
    const std::uint64_t len = reader.varint();
    footer.dictionary.push_back(reader.str(static_cast<std::size_t>(len)));
  }
  if (!reader.empty()) {
    throw StoreFormatError("trailing bytes in footer payload");
  }
  return footer;
}

// ---------------------------------------------------------------------------
// Projected row cursor
// ---------------------------------------------------------------------------

ProjectedBlockCursor::ProjectedBlockCursor(common::BytesView payload,
                                           const ShardHeader& header,
                                           std::uint32_t fields,
                                           const StringDictionary& dict)
    : reader_(payload),
      dict_(&dict),
      fields_(fields),
      prev_month_index_(header.first.index()) {
  const std::uint64_t new_entries = reader_.varint();
  if (new_entries > reader_.remaining()) {
    throw StoreFormatError("dictionary section longer than payload");
  }
  for (std::uint64_t i = 0; i < new_entries; ++i) {
    const std::uint64_t len = reader_.varint();
    (void)reader_.str(static_cast<std::size_t>(len));
  }
  rows_total_ = reader_.varint();
  if (rows_total_ > reader_.remaining() && rows_total_ != 0) {
    throw StoreFormatError("group count " + std::to_string(rows_total_) +
                           " exceeds remaining payload");
  }
}

void ProjectedBlockCursor::skip_u16_list() {
  const std::uint64_t n = reader_.varint();
  if (n > reader_.remaining()) {
    throw StoreFormatError("id list length " + std::to_string(n) +
                           " exceeds remaining payload");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    (void)reader_.svarint();
  }
}

void ProjectedBlockCursor::read_u16_list(std::vector<std::uint16_t>* out) {
  const std::uint64_t n = reader_.varint();
  if (n > reader_.remaining()) {
    throw StoreFormatError("id list length " + std::to_string(n) +
                           " exceeds remaining payload");
  }
  out->clear();
  out->reserve(static_cast<std::size_t>(n));
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t value = prev + reader_.svarint();
    if (value < 0 || value > 0xFFFF) {
      throw StoreFormatError("id list entry out of u16 range: " +
                             std::to_string(value));
    }
    out->push_back(static_cast<std::uint16_t>(value));
    prev = value;
  }
}

bool ProjectedBlockCursor::next(ProjectedRow* row) {
  if (rows_done_ >= rows_total_) {
    if (!reader_.empty()) {
      throw StoreFormatError("block payload has " +
                             std::to_string(reader_.remaining()) +
                             " trailing bytes");
    }
    return false;
  }
  ++rows_done_;

  const std::uint64_t device_id = reader_.varint();
  const std::uint64_t dest_id = reader_.varint();
  const std::size_t dict_size = dict_->size();
  if (device_id >= dict_size || dest_id >= dict_size) {
    throw StoreFormatError(
        "dictionary id " +
        std::to_string(device_id >= dict_size ? device_id : dest_id) +
        " out of range (size " + std::to_string(dict_size) + ")");
  }
  row->device_id = static_cast<std::uint32_t>(device_id);
  row->dest_id = static_cast<std::uint32_t>(dest_id);

  const std::int64_t month_index = prev_month_index_ + reader_.svarint();
  if (month_index < 0 || month_index > 12LL * 100000) {
    throw StoreFormatError("month index out of range: " +
                           std::to_string(month_index));
  }
  row->month = common::Month::from_index(static_cast<int>(month_index));
  prev_month_index_ = static_cast<int>(month_index);
  row->count = reader_.varint();

  const std::uint64_t versions = reader_.varint();
  if (versions > reader_.remaining()) {
    throw StoreFormatError("version list longer than payload");
  }
  if ((fields_ & kFieldAdvVersions) != 0) {
    row->advertised_versions.clear();
    row->advertised_versions.reserve(static_cast<std::size_t>(versions));
  }
  for (std::uint64_t i = 0; i < versions; ++i) {
    const std::uint64_t wire = reader_.varint();
    if (wire > 0xFFFF) {
      throw StoreFormatError("protocol version out of u16 range");
    }
    if ((fields_ & kFieldAdvVersions) != 0) {
      try {
        row->advertised_versions.push_back(
            tls::version_from_wire(static_cast<std::uint16_t>(wire)));
      } catch (const common::ParseError& e) {
        throw StoreFormatError(std::string("bad protocol version: ") +
                               e.what());
      }
    }
  }
  if ((fields_ & kFieldAdvSuites) != 0) {
    read_u16_list(&row->advertised_suites);
  } else {
    skip_u16_list();
  }
  if ((fields_ & kFieldExtensions) != 0) {
    read_u16_list(&row->extension_types);
  } else {
    skip_u16_list();
  }
  if ((fields_ & kFieldAdvGroups) != 0) {
    read_u16_list(&row->advertised_groups);
  } else {
    skip_u16_list();
  }
  if ((fields_ & kFieldAdvSigalgs) != 0) {
    read_u16_list(&row->advertised_sigalgs);
  } else {
    skip_u16_list();
  }

  const std::uint8_t flags = reader_.u8();
  const std::uint8_t direction = reader_.u8();
  if (direction > 2) {
    throw StoreFormatError("alert direction out of range: " +
                           std::to_string(direction));
  }
  row->requested_ocsp_staple = (flags & kFlagOcspStaple) != 0;
  row->sent_sni = (flags & kFlagSni) != 0;
  row->handshake_complete = (flags & kFlagComplete) != 0;
  row->application_data_seen = (flags & kFlagAppData) != 0;
  row->alert_direction =
      static_cast<net::HandshakeRecord::AlertDirection>(direction);
  const std::int64_t ordinal = reader_.svarint();
  if (ordinal < -1 || ordinal > 1 << 30) {
    throw StoreFormatError("alert ordinal out of range");
  }
  row->alert_ordinal = static_cast<int>(ordinal);

  row->established_version.reset();
  row->established_suite.reset();
  row->client_alert.reset();
  row->server_alert.reset();
  if ((flags & kFlagEstVersion) != 0) {
    row->established_version = read_version(&reader_);
  }
  if ((flags & kFlagEstSuite) != 0) {
    const std::uint64_t suite = reader_.varint();
    if (suite > 0xFFFF) {
      throw StoreFormatError("established suite out of u16 range");
    }
    row->established_suite = static_cast<std::uint16_t>(suite);
  }
  if ((flags & kFlagClientAlert) != 0) row->client_alert = read_alert(&reader_);
  if ((flags & kFlagServerAlert) != 0) row->server_alert = read_alert(&reader_);
  return true;
}

}  // namespace iotls::store

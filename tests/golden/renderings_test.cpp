// Absolute anchor on the product: the SHA-256 of every seed-42 rendering
// of the full-scale study (Tables 1-9, Figs 1-5, the §5.1 summary and
// §4.2 TrafficPassthrough).
// The relative checks elsewhere (threads 1 vs N, caches on vs off) pass
// when both sides drift together; these digests do not. A change that
// moves one must say why in CHANGES.md.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "common/hex.hpp"
#include "core/study.hpp"
#include "crypto/sha256.hpp"

namespace iotls::core {
namespace {

/// `<id> <sha256 of the rendering>`, one line each.
constexpr const char* kDigests = R"(
table1 1aa4156da726f37ae515e41b15433eb9e36cbcf8eb6eea84bd9676956f0432a3
table2 5f1d94f35e6b070784245cfdd612708150fb06f89684de7a873d287c027e5754
table3 ddccf2758b0cf6aa0986d083105cfb7e34ea618595ed5d6e7b71486689f80bb7
table4 e6a3050c01b84a051137bf317bd4e2c6ee16fe2191380bc667657eeffa06e263
table5 6a7e055376f45b05c1f431f03d844eeabb0cffd2e0792c8a2b572247397d2a6b
table6 dd73d579727aed31b695aabe11617d09e97c26b4474a5f696ae655f4bf4630bc
table7 938d28c6cd222ea7b58203f0864dedd5bc1ae4e87c106f4830b987834bee5ff6
table8 8cc3feacfe2eb415731ae95ed6cbf4140aac651876dde378d031830ea10336c2
table9 7ba294a719c07e386cbf999d6b3d76331802c7ace872bd8ea5ae0a86d989f79e
summary 0e669bba34b30b2303331a83b79179085475025c9b9e55b650af14edba005a24
fig1 40ae6b2e41f871ccbc2ace54f7e0c20836bb63444254b489322c2f4aefa48b82
fig2 37fa6595ad730a9c965437c56616f024fc1e7b64d965072953afc7a7cf66abfd
fig3 678e0e99b05ee137b20d916f354a46dfd9624305a7d82ff68952f7f7751b3c84
fig4 47badbdf823c738e0cfb02863514c31bd99db46d37d1f32312206756e8b7f216
fig5 26a23641b233f3ea9a242f6c0f8a84d2987eca9fdaa70c01708037f8244a0ed8
passthrough 0b4a21411e0a2071c5ca7c4397b3a25bf63b9237ddc522ba4c11d34702ae7fa2
)";

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::digest(common::BytesView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  return common::hex_encode(common::BytesView(digest.data(), digest.size()));
}

TEST(Golden, Seed42RenderingsMatchTheirDigests) {
  IotlsStudy::Options options;
  options.seed = 42;
  IotlsStudy study(options);
  // render_summary() carries no timing footer (bench_study prints the
  // timing table after the last id), so its bytes are deterministic.
  std::map<std::string, std::string> rendered;
  rendered["table1"] = study.render_table1();
  rendered["table2"] = study.render_table2();
  rendered["table3"] = study.render_table3();
  rendered["table4"] = study.render_table4();
  rendered["table5"] = study.render_table5();
  rendered["table6"] = study.render_table6();
  rendered["table7"] = study.render_table7();
  rendered["table8"] = study.render_table8();
  rendered["table9"] = study.render_table9();
  rendered["summary"] = study.render_summary();
  rendered["fig1"] = study.render_fig1();
  rendered["fig2"] = study.render_fig2();
  rendered["fig3"] = study.render_fig3();
  rendered["fig4"] = study.render_fig4();
  rendered["fig5"] = study.render_fig5();
  rendered["passthrough"] = study.render_passthrough();

  std::istringstream lines(kDigests);
  std::string id;
  std::string digest;
  std::size_t checked = 0;
  while (lines >> id >> digest) {
    ASSERT_EQ(rendered.count(id), 1u) << id;
    EXPECT_EQ(sha256_hex(rendered.at(id)), digest) << id;
    ++checked;
  }
  EXPECT_EQ(checked, rendered.size());
}

}  // namespace
}  // namespace iotls::core

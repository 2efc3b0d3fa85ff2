// Hierarchical profiler: tree shape, exclusive-time accounting, the
// disabled-mode cost contract (nothing recorded), the tree exporters, and
// concurrent zones across pool workers (the TSan target — worker trees
// merge into the process tree at the caller's zone path while the main
// thread snapshots it).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "common/json_probe.hpp"
#include "common/pool.hpp"
#include "obs/profile.hpp"
#include "obs/zone_calls.hpp"

namespace {

using iotls::obs::ProfileNode;
using iotls::obs::ProfileSnapshot;
using iotls::obs::ProfileZone;

/// Every test owns the global profiler switch and resets the registry, so
/// order does not matter within the binary.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    iotls::obs::set_profile_enabled(true);
    iotls::obs::profile_reset();
  }
  void TearDown() override {
    iotls::obs::set_profile_enabled(false);
    iotls::obs::profile_reset();
  }
};

const ProfileNode* child(const ProfileNode& node, const std::string& name) {
  const auto it = node.children.find(name);
  return it == node.children.end() ? nullptr : &it->second;
}

TEST_F(ProfileTest, NestedZonesBuildACallTree) {
  {
    const ProfileZone outer("outer");
    {
      const ProfileZone inner("inner");
    }
    {
      const ProfileZone inner("inner");
    }
    { const ProfileZone other("other"); }
  }
  { const ProfileZone outer("outer"); }

  const ProfileSnapshot snap = iotls::obs::profile_snapshot();
  const ProfileNode* outer = child(snap.root, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 2u);
  const ProfileNode* inner = child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 2u);
  const ProfileNode* other = child(*outer, "other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->calls, 1u);
  // "inner" nests under "outer": it must not also appear at top level.
  EXPECT_EQ(child(snap.root, "inner"), nullptr);
}

TEST_F(ProfileTest, ExclusiveTimeSubtractsChildren) {
  {
    const ProfileZone outer("outer");
    const ProfileZone inner("inner");
  }
  const ProfileSnapshot snap = iotls::obs::profile_snapshot();
  const ProfileNode* outer = child(snap.root, "outer");
  ASSERT_NE(outer, nullptr);
  const ProfileNode* inner = child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(outer->inclusive_ns, inner->inclusive_ns);
  EXPECT_EQ(outer->exclusive_ns(),
            outer->inclusive_ns - inner->inclusive_ns);

  // Clamping: a synthetic node whose children overlap its frame must not
  // underflow.
  ProfileNode node;
  node.inclusive_ns = 10;
  ProfileNode kid;
  kid.inclusive_ns = 25;
  node.children.emplace("kid", kid);
  EXPECT_EQ(node.exclusive_ns(), 0u);
}

TEST_F(ProfileTest, DisabledZonesRecordNothing) {
  iotls::obs::set_profile_enabled(false);
  {
    const ProfileZone zone("never");
    const ProfileZone nested("nested");
  }
  const ProfileSnapshot snap = iotls::obs::profile_snapshot();
  EXPECT_TRUE(snap.root.children.empty());
  EXPECT_TRUE(iotls::obs::open_zone_path().empty());
}

TEST_F(ProfileTest, RendersSortedTextTree) {
  {
    const ProfileZone outer("outer");
    const ProfileZone inner("inner");
  }
  const std::string text =
      iotls::obs::render_profile(iotls::obs::profile_snapshot());
  const auto outer_pos = text.find("outer");
  const auto inner_pos = text.find("inner");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);  // child renders under its parent
}

TEST_F(ProfileTest, TreeJsonIsValidJson) {
  {
    const ProfileZone outer("outer \"quoted\"");
    const ProfileZone inner("inner");
    const ProfileZone probe(iotls::common::kJsonProbe);
  }
  const ProfileSnapshot snap = iotls::obs::profile_snapshot();
  const auto tree = iotls::common::Json::parse(
      iotls::obs::profile_tree_to_json(snap.root));
  EXPECT_EQ(tree.at("name").as_string(), "<root>");
  const auto& children = tree.at("children").as_array();
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].at("name").as_string(), "outer \"quoted\"");
  const auto& grandchildren = children[0].at("children").as_array();
  ASSERT_EQ(grandchildren.size(), 1u);
  EXPECT_EQ(grandchildren[0].at("name").as_string(), "inner");
  EXPECT_EQ(grandchildren[0].at("children").as_array().at(0).at("name")
                .as_string(),
            iotls::common::kJsonProbe);
}

// The TSan target: pool workers open zones concurrently while the main
// thread snapshots mid-flight. Each worker merges its tree by name path,
// so worker counts must add up once the fan-out drains.
TEST_F(ProfileTest, ConcurrentZonesAcrossPoolWorkersMergeByPath) {
  constexpr std::size_t kTasks = 64;
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      const ProfileSnapshot snap = iotls::obs::profile_snapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });
  iotls::common::parallel_for(4, kTasks, [](std::size_t i) {
    const ProfileZone task("task");
    if (i % 2 == 0) {
      const ProfileZone even("even");
    } else {
      const ProfileZone odd("odd");
    }
  });
  done.store(true);
  sampler.join();

  const ProfileSnapshot snap = iotls::obs::profile_snapshot();
  // parallel_for itself opens a pool/fan_out zone on the calling thread
  // and pool/task zones on the workers; our "task" zones nest inside.
  std::uint64_t fan_out_calls = 0;
  std::uint64_t pool_task_calls = 0;
  std::uint64_t task_calls = 0;
  std::uint64_t even_calls = 0;
  std::uint64_t odd_calls = 0;
  const std::function<void(const ProfileNode&)> walk =
      [&](const ProfileNode& node) {
        if (node.name == "pool/fan_out") fan_out_calls += node.calls;
        if (node.name == "pool/task") pool_task_calls += node.calls;
        if (node.name == "task") task_calls += node.calls;
        if (node.name == "even") even_calls += node.calls;
        if (node.name == "odd") odd_calls += node.calls;
        for (const auto& [name, kid] : node.children) walk(kid);
      };
  walk(snap.root);
  // The shape the profile tree's readers rely on: one fan-out zone for the
  // call and one pool/task zone per index.
  EXPECT_EQ(fan_out_calls, 1u);
  EXPECT_EQ(pool_task_calls, kTasks);
  EXPECT_EQ(task_calls, kTasks);
  EXPECT_EQ(even_calls, kTasks / 2);
  EXPECT_EQ(odd_calls, kTasks / 2);
  // Every worker anchors at the caller's open path, so the task zones sit
  // under pool/fan_out > pool/task.
  const ProfileNode* fan_out = child(snap.root, "pool/fan_out");
  ASSERT_NE(fan_out, nullptr);
  const ProfileNode* pool_task = child(*fan_out, "pool/task");
  ASSERT_NE(pool_task, nullptr);
  const ProfileNode* task = child(*pool_task, "task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->calls, kTasks);
}

// A fan-out issued inside a zone credits its workers' zones to that zone:
// the tree has the one-thread shape with pool/fan_out > pool/task between.
TEST_F(ProfileTest, FanOutWorkNestsUnderTheCallersZone) {
  constexpr std::size_t kTasks = 64;
  {
    const ProfileZone caller("caller");
    iotls::common::parallel_for(4, kTasks, [](std::size_t) {
      const ProfileZone work("work");
    });
  }
  const ProfileSnapshot snap = iotls::obs::profile_snapshot();
  EXPECT_EQ(snap.root.children.size(), 1u);
  EXPECT_EQ(iotls::obs::calls_within(snap.root, "caller", "work"), kTasks);
}

}  // namespace

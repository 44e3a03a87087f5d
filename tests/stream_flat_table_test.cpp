// FlatTable tests: random insert/find/take/erase_if against a
// std::unordered_map oracle — once with a well-mixed hash, once with a
// hash whose homes are the last slots, so every probe chain wraps past
// the table end and every backward shift crosses it — plus the
// close-time host walk, which must visit each entry exactly once while
// it prunes entries whose erasure shifts others across the walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "stream/flat_table.hpp"

namespace cgc::stream {
namespace {

/// Homes every key in one of the last three slots, whatever the
/// capacity: probe chains start at the table end and wrap to its front.
struct WrapHash {
  std::uint64_t operator()(std::int64_t key) const {
    return ~std::uint64_t{0} - static_cast<std::uint64_t>(key % 3);
  }
};

/// Every entry, read through erase_if without erasing any.
template <typename Table>
std::map<std::int64_t, std::int64_t> contents(Table& table) {
  std::map<std::int64_t, std::int64_t> out;
  table.erase_if([&out](std::int64_t key, std::int64_t value) {
    EXPECT_TRUE(out.emplace(key, value).second) << "key " << key
                                                << " visited twice";
    return false;
  });
  return out;
}

template <typename Hash>
void run_against_oracle(std::uint64_t seed, std::int64_t key_range) {
  FlatTable<std::int64_t, std::int64_t, Hash> table(4);
  std::unordered_map<std::int64_t, std::int64_t> oracle;
  std::mt19937_64 rng(seed);
  for (int op = 0; op < 20000; ++op) {
    const auto key =
        static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                              key_range)) -
        key_range / 2;
    switch (rng() % 5) {
      case 0:
      case 1: {  // insert or update
        const auto value = static_cast<std::int64_t>(rng() % 100);
        const auto [slot, inserted] = table.try_emplace(key);
        ASSERT_EQ(inserted, oracle.count(key) == 0) << "op " << op;
        if (inserted) {
          ASSERT_EQ(*slot, 0) << "op " << op;
        }
        *slot = value;
        oracle[key] = value;
        break;
      }
      case 2: {  // take
        const std::optional<std::int64_t> taken = table.take(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(taken.has_value(), it != oracle.end()) << "op " << op;
        if (taken) {
          ASSERT_EQ(*taken, it->second) << "op " << op;
          oracle.erase(it);
        }
        break;
      }
      case 3: {  // find
        const std::int64_t* found = table.find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "op " << op;
        }
        break;
      }
      default: {  // erase_if: drop one residue class of values
        if (rng() % 8 != 0) {
          break;
        }
        const auto residue = static_cast<std::int64_t>(rng() % 4);
        std::size_t visits = 0;
        table.erase_if([&](std::int64_t, std::int64_t value) {
          ++visits;
          return value % 4 == residue;
        });
        ASSERT_EQ(visits, oracle.size()) << "op " << op;
        std::erase_if(oracle, [residue](const auto& entry) {
          return entry.second % 4 == residue;
        });
        break;
      }
    }
    ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
    ASSERT_LE(4 * table.size(), 3 * table.capacity()) << "op " << op;
  }
  const std::map<std::int64_t, std::int64_t> sorted(oracle.begin(),
                                                    oracle.end());
  EXPECT_EQ(contents(table), sorted);
  for (const auto& [key, value] : oracle) {
    const std::int64_t* found = table.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
}

TEST(FlatTableTest, RandomOpsMatchUnorderedMap) {
  run_against_oracle<IntKeyHash>(1, 64);
  run_against_oracle<IntKeyHash>(2, 4096);
}

TEST(FlatTableTest, RandomOpsMatchUnorderedMapWhenChainsWrap) {
  // At most 12 live keys: the table stays at 16 slots or fewer, and
  // every chain starts in the last three of them.
  run_against_oracle<WrapHash>(3, 12);
  run_against_oracle<WrapHash>(4, 7);
}

TEST(FlatTableTest, GrowsFromTheSmallestCapacity) {
  FlatTable<std::int64_t, std::int64_t> table(1);
  EXPECT_EQ(table.capacity(), 2u);
  for (std::int64_t k = 0; k < 10000; ++k) {
    *table.try_emplace(k * 1'000'003).first = k;
  }
  EXPECT_EQ(table.size(), 10000u);
  for (std::int64_t k = 0; k < 10000; ++k) {
    const std::int64_t* found = table.find(k * 1'000'003);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, k);
  }
  EXPECT_EQ(table.find(-1), nullptr);
}

/// The close-time host walk: count every busy host once and prune the
/// idle ones. With every chain wrapping, erasing an idle host during
/// the walk would shift a host from the walked front of the table to
/// its unwalked back (counted twice) or from behind the cursor to
/// before it (skipped).
TEST(FlatTableTest, HostWalkCountsEachBusyHostOnceWhilePruningIdleOnes) {
  FlatTable<std::int64_t, std::int64_t, WrapHash> hosts(16);
  // Hosts 0..6: chain of 7 around slots 13, 14, 15, 0, 1, 2, 3.
  // Every third host is idle.
  for (std::int64_t machine = 0; machine < 7; ++machine) {
    *hosts.try_emplace(machine).first = machine % 3 == 0 ? 0 : machine;
  }
  ASSERT_EQ(hosts.capacity(), 16u);

  std::map<std::int64_t, int> visits;
  std::int64_t busy = 0;
  std::int64_t load = 0;
  hosts.erase_if([&](std::int64_t machine, std::int64_t running) {
    ++visits[machine];
    if (running <= 0) {
      return true;
    }
    ++busy;
    load += running;
    return false;
  });
  EXPECT_EQ(visits.size(), 7u);
  for (const auto& [machine, n] : visits) {
    EXPECT_EQ(n, 1) << "machine " << machine;
  }
  EXPECT_EQ(busy, 4);
  EXPECT_EQ(load, 1 + 2 + 4 + 5);
  EXPECT_EQ(hosts.size(), 4u);
  EXPECT_EQ(contents(hosts),
            (std::map<std::int64_t, std::int64_t>{{1, 1}, {2, 2}, {4, 4},
                                                  {5, 5}}));
  for (const std::int64_t idle : {0, 3, 6}) {
    EXPECT_EQ(hosts.find(idle), nullptr) << "machine " << idle;
  }

  // Pruning everything leaves an empty, reusable table.
  hosts.erase_if([](std::int64_t, std::int64_t) { return true; });
  EXPECT_EQ(hosts.size(), 0u);
  EXPECT_TRUE(contents(hosts).empty());
  *hosts.try_emplace(3).first = 9;
  ASSERT_NE(hosts.find(3), nullptr);
  EXPECT_EQ(*hosts.find(3), 9);
}

}  // namespace
}  // namespace cgc::stream

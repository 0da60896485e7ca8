// The replicated key-value store: servant semantics, snapshot/restore, and a
// full end-to-end run on the replicated stack via the servant factory —
// proving the replication API is application-agnostic.
#include <gtest/gtest.h>

#include "app/kv_store.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace vdep::app {
namespace {

TEST(KvStore, PutGetEraseSemantics) {
  KvStoreServant kv;
  auto put1 = kv.invoke("put", KvStoreServant::encode_put("alpha", "1"));
  ASSERT_TRUE(put1.ok);
  EXPECT_FALSE(KvStoreServant::decode_flag(put1.output));  // fresh key

  auto put2 = kv.invoke("put", KvStoreServant::encode_put("alpha", "2"));
  EXPECT_TRUE(KvStoreServant::decode_flag(put2.output));  // overwrite

  auto got = kv.invoke("get", KvStoreServant::encode_key("alpha"));
  ASSERT_TRUE(got.ok);
  auto g = KvStoreServant::decode_get(got.output);
  EXPECT_TRUE(g.found);
  EXPECT_EQ(g.value, "2");

  auto missing = kv.invoke("get", KvStoreServant::encode_key("beta"));
  EXPECT_FALSE(KvStoreServant::decode_get(missing.output).found);

  auto erased = kv.invoke("erase", KvStoreServant::encode_key("alpha"));
  EXPECT_TRUE(KvStoreServant::decode_flag(erased.output));
  EXPECT_FALSE(KvStoreServant::decode_get(
                   kv.invoke("get", KvStoreServant::encode_key("alpha")).output)
                   .found);
  EXPECT_EQ(kv.entries(), 0u);
}

TEST(KvStore, ReadsCheaperThanWrites) {
  KvStoreServant kv;
  const auto w = kv.invoke("put", KvStoreServant::encode_put("k", "v")).cpu_time;
  const auto r = kv.invoke("get", KvStoreServant::encode_key("k")).cpu_time;
  EXPECT_GT(w, r);
}

TEST(KvStore, MalformedAndUnknownOperationsFail) {
  KvStoreServant kv;
  EXPECT_FALSE(kv.invoke("put", Bytes{1, 2}).ok);  // truncated CDR
  EXPECT_FALSE(kv.invoke("compare_and_swap", {}).ok);
}

TEST(KvStore, SnapshotRestoreAndDigest) {
  KvStoreServant a;
  (void)a.invoke("put", KvStoreServant::encode_put("x", "1"));
  (void)a.invoke("put", KvStoreServant::encode_put("y", "2"));

  KvStoreServant b;
  EXPECT_NE(a.state_digest(), b.state_digest());
  b.restore(a.snapshot());
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(b.entries(), 2u);
  EXPECT_EQ(KvStoreServant::decode_get(
                b.invoke("get", KvStoreServant::encode_key("y")).output)
                .value,
            "2");
  // Digest is order-insensitive w.r.t. insertion (map-ordered).
  KvStoreServant c;
  (void)c.invoke("put", KvStoreServant::encode_put("y", "2"));
  (void)c.invoke("put", KvStoreServant::encode_put("x", "1"));
  EXPECT_EQ(a.state_digest(), c.state_digest());
}

Bytes snapshot_of(const std::vector<std::pair<std::string, std::string>>& rows) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const auto& [key, value] : rows) {
    w.str(key);
    w.str(value);
  }
  return std::move(w).take();
}

TEST(KvStore, RestoreRejectsUnsortedOrDuplicateKeys) {
  KvStoreServant kv;
  kv.restore(snapshot_of({{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(kv.entries(), 2u);
  EXPECT_THROW(kv.restore(snapshot_of({{"b", "1"}, {"a", "2"}})), DecodeError);
  EXPECT_THROW(kv.restore(snapshot_of({{"a", "1"}, {"a", "2"}})), DecodeError);
  EXPECT_THROW(kv.restore(snapshot_of({{"a", "1"}, {"c", "2"}, {"c", "3"}})),
               DecodeError);
}

TEST(KvStore, RestoreOverPopulatedStoreMatchesFreshRestore) {
  // The donor: keys the backup shares (some with new values), keys it lacks,
  // and none of the keys only the backup holds.
  KvStoreServant donor;
  for (const char* key : {"b", "c", "e", "g", "h", "k", "z"}) {
    (void)donor.invoke("put", KvStoreServant::encode_put(key, std::string("new-") + key));
  }
  (void)donor.invoke("put", KvStoreServant::encode_put("c", "old-c"));  // unchanged
  KvStoreServant backup;
  for (const char* key : {"a", "c", "d", "e", "f", "k", "m", "y", "zz"}) {
    (void)backup.invoke("put", KvStoreServant::encode_put(key, std::string("old-") + key));
  }
  const Bytes image = donor.snapshot();
  backup.restore(image);
  KvStoreServant fresh;
  fresh.restore(image);
  EXPECT_EQ(backup.snapshot(), image);
  EXPECT_EQ(backup.snapshot(), fresh.snapshot());
  EXPECT_EQ(backup.state_digest(), fresh.state_digest());
  EXPECT_EQ(backup.state_digest(), donor.state_digest());
  EXPECT_EQ(backup.entries(), 7u);
  EXPECT_FALSE(backup.lookup("a").has_value());
  EXPECT_FALSE(backup.lookup("zz").has_value());
  EXPECT_EQ(backup.lookup("c"), "old-c");

  // Restoring the empty store over a populated one empties it.
  backup.restore(KvStoreServant{}.snapshot());
  EXPECT_EQ(backup.entries(), 0u);
}

TEST(KvStore, DeltaCarriesOnlyTheDirtySet) {
  KvStoreServant kv;
  for (int i = 0; i < 100; ++i) {
    (void)kv.invoke("put", KvStoreServant::encode_put("key" + std::to_string(i),
                                                      std::string(32, 'v')));
  }
  const std::uint64_t cut = kv.cut_epoch();
  (void)kv.invoke("put", KvStoreServant::encode_put("key7", "new"));

  auto delta = kv.snapshot_delta(cut);
  ASSERT_TRUE(delta.has_value());
  // One dirty key out of 100: the delta is a small fraction of the snapshot.
  EXPECT_LT(delta->size(), kv.snapshot().size() / 10);

  KvStoreServant other;
  other.restore(kv.snapshot());
  (void)other.invoke("put", KvStoreServant::encode_put("key7", "stale"));
  other.apply_delta(*delta);
  EXPECT_EQ(other.lookup("key7"), "new");
}

TEST(KvStore, DeltaReplaysErasesAsTombstones) {
  KvStoreServant a;
  (void)a.invoke("put", KvStoreServant::encode_put("keep", "1"));
  (void)a.invoke("put", KvStoreServant::encode_put("drop", "2"));

  KvStoreServant b;
  b.restore(a.snapshot());
  const std::uint64_t a_cut = a.cut_epoch();

  (void)a.invoke("erase", KvStoreServant::encode_key("drop"));
  (void)a.invoke("append", KvStoreServant::encode_append("keep", "+"));
  auto delta = a.snapshot_delta(a_cut);
  ASSERT_TRUE(delta.has_value());
  b.apply_delta(*delta);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_FALSE(b.lookup("drop").has_value());
  EXPECT_EQ(b.lookup("keep"), "1+");
}

TEST(KvStore, DeltaUnanswerableForStaleOrFutureCutsAndAfterRestore) {
  KvStoreServant kv;
  (void)kv.invoke("put", KvStoreServant::encode_put("k", "v"));
  const std::uint64_t cut = kv.cut_epoch();
  EXPECT_TRUE(kv.snapshot_delta(cut).has_value());
  // A cut that was never taken (the open epoch) is unanswerable.
  EXPECT_FALSE(kv.snapshot_delta(cut + 1).has_value());

  // restore() discards the per-key stamps: the old cut is now below the
  // delta floor and must be refused, not misanswered.
  kv.restore(kv.snapshot());
  EXPECT_FALSE(kv.snapshot_delta(cut).has_value());
  const std::uint64_t fresh = kv.cut_epoch();
  EXPECT_TRUE(kv.snapshot_delta(fresh).has_value());
}

TEST(KvStore, AnchorPlusDeltaChainMatchesMonolithicSnapshot) {
  // The replicator's chain invariant at app level: full snapshot at cut 0,
  // then a delta per cut, applied in order, lands on the same digest as one
  // final snapshot/restore.
  KvStoreServant primary;
  KvStoreServant backup;
  (void)primary.invoke("put", KvStoreServant::encode_put("a", "0"));
  backup.restore(primary.snapshot());
  std::uint64_t cut = primary.cut_epoch();
  for (int round = 0; round < 5; ++round) {
    (void)primary.invoke("put", KvStoreServant::encode_put(
                                    "k" + std::to_string(round % 2), "r" +
                                    std::to_string(round)));
    if (round == 3) (void)primary.invoke("erase", KvStoreServant::encode_key("a"));
    auto delta = primary.snapshot_delta(cut);
    ASSERT_TRUE(delta.has_value());
    cut = primary.cut_epoch();
    backup.apply_delta(*delta);
    EXPECT_EQ(backup.state_digest(), primary.state_digest());
  }
  KvStoreServant monolithic;
  monolithic.restore(primary.snapshot());
  EXPECT_EQ(monolithic.state_digest(), backup.state_digest());
}

TEST(KvStore, StateSizeTracksContent) {
  KvStoreServant kv;
  const auto empty = kv.state_size();
  (void)kv.invoke("put", KvStoreServant::encode_put("key", std::string(100, 'v')));
  EXPECT_GT(kv.state_size(), empty + 100);
}

// state_size() is a counter that every mutation keeps current; after each
// step of a seeded mix of operations it must equal the snapshot's size. A
// second store supplies the restore images and the deltas.
TEST(KvStore, StateSizeCounterMatchesSnapshotThroughSeededMix) {
  Rng rng(17);
  KvStoreServant kv;
  KvStoreServant donor;
  std::uint64_t donor_cut = donor.cut_epoch();
  auto pick_key = [&rng] { return "k" + std::to_string(rng.below(40)); };
  auto pick_value = [&rng] {
    return std::string(rng.below(24), static_cast<char>('a' + rng.below(26)));
  };
  int put_new = 0, put_shorter = 0, put_longer = 0, appends = 0, erase_hit = 0,
      erase_miss = 0, restores = 0, bad_restores = 0, deltas = 0;
  for (int step = 0; step < 1000; ++step) {
    // The donor drifts too, so images and deltas differ from the store.
    const std::string donor_key = pick_key();
    if (rng.chance(0.2)) {
      (void)donor.invoke("erase", KvStoreServant::encode_key(donor_key));
    } else {
      (void)donor.invoke("put", KvStoreServant::encode_put(donor_key, pick_value()));
    }

    const std::uint64_t op = rng.below(100);
    const std::string key = pick_key();
    const auto before = kv.lookup(key);
    if (op < 40) {
      const std::string value = pick_value();
      ASSERT_TRUE(kv.invoke("put", KvStoreServant::encode_put(key, value)).ok);
      if (!before) {
        ++put_new;
      } else if (value.size() < before->size()) {
        ++put_shorter;
      } else if (value.size() > before->size()) {
        ++put_longer;
      }
    } else if (op < 60) {
      ASSERT_TRUE(kv.invoke("append", KvStoreServant::encode_append(key, pick_value())).ok);
      ++appends;
    } else if (op < 85) {
      ASSERT_TRUE(kv.invoke("erase", KvStoreServant::encode_key(key)).ok);
      ++(before ? erase_hit : erase_miss);
    } else if (op < 91) {
      kv.restore(donor.snapshot());
      ++restores;
    } else if (op < 93) {
      // Fails part-way, after it has already merged the first entry.
      EXPECT_THROW(kv.restore(snapshot_of({{"k5", "x"}, {"k1", "y"}})), DecodeError);
      ++bad_restores;
    } else {
      const auto delta = donor.snapshot_delta(donor_cut);
      ASSERT_TRUE(delta.has_value());
      donor_cut = donor.cut_epoch();
      kv.apply_delta(*delta);
      ++deltas;
    }
    ASSERT_EQ(kv.state_size(), kv.snapshot().size()) << "step " << step;
  }
  for (int n : {put_new, put_shorter, put_longer, appends, erase_hit, erase_miss, restores,
                bad_restores, deltas}) {
    EXPECT_GT(n, 0);
  }
}

// --- end-to-end on the replicated stack -------------------------------------

TEST(KvStore, ReplicatedClusterSurvivesPrimaryCrash) {
  harness::ScenarioConfig config;
  config.clients = 1;
  config.replicas = 3;
  config.max_replicas = 3;
  config.style = replication::ReplicationStyle::kWarmPassive;
  config.make_servant = [](int) { return std::make_unique<KvStoreServant>(); };
  harness::Scenario scenario(config);
  scenario.fault_plan().crash_process(msec(700), scenario.replica_pid(0));
  scenario.arm_faults();  // we drive the kernel manually: arm explicitly
  scenario.kernel().run_until(msec(300));  // group forms

  // The scenario's built-in drivers speak the micro-benchmark protocol, so
  // drive typed KV operations through a hand-assembled client: a process, a
  // client ORB, and a replicated (coordinator) transport — the same pieces
  // an application would wire up.
  sim::Process client_process(scenario.kernel(), ProcessId{7777}, NodeId{0},
                              "kv-client");
  orb::ClientOrb orb(scenario.network(), client_process);
  orb.use_transport(std::make_unique<replication::ClientCoordinator>(
      scenario.network(), scenario.daemon_on(NodeId{0}), client_process));

  int replies = 0;
  std::string read_back;
  for (int i = 0; i < 200; ++i) {
    scenario.kernel().post(msec(2) * i, [&, i] {
      orb.invoke(scenario.object_ref(), "put",
                 KvStoreServant::encode_put("key" + std::to_string(i),
                                            "value" + std::to_string(i)),
                 [&](orb::ReplyStatus status, Bytes) {
                   if (status == orb::ReplyStatus::kNoException) ++replies;
                 });
    });
  }
  scenario.kernel().post_at(sec(2), [&] {
    orb.invoke(scenario.object_ref(), "get", KvStoreServant::encode_key("key42"),
               [&](orb::ReplyStatus, Bytes body) {
                 read_back = KvStoreServant::decode_get(body).value;
               });
  });
  scenario.kernel().run_until(sec(4));

  EXPECT_EQ(replies, 200);
  EXPECT_FALSE(scenario.replica_process(0).alive());  // the crash really fired
  EXPECT_EQ(read_back, "value42");  // written before the crash, read after
  // The promoted backup holds the full dataset.
  auto& kv = dynamic_cast<KvStoreServant&>(scenario.app(1));
  EXPECT_EQ(kv.entries(), 200u);
}

}  // namespace
}  // namespace vdep::app

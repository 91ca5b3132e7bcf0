// Wire-protocol unit tests: framing over a real loopback socket, request
// and response codec round trips, request validation that the local and
// remote paths share, inject on the daemon's lent arenas, the VPP level
// quantization that keeps the cache key and the physics in agreement, and
// the content-addressed cache's key derivation and hit/miss accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/socket.hpp"
#include "core/export.hpp"
#include "core/parallel_study.hpp"
#include "core/study.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

namespace vppstudy::server {
namespace {

using common::ErrorCode;

/// One connected loopback socket pair (client end + accepted server end).
struct SocketPair {
  common::Socket client;
  common::Socket server;
};

SocketPair make_socket_pair() {
  auto listener = common::ServerSocket::listen_loopback(0);
  EXPECT_TRUE(listener.has_value());
  // Loopback backlog admits the connection before accept() runs, so the
  // single-threaded connect-then-accept order cannot deadlock.
  auto client = common::connect_loopback(listener->port());
  EXPECT_TRUE(client.has_value());
  auto server = listener->accept();
  EXPECT_TRUE(server.has_value());
  return SocketPair{std::move(*client), std::move(*server)};
}

TEST(ServerProtocol, FrameRoundTripPreservesPayloadBytes) {
  SocketPair pair = make_socket_pair();
  const std::string payload = "{\"id\":1,\"type\":\"ping\"}";
  ASSERT_TRUE(write_frame(pair.client, payload).ok());

  std::string received;
  auto more = read_frame(pair.server, received);
  ASSERT_TRUE(more.has_value());
  EXPECT_TRUE(*more);
  EXPECT_EQ(received, payload);
}

TEST(ServerProtocol, EmptyFrameIsAValidFrame) {
  SocketPair pair = make_socket_pair();
  ASSERT_TRUE(write_frame(pair.client, "").ok());
  std::string received = "sentinel";
  auto more = read_frame(pair.server, received);
  ASSERT_TRUE(more.has_value());
  EXPECT_TRUE(*more);
  EXPECT_EQ(received, "");
}

TEST(ServerProtocol, CloseAtFrameBoundaryIsClean) {
  SocketPair pair = make_socket_pair();
  pair.client.close();
  std::string received;
  auto more = read_frame(pair.server, received);
  ASSERT_TRUE(more.has_value());
  EXPECT_FALSE(*more);  // clean close, not an error
}

TEST(ServerProtocol, CloseMidPrefixIsIoError) {
  SocketPair pair = make_socket_pair();
  const unsigned char half[2] = {0x00, 0x00};
  ASSERT_TRUE(pair.client.send_all(half, sizeof(half)).ok());
  pair.client.close();
  std::string received;
  auto more = read_frame(pair.server, received);
  ASSERT_FALSE(more.has_value());
  EXPECT_EQ(more.error().code, ErrorCode::kIoError);
}

TEST(ServerProtocol, OversizedDeclaredLengthIsRefusedBeforePayload) {
  SocketPair pair = make_socket_pair();
  // Declares kMaxFrameBytes + 1: the reader must refuse on the prefix alone.
  const std::uint32_t len = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  const unsigned char prefix[4] = {
      static_cast<unsigned char>((len >> 24) & 0xFF),
      static_cast<unsigned char>((len >> 16) & 0xFF),
      static_cast<unsigned char>((len >> 8) & 0xFF),
      static_cast<unsigned char>(len & 0xFF),
  };
  ASSERT_TRUE(pair.client.send_all(prefix, sizeof(prefix)).ok());
  std::string received;
  auto more = read_frame(pair.server, received);
  ASSERT_FALSE(more.has_value());
  EXPECT_EQ(more.error().code, ErrorCode::kFrameTooLarge);
}

TEST(ServerProtocol, OversizedOutgoingFrameIsRefusedLocally) {
  SocketPair pair = make_socket_pair();
  const std::string huge(kMaxFrameBytes + 1, 'x');
  auto status = write_frame(pair.client, huge);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kFrameTooLarge);
}

TEST(ServerProtocol, SweepRequestRoundTrips) {
  SweepRequest request;
  request.module = "A0";
  request.test = "retention";
  request.rows = 24;
  request.step = 0.35;
  request.seed = 99;
  auto doc = common::parse_json(encode_sweep_request(7, request));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->uint_or("id", 0), 7u);
  EXPECT_EQ(doc->string_or("type", ""), "sweep");
  auto parsed = parse_sweep_request(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->module, request.module);
  EXPECT_EQ(parsed->test, request.test);
  EXPECT_EQ(parsed->rows, request.rows);
  EXPECT_EQ(parsed->step, request.step);
  EXPECT_EQ(parsed->seed, request.seed);
}

TEST(ServerProtocol, SweepRequestValidationIsTyped) {
  const auto parse = [](const std::string& body) {
    auto doc = common::parse_json(body);
    EXPECT_TRUE(doc.has_value());
    return parse_sweep_request(*doc);
  };
  auto bad_test = parse("{\"id\":1,\"type\":\"sweep\",\"test\":\"voodoo\"}");
  ASSERT_FALSE(bad_test.has_value());
  EXPECT_EQ(bad_test.error().code, ErrorCode::kInvalidArgument);

  auto zero_rows = parse("{\"id\":1,\"type\":\"sweep\",\"rows\":0}");
  ASSERT_FALSE(zero_rows.has_value());
  EXPECT_EQ(zero_rows.error().code, ErrorCode::kInvalidArgument);

  auto huge_rows = parse("{\"id\":1,\"type\":\"sweep\",\"rows\":100000}");
  ASSERT_FALSE(huge_rows.has_value());
  EXPECT_EQ(huge_rows.error().code, ErrorCode::kInvalidArgument);

  auto bad_step = parse("{\"id\":1,\"type\":\"sweep\",\"step\":5.0}");
  ASSERT_FALSE(bad_step.has_value());
  EXPECT_EQ(bad_step.error().code, ErrorCode::kInvalidArgument);
}

TEST(ServerProtocol, InjectRequestRoundTrips) {
  InjectRequest request;
  request.faults = "seed=9;drop_act=0.001";
  request.modules = {"B3", "A0"};
  request.rows = 12;
  request.retries = 5;
  request.seed = 42;
  request.trace_cap = 512;
  auto doc = common::parse_json(encode_inject_request(3, request));
  ASSERT_TRUE(doc.has_value());
  auto parsed = parse_inject_request(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->faults, request.faults);
  EXPECT_EQ(parsed->modules, request.modules);
  EXPECT_EQ(parsed->rows, request.rows);
  EXPECT_EQ(parsed->retries, request.retries);
  EXPECT_EQ(parsed->seed, request.seed);
  EXPECT_EQ(parsed->trace_cap, request.trace_cap);
}

TEST(ServerProtocol, InjectRequestNeedsModules) {
  auto doc = common::parse_json(
      "{\"id\":1,\"type\":\"inject\",\"modules\":[]}");
  ASSERT_TRUE(doc.has_value());
  auto parsed = parse_inject_request(*doc);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().code, ErrorCode::kInvalidArgument);
}

TEST(ServerProtocol, LocalAndRemotePathsRejectZeroRowsAlike) {
  // vppctl's in-process sweep calls validate() and its inject builds the
  // campaign through inject_campaign(), which calls it too; with --connect
  // the daemon's parser does. Both paths refuse rows 0 with the same text.
  auto server = Server::start(Server::Config{});
  ASSERT_TRUE(server.has_value());
  auto client = Client::connect((*server)->port());
  ASSERT_TRUE(client.has_value());

  SweepRequest sweep;
  sweep.rows = 0;
  const common::Status local_sweep = validate(sweep);
  ASSERT_FALSE(local_sweep.ok());
  EXPECT_EQ(local_sweep.error().code, ErrorCode::kInvalidArgument);
  auto remote_sweep = client->sweep(sweep);
  ASSERT_FALSE(remote_sweep.has_value());
  EXPECT_EQ(remote_sweep.error().to_string(), local_sweep.error().to_string());

  InjectRequest inject;
  inject.rows = 0;
  auto local_inject = inject_campaign(inject);
  ASSERT_FALSE(local_inject.has_value());
  EXPECT_EQ(local_inject.error().code, ErrorCode::kInvalidArgument);
  auto remote_inject = client->inject(inject);
  ASSERT_FALSE(remote_inject.has_value());
  EXPECT_EQ(remote_inject.error().to_string(),
            local_inject.error().to_string());
}

TEST(ServerProtocol, InjectOnWarmDaemonArenasMatchesLocalRun) {
  // The daemon lends its arenas to inject, whose B3 has a 4096-row bank;
  // a sweep's B3 has the full bank. Neither may reuse the other's session.
  // One job runs everything on one arena slot, so each verb meets the
  // other's session.
  Service::Config config;
  config.jobs = 1;
  Service service(config);
  InjectRequest inject;
  inject.faults = "seed=3;flip_read=0.001;delay_pre=0.1,ns=9";
  inject.rows = 8;
  auto local = inject_campaign(inject);
  ASSERT_TRUE(local.has_value());
  const std::string expected_inject = core::campaign_json(local->run()).str();
  SweepRequest sweep;
  sweep.rows = 4;
  sweep.step = 1.0;
  auto expected_sweep = Service(config).sweep(sweep, common::CancelToken());
  ASSERT_TRUE(expected_sweep.has_value());

  for (int round = 0; round < 2; ++round) {
    auto injected = service.inject(inject, common::CancelToken());
    ASSERT_TRUE(injected.has_value()) << injected.error().to_string();
    EXPECT_EQ(injected->result_json, expected_inject);
    auto swept = service.sweep(sweep, common::CancelToken());
    ASSERT_TRUE(swept.has_value()) << swept.error().to_string();
    EXPECT_EQ(swept->result_json, expected_sweep->result_json);
  }
}

TEST(ServerProtocol, ResultResponseSplicesResultVerbatim) {
  RequestStats stats;
  stats.cache_hits = 5;
  stats.cache_misses = 7;
  const std::string result = "{\"kind\":\"pong\",\"x\":[1,2.5,3]}";
  const std::string response = encode_result_response(11, result, stats);
  EXPECT_NE(response.find("\"result\":" + result), std::string::npos);

  auto doc = common::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->uint_or("id", 0), 11u);
  EXPECT_TRUE(doc->bool_or("ok", false));
  auto unwrapped = response_result(*doc);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(unwrapped->string_or("kind", ""), "pong");
}

TEST(ServerProtocol, ErrorResponseRoundTripsCodeMessageAndModule) {
  common::Error error{ErrorCode::kQuotaExceeded, "too many jobs"};
  error.context.module = "B3";
  auto doc = common::parse_json(encode_error_response(4, error));
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->bool_or("ok", true));
  auto unwrapped = response_result(*doc);
  ASSERT_FALSE(unwrapped.has_value());
  EXPECT_EQ(unwrapped.error().code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(unwrapped.error().message, "too many jobs");
  EXPECT_EQ(unwrapped.error().context.module, "B3");
}

TEST(ServerProtocol, LevelQuantizationMakesCoarseGridASubsetOfFine) {
  SweepRequest fine;
  fine.step = 0.2;
  SweepRequest coarse;
  coarse.step = 0.4;
  const auto fine_cfg = sweep_config_from_request(fine);
  const auto coarse_cfg = sweep_config_from_request(coarse);
  // Every coarse level must be bitwise-equal to some fine level: the cache
  // keys by millivolt, and step 0.4 arithmetic must land on the exact
  // doubles step 0.2 produced.
  for (const double v : coarse_cfg.vpp_levels) {
    bool found = false;
    for (const double f : fine_cfg.vpp_levels) {
      if (f == v) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "coarse level " << v << " not on the fine grid";
  }
  // And quantization means every level sits exactly on the mV grid.
  for (const double v : fine_cfg.vpp_levels) {
    EXPECT_EQ(v, static_cast<double>(core::vpp_millivolts(v)) / 1000.0);
  }
}

TEST(ServerProtocol, HammerSweepCodecRoundTripsByteIdentically) {
  core::ModuleSweepResult sweep;
  sweep.module_name = "B3";
  sweep.mfr = static_cast<dram::Manufacturer>(1);
  sweep.vppmin_v = 1.9;
  sweep.vpp_levels = {2.5, 2.1, 1.7};
  core::RowSeries row;
  row.row = 129;
  row.wcdp = dram::DataPattern::kCheckerAA;
  row.hc_first = {17869, 19047, 20801};
  row.ber = {2.6398e-03, 0.0, 1.25e-07};
  sweep.rows.push_back(row);

  const std::string json = hammer_sweep_to_json(sweep);
  auto doc = common::parse_json(json);
  ASSERT_TRUE(doc.has_value());
  auto decoded = hammer_sweep_from_json(*doc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(hammer_sweep_to_json(*decoded), json);
}

TEST(ServerProtocol, TrcdSweepCodecRoundTripsByteIdentically) {
  core::TrcdSweepResult sweep;
  sweep.module_name = "A0";
  sweep.vppmin_v = 2.0;
  sweep.vpp_levels = {2.5, 2.3};
  sweep.trcd_min_ns = {13.5, 16.123456789012345};
  const std::string json = trcd_sweep_to_json(sweep);
  auto doc = common::parse_json(json);
  ASSERT_TRUE(doc.has_value());
  auto decoded = trcd_sweep_from_json(*doc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(trcd_sweep_to_json(*decoded), json);
}

TEST(ServerProtocol, RetentionSweepCodecRoundTripsByteIdentically) {
  core::RetentionSweepResult sweep;
  sweep.module_name = "B3";
  sweep.mfr = static_cast<dram::Manufacturer>(2);
  sweep.vpp_levels = {2.5, 2.1};
  sweep.trefw_ms = {16.0, 32.0, 64.0};
  sweep.mean_ber = {{0.0, 1e-9, 2.5e-8}, {0.0, 3e-9, 4.5e-8}};
  sweep.row_ber_at_reference = {{1e-9}, {3e-9}};
  const std::string json = retention_sweep_to_json(sweep);
  auto doc = common::parse_json(json);
  ASSERT_TRUE(doc.has_value());
  auto decoded = retention_sweep_from_json(*doc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(retention_sweep_to_json(*decoded), json);
}

TEST(ServerProtocol, ConfigDigestPinsEveryResultAffectingField) {
  SweepRequest request;
  const core::SweepConfig base = sweep_config_from_request(request);
  const std::uint64_t digest = ResultCache::config_digest(base, 0);
  EXPECT_EQ(ResultCache::config_digest(base, 0), digest);  // stable
  EXPECT_NE(ResultCache::config_digest(base, 1), digest);  // seed

  core::SweepConfig sampling = base;
  sampling.sampling.rows_per_chunk += 1;
  EXPECT_NE(ResultCache::config_digest(sampling, 0), digest);

  core::SweepConfig hammer = base;
  hammer.hammer.initial_hc += 1;
  EXPECT_NE(ResultCache::config_digest(hammer, 0), digest);

  core::SweepConfig retention = base;
  retention.retention.min_trefw_ms *= 2.0;
  EXPECT_NE(ResultCache::config_digest(retention, 0), digest);

  core::SweepConfig on_time = base;
  on_time.hammer.act_to_act_ns = 90.0;
  EXPECT_NE(ResultCache::config_digest(on_time, 0), digest);

  // The level grid is deliberately NOT in the digest: that is what lets
  // overlapping grids (step 0.4 vs 0.2) share cells.
  core::SweepConfig levels = base;
  levels.vpp_levels.pop_back();
  EXPECT_EQ(ResultCache::config_digest(levels, 0), digest);
}

TEST(ServerProtocol, CellKeySeparatesEveryAxis) {
  const std::uint64_t digest = 0x1234;
  const std::uint64_t key = ResultCache::cell_key(
      digest, core::JobPhase::kRowHammer, 7, 2500, 100);
  EXPECT_EQ(ResultCache::cell_key(digest, core::JobPhase::kRowHammer, 7, 2500,
                                  100),
            key);
  EXPECT_NE(ResultCache::cell_key(digest, core::JobPhase::kTrcd, 7, 2500, 100),
            key);
  EXPECT_NE(ResultCache::cell_key(digest, core::JobPhase::kRowHammer, 8, 2500,
                                  100),
            key);
  EXPECT_NE(ResultCache::cell_key(digest, core::JobPhase::kRowHammer, 7, 2300,
                                  100),
            key);
  EXPECT_NE(ResultCache::cell_key(digest, core::JobPhase::kRowHammer, 7, 2500,
                                  101),
            key);
  EXPECT_NE(ResultCache::cell_key(digest + 1, core::JobPhase::kRowHammer, 7,
                                  2500, 100),
            key);
}

TEST(ServerProtocol, ResultCacheCountsHitsAndMisses) {
  ResultCache cache;
  CellValue cell;
  EXPECT_FALSE(cache.lookup(42, &cell));
  CellValue stored;
  stored.hc_first = 12345;
  stored.ber = 0.5;
  cache.insert(42, stored);
  EXPECT_TRUE(cache.lookup(42, &cell));
  EXPECT_EQ(cell.hc_first, 12345u);
  EXPECT_EQ(cell.ber, 0.5);

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.cells, 1u);

  std::vector<dram::DataPattern> wcdp{dram::DataPattern::kCheckerAA};
  EXPECT_FALSE(cache.lookup_wcdp(7, &wcdp));
  cache.insert_wcdp(7, wcdp);
  std::vector<dram::DataPattern> out;
  EXPECT_TRUE(cache.lookup_wcdp(7, &out));
  EXPECT_EQ(out, wcdp);
  // WCDP preps are bookkeeping, not grid cells: no hit/miss accounting.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().wcdp_preps, 1u);
}

}  // namespace
}  // namespace vppstudy::server

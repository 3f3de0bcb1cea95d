#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "camatrix/canonical.hpp"
#include "camodel/model_io.hpp"
#include "flow/model_store.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "obs/metrics.hpp"
#include "serve/batch.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "test_support.hpp"
#include "util/net.hpp"

namespace caml {
namespace {

using serve::Client;
using serve::ClientOptions;
using serve::decode_error;
using serve::decode_frame;
using serve::decode_header;
using serve::encode_error;
using serve::encode_frame;
using serve::ErrorBody;
using serve::ErrorCode;
using serve::Frame;
using serve::MsgType;
using serve::ProtocolError;
using serve::RemoteError;
using serve::Server;
using serve::ServerOptions;
using testing::build_function;
using testing::characterize;

// ---------------------------------------------------------------------------
// Protocol codec

TEST(ServeProtocol, FrameRoundTrip) {
  Frame frame;
  frame.type = MsgType::kPredictCell;
  frame.request_id = 0x0123456789ABCDEFull;
  frame.payload = std::string("* netlist\n.SUBCKT X A Z\n.ENDS\n\0binary", 37);

  const std::string bytes = encode_frame(frame);
  ASSERT_EQ(bytes.size(), serve::kHeaderSize + frame.payload.size());
  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back.version, serve::kProtocolVersion);
  EXPECT_EQ(back.type, frame.type);
  EXPECT_EQ(back.request_id, frame.request_id);
  EXPECT_EQ(back.payload, frame.payload);

  // Empty payload (kPing) round-trips too.
  Frame ping;
  ping.type = MsgType::kPing;
  ping.request_id = 7;
  const Frame ping_back = decode_frame(encode_frame(ping));
  EXPECT_EQ(ping_back.type, MsgType::kPing);
  EXPECT_EQ(ping_back.request_id, 7u);
  EXPECT_TRUE(ping_back.payload.empty());
}

TEST(ServeProtocol, ErrorBodyRoundTrip) {
  const ErrorBody body{ErrorCode::kOverloaded, 75, "queue full"};
  const ErrorBody back = decode_error(encode_error(body));
  EXPECT_EQ(back.code, ErrorCode::kOverloaded);
  EXPECT_EQ(back.retry_after_ms, 75u);
  EXPECT_EQ(back.message, "queue full");

  EXPECT_THROW(decode_error("short"), ProtocolError);
}

TEST(ServeProtocol, RejectsMalformedFrames) {
  const std::string good = encode_frame(Frame{});

  // Truncated: any prefix shorter than a complete frame.
  EXPECT_THROW(decode_frame(std::string_view(good).substr(0, 3)), ProtocolError);
  EXPECT_THROW(decode_frame(std::string_view(good).substr(0, serve::kHeaderSize - 1)),
               ProtocolError);

  // Trailing bytes after the declared payload.
  EXPECT_THROW(decode_frame(good + "x"), ProtocolError);

  // Corrupt magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_frame(bad_magic), ProtocolError);

  // Oversized payload length in the header (kMaxPayload + 1, little-endian
  // at offset 16) must be rejected before any allocation happens.
  std::string oversized = good;
  const std::uint32_t huge = serve::kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    oversized[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  EXPECT_THROW(decode_header(reinterpret_cast<const unsigned char*>(oversized.data())),
               ProtocolError);

  // Encoding an over-limit payload is refused symmetrically.
  Frame too_big;
  too_big.payload.resize(serve::kMaxPayload + 1);
  EXPECT_THROW(encode_frame(too_big), ProtocolError);
}

TEST(ServeProtocol, HeaderAcceptsUnknownVersion) {
  // The header decoder must not reject unknown versions: the server reads
  // the full frame and answers kUnsupportedVersion instead of hanging up
  // silently.
  Frame frame;
  frame.version = 99;
  const std::string bytes = encode_frame(frame);
  const serve::FrameHeader header =
      decode_header(reinterpret_cast<const unsigned char*>(bytes.data()));
  EXPECT_EQ(header.version, 99u);
}

TEST(ServeNet, ConnectionLostClassifier) {
  EXPECT_TRUE(is_connection_lost_error("connection lost: connection reset by peer"));
  EXPECT_FALSE(is_connection_lost_error("read timed out after 5000 ms"));
  EXPECT_FALSE(is_connection_lost_error("protocol: bad magic"));
}

// ---------------------------------------------------------------------------
// End-to-end server tests

std::string temp_socket(const char* tag) {
  // Keep it short: AF_UNIX paths are limited to ~100 bytes.
  return (std::filesystem::temp_directory_path() /
          ("caml_t" + std::to_string(::getpid()) + "_" + tag + ".sock"))
      .string();
}

/// One store shared by every server test: a single (2-input, 4-transistor)
/// group trained on one NAND2. Training is the slow part, so do it once.
const GroupModelStore& shared_store() {
  static const GroupModelStore store = [] {
    const Technology tech = technology_28soi();
    std::vector<CharacterizedCell> training;
    training.push_back(
        characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1), tech));
    MlOptions options;
    options.forest.num_trees = 8;
    return GroupModelStore::train(training, options);
  }();
  return store;
}

/// A fresh NAND2 twin (different seed than the training cell).
Cell make_target_nand2() {
  const Technology tech = technology_28soi();
  return build_function("NAND2", tech, {1, StructureVariant::kWide}, 9).cell;
}

TEST(ServeServer, LoopbackPredictMatchesInProcess) {
  const Cell target = make_target_nand2();
  const std::string netlist = SpiceWriter().to_string(target);

  // Ground truth computed in-process with the exact parameters the server
  // uses: the parsed-back cell, default PolicyProfile, default SimConfig.
  const std::vector<Cell> parsed = SpiceParser().parse_string(netlist);
  ASSERT_EQ(parsed.size(), 1u);
  const CanonicalCell canonical = canonicalize(parsed.front());
  const CaModel expected_model =
      shared_store().predict(parsed.front(), canonical,
                             PolicyProfile{}.policy_for(parsed.front().num_inputs()),
                             SimConfig{});
  const std::string expected = ca_model_to_string(expected_model, parsed.front());
  ASSERT_FALSE(expected.empty());

  ServerOptions options;
  options.socket_path = temp_socket("loopback");
  options.jobs = 2;
  Server server(shared_store(), options);
  server.start();

  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);
  client.ping();
  const std::string served = client.predict_cell(netlist);
  EXPECT_EQ(served, expected) << "served prediction must be byte-identical";

  // A second request on the same keep-alive connection works and is
  // deterministic.
  EXPECT_EQ(client.predict_cell(netlist), expected);

  const serve::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests_ok, 2u);
  EXPECT_EQ(stats.pings, 1u);
  EXPECT_EQ(stats.cells_predicted, 2u);
  EXPECT_GT(stats.rows_classified, 0u);
  EXPECT_EQ(stats.requests_error, 0u);
  server.stop();
}

TEST(ServeServer, TcpLoopbackWorks) {
  ServerOptions options;  // no socket_path: loopback TCP, ephemeral port
  options.jobs = 1;
  Server server(shared_store(), options);
  server.start();
  ASSERT_NE(server.port(), 0);

  ClientOptions copts;
  copts.port = server.port();
  Client client(copts);
  client.ping();
  const std::string served = client.predict_cell(SpiceWriter().to_string(make_target_nand2()));
  EXPECT_NE(served.find("CAMODEL"), std::string::npos);
  server.stop();
}

TEST(ServeServer, StatsRequestReturnsUnifiedRegistrySnapshot) {
  ServerOptions options;
  options.socket_path = temp_socket("stats");
  options.jobs = 1;
  Server server(shared_store(), options);
  server.start();

  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);
  client.predict_cell(SpiceWriter().to_string(make_target_nand2()));
  const std::string text = client.stats();

  // The payload is the process-wide registry exposition: serve metrics
  // and the instrumented pipeline stages it exercised are all present.
  EXPECT_NE(text.find("# TYPE caml_serve_requests_ok_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE caml_serve_request_latency_us histogram"), std::string::npos);
  EXPECT_NE(text.find("caml_serve_request_latency_us_count"), std::string::npos);
  EXPECT_NE(text.find("caml_forest_rows_predicted_total"), std::string::npos);

  // The per-server snapshot counts the STATS request itself, and the
  // delta semantics keep the counts exact for this server instance even
  // though the registry is process-global.
  const serve::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(stats.requests_error, 0u);
  server.stop();
}

TEST(ServeServer, NoGroupIsStructuredErrorAndServerSurvives) {
  const Technology tech = technology_28soi();
  // INV is a (1 input, 2 transistor) group — absent from the NAND2-only
  // store, so the server must answer NO_GROUP rather than fall over.
  const Cell inv = build_function("INV", tech).cell;

  ServerOptions options;
  options.socket_path = temp_socket("nogroup");
  options.jobs = 1;
  Server server(shared_store(), options);
  server.start();

  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);
  try {
    client.predict_cell(SpiceWriter().to_string(inv));
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoGroup);
    EXPECT_NE(std::string(e.what()).find("NO_GROUP"), std::string::npos);
  }

  // The error was per-request: the same server still predicts fine.
  const std::string served = client.predict_cell(SpiceWriter().to_string(make_target_nand2()));
  EXPECT_NE(served.find("CAMODEL"), std::string::npos);
  // Regression: a NO_GROUP routing miss is a legitimate answer, not a
  // server failure — it must land in its own counter, and the error rate
  // a monitor would alert on must stay clean.
  const serve::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.no_group, 1u);
  EXPECT_EQ(stats.requests_error, 0u);
  EXPECT_EQ(stats.requests_ok, 1u);
  EXPECT_EQ(stats.requests_served(), 2u) << "NO_GROUP answers still count as served";
  server.stop();
}

TEST(ServeServer, UnknownVersionRejected) {
  ServerOptions options;
  options.socket_path = temp_socket("version");
  options.jobs = 1;
  Server server(shared_store(), options);
  server.start();

  const Fd conn = connect_unix(options.socket_path, 2000);
  Frame request;
  request.version = 99;
  request.type = MsgType::kPing;
  request.request_id = 42;
  serve::write_frame(conn.get(), request, 2000);
  const std::optional<Frame> response = serve::read_frame(conn.get(), 5000);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MsgType::kError);
  EXPECT_EQ(response->request_id, 42u);
  EXPECT_EQ(decode_error(response->payload).code, ErrorCode::kUnsupportedVersion);
  server.stop();
}

TEST(ServeServer, SurvivesMalformedFrame) {
  ServerOptions options;
  options.socket_path = temp_socket("malformed");
  options.jobs = 1;
  Server server(shared_store(), options);
  server.start();

  {
    // Garbage bytes (wrong magic): the server answers BAD_REQUEST
    // best-effort and closes this connection only. Exactly one header's
    // worth, so no unread bytes remain to turn the server's close into a
    // reset that could discard the queued error frame.
    const Fd conn = connect_unix(options.socket_path, 2000);
    const std::string garbage(serve::kHeaderSize, 'X');
    write_all(conn.get(), garbage.data(), garbage.size(), 2000);
    const std::optional<Frame> response = serve::read_frame(conn.get(), 5000);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->type, MsgType::kError);
    EXPECT_EQ(decode_error(response->payload).code, ErrorCode::kBadRequest);
    // Server closes the connection after a framing violation.
    EXPECT_FALSE(serve::read_frame(conn.get(), 5000).has_value());
  }

  // The daemon itself keeps serving.
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);
  client.ping();
  EXPECT_NE(client.predict_cell(SpiceWriter().to_string(make_target_nand2()))
                .find("CAMODEL"),
            std::string::npos);
  server.stop();
}

TEST(ServeServer, BackpressureRejectsWhenQueueFull) {
  ServerOptions options;
  options.socket_path = temp_socket("backpressure");
  options.jobs = 1;       // one worker to occupy
  options.max_queue = 1;  // one pending slot beyond it
  options.retry_after_ms = 75;
  options.read_timeout_ms = 3000;
  Server server(shared_store(), options);
  server.start();

  // Occupy the single worker: send a partial header so it blocks inside
  // read_frame waiting for the rest (bounded by read_timeout_ms).
  const Fd busy = connect_unix(options.socket_path, 2000);
  const std::string partial = encode_frame(Frame{}).substr(0, 4);
  write_all(busy.get(), partial.data(), partial.size(), 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Fills the one queue slot (no worker free to pick it up).
  const Fd queued = connect_unix(options.socket_path, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Queue full: this connection must be rejected with a structured
  // OVERLOADED error carrying the retry-after hint, without the request
  // ever being read (request id 0).
  const Fd rejected = connect_unix(options.socket_path, 2000);
  const std::optional<Frame> response = serve::read_frame(rejected.get(), 5000);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, MsgType::kError);
  EXPECT_EQ(response->request_id, 0u);
  const ErrorBody body = decode_error(response->payload);
  EXPECT_EQ(body.code, ErrorCode::kOverloaded);
  EXPECT_EQ(body.retry_after_ms, 75u);

  EXPECT_EQ(server.stats().rejected_overload, 1u);
  EXPECT_EQ(server.stats().queue_high_water, 1u);
  server.stop();
}

TEST(ServeClient, RemoteErrorsAreNotRetriedAsTransport) {
  // A RemoteError (structured server answer) must surface immediately;
  // only connection-loss transport failures are retried. Exercised by
  // pointing a retry-enabled client at a dead socket: it retries, then
  // fails with a transport Error (not RemoteError).
  ClientOptions copts;
  copts.socket_path = temp_socket("dead");
  copts.connect_timeout_ms = 200;
  copts.retries = 1;
  copts.backoff_ms = 10;
  Client client(copts);
  try {
    client.ping();
    FAIL() << "expected transport Error";
  } catch (const RemoteError&) {
    FAIL() << "a missing server is a transport failure, not a RemoteError";
  } catch (const Error& e) {
    EXPECT_TRUE(is_connection_lost_error(e.what())) << e.what();
  }
}

TEST(ServeServer, ReloadSwapsStoreAtomicallyWhileServing) {
  ServerOptions options;
  options.socket_path = temp_socket("reload");
  options.jobs = 2;
  Server server(shared_store(), options);
  server.start();

  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);

  const Technology tech = technology_28soi();
  const LibraryCell inv = build_function("INV", tech, {1, StructureVariant::kWide}, 31);
  const std::string inv_netlist =
      SpiceWriter().to_string(build_function("INV", tech, {1, StructureVariant::kWide}, 32).cell);

  // The initial store only covers the NAND2 group: INV gets NO_GROUP.
  try {
    client.predict_cell(inv_netlist);
    FAIL() << "expected NO_GROUP before the reload";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoGroup);
  }
  EXPECT_FALSE(client.predict_cell(SpiceWriter().to_string(make_target_nand2())).empty());

  // Hot-swap in a store that also covers the INV group — on the same
  // connection, without restarting the server.
  std::vector<CharacterizedCell> training;
  training.push_back(
      characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1), tech));
  training.push_back(characterize(inv, tech));
  MlOptions ml;
  ml.forest.num_trees = 8;
  server.reload(GroupModelStore::train(training, ml));

  EXPECT_FALSE(client.predict_cell(inv_netlist).empty());
  EXPECT_FALSE(client.predict_cell(SpiceWriter().to_string(make_target_nand2())).empty());
  EXPECT_EQ(server.stats().reloads, 1u);
  server.stop();
}

TEST(ServeClient, OverloadRetriesHonorHintAndBudgetCap) {
  ServerOptions options;
  options.socket_path = temp_socket("retrybudget");
  options.jobs = 1;       // one worker to occupy
  options.max_queue = 1;  // one pending slot beyond it
  options.retry_after_ms = 40;
  // Long enough to stay saturated for the whole retry dance (~500 ms),
  // short enough that stop()'s drain of the blocked worker is quick.
  options.read_timeout_ms = 1500;
  Server server(shared_store(), options);
  server.start();

  // Saturate exactly like BackpressureRejectsWhenQueueFull: the worker
  // blocks on a partial header, one connection fills the queue.
  const Fd busy = connect_unix(options.socket_path, 2000);
  const std::string partial = encode_frame(Frame{}).substr(0, 4);
  write_all(busy.get(), partial.data(), partial.size(), 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const Fd queued = connect_unix(options.socket_path, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Budget of 250 ms with a 40 ms hint: backoff attempt 0 waits in
  // [40, 80), attempt 1 in [80, 160) (exponential from the hint, jitter
  // factor < 2), so both sleeps always fit (< 240 ms spent) and the
  // third wait (>= 160 ms) always busts the budget — the OVERLOADED
  // error (carried on a request-id-0 frame, since the server never read
  // the request) surfaces as a RemoteError with the hint attached.
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  copts.overload_retry_budget_ms = 250;
  copts.backoff_ms = 1;  // below the hint, so the server's 40 ms is the floor
  Client client(copts);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client.ping();
    FAIL() << "expected OVERLOADED to surface after the budget is spent";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
    EXPECT_EQ(e.retry_after_ms(), 40u);
  }
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_GE(waited, 120) << "client must honor the server's retry-after hint as a floor";
  EXPECT_GE(server.stats().rejected_overload, 3u);

  // A zero budget disables overload retries: the reject surfaces
  // immediately.
  ClientOptions no_retry = copts;
  no_retry.overload_retry_budget_ms = 0;
  Client impatient(no_retry);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_THROW(impatient.ping(), RemoteError);
  const auto fast = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t1)
                        .count();
  EXPECT_LT(fast, 40);
  server.stop();
}

TEST(ServeServer, StopIsIdempotentAndRestartsCleanly) {
  ServerOptions options;
  options.socket_path = temp_socket("restart");
  options.jobs = 1;
  {
    Server server(shared_store(), options);
    server.start();
    EXPECT_TRUE(server.running());
    server.stop();
    server.stop();  // idempotent
    EXPECT_FALSE(server.running());
  }
  // The socket path is released: a second server binds the same path.
  Server again(shared_store(), options);
  again.start();
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);
  client.ping();
  again.stop();
}

// ---------------------------------------------------------------------------
// Event-loop regression tests (PR6)

TEST(ServeNet, NonblockingFcntlIsChecked) {
  // Regression: fcntl results used to be ignored. A bad fd must raise a
  // structured Error naming the call site, not silently hand back a
  // blocking fd that would stall the reactor.
  try {
    set_nonblocking(-1, true, "bogus fd");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus fd"), std::string::npos);
  }

  // make_pipe promises non-blocking ends — verify the promise is real.
  const Pipe pipe = make_pipe();
  const int rd_flags = ::fcntl(pipe.rd.get(), F_GETFL);
  const int wr_flags = ::fcntl(pipe.wr.get(), F_GETFL);
  ASSERT_GE(rd_flags, 0);
  ASSERT_GE(wr_flags, 0);
  EXPECT_NE(rd_flags & O_NONBLOCK, 0);
  EXPECT_NE(wr_flags & O_NONBLOCK, 0);
}

TEST(ServeServer, StopIsPromptUnderChattyKeepAliveClient) {
  // Regression for the shutdown-starvation bug: the old loop re-checked
  // the stop signal only when no connection was readable, so one chatty
  // keep-alive client could delay stop() indefinitely. The reactor now
  // checks the stop signal before any connection work and bounds the
  // drain by idle_timeout_ms.
  ServerOptions options;
  options.socket_path = temp_socket("chattystop");
  options.jobs = 1;
  options.idle_timeout_ms = 400;  // bounds the shutdown drain
  Server server(shared_store(), options);
  server.start();

  std::atomic<bool> done{false};
  std::thread chatty([&] {
    try {
      const Fd conn = connect_unix(options.socket_path, 2000);
      std::uint64_t id = 1;
      while (!done.load()) {
        Frame ping;
        ping.type = MsgType::kPing;
        ping.request_id = id++;
        serve::write_frame(conn.get(), ping, 1000);
        if (!serve::read_frame(conn.get(), 1000).has_value()) break;  // server hung up
      }
    } catch (const Error&) {
      // Connection torn down mid-ping by stop(): expected.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // pings flowing

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  done.store(true);
  chatty.join();
  EXPECT_GT(server.stats().pings, 0u) << "the client must have been genuinely chatty";
  EXPECT_LT(stop_ms, 1500)
      << "stop() must not be starved by a connection that is always readable";
}

TEST(ServeServer, QueueDepthGaugeDrainsToZero) {
  // Regression for the stale-gauge bug: depth used to be published only
  // when connections queued up, never when they drained, so the gauge
  // read high forever after any burst.
  ServerOptions options;
  options.socket_path = temp_socket("gauge");
  options.jobs = 1;
  Server server(shared_store(), options);
  server.start();

  const auto wait_until = [&](auto pred) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  };

  {
    const Fd a = connect_unix(options.socket_path, 2000);
    const Fd b = connect_unix(options.socket_path, 2000);
    const Fd c = connect_unix(options.socket_path, 2000);
    // Three admitted keep-alive connections over one worker: depth 2.
    EXPECT_TRUE(wait_until([&] { return server.stats().queue_depth == 2u; }))
        << "queue_depth is " << server.stats().queue_depth;
    EXPECT_GE(server.stats().queue_high_water, 2u);
  }
  // Connections closed: the pop side must publish shrinkage too.
  EXPECT_TRUE(wait_until([&] { return server.stats().queue_depth == 0u; }))
      << "gauge stuck at " << server.stats().queue_depth << " after drain";
  EXPECT_GE(server.stats().queue_high_water, 2u) << "high water stays monotonic";
  server.stop();
}

TEST(ServeBatch, CoalescedAnswersMatchPerRequestPredictions) {
  // The cross-connection coalescing path must be byte-identical to
  // answering each request alone, and per-request failures must settle
  // their own slot without disturbing batchmates.
  const PolicyProfile policy;
  std::vector<serve::PredictJob> jobs;
  std::vector<std::string> expected;
  for (unsigned seed : {11u, 12u, 13u}) {
    const Technology tech = technology_28soi();
    const Cell cell = build_function("NAND2", tech, {1, StructureVariant::kWide}, seed).cell;
    const std::string netlist = SpiceWriter().to_string(cell);
    const std::vector<Cell> parsed = SpiceParser().parse_string(netlist);
    const CaModel model =
        shared_store().predict(parsed.front(), canonicalize(parsed.front()),
                               policy.policy_for(parsed.front().num_inputs()), SimConfig{});
    expected.push_back(ca_model_to_string(model, parsed.front()));

    serve::PredictJob job;
    job.conn_id = 1;
    job.seq = jobs.size();
    job.request_id = jobs.size() + 1;
    job.netlist = netlist;
    jobs.push_back(std::move(job));
  }
  // A routing miss and a parse failure ride in the middle of the batch.
  serve::PredictJob inv;
  inv.conn_id = 2;
  inv.seq = 99;
  inv.request_id = 100;
  inv.netlist = SpiceWriter().to_string(build_function("INV", technology_28soi()).cell);
  jobs.insert(jobs.begin() + 1, std::move(inv));
  serve::PredictJob garbage;
  garbage.conn_id = 3;
  garbage.request_id = 200;
  garbage.netlist = "this is not spice";
  jobs.insert(jobs.begin() + 3, std::move(garbage));

  const std::vector<serve::PredictOutcome> outcomes =
      serve::answer_predict_batch(shared_store(), policy, jobs);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0].kind, serve::PredictOutcome::Kind::kOk);
  EXPECT_EQ(outcomes[0].response.payload, expected[0]);
  EXPECT_EQ(outcomes[1].kind, serve::PredictOutcome::Kind::kNoGroup);
  EXPECT_EQ(decode_error(outcomes[1].response.payload).code, ErrorCode::kNoGroup);
  EXPECT_EQ(outcomes[2].kind, serve::PredictOutcome::Kind::kOk);
  EXPECT_EQ(outcomes[2].response.payload, expected[1]);
  EXPECT_EQ(outcomes[3].kind, serve::PredictOutcome::Kind::kError);
  EXPECT_EQ(outcomes[4].kind, serve::PredictOutcome::Kind::kOk);
  EXPECT_EQ(outcomes[4].response.payload, expected[2]);
  // conn/seq routing metadata is echoed untouched.
  EXPECT_EQ(outcomes[1].conn_id, 2u);
  EXPECT_EQ(outcomes[1].seq, 99u);
}

TEST(ServeServer, PipelinedBatchIsOrderedAndByteIdentical) {
  // End to end through the reactor: many requests in flight on one
  // connection, responses in request order, every payload byte-identical
  // to the in-process prediction, per-request errors in place.
  const PolicyProfile policy;
  std::vector<std::string> netlists;
  std::vector<std::string> expected;  // empty string = expect NO_GROUP
  for (unsigned seed : {21u, 22u, 23u}) {
    const Technology tech = technology_28soi();
    const Cell cell = build_function("NAND2", tech, {1, StructureVariant::kWide}, seed).cell;
    const std::string netlist = SpiceWriter().to_string(cell);
    const std::vector<Cell> parsed = SpiceParser().parse_string(netlist);
    const CaModel model =
        shared_store().predict(parsed.front(), canonicalize(parsed.front()),
                               policy.policy_for(parsed.front().num_inputs()), SimConfig{});
    netlists.push_back(netlist);
    expected.push_back(ca_model_to_string(model, parsed.front()));
  }
  netlists.insert(netlists.begin() + 1,
                  SpiceWriter().to_string(build_function("INV", technology_28soi()).cell));
  expected.insert(expected.begin() + 1, "");

  ServerOptions options;
  options.socket_path = temp_socket("pipeline");
  options.jobs = 1;  // every request funnels through one compute worker
  Server server(shared_store(), options);
  server.start();

  ClientOptions copts;
  copts.socket_path = options.socket_path;
  Client client(copts);
  const std::vector<serve::BatchResult> results = client.predict_cells(netlists, 8);
  ASSERT_EQ(results.size(), netlists.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (expected[i].empty()) {
      ASSERT_FALSE(results[i].ok()) << "request " << i;
      EXPECT_EQ(results[i].error->code, ErrorCode::kNoGroup);
    } else {
      ASSERT_TRUE(results[i].ok()) << "request " << i;
      EXPECT_EQ(results[i].payload, expected[i]) << "request " << i;
    }
  }

  const serve::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests_ok, 3u);
  EXPECT_EQ(stats.no_group, 1u);
  EXPECT_EQ(stats.requests_error, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, 4u) << "each request computed at most once";
  // The compute backlog gauge drains back to 0 (fed on both sides).
  EXPECT_EQ(obs::Registry::global().gauge("caml_serve_predict_backlog").value(), 0);
  server.stop();
}

TEST(ServeProtocol, PredictPayloadVersionSplit) {
  // v1: the payload IS the netlist, untouched.
  const serve::PredictPayload v1 =
      serve::split_predict_payload(serve::kProtocolVersion, "* bare netlist");
  EXPECT_EQ(v1.deadline_ms, 0u);
  EXPECT_EQ(v1.netlist, "* bare netlist");

  // v2: deadline prefix + netlist round-trips through encode/split.
  const std::string wire = serve::encode_predict_payload(1500, "* v2 netlist");
  const serve::PredictPayload v2 =
      serve::split_predict_payload(serve::kProtocolVersionDeadline, wire);
  EXPECT_EQ(v2.deadline_ms, 1500u);
  EXPECT_EQ(v2.netlist, "* v2 netlist");

  // A v2 payload shorter than its fixed field is malformed, not a
  // zero-deadline request.
  EXPECT_THROW(serve::split_predict_payload(serve::kProtocolVersionDeadline, "abc"),
               ProtocolError);
}

TEST(ServeClient, BackoffDecorrelatesAcrossSeeds) {
  // The jittered overload backoff is a pure function: reproducible per
  // seed, floored by the server hint, bounded by 2x the capped
  // exponential, and decorrelated across seeds so a fleet of restarted
  // clients does not re-stampede the server in lockstep.
  const int hint = 40, base = 100, cap = 2000;
  std::vector<std::vector<int>> schedules;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<int> waits;
    for (int attempt = 0; attempt < 4; ++attempt) {
      const int w = serve::overload_backoff_ms(seed, attempt, hint, base, cap);
      // Deterministic: same (seed, attempt) -> same wait.
      EXPECT_EQ(w, serve::overload_backoff_ms(seed, attempt, hint, base, cap));
      // Floor: never earlier than the server asked; jitter only stretches.
      EXPECT_GE(w, std::max(hint, base)) << "seed " << seed << " attempt " << attempt;
      // Bound: capped exponential, at most doubled by jitter.
      EXPECT_LT(w, 2 * cap) << "seed " << seed << " attempt " << attempt;
      waits.push_back(w);
    }
    // Exponential shape survives the jitter: attempt k+1's pre-jitter
    // wait doubles, and jitter is < 2x, so the schedule grows until cap.
    EXPECT_GT(waits[1], waits[0] / 2);
    schedules.push_back(std::move(waits));
  }
  // Decorrelation: 8 seeds must not all produce the identical schedule.
  int distinct_from_first = 0;
  for (std::size_t i = 1; i < schedules.size(); ++i) {
    if (schedules[i] != schedules[0]) ++distinct_from_first;
  }
  EXPECT_GE(distinct_from_first, 6) << "jitter failed to spread the fleet";
}

TEST(ServeServer, DeadlineExpiredIsShedWithoutCompute) {
  // A v2 request whose 1 ms deadline expires while queued behind a slow
  // batch is answered DEADLINE_EXCEEDED and never reaches the compute
  // plane — the shed counters prove no forest work was spent on it.
  // The blockers are 4-input cells (several ms of compute each), so the
  // deadline lapses with a wide margin even on a loaded host.
  static const GroupModelStore store = [] {
    const Technology tech = technology_28soi();
    std::vector<CharacterizedCell> training;
    training.push_back(
        characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1), tech));
    training.push_back(
        characterize(build_function("AOI22", tech, {1, StructureVariant::kWide}, 1), tech));
    MlOptions ml;
    ml.forest.num_trees = 8;
    return GroupModelStore::train(training, ml);
  }();
  ServerOptions options;
  options.socket_path = temp_socket("deadline");
  options.jobs = 1;       // one worker: FIFO drain order is deterministic
  options.max_batch = 1;  // blocker and deadline job in separate batches
  Server server(store, options);
  server.start();

  const Technology tech = technology_28soi();
  const std::string blocker_netlist = SpiceWriter().to_string(
      build_function("AOI22", tech, {1, StructureVariant::kWide}, 9).cell);
  const std::string netlist = SpiceWriter().to_string(make_target_nand2());
  const Fd conn = connect_unix(options.socket_path, 2000);

  // Pipeline five frames on one connection, sent in one write so the
  // reactor decodes them together: four v1 blockers (their serial
  // compute keeps the single worker busy far past 1 ms) and a v2
  // request carrying a 1 ms deadline. The reactor decodes in order, so
  // the deadline job waits in the queue while every blocker computes.
  constexpr std::uint64_t kBlockers = 4;
  std::string pipeline;
  for (std::uint64_t id = 1; id <= kBlockers; ++id) {
    Frame blocker;
    blocker.type = MsgType::kPredictCell;
    blocker.request_id = id;
    blocker.payload = blocker_netlist;
    pipeline += encode_frame(blocker);
  }
  Frame doomed;
  doomed.version = serve::kProtocolVersionDeadline;
  doomed.type = MsgType::kPredictCell;
  doomed.request_id = kBlockers + 1;
  doomed.payload = serve::encode_predict_payload(1, netlist);
  pipeline += encode_frame(doomed);
  write_all(conn.get(), pipeline.data(), pipeline.size(), 2000);

  for (std::uint64_t id = 1; id <= kBlockers; ++id) {
    const std::optional<Frame> response = serve::read_frame(conn.get(), 30000);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->type, MsgType::kPredictOk);
    EXPECT_EQ(response->request_id, id);
  }
  const std::optional<Frame> shed = serve::read_frame(conn.get(), 30000);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->request_id, kBlockers + 1);
  ASSERT_EQ(shed->type, MsgType::kError);
  EXPECT_EQ(decode_error(shed->payload).code, ErrorCode::kDeadlineExceeded);

  const serve::StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.shed_expired, 1u);
  EXPECT_EQ(stats.requests_ok, kBlockers);
  EXPECT_EQ(stats.cells_predicted, kBlockers)
      << "the shed request must not consume compute";
  server.stop();
}

TEST(ServeServer, SojournOverTargetShedsBeforeQueueing) {
  // Latency-signal admission: with a 1 ms sojourn target and a queue
  // backed up behind one worker, the measured p99 sojourn blows past the
  // target and later arrivals are shed kOverloaded before queueing.
  ServerOptions options;
  options.socket_path = temp_socket("sojourn");
  options.jobs = 1;
  options.max_batch = 1;          // every job is its own batch -> sojourns pile up
  options.sojourn_target_ms = 1;  // any real backlog exceeds this
  Server server(shared_store(), options);
  server.start();

  const std::string netlist = SpiceWriter().to_string(make_target_nand2());
  const Fd conn = connect_unix(options.socket_path, 2000);
  // 12 pipelined predicts: jobs queue behind the single worker, so the
  // sojourn window (needs >= 8 samples) fills with multi-ms sojourns.
  for (std::uint64_t id = 1; id <= 12; ++id) {
    Frame request;
    request.type = MsgType::kPredictCell;
    request.request_id = id;
    request.payload = netlist;
    serve::write_frame(conn.get(), request, 2000);
  }
  std::uint64_t sheds_inline = 0;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const std::optional<Frame> response = serve::read_frame(conn.get(), 30000);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->request_id, id);
    if (response->type == MsgType::kError) {
      // Later arrivals in the pipeline may already be shed by the
      // policy once the window has its 8 samples — also a pass.
      EXPECT_EQ(decode_error(response->payload).code, ErrorCode::kOverloaded);
      ++sheds_inline;
    } else {
      EXPECT_EQ(response->type, MsgType::kPredictOk);
    }
  }

  if (sheds_inline == 0) {
    // The window is full of over-target sojourns: the next arrival must
    // be shed at admission. A zero retry budget surfaces it immediately.
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    copts.overload_retry_budget_ms = 0;
    Client client(copts);
    try {
      client.predict_cell(netlist);
      FAIL() << "expected the sojourn policy to shed this request";
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
    }
  }
  EXPECT_GE(server.stats().shed_overload, 1u);
  server.stop();
}

}  // namespace
}  // namespace caml

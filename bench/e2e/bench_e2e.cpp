// Real-time end-to-end benchmark of the blocklist serving stack.
//
// Runs the unmodified stack — ResilientClient -> Transport ->
// BlocklistServiceNode -> QueryPipeline -> OprfServer — on the wall
// clock with C = 3 wallet connections in one process, and measures what
// a wallet and a provider see: latency under an open-loop Poisson
// schedule, closed-loop capacity, raw provider capacity, CPU and wire
// bytes per query, set-up time, memory, and how long a list change takes
// to reach every wallet through a verified transparency-log sync. Times
// and rates are scaled to a reference host speed measured in-run (see
// "Host speed"). Every verdict is checked against ground truth.
// README.md has the workloads, the metric definitions and the
// concurrency rules this file enforces.
//
// Usage:
//   bench_e2e --workload <online_lookup|prefix_filtered|churn_sync>
//             [--seed N] [--seconds S] [--json PATH] [--trace PATH]
//
// --seconds is the length of the measured phases (default 22: 2 s
// warm-up, 10 s fixed rate, 6 s capacity, 4 s server, scaled together).
// --trace runs the phases twice at half length, untraced then traced,
// takes the end-to-end metrics from the first pass and the per-layer
// metrics from the second, and writes the spans to PATH as Chrome
// trace-event JSON. Exit status: 0 when every verdict was right, 1 when
// any was wrong or the run could not complete, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_safety.h"
#include "ec/ristretto.h"
#include "ec/scalar.h"
#include "load/arrivals.h"
#include "load/workload.h"
#include "net/query_pipeline.h"
#include "net/resilient_client.h"
#include "net/service_node.h"
#include "nizk/signature.h"
#include "obs/metrics.h"
#include "oprf/client.h"
#include "oprf/oracle.h"
#include "oprf/server.h"
#include "oprf/wire.h"
#include "store/fs.h"
#include "store/state_store.h"
#include "tlog/publisher.h"

namespace {

using cbl::Bytes;
using cbl::ByteView;
using cbl::ChaChaRng;
namespace net = cbl::net;
namespace oprf = cbl::oprf;

// Three connection threads plus the (mostly sleeping) main thread fill
// the 4 cores the benchmark is sized for, leaving no generator thread.
constexpr unsigned kConnections = 3;
constexpr std::size_t kUniverse = std::size_t{1} << 16;
constexpr double kZipfS = 1.1;
constexpr unsigned kSetupThreads = 3;
// Set-up is repeated and its median reported: one sample is too noisy to
// gate on, and the repetitions show work moved into set-up.
constexpr unsigned kSetupRepeats = 3;
constexpr std::size_t kChurnBatch = 128;
// One update round per second of fixed-rate phase: beside the reads in
// churn_sync, in an idle phase after the server phase otherwise.
constexpr double kRoundIntervalS = 1.0;
constexpr std::size_t kServerFrames = 1024;
constexpr std::size_t kClosedLoopRing = std::size_t{1} << 19;
constexpr std::size_t kProbeCalls = 256;
constexpr std::uint64_t kSpinNs = 200'000;
// Host-speed calibration (see "Host speed" below): steps per measurement
// (a few ms), and the step time of the reference host that times and
// rates are scaled to: a little faster than the quietest spells measured
// on a 2.0 GHz Xeon guest (17-18 ns; 28-40 ns in busy ones).
constexpr std::size_t kCalibrationSteps = 200'000;
constexpr double kReferenceStepNs = 15.0;
// Latency and rate metrics are quantiles over short windows of their
// phase (see run_pass): the host pauses the benchmark for a second or
// two at a time, and a quantile over windows ignores a pause that a
// whole-phase figure absorbs.
constexpr double kLatencyWindowS = 1.0;
constexpr double kRateWindowS = 0.2;
// Fixed-rate seconds per interleaved cycle of the measured phases.
constexpr double kCycleFixedS = 1.0;
const std::string kEndpoint = "provider";

// Phase lengths as shares of --seconds: 2 : 10 : 6 : 4.
constexpr double kWarmShare = 2.0 / 22.0;
constexpr double kFixedShare = 10.0 / 22.0;
constexpr double kCapacityShare = 6.0 / 22.0;
constexpr double kServerShare = 4.0 / 22.0;

struct Spec {
  const char* name;
  unsigned lambda;
  std::size_t listed;
  double fixed_qps;
  bool churn;  // update rounds run beside the open-loop reads
};

// Why these three: README.md "Workloads".
constexpr Spec kSpecs[] = {
    {"online_lookup", 10, std::size_t{1} << 14, 1500.0, false},
    {"prefix_filtered", 16, std::size_t{1} << 12, 5000.0, false},
    {"churn_sync", 10, std::size_t{1} << 14, 1000.0, true},
};

enum Phase : std::uint8_t { kWarmUp, kFixedRate, kCapacity, kIdle };
const char* const kPhaseNames[] = {"warm_up", "fixed_rate", "capacity",
                                   "idle"};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Busy-waits until `due`. Connection threads never sleep: on a virtual
/// machine a halted vCPU can take hundreds of microseconds to wake when
/// the host is busy, and that delay would read as query latency.
void spin_until_ns(std::uint64_t due) {
  while (now_ns() < due) {
  }
}

/// Sleeps until kSpinNs before `due`, then spins. For the main thread,
/// whose waits are long and whose CPU time counts in cpu_us_per_query.
void sleep_until_ns(std::uint64_t due) {
  const std::uint64_t t = now_ns();
  if (due > t + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - t));
  }
  spin_until_ns(due);
}

/// The calling thread's CPU time. Time the hypervisor takes from the
/// thread's vCPU (steal) does not advance it, so CPU-time figures stay
/// put when the host pauses the benchmark; wall-clock ones do not.
double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Linear interpolation between order statistics; NaN when empty (a
/// missing sample set must fail the report, not read as zero).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) {
  return den > 0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

// --- Spans -----------------------------------------------------------------
// Bench-side spans around the calls into each layer, kept in per-thread
// in-memory buffers and written out at exit.

enum SpanName : std::uint8_t {
  kSpanQuery,
  kSpanWireCall,
  kSpanWireTlog,
  kSpanSync,
  kSpanUpdate,
  kSpanPublish,
};
const char* const kSpanNames[] = {"client.query", "wire.call", "wire.tlog",
                                  "conn.sync",    "oprf.update",
                                  "tlog.publish"};
constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t qid = 0;
  std::uint32_t parent = kNoParent;
  SpanName name = kSpanQuery;
  Phase phase = kWarmUp;
};

/// One thread's spans. Exactly one thread appends to a buffer, so
/// recording takes no lock.
struct SpanBuffer {
  std::vector<Span> spans;
  std::uint32_t open = kNoParent;  // innermost unfinished span
  std::uint64_t qid = 0;           // query id stamped on new spans
  Phase phase = kWarmUp;
};

/// The calling thread's buffer; null while tracing is off.
thread_local SpanBuffer* t_trace = nullptr;

class SpanScope {
 public:
  explicit SpanScope(SpanName name) : buffer_(t_trace) {
    if (buffer_ == nullptr) return;
    index_ = static_cast<std::uint32_t>(buffer_->spans.size());
    parent_ = buffer_->open;
    buffer_->spans.push_back(
        Span{now_ns(), 0, buffer_->qid, parent_, name, buffer_->phase});
    buffer_->open = index_;
  }
  ~SpanScope() {
    if (buffer_ == nullptr) return;
    buffer_->spans[index_].end_ns = now_ns();
    buffer_->open = parent_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t index_ = 0;
  std::uint32_t parent_ = kNoParent;
};

/// Channel over one connection's Transport: a wire.call (query frame) or
/// wire.tlog span per call when tracing, plus query-frame byte counts,
/// which the Transport's own stats cannot split from tlog traffic. Only
/// the owning connection's thread calls it while a phase runs.
class TimedChannel final : public net::Channel {
 public:
  explicit TimedChannel(net::Transport& transport) : transport_(transport) {}

  net::CallResult call(const std::string& endpoint,
                       ByteView request) override {
    const bool query =
        !request.empty() &&
        request[0] == static_cast<std::uint8_t>(net::Method::kQuery);
    SpanScope span(query ? kSpanWireCall : kSpanWireTlog);
    net::CallResult result = transport_.call(endpoint, request);
    if (query) {
      ++query_calls;
      query_req_bytes += request.size();
      query_resp_bytes += result.response.size();
    }
    return result;
  }

  std::uint64_t query_calls = 0;
  std::uint64_t query_req_bytes = 0;
  std::uint64_t query_resp_bytes = 0;

 private:
  net::Transport& transport_;
};

// --- Ground truth ----------------------------------------------------------

/// Membership ground truth with history. Version v is the list after v
/// server mutations (each add_entries or remove_entries call is one).
class Truth {
 public:
  Truth(std::size_t universe, std::size_t initially_listed)
      : initially_listed_(initially_listed),
        listed_(universe, 0),
        flips_(universe) {
    std::fill(listed_.begin(),
              listed_.begin() + static_cast<std::ptrdiff_t>(initially_listed),
              1);
  }

  bool listed(std::size_t a) const { return listed_[a] != 0; }
  void flip(std::size_t a, std::uint32_t version) {
    listed_[a] ^= 1;
    flips_[a].push_back(version);
  }

  /// True when address `a` was `verdict` at some version in [lo, hi].
  bool consistent(std::size_t a, std::uint32_t lo, std::uint32_t hi,
                  bool verdict) const {
    bool state = a < initially_listed_;
    for (const std::uint32_t v : flips_[a]) {
      if (v > hi) break;
      if (v > lo) return true;  // both values held inside the window
      state = !state;
    }
    return state == verdict;
  }

 private:
  std::size_t initially_listed_;
  std::vector<std::uint8_t> listed_;
  std::vector<std::vector<std::uint32_t>> flips_;
};

// --- Counters the program already keeps --------------------------------------

enum CounterId : std::uint8_t {
  kQueries,           // kQuery frames the nodes received
  kParseNs,           // node: request-frame parsing
  kServeNs,           // node: QueryPipeline::serve, waiting included
  kSealNs,            // node: response sealing
  kPipelineCryptoNs,  // pipeline leaders inside evaluate_batch
  kPipelineBatches,
  kPipelineEnqueued,
  kPipelineShed,
  kFastLocal,  // prefix list answered offline
  kFastOnline,
  kCacheHit,   // server omitted the bucket
  kCacheMiss,
  kRetries,
  kTimeouts,
  kRateLimited,
  kSyncDeltaBytes,
  kSyncFullBytes,
  kCounterCount,
};

/// A snapshot of the counters the program already keeps in the global
/// obs registry; the benchmark reads them as deltas.
struct Counters {
  std::array<std::uint64_t, kCounterCount> v{};

  std::uint64_t operator[](CounterId id) const { return v[id]; }

  static Counters read() {
    struct Source {
      const char* name;
      cbl::obs::Labels labels;
    };
    static const std::array<Source, kCounterCount> kSources = {{
        {"cbl_net_requests_total", {{"method", "query"}}},
        {"cbl_net_stage_cpu_ns_total", {{"stage", "parse"}}},
        {"cbl_net_stage_cpu_ns_total", {{"stage", "crypto"}}},
        {"cbl_net_stage_cpu_ns_total", {{"stage", "seal"}}},
        {"cbl_net_pipeline_crypto_ns_total", {}},
        {"cbl_net_pipeline_batches_total", {}},
        {"cbl_net_pipeline_enqueued_total", {}},
        {"cbl_net_pipeline_shed_total", {}},
        {"cbl_oprf_client_fastpath_total", {{"result", "local"}}},
        {"cbl_oprf_client_fastpath_total", {{"result", "online"}}},
        {"cbl_oprf_client_cache_total", {{"result", "hit"}}},
        {"cbl_oprf_client_cache_total", {{"result", "miss"}}},
        {"cbl_net_resilient_retries_total", {}},
        {"cbl_net_resilient_timeouts_total", {}},
        {"cbl_net_resilient_rate_limited_total", {}},
        {"cbl_tlog_sync_bytes_total",
         {{"endpoint", kEndpoint}, {"kind", "delta"}}},
        {"cbl_tlog_sync_bytes_total",
         {{"endpoint", kEndpoint}, {"kind", "full"}}},
    }};
    auto& registry = cbl::obs::MetricsRegistry::global();
    Counters s;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      s.v[i] = registry.counter(kSources[i].name, kSources[i].labels).value();
    }
    return s;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    for (std::size_t i = 0; i < kCounterCount; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  Counters& operator+=(const Counters& o) {
    for (std::size_t i = 0; i < kCounterCount; ++i) v[i] += o.v[i];
    return *this;
  }
};

// --- The system under test -----------------------------------------------

struct Stack;

/// One wallet: its own Transport (the Transport's rng and stats are
/// unsynchronised, so transports are never shared between threads), its
/// own node on that transport, and its own ResilientClient.
struct Connection {
  Connection(unsigned index, std::uint64_t seed, Stack& stack);

  unsigned index;
  ChaChaRng transport_rng;
  ChaChaRng client_rng;
  ChaChaRng closed_client_rng;
  net::Transport transport;
  TimedChannel channel;
  net::BlocklistServiceNode node;
  cbl::store::StateStore state;
  net::ResilientClient client;
  /// The closed loop's client on the same connection, so the open-loop
  /// client's bucket cache sees only open-loop traffic: otherwise its
  /// wire bytes would follow how many closed-loop queries the host's
  /// speed allowed in between.
  net::ResilientClient closed_client;
  SpanBuffer trace;
  std::uint32_t synced_round = 0;  // update rounds this wallet has synced

  /// True when the wallet's verified mirror is at the provider's epoch
  /// and the provider is still trusted.
  bool mirrors(const oprf::OprfServer& server) const {
    const cbl::tlog::Auditor* auditor = client.tlog_auditor(kEndpoint);
    return auditor != nullptr && auditor->has_state() &&
           auditor->mirror_epoch() == server.epoch() &&
           !client.distrusted(kEndpoint);
  }
};

/// One provider (server, pipeline, transparency publisher, durable epoch
/// floor) and the C wallets that query it. The constructor is the timed
/// set-up.
struct Stack {
  Stack(const Spec& spec, std::span<const std::string> listed,
        std::uint64_t seed);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ChaChaRng server_rng;
  ChaChaRng publisher_rng;
  cbl::store::MemFs fs;
  cbl::store::EpochLog epoch_log;
  /// Epoch-listener timings. Appended under the server's write lock
  /// (every mutation holds it), read only between phases.
  std::vector<double> note_us;
  std::uint64_t note_failures = 0;
  oprf::OprfServer server;
  cbl::tlog::EpochPublisher publisher;
  // NodeLimits stay off: the node's busy_until_ms_ is unsynchronised and
  // models capacity from configuration, not from the code's real cost.
  net::QueryPipeline pipeline;
  std::vector<std::unique_ptr<Connection>> conns;
  bool synced_ok = true;
};

Connection::Connection(unsigned i, std::uint64_t seed, Stack& stack)
    : index(i),
      transport_rng(ChaChaRng::from_string_seed(
          "e2e/transport/" + std::to_string(seed) + "/" + std::to_string(i))),
      client_rng(ChaChaRng::from_string_seed(
          "e2e/client/" + std::to_string(seed) + "/" + std::to_string(i))),
      closed_client_rng(ChaChaRng::from_string_seed(
          "e2e/closed/" + std::to_string(seed) + "/" + std::to_string(i))),
      transport(net::TransportConfig{.latency_ms_min = 0.0,
                                     .latency_ms_max = 0.0,
                                     .drop_rate = 0.0},
                transport_rng),
      channel(transport),
      node(transport, kEndpoint, stack.server, oprf::Oracle::fast(),
           net::NodeLimits(), &stack.pipeline, &stack.publisher),
      state(stack.fs, "wallet-" + std::to_string(i)),
      client(channel, std::vector<std::string>{kEndpoint}, client_rng),
      closed_client(channel, std::vector<std::string>{kEndpoint},
                    closed_client_rng) {}

Stack::Stack(const Spec& spec, std::span<const std::string> listed,
             std::uint64_t seed)
    : server_rng(ChaChaRng::from_string_seed("e2e/server/" +
                                             std::to_string(seed))),
      publisher_rng(ChaChaRng::from_string_seed("e2e/publisher/" +
                                                std::to_string(seed))),
      epoch_log(fs, "provider.epochs"),
      server(oprf::Oracle::fast(), spec.lambda, server_rng),
      publisher(cbl::nizk::SigningKey::generate(publisher_rng),
                publisher_rng),
      pipeline(server, net::PipelineOptions()) {
  epoch_log.recover();
  server.set_epoch_listener([this](std::uint64_t epoch) {
    const std::uint64_t t0 = now_ns();
    if (!epoch_log.note(epoch)) ++note_failures;
    note_us.push_back(us(now_ns() - t0));
  });
  server.setup(listed, kSetupThreads);
  publisher.publish_epoch(server);
  for (unsigned i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>(i, seed, *this));
    Connection& c = *conns.back();
    c.client.pin_tlog_key(kEndpoint, publisher.public_key(), &c.state);
    c.client.sync();
    c.closed_client.sync();
    synced_ok = synced_ok && c.mirrors(server);
  }
}

// --- Update path -------------------------------------------------------------

struct Round {
  std::uint64_t start_ns = 0;
  std::uint64_t done_ns = 0;
  unsigned pending = kConnections;  // wallets yet to sync this round
  double update_ms = 0;
  double publish_ms = 0;
  double cpu_ms = 0;  // thread CPU time of the update, publish and syncs
  Phase phase = kIdle;
};

struct SyncSample {
  double ms = 0;
  double delta_bytes = 0;
  Phase phase = kIdle;
};

/// List changes, publication and verified syncs. Everything here runs
/// under `mutex`: EpochPublisher has no lock of its own and every node
/// serves kTlog* through it (a checkpoint request even publishes on
/// demand), so no update, publish or sync may overlap another.
class UpdatePath {
 public:
  UpdatePath(const Spec& spec, const cbl::load::Workload& workload,
             Truth& truth, std::uint64_t seed)
      : spec_(spec),
        workload_(workload),
        truth_(truth),
        rng_(ChaChaRng::from_string_seed("e2e/churn/" +
                                         std::to_string(seed))) {}

  /// Records the prefixes that are non-empty at set-up. Adds are drawn
  /// only from addresses under these, so a wallet's prefix list (fetched
  /// once at connect) stays a superset of the live one and the local
  /// fast path can never answer "not listed" for a listed address.
  void note_initial_prefixes(const oprf::OprfServer& server) {
    const auto prefixes = server.prefix_list();
    initial_prefixes_ = {prefixes.begin(), prefixes.end()};
  }

  /// One update round: kChurnBatch adds and removes on popular
  /// addresses, then a publish. Returns false when the server disagreed
  /// with the bench about the list.
  bool run_round(Stack& stack, Phase phase)
      CBL_EXCLUDES(mutex_) {
    cbl::MutexLock lock(mutex_);
    const std::vector<std::uint32_t> adds = pick(false);
    const std::vector<std::uint32_t> removes = pick(true);
    std::vector<std::string> add_entries;
    std::vector<std::string> remove_entries;
    for (const std::uint32_t a : adds) {
      add_entries.push_back(workload_.addresses()[a]);
    }
    for (const std::uint32_t a : removes) {
      remove_entries.push_back(workload_.addresses()[a]);
    }

    Round& round = rounds_.emplace_back();
    stamp(static_cast<std::uint32_t>(rounds_.size()), phase);
    round.phase = phase;
    round.start_ns = now_ns();
    const double cpu0 = thread_cpu_ms();
    std::size_t changed = 0;
    {
      SpanScope span(kSpanUpdate);
      std::uint32_t v = started_.fetch_add(1) + 1;
      changed += stack.server.add_entries(add_entries);
      for (const std::uint32_t a : adds) truth_.flip(a, v);
      completed_.fetch_add(1);
      v = started_.fetch_add(1) + 1;
      changed += stack.server.remove_entries(remove_entries);
      for (const std::uint32_t a : removes) truth_.flip(a, v);
      completed_.fetch_add(1);
    }
    const std::uint64_t updated = now_ns();
    {
      SpanScope span(kSpanPublish);
      stack.publisher.publish_epoch(stack.server);
    }
    round.update_ms = ms(updated - round.start_ns);
    round.publish_ms = ms(now_ns() - updated);
    round.cpu_ms = thread_cpu_ms() - cpu0;
    published_.store(static_cast<std::uint32_t>(rounds_.size()));
    return changed == 2 * kChurnBatch;
  }

  /// Verified sync of one wallet up to the latest published round, if it
  /// is behind. Returns false when the sync did not reach the provider's
  /// epoch.
  bool sync(Stack& stack, Connection& c) CBL_EXCLUDES(mutex_) {
    if (c.synced_round >= published_.load()) return true;
    cbl::MutexLock lock(mutex_);
    const std::uint32_t target = published_.load();
    if (c.synced_round >= target) return true;
    stamp(target, rounds_[target - 1].phase);
    const Counters before = Counters::read();
    const std::uint64_t t0 = now_ns();
    const double cpu0 = thread_cpu_ms();
    {
      SpanScope span(kSpanSync);
      c.client.sync();
    }
    const std::uint64_t done = now_ns();
    // A sync that catches up several rounds shares its cost among them.
    const double cpu_share = (thread_cpu_ms() - cpu0) /
                             static_cast<double>(target - c.synced_round);
    const bool ok = c.mirrors(stack.server);
    syncs_.push_back(SyncSample{
        ms(done - t0),
        static_cast<double>((Counters::read() - before)[kSyncDeltaBytes]),
        rounds_[target - 1].phase});
    for (std::uint32_t r = c.synced_round; r < target; ++r) {
      rounds_[r].cpu_ms += cpu_share;
      if (--rounds_[r].pending == 0) rounds_[r].done_ns = done;
    }
    c.synced_round = target;
    return ok;
  }

  /// Mutation counters for the verdict windows: a query that read
  /// `completed` before it ran and `started` after it saw some list
  /// version in between.
  std::uint32_t completed() const { return completed_.load(); }
  std::uint32_t started() const { return started_.load(); }
  std::uint32_t published() const { return published_.load(); }

  // Read only between phases, when no update path runs.
  const std::vector<Round>& rounds() const CBL_NO_THREAD_SAFETY_ANALYSIS {
    return rounds_;
  }
  const std::vector<SyncSample>& syncs() const CBL_NO_THREAD_SAFETY_ANALYSIS {
    return syncs_;
  }

 private:
  /// Update-path spans carry the round number as their query id.
  static void stamp(std::uint32_t round, Phase phase) {
    if (t_trace == nullptr) return;
    t_trace->qid = round;
    t_trace->phase = phase;
  }

  std::vector<std::uint32_t> pick(bool listed) CBL_REQUIRES(mutex_) {
    std::vector<std::uint32_t> out;
    std::unordered_set<std::uint32_t> seen;
    const std::string* base = workload_.addresses().data();
    while (out.size() < kChurnBatch) {
      const auto q = workload_.sample(rng_);
      const auto a = static_cast<std::uint32_t>(q.address - base);
      if (truth_.listed(a) != listed || !seen.insert(a).second) continue;
      if (!listed && !initial_prefixes_.contains(oprf::Oracle::prefix(
                         cbl::to_bytes(*q.address), spec_.lambda))) {
        continue;
      }
      out.push_back(a);
    }
    return out;
  }

  const Spec& spec_;
  const cbl::load::Workload& workload_;
  mutable cbl::Mutex mutex_;  // lock: server updates, publisher, syncs
  Truth& truth_ CBL_GUARDED_BY(mutex_);
  ChaChaRng rng_ CBL_GUARDED_BY(mutex_);
  std::unordered_set<std::uint32_t> initial_prefixes_;
  std::atomic<std::uint32_t> started_{0};
  std::atomic<std::uint32_t> completed_{0};
  /// rounds_.size(), readable without the lock so an up-to-date wallet
  /// skips the mutex.
  std::atomic<std::uint32_t> published_{0};
  std::vector<Round> rounds_ CBL_GUARDED_BY(mutex_);
  std::vector<SyncSample> syncs_ CBL_GUARDED_BY(mutex_);
};

// --- Load generation ---------------------------------------------------------

struct Due {
  std::uint64_t t_ns;  // offset from the open loop's start
  std::uint32_t addr;
};

/// A verdict and the list-version window it must be consistent with.
struct QueryRecord {
  std::uint32_t addr = 0;
  std::uint32_t lo = 0;  // mutations completed before the query
  std::uint32_t hi = 0;  // mutations started by its end
  net::ResilientClient::Outcome::Verdict verdict =
      net::ResilientClient::Outcome::Verdict::kUnknown;
  net::Freshness freshness = net::Freshness::kUnavailable;
};

/// Timing of one fixed-rate query.
struct OpenSample {
  std::uint64_t sched_ns = 0;  // due time in schedule time
  double latency_ms = 0;       // due time to verdict
  double service_ms = 0;       // the connection thread's CPU time in it
  double lag_ms = 0;           // due time to dispatch
  std::uint64_t wire_calls = 0;
  std::uint64_t req_bytes = 0;
  std::uint64_t resp_bytes = 0;
};

struct Answered {
  QueryRecord record;
  OpenSample timing;
};

/// What one connection thread saw during a pass.
struct ConnLog {
  // Open-loop verdicts are judged after the pass: under churn their
  // version windows refer to flips the updater records concurrently.
  std::vector<QueryRecord> queries;
  std::vector<OpenSample> fixed;
  // Capacity verdicts are judged inline (no update runs beside them), so
  // the number kept in memory does not depend on the machine's speed.
  std::uint64_t capacity_verdicts = 0;
  std::uint64_t capacity_failed = 0;
  std::uint64_t capacity_wrong = 0;
  // Server phase: each thread keeps the first response per frame and
  // byte-compares later ones inline; only mismatches are kept in full.
  std::vector<Bytes> first_response;
  std::vector<std::pair<std::uint32_t, Bytes>> mismatches;
  std::uint64_t server_calls = 0;
  std::uint64_t server_undelivered = 0;
  std::uint64_t sync_failures = 0;
  std::uint64_t update_failures = 0;
};

/// A per-thread progress count on its own cache line, sampled by the
/// main thread at window boundaries.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> done{0};
};
using ProgressSet = std::array<Progress, kConnections>;

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

struct Window {
  double seconds = 0;
  double done = 0;   // progress counted in the window
  double cpu_s = 0;  // process CPU time spent in the window
};

unsigned window_count(double phase_s, double window_s) {
  return static_cast<unsigned>(std::max(1L, std::lround(phase_s / window_s)));
}

/// Samples the progress counts and the process CPU time at the
/// boundaries of `windows` equal windows over [start, start + length),
/// on the calling thread while the connection threads run.
std::vector<Window> sample_windows(std::uint64_t start, std::uint64_t length,
                                   unsigned windows,
                                   const ProgressSet& progress) {
  const auto total = [&progress] {
    std::uint64_t n = 0;
    for (const Progress& p : progress) n += p.done.load();
    return static_cast<double>(n);
  };
  std::vector<Window> out;
  sleep_until_ns(start);
  std::uint64_t t0 = now_ns();
  double n0 = total();
  double cpu0 = process_cpu_s();
  for (unsigned w = 1; w <= windows; ++w) {
    sleep_until_ns(start + length * w / windows);
    const std::uint64_t t1 = now_ns();
    const double n1 = total();
    const double cpu1 = process_cpu_s();
    out.push_back(Window{static_cast<double>(t1 - t0) / 1e9, n1 - n0,
                         cpu1 - cpu0});
    t0 = t1;
    n0 = n1;
    cpu0 = cpu1;
  }
  return out;
}

struct PhaseLengths {
  double warm_s, fixed_s, capacity_s, server_s;
  explicit PhaseLengths(double seconds)
      : warm_s(seconds * kWarmShare),
        fixed_s(seconds * kFixedShare),
        capacity_s(seconds * kCapacityShare),
        server_s(seconds * kServerShare) {}
};

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// Runs `body(i)` on kConnections threads, runs `meanwhile()` on the
/// calling thread, and joins; an exception from any of them is rethrown
/// here after every thread has ended.
template <typename Body, typename Meanwhile>
void on_connections(Body body, Meanwhile meanwhile) {
  std::vector<std::exception_ptr> errors(kConnections + 1);
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    threads.reserve(kConnections);
    for (unsigned i = 0; i < kConnections; ++i) {
      threads.emplace_back([&body, &errors, i] {
        try {
          body(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    try {
      meanwhile();
    } catch (...) {
      errors[kConnections] = std::current_exception();
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// --- Host speed ----------------------------------------------------------------
// A shared host's speed drifts by up to 2x over minutes as other tenants
// load it, which would swamp any code change. So times and rates are
// reported at a reference host speed. A calibration kernel runs on the
// connection threads before set-up, after each set-up and before every
// phase block; the run's scale is the median step time over
// kReferenceStepNs. The kernel is the benchmark's own frozen copy of a
// 2^255-19 field multiplication, the operation the serving stack spends
// most of its time in. It slows with the host in the same proportion as
// the library's scalar multiplication (their ratio held within 4% per
// second while both swung by 40%), and no change under src/ can move it.

__extension__ using u128 = unsigned __int128;
using Fe = std::array<std::uint64_t, 5>;  // 5 x 51-bit limbs

Fe fe_mul(const Fe& f, const Fe& g) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 51) - 1;
  const auto m = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<u128>(a) * b;
  };
  u128 t0 = m(f[0], g[0]) + m(f[1] * 19, g[4]) + m(f[2] * 19, g[3]) +
            m(f[3] * 19, g[2]) + m(f[4] * 19, g[1]);
  u128 t1 = m(f[0], g[1]) + m(f[1], g[0]) + m(f[2] * 19, g[4]) +
            m(f[3] * 19, g[3]) + m(f[4] * 19, g[2]);
  u128 t2 = m(f[0], g[2]) + m(f[1], g[1]) + m(f[2], g[0]) +
            m(f[3] * 19, g[4]) + m(f[4] * 19, g[3]);
  u128 t3 = m(f[0], g[3]) + m(f[1], g[2]) + m(f[2], g[1]) + m(f[3], g[0]) +
            m(f[4] * 19, g[4]);
  u128 t4 = m(f[0], g[4]) + m(f[1], g[3]) + m(f[2], g[2]) + m(f[3], g[1]) +
            m(f[4], g[0]);
  Fe h;
  t1 += static_cast<std::uint64_t>(t0 >> 51);
  h[0] = static_cast<std::uint64_t>(t0) & kMask;
  t2 += static_cast<std::uint64_t>(t1 >> 51);
  h[1] = static_cast<std::uint64_t>(t1) & kMask;
  t3 += static_cast<std::uint64_t>(t2 >> 51);
  h[2] = static_cast<std::uint64_t>(t2) & kMask;
  t4 += static_cast<std::uint64_t>(t3 >> 51);
  h[3] = static_cast<std::uint64_t>(t3) & kMask;
  h[0] += static_cast<std::uint64_t>(t4 >> 51) * 19;
  h[4] = static_cast<std::uint64_t>(t4) & kMask;
  return h;
}

std::atomic<std::uint64_t> g_calibration_sink{0};

/// Nanoseconds per kernel step: each connection thread runs a chain of
/// kCalibrationSteps dependent multiplications at once, as the phases
/// load them; the median thread's figure.
double calibration_step_ns() {
  std::array<double, kConnections> step_ns{};
  on_connections([&step_ns](unsigned i) {
    Fe f = {i + 1, 2, 3, 4, 5};
    const Fe g = {0x7fffffffffff1, 0x3, 0x5ffffffffff, 0x7, 0x1ffffffffffff};
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < kCalibrationSteps; ++k) f = fe_mul(f, g);
    step_ns[i] = static_cast<double>(now_ns() - t0) / kCalibrationSteps;
    g_calibration_sink.fetch_xor(f[0] ^ f[4]);
  }, [] {});
  return median({step_ns.begin(), step_ns.end()});
}

// --- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The per-window (or per-round) samples a metric was taken from.
struct Series {
  std::string name;
  std::vector<double> values;
  std::string unit;
};

/// What rescales a measurement in `unit` to the reference host, on a host
/// `scale` times slower: a time is divided by the scale, a rate
/// multiplied by it.
double reference_factor(const std::string& unit, double scale) {
  if (unit == "s" || unit == "ms" || unit == "us" || unit == "ns") {
    return 1.0 / scale;
  }
  return unit == "qps" ? scale : 1.0;
}

void to_reference_host(std::vector<Metric>& metrics, double scale) {
  for (Metric& m : metrics) m.value *= reference_factor(m.unit, scale);
}

void to_reference_host(std::vector<Series>& series, double scale) {
  for (Series& s : series) {
    for (double& v : s.values) v *= reference_factor(s.unit, scale);
  }
}

struct PassResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> wall_clock;  // reported with the per-layer metrics
  std::vector<Metric> per_layer;
  std::vector<Series> windows;  // what the end-to-end figures summarise
  double p50_ms = 0;
  double scale = 1;  // the host's slowdown over the pass (see scale())
  std::uint64_t fixed_samples = 0;
  std::uint64_t capacity_verdicts = 0;
  std::uint64_t server_responses = 0;
  std::uint64_t propagation_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  Counters guards;  // retries / timeouts / rate_limited / shed: must be 0
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- The benchmark -----------------------------------------------------------

class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed, double seconds)
      : spec_(spec),
        seed_(seed),
        lengths_(seconds),
        // One corpus for every seed: seeds vary the traffic (arrivals,
        // which addresses are asked, blinding, churn picks), not the
        // list. Whether a few Zipf-head addresses collide with a listed
        // prefix moved prefix_filtered's wire bytes by up to 59% between
        // corpora, which would swamp any code change.
        corpus_rng_(ChaChaRng::from_string_seed("e2e/corpus")),
        workload_(workload_config(spec), corpus_rng_),
        truth_(kUniverse, spec.listed),
        updates_(spec, workload_, truth_, seed),
        frame_rng_(rng("frames")),
        frame_client_(oprf::Oracle::fast(), spec.lambda, frame_rng_) {}

  /// Set-up (timed, repeated), then one pass, or an untraced and a
  /// traced pass at half length each when `trace_path` is set.
  int run(const std::string& json_path, const std::string& trace_path);

 private:
  static cbl::load::WorkloadConfig workload_config(const Spec& spec) {
    cbl::load::WorkloadConfig config;
    config.unique_addresses = kUniverse;
    config.listed_addresses = spec.listed;
    config.zipf_s = kZipfS;
    // The real client resolves locally through its prefix list and
    // bucket cache; the workload's modeled shortcuts stay off.
    config.cache_hit_ratio = 0.0;
    config.prefix_local_ratio = 0.0;
    return config;
  }

  ChaChaRng rng(const char* stream) const {
    return ChaChaRng::from_string_seed("e2e/" + std::string(stream) + "/" +
                                       std::to_string(seed_));
  }

  /// A known verdict that no list version in the query's window gives.
  bool wrong(const QueryRecord& q) const {
    using Verdict = net::ResilientClient::Outcome::Verdict;
    return q.verdict != Verdict::kUnknown &&
           !truth_.consistent(q.addr, q.lo, q.hi,
                              q.verdict == Verdict::kListed);
  }

  std::uint32_t index_of(const std::string* address) const {
    return static_cast<std::uint32_t>(address -
                                      workload_.addresses().data());
  }

  void build_inputs();
  /// Measures the host's speed now and records it.
  void calibrate() { step_ns_.push_back(calibration_step_ns()); }
  /// How many times slower than the reference the host has run so far:
  /// the median calibration over the reference step.
  double scale() const { return median(step_ns_) / kReferenceStepNs; }
  /// Medians over the set-ups of the process CPU time and wall time.
  struct SetUpTimes {
    double cpu_s, wall_s;
  };
  SetUpTimes set_up();
  PassResult run_pass(bool traced);
  /// Runs the schedule's queries due in [from, to) of schedule time.
  void open_loop(bool traced, std::vector<ConnLog>& logs, std::uint64_t from,
                 std::uint64_t to, Phase phase);
  void closed_loop(std::vector<ConnLog>& logs, double seconds,
                   std::vector<Window>& windows);
  void server_phase(std::vector<ConnLog>& logs, double seconds,
                    std::vector<Window>& windows);
  void idle_rounds(bool traced, std::vector<ConnLog>& logs, long rounds);
  void check_server_responses(std::vector<ConnLog>& logs, PassResult& out);
  void probe(std::vector<Metric>& out);
  Answered run_query(Connection& c, net::ResilientClient& client,
                     std::uint32_t addr, std::uint64_t due_ns,
                     std::uint64_t qid, Phase phase);
  bool write_trace(const std::string& path) const;

  const Spec& spec_;
  const std::uint64_t seed_;
  const PhaseLengths lengths_;
  ChaChaRng corpus_rng_;
  cbl::load::Workload workload_;
  Truth truth_;
  UpdatePath updates_;
  std::unique_ptr<Stack> stack_;
  std::vector<Due> schedule_;
  std::vector<std::uint32_t> ring_;
  // Queries each wallet has taken from the ring: the closed loop resumes
  // where it stopped. Entry i is only touched by connection i's thread.
  std::array<std::size_t, kConnections> ring_at_{};
  // Server-phase frames, blinded by a client with no bucket cache so
  // every response carries its bucket; the same client unblinds them.
  ChaChaRng frame_rng_;
  oprf::OprfClient frame_client_;
  std::vector<oprf::OprfClient::Prepared> frame_prepared_;
  std::vector<std::uint32_t> frame_addr_;
  std::vector<Bytes> frames_;
  std::uint64_t full_sync_bytes_ = 0;
  std::vector<double> step_ns_;  // every calibration of the run
};

void Bench::build_inputs() {
  // Open-loop schedule: Poisson arrivals over warm-up + fixed rate.
  ChaChaRng traffic = rng("traffic");
  cbl::load::PoissonArrivals arrivals(spec_.fixed_qps);
  const std::uint64_t end = to_ns(lengths_.warm_s + lengths_.fixed_s);
  for (;;) {
    const std::uint64_t t = arrivals.next_ns(traffic);
    if (t >= end) break;
    schedule_.push_back(Due{t, index_of(workload_.sample(traffic).address)});
  }
  // Closed-loop address stream, cycled.
  ChaChaRng closed = rng("closed");
  ring_.resize(kClosedLoopRing);
  for (auto& a : ring_) a = index_of(workload_.sample(closed).address);
  for (std::size_t i = 0; i < kServerFrames; ++i) {
    const std::uint32_t a = index_of(workload_.sample(frame_rng_).address);
    frame_addr_.push_back(a);
    frame_prepared_.push_back(frame_client_.prepare(workload_.addresses()[a]));
    Bytes frame = {static_cast<std::uint8_t>(net::Method::kQuery)};
    cbl::append(frame, oprf::serialize(frame_prepared_.back().request));
    frames_.push_back(std::move(frame));
  }
}

Bench::SetUpTimes Bench::set_up() {
  std::vector<double> cpu_s, wall_s;
  calibrate();
  for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
    stack_.reset();  // one stack alive at a time, so peak RSS is one stack's
    const Counters before = Counters::read();
    const std::uint64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    stack_ = std::make_unique<Stack>(spec_, workload_.listed(), seed_);
    cpu_s.push_back(process_cpu_s() - cpu0);
    wall_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    calibrate();
    full_sync_bytes_ =
        (Counters::read() - before)[kSyncFullBytes] / kConnections;
    if (!stack_->synced_ok) {
      throw std::runtime_error("set-up: a wallet's first verified sync failed");
    }
  }
  updates_.note_initial_prefixes(stack_->server);
  return {median(cpu_s), median(wall_s)};
}

Answered Bench::run_query(Connection& c, net::ResilientClient& client,
                          std::uint32_t addr,
                          std::uint64_t due_ns, std::uint64_t qid,
                          Phase phase) {
  const std::uint64_t start = now_ns();
  QueryRecord rec;
  rec.addr = addr;
  rec.lo = updates_.completed();
  const std::uint64_t calls0 = c.channel.query_calls;
  const std::uint64_t req0 = c.channel.query_req_bytes;
  const std::uint64_t resp0 = c.channel.query_resp_bytes;
  c.trace.qid = qid;
  c.trace.phase = phase;
  net::ResilientClient::Outcome out;
  const double cpu0 = thread_cpu_ms();
  {
    SpanScope span(kSpanQuery);
    out = client.query(workload_.addresses()[addr]);
  }
  const double service_ms = thread_cpu_ms() - cpu0;
  const std::uint64_t end = now_ns();
  rec.hi = updates_.started();
  rec.verdict = out.verdict;
  rec.freshness = out.freshness;
  OpenSample s;
  s.latency_ms = ms(end - due_ns);
  s.service_ms = service_ms;
  s.lag_ms = ms(start > due_ns ? start - due_ns : 0);
  s.wire_calls = c.channel.query_calls - calls0;
  s.req_bytes = c.channel.query_req_bytes - req0;
  s.resp_bytes = c.channel.query_resp_bytes - resp0;
  return Answered{rec, s};
}

void Bench::open_loop(bool traced, std::vector<ConnLog>& logs,
                      std::uint64_t from, std::uint64_t to, Phase phase) {
  const auto at = [this](std::uint64_t t) {
    return static_cast<std::size_t>(
        std::lower_bound(schedule_.begin(), schedule_.end(), t,
                         [](const Due& d, std::uint64_t v) {
                           return d.t_ns < v;
                         }) -
        schedule_.begin());
  };
  const std::size_t last = at(to);
  // churn_sync: a round every kRoundIntervalS of schedule time, in
  // warm-up too, so the caches settle under churn before measurement.
  std::vector<std::uint64_t> round_due;
  const std::uint64_t interval = to_ns(kRoundIntervalS);
  for (std::uint64_t t = interval / 2; spec_.churn && t < to; t += interval) {
    if (t >= from) round_due.push_back(t);
  }
  std::atomic<std::size_t> next{at(from)};
  const std::uint64_t base = now_ns() + 1'000'000;  // wall time of `from`
  const auto wall = [base, from](std::uint64_t t) { return base + t - from; };
  on_connections([&](unsigned i) {
    Connection& c = *stack_->conns[i];
    ConnLog& log = logs[i];
    t_trace = traced ? &c.trace : nullptr;
    std::size_t next_round = 0;
    for (;;) {
      if (spec_.churn) {
        if (i == 0 && next_round < round_due.size() &&
            now_ns() >= wall(round_due[next_round])) {
          if (!updates_.run_round(*stack_, phase)) ++log.update_failures;
          ++next_round;
        }
        if (!updates_.sync(*stack_, c)) ++log.sync_failures;
      }
      // A query is claimed only once it is due, by whichever connection
      // is free, so a connection the hypervisor has paused holds up no
      // query it has not started.
      std::size_t k = next.load();
      if (k >= last) break;
      const Due& d = schedule_[k];
      const std::uint64_t due = wall(d.t_ns);
      if (now_ns() < due || !next.compare_exchange_weak(k, k + 1)) continue;
      Answered a = run_query(c, c.client, d.addr, due, k, phase);
      log.queries.push_back(a.record);
      if (phase == kFixedRate) {
        a.timing.sched_ns = d.t_ns;
        log.fixed.push_back(a.timing);
      }
    }
  }, [] {});
  // Wallets that stopped before the last round published catch up here.
  for (auto& c : stack_->conns) {
    if (!updates_.sync(*stack_, *c)) ++logs[c->index].sync_failures;
  }
}

void Bench::closed_loop(std::vector<ConnLog>& logs, double seconds,
                        std::vector<Window>& windows) {
  ProgressSet progress;
  const std::uint64_t start = now_ns() + 1'000'000;
  const std::uint64_t length = to_ns(seconds);
  on_connections([&](unsigned i) {
    Connection& c = *stack_->conns[i];
    ConnLog& log = logs[i];
    spin_until_ns(start);
    while (now_ns() < start + length) {
      // Wallet i asks ring entries i, i + C, i + 2C, ...: its own address
      // stream, whatever the other wallets' pace.
      const std::size_t k = (i + kConnections * ring_at_[i]++) % ring_.size();
      const QueryRecord q =
          run_query(c, c.closed_client, ring_[k], now_ns(), k, kCapacity)
              .record;
      ++log.capacity_verdicts;
      log.capacity_failed += q.freshness != net::Freshness::kFresh;
      log.capacity_wrong += wrong(q);
      progress[i].done.fetch_add(1, std::memory_order_relaxed);
    }
  }, [&] {
    for (const Window& w : sample_windows(
             start, length, window_count(seconds, kRateWindowS), progress)) {
      windows.push_back(w);
    }
  });
}

void Bench::server_phase(std::vector<ConnLog>& logs, double seconds,
                         std::vector<Window>& windows) {
  ProgressSet progress;
  const std::uint64_t start = now_ns() + 1'000'000;
  const std::uint64_t length = to_ns(seconds);
  on_connections([&](unsigned i) {
    // Pre-blinded frames straight into Transport::call: node, pipeline
    // and server only, no client-side crypto.
    Connection& c = *stack_->conns[i];
    ConnLog& log = logs[i];
    log.first_response.assign(frames_.size(), Bytes());
    spin_until_ns(start);
    for (std::size_t k = i; now_ns() < start + length; k += kConnections) {
      const auto f = static_cast<std::uint32_t>(k % frames_.size());
      net::CallResult result = c.transport.call(kEndpoint, frames_[f]);
      ++log.server_calls;
      if (!result.delivered || result.rejected) {
        ++log.server_undelivered;
        continue;
      }
      if (log.first_response[f].empty()) {
        log.first_response[f] = std::move(result.response);
      } else if (result.response != log.first_response[f]) {
        log.mismatches.emplace_back(f, std::move(result.response));
      }
      progress[i].done.fetch_add(1, std::memory_order_relaxed);
    }
  }, [&] {
    for (const Window& w : sample_windows(
             start, length, window_count(seconds, kRateWindowS), progress)) {
      windows.push_back(w);
    }
  });
}

void Bench::idle_rounds(bool traced, std::vector<ConnLog>& logs, long rounds) {
  t_trace = traced ? &stack_->conns[0]->trace : nullptr;
  for (long r = 0; r < rounds; ++r) {
    calibrate();
    if (!updates_.run_round(*stack_, kIdle)) ++logs[0].update_failures;
    for (auto& c : stack_->conns) {
      if (!updates_.sync(*stack_, *c)) ++logs[c->index].sync_failures;
    }
  }
  t_trace = nullptr;
}

void Bench::check_server_responses(std::vector<ConnLog>& logs,
                                   PassResult& out) {
  // After the timed window: every distinct response is opened, unblinded
  // and judged; repeats were byte-compared to one of those inline.
  const std::uint32_t version = updates_.completed();
  std::unordered_map<std::uint32_t, Bytes> verified;
  const auto judge = [&](std::uint32_t f, const Bytes& response) {
    const auto it = verified.find(f);
    if (it != verified.end() && it->second == response) return true;
    const auto frame = net::parse_response_frame(response);
    if (!frame || frame->status != net::Status::kOk) {
      ++out.failed;
      return false;
    }
    const auto body = oprf::parse_query_response(frame->body);
    if (!body || body->bucket_omitted) {
      ++out.failed;
      return false;
    }
    bool listed = false;
    try {
      listed = frame_client_.finish(frame_prepared_[f].pending, *body).listed;
    } catch (const std::exception&) {
      ++out.failed;
      return false;
    }
    if (!truth_.consistent(frame_addr_[f], version, version, listed)) {
      ++out.wrong;
      return false;
    }
    verified.emplace(f, response);
    return true;
  };
  for (auto& log : logs) {
    out.server_responses += log.server_calls - log.server_undelivered;
    out.failed += log.server_undelivered;
    for (std::uint32_t f = 0; f < log.first_response.size(); ++f) {
      if (!log.first_response[f].empty()) judge(f, log.first_response[f]);
    }
    for (const auto& [f, response] : log.mismatches) judge(f, response);
    log.first_response.clear();
    log.mismatches.clear();
  }
}

template <typename Fn>
double median_us(std::size_t n, Fn fn) {
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t0 = now_ns();
    fn(i);
    samples.push_back(us(now_ns() - t0));
  }
  return median(std::move(samples));
}

void Bench::probe(std::vector<Metric>& out) {
  // Isolated calls on the workload's own inputs; each figure is the
  // median of kProbeCalls calls. ec.* doubles as in-run calibration.
  ChaChaRng probe_rng = rng("probe");
  oprf::OprfClient client(oprf::Oracle::fast(), spec_.lambda, probe_rng);
  std::vector<const std::string*> inputs;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    inputs.push_back(workload_.sample(probe_rng).address);
  }
  std::vector<oprf::OprfClient::Prepared> prepared(kProbeCalls);
  out.push_back({"oprf.client.prepare_us", median_us(kProbeCalls, [&](std::size_t i) {
                   prepared[i] = client.prepare(*inputs[i]);
                 }), "us"});
  std::vector<oprf::QueryRequest> requests;
  for (const auto& p : prepared) requests.push_back(p.request);
  std::vector<oprf::QueryResponse> responses(kProbeCalls);
  out.push_back({"oprf.server.evaluate_batch1_us",
                 median_us(kProbeCalls, [&](std::size_t i) {
                   auto r = stack_->server.evaluate_batch(
                       std::span<const oprf::QueryRequest>(&requests[i], 1));
                   if (r[0].status != oprf::OprfServer::BatchOutcome::Status::kOk) {
                     throw std::runtime_error("probe: evaluation refused");
                   }
                   responses[i] = std::move(r[0].response);
                 }), "us"});
  out.push_back({"oprf.server.evaluate_batch3_us",
                 median_us(kProbeCalls, [&](std::size_t i) {
                   const std::size_t at = i % (kProbeCalls - 2);
                   auto r = stack_->server.evaluate_batch(
                       std::span<const oprf::QueryRequest>(&requests[at], 3));
                   if (r.size() != 3) throw std::runtime_error("probe: batch");
                 }), "us"});
  std::size_t finish_listed = 0;
  std::vector<double> finish;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    client.clear_cache();  // every finish takes the bucket from the wire
    const std::uint64_t t0 = now_ns();
    finish_listed += client.finish(prepared[i].pending, responses[i]).listed;
    finish.push_back(us(now_ns() - t0));
  }
  out.push_back({"oprf.client.finish_us", median(finish), "us"});
  std::vector<Bytes> bodies;
  for (const auto& r : responses) bodies.push_back(oprf::serialize(r));
  std::vector<Bytes> sealed(kProbeCalls);
  out.push_back({"net.frame.seal_us", median_us(kProbeCalls, [&](std::size_t i) {
                   sealed[i] =
                       net::encode_response_frame(net::Status::kOk, bodies[i]);
                 }), "us"});
  std::size_t opened = 0;
  out.push_back({"net.frame.open_us", median_us(kProbeCalls, [&](std::size_t i) {
                   opened += net::parse_response_frame(sealed[i]).has_value();
                 }), "us"});
  if (opened != kProbeCalls) throw std::runtime_error("probe: frame open");
  std::vector<cbl::ec::RistrettoPoint> points(kProbeCalls);
  std::vector<cbl::ec::Scalar> scalars;
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    scalars.push_back(cbl::ec::Scalar::random(probe_rng));
  }
  const oprf::Oracle oracle = oprf::Oracle::fast();
  out.push_back({"ec.hash_to_group_us", median_us(kProbeCalls, [&](std::size_t i) {
                   points[i] = oracle.map_to_group(cbl::to_bytes(*inputs[i]));
                 }), "us"});
  out.push_back({"ec.mul_us", median_us(kProbeCalls, [&](std::size_t i) {
                   points[i] = points[i] * scalars[i];
                 }), "us"});
  std::size_t nonzero = 0;
  out.push_back({"ec.encode_us", median_us(kProbeCalls, [&](std::size_t i) {
                   nonzero += points[i].encode()[0] != 0;
                 }), "us"});
  // Keep the results observable so no call is optimised away.
  std::fprintf(stderr, "probe: %zu listed, %zu encodings with a nonzero first byte\n",
               finish_listed, nonzero);
}

PassResult Bench::run_pass(bool traced) {
  PassResult out;
  std::vector<ConnLog> logs(kConnections);
  for (ConnLog& log : logs) {
    // Reserved up front (untouched pages cost no memory) so no buffer is
    // reallocated mid-phase.
    log.queries.reserve(schedule_.size());
    log.fixed.reserve(schedule_.size());
  }
  for (auto& c : stack_->conns) {
    c->trace.spans.clear();
    c->trace.spans.reserve(traced ? std::size_t{1} << 17 : 0);
  }
  const std::size_t notes0 = stack_->note_us.size();
  const std::uint32_t rounds0 = updates_.published();
  const std::size_t syncs0 = updates_.syncs().size();
  const Counters pass0 = Counters::read();

  // Warm-up, then the measured phases interleaved in cycles of fixed
  // rate, capacity and server, so every metric's windows spread over the
  // whole run instead of one slice of it that a slow spell of the host
  // could cover. The read-only workloads' update rounds come last: an
  // epoch bump empties the bucket caches their reads rely on.
  const std::uint64_t warm_ns = to_ns(lengths_.warm_s);
  const std::uint64_t fixed_ns = to_ns(lengths_.fixed_s);
  const auto cycles = static_cast<unsigned>(
      std::max(1L, std::lround(lengths_.fixed_s / kCycleFixedS)));
  // The host's speed is sampled before every block.
  const std::size_t steps0 = step_ns_.size();
  calibrate();
  open_loop(traced, logs, 0, warm_ns, kWarmUp);
  Counters fixed, server;
  std::vector<Window> capacity, served;
  for (unsigned k = 0; k < cycles; ++k) {
    calibrate();
    Counters before = Counters::read();
    open_loop(traced, logs, warm_ns + fixed_ns * k / cycles,
              warm_ns + fixed_ns * (k + 1) / cycles, kFixedRate);
    fixed += Counters::read() - before;
    calibrate();
    closed_loop(logs, lengths_.capacity_s / cycles, capacity);
    calibrate();
    before = Counters::read();
    server_phase(logs, lengths_.server_s / cycles, served);
    server += Counters::read() - before;
    check_server_responses(logs, out);
  }
  if (!spec_.churn) {
    idle_rounds(traced, logs,
                std::max(1L, std::lround(lengths_.fixed_s / kRoundIntervalS)));
  }
  out.guards = Counters::read() - pass0;

  // Verdicts: every query against the list versions it could have seen.
  const unsigned latency_windows =
      window_count(lengths_.fixed_s, kLatencyWindowS);
  const std::uint64_t latency_window_ns = fixed_ns / latency_windows;
  std::vector<std::vector<double>> window_latency(latency_windows);
  std::vector<double> lag, service_ms;
  double wire_calls = 0, req_bytes = 0, resp_bytes = 0;
  for (const auto& log : logs) {
    for (const QueryRecord& q : log.queries) {
      ++out.attempted;
      out.failed += q.freshness != net::Freshness::kFresh;
      out.wrong += wrong(q);
    }
    for (const OpenSample& s : log.fixed) {
      const std::uint64_t w = (s.sched_ns - warm_ns) / latency_window_ns;
      window_latency[std::min<std::uint64_t>(w, latency_windows - 1)]
          .push_back(s.latency_ms);
      lag.push_back(s.lag_ms);
      service_ms.push_back(s.service_ms);
      wire_calls += static_cast<double>(s.wire_calls);
      req_bytes += static_cast<double>(s.req_bytes);
      resp_bytes += static_cast<double>(s.resp_bytes);
    }
    out.capacity_verdicts += log.capacity_verdicts;
    out.attempted += log.capacity_verdicts;
    out.failed += log.capacity_failed;
    out.wrong += log.capacity_wrong;
    out.attempted += log.server_calls;
    out.failed += log.sync_failures + log.update_failures;
  }
  out.fixed_samples = lag.size();

  // Propagation: batch start to the last wallet's verified sync.
  std::vector<double> propagation, propagation_cpu, update_ms, publish_ms;
  const std::uint32_t rounds1 = updates_.published();
  for (std::uint32_t r = rounds0; r < rounds1; ++r) {
    const Round& round = updates_.rounds()[r];
    out.attempted += 1;
    if (round.phase != kFixedRate && round.phase != kIdle) continue;
    if (round.pending != 0) {
      ++out.failed;
      continue;
    }
    propagation.push_back(ms(round.done_ns - round.start_ns));
    propagation_cpu.push_back(round.cpu_ms);
    update_ms.push_back(round.update_ms);
    publish_ms.push_back(round.publish_ms);
  }
  std::vector<double> sync_ms, sync_delta;
  for (std::size_t s = syncs0; s < updates_.syncs().size(); ++s) {
    const SyncSample& sample = updates_.syncs()[s];
    out.attempted += 1;
    if (sample.phase != kFixedRate && sample.phase != kIdle) continue;
    sync_ms.push_back(sample.ms);
    sync_delta.push_back(sample.delta_bytes);
  }
  out.propagation_samples = propagation.size();

  // The end-to-end metrics count CPU time, which a pause of the host does
  // not advance (see thread_cpu_ms). The wall-clock figures are reported
  // beside them; over windows, because the hypervisor and the host's
  // other tenants only ever take time from the benchmark, a window's
  // noise is one-sided: latency is the 25th percentile over windows and
  // throughput the 75th, which a pause covering up to three quarters of
  // the windows leaves alone.
  std::vector<double> p50s, p99s, capacity_qps, cpu_us, server_qps;
  for (const auto& w : window_latency) {
    p50s.push_back(median(w));
    p99s.push_back(quantile(w, 0.99));
  }
  for (const Window& w : capacity) {
    capacity_qps.push_back(w.done / w.seconds);
    cpu_us.push_back(ratio(w.cpu_s * 1e6, w.done));
  }
  for (const Window& w : served) server_qps.push_back(ratio(w.done, w.cpu_s));
  const double queries = static_cast<double>(out.fixed_samples);
  out.p50_ms = quantile(p50s, 0.25);
  out.scale = median(std::vector<double>(
                  step_ns_.begin() + static_cast<std::ptrdiff_t>(steps0),
                  step_ns_.end())) /
              kReferenceStepNs;
  auto& e2e = out.end_to_end;
  e2e.push_back({"service_p50_ms", median(service_ms), "ms"});
  e2e.push_back({"service_p99_ms", quantile(service_ms, 0.99), "ms"});
  e2e.push_back({"server_qps", median(server_qps), "qps"});
  e2e.push_back({"cpu_us_per_query", median(cpu_us), "us"});
  e2e.push_back(
      {"wire_bytes_per_query", ratio(req_bytes + resp_bytes, queries), "B"});
  e2e.push_back({"propagation_cpu_ms", median(propagation_cpu), "ms"});
  auto& wall = out.wall_clock;
  wall.push_back({"p50_ms", out.p50_ms, "ms"});
  wall.push_back({"p99_ms", quantile(p99s, 0.25), "ms"});
  wall.push_back({"capacity_qps", quantile(capacity_qps, 0.75), "qps"});
  wall.push_back({"propagation_ms", median(propagation), "ms"});
  out.windows = {{"p50_ms", p50s, "ms"},
                 {"p99_ms", p99s, "ms"},
                 {"capacity_qps", capacity_qps, "qps"},
                 {"server_qps", server_qps, "qps"},
                 {"cpu_us_per_query", cpu_us, "us"},
                 {"propagation_ms", propagation, "ms"}};

  if (traced) {
    // Client self time (query span minus its wire.call children) and
    // wire time, for fixed-rate queries that went online.
    std::vector<double> self_us, call_us;
    for (const auto& c : stack_->conns) {
      const auto& spans = c->trace.spans;
      std::vector<std::uint64_t> child_ns(spans.size(), 0);
      std::vector<std::uint32_t> children(spans.size(), 0);
      for (const Span& s : spans) {
        if (s.name != kSpanWireCall || s.parent == kNoParent) continue;
        child_ns[s.parent] += s.end_ns - s.start_ns;
        ++children[s.parent];
        if (s.phase == kFixedRate) call_us.push_back(us(s.end_ns - s.start_ns));
      }
      for (std::size_t k = 0; k < spans.size(); ++k) {
        const Span& s = spans[k];
        if (s.name != kSpanQuery || s.phase != kFixedRate || children[k] == 0) {
          continue;
        }
        self_us.push_back(us(s.end_ns - s.start_ns - child_ns[k]));
      }
    }
    const double fq = static_cast<double>(fixed[kQueries]);
    const double sq = static_cast<double>(server[kQueries]);
    auto& pl = out.per_layer;
    pl.push_back({"net.client.self_us.p50", median(self_us), "us"});
    pl.push_back({"net.client.self_us.p99", quantile(self_us, 0.99), "us"});
    pl.push_back({"net.wire.call_us.p50", median(call_us), "us"});
    pl.push_back({"net.wire.call_us.p99", quantile(call_us, 0.99), "us"});
    pl.push_back({"net.node.parse_ns", ratio(fixed[kParseNs], fq), "ns"});
    pl.push_back({"net.node.serve_ns", ratio(fixed[kServeNs], fq), "ns"});
    pl.push_back({"net.node.seal_ns", ratio(fixed[kSealNs], fq), "ns"});
    pl.push_back({"net.pipeline.batch_size_mean",
                  ratio(fixed[kPipelineEnqueued], fixed[kPipelineBatches]),
                  "count"});
    pl.push_back(
        {"net.pipeline.crypto_ns", ratio(fixed[kPipelineCryptoNs], fq), "ns"});
    pl.push_back({"net.pipeline.wait_ns",
                  ratio(static_cast<double>(fixed[kServeNs]) -
                            static_cast<double>(fixed[kPipelineCryptoNs]),
                        fq),
                  "ns"});
    pl.push_back({"server.net.node.serve_ns", ratio(server[kServeNs], sq), "ns"});
    pl.push_back({"server.net.pipeline.crypto_ns",
                  ratio(server[kPipelineCryptoNs], sq), "ns"});
    pl.push_back({"server.net.pipeline.wait_ns",
                  ratio(static_cast<double>(server[kServeNs]) -
                            static_cast<double>(server[kPipelineCryptoNs]),
                        sq),
                  "ns"});
    pl.push_back({"server.net.pipeline.batch_size_mean",
                  ratio(server[kPipelineEnqueued], server[kPipelineBatches]),
                  "count"});
    pl.push_back({"oprf.client.online_share",
                  ratio(fixed[kFastOnline], fixed[kFastOnline] + fixed[kFastLocal]),
                  "ratio"});
    pl.push_back({"oprf.client.bucket_hit_share",
                  ratio(fixed[kCacheHit], fixed[kCacheHit] + fixed[kCacheMiss]),
                  "ratio"});
    pl.push_back({"net.transport.req_bytes", ratio(req_bytes, wire_calls), "B"});
    pl.push_back(
        {"net.transport.resp_bytes", ratio(resp_bytes, wire_calls), "B"});
    pl.push_back({"loadgen.dispatch_lag_ms.p50", median(lag), "ms"});
    pl.push_back({"loadgen.dispatch_lag_ms.p99", quantile(lag, 0.99), "ms"});
    pl.push_back({"oprf.server.update_ms", median(update_ms), "ms"});
    pl.push_back({"tlog.publish_ms", median(publish_ms), "ms"});
    pl.push_back({"tlog.sync_ms", median(sync_ms), "ms"});
    pl.push_back({"tlog.sync_delta_bytes", median(sync_delta), "B"});
    pl.push_back({"tlog.sync_full_bytes",
                  static_cast<double>(full_sync_bytes_), "B"});
    pl.push_back({"store.epoch_note_us",
                  median(std::vector<double>(
                      stack_->note_us.begin() +
                          static_cast<std::ptrdiff_t>(notes0),
                      stack_->note_us.end())),
                  "us"});
    probe(pl);
  }
  out.failed += stack_->note_failures;
  return out;
}

bool Bench::write_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& c : stack_->conns) {
    const auto& spans = c->trace.spans;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"qid\":%llu,\"phase\":\"%s\"}}",
                   first ? "" : ",", kSpanNames[s.name], c->index,
                   us(s.start_ns), us(s.end_ns - s.start_ns), k,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.qid),
                   kPhaseNames[s.phase]);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

int Bench::run(const std::string& json_path, const std::string& trace_path) {
  const double started_at =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const bool traced = !trace_path.empty();
  build_inputs();
  const SetUpTimes setup = set_up();

  PassResult result = run_pass(false);
  const double host_scale = scale();  // over set-up and the untraced pass
  std::vector<Metric> per_layer;
  if (traced) {
    PassResult traced_pass = run_pass(true);
    per_layer = std::move(traced_pass.per_layer);
    to_reference_host(per_layer, traced_pass.scale);
    per_layer.push_back({"host.scale", traced_pass.scale, "ratio"});
    per_layer.push_back(
        {"trace.overhead_pct",
         100.0 * ((traced_pass.p50_ms / traced_pass.scale) /
                      (result.p50_ms / result.scale) -
                  1.0),
         "%"});
    result.attempted += traced_pass.attempted;
    result.failed += traced_pass.failed;
    result.wrong += traced_pass.wrong;
    if (!write_trace(trace_path)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", setup.cpu_s, "s"});
  for (auto& m : result.end_to_end) e2e.push_back(std::move(m));
  e2e.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  std::vector<Metric> wall = std::move(result.wall_clock);
  wall.push_back({"setup_wall_s", setup.wall_s, "s"});
  to_reference_host(e2e, host_scale);
  to_reference_host(wall, host_scale);
  to_reference_host(result.windows, host_scale);
  result.attempted += kSetupRepeats;

  const Counters& g = result.guards;
  std::printf("bench_e2e: workload=%s seed=%llu phases=%.3g/%.3g/%.3g/%.3g s%s\n",
              spec_.name, static_cast<unsigned long long>(seed_),
              lengths_.warm_s, lengths_.fixed_s, lengths_.capacity_s,
              lengths_.server_s, traced ? " (halved: untraced + traced)" : "");
  std::printf("replay: bench_e2e --workload %s --seed %llu --seconds %.6g%s\n",
              spec_.name, static_cast<unsigned long long>(seed_),
              (lengths_.warm_s + lengths_.fixed_s + lengths_.capacity_s +
               lengths_.server_s) * (traced ? 2 : 1),
              traced ? " --trace <path>" : "");
  for (const auto* list : {&e2e, &wall, &per_layer}) {
    for (const auto& m : *list) {
      std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("host: %.4gx the reference step time (median calibration step "
              "%.4g ns, reference %.4g ns); times and rates above are scaled "
              "to the reference\n",
              host_scale, host_scale * kReferenceStepNs, kReferenceStepNs);
  std::printf(
      "samples: fixed_rate=%llu capacity=%llu server=%llu propagation=%llu\n"
      "attempted=%llu failed=%llu wrong=%llu retries=%llu timeouts=%llu "
      "rate_limited=%llu pipeline_shed=%llu\n",
      static_cast<unsigned long long>(result.fixed_samples),
      static_cast<unsigned long long>(result.capacity_verdicts),
      static_cast<unsigned long long>(result.server_responses),
      static_cast<unsigned long long>(result.propagation_samples),
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      static_cast<unsigned long long>(result.wrong),
      static_cast<unsigned long long>(g[kRetries]),
      static_cast<unsigned long long>(g[kTimeouts]),
      static_cast<unsigned long long>(g[kRateLimited]),
      static_cast<unsigned long long>(g[kPipelineShed]));

  if (!json_path.empty()) {
    std::string j = "{\"bench\":\"e2e\",\"schema\":1";
    j += ",\"workload\":\"" + std::string(spec_.name) + "\"";
    j += ",\"seed\":" + std::to_string(seed_);
    j += ",\"seconds\":" +
         json_number((lengths_.warm_s + lengths_.fixed_s +
                      lengths_.capacity_s + lengths_.server_s) *
                     (traced ? 2 : 1));
    j += ",\"traced\":" + std::string(traced ? "true" : "false");
    j += ",\"started_at\":" + json_number(started_at);
    j += ",\"host_scale\":" + json_number(host_scale);
    j += ",\"correct\":" + std::string(result.wrong == 0 ? "true" : "false");
    j += ",\"attempted\":" + std::to_string(result.attempted);
    j += ",\"failed\":" + std::to_string(result.failed);
    j += ",\"wrong\":" + std::to_string(result.wrong);
    j += ",\"counts\":{\"fixed_rate_samples\":" +
         std::to_string(result.fixed_samples);
    j += ",\"capacity_verdicts\":" + std::to_string(result.capacity_verdicts);
    j += ",\"server_responses\":" + std::to_string(result.server_responses);
    j += ",\"propagation_samples\":" +
         std::to_string(result.propagation_samples);
    j += ",\"retries\":" + std::to_string(g[kRetries]);
    j += ",\"timeouts\":" + std::to_string(g[kTimeouts]);
    j += ",\"rate_limited\":" + std::to_string(g[kRateLimited]);
    j += ",\"pipeline_shed\":" + std::to_string(g[kPipelineShed]) + "}";
    j += ",\"metrics\":{";
    bool first = true;
    for (const auto* list : {&e2e, &wall, &per_layer}) {
      for (const auto& m : *list) {
        j += (first ? "\"" : ",\"") + m.name + "\":{\"value\":" +
             json_number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
        first = false;
      }
    }
    j += "},\"windows\":{";
    first = true;
    for (const Series& s : result.windows) {
      j += (first ? "\"" : ",\"") + s.name + "\":{\"unit\":\"" + s.unit +
           "\",\"values\":[";
      for (std::size_t k = 0; k < s.values.size(); ++k) {
        if (k != 0) j += ',';
        j += json_number(s.values[k]);
      }
      j += "]}";
      first = false;
    }
    j += "}}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr || std::fputs(j.c_str(), f) < 0 || std::fclose(f) != 0) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (result.wrong != 0) {
    std::fprintf(stderr, "bench_e2e: %llu wrong verdicts\n",
                 static_cast<unsigned long long>(result.wrong));
    return 1;
  }
  return 0;
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload "
               "<online_lookup|prefix_filtered|churn_sync> [--seed N] "
               "[--seconds S] [--json PATH] [--trace PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if ((flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
         flag != "--json" && flag != "--trace") ||
        i + 1 >= argc) {
      return usage();
    }
  }
  const char* workload = flag_value(argc, argv, "--workload");
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload != nullptr && std::strcmp(workload, s.name) == 0) spec = &s;
  }
  if (spec == nullptr) return usage();
  std::uint64_t seed = 20261016;
  if (const char* v = flag_value(argc, argv, "--seed")) {
    char* end = nullptr;
    seed = std::strtoull(v, &end, 10);
    if (*v == '\0' || *end != '\0') return usage();
  }
  double seconds = 22.0;
  if (const char* v = flag_value(argc, argv, "--seconds")) {
    char* end = nullptr;
    seconds = std::strtod(v, &end);
    if (*v == '\0' || *end != '\0' || !(seconds >= 0.5 && seconds <= 120)) {
      return usage();
    }
  }
  const char* json = flag_value(argc, argv, "--json");
  const char* trace = flag_value(argc, argv, "--trace");
  try {
    Bench bench(*spec, seed, trace != nullptr ? seconds / 2 : seconds);
    return bench.run(json != nullptr ? json : "",
                     trace != nullptr ? trace : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}

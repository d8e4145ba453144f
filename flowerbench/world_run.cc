// One benchmark run of one Flower-CDN workload, in its own process so the
// process's VmHWM is that run's peak RSS. Prints one JSON object on
// stdout; flowerbench/run.py starts these runs and aggregates them.
//
//   flowerbench <workload> <seed> <plain|traced> [key=value ...]
//
// `plain` runs Experiment(config).TryRun() exactly as a user would.
// `traced` runs the same experiment with timing decorators around the
// system and the workload source, a per-window observer and one late
// read-only probe of live peer state, all through the public Experiment
// hooks. Both modes print a digest of the run's deterministic JSON sink
// record; the traced run's record first has the observers' own engine
// events removed, so the two digests must match.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "api/result_sink.h"
#include "api/systems.h"
#include "common/mem_stats.h"
#include "net/network.h"

namespace {

using flower::CdnSystem;
using flower::SimConfig;
using flower::SimTime;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads ---------------------------------------------------------------
// Each workload is a config over SimConfig defaults; see README.md for why
// each one exists. Durations are short enough that one run fits several
// times into a measured interval.

SimConfig QuickstartWorld() {
  SimConfig c;
  c.num_topology_nodes = 1200;
  c.num_websites = 20;
  c.num_active_websites = 4;
  c.max_content_overlay_size = 40;
  c.queries_per_second = 3.0;
  return c;
}

bool WorkloadConfig(const std::string& name, SimConfig* c) {
  if (name == "paper") {
    *c = SimConfig();
    c->duration = 2 * flower::kHour;
  } else if (name == "hot") {
    // bench_scale's cache-rich world at 4000 peers.
    *c = SimConfig();
    c->num_topology_nodes = 4000;
    c->num_websites = 30;
    c->num_active_websites = 4;
    c->num_objects_per_website = 2000;
    c->summary_bits_per_object = 2;
    c->max_content_overlay_size = 200;
    c->queries_per_second = 600;
    c->metrics_max_points = 256;
    c->metrics_window = 30 * flower::kSecond;
    c->duration = 5 * flower::kMinute;
  } else if (name == "churn") {
    *c = QuickstartWorld();
    c->churn_enabled = true;
    c->churn_mean_session = 2 * flower::kHour;
    c->churn_mean_downtime = 30 * flower::kMinute;
    c->churn_fail_probability = 0.5;
    c->duration = 4 * flower::kHour;
  } else if (name == "faults") {
    *c = QuickstartWorld();
    c->gossip_protocol = "hyparview";
    c->fault_loss = "0.05";
    c->fault_delay_jitter = 50;
    c->query_timeout = 5 * flower::kSecond;
    c->suspicion_keepalive_misses = 2;
    c->duration = 5 * flower::kHour;
  } else {
    return false;
  }
  return true;
}

// --- Deterministic record ----------------------------------------------------

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of the JSON sink record of `result`: the bytes every BENCH_*.json
/// consumer sees. Host-only fields (wall_ms, peak RSS) are not in it.
bool RecordDigest(const SimConfig& config, const flower::RunResult& result,
                  const std::string& scratch_path, uint64_t* digest) {
  {
    flower::JsonResultSink sink(scratch_path);
    sink.Write(config, result);
    sink.Flush();
  }
  std::ifstream in(scratch_path, std::ios::binary);
  if (!in) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(scratch_path.c_str());
  *digest = Fnv1a(bytes);
  return !bytes.empty();
}

// --- Traced run: decorators, observer and probe ------------------------------

struct LayerTimes {
  Clock::time_point run_start;
  double world_build_s = 0;   // TryRun start -> system factory call
  double core_setup_s = 0;    // system construction + CdnSystem::Setup
  double workload_build_s = 0;
  uint64_t submit_calls = 0;
  double submit_s = 0;
  uint64_t next_calls = 0;
  double next_s = 0;
};

/// Forwards every CdnSystem call to the registry's "flower" system and
/// times Setup and SubmitQuery.
class TimedSystem : public CdnSystem {
 public:
  TimedSystem(std::unique_ptr<CdnSystem> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  CdnSystem* inner() { return inner_.get(); }

  const char* key() const override { return inner_->key(); }
  const char* name() const override { return inner_->name(); }
  void Setup() override {
    const Clock::time_point t0 = Clock::now();
    inner_->Setup();
    times_->core_setup_s += Seconds(t0, Clock::now());
  }
  void SubmitQuery(flower::NodeId node, flower::WebsiteId website,
                   flower::ObjectId object) override {
    const Clock::time_point t0 = Clock::now();
    inner_->SubmitQuery(node, website, object);
    times_->submit_s += Seconds(t0, Clock::now());
    ++times_->submit_calls;
  }
  std::vector<flower::PeerAddress> ParticipantAddresses() const override {
    return inner_->ParticipantAddresses();
  }
  const flower::Deployment& deployment() const override {
    return inner_->deployment();
  }
  const flower::WebsiteCatalog& catalog() const override {
    return inner_->catalog();
  }
  bool IsBlackedOut(flower::NodeId node) const override {
    return inner_->IsBlackedOut(node);
  }
  bool SupportsParallelShards() const override {
    return inner_->SupportsParallelShards();
  }
  void FillStats(flower::RunResult* result) const override {
    inner_->FillStats(result);
  }

 private:
  std::unique_ptr<CdnSystem> inner_;
  LayerTimes* times_;
};

/// Forwards to the synthetic generator and times Next.
class TimedSource : public flower::WorkloadSource {
 public:
  TimedSource(std::unique_ptr<flower::WorkloadSource> inner,
              LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  const std::string& name() const override { return inner_->name(); }
  bool Next(flower::QueryEvent* out) override {
    const Clock::time_point t0 = Clock::now();
    const bool more = inner_->Next(out);
    times_->next_s += Seconds(t0, Clock::now());
    ++times_->next_calls;
    return more;
  }

 private:
  std::unique_ptr<flower::WorkloadSource> inner_;
  LayerTimes* times_;
};

/// Per-window host wall time plus engine and network totals, sampled by
/// an Every(metrics_window) observer.
struct WindowLog {
  Clock::time_point last;
  double probe_s_pending = 0;  // probe time to keep out of its window
  std::vector<double> wall_ms;
  uint64_t firings = 0;
  uint64_t messages = 0;
  uint64_t undeliverable = 0;
  std::map<std::string, uint64_t> bits;
};

/// Read-only sample of live peer state, taken once late in the run.
struct Probe {
  uint64_t firings = 0;
  double seconds = 0;
  uint64_t peers = 0;
  uint64_t scans = 0;            // peer-direct scans (peer x sampled object)
  uint64_t summaries = 0;        // summaries those scans probed
  double scan_s = 0;
  uint64_t positives = 0;        // candidates the scans returned
  uint64_t false_positives = 0;  // ... whose holder does not hold the object
  uint64_t contains_calls = 0;
  uint64_t contains_hits = 0;    // keeps the timed Contains calls live
  double contains_s = 0;
  uint64_t objects_held = 0;
  uint64_t dirs = 0;
  uint64_t dir_entries = 0;
  uint64_t dir_lookups = 0;
  double dir_lookup_s = 0;
  uint64_t holder_claims = 0;   // (object, holder) pairs HoldersOf returned
  uint64_t stale_claims = 0;    // ... whose holder does not hold the object
};

constexpr size_t kProbeObjects = 16;

/// `kProbeObjects` distinct catalog ranks drawn from `seed` (splitmix64,
/// no simulator RNG is touched).
std::vector<size_t> SampleRanks(uint64_t seed, size_t catalog_size) {
  std::vector<size_t> ranks;
  uint64_t x = seed ^ 0xF10E5BE7C4ULL;
  while (ranks.size() < std::min(kProbeObjects, catalog_size)) {
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const size_t r = static_cast<size_t>(z % catalog_size);
    if (std::find(ranks.begin(), ranks.end(), r) == ranks.end()) {
      ranks.push_back(r);
    }
  }
  return ranks;
}

void RunProbe(flower::FlowerSystem& fs, uint64_t seed, Probe* p) {
  const Clock::time_point t_start = Clock::now();
  ++p->firings;
  const std::vector<flower::ContentPeer*> peers = fs.LiveContentPeers();
  const std::vector<flower::DirectoryPeer*> dirs = fs.LiveDirectories();
  std::map<flower::PeerAddress, const flower::ContentStore*> stores;
  for (flower::ContentPeer* c : peers) stores[c->address()] = &c->content();
  for (flower::DirectoryPeer* d : dirs) {
    stores[d->address()] = &d->own_content();
  }
  auto holds = [&stores](flower::PeerAddress a, flower::ObjectId o) {
    auto it = stores.find(a);
    return it != stores.end() && it->second->Contains(o);
  };
  const size_t catalog = static_cast<size_t>(
      fs.catalog().site(0).objects.size());
  const std::vector<size_t> ranks = SampleRanks(seed, catalog);
  const std::vector<flower::PeerAddress> none;
  std::vector<std::vector<flower::PeerAddress>> found(ranks.size());
  for (flower::ContentPeer* c : peers) {
    if (!c->joined()) continue;
    ++p->peers;
    const std::vector<flower::ObjectId>& objects = c->site()->objects;
    const size_t known = c->membership().CollectStats().summaries_known;
    for (auto& f : found) f.clear();
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < ranks.size(); ++i) {
      c->membership().AppendHolderCandidates(objects[ranks[i]], none,
                                             &found[i]);
    }
    p->scan_s += Seconds(t0, Clock::now());
    for (size_t i = 0; i < ranks.size(); ++i) {
      p->positives += found[i].size();
      for (flower::PeerAddress a : found[i]) {
        if (!holds(a, objects[ranks[i]])) ++p->false_positives;
      }
    }
    p->scans += ranks.size();
    p->summaries += known * ranks.size();
    p->objects_held += c->content().size();
    t0 = Clock::now();
    for (size_t r : ranks) {
      p->contains_hits += c->content().Contains(objects[r]);
    }
    p->contains_s += Seconds(t0, Clock::now());
    p->contains_calls += ranks.size();
  }
  for (flower::DirectoryPeer* d : dirs) {
    ++p->dirs;
    const flower::DirectoryStore& index = d->dir_store();
    p->dir_entries += index.size();
    const flower::Website* site = d->site();
    std::vector<const std::vector<flower::PeerAddress>*> lists;
    lists.reserve(ranks.size());
    const Clock::time_point t0 = Clock::now();
    for (size_t r : ranks) {
      lists.push_back(index.HoldersOf(site->SlotOf(site->objects[r])));
    }
    p->dir_lookup_s += Seconds(t0, Clock::now());
    p->dir_lookups += ranks.size();
    for (size_t i = 0; i < ranks.size(); ++i) {
      if (lists[i] == nullptr) continue;
      for (flower::PeerAddress a : *lists[i]) {
        ++p->holder_claims;
        if (!holds(a, site->objects[ranks[i]])) ++p->stale_claims;
      }
    }
  }
  p->seconds += Seconds(t_start, Clock::now());
}

// --- JSON output -------------------------------------------------------------

/// Flat JSON object writer for the one line a run prints.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  template <typename T>
  void List(const std::string& key, const std::vector<T>& values) {
    std::ostringstream os;
    os.precision(17);
    for (size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << values[i];
    }
    Raw(key, "[" + os.str() + "]");
  }
  void Raw(const std::string& key, const std::string& v) {
    os_ << (first_ ? "" : ", ") << "\"" << key << "\": " << v;
    first_ = false;
  }
  std::string Close() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

int Fail(const std::string& why) {
  JsonOut out;
  out.Raw("ok", "false");
  out.Str("error", why);
  std::printf("%s\n", out.Close().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <paper|hot|churn|faults> <seed> <plain|traced> "
                 "[key=value ...]\n",
                 argv[0]);
    return 2;
  }
  const std::string workload = argv[1];
  const std::string mode = argv[3];
  const bool traced = mode == "traced";
  if (!traced && mode != "plain") return Fail("unknown mode " + mode);
  SimConfig config;
  if (!WorkloadConfig(workload, &config)) {
    return Fail("unknown workload " + workload);
  }
  config.seed = std::strtoull(argv[2], nullptr, 10);
  // ApplyArgs skips its argv[0]; here that slot is the mode.
  flower::Status applied = config.ApplyArgs(argc - 3, argv + 3);
  if (!applied.ok()) return Fail(applied.ToString());

  LayerTimes times;
  WindowLog windows;
  Probe probe;
  flower::Experiment experiment(config);
  experiment.WithSystem("flower");
  if (traced) {
    experiment.WithSystem([&times](const flower::SystemContext& ctx)
                              -> std::unique_ptr<CdnSystem> {
      const Clock::time_point t0 = Clock::now();
      times.world_build_s = Seconds(times.run_start, t0);
      auto created = flower::SystemRegistry::Instance().Create("flower", ctx);
      if (!created.ok()) return nullptr;
      times.core_setup_s += Seconds(t0, Clock::now());
      return std::make_unique<TimedSystem>(std::move(created).value(),
                                           &times);
    });
    experiment.WithWorkload(
        [&times, &windows](const flower::WorkloadEnv& env)
            -> flower::Result<std::unique_ptr<flower::WorkloadSource>> {
          const Clock::time_point t0 = Clock::now();
          auto inner = flower::SyntheticWorkload()(env);
          if (!inner.ok()) return inner.status();
          std::unique_ptr<flower::WorkloadSource> source =
              std::make_unique<TimedSource>(std::move(inner).value(), &times);
          windows.last = Clock::now();
          times.workload_build_s = Seconds(t0, windows.last);
          return source;
        });
    experiment.Every(config.metrics_window,
                     [&windows](const flower::ObserverContext& octx) {
      const Clock::time_point now = Clock::now();
      windows.wall_ms.push_back(
          (Seconds(windows.last, now) - windows.probe_s_pending) * 1e3);
      windows.probe_s_pending = 0;
      windows.last = now;
      ++windows.firings;
      windows.messages = octx.network->messages_sent();
      windows.undeliverable = octx.network->messages_undeliverable();
      for (int c = 0; c < static_cast<int>(flower::TrafficClass::kNumClasses);
           ++c) {
        const auto cls = static_cast<flower::TrafficClass>(c);
        windows.bits[flower::TrafficClassName(cls)] =
            octx.network->TotalBits(cls);
      }
    });
    const SimTime probe_at = config.duration - config.duration / 16;
    const uint64_t seed = config.seed;
    experiment.At(probe_at, [&probe, &windows, seed](
                                const flower::ObserverContext& octx) {
      auto* timed = dynamic_cast<TimedSystem*>(octx.system);
      auto* adapter =
          timed == nullptr
              ? nullptr
              : dynamic_cast<flower::FlowerAdapter*>(timed->inner());
      if (adapter == nullptr) return;
      RunProbe(adapter->system(), seed, &probe);
      windows.probe_s_pending += probe.seconds;
    });
  }

  times.run_start = Clock::now();
  flower::Result<flower::RunResult> ran = experiment.TryRun();
  const Clock::time_point run_end = Clock::now();
  if (!ran.ok()) return Fail("TryRun: " + ran.status().ToString());
  flower::RunResult r = std::move(ran).value();
  const double total_s = Seconds(times.run_start, run_end);
  const double run_s = r.wall_ms / 1e3;

  // The observers' own timer events are engine events of this run only:
  // each firing was dispatched, and each periodic timer left one pending
  // event that TryRun cancelled after the run loop.
  if (traced) {
    r.events_processed -= windows.firings + probe.firings;
    r.events_cancelled -= 1;
  }

  std::vector<std::string> failed_checks;
  if (r.queries_served > r.queries_submitted) {
    failed_checks.push_back("served > submitted");
  }
  if (r.served_by_server + r.served_by_local_peer + r.served_by_remote_peer !=
      r.queries_served) {
    failed_checks.push_back("provider split != served");
  }
  if (r.stale_redirects_peer_summary + r.stale_redirects_dir_index !=
      r.stale_redirects) {
    failed_checks.push_back("stale-redirect split != total");
  }
  if (r.queries_submitted == 0) failed_checks.push_back("no queries");
  if (traced && probe.firings != 1) failed_checks.push_back("probe missed");
  if (traced && windows.firings == 0) {
    failed_checks.push_back("window observer never fired");
  }
  uint64_t digest = 0;
  const std::string scratch =
      ".flowerbench_record_" + std::to_string(::getpid()) + ".json";
  if (!RecordDigest(config, r, scratch, &digest)) {
    failed_checks.push_back("cannot write sink record");
  }

  JsonOut out;
  out.Raw("ok", failed_checks.empty() ? "true" : "false");
  std::vector<std::string> quoted;
  for (const std::string& c : failed_checks) quoted.push_back("\"" + c + "\"");
  out.List("failed_checks", quoted);
  out.Str("workload", workload);
  out.Int("seed", config.seed);
  out.Str("mode", mode);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  out.Str("digest", hex);

  // Host cost of this run.
  out.Num("run_s", run_s);
  out.Num("setup_s", total_s - run_s);
  out.Num("peak_rss_mb",
          static_cast<double>(flower::MemStats::PeakRssBytes()) / 1048576.0);

  // Simulated outcome, raw enough to pool across worlds.
  out.Int("submitted", r.queries_submitted);
  out.Int("served", r.queries_served);
  out.Num("hit_ratio", r.cumulative_hit_ratio);
  const flower::Histogram& h = r.lookup_hist;
  std::vector<uint64_t> buckets;
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    buckets.push_back(h.bucket_count(i));
  }
  out.Num("lookup_bucket_ms", h.bucket_width());
  out.List("lookup_buckets", buckets);
  out.Int("lookup_overflow", h.overflow_count());
  out.Int("lookup_count", h.count());
  out.Num("lookup_sum_ms", h.sum());
  out.Num("transfer_mean_ms", r.mean_transfer_ms);
  out.Int("transfer_count", r.transfer_hist.count());
  out.Num("background_bps", r.background_bps);
  out.Int("participants", r.participants);
  out.Int("served_local", r.served_by_local_peer);
  out.Int("served_remote", r.served_by_remote_peer);
  out.Int("served_server", r.served_by_server);
  out.Int("stale_redirects", r.stale_redirects);
  out.Int("stale_peer_summary", r.stale_redirects_peer_summary);
  out.Int("stale_dir_index", r.stale_redirects_dir_index);
  out.Int("events", r.events_processed);
  out.Int("events_cancelled", r.events_cancelled);
  out.Int("cache_evictions", r.cache_evictions);
  out.Int("dir_index_evictions", r.dir_index_evictions);
  out.Int("injected_drops", r.injected_drops);
  out.Int("retries", r.query_retries);
  out.Int("timeouts", r.queries_timed_out);
  out.Int("suspicions", r.suspicions_confirmed);
  out.Int("promotions", r.directory_promotions);
  out.Str("gossip_protocol", r.gossip_protocol);
  out.Num("view_size_mean", r.mean_active_view);
  out.Num("summaries_known_mean", r.mean_summaries_known);
  out.Num("bg_steady_bps", r.SteadyStateBackgroundBps());
  out.Int("eager_deliveries", r.plumtree_eager_deliveries);
  out.Int("duplicates", r.plumtree_duplicates);
  out.Int("grafts", r.plumtree_grafts);
  out.Int("lazy_recoveries", r.plumtree_lazy_recoveries);
  out.Int("shuffles", r.hyparview_shuffles);

  if (traced) {
    out.Num("world_build_s", times.world_build_s);
    out.Num("core_setup_s", times.core_setup_s);
    out.Num("collect_s", total_s - times.world_build_s - times.core_setup_s -
                             times.workload_build_s - run_s);
    out.Num("loop_s", run_s - probe.seconds);
    out.Int("submit_calls", times.submit_calls);
    out.Num("submit_s", times.submit_s);
    out.Int("next_calls", times.next_calls);
    out.Num("next_s", times.next_s);
    out.List("window_wall_ms", windows.wall_ms);
    out.Int("messages", windows.messages);
    out.Int("undeliverable", windows.undeliverable);
    for (const auto& [cls, bits] : windows.bits) out.Int("bits_" + cls, bits);
    out.Num("probe_s", probe.seconds);
    out.Int("probe_peers", probe.peers);
    out.Int("probe_scans", probe.scans);
    out.Int("probe_summaries", probe.summaries);
    out.Num("probe_scan_s", probe.scan_s);
    out.Int("probe_positives", probe.positives);
    out.Int("probe_false_positives", probe.false_positives);
    out.Int("probe_contains_calls", probe.contains_calls);
    out.Int("probe_contains_hits", probe.contains_hits);
    out.Num("probe_contains_s", probe.contains_s);
    out.Int("probe_objects_held", probe.objects_held);
    out.Int("probe_dirs", probe.dirs);
    out.Int("probe_dir_entries", probe.dir_entries);
    out.Int("probe_dir_lookups", probe.dir_lookups);
    out.Num("probe_dir_lookup_s", probe.dir_lookup_s);
    out.Int("probe_holder_claims", probe.holder_claims);
    out.Int("probe_stale_claims", probe.stale_claims);
  }
  std::printf("%s\n", out.Close().c_str());
  return failed_checks.empty() ? 0 : 1;
}

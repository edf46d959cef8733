// evabench_host: the system under test of the EVA benchmark.
//
// It builds the pipeline of the paper through the public core::Eva facade
// (dataset, tokenizer, model), pretrains the model for a fixed number of
// steps, and stands up a serving fleet on loopback
// from the public serve classes: a CacheSidecar, two JsonLineServer
// replicas (each a GenerationService with the default
// ServiceConfig over its own copy of the pretrained weights) and a Router
// in front of them. Load comes from evabench_load, a separate process.
//
// run.py drives the host over stdin/stdout. Every machine-readable line
// the host prints starts with "EVB " followed by one JSON object:
//
//   (start)          -> EVB {"event": "ready", ...}     set-up + pretraining
//   "check <file>"   -> EVB {"event": "checked", ...}   correctness probe
//   "finish"         -> EVB {"event": "result", ...}    PPO + GA sizing
//
// "check" re-sends each request line in <file> to the router and to every
// replica directly, replays the request's work in-process through the
// public layer calls (decode, token-to-netlist, WL hash, result cache,
// SPICE, wire encode) and returns the lines of all of them; run.py
// requires their items to be identical.
// "finish" stops the fleet, then runs PPO fine-tuning and GA sizing.
//
// With --trace 1 the host also times the layers from outside: per-step
// pretraining, a replayed training step, the PPO pieces, and SPICE DC/AC
// on the sizing set. Untraced runs make none of these extra calls.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "circuit/canon.hpp"
#include "core/eva.hpp"
#include "nn/lm_trainer.hpp"
#include "nn/sampler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "opt/ga.hpp"
#include "rl/ppo.hpp"
#include "rl/reward_model.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/sidecar.hpp"
#include "spice/engine.hpp"
#include "spice/fom.hpp"
#include "spice/sizing.hpp"
#include "tensor/optim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace eva;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// "VmHWM" etc. from /proc/self/status, in MB (kB fields) or as a count.
double proc_status(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string want = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(want, 0) != 0) continue;
    const double v = std::strtod(line.c_str() + want.size(), nullptr);
    return line.find("kB") != std::string::npos ? v / 1024.0 : v;
  }
  return 0.0;
}

// --- tiny JSON writer ---------------------------------------------------------

class Json {
 public:
  Json& num(const char* k, double v) {
    key(k);
    obs::json_number_into(out_, v);
    return *this;
  }
  Json& str(const char* k, const std::string& v) {
    key(k);
    obs::json_string_into(out_, v);
    return *this;
  }
  Json& nums(const char* k, const std::vector<double>& v) {
    key(k);
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out_ += ", ";
      obs::json_number_into(out_, v[i]);
    }
    out_ += "]";
    return *this;
  }
  Json& strs(const char* k, const std::vector<std::string>& v) {
    key(k);
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out_ += ", ";
      obs::json_string_into(out_, v[i]);
    }
    out_ += "]";
    return *this;
  }
  Json& obj(const char* k, const Json& v) {
    key(k);
    out_ += v.done();
    return *this;
  }
  Json& objs(const char* k, const std::vector<Json>& v) {
    key(k);
    out_ += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out_ += ", ";
      out_ += v[i].done();
    }
    out_ += "]";
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  void key(const char* k) {
    out_ += out_.size() > 1 ? ", \"" : "\"";
    out_ += k;
    out_ += "\": ";
  }
  std::string out_ = "{";
};

void emit(const Json& j) {
  std::cout << "EVB " << j.done() << std::endl;
}

// --- configuration ------------------------------------------------------------

// The benchmark's scale. The full profile is what every measured run uses;
// the toy profile exists only for the benchmark's own smoke tests.
struct Profile {
  int per_type;          // dataset topologies per circuit type
  int pretrain_steps;
  int setup_repeats;     // Eva::prepare() calls and fleet boots per window
  int ppo_epochs;
  int finetune_repeats;  // untraced Eva::finetune_ppo runs
  int ppo_rollouts;
  int rm_steps;          // reward-model training steps
  int size_per_type;     // sizing-set topologies per circuit type
  int sizing_passes;
};

constexpr Profile kFull{15, 200, 10, 3, 2, 8, 40, 4, 2};
constexpr Profile kToy{4, 20, 2, 1, 1, 2, 5, 1, 1};

struct Args {
  std::uint64_t seed = 1;
  bool trace = false;
  Profile p = kFull;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--trace" && (v == "0" || v == "1")) {
      a.trace = v == "1";
    } else if (k == "--toy" && (v == "0" || v == "1")) {
      a.p = v == "1" ? kToy : kFull;
    } else {
      return false;
    }
  }
  return have_seed;
}

// The dataset, the pretrained model and the fine-tuning run are fixed
// artifacts of the benchmark, the same for every workload seed: the seed
// draws the traffic, the probe sample and the sizing set, so runs with
// different seeds serve and tune the same policy.
constexpr std::uint64_t kModelSeed = 2025;
constexpr int kReplicas = 2;

core::EvaConfig eva_config(const Args& a) {
  core::EvaConfig cfg;
  cfg.seed = derive(kModelSeed, 1);
  cfg.dataset.per_type = a.p.per_type;
  cfg.dataset.seed = derive(kModelSeed, 2);
  cfg.pretrain.steps = a.p.pretrain_steps;
  cfg.pretrain.seed = derive(kModelSeed, 3);
  cfg.pretrain.log_every = a.p.pretrain_steps + 1;  // no per-step log lines
  return cfg;
}

// The serving defaults, spelled out so the environment cannot change them:
// f32 weights, 61 AC points, no surrogate pre-filter.
serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.quant = tensor::QuantKind::kF32;
  cfg.surrogate = nullptr;
  cfg.sim = spice::SimOptions{};
  cfg.slow_warn_ms = 0.0;
  return cfg;
}

// --- the fleet ------------------------------------------------------------------

std::string loopback(int port) { return "127.0.0.1:" + std::to_string(port); }

class Fleet {
 public:
  Fleet(const nn::TransformerLM& trained, const nn::Tokenizer& tok,
        int replicas, std::uint64_t seed) {
    serve::SidecarConfig scfg;
    scfg.port = 0;
    sidecar_ = std::make_unique<serve::CacheSidecar>(scfg);
    sidecar_port_ = sidecar_->listen_and_start();

    serve::RouterConfig rcfg;
    rcfg.port = 0;
    rcfg.cache_addr = loopback(sidecar_port_);
    Rng rng(seed);
    for (int i = 0; i < replicas; ++i) {
      models_.push_back(
          std::make_unique<nn::TransformerLM>(trained.config(), rng));
      models_.back()->load_from(trained);
      services_.push_back(std::make_unique<serve::GenerationService>(
          *models_.back(), tok, service_config()));
      serve::ServerConfig cfg;
      cfg.port = 0;
      servers_.push_back(
          std::make_unique<serve::JsonLineServer>(*services_.back(), cfg));
      replica_ports_.push_back(servers_.back()->listen_and_start());
      rcfg.backends.push_back(loopback(replica_ports_.back()));
    }
    router_ = std::make_unique<serve::Router>(rcfg);
    router_port_ = router_->listen_and_start();
  }

  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void stop() {
    if (router_) router_->stop();
    for (auto& s : servers_) s->stop();
    if (sidecar_) sidecar_->stop();
  }

  [[nodiscard]] int router_port() const { return router_port_; }
  [[nodiscard]] const std::vector<int>& replica_ports() const {
    return replica_ports_;
  }

 private:
  // Members are destroyed in reverse declaration order: the router first,
  // then the servers, the services, the sidecar and the models.
  std::vector<std::unique_ptr<nn::TransformerLM>> models_;
  std::unique_ptr<serve::CacheSidecar> sidecar_;
  std::vector<std::unique_ptr<serve::GenerationService>> services_;
  std::vector<std::unique_ptr<serve::JsonLineServer>> servers_;
  std::unique_ptr<serve::Router> router_;
  int sidecar_port_ = 0;
  int router_port_ = 0;
  std::vector<int> replica_ports_;
};

// One blocking request/response exchange over a fresh connection.
struct Exchange {
  double connect_ms = 0.0;
  double total_ms = 0.0;
  std::vector<std::string> lines;  // items then the terminator
};

Exchange round_trip(int port, const std::string& line) {
  Exchange ex;
  const auto t0 = Clock::now();
  const int fd = serve::net::connect_with_deadline("127.0.0.1", port, 5000.0);
  ex.connect_ms = ms_since(t0);
  if (fd < 0) return ex;
  serve::net::LineReader reader(fd);
  if (serve::net::send_line(fd, line)) {
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    std::string got;
    while (reader.read_line(got, deadline) ==
           serve::net::LineReader::Result::kLine) {
      ex.lines.push_back(got);
      if (got.rfind("{\"done\"", 0) == 0) break;
    }
  }
  ::close(fd);
  ex.total_ms = ms_since(t0);
  return ex;
}

// --- the replay: one request's work through the public layer calls -------------

struct Replay {
  // Layer times, summed over the replayed requests.
  double decode_ms = 0, to_netlist_us = 0, to_spice_us = 0, hash_us = 0,
         get_us = 0, simulatable_us = 0, evaluate_us = 0, put_us = 0,
         encode_us = 0, total_ms = 0;
  double steps = 0, tokens = 0, items = 0, decoded = 0, lookups = 0,
         simulated = 0, structural_valid = 0, valid = 0, evaluated = 0,
         puts = 0;
};

// Re-executes GenerationService's per-request work for `req` (same
// decoder width, options, RNG stream and verify calls) on a private cache,
// and returns the wire lines it would produce.
std::vector<std::string> replay_request(const serve::Request& req,
                                        nn::BatchedDecoder& decoder,
                                        const nn::Tokenizer& tok,
                                        const serve::ServiceConfig& cfg,
                                        Replay& acc) {
  serve::ResultCache cache(cfg.cache_capacity);
  const auto t_start = Clock::now();
  nn::SampleOptions opts = cfg.sample;
  opts.temperature = req.temperature;
  decoder.set_options(opts);
  Rng rng(req.seed);
  auto t = Clock::now();
  auto results = decoder.decode(rng, req.n);
  acc.decode_ms += ms_since(t);
  acc.steps += static_cast<double>(decoder.last_decode_stats().steps);
  acc.tokens += static_cast<double>(decoder.last_decode_stats().tokens);

  const std::size_t n = results.size();
  std::vector<serve::Item> items(n);
  std::vector<std::optional<circuit::Netlist>> netlists(n);
  std::vector<std::uint64_t> keys(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].ids = std::move(results[i].ids);
    t = Clock::now();
    auto dec = nn::ids_to_netlist_checked(tok, items[i].ids);
    acc.to_netlist_us += ms_since(t) * 1e3;
    if (!dec.netlist) continue;
    items[i].decoded = true;
    t = Clock::now();
    items[i].netlist = dec.netlist->to_spice();
    acc.to_spice_us += ms_since(t) * 1e3;
    t = Clock::now();
    const std::uint64_t h = circuit::canonical_hash(*dec.netlist);
    acc.hash_us += ms_since(t) * 1e3;
    keys[i] = serve::ResultCache::key_for(h, static_cast<int>(req.type));
    netlists[i] = std::move(*dec.netlist);
    acc.decoded += 1;
  }
  acc.items += static_cast<double>(n);

  std::vector<std::size_t> misses;
  std::vector<std::size_t> dup_of(n, SIZE_MAX);
  std::unordered_map<std::uint64_t, std::size_t> first_miss;
  for (std::size_t i = 0; i < n; ++i) {
    if (!items[i].decoded) continue;
    t = Clock::now();
    const auto hit = cache.get(keys[i]);
    acc.get_us += ms_since(t) * 1e3;
    acc.lookups += 1;
    if (hit) {
      items[i].valid = hit->valid;
      items[i].fom = hit->fom;
      items[i].cached = true;
      continue;
    }
    const auto [it, inserted] = first_miss.emplace(keys[i], i);
    if (inserted) {
      misses.push_back(i);
    } else {
      dup_of[i] = it->second;
    }
  }
  for (const std::size_t i : misses) {
    const circuit::Netlist& nl = *netlists[i];
    serve::CachedEval ev;
    t = Clock::now();
    const auto verdict = spice::simulatable_verdict(nl);
    acc.simulatable_us += ms_since(t) * 1e3;
    acc.simulated += 1;
    if (verdict != spice::SimVerdict::kStructurallyInvalid) {
      acc.structural_valid += 1;
    }
    ev.valid = verdict == spice::SimVerdict::kOk;
    if (ev.valid && cfg.evaluate_fom) {
      t = Clock::now();
      const auto perf =
          spice::evaluate(nl, spice::default_sizing(nl), req.type, cfg.sim);
      acc.evaluate_us += ms_since(t) * 1e3;
      acc.evaluated += 1;
      if (perf.ok && std::isfinite(perf.fom)) ev.fom = perf.fom;
    }
    acc.valid += ev.valid ? 1 : 0;
    t = Clock::now();
    cache.put(keys[i], ev);
    acc.put_us += ms_since(t) * 1e3;
    acc.puts += 1;
    items[i].valid = ev.valid;
    items[i].fom = ev.fom;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (dup_of[i] == SIZE_MAX) continue;
    items[i].valid = items[dup_of[i]].valid;
    items[i].fom = items[dup_of[i]].fom;
    items[i].cached = true;
  }

  t = Clock::now();
  std::vector<std::string> lines;
  lines.reserve(n + 1);
  for (const auto& item : items) lines.push_back(serve::item_to_json(item, 0));
  serve::Response r;
  r.items = std::move(items);
  lines.push_back(serve::done_to_json(r));
  acc.encode_us += ms_since(t) * 1e3;
  acc.total_ms += ms_since(t_start);
  return lines;
}

// --- phases ---------------------------------------------------------------------

class Host {
 public:
  explicit Host(Args a) : args_(a), cfg_(eva_config(a)) {}

  void setup() {
    // Set-up is timed over repeats of each part: building the
    // dataset/tokenizer/corpus/model, and booting the fleet. These are the
    // first of three timing windows; finish() times the other two.
    for (int r = 0; r < args_.p.setup_repeats; ++r) {
      const auto t = Clock::now();
      auto e = std::make_unique<core::Eva>(cfg_);
      e->prepare();
      prepare_ms_.push_back(ms_since(t));
      engine_ = std::move(e);
    }
    if (args_.trace) {
      for (int r = 0; r < args_.p.setup_repeats; ++r) {
        const auto t = Clock::now();
        const auto ds = data::Dataset::build(cfg_.dataset);
        dataset_build_ms_.push_back(ms_since(t));
      }
    }

    pretrain();

    for (int r = 0; r < args_.p.setup_repeats; ++r) {
      fleet_.reset();
      const auto t = Clock::now();
      fleet_ = std::make_unique<Fleet>(engine_->model(), engine_->tokenizer(),
                                       kReplicas, derive(args_.seed, 4));
      boot_ms_.push_back(ms_since(t));
    }

    Rng rng(derive(kModelSeed, 12));
    pretrained_ = std::make_unique<nn::TransformerLM>(
        engine_->model().config(), rng);
    pretrained_->load_from(engine_->model());
    choose_sizing_set();
    // Batch occupancy counts the decode steps of the load from here on.
    occupancy_start_ = obs::histogram("sampler.batch_occupancy").snapshot();

    std::vector<double> rp;
    for (const int p : fleet_->replica_ports()) rp.push_back(p);
    Json j;
    j.str("event", "ready")
        .num("router_port", fleet_->router_port())
        .nums("replica_ports", rp)
        .nums("losses", losses_)
        .nums("pretrain_step_ms", step_ms_)
        .nums("pretrain_step_tokens", step_tokens_)
        .nums("train_fwd_ms", fwd_ms_)
        .nums("train_bwd_ms", bwd_ms_)
        .nums("optim_step_ms", optim_ms_)
        .nums("dataset_build_ms", dataset_build_ms_);
    emit(j);
  }

  void check(const std::string& path) {
    // The load's decode steps, before the probes and the replay decode.
    const auto& occ = occupancy_start_;
    const auto occ1 = obs::histogram("sampler.batch_occupancy").snapshot();
    const double occ_n = static_cast<double>(occ1.count - occ.count);
    const double occ_mean =
        occ_n > 0 ? (occ1.mean * static_cast<double>(occ1.count) -
                     occ.mean * static_cast<double>(occ.count)) /
                        occ_n
                  : 0.0;

    std::ifstream in(path);
    std::vector<std::string> requests;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) requests.push_back(line);
    }
    const serve::ServiceConfig scfg = service_config();
    nn::BatchedDecoder decoder(engine_->model(), engine_->tokenizer(),
                               scfg.batch_width, scfg.sample);
    Replay acc;
    std::vector<std::string> failures;
    std::vector<double> router_hit_ms, connect_ms;
    std::vector<Json> probes;
    for (const auto& line : requests) {
      std::string why;
      const auto req = serve::parse_request(line, &why);
      if (!req || req->seed == 0) {
        failures.push_back("unusable probe request: " + line);
        continue;
      }
      const auto hits0 = obs::counter("router.cache_hits").value();
      const Exchange via_router = round_trip(fleet_->router_port(), line);
      connect_ms.push_back(via_router.connect_ms);
      if (obs::counter("router.cache_hits").value() > hits0) {
        router_hit_ms.push_back(via_router.total_ms);
      }
      std::vector<Json> replicas;
      for (const int port : fleet_->replica_ports()) {
        const Exchange ex = round_trip(port, line);
        connect_ms.push_back(ex.connect_ms);
        replicas.push_back(Json().strs("lines", ex.lines));
      }
      const auto replayed =
          replay_request(*req, decoder, engine_->tokenizer(), scfg, acc);
      // run.py compares the items of all three paths.
      probes.push_back(Json()
                           .str("request", line)
                           .strs("router", via_router.lines)
                           .objs("replicas", replicas)
                           .strs("replay", replayed));
    }

    Json r;
    r.num("decode_ms", acc.decode_ms)
        .num("to_netlist_us", acc.to_netlist_us)
        .num("to_spice_us", acc.to_spice_us)
        .num("hash_us", acc.hash_us)
        .num("get_us", acc.get_us)
        .num("simulatable_us", acc.simulatable_us)
        .num("evaluate_us", acc.evaluate_us)
        .num("put_us", acc.put_us)
        .num("encode_us", acc.encode_us)
        .num("total_ms", acc.total_ms)
        .num("steps", acc.steps)
        .num("tokens", acc.tokens)
        .num("items", acc.items)
        .num("decoded", acc.decoded)
        .num("lookups", acc.lookups)
        .num("simulated", acc.simulated)
        .num("structural_valid", acc.structural_valid)
        .num("valid", acc.valid)
        .num("evaluated", acc.evaluated)
        .num("puts", acc.puts)
        .num("requests", static_cast<double>(requests.size()));
    Json j;
    j.str("event", "checked")
        .strs("failures", failures)
        .obj("replay", r)
        .objs("probes", probes)
        .nums("router_hit_ms", router_hit_ms)
        .nums("connect_ms", connect_ms)
        .num("occupancy_mean", occ_mean)
        .num("occupancy_steps", occ_n)
        .num("threads_end", proc_status("Threads"))
        .num("vm_mb_end", proc_status("VmSize"));
    emit(j);
  }

  void finish() {
    fleet_.reset();
    time_setup();
    Json j;
    j.str("event", "result");
    if (args_.trace) {
      traced_finetune(j);
    } else {
      for (int r = 0; r < args_.p.finetune_repeats; ++r) finetune_once();
    }
    for (int p = 0; p < args_.p.sizing_passes; ++p) sizing_pass();
    for (std::size_t i = 0; i < set_.size(); ++i) {
      if (!std::isfinite(best_fom_[i]) || !std::isfinite(default_fom_[i]) ||
          best_fom_[i] < default_fom_[i]) {
        failures_.push_back("GA best FoM below default sizing for a " +
                            std::string(circuit::type_name(set_[i]->type)));
      }
    }
    const double solves =
        sizing_solves_ / static_cast<double>(sizing_pass_ms_.size());
    j.nums("finetune_ms", finetune_ms_)
        .num("sized", static_cast<double>(set_.size()))
        .nums("ga_ms", ga_ms_)
        .nums("sizing_pass_ms", sizing_pass_ms_)
        .num("dc_solves", solves);
    if (args_.trace) spice_layers(j);
    const double peak_rss_mb = proc_status("VmHWM");
    time_setup();
    j.nums("prepare_ms", prepare_ms_)
        .nums("boot_ms", boot_ms_)
        .strs("failures", failures_)
        .num("peak_rss_mb", peak_rss_mb)
        .str("build_type",
#ifdef NDEBUG
             "release"
#else
             "debug"
#endif
        );
    emit(j);
  }

 private:
  // A later window of set-up repeats, on throwaway objects. The VM's speed
  // changes from one few-second stretch to the next, so set-up is sampled
  // at three points of the run, not in one burst.
  void time_setup() {
    for (int r = 0; r < args_.p.setup_repeats; ++r) {
      const auto t = Clock::now();
      auto e = std::make_unique<core::Eva>(cfg_);
      e->prepare();
      prepare_ms_.push_back(ms_since(t));
    }
    for (int r = 0; r < args_.p.setup_repeats; ++r) {
      const auto t = Clock::now();
      auto f = std::make_unique<Fleet>(*pretrained_, engine_->tokenizer(),
                                       kReplicas, derive(args_.seed, 4));
      boot_ms_.push_back(ms_since(t));
    }
  }

  // Pretraining through the library's per-step progress hook, which
  // records each step's wall time and token count (the pretrain.tokens
  // counter) so run.py can take a median rate over chunks of steps.
  void pretrain() {
    nn::PretrainConfig pc = cfg_.pretrain;
    pc.log_every = 1;
    auto last = Clock::now();
    auto tokens = obs::counter("pretrain.tokens").value();
    const auto pr = nn::pretrain(
        engine_->model(), engine_->corpus(), pc, [&](int, double) {
          const auto now = Clock::now();
          const auto tk = obs::counter("pretrain.tokens").value();
          step_ms_.push_back(
              std::chrono::duration<double, std::milli>(now - last).count());
          step_tokens_.push_back(static_cast<double>(tk - tokens));
          last = now;
          tokens = tk;
        });
    losses_ = pr.losses;
    if (args_.trace) replay_train_steps();
  }

  // Forward, backward and optimizer step of a training step, timed
  // separately on a copy of the pretrained model.
  void replay_train_steps() {
    Rng rng(derive(args_.seed, 5));
    nn::TransformerLM copy(engine_->model().config(), rng);
    copy.load_from(engine_->model());
    auto params = copy.parameters();
    tensor::AdamW opt(params, {.lr = cfg_.pretrain.lr,
                               .weight_decay = cfg_.pretrain.weight_decay});
    const auto& train = engine_->corpus().train;
    for (int s = 0; s < 5; ++s) {
      std::vector<const std::vector<int>*> batch;
      for (int b = 0; b < cfg_.pretrain.batch; ++b) {
        batch.push_back(&train[rng.index(train.size())]);
      }
      const nn::TokenBatch tb =
          nn::make_batch(batch, copy.config().max_seq);
      opt.zero_grad();
      Rng drop = rng.fork();
      auto t = Clock::now();
      tensor::Tensor logits =
          copy.forward(tb.inputs, tb.batch, tb.seq_len, true, &drop);
      tensor::Tensor loss = tensor::cross_entropy(logits, tb.targets, -1);
      fwd_ms_.push_back(ms_since(t));
      t = Clock::now();
      loss.backward();
      bwd_ms_.push_back(ms_since(t));
      t = Clock::now();
      opt.step();
      optim_ms_.push_back(ms_since(t));
    }
  }

  rl::PpoConfig ppo_config() const {
    rl::PpoConfig ppo;
    ppo.epochs = args_.p.ppo_epochs;
    ppo.rollouts = args_.p.ppo_rollouts;
    ppo.seed = derive(kModelSeed, 6);
    return ppo;
  }

  rl::RewardModelConfig rm_config() const {
    rl::RewardModelConfig rm;
    rm.steps = args_.p.rm_steps;
    rm.seed = derive(kModelSeed, 7);
    return rm;
  }

  // One Eva::finetune_ppo run from the pretrained weights; the engine's
  // model is restored afterwards, so the replay keeps matching the fleet.
  void finetune_once() {
    engine_->model().load_from(*pretrained_);
    const auto t = Clock::now();
    engine_->finetune_ppo(circuit::CircuitType::OpAmp, ppo_config(),
                          rm_config());
    finetune_ms_.push_back(ms_since(t));
    engine_->model().load_from(*pretrained_);
  }

  // The same three stages as Eva::finetune_ppo, timed apart.
  void traced_finetune(Json& j) {
    const auto target = circuit::CircuitType::OpAmp;
    const auto t = Clock::now();
    auto t1 = Clock::now();
    const auto labels = engine_->label_for(target);
    const double label_ms = ms_since(t1);
    Rng rng(derive(kModelSeed, 8));
    t1 = Clock::now();
    rl::RewardModel reward(engine_->model(), engine_->tokenizer(), rng);
    reward.train(labels.examples, rm_config());
    const double rm_ms = ms_since(t1);
    const rl::PpoConfig ppo = ppo_config();
    std::vector<double> epoch_ms;
    auto last = Clock::now();
    rl::PpoTrainer trainer(engine_->model(), engine_->tokenizer(), reward, ppo,
                           rng);
    trainer.train([&](int, double) {
      const auto now = Clock::now();
      epoch_ms.push_back(
          std::chrono::duration<double, std::milli>(now - last).count());
      last = now;
    });
    finetune_ms_.push_back(ms_since(t));
    // One rollout batch and its rewards, replayed with the tuned policy.
    nn::SampleOptions opts;
    opts.temperature = ppo.temperature;
    nn::BatchedDecoder decoder(engine_->model(), engine_->tokenizer(),
                               ppo.batch_width, opts);
    Rng roll(derive(args_.seed, 9));
    t1 = Clock::now();
    const auto rollouts = decoder.decode(roll, ppo.rollouts);
    const double rollout_ms = ms_since(t1);
    t1 = Clock::now();
    double reward_sum = 0.0;
    for (const auto& r : rollouts) reward_sum += reward.reward(r.ids);
    const double reward_ms = ms_since(t1);
    if (!std::isfinite(reward_sum)) failures_.push_back("non-finite reward");
    j.num("label_ms", label_ms)
        .num("reward_model_train_ms", rm_ms)
        .nums("ppo_epoch_ms", epoch_ms)
        .num("rollout_ms", rollout_ms)
        .num("reward_ms", reward_ms);
  }

  // A seed-drawn set of dataset topologies, size_per_type of every circuit
  // type in a seed-shuffled order, with their default-sizing FoMs.
  void choose_sizing_set() {
    Rng rng(derive(args_.seed, 10));
    for (int k = 0; k < circuit::kNumCircuitTypes; ++k) {
      auto of = engine_->dataset().of_type(static_cast<circuit::CircuitType>(k));
      for (std::size_t i = of.size(); i > 1; --i) {
        std::swap(of[i - 1], of[rng.index(i)]);
      }
      const std::size_t take =
          std::min(of.size(), static_cast<std::size_t>(args_.p.size_per_type));
      set_.insert(set_.end(), of.begin(), of.begin() + static_cast<long>(take));
    }
    for (std::size_t i = set_.size(); i > 1; --i) {
      std::swap(set_[i - 1], set_[rng.index(i)]);
    }
    for (const auto* e : set_) {
      const auto base =
          spice::evaluate(e->netlist, spice::default_sizing(e->netlist), e->type);
      default_fom_.push_back(base.ok ? base.fom : 0.0);
    }
  }

  // One GA sizing pass over the set. The GA is seeded, so every pass must
  // find the same optima.
  void sizing_pass() {
    opt::GaConfig ga;
    ga.seed = derive(args_.seed, 11);
    const bool first = sizing_pass_ms_.empty();
    const auto solves0 = obs::counter("spice.dc_solves").value();
    double total = 0.0;
    for (std::size_t i = 0; i < set_.size(); ++i) {
      const auto* e = set_[i];
      const auto t = Clock::now();
      const auto sized = opt::size_topology(e->netlist, e->type, ga);
      const double dt = ms_since(t);
      total += dt;
      if (first) {
        ga_ms_.push_back(dt);
        best_fom_.push_back(sized.perf.fom);
      } else if (sized.perf.fom != best_fom_[i]) {
        failures_.push_back("GA sizing is not deterministic for a " +
                            std::string(circuit::type_name(e->type)));
      }
    }
    sizing_pass_ms_.push_back(total);
    sizing_solves_ += static_cast<double>(
        obs::counter("spice.dc_solves").value() - solves0);
  }

  // DC and AC layers of the sizing set at default sizing.
  void spice_layers(Json& j) {
    std::vector<double> dc_us, ac_us, nr_iters;
    for (const auto* e : set_) {
      spice::Simulator sim(e->netlist, spice::default_sizing(e->netlist));
      auto t = Clock::now();
      const bool ok = sim.solve_dc();
      dc_us.push_back(ms_since(t) * 1e3);
      nr_iters.push_back(sim.dc_result().iterations);
      if (!ok) continue;
      t = Clock::now();
      const auto sweep = sim.ac_sweep(1.0, 1e10, spice::SimOptions{}.ac_points);
      ac_us.push_back(ms_since(t) * 1e3);
      if (sweep.empty()) failures_.push_back("empty AC sweep");
    }
    j.nums("dc_us", dc_us).nums("ac_us", ac_us).nums("nr_iters", nr_iters);
  }

  Args args_;
  core::EvaConfig cfg_;
  std::unique_ptr<core::Eva> engine_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<nn::TransformerLM> pretrained_;  // weights the fleet serves
  obs::HistogramSnapshot occupancy_start_;         // at the end of set-up
  std::vector<const data::TopologyEntry*> set_;    // the sizing set
  double sizing_solves_ = 0.0;  // spice.dc_solves during sizing passes
  std::vector<std::string> failures_;
  std::vector<double> finetune_ms_, ga_ms_, sizing_pass_ms_, best_fom_,
      default_fom_;
  std::vector<double> prepare_ms_, boot_ms_;  // set-up repeats
  std::vector<double> losses_, step_ms_, step_tokens_, fwd_ms_, bwd_ms_, optim_ms_,
      dataset_build_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: evabench_host --seed S [--trace 0|1] [--toy 0|1]\n");
    return 2;
  }
  serve::net::ignore_sigpipe();
  try {
    Host host(args);
    host.setup();
    for (std::string cmd; std::getline(std::cin, cmd);) {
      if (cmd.rfind("check ", 0) == 0) {
        host.check(cmd.substr(6));
      } else if (cmd == "finish") {
        host.finish();
        return 0;
      } else {
        std::fprintf(stderr, "evabench_host: unknown command '%s'\n",
                     cmd.c_str());
        return 2;
      }
    }
    return 0;  // stdin closed: tear down without a result
  } catch (const std::exception& e) {
    Json j;
    j.str("event", "error").str("message", e.what());
    emit(j);
    return 1;
  }
}

// eva_cache_main: shared-cache sidecar process (DESIGN.md §13).
//
// Serves the fleet's second cache tier over the JSON-lines protocol
// (cache_get / cache_put / stats) until SIGTERM/SIGINT.
//
// Environment:
//   EVA_CACHE_PORT      listen port (default 7190; 0 = ephemeral)
//   EVA_CACHE_ENTRIES   LRU entry bound (default 4096)
//   EVA_SERVE_IDLE_MS   per-connection idle read timeout
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "serve/net.hpp"
#include "serve/sidecar.hpp"
#include "train/signal.hpp"
#include "util/error.hpp"

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<int>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eva;

  train::install_signal_handlers();
  obs::start_periodic_flush();

  serve::SidecarConfig cfg;
  cfg.port = env_int("EVA_CACHE_PORT", 7190);
  cfg.max_entries = static_cast<std::size_t>(
      std::max(1, env_int("EVA_CACHE_ENTRIES", 4096)));
  cfg.idle_ms = serve::net::idle_ms_from_env(0.0);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") cfg.port = std::atoi(argv[i + 1]);
  }

  try {
    serve::CacheSidecar cache(cfg);
    const int port = cache.listen_and_start();
    // CI readiness probe scrapes this exact line.
    std::printf("eva_cache listening on port %d\n", port);
    std::fflush(stdout);
    cache.run();
  } catch (const Error& e) {
    std::fprintf(stderr, "eva_cache: %s\n", e.what());
    return 1;
  }
  obs::export_now();
  std::printf("eva_cache exiting\n");
  return 0;
}

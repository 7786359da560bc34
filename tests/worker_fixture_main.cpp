// Child binary for the multi-process worker tests. The gtest process
// runs attack threads, so it must never fork-and-continue; instead the
// tests fork+execve this dedicated fixture, which plays one of two
// roles against a shared store:
//
//   worker_fixture <store> <worker_id> [--spec S] [--ttl-ms N]
//       run_spec_worker over the tiny test spec (PCSS_CHAOS honoured,
//       so chaos tests inject SIGKILLs here, not in the test runner);
//
//   worker_fixture <store> <worker_id> --hold <lease-name>
//       acquire a lease and exit WITHOUT releasing it — the moment this
//       process dies its pid goes stale, which is exactly the crashed
//       holder the steal tests need.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pcss/runner/executor.h"
#include "pcss/runner/lease.h"
#include "pcss/runner/result_store.h"
#include "tiny_provider.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: worker_fixture <store_root> <worker_id> "
                 "[--spec mini|mini_shared|mini_grid] [--ttl-ms N] [--hold NAME]\n");
    return 2;
  }
  const std::string store_root = argv[1];
  const std::string worker_id = argv[2];
  std::string spec_name = "mini";
  long long ttl_ms = 60000;
  std::string hold;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_name = argv[++i];
    } else if (arg == "--ttl-ms" && i + 1 < argc) {
      ttl_ms = std::atoll(argv[++i]);
    } else if (arg == "--hold" && i + 1 < argc) {
      hold = argv[++i];
    } else {
      std::fprintf(stderr, "worker_fixture: bad argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  using namespace pcss::runner;
  try {
    if (!hold.empty()) {
      LeaseManager leases(store_root + "/leases", worker_id, ttl_ms * 1000000LL);
      return leases.try_acquire(hold) == LeaseManager::Acquire::kBusy ? 3 : 0;
    }

    pcss_tests::TinyProvider provider;
    ResultStore store(store_root);
    WorkerConfig config;
    config.run = pcss_tests::tiny_options();
    config.worker_id = worker_id;
    config.lease_ttl_ns = ttl_ms * 1000000LL;
    const WorkerOutcome out =
        run_spec_worker(pcss_tests::fixture_spec(spec_name), provider, store, config);
    std::printf("computed=%d stolen=%d passes=%d cancelled=%d doc_cached=%d\n",
                out.shards_computed, out.shards_stolen, out.passes, out.cancelled ? 1 : 0,
                out.doc_cached ? 1 : 0);
    return out.cancelled ? 130 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker_fixture: %s\n", e.what());
    return 1;
  }
}

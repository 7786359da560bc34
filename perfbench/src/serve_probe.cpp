// The serve layer: prepare warms a result store with all six registered
// specs at fast scale, and the serve probe drives an in-process
// pcss::serve::Server over a Unix socket with closed-loop client
// connections speaking the NDJSON protocol, every request a cache hit.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "pcss/obs/trace.h"
#include "pcss/runner/json.h"
#include "pcss/runner/result_store.h"
#include "pcss/runner/scale.h"
#include "pcss/serve/server.h"
#include "pcss/tensor/rng.h"
#include "workloads.h"

namespace perfbench {

using pcss::runner::Json;
using pcss::runner::ResultStore;

void prepare(RunContext& ctx) {
  const double t0 = now_s();
  auto provider = make_provider(ctx.paths);
  for (ModelId id : {ModelId::kPointNet2Indoor, ModelId::kResGCNIndoor, ModelId::kRandLAIndoor,
                     ModelId::kRandLAOutdoor}) {
    provider->model(id);
  }
  const double t1 = now_s();
  ResultStore store(ctx.paths.serve_store);
  pcss::runner::RunOptions options;
  options.scale = pcss::runner::scale_for(true);
  options.fast = true;
  for (const ExperimentSpec& spec : pcss::runner::spec_registry()) {
    pcss::runner::run_spec(spec, *provider, store, options);
  }
  std::fprintf(stderr, "perfbench: prepare took %.1f s (zoo %.1f s, serve store %.1f s)\n",
               now_s() - t0, t1 - t0, now_s() - t1);
}

namespace {

constexpr int kClients = 3;
constexpr int kRequestsPerClient = 100;  ///< per connection per round
constexpr int kRounds = 3;

/// One blocking protocol connection.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      ::close(fd_);
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string error = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect " + socket_path + ": " + error);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
      }
      fill();
    }
  }

  std::string read_bytes(std::size_t count) {
    while (buffer_.size() < count) fill();
    std::string out = buffer_.substr(0, count);
    buffer_.erase(0, count);
    return out;
  }

 private:
  void fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Outcome of one `run` request as the client saw it.
struct Answer {
  bool ok = false;
  bool hit = false;
  std::string error;
};

Answer request_run(Client& client, const std::string& spec, const std::string& id,
                   const std::string& expected) {
  Json request = Json::object();
  request.set("kind", "run");
  request.set("id", id);
  request.set("spec", spec);
  client.send(request.dump_compact() + "\n");
  for (;;) {
    const Json event = Json::parse(client.read_line());
    const std::string& kind = event.at("event").str();
    if (kind == "accepted" || kind == "progress") continue;
    if (kind == "error") return {false, false, "error event: " + event.dump_compact()};
    if (kind != "result") return {false, false, "unexpected event " + kind};
    const std::string payload =
        client.read_bytes(static_cast<std::size_t>(event.at("bytes").number()));
    if (payload != expected) return {false, false, "payload of " + spec + " != stored file"};
    return {true, event.at("cache_hit").boolean(), ""};
  }
}

/// A running in-process daemon plus everything it borrows.
class Daemon {
 public:
  Daemon(const RunContext& ctx, const std::string& socket_path)
      : socket_path_(socket_path),
        provider_(make_provider(ctx.paths)),
        store_(ctx.paths.serve_store) {
    pcss::serve::ServeConfig config;
    config.socket_path = socket_path;
    config.store_root = ctx.paths.serve_store;
    pcss::runner::RunOptions base;
    base.scale = pcss::runner::scale_for(true);
    base.fast = true;
    std::filesystem::remove(socket_path);
    server_ = std::make_unique<pcss::serve::Server>(
        config, [](const std::string& name) { return pcss::runner::find_spec(name); },
        *provider_, store_, base);
    thread_ = std::thread([this] { server_->run(); });
  }
  /// Asks the server to drain over a connection of its own and waits for
  /// its loop to end.
  ~Daemon() {
    try {
      // The connection stays open until the server acknowledges: a peer
      // that hangs up right after sending is dropped before its line runs.
      Client client(socket_path_);
      client.send("{\"kind\":\"shutdown\",\"id\":\"bench-stop\"}\n");
      while (Json::parse(client.read_line()).at("event").str() != "shutdown") {
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cannot ask the daemon to stop: %s\n", e.what());
    }
    thread_.join();
    std::filesystem::remove(socket_path_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  std::string socket_path_;
  std::unique_ptr<pcss::runner::ZooModelProvider> provider_;
  ResultStore store_;
  std::unique_ptr<pcss::serve::Server> server_;
  std::thread thread_;
};

/// The stored fast-scale document of every registered spec, by name.
std::map<std::string, std::string> stored_documents(RunContext& ctx) {
  std::map<std::string, std::string> out;
  auto provider_ptr = make_provider(ctx.paths);  // the daemon's own provider is not shared
  pcss::runner::ModelProvider& provider = *provider_ptr;
  ResultStore store(ctx.paths.serve_store);
  const Scale fast = pcss::runner::scale_for(true);
  for (const ExperimentSpec& spec : pcss::runner::spec_registry()) {
    auto bytes = store.get(pcss::runner::run_key(spec, fast, provider) + ".json");
    if (!bytes) throw std::runtime_error("serve store is not warm: no " + spec.name);
    StepUse use;
    check_document(spec, fast, provider, *bytes, true, ctx.reference, ctx.tally, use);
    out[spec.name] = std::move(*bytes);
  }
  return out;
}

/// What the clients of the probe's closed-loop rounds saw.
struct ServeLoad {
  std::vector<double> latency_ms;
  long long requests = 0;
  long long hits = 0;
};

/// One closed-loop round: every client sends kRequestsPerClient requests in
/// a seeded order, each after the previous answer arrived.
void round(RunContext& ctx, std::vector<std::unique_ptr<Client>>& clients,
           const std::map<std::string, std::string>& documents, int round_index,
           ServeLoad& load) {
  std::vector<std::string> names;
  for (const auto& [name, bytes] : documents) names.push_back(name);
  struct PerClient {
    std::vector<double> latency_ms;
    long long hits = 0;
    std::vector<std::string> errors;
  };
  std::vector<PerClient> per_client(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      PerClient& mine = per_client[c];
      pcss::tensor::Rng rng(ctx.seed * 1000003u + c * 7919u + static_cast<unsigned>(round_index));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string& spec = names[static_cast<std::size_t>(
            rng.randint(0, static_cast<std::int64_t>(names.size()) - 1))];
        char id[32];
        std::snprintf(id, sizeof(id), "c%zu-%d", c, i);
        const double start = now_s();
        Answer answer;
        try {
          answer = request_run(*clients[c], spec, id, documents.at(spec));
        } catch (const std::exception& e) {
          mine.errors.push_back(e.what());
          break;  // the connection is unusable; the rest of this round cannot run
        }
        if (!answer.ok) {
          mine.errors.push_back(answer.error);
          continue;
        }
        mine.latency_ms.push_back((now_s() - start) * 1e3);
        if (answer.hit) ++mine.hits;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const PerClient& c : per_client) {
    for (std::size_t i = 0; i < c.latency_ms.size(); ++i) ctx.tally.ok();
    for (const std::string& error : c.errors) ctx.tally.fail("serve request: " + error);
    load.requests += static_cast<long long>(c.latency_ms.size());
    load.hits += c.hits;
    load.latency_ms.insert(load.latency_ms.end(), c.latency_ms.begin(), c.latency_ms.end());
  }
}

}  // namespace

void serve_probe(RunContext& ctx, Report& report) {
  // The scratch directory is passed relative to the working directory:
  // sockaddr_un holds ~108 bytes, and an absolute checkout path may not fit.
  const std::string socket_path = ctx.paths.scratch + "/serve.sock";
  const auto documents = stored_documents(ctx);
  Daemon daemon(ctx, socket_path);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(socket_path));
    if (Json::parse(clients.back()->read_line()).at("event").str() != "hello") {
      throw std::runtime_error("no hello from the daemon");
    }
  }
  // Untimed warm-up round: the daemon's provider fingerprints the
  // checkpoints on its first request of each model.
  ServeLoad warm;
  round(ctx, clients, documents, -1, warm);

  ServeLoad load;
  pcss::obs::trace::clear();
  pcss::obs::trace::set_enabled(true);
  for (int r = 0; r < kRounds; ++r) round(ctx, clients, documents, r, load);
  pcss::obs::trace::set_enabled(false);
  std::vector<double> server_ms;
  for (const SpanEvent& e : drain_spans(ctx.trace_file("serve-probe"))) {
    if (e.name == "serve.request") server_ms.push_back(e.dur_us / 1e3);
  }
  clients.clear();  // before the daemon drains, which ends its loop

  const double server_p50 = median(server_ms);
  report.add("serve.request_ms_p50", server_p50, "ms");
  report.add("serve.queue_ms", median(load.latency_ms) - server_p50, "ms");
  report.add("serve.hit_frac",
             load.requests > 0 ? static_cast<double>(load.hits) / static_cast<double>(load.requests)
                               : 0.0,
             "ratio");
  report.add("serve.samples", static_cast<double>(load.latency_ms.size()), "count");
}

}  // namespace perfbench

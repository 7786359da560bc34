// pcss_lint — repo-specific determinism & concurrency checker.
//
// Everything this system promises (warm content-addressed cache hits
// across thread counts, shard sizes, resume points and ISAs) rests on
// invariants no general-purpose tool knows about: fixed-order
// reductions, no FMA, pooled tensor storage, per-cloud RNG streams,
// insertion-ordered JSON. This tool machine-checks the source-level
// side of those rules so a single stray unordered_map iteration or
// rand() call cannot silently corrupt the result cache.
//
//   pcss_lint [options] <file-or-directory>...
//
//   --list-rules    print the rule table (ID, scope, rationale) and exit
//   --errors-only   print only error lines (no notes about suppressed
//                   diagnostics, no summary)
//   --help, -h      print usage and exit 0
//
// Directories are walked recursively for .h/.hpp/.cpp/.cc/.inc files;
// paths containing "lint_corpus" are skipped during recursion (the
// checked-in violation corpus must not fail CI) but are linted when
// named explicitly, which is how tests/lint_test.cpp drives them.
//
// A diagnostic is suppressed by `// pcss-lint: allow(RULE)` (multiple
// IDs comma-separated) on the offending line or the line directly
// above it. Suppressions are deliberate escape hatches and stay
// visible: suppressed findings are printed as notes unless
// --errors-only is given.
//
// Exit status: 0 clean, 1 at least one unsuppressed diagnostic,
// 2 usage or I/O error.
//
// Matching runs on comment- and string-stripped source, so prose like
// "rebuilt from malloc" or a pattern string in this very file cannot
// trigger a rule; suppression comments and GUARDS annotations are read
// from the raw line. The checks are line-based heuristics, not a
// parser — they are tuned to this repo's idiom, and the corpus under
// tests/lint_corpus/ pins their exact behaviour per rule.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Rule {
  const char* id;
  const char* scope;
  const char* summary;
};

// The rule table, in report order. Scopes are path substrings relative
// to the repo root (the corpus mirrors them under tests/lint_corpus/).
const Rule kRules[] = {
    {"D001", "everywhere",
     "no iteration over std::unordered_map/unordered_set: iteration order is "
     "implementation-defined and would leak into result documents"},
    {"D002", "src/core src/tensor src/runner",
     "no rand()/srand()/std::random_device/std::chrono-derived values on "
     "document paths: all randomness flows from seeded per-cloud Rng streams"},
    {"D003", "everywhere except src/tensor/pool.{h,cpp}",
     "no raw new[]/malloc of float/double buffers: tensor storage must come "
     "from the pool (alignment + steady-state reuse contract)"},
    {"D004", "src/tensor",
     "no std::fma/FP_CONTRACT pragmas in kernel sources: contraction breaks "
     "scalar==AVX2 and fused==unfused bit-identity (-ffp-contract=off is "
     "asserted by CMake on every tensor TU)"},
    {"D005", "everywhere except src/tensor/simd_kernels.inc",
     "no std::reduce / std::accumulate over floats: float reductions must use "
     "the fixed 8-lane kernels so summation order is pinned"},
    {"D006", "src/runner/{json,hash,result_store}.{h,cpp}",
     "no pcss::obs symbols in document-serialization or cache-key TUs: "
     "telemetry must never reach stored bytes or cache keys"},
    {"D007", "src/core src/tensor src/runner",
     "no pcss::serve symbols or includes in engine layers: the server is a "
     "transport over the runner and the dependency arrow is one-way"},
    {"D008", "src/tensor/plan.{h,cpp}",
     "no pool::acquire/acquire_zeroed in compiled-plan TUs: capture pins every "
     "value buffer and the plan's slots serve interior gradients, so the plan "
     "layer adds no pool traffic to a replay"},
    {"C001", "everywhere",
     "no direct std::thread construction outside the WorkerPool: ad-hoc "
     "threads bypass pool reuse, error propagation and shutdown"},
    {"C002", "everywhere",
     "mutex members must carry a // GUARDS: comment (same or previous line) "
     "naming the state they protect"},
};

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs in `s` with non-identifier characters (or
/// the string boundary) on both sides. A token may itself contain "::".
bool has_token(const std::string& s, const std::string& token) {
  for (std::size_t pos = s.find(token); pos != std::string::npos;
       pos = s.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || (!ident_char(s[end]) && s[end] != ':');
    if (left_ok && right_ok) return true;
  }
  return false;
}

std::size_t find_token(const std::string& s, const std::string& token,
                       std::size_t from = 0) {
  for (std::size_t pos = s.find(token, from); pos != std::string::npos;
       pos = s.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

/// Strips comments and the *contents* of string/char literals while
/// preserving line structure, so rule patterns never match prose or
/// literals. Raw strings (R"delim(...)delim") are handled; the comment
/// text itself is only consulted via the raw lines (suppressions and
/// GUARDS annotations).
std::vector<std::string> scrub(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: ")delim" terminator
  for (const std::string& line : raw) {
    std::string code;
    code.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            i = line.size();  // rest of line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || !ident_char(line[i - 1]))) {
            const std::size_t open = line.find('(', i + 2);
            if (open != std::string::npos) {
              // Built char-wise into a fresh string: concatenation forms
              // trip gcc-12's -Wrestrict false positive under -Werror.
              std::string delim;
              delim.reserve(open - i);
              delim.push_back(')');
              for (std::size_t d = i + 2; d < open; ++d) delim.push_back(line[d]);
              delim.push_back('"');
              raw_delim = std::move(delim);
              state = State::kRawString;
              code += "\"\"";
              i = open;
            } else {
              code += c;  // malformed raw string; treat as code
            }
          } else if (c == '"') {
            state = State::kString;
            code += '"';
          } else if (c == '\'') {
            state = State::kChar;
            code += '\'';
          } else {
            code += c;
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            code += '"';
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
            code += '\'';
          }
          break;
        case State::kRawString: {
          const std::size_t close = line.find(raw_delim, i);
          if (close != std::string::npos) {
            state = State::kCode;
            i = close + raw_delim.size() - 1;
          } else {
            i = line.size();
          }
          break;
        }
      }
    }
    // Strings/chars do not span lines (except raw strings, handled above).
    if (state == State::kString || state == State::kChar) state = State::kCode;
    out.push_back(std::move(code));
  }
  return out;
}

/// True when `line` (raw) carries a suppression for `rule`:
/// `// pcss-lint: allow(D001)` or `allow(D001, C001)`.
bool allows(const std::string& line, const std::string& rule) {
  const std::size_t marker = line.find("pcss-lint:");
  if (marker == std::string::npos) return false;
  const std::size_t open = line.find("allow(", marker);
  if (open == std::string::npos) return false;
  const std::size_t close = line.find(')', open);
  if (close == std::string::npos) return false;
  std::string list = line.substr(open + 6, close - open - 6);
  std::string item;
  std::istringstream is(list);
  while (std::getline(is, item, ',')) {
    item.erase(std::remove_if(item.begin(), item.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               item.end());
    if (item == rule) return true;
  }
  return false;
}

/// Names of variables declared in this file as std::unordered_map or
/// std::unordered_set, found by skipping the balanced template argument
/// list after the container name.
std::vector<std::string> unordered_names(const std::vector<std::string>& code) {
  std::vector<std::string> names;
  for (const std::string& line : code) {
    for (const char* container : {"unordered_map", "unordered_set"}) {
      for (std::size_t pos = find_token(line, container); pos != std::string::npos;
           pos = find_token(line, container, pos + 1)) {
        std::size_t i = pos + std::string(container).size();
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        if (i >= line.size() || line[i] != '<') continue;
        int depth = 0;
        for (; i < line.size(); ++i) {
          if (line[i] == '<') ++depth;
          if (line[i] == '>' && --depth == 0) {
            ++i;
            break;
          }
        }
        if (depth != 0) continue;  // template args span lines: give up here
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        std::size_t start = i;
        while (i < line.size() && ident_char(line[i])) ++i;
        if (i > start) names.push_back(line.substr(start, i - start));
      }
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// D001: range-for over an unordered container, or explicit .begin()/
/// .cbegin() on one. find()/count()/operator[] stay legal (lookups do
/// not observe iteration order), and so does comparing an iterator to
/// .end() — iteration always needs a begin, so begin is what we flag.
void check_d001(const std::string& code, const std::vector<std::string>& names,
                std::vector<std::string>& hits) {
  for (const std::string& name : names) {
    for (std::size_t pos = find_token(code, name); pos != std::string::npos;
         pos = find_token(code, name, pos + 1)) {
      std::size_t before = pos;
      while (before > 0 && std::isspace(static_cast<unsigned char>(code[before - 1]))) {
        --before;
      }
      const bool range_for = before > 0 && code[before - 1] == ':' &&
                             (before < 2 || code[before - 2] != ':') &&
                             find_token(code, "for") != std::string::npos;
      const std::string after = code.substr(pos + name.size());
      const bool begin_call =
          after.rfind(".begin(", 0) == 0 || after.rfind(".cbegin(", 0) == 0;
      if (range_for || begin_call) {
        hits.push_back("iteration over unordered container '" + name +
                       "' (order is implementation-defined)");
        break;
      }
    }
  }
}

struct FileReport {
  std::vector<Diagnostic> diags;
  bool io_error = false;
};

std::string normalized(const fs::path& p) {
  std::string s = p.generic_string();
  return s;
}

bool in_scope_d002(const std::string& path) {
  return path.find("src/core/") != std::string::npos ||
         path.find("src/tensor/") != std::string::npos ||
         path.find("src/runner/") != std::string::npos;
}

/// D006 covers the TUs whose bytes define documents and cache keys:
/// src/runner/{json,hash,result_store}.cpp plus their headers under
/// include/pcss/runner/. Matching on "runner/<name>." catches both.
bool in_scope_d006(const std::string& path) {
  return path.find("runner/json.") != std::string::npos ||
         path.find("runner/hash.") != std::string::npos ||
         path.find("runner/result_store.") != std::string::npos;
}

FileReport lint_file(const fs::path& filepath) {
  FileReport report;
  const std::string path = normalized(filepath);
  std::ifstream in(filepath);
  if (!in) {
    report.io_error = true;
    return report;
  }
  std::vector<std::string> raw;
  for (std::string line; std::getline(in, line);) raw.push_back(std::move(line));
  const std::vector<std::string> code = scrub(raw);
  const std::vector<std::string> names = unordered_names(code);

  const std::string base = filepath.filename().generic_string();
  const bool pool_file = path.find("src/tensor/pool.") != std::string::npos ||
                         base == "pool.cpp" || base == "pool.h";
  const bool kernel_inc = base == "simd_kernels.inc";
  const bool d002_scope = in_scope_d002(path);
  const bool d004_scope = path.find("src/tensor/") != std::string::npos;
  const bool d006_scope = in_scope_d006(path);
  // D008 covers the compiled-plan TUs: src/tensor/plan.cpp and its header
  // under include/pcss/tensor/. Matching on "tensor/plan." catches both.
  const bool d008_scope = path.find("tensor/plan.") != std::string::npos;

  auto emit = [&](int line_no, const char* rule, std::string message) {
    Diagnostic d;
    d.file = path;
    d.line = line_no + 1;
    d.rule = rule;
    d.message = std::move(message);
    d.suppressed = allows(raw[static_cast<std::size_t>(line_no)], rule) ||
                   (line_no > 0 && allows(raw[static_cast<std::size_t>(line_no) - 1], rule));
    report.diags.push_back(std::move(d));
  };

  for (std::size_t n = 0; n < code.size(); ++n) {
    const std::string& line = code[n];
    const int ln = static_cast<int>(n);

    // D001 — nondeterministic iteration order.
    std::vector<std::string> d001_hits;
    check_d001(line, names, d001_hits);
    for (std::string& msg : d001_hits) emit(ln, "D001", std::move(msg));

    // D002 — nondeterministic value sources on document paths.
    if (d002_scope) {
      for (const char* tok : {"rand", "srand", "random_device", "rand_r"}) {
        if (has_token(line, tok)) {
          emit(ln, "D002", std::string("'") + tok +
                               "' on a document path (use the seeded per-cloud "
                               "Rng streams)");
          break;
        }
      }
      if (line.find("std::chrono") != std::string::npos) {
        emit(ln, "D002",
             "std::chrono on a document path (wall-clock belongs in the "
             ".perf.json sidecar, never in cached documents)");
      }
    }

    // D003 — raw float storage outside the pool.
    if (!pool_file) {
      std::string collapsed;
      collapsed.reserve(line.size());
      for (char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c))) collapsed += c;
      }
      if (collapsed.find("newfloat[") != std::string::npos ||
          collapsed.find("newdouble[") != std::string::npos) {
        emit(ln, "D003",
             "raw new[] of a float buffer (acquire it from pcss::tensor::pool "
             "so alignment and reuse contracts hold)");
      }
      for (const char* tok : {"malloc", "calloc", "realloc"}) {
        if (has_token(line, tok)) {
          emit(ln, "D003", std::string("'") + tok +
                               "' (tensor storage must come from "
                               "pcss::tensor::pool)");
          break;
        }
      }
    }

    // D004 — FP contraction in kernel sources.
    if (d004_scope) {
      if (has_token(line, "std::fma") || has_token(line, "fma") ||
          has_token(line, "fmaf")) {
        emit(ln, "D004",
             "explicit fma in a kernel source (breaks scalar==AVX2 and "
             "fused==unfused bit-identity)");
      }
      if (line.find("FP_CONTRACT") != std::string::npos ||
          line.find("fp_contract") != std::string::npos) {
        emit(ln, "D004",
             "FP_CONTRACT pragma in a kernel source (-ffp-contract=off is the "
             "build-wide contract)");
      }
    }

    // D005 — unordered float reductions outside the fixed-lane kernels.
    if (!kernel_inc) {
      if (has_token(line, "std::reduce")) {
        emit(ln, "D005",
             "std::reduce (unspecified operand order; use the fixed 8-lane "
             "reduction kernels)");
      }
      if (has_token(line, "std::accumulate") &&
          (line.find("float") != std::string::npos ||
           line.find("double") != std::string::npos ||
           line.find(".0f") != std::string::npos ||
           line.find("0.f") != std::string::npos ||
           line.find("0.0") != std::string::npos)) {
        emit(ln, "D005",
             "std::accumulate over floats (summation must go through the "
             "fixed 8-lane reduction kernels)");
      }
    }

    // D006 — telemetry in document-serialization / cache-key TUs. Any
    // obs:: symbol use counts (qualified pcss::obs:: included: the ':'
    // before "obs" is a non-identifier char, so it still matches); the
    // include check runs on the raw line because scrub() empties quoted
    // include paths.
    if (d006_scope) {
      bool obs_use = false;
      for (std::size_t pos = line.find("obs::"); pos != std::string::npos;
           pos = line.find("obs::", pos + 1)) {
        if (pos == 0 || !ident_char(line[pos - 1])) {
          obs_use = true;
          break;
        }
      }
      std::string lead = raw[n];
      lead.erase(0, lead.find_first_not_of(" \t"));
      const bool obs_include =
          lead.rfind("#include", 0) == 0 && lead.find("pcss/obs/") != std::string::npos;
      if (obs_use || obs_include) {
        emit(ln, "D006",
             "pcss::obs in a document-serialization/cache-key TU (telemetry "
             "must never reach stored bytes or cache keys)");
      }
    }

    // D007 — serving symbols in engine layers. The module order in
    // src/CMakeLists.txt makes serve the top layer over the runner; any
    // serve:: use (qualified pcss::serve:: included — the ':' before
    // "serve" is a non-identifier char, so it still matches) or
    // pcss/serve/ include inside src/{core,tensor,runner} would reverse
    // the arrow. Include check on the raw line: scrub() empties quoted
    // include paths. Shares the D002 scope — both fence the engine.
    if (d002_scope) {
      bool serve_use = false;
      for (std::size_t pos = line.find("serve::"); pos != std::string::npos;
           pos = line.find("serve::", pos + 1)) {
        if (pos == 0 || !ident_char(line[pos - 1])) {
          serve_use = true;
          break;
        }
      }
      std::string lead = raw[n];
      lead.erase(0, lead.find_first_not_of(" \t"));
      const bool serve_include =
          lead.rfind("#include", 0) == 0 && lead.find("pcss/serve/") != std::string::npos;
      if (serve_use || serve_include) {
        emit(ln, "D007",
             "pcss::serve in an engine layer (the server is a transport over "
             "the runner; the engine must never depend back on it)");
      }
    }

    // D008 — pool traffic in compiled-plan TUs. Capture pins every value
    // buffer and the plan's own slots serve interior gradients; an acquire
    // here would add pool traffic to every replay. has_token's right
    // boundary rejects '_', so both spellings are checked explicitly.
    if (d008_scope) {
      for (const char* tok : {"acquire", "acquire_zeroed"}) {
        if (has_token(line, tok)) {
          emit(ln, "D008",
               std::string("'") + tok +
                   "' in a compiled-plan TU (capture pins every buffer; "
                   "the plan layer must add no pool traffic to a replay)");
          break;
        }
      }
    }

    // C001 — ad-hoc threads.
    for (const char* tok : {"std::thread", "std::jthread"}) {
      std::size_t pos = line.find(tok);
      while (pos != std::string::npos) {
        const std::size_t end = pos + std::string(tok).size();
        const bool static_member =
            line.compare(end, 2, "::") == 0;  // std::thread::hardware_concurrency
        if (!static_member && (end >= line.size() || !ident_char(line[end]))) {
          emit(static_cast<int>(n), "C001",
               std::string(tok) +
                   " outside the WorkerPool (route parallel work through "
                   "pcss/core/worker_pool.h)");
          break;
        }
        pos = line.find(tok, pos + 1);
      }
    }

    // C002 — unannotated mutex members.
    for (const char* mtype :
         {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
          "std::timed_mutex", "std::shared_timed_mutex"}) {
      const std::size_t pos = line.find(mtype);
      if (pos == std::string::npos) continue;
      // Template argument (lock_guard<std::mutex>) or reference/pointer
      // parameter — not a declaration of lockable state.
      std::size_t before = pos;
      while (before > 0 && std::isspace(static_cast<unsigned char>(line[before - 1]))) {
        --before;
      }
      if (before > 0 && (line[before - 1] == '<' || line[before - 1] == ',')) continue;
      std::size_t i = pos + std::string(mtype).size();
      while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      if (i >= line.size() || !ident_char(line[i])) continue;  // &, *, >, (
      while (i < line.size() && ident_char(line[i])) ++i;
      while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      if (i < line.size() && (line[i] == ';' || line[i] == '{' || line[i] == '=')) {
        // The annotation may sit on the declaration line or anywhere in
        // the contiguous comment block directly above it.
        bool annotated = raw[n].find("GUARDS:") != std::string::npos;
        for (std::size_t k = n; !annotated && k > 0; --k) {
          std::string trimmed = raw[k - 1];
          trimmed.erase(0, trimmed.find_first_not_of(" \t"));
          if (trimmed.rfind("//", 0) != 0) break;
          annotated = trimmed.find("GUARDS:") != std::string::npos;
        }
        if (!annotated) {
          emit(static_cast<int>(n), "C002",
               std::string("mutex declared without a // GUARDS: annotation "
                           "naming the state it protects"));
        }
      }
      break;
    }
  }
  return report;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().generic_string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".inc";
}

/// Expands arguments into a deterministic (sorted, deduplicated) file
/// list. Recursion skips the violation corpus; explicit paths never do.
std::vector<fs::path> collect(const std::vector<std::string>& args, bool& io_error) {
  std::vector<fs::path> files;
  for (const std::string& arg : args) {
    fs::path p(arg);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end; ++it) {
        if (normalized(it->path()).find("lint_corpus") != std::string::npos) continue;
        if (it->is_regular_file(ec) && lintable(it->path())) files.push_back(it->path());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "pcss_lint: no such file or directory: %s\n", arg.c_str());
      io_error = true;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: pcss_lint [--list-rules] [--errors-only] [--help] "
               "<file-or-directory>...\n"
               "Determinism & concurrency checks for the pcss tree; see "
               "DESIGN.md \"Determinism invariants & enforcement\".\n");
}

void print_rules() {
  std::printf("%-6s %-42s %s\n", "rule", "scope", "summary");
  for (const Rule& r : kRules) {
    std::printf("%-6s %-42s %s\n", r.id, r.scope, r.summary);
  }
  std::printf(
      "\nSuppress a finding with `// pcss-lint: allow(RULE)` on the "
      "offending line or the line above it.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool errors_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--errors-only") {
      errors_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pcss_lint: unknown option %s\n", arg.c_str());
      print_usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    print_usage(stderr);
    return 2;
  }

  bool io_error = false;
  const std::vector<fs::path> files = collect(paths, io_error);
  int errors = 0;
  int suppressed = 0;
  for (const fs::path& f : files) {
    const FileReport report = lint_file(f);
    if (report.io_error) {
      std::fprintf(stderr, "pcss_lint: cannot read %s\n", normalized(f).c_str());
      io_error = true;
      continue;
    }
    for (const Diagnostic& d : report.diags) {
      if (d.suppressed) {
        ++suppressed;
        if (!errors_only) {
          std::printf("%s:%d: note: suppressed %s: %s\n", d.file.c_str(), d.line,
                      d.rule.c_str(), d.message.c_str());
        }
      } else {
        ++errors;
        std::printf("%s:%d: error: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                    d.message.c_str());
      }
    }
  }
  if (!errors_only) {
    std::printf("pcss_lint: %d error(s), %d suppressed, %zu file(s)\n", errors,
                suppressed, files.size());
  }
  if (io_error) return 2;
  return errors > 0 ? 1 : 0;
}

// qpinn benchmark driver.
//
//   qpinn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 runs the workload and prints its end-to-end metrics. --trace 1
// runs it untraced, again with spans, then the layer probes, and prints the
// per-layer metrics; the spans go to <out-dir>/spans-<workload>-<seed>.json.
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error or a QPINN_* variable in the environment.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "tensor/simd.hpp"

extern char** environ;

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "-1";  // only reachable on a failed run
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Like-for-like stamp: results compare in absolute terms only when every
/// field matches.
std::string host_fingerprint(const Workload& w, const std::string& git_sha,
                             const std::string& digest) {
  std::ostringstream os;
  os << "{\"cpu\":\"" << json_escape(cpu_model())
     << "\",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"isa\":\"" << qpinn::simd::isa_name(qpinn::simd::active_isa())
     << "\",\"compiler\":\"" << json_escape(compiler())
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"git_sha\":\""
     << json_escape(git_sha) << "\",\"source_digest\":\""
     << json_escape(digest) << "\",\"pool_threads\":" << w.pool_threads
     << "}";
  return os.str();
}

/// Every QPINN_* variable changes some execution setting (threads, graph
/// replay, plan passes, precision, SIMD table, pool, serving, dist timing
/// or fault injection), so any of them makes the run a different workload.
std::string workload_env() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "QPINN_", 6) == 0) return *e;
  }
  return "";
}

int usage(const std::string& why) {
  std::cerr << "qpinn_perfbench: " << why
            << "\nusage: qpinn_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>] [--source-digest <hex>]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << ' ' << m.unit
              << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_build/perfbench";
  std::string git_sha = "none";
  std::string digest = "none";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') return usage("bad value for " + flag);
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage("unknown workload '" + workload + "'");
  if (seed < 0) return usage("--seed must be a non-negative integer");
  if (!(seconds > 0.0 && seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (const std::string env = workload_env(); !env.empty()) {
    std::cerr << "qpinn_perfbench: refusing to run with " << env
              << " set; unset every QPINN_* variable\n";
    return 2;
  }

  const auto useed = static_cast<std::uint64_t>(seed);
  std::cout << "workload " << w->name << " seed " << seed << " seconds "
            << seconds << " trace " << trace << '\n'
            << "host " << host_fingerprint(*w, git_sha, digest) << '\n';

  RunResult result = run_workload(*w, useed, seconds, nullptr);
  std::vector<Metric> metrics = result.metrics;
  std::int64_t attempted = result.attempted;
  std::int64_t failed = result.failed;
  bool correct = result.correct;
  std::vector<std::string> failures = result.failures;
  std::cout << "end-to-end (untraced):\n";
  print_metrics(result.metrics);
  for (const std::string& note : result.notes) std::cout << "  # " << note << '\n';

  if (trace == 1) {
    Tracer tracer;
    const RunResult traced = run_workload(*w, useed, seconds, &tracer);
    std::cout << "end-to-end (traced):\n";
    print_metrics(traced.metrics);
    metrics = run_probes(*w, useed, tracer, result, traced);
    attempted += traced.attempted;
    failed += traced.failed;
    correct = correct && traced.correct;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    std::cout << "per-layer:\n";
    print_metrics(metrics);
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/spans-" + w->name + "-" +
                             std::to_string(seed) + ".json";
    tracer.write(path);
    std::cout << "  # spans written to " << path << '\n';
  }
  for (const std::string& f : failures) std::cout << "FAILED: " << f << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

//===- bench/bench_common.h - Shared benchmark driver support -------------===//
//
// Common scaffolding for the table-reproduction benchmarks: input-graph
// construction (synthetic rMAT stand-ins for the paper's datasets, see
// DESIGN.md Section 2), timing helpers, and table formatting.
//
// Every bench accepts:
//   -scale <logN>    log2 of the vertex count (default 16; -large adds 2)
//   -factor <f>      directed edges per vertex before symmetrization (8)
//   -rounds <r>      timing repetitions (median reported, default 3)
//   -seed <s>        generator seed (default 1)
//
//===----------------------------------------------------------------------===//

#ifndef ASPEN_BENCH_BENCH_COMMON_H
#define ASPEN_BENCH_BENCH_COMMON_H

#include "gen/generators.h"
#include "gen/graph_io.h"
#include "parallel/scheduler.h"
#include "util/command_line.h"
#include "util/timer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace aspen {

struct BenchConfig {
  int LogN = 16;
  uint64_t EdgeFactor = 8;
  int Rounds = 3;
  uint64_t Seed = 1;
  bool Large = false;
  std::string InputFile; ///< optional AdjacencyGraph file overriding rMAT
};

inline BenchConfig parseBenchConfig(int Argc, char **Argv,
                                    int DefaultLogN = 16) {
  CommandLine CL(Argc, Argv);
  BenchConfig C;
  C.Large = CL.has("large");
  C.LogN = int(CL.getInt("scale", DefaultLogN + (C.Large ? 2 : 0)));
  C.EdgeFactor = uint64_t(CL.getInt("factor", 8));
  C.Rounds = int(CL.getInt("rounds", 3));
  C.Seed = uint64_t(CL.getInt("seed", 1));
  C.InputFile = CL.getString("input");
  return C;
}

/// A named benchmark input (symmetrized, deduplicated directed edges).
struct BenchInput {
  std::string Name;
  VertexId N = 0;
  std::vector<EdgePair> Edges;

  double avgDegree() const {
    return N ? double(Edges.size()) / double(N) : 0.0;
  }
};

inline BenchInput makeInput(const BenchConfig &C) {
  BenchInput In;
  if (!C.InputFile.empty()) {
    EdgeList E;
    if (!readAdjacencyGraph(C.InputFile, E)) {
      std::fprintf(stderr, "error: cannot read %s\n", C.InputFile.c_str());
      std::exit(1);
    }
    In.Name = C.InputFile;
    In.N = E.NumVertices;
    In.Edges = dedupEdges(symmetrize(std::move(E.Edges)));
    return In;
  }
  In.Name = "rmat-" + std::to_string(C.LogN);
  In.N = VertexId(1) << C.LogN;
  In.Edges = rmatGraphEdges(C.LogN, C.EdgeFactor, C.Seed);
  return In;
}

/// Two standard inputs (the "small" and "larger" graphs of the tables).
inline std::vector<BenchInput> makeInputs(const BenchConfig &C) {
  std::vector<BenchInput> Out;
  if (!C.InputFile.empty()) {
    Out.push_back(makeInput(C));
    return Out;
  }
  BenchConfig Small = C;
  Out.push_back(makeInput(Small));
  BenchConfig Big = C;
  Big.LogN = C.LogN + 2;
  Big.Seed = C.Seed + 1;
  Out.push_back(makeInput(Big));
  return Out;
}

/// Median of Rounds timings of Fn (sequential mode honored by caller).
template <class F> double benchTime(int Rounds, F &&Fn) {
  return medianTime(Rounds, std::forward<F>(Fn));
}

/// Run Fn once in sequential mode and return the elapsed time.
template <class F> double benchTimeSequential(F &&Fn) {
  setSequentialMode(true);
  double T = timeIt(std::forward<F>(Fn));
  setSequentialMode(false);
  return T;
}

inline void printHeader(const char *Title) {
  std::printf("\n== %s ==\n", Title);
}

inline void printEnvironment() {
  std::printf("machine: %d workers\n", numWorkers());
}

/// The \p P-quantile (0 <= P <= 1) of \p Samples, sorted in place: the
/// element at rank round(P * (n - 1)), 0 when empty. P = 0.5 picks
/// element n / 2, the same median as medianTime().
inline double percentile(std::vector<double> &Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t I = size_t(P * double(Samples.size() - 1) + 0.5);
  return Samples[std::min(I, Samples.size() - 1)];
}

inline std::string fmtTime(double Seconds) {
  char Buf[64];
  if (Seconds < 1e-3)
    std::snprintf(Buf, sizeof(Buf), "%.3gus", Seconds * 1e6);
  else if (Seconds < 1.0)
    std::snprintf(Buf, sizeof(Buf), "%.3gms", Seconds * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.3gs", Seconds);
  return Buf;
}

inline std::string fmtBytes(double Bytes) {
  char Buf[64];
  if (Bytes >= 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.3f GB", Bytes / 1e9);
  else if (Bytes >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2f MB", Bytes / 1e6);
  else
    std::snprintf(Buf, sizeof(Buf), "%.1f KB", Bytes / 1e3);
  return Buf;
}

inline std::string fmtRate(double PerSec) {
  char Buf[64];
  if (PerSec >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.3gM/s", PerSec / 1e6);
  else if (PerSec >= 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.3gK/s", PerSec / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.3g/s", PerSec);
  return Buf;
}

//===----------------------------------------------------------------------===
// Metric trail (-json / -compare), shared by the table benchmarks: every
// reported metric is recorded under a stable "scope/op/metric" key; -json
// writes them as flat JSON (committed as BENCH_<name>.json and uploaded by
// CI), -compare loads a previous file and annotates printed rows with the
// before/after ratio.
//===----------------------------------------------------------------------===

inline std::vector<std::pair<std::string, double>> &benchMetrics() {
  static std::vector<std::pair<std::string, double>> M;
  return M;
}

inline std::map<std::string, double> &benchBaseline() {
  static std::map<std::string, double> B;
  return B;
}

inline void recordMetric(const std::string &Key, double Value) {
  benchMetrics().emplace_back(Key, Value);
}

/// "  [1.23x]" when -compare has a baseline for \p Key, else "".
inline std::string compareSuffix(const std::string &Key, double Value) {
  auto It = benchBaseline().find(Key);
  if (It == benchBaseline().end() || It->second <= 0.0)
    return "";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "  [%.2fx]", Value / It->second);
  return Buf;
}

inline bool loadBenchBaseline(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), F)) {
    char Key[256];
    double Value;
    if (std::sscanf(Line, " \"%255[^\"]\" : %lf", Key, &Value) == 2)
      benchBaseline()[Key] = Value;
  }
  std::fclose(F);
  return true;
}

/// Write every recorded metric to \p Path as flat JSON; \p StringMeta
/// entries (e.g. the decode tier) are emitted first as string values.
inline bool writeBenchJson(
    const std::string &Path,
    const std::vector<std::pair<std::string, std::string>> &StringMeta = {}) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\n");
  auto &M = benchMetrics();
  for (const auto &S : StringMeta)
    std::fprintf(F, "  \"%s\": \"%s\"%s\n", S.first.c_str(),
                 S.second.c_str(),
                 (!M.empty() || &S != &StringMeta.back()) ? "," : "");
  for (size_t I = 0; I < M.size(); ++I)
    std::fprintf(F, "  \"%s\": %.6g%s\n", M[I].first.c_str(), M[I].second,
                 I + 1 < M.size() ? "," : "");
  std::fprintf(F, "}\n");
  std::fclose(F);
  return true;
}

/// Standard tail of a metric-trail benchmark: record the worker count
/// every trail row was measured with (machine/workers), then honor -json
/// (-compare is loaded before printing, by the caller via
/// loadBenchBaseline).
inline void finishMetricTrail(
    const CommandLine &CL,
    const std::vector<std::pair<std::string, std::string>> &StringMeta = {}) {
  recordMetric("machine/workers", double(numWorkers()));
  std::string JsonPath = CL.getString("json");
  if (!JsonPath.empty()) {
    if (writeBenchJson(JsonPath, StringMeta))
      std::printf("\nmetrics written to %s\n", JsonPath.c_str());
    else
      std::fprintf(stderr, "warning: cannot write -json file %s\n",
                   JsonPath.c_str());
  }
}

} // namespace aspen

#endif // ASPEN_BENCH_BENCH_COMMON_H

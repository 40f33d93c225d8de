// The paper's performance and hardware evaluation as data: the grid each
// figure runs, the keyed values it reproduces, the table it prints (Figs
// 3-5, Section V-B) and the shape claims those values must meet (also
// Table III). The figure benches print, record and gate on these, and
// tests/test_experiments.cpp and tests/test_hw.cpp evaluate the same
// claims; nothing else restates a threshold or a paper number.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/runner.h"
#include "hw/tlb_datapath.h"

namespace roload::campaign {

enum class Figure { kFig3, kFig4, kFig5, kSecVB, kTableIII };

// "Fig. 3", "Fig. 4", "Fig. 5", "§V-B", "Table III".
std::string_view FigureSection(Figure figure);

// Keyed values in record order, named as in the figure's BENCH_*.json.
using FigureValues = std::vector<std::pair<std::string, double>>;

// The value recorded under `key`; NaN when none is.
double ValueOf(const FigureValues& values, std::string_view key);

// The grid a figure runs at workload scale `scale`. Fig. 5 shares Fig. 4's
// grid (the same binaries, read for peak memory instead of cycles); Table
// III is synthesized, not run, and has an empty grid.
CampaignSpec FigureGrid(Figure figure, double scale);

// Overheads, in percent, of every run of a clean grid (a FigureGrid, or
// any grid whose first config is the unhardened base) against the base
// run on the first system variant, in cycles ("_time_pct") and peak
// memory ("_mem_pct"): "<workload>.<column>_time_pct", ... Columns are the
// other configs, lowercased ("vcall", "icall", "cfi"), or, when the grid
// varies systems (§V-B), the other variants ("proc", "full"). Then come
// "average.<column>_{time,mem}_pct", or for a system grid
// "worst_{time,mem}_pct", the largest overhead magnitude, then
// "worst_instructions_pct", the same for retired instructions, and
// "exit_mismatches", how many runs exit differently from their base.
FigureValues FigureValuesOf(const CampaignResult& result);

// One overhead column of a clean grid: a hardened config against the base
// config, or, when the grid varies systems (§V-B), a modified system
// against the first. `name` is the config's label lowercased ("vcall") or
// the system's name ("proc", "full"), as in FigureValuesOf's keys.
struct FigureColumn {
  std::string name;
  std::string config;
  core::SystemVariant variant;
};
std::vector<FigureColumn> FigureColumns(const CampaignSpec& grid);

// How far a profiled `run` moved each cycle-attribution bucket against
// `base`, in signed percent of base cycles, keyed by bucket ("compute",
// "roload_load", "icache_miss", ...); empty when `base` ran no cycles.
FigureValues ProfileDeltas(const core::RunMetrics& base,
                           const core::RunMetrics& run);

// One value column of a figure table: its header, the FigureValuesOf
// column it prints ("vcall_time_pct" reads "<workload>.vcall_time_pct",
// "average.vcall_time_pct" and "paper.vcall_time_pct"), its printf width
// and precision, and, where the paper gives no number, the text its paper
// cell shows instead.
struct TableColumn {
  std::string_view header;
  std::string_view key;
  int width;
  int precision;
  std::string_view paper_text = {};
};

// A grid figure's table (Figs 3-5, §V-B): the title, whether the base
// column shows peak KiB instead of cycles, the width of its rules, the
// value columns (a change from time to memory columns starts a new "|"
// group), and whether it closes with "average" and "paper" rows; §V-B
// closes instead with its worst overheads, after its compatibility verdict
// when every §V-B claim holds.
struct FigureTableSpec {
  std::string_view title;
  bool base_kib;
  int rule;
  std::span<const TableColumn> columns;
  bool average_and_paper_rows;
};
const FigureTableSpec& TableSpecOf(Figure figure);

// `figure`'s table (not Table III's) over a clean run of its grid at
// workload scale `scale`: title, header, one row per workload, followed on
// a profiled cycles table by one "Δcycles%" line per hardened column, then
// the closing rows.
std::string FigureTable(Figure figure, const CampaignResult& result,
                        double scale);

// Table III's increases in percent ("core_lut_pct", "core_ff_pct",
// "system_lut_pct", "system_ff_pct", their maximum "worst_pct") and the
// timing of both variants ("without.fmax_mhz", "with.fmax_mhz",
// "with.slack_ns").
FigureValues TableIIIValues(const hw::TableIII& table);

// One shape claim of the paper: value(key) <relation> rhs, where rhs is
// `bound`, or `bound` x value(other) when `other` is set. kNearPaper
// instead wants |value(key) - paper| <= bound.
struct Claim {
  enum class Relation { kBelow, kAbove, kEqual, kNearPaper };

  std::string_view id;
  Figure figure;
  std::string_view key;
  Relation relation;
  double bound;
  std::string_view other = {};
  // The paper's published value of `key`; NaN when the paper states no
  // figure, or when another claim on the same key carries it.
  double paper = std::numeric_limits<double>::quiet_NaN();
};

// Every claim of `figure`, in table order.
std::vector<const Claim*> ClaimsOf(Figure figure);

// The claims of `figure` that `values` breaks, in table order. A claim
// whose key (or `other`) is not in `values` reads NaN and is broken.
std::vector<const Claim*> FailedClaims(Figure figure,
                                       const FigureValues& values);

// "<id> (<section>): wants <key> <relation> <rhs>, got <value>".
std::string DescribeClaim(const Claim& claim, const FigureValues& values);

// The paper's published values of `figure`, keyed "paper.<key>" with any
// "average." prefix dropped ("paper.vcall_time_pct"), recorded beside the
// measured values and printed as each table's paper row.
FigureValues PaperValues(Figure figure);

}  // namespace roload::campaign

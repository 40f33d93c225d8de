#include "campaign/figures.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "support/strings.h"

namespace roload::campaign {
namespace {

using R = Claim::Relation;
using core::Defense;

// Columns: id, figure, key, relation, bound, other (rhs = bound x other),
// the paper's value of key.
constexpr Claim kClaims[] = {
    // Fig. 3: VCall costs almost nothing, a fraction of VTint's runtime;
    // VTint's code growth outweighs VCall's keyed pages in memory.
    {"fig3.vcall_time_negligible", Figure::kFig3, "average.vcall_time_pct",
     R::kBelow, 0.5, {}, 0.303},
    {"fig3.vtint_time_real", Figure::kFig3, "average.vtint_time_pct",
     R::kAbove, 1.0, {}, 2.750},
    {"fig3.vcall_time_quarter_of_vtint", Figure::kFig3,
     "average.vcall_time_pct", R::kBelow, 0.25, "average.vtint_time_pct"},
    {"fig3.vcall_mem_small", Figure::kFig3, "average.vcall_mem_pct",
     R::kBelow, 1.0, {}, 0.0347},
    {"fig3.vtint_mem_small", Figure::kFig3, "average.vtint_mem_pct",
     R::kBelow, 1.0, {}, 0.0644},
    {"fig3.vcall_mem_below_vtint", Figure::kFig3, "average.vcall_mem_pct",
     R::kBelow, 1.0, "average.vtint_mem_pct"},
    // Fig. 4: ICall is almost free (the paper gives "~0", no figure),
    // classic CFI costs an order of magnitude more.
    {"fig4.icall_time_near_zero", Figure::kFig4, "average.icall_time_pct",
     R::kBelow, 2.0},
    {"fig4.cfi_time_real", Figure::kFig4, "average.cfi_time_pct", R::kAbove,
     3.0, {}, 9.073},
    {"fig4.icall_time_quarter_of_cfi", Figure::kFig4,
     "average.icall_time_pct", R::kBelow, 0.25, "average.cfi_time_pct"},
    // Fig. 5: both far below 1%, ICall above CFI (the GFPTs add keyed
    // pages; CFI only grows the code section).
    {"fig5.icall_mem_small", Figure::kFig5, "average.icall_mem_pct",
     R::kBelow, 1.0, {}, 0.0859},
    {"fig5.cfi_mem_small", Figure::kFig5, "average.cfi_mem_pct", R::kBelow,
     1.0, {}, 0.0500},
    {"fig5.icall_mem_above_cfi", Figure::kFig5, "average.icall_mem_pct",
     R::kAbove, 1.0, "average.cfi_mem_pct"},
    // §V-B: unhardened binaries run on the modified systems with no
    // runtime or memory cost at all, and compute the same results with
    // the same instructions.
    {"secVB.time_zero", Figure::kSecVB, "worst_time_pct", R::kEqual, 0.0},
    {"secVB.mem_zero", Figure::kSecVB, "worst_mem_pct", R::kEqual, 0.0},
    {"secVB.instructions_zero", Figure::kSecVB, "worst_instructions_pct",
     R::kEqual, 0.0},
    {"secVB.same_results", Figure::kSecVB, "exit_mismatches", R::kEqual,
     0.0},
    // Table III: every increase is real and below 3.32% (the paper's
    // largest, the core FFs, is 3.315%), FFs cost more than LUTs (key
    // storage), the system dilutes the core's share, and timing is
    // essentially unchanged.
    {"table3.increases_below_bound", Figure::kTableIII, "worst_pct",
     R::kBelow, 3.32},
    {"table3.cost_real", Figure::kTableIII, "worst_pct", R::kAbove, 0.5},
    {"table3.core_lut_positive", Figure::kTableIII, "core_lut_pct",
     R::kAbove, 0.0, {}, 1.44291},
    {"table3.core_ff_positive", Figure::kTableIII, "core_ff_pct", R::kAbove,
     0.0, {}, 3.31506},
    {"table3.ff_above_lut", Figure::kTableIII, "core_ff_pct", R::kAbove, 1.0,
     "core_lut_pct"},
    {"table3.system_lut_diluted", Figure::kTableIII, "system_lut_pct",
     R::kBelow, 1.0, "core_lut_pct", 0.90040},
    {"table3.system_ff_diluted", Figure::kTableIII, "system_ff_pct",
     R::kBelow, 1.0, "core_ff_pct", 1.45087},
    {"table3.baseline_fmax", Figure::kTableIII, "without.fmax_mhz",
     R::kNearPaper, 0.5, {}, 126.89},
    {"table3.fmax_kept", Figure::kTableIII, "with.fmax_mhz", R::kBelow, 1.0,
     "without.fmax_mhz", 126.57},
    {"table3.meets_target", Figure::kTableIII, "with.fmax_mhz", R::kAbove,
     125.0},
    {"table3.slack_positive", Figure::kTableIII, "with.slack_ns", R::kAbove,
     0.0, {}, 0.099},
};

// One figure, in Figure order: its paper section and the bench (and grid)
// that reproduces it.
struct FigureDef {
  std::string_view section;
  std::string_view grid;
};

constexpr FigureDef kFigures[] = {
    {"Fig. 3", "fig3_vcall"},
    {"Fig. 4", "fig4_icall_runtime"},
    {"Fig. 5", "fig4_icall_runtime"},  // the same grid as Fig. 4
    {"§V-B", "secVB_compat"},
    {"Table III", "table3_hw_cost"},
};

// The grid figures' tables, in Figure order (Table III prints its own).
constexpr TableColumn kFig3Columns[] = {
    {"VCall%", "vcall_time_pct", 8, 3},
    {"VTint%", "vtint_time_pct", 8, 3},
    {"VCall m%", "vcall_mem_pct", 9, 4},
    {"VTint m%", "vtint_mem_pct", 9, 4},
};
// The paper gives ICall's average runtime only as "almost zero".
constexpr TableColumn kFig4Columns[] = {
    {"ICall%", "icall_time_pct", 8, 3, "~0"},
    {"CFI%", "cfi_time_pct", 8, 3},
};
constexpr TableColumn kFig5Columns[] = {
    {"ICall m%", "icall_mem_pct", 9, 4},
    {"CFI m%", "cfi_mem_pct", 9, 4},
};
constexpr TableColumn kSecVBColumns[] = {
    {"proc t%", "proc_time_pct", 10, 4},
    {"proc+k t%", "full_time_pct", 10, 4},
    {"proc m%", "proc_mem_pct", 10, 4},
    {"proc+k m%", "full_mem_pct", 10, 4},
};

constexpr FigureTableSpec kTables[] = {
    {"Figure 3: VCall vs VTint on the C++ benchmarks", false, 100,
     kFig3Columns, true},
    {"Figure 4: ICall vs CFI runtime overheads", false, 64, kFig4Columns,
     true},
    {"Figure 5: ICall vs CFI memory overheads", true, 64, kFig5Columns, true},
    {"Section V-B: system compatibility and overhead", false, 92,
     kSecVBColumns, false},
};

std::string Number(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return text;
}

// The two sides a claim compares; a missing key reads NaN, which fails
// every relation.
std::pair<double, double> Sides(const Claim& claim,
                                const FigureValues& values) {
  const double value = ValueOf(values, claim.key);
  if (claim.relation == R::kNearPaper) {
    return {std::abs(value - claim.paper), claim.bound};
  }
  return {value, claim.other.empty()
                     ? claim.bound
                     : claim.bound * ValueOf(values, claim.other)};
}

bool Holds(const Claim& claim, const FigureValues& values) {
  const auto [lhs, rhs] = Sides(claim, values);
  switch (claim.relation) {
    case R::kBelow:
      return lhs < rhs;
    case R::kAbove:
      return lhs > rhs;
    case R::kEqual:
      return lhs == rhs;
    case R::kNearPaper:
      return lhs <= rhs;
  }
  return false;
}

}  // namespace

std::string_view FigureSection(Figure figure) {
  return kFigures[static_cast<std::size_t>(figure)].section;
}

double ValueOf(const FigureValues& values, std::string_view key) {
  for (const auto& [name, value] : values) {
    if (name == key) return value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

CampaignSpec FigureGrid(Figure figure, double scale) {
  CampaignSpec grid;
  grid.name = std::string(kFigures[static_cast<std::size_t>(figure)].grid);
  grid.configs = {ForDefense(Defense::kNone)};
  switch (figure) {
    case Figure::kFig3:
      grid.workloads = workloads::SpecCppSubset(scale);
      grid.configs.push_back(ForDefense(Defense::kVCall));
      grid.configs.push_back(ForDefense(Defense::kVTint));
      break;
    case Figure::kFig4:
    case Figure::kFig5:
      grid.workloads = workloads::SpecCint2006Suite(scale);
      grid.configs.push_back(ForDefense(Defense::kICall));
      grid.configs.push_back(ForDefense(Defense::kClassicCfi));
      break;
    case Figure::kSecVB:
      grid.workloads = workloads::SpecCint2006Suite(scale);
      grid.variants = {core::SystemVariant::kBaseline,
                       core::SystemVariant::kProcessorModified,
                       core::SystemVariant::kFullRoload};
      break;
    case Figure::kTableIII:
      grid.configs.clear();
      break;
  }
  return grid;
}

std::vector<FigureColumn> FigureColumns(const CampaignSpec& grid) {
  const bool by_variant = grid.variants.size() > 1;
  std::vector<FigureColumn> columns;
  for (std::size_t i = 1; i < grid.variants.size(); ++i) {
    columns.push_back({std::string(VariantName(grid.variants[i])),
                       grid.configs.front().label, grid.variants[i]});
  }
  for (std::size_t i = 1; !by_variant && i < grid.configs.size(); ++i) {
    std::string name = grid.configs[i].label;
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    columns.push_back({name, grid.configs[i].label, grid.variants.front()});
  }
  return columns;
}

FigureValues FigureValuesOf(const CampaignResult& result) {
  const CampaignSpec& grid = result.spec();
  const std::string& base_config = grid.configs.front().label;
  // Each column is measured in cycles and in peak memory.
  const bool by_variant = grid.variants.size() > 1;
  const std::vector<FigureColumn> columns = FigureColumns(grid);
  std::vector<std::array<double, 2>> sums(columns.size());
  constexpr std::string_view kMetrics[] = {"_time_pct", "_mem_pct"};
  FigureValues values;
  double worst[2] = {0, 0};
  double worst_instructions = 0;
  double exit_mismatches = 0;
  for (const workloads::WorkloadSpec& workload : grid.workloads) {
    const core::RunMetrics& base =
        result.MetricsOf(workload.name, base_config, grid.variants.front());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const core::RunMetrics& run = result.MetricsOf(
          workload.name, columns[c].config, columns[c].variant);
      const double pct[2] = {
          core::OverheadPercent(static_cast<double>(base.cycles),
                                static_cast<double>(run.cycles)),
          core::OverheadPercent(static_cast<double>(base.peak_mem_kib),
                                static_cast<double>(run.peak_mem_kib))};
      for (int m = 0; m < 2; ++m) {
        values.emplace_back(
            workload.name + "." + columns[c].name + std::string(kMetrics[m]),
            pct[m]);
        sums[c][m] += pct[m];
        worst[m] = std::max(worst[m], std::abs(pct[m]));
      }
      worst_instructions = std::max(
          worst_instructions,
          std::abs(core::OverheadPercent(
              static_cast<double>(base.instructions),
              static_cast<double>(run.instructions))));
      exit_mismatches += run.exit_code != base.exit_code ? 1 : 0;
    }
  }
  for (int m = 0; m < 2; ++m) {
    if (by_variant) {
      values.emplace_back("worst" + std::string(kMetrics[m]), worst[m]);
      continue;
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      values.emplace_back(
          "average." + columns[c].name + std::string(kMetrics[m]),
          sums[c][m] / static_cast<double>(grid.workloads.size()));
    }
  }
  if (by_variant) {
    values.emplace_back("worst_instructions_pct", worst_instructions);
    values.emplace_back("exit_mismatches", exit_mismatches);
  }
  return values;
}

FigureValues ProfileDeltas(const core::RunMetrics& base,
                           const core::RunMetrics& run) {
  static constexpr std::string_view kBuckets[] = {
      "compute", "roload_load", "icache_miss", "dcache_miss",
      "itlb_walk", "dtlb_walk", "trap", "syscall"};
  // Buckets are recorded in full whenever a run is profiled.
  auto cycles_in = [](const core::RunMetrics& metrics,
                      std::string_view bucket) {
    for (const auto& [name, cycles] : metrics.profile) {
      if (name == bucket) return static_cast<double>(cycles);
    }
    return 0.0;
  };
  FigureValues deltas;
  const double base_cycles = static_cast<double>(base.cycles);
  if (base_cycles == 0) return deltas;
  for (std::string_view bucket : kBuckets) {
    deltas.emplace_back(
        std::string(bucket),
        (cycles_in(run, bucket) - cycles_in(base, bucket)) / base_cycles *
            100.0);
  }
  return deltas;
}

const FigureTableSpec& TableSpecOf(Figure figure) {
  ROLOAD_CHECK(figure != Figure::kTableIII);
  return kTables[static_cast<std::size_t>(figure)];
}

std::string FigureTable(Figure figure, const CampaignResult& result,
                        double scale) {
  const FigureTableSpec& table = TableSpecOf(figure);
  const CampaignSpec& grid = result.spec();
  const FigureValues values = FigureValuesOf(result);
  const bool deltas = grid.profile && !table.base_kib;
  std::string out = StrFormat("%s (scale=%.2f%s)\n\n",
                              std::string(table.title).c_str(), scale,
                              deltas ? ", profiled" : "");
  // One line: the row name, the base column, then one cell per value
  // column; "|" opens the values and each change of metric.
  auto row = [&](const std::string& name, const std::string& base,
                 auto cell) {
    out += StrFormat("%-24s | %12s", name.c_str(), base.c_str());
    const TableColumn* previous = nullptr;
    for (const TableColumn& column : table.columns) {
      const bool memory = column.key.ends_with("_mem_pct");
      out += previous == nullptr ||
                     memory != previous->key.ends_with("_mem_pct")
                 ? " | "
                 : " ";
      out += cell(column);
      previous = &column;
    }
    out += '\n';
  };
  auto text = [](const TableColumn& column, std::string_view cell) {
    return StrFormat("%*s", column.width, std::string(cell).c_str());
  };
  // The value of `<prefix><column key>`.
  auto number = [&](const FigureValues& source, const std::string& prefix) {
    return [&source, prefix](const TableColumn& column) {
      return StrFormat("%*.*f", column.width, column.precision,
                       ValueOf(source, prefix + std::string(column.key)));
    };
  };
  const std::string rule = std::string(table.rule, '-') + "\n";

  row("benchmark", table.base_kib ? "base KiB" : "base cycles",
      [&](const TableColumn& column) { return text(column, column.header); });
  out += rule;
  const std::vector<FigureColumn> columns = FigureColumns(grid);
  for (const workloads::WorkloadSpec& workload : grid.workloads) {
    const core::RunMetrics& base = result.MetricsOf(
        workload.name, grid.configs.front().label, grid.variants.front());
    row(workload.name,
        std::to_string(table.base_kib ? base.peak_mem_kib : base.cycles),
        number(values, workload.name + "."));
    for (std::size_t c = 0; deltas && c < columns.size(); ++c) {
      const FigureValues moved = ProfileDeltas(
          base, result.MetricsOf(workload.name, columns[c].config,
                                 columns[c].variant));
      if (moved.empty()) continue;
      out += StrFormat(
          "    %-22s",
          (workload.name + "." + columns[c].name + " Δcycles%:").c_str());
      for (const auto& [bucket, pct] : moved) {
        if (pct != 0.0) out += StrFormat(" %s %+0.3f", bucket.c_str(), pct);
      }
      out += '\n';
    }
  }
  out += rule;
  if (!table.average_and_paper_rows) {
    if (FailedClaims(figure, values).empty()) {
      out += "All benchmarks finished successfully on all three systems "
             "(backward compatible).\n";
    }
    return out + StrFormat("Worst runtime overhead: %.4f%%, worst memory "
                           "overhead: %.4f%% (paper: ~0%% for both).\n",
                           ValueOf(values, "worst_time_pct"),
                           ValueOf(values, "worst_mem_pct"));
  }
  row("average", "", number(values, "average."));
  const FigureValues paper = PaperValues(figure);
  const auto paper_number = number(paper, "paper.");
  row("paper (DAC'21)", "", [&](const TableColumn& column) {
    return column.paper_text.empty() ? paper_number(column)
                                     : text(column, column.paper_text);
  });
  return out;
}

FigureValues TableIIIValues(const hw::TableIII& table) {
  return {
      {"core_lut_pct", table.core_lut_increase_percent},
      {"core_ff_pct", table.core_ff_increase_percent},
      {"system_lut_pct", table.system_lut_increase_percent},
      {"system_ff_pct", table.system_ff_increase_percent},
      {"worst_pct", std::max({table.core_lut_increase_percent,
                              table.core_ff_increase_percent,
                              table.system_lut_increase_percent,
                              table.system_ff_increase_percent})},
      {"without.fmax_mhz", table.without_ldro.fmax_mhz},
      {"with.fmax_mhz", table.with_ldro.fmax_mhz},
      {"with.slack_ns", table.with_ldro.worst_slack_ns},
  };
}

std::vector<const Claim*> ClaimsOf(Figure figure) {
  std::vector<const Claim*> claims;
  for (const Claim& claim : kClaims) {
    if (claim.figure == figure) claims.push_back(&claim);
  }
  return claims;
}

std::vector<const Claim*> FailedClaims(Figure figure,
                                       const FigureValues& values) {
  std::vector<const Claim*> failed = ClaimsOf(figure);
  std::erase_if(failed,
                [&](const Claim* claim) { return Holds(*claim, values); });
  return failed;
}

std::string DescribeClaim(const Claim& claim, const FigureValues& values) {
  constexpr std::string_view kOps[] = {" < ", " > ", " == ", " <= "};
  const auto [lhs, rhs] = Sides(claim, values);
  std::string wants(claim.key);
  if (claim.relation == R::kNearPaper) {
    wants = "|" + wants + " - " + Number(claim.paper) + "|";
  }
  wants += kOps[static_cast<std::size_t>(claim.relation)];
  if (!claim.other.empty()) {
    wants += Number(claim.bound) + " x " + std::string(claim.other) + " = ";
  }
  return std::string(claim.id) + " (" +
         std::string(FigureSection(claim.figure)) + "): wants " + wants +
         Number(rhs) + ", got " + Number(lhs);
}

FigureValues PaperValues(Figure figure) {
  FigureValues values;
  for (const Claim* claim : ClaimsOf(figure)) {
    if (std::isnan(claim->paper)) continue;
    std::string_view key = claim->key;
    if (key.starts_with("average.")) key.remove_prefix(8);
    values.emplace_back("paper." + std::string(key), claim->paper);
  }
  return values;
}

}  // namespace roload::campaign

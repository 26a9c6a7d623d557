// samya_figures — regenerates the paper's tables and figures (§5) and the
// BoundedCounter / disconnected-mode comparisons (DESIGN.md §12), and
// checks each against its claim.
//
// Usage:
//   samya_figures <id>...   print the named figures
//   samya_figures all       print every figure
//
// Each figure prints its rows, then one line
//   verdict <id> PASS|FAIL|NOT-REPRODUCED <measured>
// (the design ablations and the message analysis claim nothing and print
// no verdict). Experiments shared by several figures run once, across all
// cores (SAMYA_BENCH_THREADS overrides the thread count).
//
// Exit status: 0 when no verdict is FAIL, 1 when one is, 2 on an unknown id.

#include <cstdio>
#include <string_view>
#include <vector>

#include "figures.h"

using samya::figures::AllFigures;
using samya::figures::Figure;

namespace {

void Usage() {
  std::fprintf(stderr, "usage: samya_figures <id>...|all\nknown ids:");
  for (const Figure& figure : AllFigures()) {
    std::fprintf(stderr, " %s", figure.id);
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> figures;
  for (int i = 1; i < argc; ++i) {
    const std::string_view id = argv[i];
    if (id == "all") {
      for (const Figure& figure : AllFigures()) figures.push_back(&figure);
    } else if (const Figure* figure = samya::figures::FindFigure(id)) {
      figures.push_back(figure);
    } else {
      std::fprintf(stderr, "samya_figures: unknown figure id '%s'\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (figures.empty()) {
    Usage();
    return 2;
  }
  return samya::figures::RunFigures(figures) ? 0 : 1;
}

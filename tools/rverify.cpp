// rverify — static pointee-integrity verifier for linked images.
//
//   rverify image.rimg|program.s [--policy none|vcall|vtint|icall|cfi]
//           [--jobs N] [--json FILE] [--gadgets FILE] [--quiet]
//
// Runs the binary layer of src/verify over the image: section/key
// consistency, writable-alias detection, the whole-image interprocedural
// dispatch proof (call summaries, rules 20-28 and 30-35). `--policy
// icall` additionally requires every indirect call target to be proven
// an ld.ro result on all paths (the full ICall guarantee); the other
// policy names are accepted for symmetry and run the universal rules
// only. `--jobs N` fans the per-function checking phase out over N
// worker threads (0 = one per hardware thread); any job count produces
// bit-identical diagnostics. `--gadgets FILE` additionally scans the
// image for ROP/JOP gadgets and writes the roload.gadgets.v1 census.
//
// Exit code: 0 when the image verifies, otherwise the smallest violated
// rule id (a stable contract the negative-path tests assert on);
// 1 for I/O or assembly errors, 2 for usage errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "asmtool/assembler.h"
#include "asmtool/image_io.h"
#include "support/strings.h"
#include "verify/binary.h"
#include "verify/gadgets.h"
#include "verify/verify.h"

using namespace roload;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rverify image.rimg|program.s "
               "[--policy none|vcall|vtint|icall|cfi] [--jobs N] "
               "[--json FILE] [--gadgets FILE] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string policy_name = "none";
  std::string json_path;
  std::string gadgets_path;
  std::string jobs_text;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (FlagValue(argc, argv, &i, "--policy", &policy_name) ||
        FlagValue(argc, argv, &i, "--json", &json_path) ||
        FlagValue(argc, argv, &i, "--gadgets", &gadgets_path) ||
        FlagValue(argc, argv, &i, "--jobs", &jobs_text)) {
      continue;
    }
    if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return Usage();
    }
  }
  if (input.empty()) return Usage();
  if (policy_name != "none" && policy_name != "vcall" &&
      policy_name != "vtint" && policy_name != "icall" &&
      policy_name != "cfi") {
    return Usage();
  }
  unsigned jobs = 1;
  if (!jobs_text.empty()) {
    const auto parsed = ParseInt(jobs_text);
    if (!parsed || *parsed < 0) {
      std::fprintf(stderr, "rverify: bad --jobs value: %s\n",
                   jobs_text.c_str());
      return 2;
    }
    jobs = static_cast<unsigned>(*parsed);
  }

  asmtool::LinkImage image;
  if (EndsWith(input, ".s") || EndsWith(input, ".asm")) {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "rverify: cannot open %s\n", input.c_str());
      return 1;
    }
    const std::string source((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    auto assembled = asmtool::Assemble(source);
    if (!assembled.ok()) {
      std::fprintf(stderr, "rverify: %s\n",
                   assembled.status().ToString().c_str());
      return 1;
    }
    image = *std::move(assembled);
  } else {
    auto loaded = asmtool::LoadImage(input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "rverify: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    image = *std::move(loaded);
  }

  verify::BinaryPolicy policy;
  policy.name = policy_name;
  policy.require_protected_dispatch = policy_name == "icall";

  verify::Report report;
  verify::VerifyImageOptions options;
  options.jobs = jobs;
  verify::VerifyImage(image, policy, /*expectations=*/nullptr, &report,
                      options);

  if (!gadgets_path.empty()) {
    const verify::GadgetCensus census = verify::ScanGadgets(image);
    std::ofstream out(gadgets_path);
    if (!out) {
      std::fprintf(stderr, "rverify: cannot write %s\n",
                   gadgets_path.c_str());
      return 1;
    }
    out << census.ToJson(input) << "\n";
    if (!quiet) {
      std::printf(
          "rverify: %llu gadgets (%llu ret, %llu jalr, %llu compressed, "
          "%llu misaligned) -> %s\n",
          static_cast<unsigned long long>(census.stats.gadgets),
          static_cast<unsigned long long>(census.stats.ret_terminated),
          static_cast<unsigned long long>(census.stats.jalr_terminated),
          static_cast<unsigned long long>(census.stats.compressed),
          static_cast<unsigned long long>(census.stats.misaligned),
          gadgets_path.c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "rverify: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << report.ToJson("rverify", input, policy.name);
  }
  if (!quiet) {
    std::fputs(report.ToText().c_str(), report.ok() ? stdout : stderr);
    if (report.ok()) {
      std::printf("rverify: %s OK (policy %s)\n", input.c_str(),
                  policy.name.c_str());
    }
  }
  return report.ExitCode();
}

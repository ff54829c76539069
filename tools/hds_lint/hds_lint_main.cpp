//===- tools/hds_lint/hds_lint_main.cpp - hds_lint CLI --------------------===//
//
// Part of the hds project (PLDI 2002 hot data stream prefetching repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the project lint pass:
///
///   hds_lint [--list-rules] <file-or-dir>...
///
///   --list-rules             print the rule catalogue and exit
///
/// Every run executes every rule and reports suppression notes that no
/// longer suppress anything (STALE).
///
/// Directories are scanned recursively for C++ sources; `lint_fixtures`
/// directories (seeded rule violations used by tests/lint_test.cpp) and
/// build trees are skipped unless a file inside them is named explicitly.
/// Exit code is 1 when any unsuppressed finding is reported, 2 on usage
/// or I/O errors.
///
//===----------------------------------------------------------------------===//

#include "lint/Rules.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace hds::lint;

namespace {

bool hasSourceExtension(const fs::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".h" || Ext == ".hpp" || Ext == ".cpp" || Ext == ".cc" ||
         Ext == ".cxx";
}

bool isSkippedDir(const fs::path &P) {
  std::string Name = P.filename().string();
  return Name == "lint_fixtures" || Name == "build" || Name == ".git" ||
         Name == "CMakeFiles";
}

void gather(const fs::path &Root, std::vector<fs::path> &Out) {
  if (fs::is_regular_file(Root)) {
    Out.push_back(Root);
    return;
  }
  if (!fs::is_directory(Root))
    return;
  std::vector<fs::path> Entries;
  for (const fs::directory_entry &E : fs::directory_iterator(Root))
    Entries.push_back(E.path());
  // Deterministic scan order regardless of directory enumeration order.
  std::sort(Entries.begin(), Entries.end());
  for (const fs::path &P : Entries) {
    if (fs::is_directory(P)) {
      if (!isSkippedDir(P))
        gather(P, Out);
    } else if (hasSourceExtension(P)) {
      Out.push_back(P);
    }
  }
}

bool readFile(const fs::path &P, std::string &Out) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

void usage(std::FILE *To) {
  std::fprintf(To, "usage: hds_lint [--list-rules] <file-or-dir>...\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<fs::path> Roots;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list-rules") {
      for (const RuleInfo &R : ruleCatalog())
        std::printf("%-5s %-16s %s\n", R.Id, R.Tag ? R.Tag : "-", R.Summary);
      return 0;
    }
    if (Arg == "--rule") {
      std::fprintf(stderr, "hds_lint: --rule was removed: every run "
                           "executes every rule\n");
      return 2;
    }
    if (Arg == "--stale-suppressions") {
      std::fprintf(stderr,
                   "hds_lint: --stale-suppressions was removed: stale "
                   "suppression notes are now always reported\n");
      return 2;
    }
    if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::fprintf(stderr, "hds_lint: unknown option %s\n", Arg.c_str());
      usage(stderr);
      return 2;
    }
    Roots.emplace_back(Arg);
  }
  if (Roots.empty()) {
    usage(stderr);
    return 2;
  }

  std::vector<fs::path> Paths;
  for (const fs::path &Root : Roots) {
    if (!fs::exists(Root)) {
      std::fprintf(stderr, "hds_lint: no such file or directory: %s\n",
                   Root.string().c_str());
      return 2;
    }
    gather(Root, Paths);
  }

  std::vector<LexedFile> Files;
  Files.reserve(Paths.size());
  for (const fs::path &P : Paths) {
    std::string Source;
    if (!readFile(P, Source)) {
      std::fprintf(stderr, "hds_lint: cannot read %s\n",
                   P.string().c_str());
      return 2;
    }
    Files.push_back(lexSource(P.generic_string(), Source));
  }

  std::vector<Finding> Findings = runLint(Files);
  for (const Finding &F : Findings)
    std::printf("%s\n", formatFinding(F).c_str());
  if (!Findings.empty()) {
    std::printf("hds_lint: %zu finding(s) in %zu file(s) scanned\n",
                Findings.size(), Files.size());
    return 1;
  }
  return 0;
}

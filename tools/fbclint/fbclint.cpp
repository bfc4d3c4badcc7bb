// fbclint: project-specific static analysis for the fbcache codebase.
//
//   fbclint src tools tests        lint the given files/directories
//   fbclint --self-test            run every rule against the seeded
//                                  fixture trees and verify 100% catch
//
// Exit code 0 = clean (or self-test fully green), 1 = violations found
// (or seeded violations missed), 2 = usage/IO error.
//
// Output formats: the default is `path:line: [rule] message`;
// `--format=github` emits GitHub Actions `::error` workflow commands so
// findings annotate the PR diff; `--json` emits a machine-readable array.
//
// Rules (docs/STATIC-ANALYSIS.md): L001 view-lifetime, L002 hook
// completeness, L003 registry completeness, L004 metrics completeness,
// L005 determinism, L006 header hygiene, L007 lock discipline, L008
// wire/doc coherence. Suppress a finding with a `// fbclint:ignore(LNNN)`
// comment (alias: `fbclint:allow`) on the offending line or the line
// above it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "fbclint/lexer.hpp"
#include "fbclint/model.hpp"
#include "fbclint/rules.hpp"

#ifndef FBCLINT_FIXTURE_DIR
#define FBCLINT_FIXTURE_DIR "tools/fbclint/fixtures"
#endif

namespace fs = std::filesystem;
using namespace fbclint;

namespace {

bool is_source_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// Collects *.{cpp,hpp,cc,h} under each root. In repo mode, fixture trees
/// (which contain deliberate violations) and build directories are
/// skipped.
std::vector<std::string> collect_files(const std::vector<std::string>& roots,
                                       bool skip_fixtures) {
  std::vector<std::string> out;
  for (const std::string& root : roots) {
    const fs::path p(root);
    if (fs::is_regular_file(p)) {
      if (is_source_file(p)) out.push_back(p.generic_string());
      continue;
    }
    if (!fs::is_directory(p)) {
      throw std::runtime_error("fbclint: no such file or directory: " + root);
    }
    for (auto it = fs::recursive_directory_iterator(p);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string generic = it->path().generic_string();
      if (it->is_directory()) {
        const std::string name = it->path().filename().string();
        if ((skip_fixtures && name == "fixtures") ||
            name.starts_with("build") || name == ".git") {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (it->is_regular_file() && is_source_file(it->path()))
        out.push_back(generic);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

ProjectModel lint_paths(const std::vector<std::string>& roots,
                        bool skip_fixtures) {
  std::vector<SourceFile> files;
  for (const std::string& path : collect_files(roots, skip_fixtures))
    files.push_back(lex_file(path, read_file(path)));
  return build_model(std::move(files));
}

enum class Format { Plain, Github, Json };

/// JSON / workflow-command string escaping. GitHub workflow commands
/// additionally percent-encode their own metacharacters so a message
/// containing '%' or a newline cannot smuggle in a second command.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string github_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      default: out += c;
    }
  }
  return out;
}

void print_diags(const std::vector<Diagnostic>& diags, Format format) {
  if (format == Format::Json) {
    std::cout << "[";
    for (std::size_t i = 0; i < diags.size(); ++i) {
      const Diagnostic& d = diags[i];
      std::cout << (i == 0 ? "" : ",") << "\n  {\"rule\": \"" << d.rule
                << "\", \"path\": \"" << json_escape(d.path)
                << "\", \"line\": " << d.line << ", \"message\": \""
                << json_escape(d.message) << "\"}";
    }
    std::cout << (diags.empty() ? "]\n" : "\n]\n");
    return;
  }
  for (const Diagnostic& d : diags) {
    if (format == Format::Github) {
      std::cout << "::error file=" << d.path << ",line=" << d.line
                << ",title=fbclint " << d.rule
                << "::" << github_escape(d.message) << "\n";
    } else {
      std::cout << d.path << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
  }
}

/// Matches diagnostics against `fbclint:expect(...)` markers (same file,
/// same rule, within one line). Returns true when every seeded violation
/// was caught and no unexpected diagnostic fired.
bool check_case(const std::string& name, const std::vector<Diagnostic>& diags,
                const Markers& markers) {
  std::vector<bool> diag_used(diags.size(), false);
  std::size_t missed = 0;
  for (const Diagnostic& expected : markers.expects) {
    bool found = false;
    for (std::size_t i = 0; i < diags.size(); ++i) {
      if (diag_used[i]) continue;
      if (diags[i].rule == expected.rule && diags[i].path == expected.path &&
          std::abs(diags[i].line - expected.line) <= 1) {
        diag_used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      ++missed;
      std::cout << "  MISSED  " << expected.path << ":" << expected.line
                << " expected " << expected.rule << "\n";
    }
  }
  std::size_t unexpected = 0;
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (diag_used[i]) continue;
    ++unexpected;
    std::cout << "  SPURIOUS " << diags[i].path << ":" << diags[i].line
              << " [" << diags[i].rule << "] " << diags[i].message << "\n";
  }
  const bool ok = missed == 0 && unexpected == 0;
  std::cout << (ok ? "  PASS " : "  FAIL ") << name << ": "
            << markers.expects.size() << " seeded, "
            << (markers.expects.size() - missed) << " caught, " << unexpected
            << " spurious\n";
  return ok;
}

int run_self_test(const std::string& fixture_root) {
  if (!fs::is_directory(fixture_root)) {
    std::cerr << "fbclint: fixture directory not found: " << fixture_root
              << "\n";
    return 2;
  }
  std::vector<std::string> cases;
  for (const auto& entry : fs::directory_iterator(fixture_root))
    if (entry.is_directory()) cases.push_back(entry.path().generic_string());
  std::sort(cases.begin(), cases.end());
  if (cases.empty()) {
    std::cerr << "fbclint: no fixture cases under " << fixture_root << "\n";
    return 2;
  }
  bool all_ok = true;
  std::size_t total_seeded = 0;
  for (const std::string& dir : cases) {
    std::cout << "self-test " << dir << "\n";
    const ProjectModel model = lint_paths({dir}, /*skip_fixtures=*/false);
    const Markers markers = collect_markers(model);
    const std::vector<Diagnostic> diags =
        apply_suppressions(run_rules(model), markers);
    total_seeded += markers.expects.size();
    all_ok = check_case(dir, diags, markers) && all_ok;
  }
  std::cout << (all_ok ? "self-test PASS" : "self-test FAIL") << " ("
            << cases.size() << " cases, " << total_seeded
            << " seeded violations)\n";
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  Format format = Format::Plain;
  std::string fixture_root = FBCLINT_FIXTURE_DIR;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg.starts_with("--fixtures=")) {
      fixture_root = arg.substr(11);
    } else if (arg == "--format=plain") {
      format = Format::Plain;
    } else if (arg == "--format=github") {
      format = Format::Github;
    } else if (arg == "--json") {
      format = Format::Json;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fbclint [--self-test] [--fixtures=DIR] "
                   "[--format=plain|github] [--json] [paths...]\n";
      return 0;
    } else if (arg.starts_with("--")) {
      std::cerr << "fbclint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  try {
    if (self_test) return run_self_test(fixture_root);
    if (roots.empty()) {
      std::cerr << "fbclint: no paths given (try: fbclint src tools tests)\n";
      return 2;
    }
    const ProjectModel model = lint_paths(roots, /*skip_fixtures=*/true);
    const std::vector<Diagnostic> diags =
        apply_suppressions(run_rules(model), collect_markers(model));
    print_diags(diags, format);
    if (format != Format::Json) {
      if (diags.empty())
        std::cout << "fbclint: clean (" << model.files.size() << " files)\n";
      else
        std::cout << "fbclint: " << diags.size() << " violation(s)\n";
    }
    return diags.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

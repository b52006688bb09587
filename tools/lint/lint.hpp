#pragma once
/// \file lint.hpp
/// voprof-lint: project-convention checks the generic tools
/// (clang-tidy, compiler warnings) cannot express. Usable as a library
/// (tests/test_lint.cpp) and from the voprof-lint CLI.
///
/// Rules (see docs/STATIC_ANALYSIS.md for rationale and how to add one):
///   naked-assert     no assert()/<cassert> outside tests — use
///                    VOPROF_REQUIRE / VOPROF_ASSERT (util/assert.hpp)
///   float-in-model   no `float` in model/engine code (src/core,
///                    src/xensim and their headers): the paper's
///                    quantities are doubles end to end
///   header-guard     every header starts with `#pragma once` (or a
///                    classic #ifndef/#define guard)
///   cout-in-library  no std::cout in library code (src/core,
///                    src/xensim): libraries report through return
///                    values, not stdout
///   raw-rand         no rand()/srand() anywhere — all randomness goes
///                    through voprof::util::Rng for reproducibility
///   raw-thread       no std::thread / std::jthread outside
///                    util/task_pool — parallelism goes through
///                    voprof::util::TaskPool so sweeps stay
///                    deterministic (static members such as
///                    std::thread::hardware_concurrency are fine)
///   raw-steady-clock no steady_clock::now() outside bench/, obs/ and
///                    tests — interval timing goes through voprof::obs
///                    (wall_clock_us / VOPROF_WALL_SPAN) so an enabled
///                    trace observes it
///   require-in-frontend
///                    no VOPROF_REQUIRE in tools/ and src/serve/ — code
///                    that takes outside input reports every failure
///                    as a util::Result, never as a precondition
///
/// Comments and string literals are masked out before matching, so a
/// `// rand()` comment or an "assert(" inside a string never fires.

#include <filesystem>
#include <string>
#include <vector>

namespace voprof::lint {

/// One rule violation at a specific source location.
struct Finding {
  std::string file;       ///< path as reported (relative to scan root)
  std::size_t line = 0;   ///< 1-based line number
  std::string rule;       ///< rule identifier, e.g. "naked-assert"
  std::string message;    ///< human-readable explanation

  [[nodiscard]] std::string format() const;
};

/// Result of linting a tree.
struct LintReport {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
};

/// Replace comments and string/char literal contents with spaces
/// (newlines preserved so line numbers survive). Exposed for tests.
[[nodiscard]] std::string mask_comments_and_strings(const std::string& text);

/// Lint one file's contents. `relpath` (with '/' separators, relative
/// to the scan root) selects which rules apply: tests/ is exempt from
/// naked-assert; src/core, src/xensim, include/voprof/core and
/// include/voprof/xensim are model/engine code.
[[nodiscard]] std::vector<Finding> lint_file_content(
    const std::string& relpath, const std::string& content);

/// Recursively lint every C++ source/header under `root`. Directories
/// named `.git`, starting with `build`, or named `lint_fixtures` are
/// skipped — unless `root` itself lies inside a lint_fixtures tree
/// (so the self-test fixtures can be scanned directly). Throws
/// std::runtime_error if `root` is not a directory.
[[nodiscard]] LintReport lint_tree(const std::filesystem::path& root);

}  // namespace voprof::lint

#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace voprof::lint {

namespace {

namespace fs = std::filesystem;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_test_code(const std::string& relpath) {
  return starts_with(relpath, "tests/") ||
         relpath.find("/tests/") != std::string::npos;
}

bool is_model_engine_code(const std::string& relpath) {
  return starts_with(relpath, "src/core/") ||
         starts_with(relpath, "src/xensim/") ||
         starts_with(relpath, "include/voprof/core/") ||
         starts_with(relpath, "include/voprof/xensim/");
}

bool is_task_pool_code(const std::string& relpath) {
  return relpath.find("util/task_pool") != std::string::npos;
}

bool is_bench_code(const std::string& relpath) {
  return starts_with(relpath, "bench/") ||
         relpath.find("/bench/") != std::string::npos;
}

bool is_obs_code(const std::string& relpath) {
  return starts_with(relpath, "src/obs/") ||
         starts_with(relpath, "include/voprof/obs/") ||
         relpath.find("/obs/") != std::string::npos;
}

bool is_header(const std::string& relpath) {
  return relpath.ends_with(".hpp") || relpath.ends_with(".h") ||
         relpath.ends_with(".hh");
}

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh";
}

/// Split masked text into lines (indices are 1-based at report time).
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

const std::regex& assert_call_re() {
  // `static_assert` never matches: '_' is excluded by the char class.
  static const std::regex re(R"((^|[^A-Za-z0-9_])assert\s*\()");
  return re;
}

const std::regex& assert_include_re() {
  static const std::regex re(R"(#\s*include\s*[<"](cassert|assert\.h)[">])");
  return re;
}

const std::regex& float_re() {
  static const std::regex re(R"((^|[^A-Za-z0-9_])float($|[^A-Za-z0-9_]))");
  return re;
}

const std::regex& cout_re() {
  static const std::regex re(R"(std\s*::\s*cout)");
  return re;
}

const std::regex& thread_re() {
  // `std::thread` / `std::jthread` as a type (construction, members,
  // vector<std::thread>, ...) but not `std::thread::hardware_concurrency`
  // and friends — a trailing `::` means a static member access, which
  // does not spawn anything. `std::this_thread` never matches: after
  // `std::` the literal `j?thread` cannot match `this_thread`.
  static const std::regex re(R"(std\s*::\s*j?thread\b(?!\s*::))");
  return re;
}

const std::regex& steady_clock_re() {
  // Any direct steady_clock::now() read, qualified or via
  // `using namespace std::chrono`. system_clock is untouched: the rule
  // is about ad-hoc interval timing, which must go through
  // voprof::obs (wall_clock_us / WallSpan) so traces see it.
  static const std::regex re(R"(steady_clock\s*::\s*now\s*\()");
  return re;
}

const std::regex& require_re() {
  // VOPROF_REQUIRE and VOPROF_REQUIRE_MSG.
  static const std::regex re(R"((^|[^A-Za-z0-9_])VOPROF_REQUIRE(_MSG)?\s*\()");
  return re;
}

const std::regex& rand_re() {
  // Rejects member/qualified calls (`.rand(`, `->rand(`, `::rand(` is
  // still the C function — catch it) and identifiers merely containing
  // "rand". `std::rand(` and plain `rand(`/`srand(` all fire.
  static const std::regex re(R"((^|[^A-Za-z0-9_.>])s?rand\s*\()");
  return re;
}

void scan_lines(const std::vector<std::string>& lines, const std::regex& re,
                const std::string& relpath, const std::string& rule,
                const std::string& message, std::vector<Finding>* out) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], re)) {
      out->push_back(Finding{relpath, i + 1, rule, message});
    }
  }
}

/// First non-blank line of the masked text, with its 1-based number.
std::pair<std::string, std::size_t> first_code_line(
    const std::vector<std::string>& lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string t = lines[i];
    t.erase(std::remove_if(t.begin(), t.end(),
                           [](unsigned char c) { return std::isspace(c); }),
            t.end());
    if (!t.empty()) return {t, i + 1};
  }
  return {"", 1};
}

void check_header_guard(const std::vector<std::string>& lines,
                        const std::string& relpath,
                        std::vector<Finding>* out) {
  const auto [first, line_no] = first_code_line(lines);
  if (first == "#pragmaonce") return;
  // Classic include guard: #ifndef NAME directly followed by
  // #define NAME (comments/blank lines already masked or skipped).
  static const std::regex ifndef_re(R"(^\s*#\s*ifndef\s+([A-Za-z0-9_]+)\s*$)");
  static const std::regex define_re(R"(^\s*#\s*define\s+([A-Za-z0-9_]+)\s*$)");
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    std::smatch m_if;
    if (!std::regex_match(lines[i], m_if, ifndef_re)) continue;
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      std::string t = lines[j];
      if (t.find_first_not_of(" \t") == std::string::npos) continue;
      std::smatch m_def;
      if (std::regex_match(lines[j], m_def, define_re) &&
          m_def[1] == m_if[1]) {
        return;  // proper guard
      }
      break;
    }
    break;
  }
  out->push_back(Finding{
      relpath, line_no, "header-guard",
      "header must start with '#pragma once' (or an #ifndef/#define "
      "include guard)"});
}

}  // namespace

std::string Finding::format() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::string mask_comments_and_strings(const std::string& text) {
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  std::string out;
  out.reserve(text.size());
  State state = State::kCode;
  std::string raw_delim;  // delimiter of the active raw string literal
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // Raw string literal R"delim( ... )delim".
          std::size_t p = i + 2;
          raw_delim.clear();
          while (p < text.size() && text[p] != '(') raw_delim += text[p++];
          out.append(p + 1 - i, ' ');
          i = p;  // now at '('
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
          if (next == '\n') out.back() = '\n';
        } else if (c == '"') {
          state = State::kCode;
          out += ' ';
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (c == ')' && text.compare(i, close.size(), close) == 0) {
          out.append(close.size(), ' ');
          i += close.size() - 1;
          state = State::kCode;
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<Finding> lint_file_content(const std::string& relpath,
                                       const std::string& content) {
  std::vector<Finding> out;
  const std::string masked = mask_comments_and_strings(content);
  const std::vector<std::string> lines = split_lines(masked);

  if (!is_test_code(relpath)) {
    scan_lines(lines, assert_call_re(), relpath, "naked-assert",
               "use VOPROF_REQUIRE / VOPROF_ASSERT (voprof/util/assert.hpp) "
               "instead of assert()",
               &out);
    scan_lines(lines, assert_include_re(), relpath, "naked-assert",
               "do not include <cassert> outside tests", &out);
  }
  if (is_model_engine_code(relpath)) {
    scan_lines(lines, float_re(), relpath, "float-in-model",
               "model/engine code computes in double precision only", &out);
    scan_lines(lines, cout_re(), relpath, "cout-in-library",
               "library code must not write to std::cout", &out);
  }
  // Code that takes outside input reports every failure as a Result.
  if (starts_with(relpath, "tools/") || starts_with(relpath, "src/serve/")) {
    scan_lines(lines, require_re(), relpath, "require-in-frontend",
               "tools/ and src/serve/ handle outside input: report a "
               "failure as a util::Result (voprof/util/result.hpp), not "
               "VOPROF_REQUIRE",
               &out);
  }
  if (is_header(relpath)) {
    check_header_guard(lines, relpath, &out);
  }
  scan_lines(lines, rand_re(), relpath, "raw-rand",
             "use voprof::util::Rng instead of rand()/srand()", &out);
  if (!is_task_pool_code(relpath)) {
    scan_lines(lines, thread_re(), relpath, "raw-thread",
               "use voprof::util::TaskPool instead of raw std::thread so "
               "parallel sweeps stay deterministic",
               &out);
  }
  if (!is_test_code(relpath) && !is_bench_code(relpath) &&
      !is_obs_code(relpath)) {
    scan_lines(lines, steady_clock_re(), relpath, "raw-steady-clock",
               "time through voprof::obs (wall_clock_us / VOPROF_WALL_SPAN) "
               "instead of steady_clock::now() so traces observe the interval",
               &out);
  }
  return out;
}

LintReport lint_tree(const fs::path& root) {
  if (!fs::is_directory(root)) {
    throw std::runtime_error("voprof-lint: not a directory: " + root.string());
  }
  // Scanning the fixture tree itself (self-test) must not skip it.
  const bool root_in_fixtures =
      fs::absolute(root).generic_string().find("lint_fixtures") !=
      std::string::npos;

  LintReport report;
  std::vector<fs::path> files;
  for (auto it = fs::recursive_directory_iterator(
           root, fs::directory_options::skip_permission_denied);
       it != fs::recursive_directory_iterator(); ++it) {
    const fs::directory_entry& entry = *it;
    const std::string name = entry.path().filename().string();
    if (entry.is_directory()) {
      if (name == ".git" || starts_with(name, "build") ||
          (name == "lint_fixtures" && !root_in_fixtures)) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (entry.is_regular_file() && is_cpp_source(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("voprof-lint: cannot read " + path.string());
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string relpath =
        fs::relative(path, root).generic_string();
    std::vector<Finding> file_findings =
        lint_file_content(relpath, buf.str());
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(file_findings.begin()),
                           std::make_move_iterator(file_findings.end()));
    ++report.files_scanned;
  }
  return report;
}

}  // namespace voprof::lint

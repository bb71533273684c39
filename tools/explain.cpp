#include "explain.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace tools {

// --- JSON parser -----------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    check(pos_ == s_.size(), "trailing characters after JSON document");
    return v;
  }

 private:
  void fail(const std::string& what) const {
    throw fcs::Error("JSON parse error at byte " + std::to_string(pos_) +
                     ": " + what);
  }
  void check(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    check(pos_ < s_.size(), "unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    check(pos_ < s_.size() && s_[pos_] == c, "unexpected character");
    ++pos_;
  }
  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        Json v;
        check(consume_literal("true"), "bad literal");
        v.kind = Json::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        Json v;
        check(consume_literal("false"), "bad literal");
        v.kind = Json::Kind::kBool;
        return v;
      }
      case 'n': {
        check(consume_literal("null"), "bad literal");
        return Json{};
      }
      default: return parse_number();
    }
  }

  Json parse_object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      check(pos_ < s_.size(), "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      check(pos_ < s_.size(), "unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          check(pos_ + 4 <= s_.size(), "truncated \\u escape");
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode (surrogates are passed through as-is; the exports
          // only escape ASCII control characters anyway).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    check(pos_ > start, "expected a value");
    const std::string token = s_.substr(start, pos_ - start);
    char* end = nullptr;
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = std::strtod(token.c_str(), &end);
    check(end == token.c_str() + token.size(), "malformed number");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

Json parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

// --- metrics model ---------------------------------------------------------

namespace {

CritStepInfo parse_critstep(const Json& j) {
  CritStepInfo out;
  out.step = static_cast<int>(j.number_or("step", -1));
  out.makespan = j.number_or("makespan", 0.0);
  out.path = j.number_or("path", 0.0);
  out.coverage = j.number_or("coverage", 0.0);
  out.comm = j.number_or("comm", 0.0);
  out.critical_rank = static_cast<int>(j.number_or("critical_rank", 0));
  if (const Json* slack = j.find("slack"); slack != nullptr) {
    out.slack_mean = slack->number_or("mean", 0.0);
    out.slack_max = slack->number_or("max", 0.0);
  }
  if (const Json* phases = j.find("phases"); phases != nullptr)
    for (const auto& [name, secs] : phases->object)
      if (secs.kind == Json::Kind::kNumber) out.phases[name] = secs.number;
  if (const Json* links = j.find("links"); links != nullptr)
    for (const Json& link : links->array) {
      LinkInfo li;
      li.src = static_cast<int>(link.number_or("src", 0));
      li.dst = static_cast<int>(link.number_or("dst", 0));
      li.seconds = link.number_or("seconds", 0.0);
      li.msgs = static_cast<std::uint64_t>(link.number_or("msgs", 0.0));
      out.links.push_back(li);
    }
  return out;
}

}  // namespace

std::vector<RunInfo> parse_metrics(const std::string& text) {
  const Json doc = parse_json(text);
  const Json* runs = doc.find("runs");
  FCS_CHECK(runs != nullptr && runs->kind == Json::Kind::kArray,
            "metrics JSON has no \"runs\" array - is this a FIG_METRICS file?");
  std::vector<RunInfo> out;
  out.reserve(runs->array.size());
  for (const Json& jr : runs->array) {
    RunInfo run;
    if (const Json* label = jr.find("label"); label != nullptr)
      run.label = label->string;
    run.nranks = static_cast<int>(jr.number_or("nranks", 0));
    run.makespan = jr.number_or("makespan", 0.0);
    if (const Json* counters = jr.find("counters"); counters != nullptr)
      for (const auto& [name, red] : counters->object)
        if (const Json* total = red.find("total"); total != nullptr)
          run.counter_sum[name] = total->number_or("sum", 0.0);
    if (const Json* cp = jr.find("critpath"); cp != nullptr) {
      run.has_critpath = true;
      if (const Json* span = cp->find("step_span"); span != nullptr)
        run.step_span = span->string;
      if (const Json* steps = cp->find("steps"); steps != nullptr)
        for (const Json& step : steps->array)
          run.steps.push_back(parse_critstep(step));
      if (const Json* total = cp->find("total"); total != nullptr)
        run.total = parse_critstep(*total);
    }
    out.push_back(std::move(run));
  }
  return out;
}

std::vector<RunInfo> load_metrics_file(const std::string& path) {
  std::ifstream is(path);
  FCS_CHECK(is.good(), "cannot open metrics file '" << path << "'");
  std::ostringstream oss;
  oss << is.rdbuf();
  try {
    return parse_metrics(oss.str());
  } catch (const fcs::Error& e) {
    throw fcs::Error("while reading '" + path + "': " + e.what());
  }
}

// --- analysis --------------------------------------------------------------

namespace {

std::string fmt_secs(double s, bool with_sign = false) {
  const double a = std::fabs(s);
  const char* unit = "s";
  double scaled = s;
  if (a > 0.0 && a < 1.0) {
    if (a >= 1e-3) {
      unit = "ms";
      scaled = s * 1e3;
    } else if (a >= 1e-6) {
      unit = "us";
      scaled = s * 1e6;
    } else {
      unit = "ns";
      scaled = s * 1e9;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, with_sign ? "%+.3f%s" : "%.3f%s", scaled,
                unit);
  return buf;
}

std::string fmt_pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * frac);
  return buf;
}

std::string fmt_value(double v, bool with_sign = false) {
  char buf[64];
  std::snprintf(buf, sizeof buf, with_sign ? "%+.6g" : "%.6g", v);
  return buf;
}

/// Union of two name->value maps as PhaseDeltas, largest |delta| first.
std::vector<PhaseDelta> delta_table(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, PhaseDelta> merged;
  for (const auto& [name, v] : a) {
    merged[name].name = name;
    merged[name].a = v;
  }
  for (const auto& [name, v] : b) {
    merged[name].name = name;
    merged[name].b = v;
  }
  std::vector<PhaseDelta> out;
  out.reserve(merged.size());
  for (auto& [name, d] : merged) out.push_back(std::move(d));
  std::stable_sort(out.begin(), out.end(),
                   [](const PhaseDelta& x, const PhaseDelta& y) {
                     const double dx = std::fabs(x.delta());
                     const double dy = std::fabs(y.delta());
                     if (dx != dy) return dx > dy;
                     return x.name < y.name;
                   });
  return out;
}

const RunInfo* find_run(const std::vector<RunInfo>& runs,
                        const std::string& label) {
  for (const RunInfo& run : runs)
    if (run.label == label) return &run;
  return nullptr;
}

RunDiff make_diff(const RunInfo& a, const RunInfo& b, double threshold_pct) {
  RunDiff d;
  d.label_a = a.label;
  d.label_b = b.label;
  d.makespan_a = a.makespan;
  d.makespan_b = b.makespan;
  if (a.has_critpath && b.has_critpath)
    d.phases = delta_table(a.total.phases, b.total.phases);
  d.counters = delta_table(a.counter_sum, b.counter_sum);
  d.regressed = d.delta() > 0.0 && d.pct() > threshold_pct;
  return d;
}

}  // namespace

DiffResult diff_runs(const std::vector<RunInfo>& a,
                     const std::vector<RunInfo>& b,
                     const ExplainOptions& opts) {
  DiffResult out;
  if (!opts.pairs.empty()) {
    for (const auto& [la, lb] : opts.pairs) {
      const RunInfo* ra = find_run(a, la);
      const RunInfo* rb = find_run(b, lb);
      if (ra == nullptr) out.unmatched.push_back(la + " (A)");
      if (rb == nullptr) out.unmatched.push_back(lb + " (B)");
      if (ra == nullptr || rb == nullptr) continue;
      out.runs.push_back(make_diff(*ra, *rb, opts.threshold_pct));
    }
  } else if (opts.by_index) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
      out.runs.push_back(make_diff(a[i], b[i], opts.threshold_pct));
    for (std::size_t i = n; i < a.size(); ++i)
      out.unmatched.push_back(a[i].label + " (A)");
    for (std::size_t i = n; i < b.size(); ++i)
      out.unmatched.push_back(b[i].label + " (B)");
  } else {
    // Label matching; duplicate labels pair up in file order.
    std::map<std::string, std::deque<const RunInfo*>> pool;
    for (const RunInfo& run : b) pool[run.label].push_back(&run);
    for (const RunInfo& run : a) {
      auto it = pool.find(run.label);
      if (it == pool.end() || it->second.empty()) {
        out.unmatched.push_back(run.label + " (A)");
        continue;
      }
      out.runs.push_back(make_diff(run, *it->second.front(),
                                   opts.threshold_pct));
      it->second.pop_front();
    }
    for (auto& [label, rest] : pool)
      for (std::size_t i = 0; i < rest.size(); ++i)
        out.unmatched.push_back(label + " (B)");
  }
  for (const RunDiff& d : out.runs)
    if (d.regressed) ++out.regressions;
  return out;
}

bool print_breakdown(std::ostream& os, const std::vector<RunInfo>& runs,
                     const ExplainOptions& opts) {
  bool coverage_ok = true;
  for (const RunInfo& run : runs) {
    os << "run " << run.label << "  nranks=" << run.nranks
       << "  makespan=" << fmt_secs(run.makespan) << "\n";
    if (!run.has_critpath) {
      os << "  (no critical-path data: re-export with FIG_TRACE set)\n";
      continue;
    }
    const CritStepInfo& t = run.total;
    double min_cov = t.makespan > 0.0 ? t.coverage : 1.0;
    for (const CritStepInfo& s : run.steps)
      min_cov = std::min(min_cov, s.coverage);
    os << "  critical path over " << run.steps.size() << " '" << run.step_span
       << "' window(s): coverage " << fmt_pct(t.coverage) << " (min step "
       << fmt_pct(min_cov) << "), comm "
       << fmt_pct(t.path > 0.0 ? t.comm / t.path : 0.0)
       << " of path, critical rank " << t.critical_rank << "\n";
    os << "  slack: mean " << fmt_secs(t.slack_mean) << ", max "
       << fmt_secs(t.slack_max) << "\n";
    os << "  phases on the critical path:\n";
    std::vector<PhaseDelta> table = delta_table({}, t.phases);
    int shown = 0;
    for (const PhaseDelta& p : table) {
      if (shown++ >= opts.top) break;
      os << "    " << p.name << "  " << fmt_secs(p.b) << "  "
         << fmt_pct(t.path > 0.0 ? p.b / t.path : 0.0) << "\n";
    }
    if (!t.links.empty()) {
      std::vector<LinkInfo> links = t.links;
      std::stable_sort(links.begin(), links.end(),
                       [](const LinkInfo& x, const LinkInfo& y) {
                         return x.seconds > y.seconds;
                       });
      os << "  hot links:\n";
      shown = 0;
      for (const LinkInfo& l : links) {
        if (shown++ >= opts.top) break;
        os << "    " << l.src << "->" << l.dst << "  " << fmt_secs(l.seconds)
           << "  (" << l.msgs << " msgs)\n";
      }
    }
    if (opts.min_coverage >= 0.0 && min_cov < opts.min_coverage) {
      os << "  COVERAGE GATE: min step coverage " << fmt_pct(min_cov)
         << " below " << fmt_pct(opts.min_coverage) << "\n";
      coverage_ok = false;
    }
  }
  return coverage_ok;
}

void print_diff(std::ostream& os, const DiffResult& diff,
                const ExplainOptions& opts) {
  for (const RunDiff& d : diff.runs) {
    os << d.label_a;
    if (d.label_b != d.label_a) os << " vs " << d.label_b;
    os << ": " << fmt_secs(d.makespan_a) << " -> " << fmt_secs(d.makespan_b)
       << "  (" << fmt_secs(d.delta(), true) << ", ";
    char pct[32];
    std::snprintf(pct, sizeof pct, "%+.2f%%", d.pct());
    os << pct << ")  " << (d.regressed ? "REGRESSION" : "ok") << "\n";
    if (d.delta() == 0.0 && !d.regressed) continue;
    if (!d.phases.empty()) {
      os << "  makespan delta by critical-path phase:\n";
      int shown = 0;
      for (const PhaseDelta& p : d.phases) {
        if (p.delta() == 0.0) break;  // sorted by |delta|: rest are zero too
        if (shown++ >= opts.top) break;
        os << "    " << p.name << "  " << fmt_secs(p.delta(), true) << "  ("
           << fmt_secs(p.a) << " -> " << fmt_secs(p.b) << ")\n";
      }
    }
    os << "  counter deltas:\n";
    int shown = 0;
    for (const PhaseDelta& c : d.counters) {
      if (c.delta() == 0.0) break;
      if (shown++ >= opts.top) break;
      os << "    " << c.name << "  " << fmt_value(c.delta(), true) << "  ("
         << fmt_value(c.a) << " -> " << fmt_value(c.b) << ")\n";
    }
  }
  for (const std::string& label : diff.unmatched)
    os << "unmatched run: " << label << "\n";
  os << diff.runs.size() << " pair(s), " << diff.regressions
     << " regression(s) above " << fmt_value(opts.threshold_pct) << "%, "
     << diff.unmatched.size() << " unmatched\n";
}

// --- CLI -------------------------------------------------------------------

namespace {

void usage(std::ostream& os) {
  os << "usage: obs_explain [options] METRICS.json\n"
        "       obs_explain --diff [options] A.json B.json\n"
        "\n"
        "Breakdown mode prints the critical-path story of every run in a\n"
        "metrics file (written via FIG_METRICS, with FIG_TRACE enabled for\n"
        "span recording). Diff mode compares matched runs of two files and\n"
        "attributes the makespan delta to critical-path phases and counters.\n"
        "\n"
        "options:\n"
        "  --top N            rows per table (default 8)\n"
        "  --min-coverage F   breakdown: exit 1 if a step's critical-path\n"
        "                     coverage falls below F (0..1)\n"
        "  --threshold PCT    diff: makespan growth above PCT% is a\n"
        "                     regression (default 0)\n"
        "  --pair A=B         diff: compare run labeled A (first file) with\n"
        "                     run labeled B (second file); repeatable. With\n"
        "                     one file, compares runs inside it.\n"
        "  --by-index         diff: pair runs by position instead of label\n"
        "\n"
        "exit code: 0 ok, 1 regression or coverage gate tripped, 2 error\n";
}

}  // namespace

int explain_main(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err) {
  ExplainOptions opts;
  bool diff = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--diff") {
      diff = true;
    } else if (arg == "--top") {
      const char* v = value();
      if (v == nullptr) {
        err << "obs_explain: --top needs a value\n";
        return 2;
      }
      opts.top = std::atoi(v);
    } else if (arg == "--threshold") {
      const char* v = value();
      if (v == nullptr) {
        err << "obs_explain: --threshold needs a value\n";
        return 2;
      }
      opts.threshold_pct = std::atof(v);
    } else if (arg == "--min-coverage") {
      const char* v = value();
      if (v == nullptr) {
        err << "obs_explain: --min-coverage needs a value\n";
        return 2;
      }
      opts.min_coverage = std::atof(v);
    } else if (arg == "--pair") {
      const char* v = value();
      const char* eq = v != nullptr ? std::strchr(v, '=') : nullptr;
      if (eq == nullptr) {
        err << "obs_explain: --pair needs LABELA=LABELB\n";
        return 2;
      }
      opts.pairs.emplace_back(std::string(v, eq), std::string(eq + 1));
    } else if (arg == "--by-index") {
      opts.by_index = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(out);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "obs_explain: unknown option '" << arg << "'\n";
      usage(err);
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  try {
    if (diff) {
      // --pair within a single file compares runs of that file to each other.
      if (files.size() == 1 && !opts.pairs.empty()) files.push_back(files[0]);
      if (files.size() != 2) {
        usage(err);
        return 2;
      }
      const std::vector<RunInfo> a = load_metrics_file(files[0]);
      const std::vector<RunInfo> b = load_metrics_file(files[1]);
      const DiffResult result = diff_runs(a, b, opts);
      print_diff(out, result, opts);
      return result.regressions > 0 ? 1 : 0;
    }
    if (files.size() != 1) {
      usage(err);
      return 2;
    }
    const std::vector<RunInfo> runs = load_metrics_file(files[0]);
    return print_breakdown(out, runs, opts) ? 0 : 1;
  } catch (const std::exception& e) {
    err << "obs_explain: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace tools

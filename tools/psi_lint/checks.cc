// The token-level psi_lint checks (see lint.h for the invariant statements).
//
// Everything here is a lexical approximation: the checks see tokens, bracket
// matching and brace depth — not types or dataflow. The approximations are
// chosen so that (a) every true violation of the written invariant in this
// codebase's idiom is caught, and (b) false positives are rare enough to
// justify individually with a `psi-lint: allow(...)` comment.
//
// The secret-flow check lives in taint.cc (flow-sensitive engine) and the
// channel-schedule check in schedule.cc; RunChecks at the bottom merges all
// engines into one per-file finding list.

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lint.h"
#include "schedule.h"
#include "taint.h"

namespace psi_lint {
namespace internal {
namespace {

constexpr size_t kNone = LexedFile::kNoMatch;

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsRngishName(const std::string& name) {
  const std::string n = Lower(name);
  return n.find("rng") != std::string::npos ||
         n.find("prng") != std::string::npos ||
         n.find("random") != std::string::npos;
}

/// The reader methods whose output is a raw peer-controlled integer.
bool IsTaintingRead(const std::string& name) {
  return name == "ReadU16" || name == "ReadU32" || name == "ReadU64" ||
         name == "ReadI64" || name == "ReadVarU64";
}

bool IsComparisonPunct(const std::string& t) {
  return t == "<" || t == ">" || t == "<=" || t == ">=" || t == "==" ||
         t == "!=";
}

class CheckRunner {
 public:
  CheckRunner(const LexedFile& file,
              const std::vector<std::string>& known_status_functions)
      : f_(file),
        known_status_(known_status_functions.begin(),
                      known_status_functions.end()) {}

  std::vector<std::string> StatusFunctionNames() const {
    std::vector<std::string> names;
    ScanStatusDecls([&](const StatusDecl& d) {
      names.push_back(Tok(d.name_idx).text);
    });
    return names;
  }

  std::vector<Finding> Run() {
    CheckRngOrder();
    CheckReadBounds();
    CheckNodiscardDecls();
    CheckDiscardedCalls();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                if (a.check != b.check) return a.check < b.check;
                return a.message < b.message;
              });
    findings_.erase(std::unique(findings_.begin(), findings_.end(),
                                [](const Finding& a, const Finding& b) {
                                  return a.line == b.line && a.check == b.check &&
                                         a.message == b.message;
                                }),
                    findings_.end());
    return std::move(findings_);
  }

 private:
  // -- token utilities ------------------------------------------------------

  size_t N() const { return f_.tokens.size(); }
  const Token& Tok(size_t i) const { return f_.tokens[i]; }
  bool P(size_t i, const char* text) const {
    return i < N() && Tok(i).kind == TokKind::kPunct && Tok(i).text == text;
  }
  bool Id(size_t i, const char* text) const {
    return i < N() && Tok(i).kind == TokKind::kIdent && Tok(i).text == text;
  }
  bool IsIdent(size_t i) const {
    return i < N() && Tok(i).kind == TokKind::kIdent;
  }
  size_t Match(size_t i) const {
    return i < f_.match.size() ? f_.match[i] : kNone;
  }

  void Report(size_t tok_idx, const std::string& check,
              const std::string& message) {
    findings_.push_back({f_.path, Tok(tok_idx).line, check, message});
  }

  /// Index right after the last `;` / `{` / `}` before `i` (statement start).
  size_t StatementStart(size_t i) const {
    while (i > 0) {
      const Token& t = Tok(i - 1);
      if (t.kind == TokKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}")) {
        break;
      }
      --i;
    }
    return i;
  }

  /// Index of the `;` closing the statement containing `i` (paren-depth 0
  /// relative to `i`), or N().
  size_t StatementEnd(size_t i) const {
    int depth = 0;
    for (size_t j = i; j < N(); ++j) {
      const std::string& t = Tok(j).text;
      if (Tok(j).kind != TokKind::kPunct) continue;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ";" && depth <= 0) return j;
    }
    return N();
  }

  /// For a `<` at index `i`, the index just past its matching `>`, skipping
  /// nested angles (handles the `>>` double-closer token). kNone if this
  /// does not look like a template argument list.
  size_t SkipAngles(size_t i) const {
    int depth = 0;
    for (size_t j = i; j < N() && j < i + 256; ++j) {
      const std::string& t = Tok(j).text;
      if (Tok(j).kind == TokKind::kPunct) {
        if (t == "<") ++depth;
        else if (t == ">") { if (--depth == 0) return j + 1; }
        else if (t == ">>") { depth -= 2; if (depth <= 0) return j + 1; }
        else if (t == ";" || t == "{" || t == ")") return kNone;
      }
    }
    return kNone;
  }

  // -- check 2: rng-order ---------------------------------------------------

  void CheckRngOrder() {
    for (size_t i = 0; i < N(); ++i) {
      const bool entry = Id(i, "ParallelFor") || Id(i, "ParallelForChunked") ||
                         Id(i, "ParallelForStatus") || Id(i, "Submit");
      if (!entry || !P(i + 1, "(") || Match(i + 1) == kNone) continue;
      const size_t close = Match(i + 1);
      for (size_t j = i + 2; j < close; ++j) {
        if (!IsIdent(j) || !IsRngishName(Tok(j).text)) continue;
        size_t k = j + 1;
        if (P(k, "[") && Match(k) != kNone) k = Match(k) + 1;
        const bool direct_call = P(k, "(");
        const bool method_call = (P(k, ".") || P(k, "->")) && IsIdent(k + 1) &&
                                 P(k + 2, "(");
        if (direct_call || method_call) {
          Report(j, "rng-order",
                 "RNG call via '" + Tok(j).text + "' inside a " +
                     Tok(i).text +
                     " region; draw randomness before the parallel loop so "
                     "the transcript stays byte-identical at any thread "
                     "count");
        }
      }
    }
  }

  // -- check 3: read-bounds -------------------------------------------------

  void UntaintComparedNames(size_t begin, size_t end) {
    bool has_comparison = false;
    for (size_t j = begin; j < end; ++j) {
      if (Tok(j).kind == TokKind::kPunct && IsComparisonPunct(Tok(j).text)) {
        has_comparison = true;
        break;
      }
    }
    if (!has_comparison) return;
    for (size_t j = begin; j < end; ++j) {
      if (IsIdent(j)) tainted_.erase(Tok(j).text);
    }
  }

  void FlagTaintedInSpan(size_t begin, size_t end, const std::string& context) {
    for (size_t j = begin; j < end && j < N(); ++j) {
      if (!IsIdent(j)) continue;
      if (tainted_.count(Tok(j).text) == 0) continue;
      Report(j, "read-bounds",
             "peer-derived count '" + Tok(j).text + "' reaches " + context +
                 " without a bound check; use BinaryReader::ReadCount or "
                 "guard it with an explicit comparison first");
    }
  }

  void CheckReadBounds() {
    tainted_.clear();
    int depth = 0;
    for (size_t i = 0; i < N(); ++i) {
      if (P(i, "{")) ++depth;
      if (P(i, "}")) {
        --depth;
        for (auto it = tainted_.begin(); it != tainted_.end();) {
          it = it->second > depth ? tainted_.erase(it) : std::next(it);
        }
      }
      if (IsIdent(i) && P(i + 1, "(")) {
        const std::string& name = Tok(i).text;
        if (IsTaintingRead(name) && P(i + 2, "&") && IsIdent(i + 3)) {
          tainted_[Tok(i + 3).text] = depth;
        } else if (name == "ReadCount" && P(i + 2, "&") && IsIdent(i + 3)) {
          tainted_.erase(Tok(i + 3).text);  // ReadCount output is bounded.
        } else if ((name == "if" || name == "PSI_CHECK" ||
                    name == "PSI_DCHECK") &&
                   Match(i + 1) != kNone) {
          UntaintComparedNames(i + 2, Match(i + 1));
        } else if (name == "for" && Match(i + 1) != kNone) {
          // Loop bound = the segment between the first two top-level `;`.
          const size_t close = Match(i + 1);
          size_t semi1 = kNone, semi2 = kNone;
          int d = 0;
          for (size_t j = i + 2; j < close; ++j) {
            const std::string& t = Tok(j).text;
            if (Tok(j).kind != TokKind::kPunct) continue;
            if (t == "(" || t == "[" || t == "{") ++d;
            if (t == ")" || t == "]" || t == "}") --d;
            if (t == ";" && d == 0) {
              if (semi1 == kNone) semi1 = j;
              else { semi2 = j; break; }
            }
          }
          if (semi1 != kNone && semi2 != kNone) {
            FlagTaintedInSpan(semi1 + 1, semi2, "a loop bound");
          }
        } else if (name == "while" && Match(i + 1) != kNone) {
          FlagTaintedInSpan(i + 2, Match(i + 1), "a loop bound");
        }
      }
      if ((P(i, ".") || P(i, "->")) && IsIdent(i + 1) && P(i + 2, "(") &&
          Match(i + 2) != kNone) {
        const std::string& m = Tok(i + 1).text;
        if (m == "resize" || m == "reserve" || m == "assign") {
          FlagTaintedInSpan(i + 3, Match(i + 2), "." + m + "()");
        }
      }
      // Reassignment from something other than a reader kills the taint.
      if (IsIdent(i) && tainted_.count(Tok(i).text) != 0 && P(i + 1, "=")) {
        tainted_.erase(Tok(i).text);
      }
    }
  }

  // -- check 4: nodiscard-status --------------------------------------------

  struct StatusDecl {
    size_t name_idx;
    bool has_nodiscard;
    bool is_static;
  };

  /// Scans for Status / Result<T> function declarations; the shared engine
  /// behind both the declaration check and CollectStatusFunctions.
  template <typename Callback>
  void ScanStatusDecls(Callback cb) const {
    for (size_t i = 0; i < N(); ++i) {
      if (!Id(i, "Status") && !Id(i, "Result")) continue;
      if (P(i + 1, "::")) continue;  // Status::OK() etc.
      size_t j = i + 1;
      if (Id(i, "Result")) {
        if (!P(j, "<")) continue;
        j = SkipAngles(j);
        if (j == kNone) continue;
      }
      if (!IsIdent(j)) continue;
      size_t name_idx = j;
      while (P(j + 1, "::") && IsIdent(j + 2)) {
        j += 2;
        name_idx = j;
      }
      if (!P(j + 1, "(")) continue;
      const size_t open = j + 1;
      const size_t close = Match(open);
      if (close == kNone) continue;
      // After the parameter list a function declaration continues with one
      // of a small set of tokens; anything else is an expression or a
      // variable with constructor arguments.
      bool looks_like_function = false;
      if (P(close + 1, ";") || P(close + 1, "{") || Id(close + 1, "const") ||
          Id(close + 1, "noexcept") || Id(close + 1, "override") ||
          Id(close + 1, "final")) {
        looks_like_function = true;
      } else if (P(close + 1, "=") &&
                 (Id(close + 2, "default") || Id(close + 2, "delete") ||
                  (close + 2 < N() && Tok(close + 2).text == "0"))) {
        looks_like_function = true;
      }
      if (!looks_like_function) continue;
      // Walk backwards over specifiers/attributes to the declaration
      // context.
      bool decl = false, has_attr = false, is_static = false;
      size_t k = i;
      while (k > 0) {
        const Token& p = Tok(k - 1);
        if (p.kind == TokKind::kIdent &&
            (p.text == "static" || p.text == "virtual" ||
             p.text == "inline" || p.text == "constexpr" ||
             p.text == "explicit" || p.text == "friend")) {
          if (p.text == "static") is_static = true;
          --k;
          continue;
        }
        if (p.kind == TokKind::kPunct && p.text == "]" && k >= 2 &&
            P(k - 2, "]")) {
          const size_t attr_open = Match(k - 1);
          if (attr_open == kNone) break;
          for (size_t a = attr_open; a < k; ++a) {
            if (IsIdent(a) && (Tok(a).text == "nodiscard" ||
                               Tok(a).text == "warn_unused_result")) {
              has_attr = true;
            }
          }
          k = attr_open;
          continue;
        }
        if ((p.kind == TokKind::kPunct &&
             (p.text == ";" || p.text == "{" || p.text == "}" ||
              p.text == ":" || p.text == ">")) ||
            (p.kind == TokKind::kIdent &&
             (p.text == "public" || p.text == "private" ||
              p.text == "protected"))) {
          decl = true;
        }
        break;
      }
      if (k == 0) decl = true;
      if (!decl) continue;
      cb(StatusDecl{name_idx, has_attr, is_static});
    }
  }

  bool InAnonNamespace(size_t i) const {
    for (const auto& [begin, end] : AnonSpans()) {
      if (i > begin && i < end) return true;
    }
    return false;
  }

  const std::vector<std::pair<size_t, size_t>>& AnonSpans() const {
    if (!anon_spans_built_) {
      for (size_t i = 0; i + 1 < N(); ++i) {
        if (Id(i, "namespace") && P(i + 1, "{") && Match(i + 1) != kNone) {
          anon_spans_.push_back({i + 1, Match(i + 1)});
        }
      }
      anon_spans_built_ = true;
    }
    return anon_spans_;
  }

  void CheckNodiscardDecls() {
    const bool is_header = EndsWith(f_.path, ".h") || EndsWith(f_.path, ".hpp");
    ScanStatusDecls([&](const StatusDecl& d) {
      if (d.has_nodiscard) return;
      // Out-of-line definitions in a .cc inherit the attribute from their
      // header declaration; only header declarations and file-local
      // functions (static or anonymous-namespace) are required to carry it.
      if (!is_header && !d.is_static && !InAnonNamespace(d.name_idx)) return;
      Report(d.name_idx, "nodiscard-status",
             "function '" + Tok(d.name_idx).text +
                 "' returns Status/Result but is not [[nodiscard]]");
    });
  }

  void CheckDiscardedCalls() {
    if (known_status_.empty()) return;
    for (size_t i = 0; i < N(); ++i) {
      if (!IsIdent(i)) continue;
      // Statement-initial identifiers only.
      if (i > 0) {
        const Token& p = Tok(i - 1);
        const bool stmt_start =
            (p.kind == TokKind::kPunct &&
             (p.text == ";" || p.text == "{" || p.text == "}" ||
              p.text == ")")) ||
            (p.kind == TokKind::kIdent && (p.text == "else" || p.text == "do"));
        if (!stmt_start) continue;
      }
      // Walk the call chain: a, a::b, a.b, a->b ... callee is the last
      // identifier before the argument list.
      size_t j = i;
      std::string callee;
      while (j < N()) {
        if (P(j + 1, "(")) {
          callee = Tok(j).text;
          break;
        }
        if ((P(j + 1, "::") || P(j + 1, ".") || P(j + 1, "->")) &&
            IsIdent(j + 2)) {
          j += 2;
          continue;
        }
        break;
      }
      if (callee.empty() || known_status_.count(callee) == 0) continue;
      const size_t open = j + 1;
      const size_t close = Match(open);
      if (close == kNone || !P(close + 1, ";")) continue;
      Report(i, "nodiscard-status",
             "call to '" + callee +
                 "' discards its Status/Result; assign it, wrap it in "
                 "PSI_RETURN_NOT_OK/PSI_CHECK_OK, or cast to void");
    }
  }

  const LexedFile& f_;
  std::set<std::string> known_status_;
  std::map<std::string, int> tainted_;  // name -> brace depth of the taint.
  mutable std::vector<std::pair<size_t, size_t>> anon_spans_;
  mutable bool anon_spans_built_ = false;
  std::vector<Finding> findings_;
};

// True when token `i` sits inside an unclosed '(' of its statement, i.e. in
// a parameter list, where a ',' ends the declaration instead of starting
// another declarator.
bool InParameterList(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  for (size_t k = i; k-- > 0;) {
    const Token& t = toks[k];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == ")") {
      ++depth;
    } else if (t.text == "(") {
      if (depth == 0) return true;
      --depth;
    } else if (depth == 0 && (t.text == ";" || t.text == "{" || t.text == "}")) {
      return false;
    }
  }
  return false;
}

}  // namespace

std::vector<std::string> CollectSecretNames(const LexedFile& file) {
  std::vector<std::string> names;
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "PSI_SECRET") {
      continue;
    }
    const bool parameter = InParameterList(toks, i);
    std::string last_ident;
    int angle_depth = 0;
    for (size_t j = i + 1; j < toks.size() && j < i + 128; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "<") { ++angle_depth; continue; }
        if (t.text == ">") { if (angle_depth > 0) --angle_depth; continue; }
        if (t.text == ">>") { angle_depth = std::max(0, angle_depth - 2); continue; }
        if (angle_depth > 0) continue;  // Inside template args.
        if (t.text == ",") {
          if (parameter) break;  // The next parameter is not annotated.
          if (!last_ident.empty()) names.push_back(last_ident);
          last_ident.clear();
          continue;
        }
        if (t.text == ";" || t.text == ")" || t.text == "{" || t.text == "=") {
          break;
        }
        continue;
      }
      if (t.kind == TokKind::kIdent && angle_depth == 0) last_ident = t.text;
    }
    if (!last_ident.empty()) names.push_back(last_ident);
  }
  return names;
}

std::vector<std::string> CollectStatusFunctions(const LexedFile& file) {
  return CheckRunner(file, {}).StatusFunctionNames();
}

std::vector<std::string> CollectVoidFunctions(const LexedFile& file) {
  std::vector<std::string> names;
  const auto& toks = file.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "void") continue;
    // `void Name(` or `void Class::Name(`; returning-a-pointer `void*` and
    // parameter positions (`(void)` casts, `void` params) never match the
    // ident-then-paren shape.
    size_t j = i + 1;
    if (toks[j].kind != TokKind::kIdent) continue;
    while (j + 2 < toks.size() && toks[j + 1].kind == TokKind::kPunct &&
           toks[j + 1].text == "::" && toks[j + 2].kind == TokKind::kIdent) {
      j += 2;
    }
    if (j + 1 < toks.size() && toks[j + 1].kind == TokKind::kPunct &&
        toks[j + 1].text == "(") {
      names.push_back(toks[j].text);
    }
  }
  return names;
}

std::vector<Finding> RunChecks(const LexedFile& file,
                               const std::vector<std::string>& extra_secrets,
                               const ProjectContext& project) {
  std::vector<std::string> secrets = CollectSecretNames(file);
  secrets.insert(secrets.end(), extra_secrets.begin(), extra_secrets.end());

  std::vector<Finding> findings = CheckRunner(file, project.status_functions).Run();
  TaintAnalysis taint = AnalyzeTaint(file, secrets, project.sanitizers,
                                     project.tainted_functions);
  findings.insert(findings.end(), taint.findings.begin(),
                  taint.findings.end());
  std::vector<Finding> schedule = RunScheduleCheck(file);
  findings.insert(findings.end(), schedule.begin(), schedule.end());

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.check, a.message) <
                     std::tie(b.line, b.check, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.line == b.line && a.check == b.check &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

}  // namespace internal
}  // namespace psi_lint

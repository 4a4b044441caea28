#include "aqua/query/parser.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <string>
#include <vector>

#include "aqua/common/string_util.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

enum class TokenKind {
  kIdent,
  kInt,
  kReal,
  kString,
  kSymbol,  // ( ) , * . ; = <> < <= > >= !=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // raw text (unquoted for strings)
  int64_t int_value = 0;
  double real_value = 0.0;
  size_t offset = 0;    // position in the input, for error messages
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= sql_.size()) break;
      const size_t start = pos_;
      const char c = sql_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdent());
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        AQUA_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
      } else if (c == '\'') {
        AQUA_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
      } else {
        AQUA_ASSIGN_OR_RETURN(Token t, LexSymbol());
        out.push_back(std::move(t));
      }
      if (out.back().offset == 0) out.back().offset = start;
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.offset = sql_.size();
    out.push_back(end);
    return out;
  }

 private:
  void SkipSpace() {
    while (pos_ < sql_.size() &&
           std::isspace(static_cast<unsigned char>(sql_[pos_]))) {
      ++pos_;
    }
  }

  Token LexIdent() {
    Token t;
    t.kind = TokenKind::kIdent;
    t.offset = pos_;
    while (pos_ < sql_.size() &&
           (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
            sql_[pos_] == '_')) {
      t.text += sql_[pos_++];
    }
    return t;
  }

  Result<Token> LexNumber() {
    Token t;
    t.offset = pos_;
    const size_t start = pos_;
    while (pos_ < sql_.size() &&
           (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
            sql_[pos_] == '.' || sql_[pos_] == 'e' || sql_[pos_] == 'E' ||
            ((sql_[pos_] == '+' || sql_[pos_] == '-') && pos_ > start &&
             (sql_[pos_ - 1] == 'e' || sql_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    t.text = std::string(sql_.substr(start, pos_ - start));
    if (t.text.find_first_of(".eE") == std::string::npos) {
      auto [ptr, ec] = std::from_chars(t.text.data(),
                                       t.text.data() + t.text.size(),
                                       t.int_value);
      if (ec != std::errc() || ptr != t.text.data() + t.text.size()) {
        return Status::InvalidArgument("bad integer literal '" + t.text +
                                       "'");
      }
      t.kind = TokenKind::kInt;
    } else {
      const std::optional<double> v = ParseDouble(t.text);
      if (!v) {
        return Status::InvalidArgument("bad numeric literal '" + t.text +
                                       "'");
      }
      t.real_value = *v;
      t.kind = TokenKind::kReal;
    }
    return t;
  }

  Result<Token> LexString() {
    Token t;
    t.kind = TokenKind::kString;
    t.offset = pos_;
    ++pos_;  // opening quote
    while (pos_ < sql_.size()) {
      if (sql_[pos_] == '\'') {
        if (pos_ + 1 < sql_.size() && sql_[pos_ + 1] == '\'') {
          t.text += '\'';
          pos_ += 2;
        } else {
          ++pos_;
          return t;
        }
      } else {
        t.text += sql_[pos_++];
      }
    }
    return Status::InvalidArgument("unterminated string literal");
  }

  Result<Token> LexSymbol() {
    Token t;
    t.kind = TokenKind::kSymbol;
    t.offset = pos_;
    const char c = sql_[pos_];
    switch (c) {
      case '(':
      case ')':
      case ',':
      case '*':
      case '.':
      case ';':
      case '=':
      case '-':
        t.text = std::string(1, c);
        ++pos_;
        return t;
      case '<':
        ++pos_;
        if (pos_ < sql_.size() && (sql_[pos_] == '=' || sql_[pos_] == '>')) {
          t.text = std::string("<") + sql_[pos_++];
        } else {
          t.text = "<";
        }
        return t;
      case '>':
        ++pos_;
        if (pos_ < sql_.size() && sql_[pos_] == '=') {
          t.text = ">=";
          ++pos_;
        } else {
          t.text = ">";
        }
        return t;
      case '!':
        ++pos_;
        if (pos_ < sql_.size() && sql_[pos_] == '=') {
          t.text = "!=";
          ++pos_;
          return t;
        }
        return Status::InvalidArgument("stray '!' in query");
      default:
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' in query");
    }
  }

  std::string_view sql_;
  size_t pos_ = 0;
};

std::optional<AggregateFunction> AggregateByName(std::string_view name) {
  if (EqualsIgnoreCase(name, "COUNT")) return AggregateFunction::kCount;
  if (EqualsIgnoreCase(name, "SUM")) return AggregateFunction::kSum;
  if (EqualsIgnoreCase(name, "AVG")) return AggregateFunction::kAvg;
  if (EqualsIgnoreCase(name, "MIN")) return AggregateFunction::kMin;
  if (EqualsIgnoreCase(name, "MAX")) return AggregateFunction::kMax;
  return std::nullopt;
}

std::optional<CompareOp> CompareOpBySymbol(std::string_view sym) {
  if (sym == "=") return CompareOp::kEq;
  if (sym == "<>" || sym == "!=") return CompareOp::kNe;
  if (sym == "<") return CompareOp::kLt;
  if (sym == "<=") return CompareOp::kLe;
  if (sym == ">") return CompareOp::kGt;
  if (sym == ">=") return CompareOp::kGe;
  return std::nullopt;
}

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> ParseStatement() {
    AQUA_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery());
    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after query");
    }
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kIdent &&
           EqualsIgnoreCase(Peek().text, kw);
  }
  bool PeekKeyword2(std::string_view kw) const {
    return Peek(1).kind == TokenKind::kIdent &&
           EqualsIgnoreCase(Peek(1).text, kw);
  }
  bool PeekSymbol(std::string_view sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " (near offset " +
                                   std::to_string(Peek().offset) + ")");
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) {
      return Error("expected " + std::string(kw));
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(std::string_view sym) {
    if (!PeekSymbol(sym)) {
      return Error("expected '" + std::string(sym) + "'");
    }
    Advance();
    return Status::OK();
  }

  /// Guards the self-recursive productions (parenthesised / NOT-chained
  /// predicates, nested FROM). Without a bound, adversarial input such as
  /// "((((..." recurses once per byte and overflows the stack; 200 levels
  /// is far beyond any real query and well within the default stack.
  static constexpr int kMaxDepth = 200;
  Status EnterRecursion() {
    if (depth_ >= kMaxDepth) {
      return Error("query nesting exceeds the maximum depth of " +
                   std::to_string(kMaxDepth));
    }
    ++depth_;
    return Status::OK();
  }
  struct DepthGuard {
    Parser* parser;
    ~DepthGuard() { --parser->depth_; }
  };

  /// Parses `ident` or `ident.ident`, returning the unqualified name.
  Result<std::string> ParseAttributeName() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected attribute name");
    }
    std::string name = Advance().text;
    if (PeekSymbol(".")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected attribute after qualifier '.'");
      }
      name = Advance().text;  // single-relation queries: drop the qualifier
    }
    return name;
  }

  Result<Value> ParseLiteral() {
    bool negate = false;
    if (PeekSymbol("-")) {
      Advance();
      negate = true;
    }
    const Token& t = Peek();
    if (negate && t.kind != TokenKind::kInt && t.kind != TokenKind::kReal) {
      return Error("expected numeric literal after unary '-'");
    }
    switch (t.kind) {
      case TokenKind::kInt: {
        const int64_t v = t.int_value;
        Advance();
        return Value::Int64(negate ? -v : v);
      }
      case TokenKind::kReal: {
        const double v = t.real_value;
        Advance();
        return Value::Double(negate ? -v : v);
      }
      case TokenKind::kString: {
        std::string s = t.text;
        Advance();
        return Value::String(std::move(s));
      }
      default:
        return Error("expected literal");
    }
  }

  bool AtLiteral() const {
    return Peek().kind == TokenKind::kInt || Peek().kind == TokenKind::kReal ||
           Peek().kind == TokenKind::kString || PeekSymbol("-");
  }

  Result<PredicatePtr> ParseComparison() {
    if (AtLiteral()) {
      // literal OP attr — normalise to attr flipped-OP literal.
      AQUA_ASSIGN_OR_RETURN(Value lit, ParseLiteral());
      if (Peek().kind != TokenKind::kSymbol) return Error("expected operator");
      const auto op = CompareOpBySymbol(Peek().text);
      if (!op) return Error("expected comparison operator");
      Advance();
      AQUA_ASSIGN_OR_RETURN(std::string attr, ParseAttributeName());
      return Predicate::Comparison(std::move(attr), FlipOp(*op),
                                   std::move(lit));
    }
    AQUA_ASSIGN_OR_RETURN(std::string attr, ParseAttributeName());
    // Sugar: `attr [NOT] BETWEEN a AND b` and `attr [NOT] IN (v, ...)`.
    bool negated = false;
    if (PeekKeyword("NOT")) {
      if (!PeekKeyword2("BETWEEN") && !PeekKeyword2("IN")) {
        return Error("expected BETWEEN or IN after NOT");
      }
      Advance();
      negated = true;
    }
    if (PeekKeyword("BETWEEN")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      AQUA_RETURN_NOT_OK(ExpectKeyword("AND"));
      AQUA_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      PredicatePtr range = Predicate::And(
          Predicate::Comparison(attr, CompareOp::kGe, std::move(lo)),
          Predicate::Comparison(attr, CompareOp::kLe, std::move(hi)));
      return negated ? Predicate::Not(std::move(range)) : range;
    }
    if (PeekKeyword("IN")) {
      Advance();
      AQUA_RETURN_NOT_OK(ExpectSymbol("("));
      PredicatePtr disjunction;
      while (true) {
        AQUA_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        PredicatePtr eq =
            Predicate::Comparison(attr, CompareOp::kEq, std::move(v));
        disjunction = disjunction == nullptr
                          ? std::move(eq)
                          : Predicate::Or(std::move(disjunction),
                                          std::move(eq));
        if (PeekSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      AQUA_RETURN_NOT_OK(ExpectSymbol(")"));
      return negated ? Predicate::Not(std::move(disjunction)) : disjunction;
    }
    if (negated) return Error("expected BETWEEN or IN after NOT");
    if (Peek().kind != TokenKind::kSymbol) return Error("expected operator");
    const auto op = CompareOpBySymbol(Peek().text);
    if (!op) return Error("expected comparison operator");
    Advance();
    AQUA_ASSIGN_OR_RETURN(Value lit, ParseLiteral());
    return Predicate::Comparison(std::move(attr), *op, std::move(lit));
  }

  Result<PredicatePtr> ParseUnary() {
    AQUA_RETURN_NOT_OK(EnterRecursion());
    DepthGuard guard{this};
    if (PeekKeyword("NOT")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(PredicatePtr inner, ParseUnary());
      return Predicate::Not(std::move(inner));
    }
    if (PeekSymbol("(")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOr());
      AQUA_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    return ParseComparison();
  }

  Result<PredicatePtr> ParseAnd() {
    AQUA_ASSIGN_OR_RETURN(PredicatePtr left, ParseUnary());
    while (PeekKeyword("AND")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(PredicatePtr right, ParseUnary());
      left = Predicate::And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PredicatePtr> ParseOr() {
    AQUA_ASSIGN_OR_RETURN(PredicatePtr left, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(PredicatePtr right, ParseAnd());
      left = Predicate::Or(std::move(left), std::move(right));
    }
    return left;
  }

  struct SelectHead {
    AggregateFunction func;
    std::string attribute;  // empty for COUNT(*)
    bool distinct = false;
  };

  Result<SelectHead> ParseSelectHead() {
    AQUA_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    return ParseAggregateCall();
  }

  /// Parses `AGG([DISTINCT] attr | *)` — used by both the SELECT head and
  /// the HAVING clause.
  Result<SelectHead> ParseAggregateCall() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected aggregate function");
    }
    const auto func = AggregateByName(Peek().text);
    if (!func) {
      return Error("unknown aggregate function '" + Peek().text + "'");
    }
    Advance();
    AQUA_RETURN_NOT_OK(ExpectSymbol("("));
    SelectHead head;
    head.func = *func;
    if (PeekKeyword("DISTINCT")) {
      Advance();
      head.distinct = true;
    }
    if (PeekSymbol("*")) {
      Advance();
      if (head.func != AggregateFunction::kCount) {
        return Error("only COUNT may aggregate '*'");
      }
      if (head.distinct) return Error("COUNT(DISTINCT *) is not supported");
    } else {
      AQUA_ASSIGN_OR_RETURN(head.attribute, ParseAttributeName());
    }
    AQUA_RETURN_NOT_OK(ExpectSymbol(")"));
    return head;
  }

  Result<ParsedQuery> ParseQuery() {
    AQUA_RETURN_NOT_OK(EnterRecursion());
    DepthGuard guard{this};
    AQUA_ASSIGN_OR_RETURN(SelectHead head, ParseSelectHead());
    AQUA_RETURN_NOT_OK(ExpectKeyword("FROM"));

    if (PeekSymbol("(")) {
      // Nested form: FROM ( <query> ) [AS alias].
      Advance();
      AQUA_ASSIGN_OR_RETURN(ParsedQuery inner, ParseQuery());
      if (inner.kind != ParsedQuery::Kind::kSimple) {
        return Error("only one level of aggregate nesting is supported");
      }
      AQUA_RETURN_NOT_OK(ExpectSymbol(")"));
      if (PeekKeyword("AS")) {
        Advance();
        if (Peek().kind != TokenKind::kIdent) {
          return Error("expected alias after AS");
        }
        Advance();
      } else if (Peek().kind == TokenKind::kIdent &&
                 !PeekKeyword("WHERE") && !PeekKeyword("GROUP")) {
        Advance();  // bare alias
      }
      if (head.distinct) {
        return Error("DISTINCT is not supported in the outer aggregate");
      }
      if (head.attribute.empty()) {
        return Error("the outer aggregate must name an attribute");
      }
      ParsedQuery out;
      out.kind = ParsedQuery::Kind::kNested;
      out.nested.outer = head.func;
      out.nested.inner = std::move(inner.simple);
      AQUA_RETURN_NOT_OK(out.nested.Validate());
      return out;
    }

    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected relation name after FROM");
    }
    ParsedQuery out;
    out.kind = ParsedQuery::Kind::kSimple;
    AggregateQuery& q = out.simple;
    q.func = head.func;
    q.attribute = std::move(head.attribute);
    q.distinct = head.distinct;
    q.relation = Advance().text;
    q.where = Predicate::True();
    if (PeekKeyword("AS")) {
      Advance();
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected alias after AS");
      }
      Advance();
    } else if (Peek().kind == TokenKind::kIdent && !PeekKeyword("WHERE") &&
               !PeekKeyword("GROUP")) {
      Advance();  // bare alias, e.g. "FROM T2 R2"
    }
    if (PeekKeyword("WHERE")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(q.where, ParseOr());
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      AQUA_RETURN_NOT_OK(ExpectKeyword("BY"));
      AQUA_ASSIGN_OR_RETURN(q.group_by, ParseAttributeName());
    }
    if (PeekKeyword("HAVING")) {
      Advance();
      AQUA_ASSIGN_OR_RETURN(SelectHead agg, ParseAggregateCall());
      if (Peek().kind != TokenKind::kSymbol) {
        return Error("expected comparison operator in HAVING");
      }
      const auto op = CompareOpBySymbol(Peek().text);
      if (!op) return Error("expected comparison operator in HAVING");
      Advance();
      AQUA_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
      HavingClause having;
      having.func = agg.func;
      having.attribute = std::move(agg.attribute);
      having.distinct = agg.distinct;
      having.op = *op;
      having.literal = std::move(literal);
      q.having = std::move(having);
    }
    AQUA_RETURN_NOT_OK(q.Validate());
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<ParsedQuery> SqlParser::Parse(std::string_view sql) {
  obs::TraceSpan span("SqlParser::Parse");
  Lexer lexer(sql);
  AQUA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<AggregateQuery> SqlParser::ParseSimple(std::string_view sql) {
  AQUA_ASSIGN_OR_RETURN(ParsedQuery q, Parse(sql));
  if (q.kind != ParsedQuery::Kind::kSimple) {
    return Status::InvalidArgument("expected a flat aggregate query");
  }
  return std::move(q.simple);
}

Result<NestedAggregateQuery> SqlParser::ParseNested(std::string_view sql) {
  AQUA_ASSIGN_OR_RETURN(ParsedQuery q, Parse(sql));
  if (q.kind != ParsedQuery::Kind::kNested) {
    return Status::InvalidArgument("expected a nested aggregate query");
  }
  return std::move(q.nested);
}

}  // namespace aqua

//! Constant/symbolic bound propagation: the numeric domain behind the
//! probe-budget certificate.
//!
//! A [`Bound`] is a normalized sum of products over nonnegative
//! integer symbols — `retry-attempts * coupon-samples + 3` — or the
//! explicit top element `unbounded`. The domain supports exactly the
//! operations the summarizer needs: addition (sequential
//! composition), multiplication (loop nesting), join (imprecise
//! call fan-out; termwise max, a sound upper bound because every
//! symbol denotes a nonnegative integer), and a sound-but-incomplete
//! `leq` (termwise coefficient domination after normalization) used
//! by D015 to compare certified against declared budgets.
//!
//! Trip counts come from three sources, in priority order:
//!
//! 1. a `// lcakp-lint: loop-bound(<expr>) reason="…"` annotation on
//!    the loop line or the line above,
//! 2. `for … in a..b` / `a..=b` range headers whose endpoints are
//!    integer literals, file-local integer `const`s, or simple
//!    parameter identifiers (which become symbols),
//! 3. nothing — `while` / `loop` and complex iterators are
//!    `unbounded` until annotated.
//!
//! Expressions use kebab-case symbols (`[A-Za-z][A-Za-z0-9_-]*`),
//! `+`, `*`, integer literals and parentheses. `recursion-bound`
//! payloads (e.g. `log* bits`) predate this grammar and are treated
//! as single opaque symbols, rendered parenthesized.

use std::collections::BTreeMap;

use crate::cfg::{range_header, LoopKind, LoopSite};
use crate::context::FileCtx;
use crate::lexer::TokenKind;

/// The `loop-bound` directive prefix (shared with D009's directive
/// whitelist).
pub const LOOP_BOUND_DIRECTIVE: &str = "lcakp-lint: loop-bound(";

/// The `probe-total` directive prefix: the amortized total of a batch
/// oracle call's probes over one invocation of its enclosing fn.
pub const PROBE_TOTAL_DIRECTIVE: &str = "lcakp-lint: probe-total(";

/// The `batch-count` directive prefix: binds the `batch-count` symbol
/// of a callee's summary at one call site.
pub const BATCH_COUNT_DIRECTIVE: &str = "lcakp-lint: batch-count(";

/// One product term: `coeff * sym_1 * … * sym_k`, symbols kept as a
/// sorted multiset so equal products compare equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Term {
    /// Nonnegative integer coefficient (saturating arithmetic).
    pub coeff: u64,
    /// Sorted symbol multiset.
    pub syms: Vec<String>,
}

/// A normalized sum-of-products upper bound over nonnegative integer
/// symbols, with an explicit top element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    /// Terms, sorted by (descending degree, symbols); empty means 0.
    pub terms: Vec<Term>,
    /// Top: no finite symbolic bound is known.
    pub unbounded: bool,
}

impl Bound {
    /// The additive identity.
    pub fn zero() -> Self {
        Bound {
            terms: Vec::new(),
            unbounded: false,
        }
    }

    /// A constant bound.
    pub fn constant(n: u64) -> Self {
        let terms = if n == 0 {
            Vec::new()
        } else {
            vec![Term {
                coeff: n,
                syms: Vec::new(),
            }]
        };
        Bound {
            terms,
            unbounded: false,
        }
    }

    /// A single symbol with coefficient 1.
    pub fn symbol(name: &str) -> Self {
        Bound {
            terms: vec![Term {
                coeff: 1,
                syms: vec![name.to_string()],
            }],
            unbounded: false,
        }
    }

    /// The top element.
    pub fn unbounded() -> Self {
        Bound {
            terms: Vec::new(),
            unbounded: true,
        }
    }

    /// True for the top element.
    pub fn is_unbounded(&self) -> bool {
        self.unbounded
    }

    /// True for the (finite) zero bound.
    pub fn is_zero(&self) -> bool {
        !self.unbounded && self.terms.is_empty()
    }

    fn normalize(mut terms: Vec<Term>) -> Vec<Term> {
        let mut by_syms: BTreeMap<Vec<String>, u64> = BTreeMap::new();
        for term in terms.drain(..) {
            if term.coeff == 0 {
                continue;
            }
            let slot = by_syms.entry(term.syms).or_insert(0);
            *slot = slot.saturating_add(term.coeff);
        }
        let mut out: Vec<Term> = by_syms
            .into_iter()
            .map(|(syms, coeff)| Term { coeff, syms })
            .collect();
        // Descending degree, then symbol order: products first,
        // constant term last — the conventional polynomial layout.
        out.sort_by(|a, b| {
            b.syms
                .len()
                .cmp(&a.syms.len())
                .then_with(|| a.syms.cmp(&b.syms))
        });
        out
    }

    /// Sequential composition: `self + other`.
    #[must_use]
    pub fn add(&self, other: &Bound) -> Bound {
        if self.unbounded || other.unbounded {
            return Bound::unbounded();
        }
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        Bound {
            terms: Bound::normalize(terms),
            unbounded: false,
        }
    }

    /// Loop nesting: `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Bound) -> Bound {
        // 0 * x = 0 even against top: a loop that runs zero-cost work
        // any number of times costs nothing.
        if self.is_zero() || other.is_zero() {
            return Bound::zero();
        }
        if self.unbounded || other.unbounded {
            return Bound::unbounded();
        }
        let mut terms = Vec::new();
        for a in &self.terms {
            for b in &other.terms {
                let mut syms = a.syms.clone();
                syms.extend(b.syms.iter().cloned());
                syms.sort();
                terms.push(Term {
                    coeff: a.coeff.saturating_mul(b.coeff),
                    syms,
                });
            }
        }
        Bound {
            terms: Bound::normalize(terms),
            unbounded: false,
        }
    }

    /// Imprecise fan-out: an upper bound for `max(self, other)` —
    /// termwise maximum of coefficients, sound because symbols are
    /// nonnegative integers.
    #[must_use]
    pub fn join(&self, other: &Bound) -> Bound {
        if self.unbounded || other.unbounded {
            return Bound::unbounded();
        }
        let mut by_syms: BTreeMap<Vec<String>, u64> = BTreeMap::new();
        for term in self.terms.iter().chain(other.terms.iter()) {
            let slot = by_syms.entry(term.syms.clone()).or_insert(0);
            *slot = (*slot).max(term.coeff);
        }
        Bound {
            terms: Bound::normalize(
                by_syms
                    .into_iter()
                    .map(|(syms, coeff)| Term { coeff, syms })
                    .collect(),
            ),
            unbounded: false,
        }
    }

    /// Sound-but-incomplete order: true when every term of `self` is
    /// coefficient-dominated by the matching term of `other`. A
    /// `false` result may still be a true inequality for some symbol
    /// valuations — D015 asks authors to declare budgets in the same
    /// shape the summarizer derives, where equality holds exactly.
    pub fn leq(&self, other: &Bound) -> bool {
        if other.unbounded {
            return true;
        }
        if self.unbounded {
            return false;
        }
        self.terms.iter().all(|term| {
            other
                .terms
                .iter()
                .find(|o| o.syms == term.syms)
                .is_some_and(|o| term.coeff <= o.coeff)
        })
    }

    /// Canonical rendering: `2 * retry-attempts * coupon-samples + 3`,
    /// `0`, or `unbounded`. Opaque symbols containing characters
    /// outside the expression grammar (e.g. `log* bits` from a
    /// `recursion-bound`) render parenthesized.
    pub fn render(&self) -> String {
        if self.unbounded {
            return "unbounded".to_string();
        }
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (i, term) in self.terms.iter().enumerate() {
            if i > 0 {
                out.push_str(" + ");
            }
            let mut factors: Vec<String> = Vec::new();
            if term.coeff != 1 || term.syms.is_empty() {
                factors.push(term.coeff.to_string());
            }
            for sym in &term.syms {
                if is_plain_symbol(sym) {
                    factors.push(sym.clone());
                } else {
                    factors.push(format!("({sym})"));
                }
            }
            out.push_str(&factors.join(" * "));
        }
        out
    }

    /// Evaluates the bound under a symbol valuation. `None` when the
    /// bound is unbounded or mentions a symbol the valuation does not
    /// cover.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<u64>) -> Option<u64> {
        if self.unbounded {
            return None;
        }
        let mut total: u64 = 0;
        for term in &self.terms {
            let mut value = term.coeff;
            for sym in &term.syms {
                value = value.saturating_mul(lookup(sym)?);
            }
            total = total.saturating_add(value);
        }
        Some(total)
    }

    /// The bound with every occurrence of `sym` replaced by `with`: a
    /// term `c · sym^k · rest` becomes `c · with^k · rest`. Sound
    /// because the bound is monotone in each symbol.
    #[must_use]
    pub fn substitute(&self, sym: &str, with: &Bound) -> Bound {
        if self.unbounded {
            return Bound::unbounded();
        }
        let mut out = Bound::zero();
        for term in &self.terms {
            let mut product = Bound {
                terms: vec![Term {
                    coeff: term.coeff,
                    syms: term.syms.iter().filter(|s| *s != sym).cloned().collect(),
                }],
                unbounded: false,
            };
            for _ in term.syms.iter().filter(|s| *s == sym) {
                product = product.mul(with);
            }
            out = out.add(&product);
        }
        out
    }

    /// Every distinct symbol mentioned by the bound, sorted.
    pub fn symbols(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .terms
            .iter()
            .flat_map(|t| t.syms.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

fn is_plain_symbol(sym: &str) -> bool {
    let mut chars = sym.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && sym
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

// ---------------------------------------------------------------------------
// Expression parsing
// ---------------------------------------------------------------------------

/// Parses a bound expression: `expr := term ('+' term)*`,
/// `term := factor ('*' factor)*`, `factor := INT | SYMBOL |
/// '(' expr ')'`, symbols `[A-Za-z][A-Za-z0-9_-]*`. Returns `None`
/// on any syntax error — an unparseable annotation never silently
/// bounds a loop.
pub fn parse_bound(text: &str) -> Option<Bound> {
    let tokens = lex_expr(text)?;
    let mut pos = 0usize;
    let bound = parse_sum(&tokens, &mut pos)?;
    if pos == tokens.len() {
        Some(bound)
    } else {
        None
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ExprTok {
    Int(u64),
    Sym(String),
    Plus,
    Star,
    Open,
    Close,
}

fn lex_expr(text: &str) -> Option<Vec<ExprTok>> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' => {
                chars.next();
            }
            '+' => {
                chars.next();
                out.push(ExprTok::Plus);
            }
            '*' => {
                chars.next();
                out.push(ExprTok::Star);
            }
            '(' => {
                chars.next();
                out.push(ExprTok::Open);
            }
            ')' => {
                chars.next();
                out.push(ExprTok::Close);
            }
            '0'..='9' => {
                let mut value: u64 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(digit) = d.to_digit(10) {
                        value = value.saturating_mul(10).saturating_add(u64::from(digit));
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(ExprTok::Int(value));
            }
            c if c.is_ascii_alphabetic() => {
                let mut sym = String::new();
                while let Some(&s) = chars.peek() {
                    if s.is_ascii_alphanumeric() || s == '_' || s == '-' {
                        sym.push(s);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(ExprTok::Sym(sym));
            }
            _ => return None,
        }
    }
    Some(out)
}

fn parse_sum(tokens: &[ExprTok], pos: &mut usize) -> Option<Bound> {
    let mut acc = parse_product(tokens, pos)?;
    while tokens.get(*pos) == Some(&ExprTok::Plus) {
        *pos += 1;
        acc = acc.add(&parse_product(tokens, pos)?);
    }
    Some(acc)
}

fn parse_product(tokens: &[ExprTok], pos: &mut usize) -> Option<Bound> {
    let mut acc = parse_factor(tokens, pos)?;
    while tokens.get(*pos) == Some(&ExprTok::Star) {
        *pos += 1;
        acc = acc.mul(&parse_factor(tokens, pos)?);
    }
    Some(acc)
}

fn parse_factor(tokens: &[ExprTok], pos: &mut usize) -> Option<Bound> {
    match tokens.get(*pos)? {
        ExprTok::Int(n) => {
            *pos += 1;
            Some(Bound::constant(*n))
        }
        ExprTok::Sym(s) => {
            *pos += 1;
            Some(Bound::symbol(s))
        }
        ExprTok::Open => {
            *pos += 1;
            let inner = parse_sum(tokens, pos)?;
            if tokens.get(*pos) == Some(&ExprTok::Close) {
                *pos += 1;
                Some(inner)
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Trip-count derivation
// ---------------------------------------------------------------------------

/// File-local integer constants: `const NAME: <ty> = <int literal>;`.
/// Used to const-resolve `for _ in 0..BATCHES` trip counts.
pub fn int_consts(ctx: &FileCtx) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    let tokens = &ctx.tokens;
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        let is_const = tokens[i].kind == TokenKind::Ident && tokens[i].text == "const";
        if !is_const {
            i += 1;
            continue;
        }
        let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // Find `= <Int> ;` before the statement ends.
        let mut j = i + 2;
        while let Some(tok) = tokens.get(j) {
            match tok.text.as_str() {
                "=" => {
                    if let Some(lit) = tokens.get(j + 1).filter(|t| t.kind == TokenKind::Int) {
                        if tokens.get(j + 2).is_some_and(|t| t.text == ";") {
                            if let Some(value) = int_literal_value(&lit.text) {
                                map.insert(name.text.clone(), value);
                            }
                        }
                    }
                    break;
                }
                ";" | "{" => break,
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    map
}

/// Parses a Rust integer literal token's value: digits with optional
/// `_` separators and a type suffix (`32`, `1_000`, `64u64`).
pub fn int_literal_value(text: &str) -> Option<u64> {
    // Decimal only: a hex/octal/binary literal must not misparse as
    // its leading `0`.
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return None;
    }
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// A `loop-bound(<expr>)` annotation anchored to the loop's line (on
/// the line, or the line directly above), parsed; requires a
/// non-empty reason.
pub fn loop_bound_annotation(ctx: &FileCtx, line: u32) -> Option<Bound> {
    line_annotation(ctx, line, LOOP_BOUND_DIRECTIVE)
}

/// A bound-valued directive (`loop-bound`, `probe-total`,
/// `batch-count`) anchored to a source line — on the line or the line
/// directly above — parsed; requires a non-empty reason.
pub fn line_annotation(ctx: &FileCtx, line: u32, directive: &str) -> Option<Bound> {
    for c in &ctx.comments {
        if c.line != line && c.line + 1 != line {
            continue;
        }
        if !c.text.starts_with("//") || c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        if let Some(expr) = crate::callgraph::parse_expr_directive(&c.text, directive) {
            return parse_bound(&expr);
        }
    }
    None
}

/// The trip-count upper bound of one loop: annotation first, then
/// const/symbolic range derivation, else unbounded.
///
/// Range derivation is deliberately simple: each endpoint must be a
/// single token — an integer literal, a file-local integer `const`
/// (resolved through `consts`), or a plain identifier, which becomes
/// a symbol named after it. For a range `a..b` over the unsigned
/// integers the trip count is `b - a ≤ b`, so when only the end
/// resolves the end alone is still a sound bound (`+1` when
/// inclusive).
pub fn loop_trip_bound(ctx: &FileCtx, lp: &LoopSite, consts: &BTreeMap<String, u64>) -> Bound {
    if let Some(annotated) = loop_bound_annotation(ctx, lp.line) {
        return annotated;
    }
    if lp.kind != LoopKind::For {
        return Bound::unbounded();
    }
    let Some((start, end, inclusive)) = range_header(ctx, lp) else {
        return Bound::unbounded();
    };
    let Some(end_tok) = end.single(ctx) else {
        return Bound::unbounded();
    };
    let end_bound = match end_tok.kind {
        TokenKind::Int => int_literal_value(&end_tok.text).map(Bound::constant),
        TokenKind::Ident if !crate::cfg::keywordish(&end_tok.text) => {
            match consts.get(&end_tok.text) {
                Some(&value) => Some(Bound::constant(value)),
                None => Some(Bound::symbol(&end_tok.text)),
            }
        }
        _ => None,
    };
    let Some(end_bound) = end_bound else {
        return Bound::unbounded();
    };
    // Tighten with a constant start when both endpoints are consts.
    let start_value = start.single(ctx).and_then(|t| match t.kind {
        TokenKind::Int => int_literal_value(&t.text),
        TokenKind::Ident => consts.get(&t.text).copied(),
        _ => None,
    });
    let extra = u64::from(inclusive);
    match (start_value, end_bound.terms.as_slice()) {
        (Some(a), [only]) if only.syms.is_empty() => {
            Bound::constant(only.coeff.saturating_add(extra).saturating_sub(a))
        }
        _ => end_bound.add(&Bound::constant(extra)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::extract_loops;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::from_source("x.rs", "core", src).unwrap()
    }

    fn first_loop_bound(src: &str) -> Bound {
        let c = ctx(src);
        let open = c.tokens.iter().position(|t| t.text == "{").unwrap();
        let close = c.tokens.len() - 1;
        let loops = extract_loops(&c, open, close);
        assert!(!loops.is_empty(), "no loops in {src:?}");
        let consts = int_consts(&c);
        loop_trip_bound(&c, &loops[0], &consts)
    }

    #[test]
    fn arithmetic_normalizes_and_renders() {
        let a = parse_bound("retry-attempts * (coupon-samples + eps-estimation-samples + 1)")
            .expect("parse");
        let b = parse_bound(
            "retry-attempts * coupon-samples + retry-attempts * eps-estimation-samples \
             + retry-attempts",
        )
        .expect("parse");
        assert_eq!(a, b);
        assert_eq!(
            a.render(),
            "coupon-samples * retry-attempts + eps-estimation-samples * retry-attempts \
             + retry-attempts"
        );
        assert!(a.leq(&b) && b.leq(&a));
    }

    #[test]
    fn join_is_termwise_max_and_mul_annihilates_on_zero() {
        let a = parse_bound("2 * n + 3").unwrap();
        let b = parse_bound("n + m").unwrap();
        assert_eq!(a.join(&b).render(), "m + 2 * n + 3");
        assert!(Bound::zero().mul(&Bound::unbounded()).is_zero());
        assert!(Bound::unbounded().mul(&a).is_unbounded());
    }

    #[test]
    fn leq_is_termwise_domination() {
        let small = parse_bound("n + 2").unwrap();
        let big = parse_bound("2 * n + 2").unwrap();
        assert!(small.leq(&big));
        assert!(!big.leq(&small));
        assert!(small.leq(&Bound::unbounded()));
        assert!(!Bound::unbounded().leq(&big));
    }

    #[test]
    fn eval_applies_the_valuation() {
        let bound = parse_bound("retries * samples + 1").unwrap();
        let value = bound.eval(&|sym| match sym {
            "retries" => Some(3),
            "samples" => Some(10),
            _ => None,
        });
        assert_eq!(value, Some(31));
        assert_eq!(bound.eval(&|_| None), None);
        assert_eq!(Bound::unbounded().eval(&|_| Some(1)), None);
    }

    #[test]
    fn substitute_replaces_every_power_of_the_symbol() {
        let b =
            parse_bound("batch-count * retry-attempts + batch-count * batch-count + 2").unwrap();
        let with = parse_bound("coupon-samples + 1").unwrap();
        assert_eq!(
            b.substitute("batch-count", &with).render(),
            "coupon-samples * coupon-samples + coupon-samples * retry-attempts + \
             2 * coupon-samples + retry-attempts + 3"
        );
        assert_eq!(b.substitute("absent", &with), b);
        assert!(Bound::unbounded()
            .substitute("batch-count", &with)
            .is_unbounded());
    }

    #[test]
    fn bad_expressions_do_not_parse() {
        for bad in ["", "n +", "2 ** m", "(n", "n)", "a b", "-3", "n/2"] {
            assert!(parse_bound(bad).is_none(), "{bad:?} parsed");
        }
    }

    #[test]
    fn const_range_resolves_to_a_constant() {
        let b = first_loop_bound(
            "const BATCHES: usize = 32;\nfn f() { for _ in 0..BATCHES { work(); } }\n",
        );
        assert_eq!(b, Bound::constant(32));
        let b = first_loop_bound("fn f() { for _ in 2..10 { work(); } }\n");
        assert_eq!(b, Bound::constant(8));
        let b = first_loop_bound("fn f() { for _ in 1..=10 { work(); } }\n");
        assert_eq!(b, Bound::constant(10));
    }

    #[test]
    fn param_range_becomes_a_symbol() {
        let b = first_loop_bound("fn f(m: u64) { for _ in 0..m { work(); } }\n");
        assert_eq!(b, Bound::symbol("m"));
        let b = first_loop_bound("fn f(t: u64) { for k in 1..=t { work(k); } }\n");
        assert_eq!(b.render(), "t + 1");
    }

    #[test]
    fn annotations_override_and_require_reasons() {
        let b = first_loop_bound(
            "fn f(v: &[u8]) {\n    // lcakp-lint: loop-bound(grid-steps) reason=\"grid walk\"\n    \
             for x in v.iter() { work(x); }\n}\n",
        );
        assert_eq!(b, Bound::symbol("grid-steps"));
        // Missing reason: the annotation is ignored.
        let b = first_loop_bound(
            "fn f(v: &[u8]) {\n    // lcakp-lint: loop-bound(grid-steps)\n    \
             for x in v.iter() { work(x); }\n}\n",
        );
        assert!(b.is_unbounded());
    }

    #[test]
    fn while_and_complex_iterators_are_unbounded() {
        assert!(first_loop_bound("fn f(n: u64) { while n > 0 { work(); } }\n").is_unbounded());
        assert!(
            first_loop_bound("fn f(v: &[u8]) { for x in v.iter() { work(x); } }\n").is_unbounded()
        );
        assert!(
            first_loop_bound("fn f(v: &[u8]) { for i in 0..v.len() { work(i); } }\n")
                .is_unbounded()
        );
    }

    #[test]
    fn int_consts_resolve_literals_only() {
        let c = ctx("const A: usize = 1_000;\nconst B: u64 = 7u64;\nconst C: usize = 2 * 3;\n");
        let consts = int_consts(&c);
        assert_eq!(consts.get("A"), Some(&1000));
        assert_eq!(consts.get("B"), Some(&7));
        assert_eq!(consts.get("C"), None);
    }
}

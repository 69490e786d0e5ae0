"""Line-oriented experiment description language.

Declarations bind kets, operators, PDIs, and history families to names;
queries reference those names. Operator expressions evaluate eagerly at load,
so every failure (bad syntax, unknown name, kind mismatch, dimension mismatch,
a member set that is not a decomposition of the identity) surfaces while
loading, as ParseError or its ResolutionError subclass, never during query
execution.

Grammar sketch (one statement per line; families use a brace block):

    decl  := "ket" NAME "=" "[" centry ("," centry)* "]"
           | "op" NAME "=" expr
           | "pdi" NAME "=" "spectral(" NAME ")" | "pdi" NAME "=" "{" NAME ("," NAME)* "}"
           | "family" NAME "{" ("initial" NAME | "prop" INT "=" NAME
                                | "events" INT "=" NAME) ";" ... "}"
    expr  := term (("+"|"-") term)* ; term := factor ("*" factor)*
    factor:= "-" factor | SCALAR | NAME | "X" | "Y" | "Z" | "I(" INT ")"
           | "sigma(" angle ")" | "kron(" expr "," expr ")" | "proj(" NAME ")"
    query := "query" ("chsh"|"lhv") NAME NAME NAME NAME "in" NAME
           | "query" ("probs"|"consistency") NAME
           | "query" "conditional" NAME INT ":" LABEL "|" INT ":" LABEL
           | "query" "sample" NAME NAME "shots" INT "seed" INT
           | "query" "nosignal" NAME "dims" INT INT "alice" NAME+ "bob" NAME

Limits: dimensions up to MAX_DIM, shot counts up to sampler.MAX_SHOTS.

Complex literals are a, ai, a+bi, a-bi with plain decimals (no exponent
notation); a leading minus negates the first component. A ket literal is
lexed from its `[` to the first `]` on the line. If that text holds only
digits, `.`, `-`, commas and blanks, it converts with one float() per
entry; otherwise, or if a float() fails, each entry is matched against the
entry pattern and converted with complex(). Either way the literal is one
token carrying its amplitudes. A literal that neither path accepts leaves
its `[` as punctuation and is walked token by token, only to locate its
first error: the walk converts no values, since the lexer converts every
literal the walk would accept. In operator expressions a scalar is a single
real or pure-imaginary literal. A +/- chain evaluates in one loop, its
terms c*proj(v) as one product over the stacked kets; a chain of d such
terms on d kets, every c real and no other operator term, keeps its kets
and weights, and `spectral(H)` of it reads its eigenpairs from them instead
of factoring H. Angles are degrees. `#` starts a comment; names are
declared before use.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ParseError, ResolutionError, ToolkitError
from .hilbert import (
    PDI,
    Ket,
    Operator,
    Projector,
    _check_dims,
    _projector_sum,
    builtin_operator,
    spectral_decompose,
    tensor_product,
)
from .histories import HistoryFamily, TimeGrid, _check_event
from .sampler import MAX_SHOTS

__all__ = [
    "ExperimentSpec",
    "Binding",
    "parse_spec",
    "render_spec",
    "KetDecl",
    "OpDecl",
    "PdiSpectral",
    "PdiExplicit",
    "FamilyDecl",
    "BellQuery",
    "FamilyQuery",
    "ConditionalQuery",
    "SampleQuery",
    "NoSignalQuery",
]

MAX_DIM = 1024
MAX_EXPR_DEPTH = 64
MAX_ERRORS = 20

# names with fixed meaning inside operator expressions
_RESERVED = {"I", "X", "Y", "Z", "sigma", "kron", "proj", "spectral"}


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Builtin:
    name: str  # "I" | "X" | "Y" | "Z"
    dim: int = 2  # read only for "I"


@dataclass(frozen=True)
class BuiltinSigma:
    angle_deg: float


@dataclass(frozen=True)
class Kron:
    left: object
    right: object


@dataclass(frozen=True)
class Proj:
    ket: str


@dataclass(frozen=True)
class ScalarLit:
    value: complex


@dataclass(frozen=True)
class Neg:
    inner: object


@dataclass(frozen=True)
class Sum:
    terms: tuple[tuple[str, object], ...]  # (sign, term) in source order; the first sign is "+"


@dataclass(frozen=True)
class Product:
    factors: tuple[object, ...]  # in source order


@dataclass(frozen=True)
class KetDecl:
    name: str
    amplitudes: tuple[complex, ...]


@dataclass(frozen=True)
class OpDecl:
    name: str
    expr: object


@dataclass(frozen=True)
class PdiSpectral:
    name: str
    operand: str


@dataclass(frozen=True)
class PdiExplicit:
    name: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class FamilyDecl:
    name: str
    initial: str
    props: tuple[tuple[int, str], ...]   # sorted by time index
    events: tuple[tuple[int, str], ...]  # sorted by time index


# every query exposes `kind`, the keyword that introduces it in a spec
@dataclass(frozen=True)
class BellQuery:
    kind: str  # "chsh" | "lhv"
    a0: str
    a1: str
    b0: str
    b1: str
    state: str


@dataclass(frozen=True)
class FamilyQuery:
    kind: str  # "probs" | "consistency"
    family: str


@dataclass(frozen=True)
class ConditionalQuery:
    family: str
    target: tuple[int, str]
    given: tuple[int, str]
    kind: ClassVar[str] = "conditional"


@dataclass(frozen=True)
class SampleQuery:
    state: str
    pdi: str
    shots: int
    seed: int
    kind: ClassVar[str] = "sample"


@dataclass(frozen=True)
class NoSignalQuery:
    state: str
    da: int
    db: int
    alice: tuple[str, ...]
    bob: str
    kind: ClassVar[str] = "nosignal"


@dataclass(frozen=True)
class Binding:
    kind: str  # "ket" | "op" | "pdi" | "family"
    value: object
    extra: object = None  # spectral PDIs keep their eigenvalue tuple here


@dataclass(frozen=True)
class ExperimentSpec:
    declarations: tuple[object, ...]
    queries: tuple[object, ...]
    environment: dict[str, Binding] = field(compare=False, repr=False)


# --- tokenizer ---------------------------------------------------------

_NUM = r"(?:\d+\.\d*|\.\d+|\d+)"
_NUMBER_RE = re.compile(_NUM)
# One ket entry: a, ai, a+bi or a-bi, optionally negated, with the blanks
# around it. No two blank runs of the pattern can share one run of the text,
# so an entry that falls short fails in time linear in its length instead
# of backtracking over the ways to split a run.
_ENTRY_RE = re.compile(rf"[ \t]*(?:-[ \t]*)?{_NUM}(?:i|[ \t]*[+\-][ \t]*{_NUM}i)?[ \t]*")
_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>[ \t]+)
    | (?P<imag>{_NUM}i\b)
    | (?P<number>{_NUM})
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[={{}}\[\](),;:|+\-*])
    """,
    re.VERBOSE,
)
# deletes every character a real literal may hold. On text made of these
# alone, float() accepts exactly the entries [ \t]*-?NUM[ \t]*, a subset of
# the entry pattern, so where it succeeds the pattern would too.
_REAL_LITERAL = str.maketrans("", "", "0123456789.-, \t")
# an entry's text as complex() reads it
_ENTRY_TO_COMPLEX = str.maketrans("i", "j", " \t")


def _literal(body: str) -> np.ndarray | None:
    """The amplitudes of the ket literal `[body]`, or None if body is not a
    comma-separated list of entries. A real literal converts with one float()
    per entry; any other, such as one with a complex entry or a blank after
    a minus, converts entry by entry."""
    pieces = body.split(",")
    if not body.translate(_REAL_LITERAL):
        try:
            return np.array(list(map(float, pieces))).astype(complex)
        except ValueError:
            pass  # such as "- 1", which only the entry pattern accepts
    if all(map(_ENTRY_RE.fullmatch, pieces)):
        return np.array([complex(p.translate(_ENTRY_TO_COMPLEX)) for p in pieces])
    return None


class _Token(NamedTuple):
    kind: str  # NAME | NUMBER | IMAG | VECTOR | PUNCT | NEWLINE | EOF
    text: str
    line: int
    col: int
    value: np.ndarray | None = None  # a VECTOR's amplitudes


def _tokenize(source: str) -> tuple[list[_Token], list[ParseError]]:
    """Token stream plus any bad-character errors; a bad character drops the
    rest of its line so later lines still parse."""
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    lines = source.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r")
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        pos = 0
        line_start = len(tokens)
        close = -1  # the first "]" at or after pos; len(line) if there is none
        while pos < len(line):
            if line[pos] == "[":
                if close < pos:
                    close = line.find("]", pos)
                    if close < 0:
                        close = len(line)
                # a literal holds no "[", so each "]" ends at most one
                # literal that is converted: the lexer stays linear
                if close < len(line) and line.find("[", pos + 1, close) < 0:
                    values = _literal(line[pos + 1 : close])
                    if values is not None:
                        tokens.append(
                            _Token("VECTOR", line[pos : close + 1], lineno, pos + 1, values)
                        )
                        pos = close + 1
                        continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                errors.append(
                    ParseError(
                        lineno, pos + 1, f"unexpected character {line[pos]!r}", line[pos]
                    )
                )
                del tokens[line_start:]
                break
            kind = m.lastgroup
            if kind != "ws":
                tokens.append(_Token(kind.upper(), m.group(), lineno, pos + 1))
            pos = m.end()
        tokens.append(_Token("NEWLINE", "", lineno, len(raw) + 1))
    tokens.append(_Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return tokens, errors


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], lex_errors: list[ParseError] | None = None):
        self.tokens = tokens
        self.pos = 0
        self.declarations: list[object] = []
        self.queries: list[object] = []
        self.env: dict[str, Binding] = {}
        self.errors: list[ParseError] = list(lex_errors or [])

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        raise ParseError(tok.line, tok.col, message, tok.text)

    def resolve_fail(self, tok: _Token, message: str):
        raise ResolutionError(tok.line, tok.col, message, tok.text)

    def number(self, tok: _Token) -> float:
        """A NUMBER or IMAG literal's value; one past the float range fails here."""
        value = float(tok.text.rstrip("i"))
        if not math.isfinite(value):
            self.resolve_fail(tok, "number out of range")
        return value

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            self.fail(tok, f"expected {text!r}")
        return self.advance()

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail(tok, f"expected {what}")
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            self.fail(tok, f"expected keyword {word!r}")
        return self.advance()

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            self.fail(tok, f"expected {what} (an unsigned integer)")
        self.advance()
        return int(tok.text), tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def end_statement(self):
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            self.fail(tok, "unexpected trailing input")

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.advance()

    def recover_to_next_line(self):
        while self.peek().kind not in ("NEWLINE", "EOF"):
            self.advance()
        if self.peek().kind == "NEWLINE":
            self.advance()

    # entry point

    def parse(self) -> ExperimentSpec:
        while True:
            self.skip_newlines()
            if self.peek().kind == "EOF":
                break
            start = self.pos
            try:
                self.statement()
            except ParseError as err:
                self.errors.append(err)
                if len(self.errors) >= MAX_ERRORS:
                    break
                # a statement that read its line end (every resolution error
                # after end_statement) already stands at the next statement
                if self.pos == start or self.tokens[self.pos - 1].kind != "NEWLINE":
                    self.recover_to_next_line()
        if self.errors:
            ordered = sorted(self.errors, key=lambda e: (e.line, e.column))
            first = ordered[0]
            first.all_errors = ordered[:MAX_ERRORS]
            raise first
        return ExperimentSpec(
            declarations=tuple(self.declarations),
            queries=tuple(self.queries),
            environment=self.env,
        )

    def statement(self):
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail(tok, "expected a declaration or query")
        handler = {
            "ket": self.ket_decl,
            "op": self.op_decl,
            "pdi": self.pdi_decl,
            "family": self.family_decl,
            "query": self.query,
        }.get(tok.text)
        if handler is None:
            self.fail(tok, f"unknown statement {tok.text!r}")
        handler()

    # declarations

    def decl_name(self) -> _Token:
        tok = self.expect_name("a declaration name")
        if tok.text in _RESERVED:
            self.fail(tok, f"{tok.text!r} is reserved")
        if tok.text in self.env:
            self.resolve_fail(tok, f"{tok.text!r} is already declared")
        return tok

    def bind(self, name_tok: _Token, decl, binding: Binding):
        self.declarations.append(decl)
        self.env[name_tok.text] = binding

    def evaluated(self, tok: _Token, thunk):
        """Run an eager-evaluation step, mapping any library failure to a
        load-time ResolutionError at the given token."""
        try:
            return thunk()
        except Exception as err:  # noqa: BLE001 - load must not crash
            self.resolve_fail(tok, str(err) or type(err).__name__)

    def ket_decl(self):
        self.expect_keyword("ket")
        name = self.decl_name()
        self.expect_punct("=")
        amplitudes = self.vector()
        self.end_statement()
        ket = self.evaluated(name, lambda: Ket(amplitudes))
        self.bind(name, KetDecl(name.text, tuple(amplitudes.tolist())), Binding("ket", ket))

    def op_decl(self):
        self.expect_keyword("op")
        name = self.decl_name()
        self.expect_punct("=")
        expr = self.expr(0)
        self.end_statement()
        # in-range literals can still overflow in a sum or product; that is
        # reported at the name below, not warned about here
        with np.errstate(over="ignore", invalid="ignore"):
            value = self._eval(expr, name)
        if not isinstance(value, Operator):
            self.resolve_fail(name, "operator expression evaluates to a bare scalar")
        if not np.isfinite(value.entries).all():
            self.resolve_fail(name, "operator entries overflow the float range")
        self.bind(name, OpDecl(name.text, expr), Binding("op", value))

    def pdi_decl(self):
        self.expect_keyword("pdi")
        name = self.decl_name()
        self.expect_punct("=")
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == "spectral":
            self.advance()
            self.expect_punct("(")
            operand = self.expect_name("an operator name")
            self.expect_punct(")")
            self.end_statement()
            op = self.lookup(operand, "op")
            obs = self.evaluated(operand, lambda: spectral_decompose(op))
            self.bind(
                name,
                PdiSpectral(name.text, operand.text),
                Binding("pdi", obs.pdi, extra=obs.eigenvalues),
            )
            return
        self.expect_punct("{")
        members = [self.expect_name("a member name")]
        while self.at_punct(","):
            self.advance()
            members.append(self.expect_name("a member name"))
        self.expect_punct("}")
        self.end_statement()
        projectors = []
        for member in members:
            bound = self.lookup(member, None)
            if bound.kind == "ket":
                projectors.append(bound.value.projector())
            elif bound.kind == "op":
                projectors.append(self.evaluated(member, lambda b=bound: Projector(b.value)))
            else:
                self.resolve_fail(member, f"{member.text!r} is a {bound.kind}, not a ket or operator")
        labels = tuple(m.text for m in members)
        pdi = self.evaluated(name, lambda: PDI(projectors, labels=labels))
        self.bind(name, PdiExplicit(name.text, labels), Binding("pdi", pdi))

    def family_decl(self):
        self.expect_keyword("family")
        opened = False
        initial: _Token | None = None
        props: dict[int, _Token] = {}
        events: dict[int, _Token] = {}
        try:
            name = self.decl_name()
            self.expect_punct("{")
            opened = True
            while True:
                self.skip_newlines()
                tok = self.peek()
                if tok.kind == "EOF":
                    self.fail(tok, "unterminated family block")
                if self.at_punct("}"):
                    self.advance()
                    break
                if self.at_punct(";"):
                    self.advance()
                    continue
                word = self.expect_name("initial, prop, or events")
                if word.text == "initial":
                    if initial is not None:
                        self.resolve_fail(word, "initial state declared twice")
                    initial = self.expect_name("a ket name")
                elif word.text in ("prop", "events"):
                    index, index_tok = self.expect_int("a time index")
                    if index < 1:
                        self.resolve_fail(index_tok, "time indices start at 1")
                    self.expect_punct("=")
                    target = self.expect_name("a name")
                    table = props if word.text == "prop" else events
                    if index in table:
                        self.resolve_fail(index_tok, f"{word.text} {index} declared twice")
                    table[index] = target
                else:
                    self.fail(word, "expected initial, prop, or events")
                self.expect_punct(";")
        except ParseError:
            # resume after the block's "}", not on the next line inside it; a
            # header error skips a block only if its line opens one
            while not opened and self.peek().kind not in ("NEWLINE", "EOF"):
                opened = self.at_punct("{")
                self.advance()
            if opened:
                while self.peek().kind != "EOF" and not self.at_punct("}"):
                    self.advance()
                self.advance()
            raise
        self.end_statement()
        if initial is None:
            self.resolve_fail(name, "family block lacks an initial state")
        if not events:
            self.resolve_fail(name, "family block declares no events")
        n_times = max(events)
        if sorted(events) != list(range(1, n_times + 1)):
            self.resolve_fail(name, f"events must cover times 1..{n_times} exactly")
        for index in props:
            if index > n_times:
                self.resolve_fail(props[index], f"prop {index} is beyond the last event time")
        initial_ket = self.lookup(initial, "ket")
        pdis = tuple(self.lookup(events[i], "pdi") for i in range(1, n_times + 1))
        dim = initial_ket.dim
        eye = Operator(np.eye(dim, dtype=complex))
        propagators = tuple(
            self.lookup(props[i], "op") if i in props else eye for i in range(1, n_times + 1)
        )
        family = self.evaluated(
            name,
            lambda: HistoryFamily(
                grid=TimeGrid(
                    labels=tuple(f"t{i}" for i in range(n_times + 1)),
                    propagators=propagators,
                ),
                initial=initial_ket,
                event_pdis=pdis,
            ),
        )
        decl = FamilyDecl(
            name.text,
            initial.text,
            props=tuple((i, props[i].text) for i in sorted(props)),
            events=tuple((i, events[i].text) for i in sorted(events)),
        )
        self.bind(name, decl, Binding("family", family))

    # queries

    def query(self):
        self.expect_keyword("query")
        kind = self.expect_name("a query kind")
        handler = {
            "chsh": self.bell_query,
            "lhv": self.bell_query,
            "probs": self.family_query,
            "consistency": self.family_query,
            "conditional": self.conditional_query,
            "sample": self.sample_query,
            "nosignal": self.nosignal_query,
        }.get(kind.text)
        if handler is None:
            self.fail(kind, f"unknown query kind {kind.text!r}")
        handler(kind)

    def bell_query(self, kind: _Token):
        names = [self.expect_name("an operator name") for _ in range(4)]
        self.expect_keyword("in")
        state = self.expect_name("a ket name")
        self.end_statement()
        ops = [self.lookup(n, "op") for n in names]
        ket = self.lookup(state, "ket")
        for n, op in zip(names, ops):
            self.evaluated(n, lambda: _check_dims("state and operator", ket.dim, op.dim))
        self.queries.append(BellQuery(kind.text, *(n.text for n in names), state.text))

    def family_query(self, kind: _Token):
        fam = self.expect_name("a family name")
        self.end_statement()
        self.lookup(fam, "family")
        self.queries.append(FamilyQuery(kind.text, fam.text))

    def event_ref(self) -> tuple[tuple[int, str], _Token]:
        index, index_tok = self.expect_int("a time index")
        self.expect_punct(":")
        tok = self.peek()
        if tok.kind == "NAME":
            label = tok.text
        elif tok.kind == "NUMBER" and tok.text.isdigit():
            label = tok.text
        else:
            self.fail(tok, "expected an event label (name or integer)")
        self.advance()
        return (index, label), index_tok

    def conditional_query(self, kind: _Token):
        fam_tok = self.expect_name("a family name")
        target, target_tok = self.event_ref()
        self.expect_punct("|")
        given, given_tok = self.event_ref()
        self.end_statement()
        family = self.lookup(fam_tok, "family")
        for event, tok in ((target, target_tok), (given, given_tok)):
            self.evaluated(tok, lambda: _check_event(family, *event))
        self.queries.append(ConditionalQuery(fam_tok.text, target=target, given=given))

    def sample_query(self, kind: _Token):
        state = self.expect_name("a ket name")
        pdi = self.expect_name("a PDI name")
        self.expect_keyword("shots")
        shots, shots_tok = self.expect_int("a shot count")
        self.expect_keyword("seed")
        seed, seed_tok = self.expect_int("a seed")
        self.end_statement()
        ket = self.lookup(state, "ket")
        decomposition = self.lookup(pdi, "pdi")
        self.evaluated(pdi, lambda: _check_dims("state and PDI", ket.dim, decomposition.dim))
        if not 1 <= shots <= MAX_SHOTS:
            self.resolve_fail(shots_tok, f"shots must lie in 1..{MAX_SHOTS}")
        if seed >= 2**64:
            self.resolve_fail(seed_tok, "seed must fit in 64 unsigned bits")
        self.queries.append(SampleQuery(state.text, pdi.text, shots, seed))

    def nosignal_query(self, kind: _Token):
        state = self.expect_name("a ket name")
        self.expect_keyword("dims")
        da, da_tok = self.expect_int("Alice's dimension")
        db, db_tok = self.expect_int("Bob's dimension")
        self.expect_keyword("alice")
        alice = [self.expect_name("an Alice PDI name")]
        while self.peek().kind == "NAME" and self.peek().text != "bob":
            alice.append(self.expect_name("an Alice PDI name"))
        self.expect_keyword("bob")
        bob = self.expect_name("a Bob PDI name")
        self.end_statement()
        ket = self.lookup(state, "ket")
        if da < 1 or db < 1:
            self.resolve_fail(da_tok if da < 1 else db_tok, "local dimensions start at 1")
        if da * db != ket.dim:
            self.resolve_fail(da_tok, f"dims {da}x{db} do not compose to state dimension {ket.dim}")
        for tok in alice + [bob]:
            pdi = self.lookup(tok, "pdi")
            self.evaluated(
                tok, lambda: _check_dims("operator and factor product", pdi.dim, da * db)
            )
        self.queries.append(
            NoSignalQuery(state.text, da, db, tuple(t.text for t in alice), bob.text)
        )

    # literals and expressions

    def vector(self) -> np.ndarray:
        tok = self.peek()
        if tok.kind != "VECTOR":
            # a literal the lexer did not convert: walk its tokens to the
            # first error. The lexer converts every literal the walk accepts
            self.expect_punct("[")
            self.centry()
            while self.at_punct(","):
                self.advance()
                self.centry()
            self.expect_punct("]")
            raise AssertionError(f"unconverted ket literal at line {tok.line}, col {tok.col}")
        self.advance()
        entries = tok.value
        # the token keeps its text for errors but lets go of the array,
        # so a long spec holds no more than one literal's array at a time
        self.tokens[self.pos - 1] = tok._replace(value=None)
        if not np.isfinite(entries).all():
            # fail at the first number past the float range
            for m in _NUMBER_RE.finditer(tok.text):
                self.number(_Token("NUMBER", m.group(), tok.line, tok.col + m.start()))
        if len(entries) > MAX_DIM:
            self.resolve_fail(tok, f"vector longer than {MAX_DIM}")
        return entries

    def centry(self):
        """Walk one entry of a malformed literal: a, ai, a+bi or a-bi, optionally
        negated, failing at its first bad token or out-of-range number."""
        if self.at_punct("-"):
            self.advance()
        tok = self.peek()
        if tok.kind == "IMAG":
            self.number(self.advance())
            return
        if tok.kind != "NUMBER":
            self.fail(tok, "expected a number")
        self.number(self.advance())
        if (self.at_punct("+") or self.at_punct("-")) and self.tokens[self.pos + 1].kind == "IMAG":
            self.advance()
            self.number(self.advance())

    def expr(self, depth: int):
        self.check_depth(depth)
        terms = [("+", self.term(depth + 1))]
        while self.at_punct("+") or self.at_punct("-"):
            sign = self.advance().text
            terms.append((sign, self.term(depth + 1)))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def term(self, depth: int):
        self.check_depth(depth)
        factors = [self.factor(depth + 1)]
        while self.at_punct("*"):
            self.advance()
            factors.append(self.factor(depth + 1))
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self, depth: int):
        self.check_depth(depth)
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == "-":
            self.advance()
            return Neg(self.factor(depth + 1))
        if tok.kind == "NUMBER":
            self.advance()
            return ScalarLit(complex(self.number(tok), 0.0))
        if tok.kind == "IMAG":
            self.advance()
            return ScalarLit(complex(0.0, self.number(tok)))
        if tok.kind != "NAME":
            self.fail(tok, "expected an operator expression")
        if tok.text in ("X", "Y", "Z"):
            self.advance()
            return Builtin(tok.text)
        if tok.text == "I":
            self.advance()
            self.expect_punct("(")
            dim, dim_tok = self.expect_int("a dimension")
            self.expect_punct(")")
            if not 1 <= dim <= MAX_DIM:
                self.resolve_fail(dim_tok, f"dimension must lie in 1..{MAX_DIM}")
            return Builtin("I", dim)
        if tok.text == "sigma":
            self.advance()
            self.expect_punct("(")
            negate = False
            if self.at_punct("-"):
                self.advance()
                negate = True
            angle_tok = self.peek()
            if angle_tok.kind != "NUMBER":
                self.fail(angle_tok, "expected an angle in degrees")
            self.advance()
            self.expect_punct(")")
            angle = self.number(angle_tok)
            return BuiltinSigma(-angle if negate else angle)
        if tok.text == "kron":
            self.advance()
            self.expect_punct("(")
            left = self.expr(depth + 1)
            self.expect_punct(",")
            right = self.expr(depth + 1)
            self.expect_punct(")")
            return Kron(left, right)
        if tok.text == "proj":
            self.advance()
            self.expect_punct("(")
            ket = self.expect_name("a ket name")
            self.expect_punct(")")
            return Proj(ket.text)
        if tok.text in _RESERVED:
            self.fail(tok, f"{tok.text!r} cannot be used here")
        self.advance()
        return NameRef(tok.text)

    def check_depth(self, depth: int):
        if depth > MAX_EXPR_DEPTH:
            tok = self.peek()
            self.fail(tok, f"expression nesting exceeds {MAX_EXPR_DEPTH}")

    # resolution

    def lookup(self, tok: _Token, kind: str | None):
        bound = self.env.get(tok.text)
        if bound is None:
            self.resolve_fail(tok, f"unknown name {tok.text!r}")
        if kind is None:
            return bound
        if bound.kind != kind:
            self.resolve_fail(tok, f"{tok.text!r} is a {bound.kind}, expected a {kind}")
        return bound.value

    def _ket(self, name: str, at: _Token) -> Ket:
        return self.lookup(_Token("NAME", name, at.line, at.col), "ket")

    def _eval(self, node, at: _Token):
        if isinstance(node, ScalarLit):
            return node.value
        if isinstance(node, NameRef):
            tok = _Token("NAME", node.name, at.line, at.col)
            return self.lookup(tok, "op")
        if isinstance(node, Builtin):
            return builtin_operator(node.name, node.dim)
        if isinstance(node, BuiltinSigma):
            angle = np.radians(node.angle_deg)
            return self.evaluated(
                at, lambda: builtin_operator((np.sin(angle), 0.0, np.cos(angle)))
            )
        if isinstance(node, Proj):
            return self._ket(node.ket, at).projector().op
        if isinstance(node, Neg):
            return -self._eval(node.inner, at)
        if isinstance(node, Kron):
            left = self._eval(node.left, at)
            right = self._eval(node.right, at)
            if not isinstance(left, Operator) or not isinstance(right, Operator):
                self.resolve_fail(at, "kron needs two operators")
            if left.dim * right.dim > MAX_DIM:
                self.resolve_fail(at, f"kron result exceeds dimension {MAX_DIM}")
            return tensor_product(left, right)
        if isinstance(node, Product):
            # fold left to right: operators compose, a scalar scales
            value = self._eval(node.factors[0], at)
            for factor in node.factors[1:]:
                right = self._eval(factor, at)
                if isinstance(value, Operator) and isinstance(right, Operator):
                    value = self.evaluated(at, lambda: value @ right)
                else:
                    value = value * right
            return value
        if isinstance(node, Sum):
            return self._sum(node.terms, at)
        raise AssertionError(f"unhandled node {node!r}")

    def _scaled_projector(self, node, at: _Token) -> tuple[np.ndarray, complex] | None:
        """(v, c) when the term is c*proj(v), proj(v)*c or proj(v), any factor
        negated; None for any other term."""
        factors = node.factors if isinstance(node, Product) else (node,)
        if len(factors) > 2:
            return None
        coeff, ket = 1.0 + 0.0j, None
        for factor in factors:
            while isinstance(factor, Neg):
                factor, coeff = factor.inner, -coeff
            if isinstance(factor, Proj) and ket is None:
                ket = self._ket(factor.ket, at)
            elif isinstance(factor, ScalarLit):
                coeff *= factor.value
            else:
                return None
        return None if ket is None else (ket.amplitudes, coeff)

    def _sum(self, terms, at: _Token):
        """Evaluate a +/- chain in one pass, running the checks of a
        term-by-term sum in source order: each term matches the first in kind
        (operator or scalar) and in dimension.

        The terms c*proj(v) go to `hilbert._projector_sum` as one product,
        which also keeps the kets and weights of a chain that states a
        spectral form. The other operator terms accumulate in source order,
        so a chain without such terms sums exactly as term by term.
        """
        dim = None  # the first term's dimension; None for a scalar chain
        total = dense = None
        kets, coeffs = [], []
        for index, (sign, node) in enumerate(terms):
            scaled = self._scaled_projector(node, at)
            if scaled:
                value, d = None, len(scaled[0])
            else:
                value = self._eval(node, at)
                d = value.dim if isinstance(value, Operator) else None
            if index == 0:
                dim = d
            elif (d is None) != (dim is None):
                self.resolve_fail(at, f"cannot apply {sign!r} to an operator and a scalar")
            elif d != dim:
                self.resolve_fail(at, f"operator dims differ: {dim} vs {d}")
            if d is None:
                total = value if index == 0 else total + value if sign == "+" else total - value
            elif scaled:
                kets.append(scaled[0])
                coeffs.append(scaled[1] if sign == "+" else -scaled[1])
            elif dense is None:
                dense = np.array(value.entries) if sign == "+" else -value.entries
            elif sign == "+":
                dense += value.entries
            else:
                dense -= value.entries
        if dim is None:
            return total
        if kets:
            return self.evaluated(at, lambda: _projector_sum(kets, coeffs, dense))
        return Operator(dense)


def parse_spec(source: str) -> ExperimentSpec:
    """Parse and eagerly resolve a spec text into an executable form.

    Raises ParseError on bad syntax and ResolutionError (a ParseError) on
    anything a declaration or query references but cannot use; the first
    error carries every error found, up to 20, in `all_errors`.
    """
    tokens, lex_errors = _tokenize(source)
    return _Parser(tokens, lex_errors).parse()


# --- rendering ---------------------------------------------------------


def _dec(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    r = repr(float(x))
    if "e" in r or "E" in r:
        return format(Decimal(r), "f")
    return r


def _render_complex(z: complex) -> str:
    re_, im = z.real, z.imag
    if im == 0:
        return _dec(re_)
    if re_ == 0:
        return _dec(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{_dec(re_)}{sign}{_dec(abs(im))}i"


def _render_expr(node) -> str:
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, Builtin):
        return f"I({node.dim})" if node.name == "I" else node.name
    if isinstance(node, BuiltinSigma):
        return f"sigma({_dec(node.angle_deg)})"
    if isinstance(node, Kron):
        return f"kron({_render_expr(node.left)}, {_render_expr(node.right)})"
    if isinstance(node, Proj):
        return f"proj({node.ket})"
    if isinstance(node, ScalarLit):
        return _render_complex(node.value)
    if isinstance(node, Neg):
        return "-" + _render_expr(node.inner)
    if isinstance(node, Product):
        return "*".join(map(_render_expr, node.factors))
    if isinstance(node, Sum):
        (_, first), *rest = node.terms
        return _render_expr(first) + "".join(f" {sign} {_render_expr(t)}" for sign, t in rest)
    raise AssertionError(f"unhandled node {node!r}")


def _render_decl(decl) -> str:
    if isinstance(decl, KetDecl):
        body = ", ".join(_render_complex(z) for z in decl.amplitudes)
        return f"ket {decl.name} = [{body}]"
    if isinstance(decl, OpDecl):
        return f"op {decl.name} = {_render_expr(decl.expr)}"
    if isinstance(decl, PdiSpectral):
        return f"pdi {decl.name} = spectral({decl.operand})"
    if isinstance(decl, PdiExplicit):
        return f"pdi {decl.name} = {{{', '.join(decl.members)}}}"
    if isinstance(decl, FamilyDecl):
        lines = [f"family {decl.name} {{", f"  initial {decl.initial};"]
        for index, name in decl.props:
            lines.append(f"  prop {index} = {name};")
        for index, name in decl.events:
            lines.append(f"  events {index} = {name};")
        lines.append("}")
        return "\n".join(lines)
    raise AssertionError(f"unhandled declaration {decl!r}")


def render_query(query) -> str:
    if isinstance(query, BellQuery):
        body = f"{query.a0} {query.a1} {query.b0} {query.b1} in {query.state}"
    elif isinstance(query, FamilyQuery):
        body = query.family
    elif isinstance(query, ConditionalQuery):
        t, g = query.target, query.given
        body = f"{query.family} {t[0]}:{t[1]} | {g[0]}:{g[1]}"
    elif isinstance(query, SampleQuery):
        body = f"{query.state} {query.pdi} shots {query.shots} seed {query.seed}"
    elif isinstance(query, NoSignalQuery):
        alice = " ".join(query.alice)
        body = f"{query.state} dims {query.da} {query.db} alice {alice} bob {query.bob}"
    else:
        raise AssertionError(f"unhandled query {query!r}")
    return f"query {query.kind} {body}"


def render_spec(spec: ExperimentSpec) -> str:
    """Canonical text form; parsing it reproduces the spec structurally."""
    lines = [_render_decl(d) for d in spec.declarations]
    lines.extend(render_query(q) for q in spec.queries)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
